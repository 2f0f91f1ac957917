//! A vendored-style mini cooperative executor.
//!
//! The offline build cannot pull tokio, and the round engine does not
//! need it: one OS thread, a ready queue, and real `Waker`s are enough
//! to run one task per process with the scheduling property that
//! matters — a task that awaits (a barrier, a socket) yields the thread
//! to its peers, and is re-polled exactly when something it waits on
//! wakes it. Consistent with the `vendor/` policy, this implements only
//! the slice of an async runtime this workspace uses; swapping in a
//! real executor later only replaces this file.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// The shared ready queue wakers push task ids onto.
#[derive(Default)]
struct ReadyQueue {
    ids: Mutex<VecDeque<usize>>,
}

/// One task's waker: re-enqueues the task id. Spurious wakes (an id
/// enqueued twice, or after completion) are tolerated by the run loop.
struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.ids.lock().push_back(self.id);
    }
}

/// A single-threaded cooperative executor: spawn futures, then
/// [`MiniExecutor::run`] them to completion.
///
/// # Examples
///
/// ```
/// use heardof_async::MiniExecutor;
/// use std::sync::{Arc, atomic::{AtomicUsize, Ordering}};
///
/// let counter = Arc::new(AtomicUsize::new(0));
/// let mut exec = MiniExecutor::new();
/// for _ in 0..3 {
///     let counter = Arc::clone(&counter);
///     exec.spawn(async move { counter.fetch_add(1, Ordering::SeqCst); });
/// }
/// exec.run();
/// assert_eq!(counter.load(Ordering::SeqCst), 3);
/// ```
#[derive(Default)]
pub struct MiniExecutor<'a> {
    tasks: Vec<Option<Pin<Box<dyn Future<Output = ()> + 'a>>>>,
    ready: Arc<ReadyQueue>,
}

impl<'a> MiniExecutor<'a> {
    /// An executor with no tasks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a future as a new task, runnable from the next
    /// [`MiniExecutor::run`]. Tasks need not be `Send` — everything runs
    /// on the calling thread — nor `'static`: a task may borrow whatever
    /// outlives the executor, which is how a run gets its engines back.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'a) {
        let id = self.tasks.len();
        self.tasks.push(Some(Box::pin(fut)));
        self.ready.ids.lock().push_back(id);
    }

    /// Number of tasks not yet run to completion.
    pub fn pending(&self) -> usize {
        self.tasks.iter().filter(|t| t.is_some()).count()
    }

    /// Polls ready tasks round-robin until every task has completed.
    ///
    /// # Panics
    ///
    /// Panics if the ready queue drains while tasks are still pending —
    /// a deadlock (every remaining task awaits a wake that can no
    /// longer come, e.g. a barrier missing a participant).
    pub fn run(&mut self) {
        loop {
            let next = self.ready.ids.lock().pop_front();
            let Some(id) = next else {
                let stuck = self.pending();
                if stuck == 0 {
                    return;
                }
                panic!("mini-executor deadlock: {stuck} tasks await a wake that cannot come");
            };
            let Some(task) = self.tasks[id].as_mut() else {
                continue; // spurious wake after completion
            };
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                ready: Arc::clone(&self.ready),
            }));
            let mut cx = Context::from_waker(&waker);
            if task.as_mut().poll(&mut cx).is_ready() {
                self.tasks[id] = None;
            }
        }
    }
}

/// A barrier for round-synchronized cooperative tasks: the `parties`-th
/// waiter releases everyone, and the barrier resets for the next round.
/// This is the async substrate's round clock — where the threaded
/// runtime aligns rounds with wall-clock timeouts, cooperative tasks
/// align them exactly, which is what makes the substrate deterministic.
#[derive(Clone)]
pub struct RoundBarrier {
    state: Arc<Mutex<BarrierState>>,
}

struct BarrierState {
    parties: usize,
    arrived: usize,
    generation: u64,
    wakers: Vec<Waker>,
}

impl RoundBarrier {
    /// A barrier releasing every `parties` waiters.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        RoundBarrier {
            state: Arc::new(Mutex::new(BarrierState {
                parties,
                arrived: 0,
                generation: 0,
                wakers: Vec::new(),
            })),
        }
    }

    /// Arrive and wait for the rest of the current generation.
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            state: Arc::clone(&self.state),
            target: None,
        }
    }
}

/// The future returned by [`RoundBarrier::wait`].
pub struct BarrierWait {
    state: Arc<Mutex<BarrierState>>,
    /// Generation this waiter is released at; `None` until first poll
    /// (arrival happens at first poll, not at `wait()`).
    target: Option<u64>,
}

impl Future for BarrierWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut s = this.state.lock();
        match this.target {
            None => {
                let gen = s.generation;
                s.arrived += 1;
                if s.arrived == s.parties {
                    s.arrived = 0;
                    s.generation = gen + 1;
                    for w in s.wakers.drain(..) {
                        w.wake();
                    }
                    Poll::Ready(())
                } else {
                    this.target = Some(gen + 1);
                    s.wakers.push(cx.waker().clone());
                    Poll::Pending
                }
            }
            Some(target) => {
                if s.generation >= target {
                    Poll::Ready(())
                } else {
                    s.wakers.push(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_orders_phases_across_tasks() {
        // 3 tasks, 5 generations: no task may enter generation g+1
        // before every task finished generation g.
        let n = 3;
        let rounds = 5;
        let barrier = RoundBarrier::new(n);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut exec = MiniExecutor::new();
        for t in 0..n {
            let barrier = barrier.clone();
            let log = Arc::clone(&log);
            exec.spawn(async move {
                for g in 0..rounds {
                    log.lock().push((g, t));
                    barrier.wait().await;
                }
            });
        }
        exec.run();
        let log = log.lock();
        assert_eq!(log.len(), n * rounds);
        for (i, &(g, _)) in log.iter().enumerate() {
            assert_eq!(g, i / n, "generations never interleave: {log:?}");
        }
    }

    #[test]
    fn spurious_wakes_are_harmless() {
        let done = Arc::new(AtomicUsize::new(0));
        let mut exec = MiniExecutor::new();
        let d = Arc::clone(&done);
        exec.spawn(async move {
            d.fetch_add(1, Ordering::SeqCst);
        });
        // Enqueue the id a few extra times before running.
        for _ in 0..3 {
            exec.ready.ids.lock().push_back(0);
        }
        exec.run();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn missing_barrier_party_is_a_deadlock_not_a_hang() {
        let barrier = RoundBarrier::new(2); // nobody else will ever come
        let mut exec = MiniExecutor::new();
        exec.spawn(async move {
            barrier.wait().await;
        });
        exec.run();
    }
}
