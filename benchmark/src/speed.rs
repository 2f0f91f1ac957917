//! Machine-speed reference: what makes timings comparable between runs
//! on a host whose speed is not constant.
//!
//! The sandbox this benchmark was built on is a two-vCPU guest whose
//! throughput-bound code runs at anything between 1× and 0.55× of its
//! best speed for tens of seconds at a time, with the guest itself
//! idle and system time near zero (a latency-bound dependent-add chain
//! is unaffected — the signature of a busy sibling hyperthread or
//! shared cache on the host). Raw wall-clock medians of the same binary
//! then differ by up to 48 % between back-to-back runs; no bound under
//! 25 % survives that, and no within-run statistic helps because a slow
//! spell outlasts a run.
//!
//! So every timed loop interleaves a fixed *reference kernel* — small
//! allocations, copies and a fold, the instruction mix the round loop
//! itself is made of — and reports its timings **at reference speed**:
//! the part of the wall time the process spent on a CPU is scaled by
//! `measured kernel rate ÷ REFERENCE_RATE`, the part it spent asleep
//! (the threaded runtime's round timeouts) is left alone. The kernel is
//! benchmark code, so no change to the program can move it; measured on
//! this host its rate tracks each CPU-bound workload's throughput with
//! correlation 0.89–0.98 and takes the batch-to-batch spread from
//! 10–47 % down to 2–10 % (README, "Why timings are normalised"). One
//! workload is hit measurably harder than the kernel when the host
//! slows; each workload therefore carries its fitted exponent.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's rate, in iterations per second, that timings
/// are normalised to: this host's unloaded rate for [`BURST`]-iteration
/// bursts. On an unloaded run of this host the factor is ≈ 1 and the
/// reported numbers are plain wall-clock.
pub const REFERENCE_RATE: f64 = 7.0e6;

/// Iterations per burst: ≈ 0.1 ms, long enough to time, short enough
/// that one burst per [`WORK_PER_BURST_S`] costs about 2 %.
pub const BURST: usize = 640;

/// Measured work between bursts. Slow spells last seconds; sampling
/// every few milliseconds is far finer than they change.
pub const WORK_PER_BURST_S: f64 = 0.004;

/// The reference kernel: allocate, fill, copy, fold, retire — sized to
/// stay in the first-level cache, like the per-frame work of a round.
#[inline(never)]
fn reference_kernel(iters: usize) -> u64 {
    let mut ring: Vec<Vec<u8>> = (0..64).map(|_| Vec::new()).collect();
    let mut boxes: Vec<Box<[u64; 8]>> = Vec::with_capacity(240);
    let mut acc = 0u64;
    for i in 0..iters {
        let len = 32 + (i * 7) % 96;
        let mut v = vec![(i & 0xff) as u8; len];
        for (j, b) in v.iter_mut().enumerate() {
            *b = b.wrapping_add(j as u8);
        }
        let copy = v.clone();
        acc = acc.wrapping_add(
            copy.iter()
                .fold(0u64, |a, b| a.rotate_left(5) ^ u64::from(*b)),
        );
        ring[i % 64] = copy;
        if boxes.len() == 240 {
            boxes.clear();
        }
        boxes.push(Box::new([acc; 8]));
    }
    acc
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat`; `None` where that file does not exist.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks (USER_HZ = 100).
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split(' ').skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Interleaves reference bursts with measured work and turns the pair
/// into the factor that brings a wall time to reference speed.
#[derive(Clone, Debug)]
pub struct Speedometer {
    started: Instant,
    cpu_at_start: Option<f64>,
    since_burst_s: f64,
    burst_s: f64,
    bursts: u64,
    /// Mean rate of the last two bursts — the machine's speed *now*.
    recent_rate: f64,
}

impl Default for Speedometer {
    fn default() -> Self {
        Self::new()
    }
}

impl Speedometer {
    /// Starts a measurement interval with one burst.
    pub fn new() -> Self {
        let mut s = Speedometer {
            started: Instant::now(),
            cpu_at_start: process_cpu_s(),
            since_burst_s: 0.0,
            burst_s: 0.0,
            bursts: 0,
            recent_rate: 0.0,
        };
        s.burst();
        s
    }

    /// Runs one reference burst now.
    pub fn burst(&mut self) {
        let t = Instant::now();
        black_box(reference_kernel(black_box(BURST)));
        let took = t.elapsed().as_secs_f64();
        let rate = BURST as f64 / took;
        self.recent_rate = if self.bursts == 0 {
            rate
        } else {
            (self.recent_rate + rate) / 2.0
        };
        self.burst_s += took;
        self.bursts += 1;
        self.since_burst_s = 0.0;
    }

    /// Accounts `seconds` of measured work; runs a burst once
    /// [`WORK_PER_BURST_S`] of it has accumulated.
    #[inline]
    pub fn worked(&mut self, seconds: f64) {
        self.since_burst_s += seconds;
        if self.since_burst_s >= WORK_PER_BURST_S {
            self.burst();
        }
    }

    /// Wall seconds spent in bursts so far (to subtract from a loop's
    /// wall time).
    pub fn burst_seconds(&self) -> f64 {
        self.burst_s
    }

    /// The kernel's measured rate over the interval, iterations/s.
    pub fn rate(&self) -> f64 {
        (self.bursts as f64 * BURST as f64) / self.burst_s
    }

    /// The kernel's rate over the last two bursts (at most
    /// 2 × [`WORK_PER_BURST_S`] of work ago), iterations/s — what an op
    /// that just returned should be normalised by. Within a slow spell
    /// the host's speed still swings from one 10 ms to the next; a tail
    /// percentile picks exactly the ops that met the slowest moments,
    /// so scaling it by the interval's *mean* rate would leave the tail
    /// inflated.
    pub fn recent_rate(&self) -> f64 {
        self.recent_rate
    }

    /// The share of the interval's non-burst wall time the process
    /// spent on a CPU so far (1 where `/proc/self/stat` is missing).
    pub fn busy_share(&self) -> f64 {
        let wall = self.started.elapsed().as_secs_f64() - self.burst_s;
        match (self.cpu_at_start, process_cpu_s()) {
            (Some(a), Some(b)) if wall > 0.0 => ((b - a - self.burst_s) / wall).clamp(0.0, 1.0),
            _ => 1.0,
        }
    }

    /// Ends the interval: the factor to multiply its wall time by. The
    /// busy share scales with machine speed (to the power `exponent`,
    /// see [`to_reference_speed`]); the rest — sleeping in timeouts —
    /// does not.
    pub fn factor(&self, exponent: f64) -> f64 {
        to_reference_speed(self.busy_share(), self.rate(), exponent)
    }
}

/// The factor for an interval that was on a CPU for `busy` of its wall
/// time while the reference kernel ran at `rate`. `exponent` is how
/// much harder than the kernel the measured code is hit when the host
/// slows (1 = exactly as hard): a workload's fitted slope of
/// log throughput on log kernel rate, see `Workload::speed_exponent`.
pub fn to_reference_speed(busy: f64, rate: f64, exponent: f64) -> f64 {
    (1.0 - busy) + busy * (rate / REFERENCE_RATE).powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_busy_share_scales_with_the_kernel_rate() {
        let half_speed = REFERENCE_RATE / 2.0;
        assert_eq!(to_reference_speed(1.0, half_speed, 1.0), 0.5, "CPU-bound");
        assert_eq!(to_reference_speed(0.0, half_speed, 1.0), 1.0, "asleep");
        assert_eq!(to_reference_speed(0.06, half_speed, 1.0), 0.97);
        assert_eq!(
            to_reference_speed(1.0, half_speed, 2.0),
            0.25,
            "hit twice as hard"
        );
        assert_eq!(to_reference_speed(1.0, REFERENCE_RATE, 1.5), 1.0);
    }

    #[test]
    fn bursts_interleave_with_accounted_work() {
        let mut s = Speedometer::new();
        for _ in 0..10 {
            s.worked(WORK_PER_BURST_S / 2.0);
        }
        assert_eq!(s.bursts, 1 + 5, "one at the start, one per 4 ms of work");
        assert!(s.rate() > 0.0 && s.burst_seconds() > 0.0);
        // Other tests share this process's CPU clock, so the busy share
        // is anyone's guess here; the factor still lies between "all
        // asleep" and "all busy".
        let all_busy = s.rate() / REFERENCE_RATE;
        let f = s.factor(1.0);
        assert!(
            f >= all_busy.min(1.0) - 1e-9 && f <= all_busy.max(1.0) + 1e-9,
            "{f}"
        );
    }

    #[test]
    fn cpu_time_reads_and_grows() {
        let before = process_cpu_s().expect("/proc/self/stat on linux");
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < 0.05 {
            black_box(reference_kernel(100));
        }
        assert!(process_cpu_s().unwrap() >= before);
    }
}
