//! The timed binary: `--trace 0` runs. System allocator, null
//! telemetry, no spans.

use heardof_benchmark::cli;
use heardof_benchmark::measure::{setup, timed_run};
use heardof_benchmark::metrics::END_TO_END;
use heardof_benchmark::stats::median;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fresh processes timed for `setup_s`. Code books and CRC tables are
/// built once per process, so a repeat inside one process would miss
/// exactly the work a later change might move into set-up.
const SETUP_RUNS: usize = 5;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&raw) {
        Ok(args) if !args.trace => args,
        Ok(_) => {
            eprintln!("hobench measures end to end; --trace 1 runs are hobench-trace's");
            return ExitCode::from(2);
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.setup_only {
        let (failed, seconds) = setup(w, args.seed, process_start);
        println!("{seconds}");
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // setup_s: process start to ready-for-the-first-timed-op, as each of
    // SETUP_RUNS child processes measured it, one after the other.
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    let mut setup_failed = 0;
    for _ in 0..SETUP_RUNS {
        let child = Command::new(&exe)
            .args([
                "--workload",
                w.name,
                "--seed",
                &args.seed.to_string(),
                "--setup-only",
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("re-running this binary for set-up");
        let seconds = String::from_utf8_lossy(&child.stdout).trim().parse::<f64>();
        match seconds {
            Ok(seconds) if child.status.success() => setups.push(seconds),
            _ => setup_failed += 1,
        }
    }
    if setups.is_empty() {
        eprintln!("[{}] every set-up run failed", w.name);
        return ExitCode::FAILURE;
    }
    // This process's own set-up is what warms it; it is not a sample.
    setup_failed += setup(w, args.seed, process_start).0;

    let run = timed_run(w, args.seed, args.seconds, median(&setups), setup_failed);
    println!("{}", run.to_json(&END_TO_END).write());
    ExitCode::SUCCESS
}
