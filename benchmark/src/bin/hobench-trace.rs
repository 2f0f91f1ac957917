//! The traced binary: `--trace 1` runs. The only binary that installs
//! the counting allocator.

use heardof_benchmark::alloc::CountingAlloc;
use heardof_benchmark::cli;
use heardof_benchmark::layers::traced_run;
use heardof_benchmark::measure::setup;
use heardof_benchmark::metrics::PER_LAYER;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&raw) {
        Ok(args) if args.trace && !args.setup_only => args,
        Ok(_) => {
            eprintln!("hobench-trace measures per layer; --trace 0 runs are hobench's");
            return ExitCode::from(2);
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let (setup_failed, _) = setup(args.workload, args.seed, std::time::Instant::now());
    let mut run = traced_run(
        args.workload,
        args.seed,
        args.seconds,
        args.spans_out.as_deref(),
    );
    run.failed += setup_failed;
    run.attempted += args.workload.warmup_ops as u64;
    run.correct &= setup_failed == 0;
    println!("{}", run.to_json(&PER_LAYER).write());
    ExitCode::SUCCESS
}
