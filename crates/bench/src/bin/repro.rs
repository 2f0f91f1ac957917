//! Prints the paper's artifacts: every entry of
//! `heardof_bench::repro::ARTIFACTS` in table order, or only the ones
//! named as arguments, in argument order.
//!
//! ```text
//! cargo run --release -p heardof-bench --bin repro -- [artifact ...]
//! ```

use heardof_bench::repro::{render, ARTIFACTS};

fn main() {
    let known: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|arg| !known.contains(&arg.as_str())) {
        eprintln!(
            "repro: unknown artifact `{unknown}`; known: {}",
            known.join(" ")
        );
        std::process::exit(2);
    }
    let names = if args.is_empty() {
        known
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in names {
        print!("{}", render(name).expect("a known artifact"));
    }
}
