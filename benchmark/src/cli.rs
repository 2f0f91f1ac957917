//! The command line both binaries share:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::workloads::{by_name, Workload, WORKLOADS};

/// Parsed arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// `--seed`: generates every input of the run.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace`: 0 = end-to-end metrics, 1 = per-layer metrics.
    pub trace: bool,
    /// `--setup-only`: do the set-up work and exit (the parent times it).
    pub setup_only: bool,
    /// `--spans-out <file>`: where the traced run writes its kept spans.
    pub spans_out: Option<String>,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A usage message naming the offending argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(by_name(&name).ok_or_else(|| {
                    format!(
                        "unknown workload {name:?}; one of: {}",
                        WORKLOADS.map(|w| w.name).join(", ")
                    )
                })?);
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--setup-only" => setup_only = true,
            "--spans-out" => spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
        spans_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let a = parse(&args(&[
            "--workload",
            "bursty-adaptive",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.name, "bursty-adaptive");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
        assert!(!a.setup_only);
    }

    #[test]
    fn rejects_bad_input_with_a_message() {
        for bad in [
            vec!["--seed", "1"],
            vec!["--workload", "nope"],
            vec!["--workload", "clean-single", "--seed", "x"],
            vec!["--workload", "clean-single", "--seconds", "0"],
            vec!["--workload", "clean-single", "--trace", "2"],
            vec!["--workload", "clean-single", "--frobnicate"],
            vec!["--workload"],
        ] {
            assert!(parse(&args(&bad)).is_err(), "{bad:?}");
        }
    }
}
