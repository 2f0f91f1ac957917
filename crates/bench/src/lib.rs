//! # heardof-bench
//!
//! The experiment harness of the workspace. [`repro::ARTIFACTS`] holds
//! every table, figure and claim of *Tolerating Corrupted
//! Communication* (PODC 2007) that this repository reproduces, plus the
//! coding layer's operating points; the `repro` bin prints them and
//! `tests/repro_golden.rs` pins each one byte for byte. Criterion
//! micro-benchmarks live in `benches/` and commit their results through
//! [`report::BenchReport`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod repro;
