//! The heardof benchmark: five consensus workloads measured end to end
//! through the production entry points, plus an outside-in layer trace.
//! See `README.md` for what each metric means and why each workload
//! exists.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod json;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod telemetry_ab;
pub mod workloads;
