//! `dampi-benchmark`: the repository's benchmark.
//!
//! Five workloads, four bounded end-to-end metrics and a per-layer trace
//! of the DAMPI verifier, all measured **from outside**: the harness times
//! its own calls into the crates' public functions, and no file outside
//! `benchmark/` knows it exists. `README.md` has the glossary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
