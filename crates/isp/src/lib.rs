//! **ISP** — the centralized dynamic verifier baseline (paper §II-A).
//!
//! The ISP tool stack lives in `dampi_core::isp`, and
//! `DampiVerifier` replays under it when `DampiConfig::tool` is
//! `ToolStack::Isp`: ISP and DAMPI share one driver and differ only in
//! architecture. This crate keeps the one-run facade [`IspVerifier`] for
//! callers that time a single ISP run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dampi_core::decisions::DecisionSet;
use dampi_core::scheduler::RunResult;
use dampi_core::{DampiConfig, DampiVerifier, ToolStack};
use dampi_mpi::program::MpiProgram;
use dampi_mpi::runtime::SimConfig;

/// A [`DampiVerifier`] that replays under the ISP tool stack.
#[derive(Debug, Clone)]
pub struct IspVerifier(DampiVerifier);

impl IspVerifier {
    /// ISP over `sim`, with the default configuration.
    #[must_use]
    pub fn new(sim: SimConfig) -> Self {
        let cfg = DampiConfig::default().with_tool(ToolStack::Isp);
        Self(DampiVerifier::with_config(sim, cfg))
    }

    /// Execute one run under the ISP stack with the given decisions.
    pub fn instrumented_run(&self, program: &dyn MpiProgram, decisions: &DecisionSet) -> RunResult {
        self.0.instrumented_run(program, decisions)
    }
}
