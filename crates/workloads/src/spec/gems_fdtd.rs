//! 113.GemsFDTD: finite-difference time-domain electromagnetics.
//!
//! Deterministic 2-D face exchanges for the E/H field updates; the solver
//! duplicates a communicator for its field exchanges and never frees it
//! (Table II: C-leak = Yes, slowdown 1.13x).

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;
use crate::tags;

/// GemsFDTD skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct GemsFdtdParams {
    /// Time steps (each updates E then H fields).
    pub steps: usize,
    /// Face bytes.
    pub msg_bytes: usize,
    /// Simulated compute per field update.
    pub update_cost: f64,
}

/// The GemsFDTD program.
#[derive(Debug, Clone)]
pub struct GemsFdtd {
    params: GemsFdtdParams,
}

impl GemsFdtd {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: GemsFdtdParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(GemsFdtdParams {
            steps: 15,
            msg_bytes: 1024,
            update_cost: 1.5e-4,
        })
    }
}

impl MpiProgram for GemsFdtd {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let field_comm = mpi.comm_dup(Comm::WORLD).await?; // never freed
            for _ in 0..self.params.steps {
                // E-field update + exchange.
                idioms::halo_2d(mpi, field_comm, tags::HALO, self.params.msg_bytes).await?;
                mpi.compute(self.params.update_cost)?;
                // H-field update + exchange.
                idioms::halo_2d(mpi, field_comm, tags::HALO + 1, self.params.msg_bytes).await?;
                mpi.compute(self.params.update_cost)?;
            }
            let _ = mpi
                .reduce_f64(Comm::WORLD, 0, vec![1.0], ReduceOp::Sum)
                .await?;
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "113.GemsFDTD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_and_leaks_field_comm() {
        let out = run_native(&SimConfig::new(6), &GemsFdtd::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.has_comm_leak());
    }
}
