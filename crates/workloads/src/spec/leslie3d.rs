//! 107.leslie3d: computational fluid dynamics (LES solver).
//!
//! Deterministic 1-D decomposition halo exchanges with substantial compute
//! between them: near-floor DAMPI overhead (Table II: 1.14x), no leaks.

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;
use crate::tags;

/// leslie3d skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct Leslie3dParams {
    /// Time steps.
    pub steps: usize,
    /// Halo bytes.
    pub msg_bytes: usize,
    /// Simulated compute per step.
    pub step_cost: f64,
}

/// The leslie3d program.
#[derive(Debug, Clone)]
pub struct Leslie3d {
    params: Leslie3dParams,
}

impl Leslie3d {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: Leslie3dParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(Leslie3dParams {
            steps: 20,
            msg_bytes: 2048,
            step_cost: 1.2e-4,
        })
    }
}

impl MpiProgram for Leslie3d {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            for step in 0..self.params.steps {
                idioms::halo_1d(mpi, Comm::WORLD, tags::HALO, self.params.msg_bytes).await?;
                mpi.compute(self.params.step_cost)?;
                if step % 10 == 9 {
                    let _ = mpi
                        .allreduce_f64(Comm::WORLD, vec![0.1], ReduceOp::Max)
                        .await?;
                }
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "107.leslie3d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(8), &Leslie3d::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }
}
