//! 130.socorro: density-functional theory (plane-wave electronic
//! structure).
//!
//! Collective-rich skeleton — broadcasts of wavefunction blocks,
//! reductions of energies, occasional transposes — with long compute
//! phases (Table II: 1.25x). Deterministic, leak-free.

use dampi_mpi::envelope::codec;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;

/// socorro skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct SocorroParams {
    /// SCF iterations.
    pub scf_iters: usize,
    /// Broadcast block bytes.
    pub block_bytes: usize,
    /// Simulated compute per SCF step.
    pub step_cost: f64,
}

/// The socorro program.
#[derive(Debug, Clone)]
pub struct Socorro {
    params: SocorroParams,
}

impl Socorro {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: SocorroParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(SocorroParams {
            scf_iters: 12,
            block_bytes: 2048,
            step_cost: 3e-4,
        })
    }
}

impl MpiProgram for Socorro {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let words = self.params.block_bytes / 8;
            for it in 0..self.params.scf_iters {
                // Root distributes the current wavefunction block.
                let root = it % mpi.world_size();
                let me = mpi.world_rank();
                let data = if me == root {
                    Some(codec::encode_u64s(&vec![it as u64; words]))
                } else {
                    None
                };
                let _ = mpi.bcast(Comm::WORLD, root, data).await?;
                mpi.compute(self.params.step_cost)?;
                // FFT-ish transpose every few iterations.
                if it % 4 == 3 {
                    idioms::transpose(mpi, Comm::WORLD, 256).await?;
                }
                // Energy reduction.
                let _ = mpi
                    .allreduce_f64(Comm::WORLD, vec![1.0 / (it + 1) as f64], ReduceOp::Sum)
                    .await?;
            }
            // Final gathered report at root.
            let _ = mpi.gather(Comm::WORLD, 0, codec::encode_u64(42)).await?;
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "130.socorro"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(6), &Socorro::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }
}
