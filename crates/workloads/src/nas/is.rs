//! IS (Integer Sort): parallel bucket sort.
//!
//! Communication skeleton: per iteration an allreduce of bucket counts, an
//! all-to-all key redistribution, and a final verification reduction.
//! Deterministic and leak-free (Table II: 1.09x).

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;

/// IS skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct IsParams {
    /// Sort iterations.
    pub iters: usize,
    /// Bytes of keys exchanged with each peer.
    pub bytes_per_peer: usize,
    /// Simulated local-sort compute.
    pub sort_cost: f64,
}

/// The IS program.
#[derive(Debug, Clone)]
pub struct Is {
    params: IsParams,
}

impl Is {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: IsParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(IsParams {
            iters: 10,
            bytes_per_peer: 512,
            sort_cost: 9e-4,
        })
    }
}

impl MpiProgram for Is {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let np = mpi.world_size() as u64;
            for _ in 0..self.params.iters {
                // Bucket-size exchange.
                let sizes = mpi
                    .allreduce_u64(
                        Comm::WORLD,
                        vec![mpi.world_rank() as u64 + 1; 4],
                        ReduceOp::Sum,
                    )
                    .await?;
                debug_assert_eq!(sizes[0], np * (np + 1) / 2);
                // Key redistribution.
                idioms::transpose(mpi, Comm::WORLD, self.params.bytes_per_peer).await?;
                mpi.compute(self.params.sort_cost)?;
            }
            // Final verification: global key count must be conserved.
            let _ = mpi
                .reduce_u64(Comm::WORLD, 0, vec![1], ReduceOp::Sum)
                .await?;
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "IS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(8), &Is::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }
}
