//! EP (Embarrassingly Parallel): random-number statistics.
//!
//! Communication skeleton: long local compute followed by a handful of
//! final reductions — the Table II floor case (1.02x slowdown), since the
//! tool has almost nothing to interpose on.

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

/// EP skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct EpParams {
    /// Compute batches.
    pub batches: usize,
    /// Simulated compute per batch.
    pub batch_cost: f64,
}

/// The EP program.
#[derive(Debug, Clone)]
pub struct Ep {
    params: EpParams,
}

impl Ep {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: EpParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(EpParams {
            batches: 10,
            batch_cost: 5e-4,
        })
    }
}

impl MpiProgram for Ep {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let me = mpi.world_rank() as u64;
            let mut counts = [0u64; 4];
            for b in 0..self.params.batches {
                mpi.compute(self.params.batch_cost)?;
                // Deterministic pseudo-random Gaussian-pair counting stand-in.
                counts[(me as usize + b) % 4] += 1 + (me * 31 + b as u64) % 7;
            }
            let totals = mpi
                .allreduce_u64(Comm::WORLD, counts.to_vec(), ReduceOp::Sum)
                .await?;
            let _ = mpi
                .reduce_f64(
                    Comm::WORLD,
                    0,
                    vec![totals.iter().sum::<u64>() as f64],
                    ReduceOp::Max,
                )
                .await?;
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "EP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(8), &Ep::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }

    #[test]
    fn makespan_dominated_by_compute() {
        let out = run_native(&SimConfig::new(4), &Ep::nominal());
        let compute = 10.0 * 5e-4;
        assert!(out.makespan >= compute, "{}", out.makespan);
        assert!(out.makespan < compute * 1.5, "{}", out.makespan);
    }
}
