//! 104.milc: lattice QCD (the MILC su3imp application).
//!
//! MILC's gather machinery consumes halo contributions with
//! `MPI_ANY_SOURCE` receives in arrival order — tens of thousands of
//! wildcards per run (Table II: R\* = 51K at 1024 procs, by far the most),
//! and correspondingly the worst DAMPI slowdown (15x): every wildcard
//! defers a piggyback receive and every late message is matched against a
//! large epoch log. It also leaves a gather communicator unfreed (C-leak =
//! Yes).

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;
use crate::tags;

/// MILC skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct MilcParams {
    /// Conjugate-gradient/update iterations.
    pub iters: usize,
    /// Wildcard halo gathers per iteration.
    pub gathers_per_iter: usize,
    /// Halo-message bytes.
    pub msg_bytes: usize,
    /// Simulated compute per iteration.
    pub iter_cost: f64,
}

/// The MILC program.
#[derive(Debug, Clone)]
pub struct Milc {
    params: MilcParams,
}

impl Milc {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: MilcParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration (≈50 wildcards per rank, the
    /// per-rank density of Table II's 51K at 1024 procs).
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(MilcParams {
            iters: 5,
            gathers_per_iter: 4,
            msg_bytes: 256,
            iter_cost: 1.2e-4,
        })
    }
}

impl MpiProgram for Milc {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let gather_comm = mpi.comm_dup(Comm::WORLD).await?; // never freed
            for _ in 0..self.params.iters {
                for g in 0..self.params.gathers_per_iter {
                    // Wildcard halo gather: neighbors' contributions consumed
                    // in arrival order.
                    let _ = idioms::halo_2d_wildcard(
                        mpi,
                        gather_comm,
                        tags::HALO + g as i32,
                        self.params.msg_bytes,
                    )
                    .await?;
                }
                mpi.compute(self.params.iter_cost)?;
                let _ = mpi
                    .allreduce_f64(Comm::WORLD, vec![1.0, 2.0], ReduceOp::Sum)
                    .await?;
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "104.milc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_core::{DampiConfig, DampiVerifier, DecisionSet};
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_and_leaks_gather_comm() {
        let out = run_native(&SimConfig::new(9), &Milc::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.has_comm_leak(), "Table II: milc C-leak = Yes");
    }

    #[test]
    fn wildcard_count_is_high() {
        let v = DampiVerifier::with_config(
            SimConfig::new(9),
            DampiConfig::default().with_max_interleavings(1),
        );
        let res = v.instrumented_run(&Milc::nominal(), &DecisionSet::self_run());
        assert!(res.outcome.succeeded(), "{:?}", res.outcome.fatal);
        // 9 ranks × 5 iters × 4 gathers × (2-4 neighbors).
        assert!(
            res.stats.wildcards > 100,
            "milc must be wildcard-heavy: {}",
            res.stats.wildcards
        );
    }
}
