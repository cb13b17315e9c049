//! 137.lu: the SpecMPI2007 LU factorization (distinct from NAS LU).
//!
//! Predominantly deterministic pipelined panel broadcasts with a *sparse*
//! sprinkling of wildcard receives in its lookahead logic — Table II
//! reports R\* = 732 at 1024 procs (under one per rank) with near-floor
//! overhead (1.04x) and a leaked communicator (C-leak = Yes).

use dampi_mpi::envelope::codec;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp, ANY_SOURCE};

use crate::tags;

/// 137.lu skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct Lu137Params {
    /// Panel factorization steps.
    pub panels: usize,
    /// Panel bytes.
    pub panel_bytes: usize,
    /// Simulated trailing-update compute per panel.
    pub update_cost: f64,
    /// Every `wildcard_stride`-th panel uses the wildcard lookahead path
    /// (0 disables wildcards).
    pub wildcard_stride: usize,
}

/// The 137.lu program.
#[derive(Debug, Clone)]
pub struct Lu137 {
    params: Lu137Params,
}

impl Lu137 {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: Lu137Params) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(Lu137Params {
            panels: 16,
            panel_bytes: 1024,
            update_cost: 2e-3,
            wildcard_stride: 8,
        })
    }
}

impl MpiProgram for Lu137 {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let np = mpi.world_size();
            let me = mpi.world_rank();
            let grid_comm = mpi.comm_dup(Comm::WORLD).await?; // never freed
            let words = self.params.panel_bytes / 8;
            for panel in 0..self.params.panels {
                let owner = panel % np;
                // Panel broadcast down the process column (ring pipeline).
                if me == owner {
                    let next = (me + 1) % np;
                    if next != owner {
                        mpi.send(
                            grid_comm,
                            next as i32,
                            tags::SWEEP,
                            codec::encode_u64s(&vec![panel as u64; words.max(1)]),
                        )
                        .await?;
                    }
                } else {
                    let use_wildcard =
                        self.params.wildcard_stride > 0 && panel % self.params.wildcard_stride == 0;
                    let (_, data) = if use_wildcard {
                        // Lookahead path: accept the panel from whoever
                        // forwards it first.
                        mpi.recv(grid_comm, ANY_SOURCE, tags::SWEEP).await?
                    } else {
                        let prev = (me + np - 1) % np;
                        mpi.recv(grid_comm, prev as i32, tags::SWEEP).await?
                    };
                    let next = (me + 1) % np;
                    if next != owner {
                        mpi.send(grid_comm, next as i32, tags::SWEEP, data).await?;
                    }
                }
                mpi.compute(self.params.update_cost)?;
                if panel % 4 == 3 {
                    let _ = mpi
                        .allreduce_f64(grid_comm, vec![1.0], ReduceOp::Max)
                        .await?;
                }
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "137.lu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_core::{DampiConfig, DampiVerifier, DecisionSet};
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_and_leaks_grid_comm() {
        let out = run_native(&SimConfig::new(5), &Lu137::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.has_comm_leak(), "Table II: 137.lu C-leak = Yes");
    }

    #[test]
    fn wildcards_are_sparse() {
        let v = DampiVerifier::with_config(
            SimConfig::new(4),
            DampiConfig::default().with_max_interleavings(1),
        );
        let res = v.instrumented_run(&Lu137::nominal(), &DecisionSet::self_run());
        assert!(res.outcome.succeeded(), "{:?}", res.outcome.fatal);
        // 16 panels, stride 8: 2 wildcard panels × (np-1 receivers at
        // most) — a handful, not thousands.
        assert!(res.stats.wildcards > 0);
        assert!(res.stats.wildcards < 20, "{}", res.stats.wildcards);
    }

    #[test]
    fn deterministic_variant_has_no_wildcards() {
        let v = DampiVerifier::with_config(
            SimConfig::new(4),
            DampiConfig::default().with_max_interleavings(1),
        );
        let prog = Lu137::new(Lu137Params {
            wildcard_stride: 0,
            ..Lu137Params {
                panels: 8,
                panel_bytes: 64,
                update_cost: 0.0,
                wildcard_stride: 0,
            }
        });
        let res = v.instrumented_run(&prog, &DecisionSet::self_run());
        assert_eq!(res.stats.wildcards, 0);
    }
}
