//! A deterministic distributed graph-partitioner kernel standing in for
//! ParMETIS-3.1 (paper Fig. 5, Table I, Table II).
//!
//! ParMETIS is *fully deterministic* (no wildcard receives); what matters
//! for the paper's experiments is its **operation census**: roughly one
//! million MPI calls at 32 processes, with total operations growing ~2.5×
//! per process-doubling while per-process operations grow only ~1.3× and
//! collectives *per process* shrink as the job grows (Table I). This
//! kernel reproduces that shape: hypercube halo exchanges (log₂ np
//! neighbors per rank — per-proc work grows with log np, total with
//! np·log np) interleaved with coarsening reductions whose count decays
//! slowly with np.
//!
//! Table II also reports that DAMPI's resource checker flags a
//! **communicator leak** in the ParMETIS run; the kernel reproduces it by
//! leaving its workspace communicator unfreed (configurable).

use dampi_mpi::envelope::codec;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp, Request};

use crate::tags;

/// Parameters of the partitioner kernel.
#[derive(Debug, Clone, Copy)]
pub struct ParmetisParams {
    /// Coarsening rounds (each ends in a reduction).
    pub coarsen_rounds: usize,
    /// Halo exchanges per round.
    pub exchanges_per_round: usize,
    /// Bytes per halo message.
    pub msg_bytes: usize,
    /// Simulated partitioning compute per round (keeps the
    /// communication-to-computation ratio of the real code, which is what
    /// the Table II slowdown depends on).
    pub round_cost: f64,
    /// Leave the workspace communicator unfreed (the Table II C-leak).
    pub leak_comm: bool,
}

impl Default for ParmetisParams {
    fn default() -> Self {
        Self {
            coarsen_rounds: 8,
            exchanges_per_round: 4,
            msg_bytes: 256,
            round_cost: 4e-4,
            leak_comm: true,
        }
    }
}

impl ParmetisParams {
    /// Parameters calibrated to reproduce Table I's scaling shape at a
    /// manageable absolute scale (~1/20 of the paper's counts). `scale`
    /// multiplies all loop counts (1.0 = bench scale, use small values in
    /// tests).
    #[must_use]
    pub fn nominal(np: usize, scale: f64) -> Self {
        let d = (np.max(2) as f64).log2();
        // Collectives per proc decay ~0.88x per doubling (Table I):
        // rounds ∝ d^-0.2 relative to the np=8 baseline of ~40 rounds.
        let rounds = (40.0 * scale * (3.0 / d).powf(0.55)).ceil().max(1.0) as usize;
        // Per-proc p2p grows ~1.28x per doubling; neighbors already give
        // log2(np) growth (~1.2-1.4x per doubling in this range).
        let exchanges = (6.0 * scale).ceil().max(1.0) as usize;
        Self {
            coarsen_rounds: rounds,
            exchanges_per_round: exchanges,
            msg_bytes: 256,
            round_cost: 5e-4,
            leak_comm: true,
        }
    }
}

/// The partitioner kernel program.
#[derive(Debug, Clone)]
pub struct Parmetis {
    params: ParmetisParams,
}

impl Parmetis {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: ParmetisParams) -> Self {
        Self { params }
    }

    /// Hypercube neighbors of `me` in a world of `np` ranks.
    fn neighbors(me: usize, np: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut bit = 1usize;
        while bit < np {
            let peer = me ^ bit;
            if peer < np {
                out.push(peer);
            }
            bit <<= 1;
        }
        out
    }
}

impl MpiProgram for Parmetis {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let np = mpi.world_size();
            let me = mpi.world_rank();
            let p = self.params;
            // Workspace communicator (ParMETIS duplicates the user's comm).
            let work = mpi.comm_dup(Comm::WORLD).await?;
            let nbrs = Self::neighbors(me, np);
            let payload: Vec<u64> = (0..p.msg_bytes / 8).map(|i| (me + i) as u64).collect();
            let mut edge_cut = (me as u64 + 1) * 1000;
            for round in 0..p.coarsen_rounds {
                for _ in 0..p.exchanges_per_round {
                    let mut reqs: Vec<Request> = Vec::with_capacity(2 * nbrs.len());
                    for &nb in &nbrs {
                        reqs.push(mpi.irecv(work, nb as i32, tags::HALO)?);
                    }
                    for &nb in &nbrs {
                        reqs.push(mpi.isend(
                            work,
                            nb as i32,
                            tags::HALO,
                            codec::encode_u64s(&payload),
                        )?);
                    }
                    // ParMETIS consumes some halo replies eagerly (individual
                    // waits) and batches the rest in one Waitall — this gives
                    // Table I its ~3.6:1 Send-Recv:Wait call ratio.
                    let eager = nbrs.len() / 2;
                    for r in reqs.drain(..eager) {
                        mpi.wait(r).await?;
                    }
                    mpi.waitall(&reqs).await?;
                }
                mpi.compute(p.round_cost)?;
                // Coarsening step: global edge-cut reduction.
                let cut = mpi
                    .allreduce_u64(work, vec![edge_cut], ReduceOp::Min)
                    .await?;
                edge_cut = cut[0].saturating_sub(round as u64);
                // Occasional synchronization barrier between phases.
                if round % 4 == 3 {
                    mpi.barrier(work).await?;
                }
            }
            // Final gather of partition quality at root.
            let _ = mpi.gather(work, 0, codec::encode_u64(edge_cut)).await?;
            if !p.leak_comm {
                mpi.comm_free(work).await?;
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "ParMETIS-3.1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::interpose::StatsLayer;
    use dampi_mpi::stats::StatsCollector;
    use dampi_mpi::{ready_stack, run_native, run_with_layers, SimConfig};
    use std::sync::Arc;

    #[test]
    fn neighbors_form_hypercube() {
        assert_eq!(Parmetis::neighbors(0, 8), vec![1, 2, 4]);
        assert_eq!(Parmetis::neighbors(5, 8), vec![4, 7, 1]);
        // Non-power-of-two worlds drop out-of-range peers.
        assert_eq!(Parmetis::neighbors(5, 6), vec![4, 1]);
    }

    #[test]
    fn runs_clean_but_leaks_comm() {
        let prog = Parmetis::new(ParmetisParams {
            coarsen_rounds: 2,
            exchanges_per_round: 1,
            msg_bytes: 64,
            round_cost: 0.0,
            leak_comm: true,
        });
        let out = run_native(&SimConfig::new(4), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.has_comm_leak(), "Table II: ParMETIS C-leak = Yes");
        assert!(!out.leaks.has_request_leak());
    }

    #[test]
    fn no_leak_when_freed() {
        let prog = Parmetis::new(ParmetisParams {
            coarsen_rounds: 1,
            exchanges_per_round: 1,
            msg_bytes: 64,
            round_cost: 0.0,
            leak_comm: false,
        });
        let out = run_native(&SimConfig::new(4), &prog);
        assert!(out.succeeded());
        assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    }

    #[test]
    fn census_shape_total_grows_faster_than_per_proc() {
        let census = |np: usize| {
            let collector = StatsCollector::new();
            let prog = Parmetis::new(ParmetisParams::nominal(np, 0.2));
            let c2 = Arc::clone(&collector);
            let out = run_with_layers(&SimConfig::new(np), &prog, &move |_, pmpi| {
                ready_stack(StatsLayer::new(pmpi, Arc::clone(&c2)))
            });
            assert!(out.succeeded());
            (collector.total().total(), collector.per_proc().total())
        };
        let (t8, p8) = census(8);
        let (t16, p16) = census(16);
        let total_growth = t16 as f64 / t8 as f64;
        let pp_growth = p16 as f64 / p8 as f64;
        assert!(
            total_growth > 1.7 && total_growth < 3.5,
            "total ops should grow ~2.5x per doubling, got {total_growth}"
        );
        assert!(
            pp_growth > 0.9 && pp_growth < 1.8,
            "per-proc ops should grow ~1.3x per doubling, got {pp_growth}"
        );
        assert!(total_growth > pp_growth);
    }

    #[test]
    fn collectives_per_proc_decrease_with_scale() {
        let coll_pp = |np: usize| {
            let collector = StatsCollector::new();
            let prog = Parmetis::new(ParmetisParams::nominal(np, 0.2));
            let c2 = Arc::clone(&collector);
            let out = run_with_layers(&SimConfig::new(np), &prog, &move |_, pmpi| {
                ready_stack(StatsLayer::new(pmpi, Arc::clone(&c2)))
            });
            assert!(out.succeeded());
            collector.per_proc().collective
        };
        let c8 = coll_pp(8);
        let c32 = coll_pp(32);
        assert!(
            c32 <= c8,
            "collectives per proc must not grow (Table I): c8={c8} c32={c32}"
        );
    }

    #[test]
    fn deterministic_no_wildcards() {
        use dampi_core::DampiVerifier;
        let prog = Parmetis::new(ParmetisParams {
            coarsen_rounds: 1,
            exchanges_per_round: 1,
            msg_bytes: 64,
            round_cost: 0.0,
            leak_comm: false,
        });
        let report = DampiVerifier::new(SimConfig::new(4)).verify(&prog);
        assert_eq!(report.wildcards_analyzed, 0, "ParMETIS is deterministic");
        assert_eq!(report.interleavings, 1);
    }
}
