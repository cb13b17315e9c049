//! DT (Data Traffic): a small communication-graph benchmark.
//!
//! Communication skeleton: source ranks feed data through a shallow
//! binary-tree reduction into a sink — few, large messages, which is why
//! DT shows essentially no interposition overhead in Table II (1.01x).

use dampi_mpi::envelope::codec;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody};

use crate::tags;

/// DT skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct DtParams {
    /// Graph evaluations.
    pub rounds: usize,
    /// Bytes per graph edge.
    pub msg_bytes: usize,
    /// Simulated compute per node visit.
    pub node_cost: f64,
}

/// The DT program.
#[derive(Debug, Clone)]
pub struct Dt {
    params: DtParams,
}

impl Dt {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: DtParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(DtParams {
            rounds: 4,
            msg_bytes: 4096,
            node_cost: 6e-4,
        })
    }
}

impl MpiProgram for Dt {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let np = mpi.world_size();
            let me = mpi.world_rank();
            for _ in 0..self.params.rounds {
                // Binary-tree reduction toward rank 0: leaves send up, inner
                // nodes combine children then forward.
                let left = 2 * me + 1;
                let right = 2 * me + 2;
                let mut acc = me as u64;
                if left < np {
                    let (_, d) = mpi.recv(Comm::WORLD, left as i32, tags::RESULT).await?;
                    acc += codec::decode_u64s(&d)[0];
                }
                if right < np {
                    let (_, d) = mpi.recv(Comm::WORLD, right as i32, tags::RESULT).await?;
                    acc += codec::decode_u64s(&d)[0];
                }
                mpi.compute(self.params.node_cost)?;
                if me > 0 {
                    let words = self.params.msg_bytes.div_ceil(8).max(1);
                    let mut v = vec![acc; words];
                    v[0] = acc;
                    mpi.send(
                        Comm::WORLD,
                        ((me - 1) / 2) as i32,
                        tags::RESULT,
                        codec::encode_u64s(&v),
                    )
                    .await?;
                } else {
                    // Sink validates the whole-tree sum.
                    let expect: u64 = (0..np as u64).sum();
                    dampi_mpi::proc_api::user_assert(
                        acc == expect,
                        format!("DT sum {acc} != expected {expect}"),
                    )?;
                }
                mpi.barrier(Comm::WORLD).await?;
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "DT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn tree_sum_validates() {
        let out = run_native(&SimConfig::new(7), &Dt::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }

    #[test]
    fn works_at_odd_sizes() {
        for np in [1, 2, 3, 5, 10] {
            let out = run_native(
                &SimConfig::new(np),
                &Dt::new(DtParams {
                    rounds: 2,
                    msg_bytes: 64,
                    node_cost: 0.0,
                }),
            );
            assert!(out.succeeded(), "np={np}: {:?}", out.rank_errors);
        }
    }
}
