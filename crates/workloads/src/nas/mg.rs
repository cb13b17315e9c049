//! MG (Multigrid): V-cycles over a grid hierarchy.
//!
//! Communication skeleton: halo exchanges whose partner stride doubles at
//! each coarser level (so coarse levels touch distant ranks), a residual
//! allreduce per V-cycle. Deterministic and leak-free (Table II: 1.15x).

use dampi_mpi::envelope::codec;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp, Request, Result};

use crate::tags;

/// MG skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct MgParams {
    /// V-cycles.
    pub cycles: usize,
    /// Finest-level halo bytes (halved per coarser level).
    pub msg_bytes: usize,
    /// Simulated smoother compute per level.
    pub smooth_cost: f64,
}

/// The MG program.
#[derive(Debug, Clone)]
pub struct Mg {
    params: MgParams,
}

impl Mg {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: MgParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(MgParams {
            cycles: 8,
            msg_bytes: 1024,
            smooth_cost: 5e-5,
        })
    }

    /// Halo exchange with partners at `stride` in both directions.
    async fn strided_halo(&self, mpi: &mut dyn Mpi, stride: usize, bytes: usize) -> Result<()> {
        let np = mpi.world_size();
        let me = mpi.world_rank();
        let words = bytes.div_ceil(8).max(1);
        let data = codec::encode_u64s(&vec![me as u64; words]);
        let mut reqs: Vec<Request> = Vec::with_capacity(4);
        if me >= stride {
            reqs.push(mpi.irecv(Comm::WORLD, (me - stride) as i32, tags::HALO)?);
            reqs.push(mpi.isend(Comm::WORLD, (me - stride) as i32, tags::HALO, data.clone())?);
        }
        if me + stride < np {
            reqs.push(mpi.irecv(Comm::WORLD, (me + stride) as i32, tags::HALO)?);
            reqs.push(mpi.isend(Comm::WORLD, (me + stride) as i32, tags::HALO, data)?);
        }
        mpi.waitall(&reqs).await?;
        Ok(())
    }
}

impl MpiProgram for Mg {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let np = mpi.world_size();
            for _ in 0..self.params.cycles {
                // Down-sweep: finest to coarsest.
                let mut stride = 1usize;
                let mut bytes = self.params.msg_bytes;
                while stride < np {
                    self.strided_halo(mpi, stride, bytes).await?;
                    mpi.compute(self.params.smooth_cost)?;
                    stride *= 2;
                    bytes = (bytes / 2).max(8);
                }
                // Up-sweep: coarsest back to finest.
                while stride > 1 {
                    stride /= 2;
                    bytes *= 2;
                    self.strided_halo(mpi, stride, bytes).await?;
                    mpi.compute(self.params.smooth_cost)?;
                }
                let _ = mpi
                    .allreduce_f64(Comm::WORLD, vec![1.0], ReduceOp::Sum)
                    .await?;
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "MG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(8), &Mg::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }

    #[test]
    fn tiny_world() {
        let out = run_native(&SimConfig::new(2), &Mg::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }
}
