//! BT (Block Tridiagonal): alternating-direction implicit solver.
//!
//! Communication skeleton: per iteration, face exchanges along both grid
//! dimensions (the x/y/z sweeps of the ADI scheme) plus a residual
//! reduction every few iterations. BT sets up a working communicator that
//! the original code never frees — Table II flags it (C-leak = Yes).

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;
use crate::tags;

/// BT skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct BtParams {
    /// ADI iterations.
    pub iters: usize,
    /// Face-message bytes.
    pub msg_bytes: usize,
    /// Simulated compute per sweep.
    pub sweep_cost: f64,
}

/// The BT program.
#[derive(Debug, Clone)]
pub struct Bt {
    params: BtParams,
}

impl Bt {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: BtParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(BtParams {
            iters: 20,
            msg_bytes: 512,
            sweep_cost: 6e-5,
        })
    }
}

impl MpiProgram for Bt {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let work = mpi.comm_dup(Comm::WORLD).await?; // never freed: the C-leak
            for it in 0..self.params.iters {
                // x-, y-sweeps: 2-D face exchanges.
                idioms::halo_2d(mpi, work, tags::HALO, self.params.msg_bytes).await?;
                mpi.compute(self.params.sweep_cost)?;
                idioms::halo_2d(mpi, work, tags::HALO + 1, self.params.msg_bytes).await?;
                mpi.compute(self.params.sweep_cost)?;
                if it % 5 == 4 {
                    let _ = mpi.allreduce_f64(work, vec![1.0], ReduceOp::Sum).await?;
                }
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "BT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_and_leaks_working_comm() {
        let out = run_native(&SimConfig::new(9), &Bt::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.has_comm_leak(), "Table II: BT C-leak = Yes");
    }

    #[test]
    fn two_rank_grid_works() {
        let out = run_native(
            &SimConfig::new(2),
            &Bt::new(BtParams {
                iters: 3,
                msg_bytes: 64,
                sweep_cost: 0.0,
            }),
        );
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }
}
