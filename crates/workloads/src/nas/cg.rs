//! CG (Conjugate Gradient): irregular sparse matrix-vector products.
//!
//! Communication skeleton: per iteration, a hypercube butterfly exchange
//! (the row/column-partner reductions of the NPB CG) plus two dot-product
//! allreduces. Fully deterministic; clean of leaks (Table II).

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;
use crate::tags;

/// CG skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgParams {
    /// CG iterations.
    pub iters: usize,
    /// Partner-exchange bytes.
    pub msg_bytes: usize,
    /// Simulated compute per matvec.
    pub matvec_cost: f64,
}

/// The CG program.
#[derive(Debug, Clone)]
pub struct Cg {
    params: CgParams,
}

impl Cg {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: CgParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(CgParams {
            iters: 25,
            msg_bytes: 1024,
            matvec_cost: 5.5e-4,
        })
    }
}

impl MpiProgram for Cg {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let mut rho = 1.0f64;
            for _ in 0..self.params.iters {
                idioms::butterfly(mpi, Comm::WORLD, tags::HALO, self.params.msg_bytes).await?;
                mpi.compute(self.params.matvec_cost)?;
                let dot = mpi
                    .allreduce_f64(Comm::WORLD, vec![rho], ReduceOp::Sum)
                    .await?;
                rho = dot[0] / mpi.world_size() as f64;
                let norm = mpi
                    .allreduce_f64(Comm::WORLD, vec![rho * rho], ReduceOp::Sum)
                    .await?;
                rho = norm[0].sqrt().max(1e-30);
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "CG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(8), &Cg::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }

    #[test]
    fn non_power_of_two_world() {
        let out = run_native(
            &SimConfig::new(6),
            &Cg::new(CgParams {
                iters: 3,
                msg_bytes: 64,
                matvec_cost: 0.0,
            }),
        );
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }
}
