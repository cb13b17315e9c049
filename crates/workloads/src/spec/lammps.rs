//! 126.lammps: molecular dynamics.
//!
//! Per-step forward/reverse neighbor communication (position scatter,
//! force gather) with modest compute per step: more messages per unit of
//! compute than the CFD codes, hence a visibly higher DAMPI overhead
//! (Table II: 1.88x). Deterministic, leak-free.

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;
use crate::tags;

/// LAMMPS skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct LammpsParams {
    /// MD time steps.
    pub steps: usize,
    /// Exchange bytes.
    pub msg_bytes: usize,
    /// Simulated force computation per step.
    pub force_cost: f64,
}

/// The LAMMPS program.
#[derive(Debug, Clone)]
pub struct Lammps {
    params: LammpsParams,
}

impl Lammps {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: LammpsParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(LammpsParams {
            steps: 25,
            msg_bytes: 256,
            force_cost: 1.2e-5,
        })
    }
}

impl MpiProgram for Lammps {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            for step in 0..self.params.steps {
                // Forward communication: ghost-atom positions.
                idioms::halo_2d(mpi, Comm::WORLD, tags::HALO, self.params.msg_bytes).await?;
                mpi.compute(self.params.force_cost)?;
                // Reverse communication: ghost forces.
                idioms::halo_2d(mpi, Comm::WORLD, tags::HALO + 1, self.params.msg_bytes).await?;
                // Thermo output every few steps.
                if step % 5 == 4 {
                    let _ = mpi
                        .allreduce_f64(Comm::WORLD, vec![1.0, 2.0, 3.0], ReduceOp::Sum)
                        .await?;
                }
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "126.lammps"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(8), &Lammps::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }
}
