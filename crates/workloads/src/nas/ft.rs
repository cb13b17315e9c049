//! FT (Fourier Transform): 3-D FFT with global transposes.
//!
//! Communication skeleton: a few all-to-all transposes of large buffers
//! per iteration plus a checksum reduction. The original sets up a
//! transpose communicator it never frees — Table II flags it (C-leak =
//! Yes) while its overhead stays at the floor (1.01x: few, large
//! messages).

use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp};

use crate::idioms;

/// FT skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct FtParams {
    /// FFT iterations.
    pub iters: usize,
    /// Bytes each rank sends every peer per transpose.
    pub bytes_per_peer: usize,
    /// Simulated compute per 1-D FFT phase.
    pub fft_cost: f64,
}

/// The FT program.
#[derive(Debug, Clone)]
pub struct Ft {
    params: FtParams,
}

impl Ft {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: FtParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(FtParams {
            iters: 6,
            bytes_per_peer: 2048,
            fft_cost: 2.2e-3,
        })
    }
}

impl MpiProgram for Ft {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let transpose_comm = mpi.comm_dup(Comm::WORLD).await?; // never freed
            for _ in 0..self.params.iters {
                mpi.compute(self.params.fft_cost)?;
                idioms::transpose(mpi, transpose_comm, self.params.bytes_per_peer).await?;
                mpi.compute(self.params.fft_cost)?;
                idioms::transpose(mpi, transpose_comm, self.params.bytes_per_peer).await?;
                let _ = mpi
                    .allreduce_f64(Comm::WORLD, vec![1.0, 0.5], ReduceOp::Sum)
                    .await?;
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "FT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_and_leaks_transpose_comm() {
        let out = run_native(&SimConfig::new(4), &Ft::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.has_comm_leak(), "Table II: FT C-leak = Yes");
        assert!(!out.leaks.has_request_leak());
    }
}
