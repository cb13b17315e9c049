//! LU (SSOR solver): pipelined wavefront sweeps.
//!
//! Communication skeleton: on a 2-D grid, each SSOR iteration sweeps a
//! wavefront from the top-left corner (receive from north and west,
//! compute, send to south and east) and a mirrored reverse sweep. Interior
//! ranks consume their two incoming faces with **wildcard receives** in
//! arrival order — the source of LU's Table II R\* count (~1 per rank per
//! sweep) — and the many small per-wavefront messages give LU the highest
//! NAS overhead under DAMPI (2.22x).

use dampi_mpi::envelope::codec;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp, Result, ANY_SOURCE};

use crate::idioms::grid_dims;
use crate::tags;

/// LU skeleton parameters.
#[derive(Debug, Clone, Copy)]
pub struct LuParams {
    /// SSOR iterations (each = forward + backward sweep).
    pub iters: usize,
    /// Face-message bytes.
    pub msg_bytes: usize,
    /// Simulated compute per wavefront cell.
    pub cell_cost: f64,
    /// Iterations whose sweeps consume faces with wildcard receives (the
    /// arrival-order lookahead path); later iterations use named receives.
    /// Table II's LU R\* is ~1 per rank, so only the first iteration or
    /// two uses the wildcard path while the message volume — the actual
    /// driver of LU's 2.22x overhead — stays high throughout.
    pub wildcard_iters: usize,
}

/// The LU program.
#[derive(Debug, Clone)]
pub struct Lu {
    params: LuParams,
}

impl Lu {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: LuParams) -> Self {
        Self { params }
    }

    /// Bench-scale nominal configuration.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(LuParams {
            iters: 12,
            msg_bytes: 128,
            cell_cost: 9e-6,
            wildcard_iters: 1,
        })
    }

    /// One sweep in the given direction (`forward`: from NW corner).
    async fn sweep(&self, mpi: &mut dyn Mpi, forward: bool, wildcard: bool) -> Result<()> {
        let np = mpi.world_size();
        let me = mpi.world_rank();
        let (rows, cols) = grid_dims(np);
        let (r, c) = (me / cols, me % cols);
        // Upstream/downstream neighbors for this direction.
        let (up, down): (Vec<usize>, Vec<usize>) = if forward {
            let mut up = Vec::new();
            let mut down = Vec::new();
            if r > 0 {
                up.push((r - 1) * cols + c);
            }
            if c > 0 {
                up.push(r * cols + c - 1);
            }
            if r + 1 < rows {
                down.push((r + 1) * cols + c);
            }
            if c + 1 < cols {
                down.push(r * cols + c + 1);
            }
            (up, down)
        } else {
            let mut up = Vec::new();
            let mut down = Vec::new();
            if r + 1 < rows {
                up.push((r + 1) * cols + c);
            }
            if c + 1 < cols {
                up.push(r * cols + c + 1);
            }
            if r > 0 {
                down.push((r - 1) * cols + c);
            }
            if c > 0 {
                down.push(r * cols + c - 1);
            }
            (up, down)
        };
        if wildcard {
            // Lookahead path: consume incoming faces in arrival order.
            for _ in &up {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, tags::SWEEP).await?;
            }
        } else {
            for &u in &up {
                let _ = mpi.recv(Comm::WORLD, u as i32, tags::SWEEP).await?;
            }
        }
        mpi.compute(self.params.cell_cost)?;
        let words = self.params.msg_bytes.div_ceil(8).max(1);
        for &d in &down {
            mpi.send(
                Comm::WORLD,
                d as i32,
                tags::SWEEP,
                codec::encode_u64s(&vec![me as u64; words]),
            )
            .await?;
        }
        Ok(())
    }
}

impl MpiProgram for Lu {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            for it in 0..self.params.iters {
                let wildcard = it < self.params.wildcard_iters;
                self.sweep(mpi, true, wildcard).await?;
                self.sweep(mpi, false, wildcard).await?;
                let _ = mpi
                    .allreduce_f64(Comm::WORLD, vec![1.0], ReduceOp::Max)
                    .await?;
            }
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "LU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn runs_clean() {
        let out = run_native(&SimConfig::new(9), &Lu::nominal());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    }

    #[test]
    fn wildcards_present_under_dampi() {
        use dampi_core::{DampiConfig, DampiVerifier};
        let v = DampiVerifier::with_config(
            SimConfig::new(4),
            DampiConfig::default().with_max_interleavings(1),
        );
        let prog = Lu::new(LuParams {
            iters: 2,
            msg_bytes: 64,
            cell_cost: 0.0,
            wildcard_iters: 1,
        });
        let res = v.instrumented_run(&prog, &dampi_core::DecisionSet::self_run());
        assert!(res.outcome.succeeded(), "{:?}", res.outcome.fatal);
        assert!(res.stats.wildcards > 0, "LU uses wildcard receives");
    }

    #[test]
    fn single_row_grid() {
        let out = run_native(
            &SimConfig::new(3),
            &Lu::new(LuParams {
                iters: 2,
                msg_bytes: 64,
                cell_cost: 0.0,
                wildcard_iters: 2,
            }),
        );
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }
}
