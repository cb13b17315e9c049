//! **Fig. 8 — matrix multiplication with bounded mixing applied.**
//!
//! Number of interleavings DAMPI explores for the matmul at 2–8 processes
//! under mixing bounds k ∈ {0, 1, 2} and with no bounds.
//!
//! Expected shape: the unbounded count explodes with process count
//! (factorially in the number of slaves); bounded mixing collapses it, and
//! the count grows roughly *linearly* as k increases — the property the
//! paper highlights (users can ratchet k up gradually).

use dampi_bench::Table;
use dampi_core::{DampiConfig, DampiVerifier, MixingBound};
use dampi_mpi::SimConfig;
use dampi_workloads::matmul::{Matmul, MatmulParams};

const CAP: u64 = 100_000;

fn program() -> Matmul {
    Matmul::new(MatmulParams {
        n: 8,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    })
}

fn interleavings(np: usize, bound: MixingBound) -> (u64, bool) {
    let v = DampiVerifier::with_config(
        SimConfig::new(np),
        DampiConfig::default()
            .with_bound(bound)
            .with_max_interleavings(CAP),
    );
    let report = v.verify(&program());
    assert!(report.errors.is_empty(), "{report}");
    (report.interleavings, report.budget_exhausted)
}

fn main() {
    let max_np = if std::env::var("DAMPI_BENCH_FAST").is_ok() {
        6
    } else {
        8
    };
    let mut table = Table::new(
        "Fig. 8: matmul interleavings explored under bounded mixing",
        &["procs", "k=0", "k=1", "k=2", "no bounds"],
    );
    for np in 2..=max_np {
        let mut cells = vec![np.to_string()];
        for bound in [
            MixingBound::K(0),
            MixingBound::K(1),
            MixingBound::K(2),
            MixingBound::Unbounded,
        ] {
            let (n, capped) = interleavings(np, bound);
            cells.push(if capped {
                format!(">{n}")
            } else {
                n.to_string()
            });
        }
        table.row(cells);
    }
    table.print();
    println!("(k-bounded counts grow roughly linearly in k; unbounded is factorial in slaves)");
}
