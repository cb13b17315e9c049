//! **Fig. 6 — matrix multiplication: DAMPI vs. ISP.**
//!
//! Time (simulated seconds, summed over replays) to explore N
//! interleavings of the master/slave matmul for N ∈ {250, 500, 750, 1000},
//! under DAMPI and under ISP.
//!
//! Expected shape: both curves are linear in the number of interleavings
//! (each replay is a full re-execution), but ISP's slope is vastly larger
//! — every MPI call of every replay pays the centralized synchronous
//! transaction, whereas DAMPI's replays run at near-native speed.

use dampi_bench::Table;
use dampi_core::{DampiConfig, DampiVerifier};
use dampi_isp::IspVerifier;
use dampi_mpi::SimConfig;
use dampi_workloads::matmul::{Matmul, MatmulParams};

const NP: usize = 8;

fn program() -> Matmul {
    Matmul::new(MatmulParams {
        n: 8,
        rounds_per_slave: 2,
        task_cost: 1e-4,
        ..Default::default()
    })
}

fn dampi_time(budget: u64) -> (u64, f64) {
    let v = DampiVerifier::with_config(
        SimConfig::new(NP),
        DampiConfig::default().with_max_interleavings(budget),
    );
    let report = v.verify(&program());
    (report.interleavings, report.total_virtual_time)
}

fn isp_time(budget: u64) -> (u64, f64) {
    let mut v = IspVerifier::new(SimConfig::new(NP));
    v.cfg.max_interleavings = Some(budget);
    let report = v.verify(&program());
    (report.interleavings, report.total_virtual_time)
}

fn main() {
    let budgets: &[u64] = if std::env::var("DAMPI_BENCH_FAST").is_ok() {
        &[50, 100]
    } else {
        &[250, 500, 750, 1000]
    };
    let mut table = Table::new(
        "Fig. 6: matmul — time to explore N interleavings (simulated seconds)",
        &["interleavings", "DAMPI", "ISP", "ISP/DAMPI"],
    );
    for &budget in budgets {
        let (nd, td) = dampi_time(budget);
        let (ni, ti) = isp_time(budget);
        assert_eq!(nd, budget, "matmul has enough interleavings");
        assert_eq!(ni, budget);
        table.row(vec![
            budget.to_string(),
            format!("{td:.2}"),
            format!("{ti:.2}"),
            format!("{:.1}x", ti / td),
        ]);
    }
    table.print();
}
