//! **Fig. 9 — ADLB with bounded mixing applied.**
//!
//! Number of interleavings DAMPI explores for the ADLB work-sharing
//! library at 4–32 processes under mixing bounds k ∈ {0, 1, 2}. ADLB's
//! server loops are so non-deterministic that unbounded coverage is
//! impractical even at a dozen processes (the paper could not verify it
//! under ISP at all); bounded mixing keeps the counts tractable and
//! ordered by k.

use dampi_bench::Table;
use dampi_core::{DampiConfig, DampiVerifier, MixingBound};
use dampi_mpi::SimConfig;
use dampi_workloads::adlb::{Adlb, AdlbParams};

const CAP: u64 = 8_000;

fn program() -> Adlb {
    Adlb::new(AdlbParams {
        nservers: 1,
        seed_items: 3,
        spawn_depth: 1,
        spawn_width: 1,
        work_cost: 1e-5,
    })
}

fn interleavings(np: usize, k: u32, cap: u64) -> (u64, bool) {
    let v = DampiVerifier::with_config(
        SimConfig::new(np),
        DampiConfig::default()
            .with_bound(MixingBound::K(k))
            .with_max_interleavings(cap),
    );
    let report = v.verify(&program());
    assert!(report.errors.is_empty(), "ADLB must verify clean: {report}");
    (report.interleavings, report.budget_exhausted)
}

fn main() {
    let (nps, cap): (&[usize], u64) = if std::env::var("DAMPI_BENCH_FAST").is_ok() {
        (&[4, 8], 2_000)
    } else {
        (&[4, 8, 12, 16, 24, 32], CAP)
    };
    let mut table = Table::new(
        "Fig. 9: ADLB interleavings explored under bounded mixing",
        &["procs", "k=0", "k=1", "k=2"],
    );
    for &np in nps {
        let mut cells = vec![np.to_string()];
        for k in 0..=2u32 {
            let (n, capped) = interleavings(np, k, cap);
            cells.push(if capped {
                format!(">{n}")
            } else {
                n.to_string()
            });
        }
        table.row(cells);
    }
    table.print();
}
