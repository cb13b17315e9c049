//! **Table II — DAMPI overhead: medium-large benchmarks at 1K procs.**
//!
//! For every benchmark (ParMETIS, six SpecMPI2007 skeletons, eight NAS
//! skeletons), runs the program natively and under the full DAMPI stack at
//! 1024 processes and reports the slowdown, the number of wildcard
//! receives analyzed (R\*), and the communicator/request leak findings.
//!
//! Expected shape: slowdowns mostly 1.0–1.3x; 104.milc worst by far (the
//! paper's 15x — its 51K wildcard receives make `FindPotentialMatches`
//! scan a large epoch log for every message), NAS LU next (~2.2x: many
//! small pipeline messages each paying the piggyback); C-leak = Yes for
//! ParMETIS, 104.milc, 113.GemsFDTD, 137.lu, BT, FT.

use dampi_bench::table2::run_table2;

fn np() -> usize {
    std::env::var("DAMPI_TABLE2_NP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if std::env::var("DAMPI_BENCH_FAST").is_ok() {
            64
        } else {
            1024
        })
}

fn main() {
    let (table, rows) = run_table2(np());
    table.print();
    let milc = rows
        .iter()
        .find(|r| r.program.contains("milc"))
        .expect("milc row");
    let worst = rows.iter().map(|r| r.slowdown).fold(0.0f64, f64::max);
    println!(
        "worst slowdown: 104.milc at {:.2}x (paper: 15x){}",
        milc.slowdown,
        if (milc.slowdown - worst).abs() < 1e-9 {
            " — worst overall, as in the paper"
        } else {
            ""
        }
    );
}
