//! **Table I — statistics of MPI operations in ParMETIS-3.1.**
//!
//! Operation census of the ParMETIS kernel at 8–128 processes, classified
//! as in the paper (Send-Recv / Collective / Wait; local operations not
//! counted), with total and per-process rows.
//!
//! Expected shape (the paper's observation that explains Fig. 5): total
//! operations grow ~2.5x per process-doubling, per-process operations only
//! ~1.3x, and collectives per process *decrease* with scale — so a
//! centralized scheduler's load grows almost twice as fast as any single
//! DAMPI process's.

use dampi_bench::Table;
use dampi_mpi::interpose::StatsLayer;
use dampi_mpi::stats::{OpStats, StatsCollector};
use dampi_mpi::{run_with_layers, SimConfig};
use dampi_workloads::parmetis::{Parmetis, ParmetisParams};
use std::sync::Arc;

fn scale() -> f64 {
    if std::env::var("DAMPI_BENCH_FAST").is_ok() {
        0.1
    } else {
        0.3
    }
}

fn census(np: usize) -> (OpStats, OpStats) {
    let collector = StatsCollector::new();
    let prog = Parmetis::new(ParmetisParams::nominal(np, scale()));
    let c2 = Arc::clone(&collector);
    let out = run_with_layers(&SimConfig::new(np), &prog, &move |_, pmpi| {
        Ok(Box::new(StatsLayer::new(pmpi, Arc::clone(&c2))))
    });
    assert!(out.succeeded(), "{:?}", out.fatal);
    (collector.total(), collector.per_proc())
}

fn fmt_k(v: u64) -> String {
    if v >= 10_000 {
        format!("{}K", v / 1000)
    } else if v >= 1000 {
        format!("{:.1}K", v as f64 / 1000.0)
    } else {
        v.to_string()
    }
}

fn main() {
    let nps = [8usize, 16, 32, 64, 128];
    let data: Vec<(OpStats, OpStats)> = nps.iter().map(|&np| census(np)).collect();
    let header: Vec<String> = std::iter::once("MPI Operation Type".to_owned())
        .chain(nps.iter().map(|np| format!("procs={np}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table I: statistics of MPI operations in ParMETIS-3.1",
        &header_refs,
    );
    type RowFn = Box<dyn Fn(&(OpStats, OpStats)) -> u64>;
    let rows: [(&str, RowFn); 8] = [
        ("All", Box::new(|d| d.0.total())),
        ("All per proc.", Box::new(|d| d.1.total())),
        ("Send-Recv", Box::new(|d| d.0.send_recv)),
        ("Send-Recv per proc", Box::new(|d| d.1.send_recv)),
        ("Collective", Box::new(|d| d.0.collective)),
        ("Collective per proc", Box::new(|d| d.1.collective)),
        ("Wait", Box::new(|d| d.0.wait)),
        ("Wait per proc", Box::new(|d| d.1.wait)),
    ];
    for (label, f) in &rows {
        let mut cells = vec![(*label).to_owned()];
        cells.extend(data.iter().map(|d| fmt_k(f(d))));
        table.row(cells);
    }
    table.print();

    // Shape summary: growth factors per doubling.
    let t_growth: Vec<f64> = data
        .windows(2)
        .map(|w| w[1].0.total() as f64 / w[0].0.total() as f64)
        .collect();
    let p_growth: Vec<f64> = data
        .windows(2)
        .map(|w| w[1].1.total() as f64 / w[0].1.total() as f64)
        .collect();
    println!(
        "total-op growth per doubling: {:?} (paper ~2.5x)",
        t_growth
            .iter()
            .map(|g| format!("{g:.2}x"))
            .collect::<Vec<_>>()
    );
    println!(
        "per-proc growth per doubling: {:?} (paper ~1.3x)",
        p_growth
            .iter()
            .map(|g| format!("{g:.2}x"))
            .collect::<Vec<_>>()
    );
}
