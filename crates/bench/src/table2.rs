//! Table II row computation: DAMPI overhead (slowdown, R\*, C-leak,
//! R-leak) per benchmark, for the `table2_overhead` bench target
//! (`DAMPI_TABLE2_NP` picks the process count).

use dampi_core::{DampiVerifier, DecisionSet};
use dampi_mpi::{run_native, MpiProgram, SimConfig};
use dampi_workloads::parmetis::{Parmetis, ParmetisParams};
use dampi_workloads::{nas, spec};

use crate::Table;

/// One Table II row.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Benchmark name.
    pub program: String,
    /// Instrumented / native simulated-time ratio.
    pub slowdown: f64,
    /// Wildcard receives analyzed (R\*).
    pub wildcards: u64,
    /// Communicator leak detected.
    pub c_leak: bool,
    /// Request leak detected.
    pub r_leak: bool,
}

/// Measure one program at `np` ranks.
pub fn measure(np: usize, program: &dyn MpiProgram) -> OverheadRow {
    let sim = SimConfig::new(np);
    let native = run_native(&sim, program);
    assert!(
        native.succeeded(),
        "{} native run failed: {:?}",
        program.name(),
        native.fatal
    );
    let inst = DampiVerifier::new(sim).instrumented_run(program, &DecisionSet::self_run());
    assert!(
        inst.outcome.succeeded(),
        "{} instrumented run failed: {:?}",
        program.name(),
        inst.outcome.fatal
    );
    OverheadRow {
        program: program.name().to_owned(),
        slowdown: inst.outcome.makespan / native.makespan.max(1e-12),
        wildcards: inst.stats.wildcards,
        c_leak: inst.outcome.leaks.has_comm_leak(),
        r_leak: inst.outcome.leaks.has_request_leak(),
    }
}

/// The paper's Table II program list, in row order.
#[must_use]
pub fn table2_programs() -> Vec<(String, Box<dyn MpiProgram>)> {
    let mut programs: Vec<(String, Box<dyn MpiProgram>)> = vec![(
        "ParMETIS-3.1".to_owned(),
        Box::new(Parmetis::new(ParmetisParams::nominal(64, 0.3))),
    )];
    for (name, prog) in spec::all_nominal() {
        programs.push((name.to_owned(), prog));
    }
    for (name, prog) in nas::all_nominal() {
        programs.push((name.to_owned(), prog));
    }
    programs
}

/// Compute and render the whole table at `np` ranks.
#[must_use]
pub fn run_table2(np: usize) -> (Table, Vec<OverheadRow>) {
    let mut table = Table::new(
        &format!("Table II: DAMPI overhead, medium-large benchmarks at {np} procs"),
        &["Program", "Slowdown", "Total R*", "C-Leak", "R-Leak"],
    );
    let mut rows = Vec::new();
    for (name, prog) in table2_programs() {
        let row = measure(np, prog.as_ref());
        table.row(vec![
            name,
            format!("{:.2}x", row.slowdown),
            format!("{}", row.wildcards),
            if row.c_leak { "Yes" } else { "No" }.to_owned(),
            if row.r_leak { "Yes" } else { "No" }.to_owned(),
        ]);
        rows.push(row);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_small_world() {
        let prog = dampi_workloads::nas::Ep::nominal();
        let row = measure(4, &prog);
        assert!(row.slowdown >= 1.0);
        assert_eq!(row.wildcards, 0);
        assert!(!row.c_leak);
    }
}
