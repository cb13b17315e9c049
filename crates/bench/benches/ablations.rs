//! **Ablations** — the design choices DESIGN.md calls out, measured.
//!
//! 1. *Piggyback mechanism* (§II-D): separate shadow-communicator messages
//!    (DAMPI's choice) vs. payload packing — instrumented makespans.
//! 2. *Clock mode* (§II-C/§II-F): Lamport vs. vector — piggyback wire
//!    bytes per message as the world grows (the scalability argument for
//!    Lamport clocks) and instrumented makespans.
//! 3. *Native match-policy bias* (§I): whether a single native run of the
//!    Fig. 3 program exposes its bug under different runtime policies, vs.
//!    DAMPI's guaranteed coverage.
//! 4. *Branching on guided epochs*: the paper's algorithm does not branch
//!    on alternates discovered for already-forced epochs; measure what the
//!    DPOR-style extension would add.

use dampi_bench::Table;
use dampi_core::pb::stamp_wire_bytes;
use dampi_core::{ClockMode, DampiConfig, DampiVerifier, DecisionSet, PiggybackMechanism};
use dampi_mpi::{run_native, MatchPolicy, SimConfig};
use dampi_workloads::matmul::{Matmul, MatmulParams};
use dampi_workloads::patterns;
use dampi_workloads::spec::Lammps;

fn pb_mechanism_ablation() {
    let mut table = Table::new(
        "Ablation: piggyback mechanism (126.lammps, np=64, instrumented makespan)",
        &["mechanism", "makespan (s)", "vs native"],
    );
    let prog = Lammps::nominal();
    let sim = SimConfig::new(64);
    let native = run_native(&sim, &prog).makespan;
    for (name, mech) in [
        ("separate message", PiggybackMechanism::SeparateMessage),
        ("payload packing", PiggybackMechanism::PayloadPacking),
    ] {
        let v =
            DampiVerifier::with_config(sim.clone(), DampiConfig::default().with_piggyback(mech));
        let m = v
            .instrumented_run(&prog, &DecisionSet::self_run())
            .outcome
            .makespan;
        table.row(vec![
            name.to_owned(),
            format!("{m:.4}"),
            format!("{:.2}x", m / native),
        ]);
    }
    table.print();
}

fn clock_mode_ablation() {
    let mut table = Table::new(
        "Ablation: clock mode — piggyback wire cost and overhead",
        &[
            "procs",
            "lamport B/msg",
            "vector B/msg",
            "lamport slowdown",
            "vector slowdown",
        ],
    );
    for np in [16usize, 64, 256] {
        let prog = dampi_workloads::spec::Milc::nominal();
        let sim = SimConfig::new(np);
        let native = run_native(&sim, &prog).makespan;
        let slow = |mode: ClockMode| {
            let v = DampiVerifier::with_config(
                sim.clone(),
                DampiConfig::default().with_clock_mode(mode),
            );
            v.instrumented_run(&prog, &DecisionSet::self_run())
                .outcome
                .makespan
                / native
        };
        table.row(vec![
            np.to_string(),
            stamp_wire_bytes(ClockMode::Lamport, np).to_string(),
            stamp_wire_bytes(ClockMode::Vector, np).to_string(),
            format!("{:.2}x", slow(ClockMode::Lamport)),
            format!("{:.2}x", slow(ClockMode::Vector)),
        ]);
    }
    table.print();
    println!("(vector stamps grow linearly with the world: the §II-C scalability argument)");
}

fn policy_bias_ablation() {
    let mut table = Table::new(
        "Ablation: native runtime bias vs DAMPI coverage (Fig. 3 program)",
        &["method", "bug found?"],
    );
    for (name, policy) in [
        ("native, LowestRank bias", MatchPolicy::LowestRank),
        ("native, ArrivalOrder", MatchPolicy::ArrivalOrder),
        ("native, Seeded(7)", MatchPolicy::Seeded(7)),
    ] {
        let out = run_native(&SimConfig::new(3).with_policy(policy), &patterns::fig3());
        table.row(vec![
            name.to_owned(),
            if out.succeeded() {
                "no (masked)"
            } else {
                "yes"
            }
            .to_owned(),
        ]);
    }
    let report = DampiVerifier::new(SimConfig::new(3).with_policy(MatchPolicy::LowestRank))
        .verify(&patterns::fig3());
    table.row(vec![
        "DAMPI (guaranteed coverage)".to_owned(),
        if report.errors.is_empty() {
            "no".to_owned()
        } else {
            format!("yes ({} interleavings)", report.interleavings)
        },
    ]);
    table.print();
}

fn branch_on_guided_ablation() {
    let prog = Matmul::new(MatmulParams {
        n: 6,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let run = |branch: bool| {
        let mut cfg = DampiConfig::default().with_max_interleavings(50_000);
        cfg.branch_on_guided = branch;
        DampiVerifier::with_config(SimConfig::new(5), cfg)
            .verify(&prog)
            .interleavings
    };
    let mut table = Table::new(
        "Ablation: branching on guided-epoch discoveries (matmul, np=5)",
        &["mode", "interleavings"],
    );
    table.row(vec![
        "paper (no guided branching)".to_owned(),
        run(false).to_string(),
    ]);
    table.row(vec![
        "DPOR-style (branch on guided)".to_owned(),
        run(true).to_string(),
    ]);
    table.print();
}

fn main() {
    pb_mechanism_ablation();
    clock_mode_ablation();
    policy_bias_ablation();
    branch_on_guided_ablation();
}
