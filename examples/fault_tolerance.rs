//! Fault-tolerant exploration: watchdogs, panic isolation, and resume.
//!
//! Three demonstrations on the paper's Fig. 3 program:
//! 1. a livelocked replay (injected via `FaultPlan`) is killed by the
//!    virtual-time watchdog and reported as partial coverage;
//! 2. a panicking tool stack is confined to its own replay and recorded;
//! 3. a campaign interrupted mid-exploration resumes from its journal and
//!    still finds the bug the interruption hid.
//!
//! Run with: `cargo run --example fault_tolerance`

use dampi::core::scheduler::Start;
use dampi::core::{DampiConfig, DampiVerifier, ExplorationJournal};
use dampi::mpi::fault::{FaultAction, FaultPlan, FaultRule};
use dampi::mpi::{MatchPolicy, ReplayBudget, SimConfig};
use dampi::workloads::patterns;

fn sim() -> SimConfig {
    SimConfig::new(3).with_policy(MatchPolicy::LowestRank)
}

fn main() {
    // 1. Replay watchdog: rank 1 livelocks on every guided replay; the
    //    virtual-time budget kills it and the report says so.
    let livelock = FaultPlan::new()
        .with_rule(FaultRule {
            rank: Some(1),
            comm: None,
            nth: 0,
            action: FaultAction::Livelock { step: 0.5 },
        })
        .guided_only();
    let report =
        DampiVerifier::new(sim().with_budget(ReplayBudget::default().with_max_virtual_time(30.0)))
            .with_fault_plan(livelock)
            .verify(&patterns::fig3());
    println!("=== watchdog: livelocked replay ===\n{report}\n");

    // 2. Panic isolation: the tool stack blows up during replays, but the
    //    campaign terminates and records the panic with its schedule.
    let crash = FaultPlan::new()
        .with_rule(FaultRule {
            rank: Some(1),
            comm: None,
            nth: 0,
            action: FaultAction::Crash {
                message: "injected tool-stack panic".into(),
            },
        })
        .guided_only();
    let report = DampiVerifier::new(sim())
        .with_fault_plan(crash)
        .verify(&patterns::fig3());
    println!("=== panic isolation ===\n{report}\n");

    // 3. Checkpoint/resume: interrupt after the first run (before any
    //    replay has found the bug), then resume from the journal.
    let journal = std::env::temp_dir().join("dampi-example.journal");
    let _ = std::fs::remove_file(&journal);
    let interrupted = DampiVerifier::with_config(
        sim(),
        DampiConfig::default()
            .with_max_interleavings(1)
            .with_journal(journal.clone()),
    )
    .verify(&patterns::fig3());
    println!(
        "=== interrupted campaign: {} interleaving(s), {} error(s) ===\n",
        interrupted.interleavings,
        interrupted.errors.len()
    );
    // The resumed campaign appends to the journal it came from.
    let start = Start {
        journal: Some(ExplorationJournal::load(&journal).expect("journal loads")),
        ..Start::default()
    };
    let resumed = DampiVerifier::new(sim())
        .verify_from(&patterns::fig3(), start)
        .expect("the journal is this campaign's");
    println!("=== resumed campaign ===\n{resumed}");
    let _ = std::fs::remove_file(&journal);
}
