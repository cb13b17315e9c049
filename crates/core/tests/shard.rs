//! Process-sharding robustness tests, run hermetically with the
//! in-process launcher: supervisor and "workers" are threads talking over
//! in-memory pipes, so every chaos scenario (kills, wedges, corrupt
//! frames) runs in milliseconds with no real processes.
//!
//! The load-bearing property throughout: a sharded campaign's report and
//! checkpoint journal are **byte-identical** to the unsharded ones, no
//! matter what faults the fleet absorbs along the way.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use dampi_core::prune::PrunePlan;
use dampi_core::scheduler::{ExploreOptions, RunResult, Start};
use dampi_core::shard::{InProcessLauncher, ShardOptions};
use dampi_core::{DampiConfig, DampiVerifier, DecisionSet};
use dampi_mpi::fault::{WorkerFaultKind, WorkerFaultPlan};
use dampi_mpi::program::MpiProgram;
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::adlb::{Adlb, AdlbParams};
use dampi_workloads::patterns;

fn tmp_journal(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dampi-shard-test-{}-{tag}-{n}.journal",
        std::process::id()
    ))
}

fn racers_verifier(journal: PathBuf) -> DampiVerifier {
    DampiVerifier::with_config(
        SimConfig::new(4).with_policy(MatchPolicy::LowestRank),
        DampiConfig::default().with_journal(journal),
    )
}

/// In-process launcher whose workers replay through `verifier` — the
/// exact analog of the CLI spawning `dampi-cli … --worker` processes.
fn launcher_for(verifier: &Arc<DampiVerifier>, prog: &Arc<dyn MpiProgram>) -> InProcessLauncher {
    let v = Arc::clone(verifier);
    let p = Arc::clone(prog);
    let run: Arc<dyn Fn(&DecisionSet) -> RunResult + Send + Sync> =
        Arc::new(move |ds| v.instrumented_run(p.as_ref(), ds));
    InProcessLauncher::new(run, &ExploreOptions::default())
}

/// Fast failure detection for chaos tests: in-process beacons arrive
/// every 20ms, so a 150ms silence window and 400ms lease are generous.
fn chaos_shard_opts(shards: usize) -> ShardOptions {
    ShardOptions {
        shards,
        heartbeat_timeout: Duration::from_millis(150),
        lease: Duration::from_millis(400),
        ..ShardOptions::default()
    }
}

#[test]
fn sharded_report_and_journal_match_unsharded() {
    let prog: Arc<dyn MpiProgram> = Arc::new(patterns::symmetric_racers());
    let base_j = tmp_journal("base");
    let shard_j = tmp_journal("shard");

    let base = racers_verifier(base_j.clone()).verify(prog.as_ref());
    let v = Arc::new(racers_verifier(shard_j.clone()));
    let launcher = launcher_for(&v, &prog);
    let opts = ShardOptions {
        shards: 2,
        ..ShardOptions::default()
    };
    let sharded = v
        .verify_sharded(prog.as_ref(), &launcher, &opts)
        .expect("clean sharded campaign");

    assert_eq!(
        base.to_json().to_string(),
        sharded.to_json().to_string(),
        "report JSON must be byte-identical"
    );
    let base_bytes = std::fs::read(&base_j).expect("baseline journal");
    let shard_bytes = std::fs::read(&shard_j).expect("sharded journal");
    assert_eq!(base_bytes, shard_bytes, "journal must be byte-identical");
    let _ = std::fs::remove_file(base_j);
    let _ = std::fs::remove_file(shard_j);
}

/// `--prune-static` composes with `--shards`: the plan is consulted only
/// on the supervisor's commit path and the analyzed free run is committed
/// there, never dispatched, so workers need neither. The fixture is the
/// analyzer's plan for racers at np 4 (two symmetry orbits: 4 -> 2).
#[test]
fn pruned_sharded_campaign_matches_pruned_unsharded() {
    let plan: PrunePlan = serde_json::from_str(include_str!("fixtures/prune_plan_v1.json"))
        .expect("fixture plan loads");
    let prog: Arc<dyn MpiProgram> = Arc::new(patterns::symmetric_racers());
    let base_j = tmp_journal("prune-base");
    let shard_j = tmp_journal("prune-shard");

    let base_v = racers_verifier(base_j.clone()).with_prune_plan(plan.clone());
    let (_, first) = base_v.traced_run(prog.as_ref());
    let base = base_v.verify_with_first_run(prog.as_ref(), first.clone());
    assert_eq!(base.interleavings, 2, "the orbits halve the campaign");
    assert!(base.alternates_pruned > 0 && base.errors.is_empty());

    let v = Arc::new(racers_verifier(shard_j.clone()).with_prune_plan(plan));
    let launcher = launcher_for(&v, &prog);
    let opts = ShardOptions {
        shards: 2,
        ..ShardOptions::default()
    };
    let sharded = v
        .verify_sharded_from(prog.as_ref(), &launcher, &opts, Start::FirstRun(first))
        .expect("clean sharded campaign");

    assert_eq!(base.to_json().to_string(), sharded.to_json().to_string());
    assert_eq!(
        std::fs::read(&base_j).expect("baseline journal"),
        std::fs::read(&shard_j).expect("sharded journal"),
        "journal must be byte-identical"
    );
    let _ = std::fs::remove_file(base_j);
    let _ = std::fs::remove_file(shard_j);
}

#[test]
fn fleet_recovers_from_every_fault_kind() {
    let prog: Arc<dyn MpiProgram> = Arc::new(patterns::symmetric_racers());
    let base_j = tmp_journal("fk-base");
    let base = racers_verifier(base_j.clone()).verify(prog.as_ref());

    for kind in [
        WorkerFaultKind::Kill,
        WorkerFaultKind::ExitBeforeAck,
        WorkerFaultKind::StallHeartbeats,
        WorkerFaultKind::WedgeReplay,
        WorkerFaultKind::CorruptResult,
    ] {
        let shard_j = tmp_journal("fk");
        let v = Arc::new(racers_verifier(shard_j.clone()));
        let launcher = launcher_for(&v, &prog);
        let mut opts = chaos_shard_opts(2);
        opts.fault = Some(WorkerFaultPlan {
            kind,
            nth_job: 1,
            persistent: false,
        });
        let sharded = v
            .verify_sharded(prog.as_ref(), &launcher, &opts)
            .unwrap_or_else(|e| panic!("campaign under {kind:?} failed: {e}"));
        assert_eq!(
            base.to_json().to_string(),
            sharded.to_json().to_string(),
            "report diverged under injected {kind:?}"
        );
        assert_eq!(
            std::fs::read(&base_j).unwrap(),
            std::fs::read(&shard_j).unwrap(),
            "journal diverged under injected {kind:?}"
        );
        let _ = std::fs::remove_file(shard_j);
    }
    let _ = std::fs::remove_file(base_j);
}

/// A single-slot fleet whose worker dies on every first job can never
/// complete the root subtree: after `max_attempts` losses the subtree
/// must be quarantined and reported as an honest timeout record — the
/// campaign terminates instead of hanging or lying.
#[test]
fn poison_subtree_quarantines_with_honest_partial_coverage() {
    let prog: Arc<dyn MpiProgram> = Arc::new(patterns::symmetric_racers());
    let v = Arc::new(DampiVerifier::with_config(
        SimConfig::new(4).with_policy(MatchPolicy::LowestRank),
        DampiConfig::default(),
    ));
    let launcher = launcher_for(&v, &prog);
    let mut opts = chaos_shard_opts(1);
    opts.max_attempts = 2;
    opts.fault = Some(WorkerFaultPlan {
        kind: WorkerFaultKind::Kill,
        nth_job: 0,
        persistent: true,
    });
    let report = v
        .verify_sharded(prog.as_ref(), &launcher, &opts)
        .expect("quarantine must terminate the campaign, not kill it");
    assert_eq!(report.quarantined, 1, "root subtree quarantined");
    assert_eq!(report.timeouts.len(), 1, "quarantine is a timeout record");
    assert!(
        report.timeouts[0].detail.contains("lost with its worker"),
        "detail names the loss: {}",
        report.timeouts[0].detail
    );
    assert_eq!(report.interleavings, 1, "only the quarantine commit");
    assert!(report.errors.is_empty(), "no invented program errors");
}

/// Drain mid-campaign via the SIGTERM flag, then resume from the
/// checkpoint: the union must converge to the unsharded result. ADLB's
/// free run folds wall-clock into its virtual time, so two independent
/// campaigns are not bit-identical — the byte-parity claims live in the
/// deterministic racers tests above; here we check the semantic fields.
#[test]
fn drain_checkpoint_resume_converges() {
    let prog: Arc<dyn MpiProgram> = Arc::new(Adlb::new(AdlbParams::default()));
    let mk_cfg = |j: PathBuf| {
        DampiConfig::default()
            .with_max_interleavings(200)
            .with_journal(j)
    };
    let base_j = tmp_journal("drain-base");
    let base =
        DampiVerifier::with_config(SimConfig::new(4), mk_cfg(base_j.clone())).verify(prog.as_ref());

    let shard_j = tmp_journal("drain-shard");
    let v = Arc::new(DampiVerifier::with_config(
        SimConfig::new(4),
        mk_cfg(shard_j.clone()),
    ));
    let launcher = launcher_for(&v, &prog);
    let drain = Arc::new(AtomicBool::new(true));
    let mut opts = ShardOptions {
        shards: 2,
        // Fast ticks so the pre-set drain flag is noticed immediately.
        heartbeat_timeout: Duration::from_millis(150),
        lease: Duration::from_millis(400),
        ..ShardOptions::default()
    };
    opts.drain = Some(Arc::clone(&drain));
    let partial = v
        .verify_sharded(prog.as_ref(), &launcher, &opts)
        .expect("drained campaign");
    assert!(partial.drained, "pre-set flag must drain the campaign");
    assert!(
        partial.interleavings < 200,
        "drained early, not at the budget: {}",
        partial.interleavings
    );

    opts.drain = None;
    let resumed = v
        .verify_sharded_resumed(prog.as_ref(), &launcher, &opts, &shard_j)
        .expect("resumed campaign");
    assert!(!resumed.drained);
    assert_eq!(resumed.interleavings, base.interleavings);
    assert_eq!(resumed.budget_exhausted, base.budget_exhausted);
    assert_eq!(
        serde_json::to_string(&resumed.errors).unwrap(),
        serde_json::to_string(&base.errors).unwrap(),
        "resumed error set must converge to the uninterrupted one"
    );
    let _ = std::fs::remove_file(base_j);
    let _ = std::fs::remove_file(shard_j);
}

/// Baseline racers report, computed once for the property below.
fn racers_baseline() -> &'static (String, Vec<u8>) {
    static BASE: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    BASE.get_or_init(|| {
        let prog = patterns::symmetric_racers();
        let j = tmp_journal("prop-base");
        let report = racers_verifier(j.clone()).verify(&prog);
        let bytes = std::fs::read(&j).expect("baseline journal");
        let _ = std::fs::remove_file(j);
        (report.to_json().to_string(), bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Re-dispatch is idempotent: under a random worker-kill schedule
    /// (fault kind × victim slot × trigger job × persistence × fleet
    /// width), the error set, report JSON, and journal bytes are
    /// identical to the unsharded run. `max_attempts` is set high enough
    /// that recovery is always possible, so any divergence here is a
    /// double-commit or a lost subtree.
    #[test]
    fn redispatch_is_idempotent_under_random_kill_schedules(
        width in 1i32..4,
        kind_idx in 0i32..5,
        nth_job in 0i64..5,
        persistent_sel in 0i32..2,
        slot_sel in 0i32..3,
    ) {
        let kind = [
            WorkerFaultKind::Kill,
            WorkerFaultKind::ExitBeforeAck,
            WorkerFaultKind::StallHeartbeats,
            WorkerFaultKind::WedgeReplay,
            WorkerFaultKind::CorruptResult,
        ][kind_idx as usize];
        let nth_job = nth_job as u64;
        let persistent = persistent_sel == 1;
        // A persistent fault on a one-slot fleet has no healthy peer to
        // recover onto; that scenario is the quarantine test's, not ours.
        let shards = if persistent {
            (width as usize).max(2)
        } else {
            width as usize
        };
        let (base_json, base_bytes) = racers_baseline();

        let prog: Arc<dyn MpiProgram> = Arc::new(patterns::symmetric_racers());
        let shard_j = tmp_journal("prop");
        let v = Arc::new(racers_verifier(shard_j.clone()));
        let launcher = launcher_for(&v, &prog);
        let mut opts = chaos_shard_opts(shards);
        // Never quarantine: bounded restarts retire the faulty slot long
        // before any subtree burns 100 attempts.
        opts.max_attempts = 100;
        opts.fault = Some(WorkerFaultPlan { kind, nth_job, persistent });
        opts.fault_slot = slot_sel as usize % shards;
        let sharded = v
            .verify_sharded(prog.as_ref(), &launcher, &opts)
            .expect("chaos campaign must still complete");

        prop_assert_eq!(base_json, &sharded.to_json().to_string());
        let shard_bytes = std::fs::read(&shard_j).expect("sharded journal");
        let _ = std::fs::remove_file(shard_j);
        prop_assert_eq!(base_bytes, &shard_bytes);
    }
}
