//! Fault-tolerant exploration, end to end: replay watchdogs, panic
//! isolation, checkpoint/resume, and divergence retry — each driven by
//! substrate fault injection ([`dampi_mpi::fault`]) against the paper's
//! figure-sized benchmarks.
//!
//! The invariant under test everywhere: a misbehaving *replay* (hung,
//! panicked, diverging) is recorded honestly and never blocks the rest of
//! the frontier, and a killed *campaign* resumes from its journal to the
//! same result an uninterrupted campaign produces.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dampi_core::cache::plan_digest;
use dampi_core::scheduler::Start;
use dampi_core::{
    CampaignMetrics, DampiConfig, DampiVerifier, DecisionSet, ExplorationJournal, PrunePlan,
    ReplayCache, RetryBackoff, VerificationReport,
};
use dampi_mpi::fault::{FaultAction, FaultPlan, FaultRule};
use dampi_mpi::{Comm, MatchPolicy, MpiError, ReplayBudget, SimConfig};
use dampi_workloads::matmul::{Matmul, MatmulParams};
use dampi_workloads::patterns;

/// A campaign resumed from the journal at `path`.
fn resuming(path: &Path) -> Start {
    let journal = ExplorationJournal::load(path).expect("journal loads");
    Start {
        journal: Some(journal),
        ..Start::default()
    }
}

/// Fresh journal path in a per-test temp dir (no collisions across tests).
fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dampi-fault-tolerance-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// Order-independent identity of a report's error set.
fn error_set(report: &VerificationReport) -> BTreeSet<(usize, String)> {
    report
        .errors
        .iter()
        .map(|e| (e.rank, e.error.to_string()))
        .collect()
}

#[test]
fn resumed_campaign_matches_uninterrupted_run() {
    let prog = Matmul::new(MatmulParams {
        n: 6,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let sim = SimConfig::new(4);

    let uninterrupted = DampiVerifier::new(sim.clone()).verify(&prog);
    assert!(
        uninterrupted.interleavings > 3,
        "need a campaign long enough to interrupt: {uninterrupted}"
    );

    // "Kill" the campaign mid-exploration: every commit is appended to the
    // journal as it happens, so stopping at the interleaving budget leaves
    // the same on-disk state as a SIGKILL right after run 3.
    let path = journal_path("resume-matmul");
    let cfg = DampiConfig::default()
        .with_max_interleavings(3)
        .with_journal(path.clone());
    let partial = DampiVerifier::with_config(sim.clone(), cfg).verify(&prog);
    assert!(partial.budget_exhausted);
    assert_eq!(partial.interleavings, 3);
    let journal = ExplorationJournal::load(&path).expect("journal written");
    assert_eq!(journal.commits(), 3, "one record per commit");

    // Resume with the interruption lifted: the completed campaign must be
    // indistinguishable from the uninterrupted one.
    let resumed = DampiVerifier::new(sim)
        .verify_from(&prog, resuming(&path))
        .expect("resume");
    assert_eq!(resumed.interleavings, uninterrupted.interleavings);
    assert_eq!(error_set(&resumed), error_set(&uninterrupted));
    assert_eq!(
        resumed.total_discovered_matches(),
        uninterrupted.total_discovered_matches()
    );

    // The final journal holds the whole campaign.
    let done = ExplorationJournal::load(&path).expect("final journal");
    assert_eq!(done.commits() as u64, uninterrupted.interleavings);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resumed_campaign_recovers_the_error_set() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let prog = patterns::fig3();

    let uninterrupted = DampiVerifier::new(sim.clone()).verify(&prog);
    assert!(
        !uninterrupted.errors.is_empty(),
        "fig3 must produce the x==33 bug: {uninterrupted}"
    );

    // Interrupt after the clean SELF_RUN, before any replay has run: the
    // bug is only reachable through the journalled frontier.
    let path = journal_path("resume-fig3");
    let cfg = DampiConfig::default()
        .with_max_interleavings(1)
        .with_journal(path.clone());
    let partial = DampiVerifier::with_config(sim.clone(), cfg).verify(&prog);
    assert!(partial.errors.is_empty(), "interrupted before any replay");

    let resumed = DampiVerifier::new(sim)
        .verify_from(&prog, resuming(&path))
        .expect("resume");
    assert_eq!(resumed.interleavings, uninterrupted.interleavings);
    assert_eq!(error_set(&resumed), error_set(&uninterrupted));
    std::fs::remove_file(&path).ok();
}

#[test]
fn livelocked_replay_is_killed_and_reported_as_partial_coverage() {
    // Rank 1 livelocks at its first MPI operation — but only on guided
    // replays, so the SELF_RUN seeds a real frontier first.
    let plan = FaultPlan::new()
        .with_rule(FaultRule {
            rank: Some(1),
            comm: None,
            nth: 0,
            action: FaultAction::Livelock { step: 0.5 },
        })
        .guided_only();
    let sim = SimConfig::new(3)
        .with_policy(MatchPolicy::LowestRank)
        .with_budget(ReplayBudget::default().with_max_virtual_time(30.0));
    let report = DampiVerifier::new(sim)
        .with_fault_plan(plan)
        .verify(&patterns::fig3());

    // Every replay hung and was killed within budget; the walk still
    // consumed the whole frontier instead of blocking on the first hang.
    assert!(report.interleavings >= 2, "{report}");
    assert_eq!(report.timeouts.len() as u64, report.interleavings - 1);
    assert!(report.timeouts[0].detail.contains("virtual-time budget"));
    // Honesty check: the fig3 bug lives behind the killed replays, so the
    // report must NOT claim a clean verification silently — the timeout
    // records are the partial-coverage disclosure.
    assert!(report.errors.is_empty());
    assert!(report.to_string().contains("killed by the watchdog"));
}

#[test]
fn wall_clock_watchdog_also_fires() {
    let plan = FaultPlan::new()
        .with_rule(FaultRule {
            rank: Some(1),
            comm: None,
            nth: 0,
            // An infinite virtual-time spin also spins wall-clock; with no
            // vt budget only the wall-clock watchdog can end it.
            action: FaultAction::Livelock { step: 0.0 },
        })
        .guided_only();
    let sim = SimConfig::new(3)
        .with_policy(MatchPolicy::LowestRank)
        .with_budget(ReplayBudget::default().with_max_wall_clock(Duration::from_millis(250)));
    let report = DampiVerifier::new(sim)
        .with_fault_plan(plan)
        .verify(&patterns::fig3());
    assert!(!report.timeouts.is_empty(), "{report}");
    assert!(report.timeouts[0].detail.contains("wall-clock budget"));
}

#[test]
fn panicking_tool_stack_is_isolated_and_recorded() {
    // Rank 1 panics during its very first MPI operation of every guided
    // replay — which is the DAMPI layer's own `shadow_world` call inside
    // `DampiLayer::new`, i.e. the tool stack itself blows up, not the
    // application. (The other ranks no longer wait for it there: they run
    // until they need rank 1 or see the abort.) Matmul's SELF_RUN
    // seeds a multi-fork frontier, so surviving the first panicking replay
    // is observable as further interleavings.
    let plan = FaultPlan::new()
        .with_rule(FaultRule {
            rank: Some(1),
            comm: None,
            nth: 0,
            action: FaultAction::Crash {
                message: "tool layer blew up".into(),
            },
        })
        .guided_only();
    let prog = Matmul::new(MatmulParams {
        n: 6,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let report = DampiVerifier::new(SimConfig::new(4))
        .with_fault_plan(plan)
        .verify(&prog);

    // The panic is confined to its replay: the frontier still drains, the
    // campaign terminates, and the panic is a recorded error with a
    // reproduction schedule — not a crashed verifier.
    assert!(report.interleavings >= 3, "{report}");
    let panics: Vec<_> = report
        .errors
        .iter()
        .filter(|e| matches!(e.error, MpiError::Panicked { .. }))
        .collect();
    assert_eq!(panics.len(), 1, "deduplicated panic record: {report}");
    assert_eq!(panics[0].rank, 1);
    assert!(panics[0].error.to_string().contains("tool layer blew up"));
    assert!(!panics[0].decisions.is_self_run());
}

#[test]
fn diverging_replay_is_retried_with_bounded_backoff() {
    // `symmetric_racers` puts its two wildcard consumers at *equal*
    // Lamport clocks, so the guided replay that branches on rank 1's
    // first epoch deterministically leaves rank 3's equal-clock epoch
    // unprescribed — a prefix divergence on every attempt (the §II-F
    // scalar-clock imprecision). On top of that, the fault plan
    // duplicates rank 0's first piggyback on the shadow communicator
    // (the first derived comm) during guided runs, perturbing the
    // replay's piggyback stream through the very path a retried
    // schedule re-executes.
    let plan = FaultPlan::new()
        .with_rule(FaultRule {
            rank: Some(0),
            comm: Some(Comm(1)),
            nth: 0,
            action: FaultAction::DuplicateSend,
        })
        .guided_only();
    let cfg = DampiConfig {
        divergence_retries: 2,
        retry_backoff: RetryBackoff::constant(Duration::from_millis(1)),
        ..DampiConfig::default()
    };
    let sim = SimConfig::new(4).with_policy(MatchPolicy::LowestRank);
    let report = DampiVerifier::with_config(sim, cfg)
        .with_fault_plan(plan)
        .verify(&patterns::symmetric_racers());

    // The campaign terminates (no infinite retry loop), the divergences
    // are surfaced, and the retry count stays within the configured
    // budget for each replayed schedule.
    assert!(report.divergences > 0, "{report}");
    assert!(report.retries > 0, "{report}");
    assert!(
        report.retries <= (report.interleavings - 1) * 2,
        "at most divergence_retries (2) per replay: {report}"
    );
    // A divergence is not a program bug and must not be misreported as one.
    assert!(report.errors.is_empty(), "{report}");
    assert!(report.to_string().contains("divergences"));
}

#[test]
fn self_run_timeout_is_reported_not_fatal() {
    // The very first run blowing its budget must not panic the verifier:
    // it yields a 1-interleaving report whose timeout record says why
    // there is no coverage.
    let plan = FaultPlan::new().with_rule(FaultRule {
        rank: Some(0),
        comm: None,
        nth: 0,
        action: FaultAction::Livelock { step: 1.0 },
    });
    let sim = SimConfig::new(3)
        .with_policy(MatchPolicy::LowestRank)
        .with_budget(ReplayBudget::default().with_max_virtual_time(20.0));
    let report = DampiVerifier::new(sim)
        .with_fault_plan(plan)
        .verify(&patterns::fig3());
    assert_eq!(report.interleavings, 1);
    assert_eq!(report.timeouts.len(), 1);
    assert_eq!(report.timeouts[0].interleaving, 1);
    assert!(report.errors.is_empty());
}

#[test]
fn parallel_campaign_killed_mid_flight_resumes_to_sequential_result() {
    // The parallel satellite of the checkpoint/resume invariant: a
    // `jobs = 4` campaign is killed mid-flight (budget interrupt — same
    // on-disk journal state as a SIGKILL right after a commit, with
    // speculative replays still in flight), then resumed in parallel.
    // The completed campaign must match an uninterrupted *sequential* one
    // exactly: worker count is a wall-clock knob, never a coverage knob.
    let prog = Matmul::new(MatmulParams {
        n: 6,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let sim = SimConfig::new(4);

    let sequential = DampiVerifier::new(sim.clone()).verify(&prog);
    assert!(
        sequential.interleavings > 4,
        "need a campaign long enough to interrupt: {sequential}"
    );

    let path = journal_path("resume-parallel-matmul");
    let cfg = DampiConfig::default()
        .with_jobs(4)
        .with_max_interleavings(3)
        .with_journal(path.clone());
    let partial = DampiVerifier::with_config(sim.clone(), cfg).verify(&prog);
    assert!(partial.budget_exhausted);
    assert_eq!(partial.interleavings, 3, "parallel budget is exact");
    let journal = ExplorationJournal::load(&path).expect("journal written");
    assert_eq!(journal.commits(), 3, "speculation is never journaled");

    let resumed = DampiVerifier::with_config(sim, DampiConfig::default().with_jobs(4))
        .verify_from(&prog, resuming(&path))
        .expect("resume");
    assert_eq!(resumed.interleavings, sequential.interleavings);
    assert_eq!(error_set(&resumed), error_set(&sequential));
    assert_eq!(
        resumed.total_discovered_matches(),
        sequential.total_discovered_matches()
    );
    let done = ExplorationJournal::load(&path).expect("final journal");
    assert_eq!(done.commits() as u64, sequential.interleavings);
    std::fs::remove_file(&path).ok();
}

#[test]
fn parallel_verify_matches_sequential_on_symmetric_racers() {
    // The acceptance benchmark's parity check at the library level:
    // `jobs = 4` on `symmetric_racers` reports the same interleaving
    // count, error set, and coverage as `jobs = 1`.
    let sim = SimConfig::new(4).with_policy(MatchPolicy::LowestRank);
    let prog = patterns::symmetric_racers();
    let seq = DampiVerifier::new(sim.clone()).verify(&prog);
    let par = DampiVerifier::with_config(sim, DampiConfig::default().with_jobs(4)).verify(&prog);
    assert_eq!(par.interleavings, seq.interleavings);
    assert_eq!(error_set(&par), error_set(&seq));
    assert_eq!(
        par.total_discovered_matches(),
        seq.total_discovered_matches()
    );
    assert_eq!(par.timeouts.len(), seq.timeouts.len());
}

/// The resume contract at every cut, once with a prune plan — one
/// infeasible root alternate and one symmetry orbit — and once with a
/// replay cache as well: the resumed report and the semantic metrics equal
/// the uninterrupted campaign's, and so does the cache ledger. Root pruning
/// and the first cache misses happen before any cut, so a resume that
/// restored counters instead of re-deriving them falls short here.
#[test]
fn resumed_pruned_and_cached_campaigns_match_at_every_cut() {
    let prog = Matmul::new(MatmulParams {
        n: 6,
        rounds_per_slave: 2,
        task_cost: 0.0,
        ..Default::default()
    });
    let sim = SimConfig::new(4);
    let root = DampiVerifier::new(sim.clone()).instrumented_run(&prog, &DecisionSet::self_run());
    let infeasible = root
        .epochs
        .iter()
        .find_map(|e| Some((e.rank, e.clock, *e.unexplored_alternates().first()?)))
        .expect("the root run has an alternate");
    let plan = PrunePlan {
        infeasible: BTreeSet::from([infeasible]),
        orbits: vec![BTreeSet::from([1, 2, 3])],
        ..PrunePlan::default()
    };
    let path = journal_path("resume-every-cut");
    let cache_root = path.with_extension("cache");
    for cached in [false, true] {
        // Returns the report, the semantic metrics and the cache ledger. A
        // fresh campaign starts from an empty cache; a resume continues
        // with the one its interrupted run left.
        let campaign = |cfg: DampiConfig, resume: bool| {
            let m = CampaignMetrics::new();
            let mut v = DampiVerifier::with_config(sim.clone(), cfg)
                .with_prune_plan(plan.clone())
                .with_metrics(m.clone());
            if cached {
                if !resume {
                    let _ = std::fs::remove_dir_all(&cache_root);
                }
                let key = plan_digest(Some(&plan));
                let cache = ReplayCache::open(&cache_root, 1, key, false).expect("cache");
                v = v.with_cache(Arc::new(cache));
            }
            let report = if resume {
                v.verify_from(&prog, resuming(&path)).expect("resume")
            } else {
                v.verify(&prog)
            };
            let snap = m.snapshot("matmul", 4, "lamport", 1);
            let ledger = (
                snap["cache"]["hits"].as_u64(),
                snap["cache"]["misses"].as_u64(),
            );
            (report, snap["semantic"].to_string(), ledger)
        };
        let (full, semantic, ledger) = campaign(DampiConfig::default(), false);
        assert!(
            full.alternates_pruned > 1,
            "the plan and the orbit both prune"
        );
        if cached {
            assert_eq!(ledger, (Some(0), Some(full.interleavings)));
        }
        for cut in 1..=full.interleavings {
            let cfg = DampiConfig::default()
                .with_max_interleavings(cut)
                .with_journal(path.clone());
            campaign(cfg, false);
            let resumed = campaign(DampiConfig::default(), true);
            assert_eq!(
                resumed.0.to_json().to_string(),
                full.to_json().to_string(),
                "cached={cached} cut={cut}"
            );
            assert_eq!(resumed.1, semantic, "cached={cached} cut={cut}");
            assert_eq!(resumed.2, ledger, "cached={cached} cut={cut}");
        }
    }
    std::fs::remove_file(&path).ok();
    let _ = std::fs::remove_dir_all(&cache_root);
}
