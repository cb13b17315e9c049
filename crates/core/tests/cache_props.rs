//! Property-based oracle for the replay cache: over randomly chosen
//! `patterns::*` workloads and interleaving budgets, a campaign verified
//! cache-off, cache-cold, and cache-warm must produce identical reports
//! (error sets, interleaving counts, every serialized field), the warm
//! run must reuse every committed subtree, and a campaign killed
//! mid-flight must resume *through* the cache to the same answer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use dampi_core::cache::plan_digest;
use dampi_core::scheduler::Start;
use dampi_core::{CampaignMetrics, DampiConfig, DampiVerifier, ExplorationJournal, ReplayCache};
use dampi_mpi::program::MpiProgram;
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::matmul::{Matmul, MatmulParams};
use dampi_workloads::patterns;

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dampi-cache-props-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// The workload matrix: each entry is (program, nprocs) with real
/// wildcard nondeterminism so the frontier has subtrees worth caching,
/// constructed fresh per campaign.
fn workload(ix: usize) -> (Box<dyn MpiProgram>, usize) {
    match ix {
        0 => (Box::new(patterns::fig3()), 3),
        1 => (Box::new(patterns::symmetric_racers()), 4),
        _ => (
            Box::new(Matmul::new(MatmulParams {
                n: 6,
                rounds_per_slave: 1,
                task_cost: 0.0,
                ..Default::default()
            })),
            4,
        ),
    }
}

fn verifier(np: usize, max: u64, jobs: usize) -> DampiVerifier {
    DampiVerifier::with_config(
        SimConfig::new(np).with_policy(MatchPolicy::LowestRank),
        DampiConfig::default()
            .with_max_interleavings(max)
            .with_jobs(jobs),
    )
}

/// Run one campaign against an optional cache and return the serialized
/// report plus the (hits, misses, committed) ledger.
fn campaign(
    ix: usize,
    max: u64,
    jobs: usize,
    cache: Option<&Arc<ReplayCache>>,
) -> (String, u64, u64, u64) {
    let (prog, np) = workload(ix);
    let m = CampaignMetrics::new();
    let mut v = verifier(np, max, jobs).with_metrics(m.clone());
    if let Some(c) = cache {
        v = v.with_cache(Arc::clone(c));
    }
    let report = v.verify(prog.as_ref()).to_json().to_string();
    let snap = m.snapshot(prog.name(), np, "lamport", jobs);
    let field = |k: &str| snap["cache"][k].as_u64().expect("cache ledger");
    let committed = snap["wall_clock"]["replays_committed"]
        .as_u64()
        .expect("committed");
    (report, field("hits"), field("misses"), committed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The three-way oracle: cache-off, cache-cold, and cache-warm all
    /// agree on every serialized report field, and the warm ledger shows
    /// total reuse.
    #[test]
    fn off_cold_and_warm_reports_are_identical(
        ix in 0usize..3,
        max in 2u64..40,
        par in 0usize..2,
    ) {
        let jobs = [1, 4][par];
        let dir = tmp_path("oracle");
        let cache = Arc::new(
            ReplayCache::open(&dir, 0xdead_beef, plan_digest(None), false).expect("open"),
        );

        let (off, off_hits, _, _) = campaign(ix, max, jobs, None);
        prop_assert_eq!(off_hits, 0, "no cache, no hits");
        let (cold, cold_hits, cold_misses, cold_committed) =
            campaign(ix, max, jobs, Some(&cache));
        let (warm, warm_hits, warm_misses, warm_committed) =
            campaign(ix, max, jobs, Some(&cache));

        // Cache-off vs cache-on: identical error sets and interleaving
        // counts. (Not full report bytes: the divergence-retry counters
        // record real thread-scheduling races the retry machinery absorbs,
        // so two *executed* campaigns can legitimately differ there.)
        let semantics = |report: &str| {
            let v: serde_json::Value = serde_json::from_str(report).expect("report JSON");
            (
                v["errors"].to_string(),
                v["interleavings"].as_u64().expect("interleavings"),
            )
        };
        prop_assert_eq!(semantics(&cold), semantics(&off), "cache-cold vs cache-off");
        prop_assert_eq!(semantics(&warm), semantics(&off), "cache-warm vs cache-off");
        // Warm vs cold is the hard contract: every subtree is reused, so
        // the entire serialized report is byte-identical.
        prop_assert_eq!(&warm, &cold, "cache-warm must equal cache-cold byte-for-byte");
        prop_assert_eq!(cold_hits, 0);
        prop_assert_eq!(cold_misses, cold_committed);
        prop_assert_eq!(warm_hits, warm_committed, "warm reuses every subtree");
        prop_assert_eq!(warm_misses, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Kill-mid-campaign resume that re-enters through the cache: a run
    /// interrupted at a random budget, resumed against a fully populated
    /// store, must reach the uninterrupted answer — and must do so on
    /// cache hits alone.
    #[test]
    fn interrupted_resume_re_enters_through_the_cache(
        ix in 0usize..3,
        cut_seed in 1u64..16,
    ) {
        let dir = tmp_path("resume");
        let cache = Arc::new(
            ReplayCache::open(&dir, 0xdead_beef, plan_digest(None), false).expect("open"),
        );

        // Uninterrupted baseline, which also fully populates the store.
        let (full, _, _, full_committed) = campaign(ix, 1000, 1, Some(&cache));
        prop_assert!(full_committed >= 2, "need at least one replay to cut");
        // A random cut strictly inside the campaign, so work remains.
        let cut = 1 + cut_seed % (full_committed - 1);

        // "Kill" a fresh campaign at the cut: journal checkpoints after
        // every commit, so stopping at the budget leaves the same on-disk
        // state as a SIGKILL mid-flight.
        let journal = tmp_path("journal");
        let (prog, np) = workload(ix);
        let partial = DampiVerifier::with_config(
            SimConfig::new(np).with_policy(MatchPolicy::LowestRank),
            DampiConfig::default()
                .with_max_interleavings(cut)
                .with_journal(journal.clone()),
        )
        .with_cache(Arc::clone(&cache))
        .verify(prog.as_ref());
        prop_assert!(partial.budget_exhausted);

        // Resume with the interruption lifted, re-entering via the cache.
        let (prog, np) = workload(ix);
        let m = CampaignMetrics::new();
        let resumed = DampiVerifier::with_config(
            SimConfig::new(np).with_policy(MatchPolicy::LowestRank),
            DampiConfig::default(),
        )
        .with_metrics(m.clone())
        .with_cache(Arc::clone(&cache))
        .verify_from(
            prog.as_ref(),
            Start {
                journal: Some(ExplorationJournal::load(&journal).expect("journal loads")),
                ..Start::default()
            },
        )
        .expect("resume");
        prop_assert_eq!(
            resumed.to_json().to_string(),
            full,
            "resumed-through-cache campaign must equal the uninterrupted one"
        );
        let snap = m.snapshot(prog.name(), np, "lamport", 1);
        let hits = snap["cache"]["hits"].as_u64().unwrap();
        let misses = snap["cache"]["misses"].as_u64().unwrap();
        let committed = snap["wall_clock"]["replays_committed"].as_u64().unwrap();
        prop_assert!(hits > 0, "the resume must actually re-enter through the cache");
        prop_assert_eq!(hits, committed, "a populated store serves the whole resume");
        prop_assert_eq!(misses, 0);
        let _ = std::fs::remove_file(journal);
        let _ = std::fs::remove_dir_all(dir);
    }
}
