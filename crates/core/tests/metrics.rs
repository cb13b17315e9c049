//! Integration tests of the campaign observability layer: semantic
//! metrics are byte-identical across worker counts, the dispatch
//! accounting invariant holds, and the JSONL trace is schema-versioned
//! and complete.

use std::collections::BTreeSet;

use dampi_clocks::ClockStamp;
use dampi_core::decisions::DecisionSet;
use dampi_core::epoch::{EpochRecord, NdKind, ToolRunStats};
use dampi_core::scheduler::{explore, explore_parallel, ExploreOptions, RunResult};
use dampi_core::{CampaignMetrics, CampaignTrace, TRACE_SCHEMA_VERSION};
use dampi_mpi::program::RunOutcome;
use dampi_mpi::{Comm, LeakReport};

/// Synthetic confluent program: independent epochs on rank 0, epoch `i`
/// choosing among `alt_counts[i]` sources (same model as the scheduler
/// property tests).
fn model_run(alt_counts: Vec<usize>) -> impl Fn(&DecisionSet) -> RunResult + Sync {
    move |ds: &DecisionSet| {
        let epochs: Vec<EpochRecord> = alt_counts
            .iter()
            .enumerate()
            .map(|(i, &nsrc)| {
                let clock = i as u64;
                let forced = ds.lookup(0, clock);
                let matched = forced.unwrap_or(0);
                EpochRecord {
                    rank: 0,
                    clock,
                    stamp: ClockStamp::Lamport(clock + 1),
                    comm: Comm::WORLD,
                    tag_spec: 0,
                    kind: NdKind::Recv,
                    in_region: false,
                    guided: forced.is_some(),
                    matched_src: Some(matched),
                    alternates: (0..nsrc).filter(|s| *s != matched).collect::<BTreeSet<_>>(),
                }
            })
            .collect();
        RunResult {
            outcome: RunOutcome {
                rank_errors: vec![None],
                leaks: LeakReport::default(),
                fatal: None,
                per_rank_vt: vec![1.0],
                wall_elapsed: std::time::Duration::ZERO,
                makespan: 1.0,
                census: Default::default(),
            },
            epochs,
            stats: ToolRunStats {
                wildcards: alt_counts.len() as u64,
                ..Default::default()
            },
        }
    }
}

fn semantic_json(metrics: &CampaignMetrics) -> String {
    let snap = metrics.snapshot("model", 1, "lamport", 0);
    serde_json::to_string(snap.get("semantic").expect("semantic section"))
        .expect("semantic serializes")
}

#[test]
fn semantic_metrics_are_byte_identical_across_jobs() {
    let alt_counts = vec![3, 2, 3, 2];
    let mut snapshots = Vec::new();
    for jobs in [1usize, 4] {
        let m = CampaignMetrics::new();
        let opts = ExploreOptions {
            jobs,
            metrics: Some(m.clone()),
            retry_backoff: dampi_core::RetryBackoff::ZERO,
            ..ExploreOptions::default()
        };
        let ex = explore_parallel(model_run(alt_counts.clone()), &opts);
        assert_eq!(ex.interleavings, 36, "3*2*3*2 product coverage");
        snapshots.push(semantic_json(&m));
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "semantic section must not depend on worker count"
    );
}

#[test]
fn sequential_walk_matches_parallel_semantics() {
    let alt_counts = vec![2, 3, 2];
    let m_seq = CampaignMetrics::new();
    let _ = explore(
        model_run(alt_counts.clone()),
        &ExploreOptions {
            metrics: Some(m_seq.clone()),
            ..ExploreOptions::default()
        },
    );
    let m_par = CampaignMetrics::new();
    let _ = explore_parallel(
        model_run(alt_counts),
        &ExploreOptions {
            jobs: 4,
            metrics: Some(m_par.clone()),
            retry_backoff: dampi_core::RetryBackoff::ZERO,
            ..ExploreOptions::default()
        },
    );
    assert_eq!(semantic_json(&m_seq), semantic_json(&m_par));
}

#[test]
fn every_dispatched_replay_is_committed_or_aborted() {
    // A budget mid-frontier forces the coordinator to cancel in-flight and
    // cached work: those dispatches must land in `aborted`, keeping the
    // ledger exact.
    let m = CampaignMetrics::new();
    let opts = ExploreOptions {
        jobs: 4,
        max_interleavings: Some(5),
        metrics: Some(m.clone()),
        retry_backoff: dampi_core::RetryBackoff::ZERO,
        ..ExploreOptions::default()
    };
    let ex = explore_parallel(model_run(vec![3, 3, 3]), &opts);
    assert!(ex.budget_exhausted);
    assert_eq!(m.committed(), ex.interleavings);
    assert_eq!(
        m.started(),
        m.committed() + m.aborted(),
        "dispatch ledger must balance: started {} committed {} aborted {}",
        m.started(),
        m.committed(),
        m.aborted()
    );
}

#[test]
fn trace_is_schema_versioned_and_complete() {
    let (trace, buf) = CampaignTrace::to_shared_buffer();
    let opts = ExploreOptions {
        jobs: 2,
        trace: Some(trace),
        retry_backoff: dampi_core::RetryBackoff::ZERO,
        ..ExploreOptions::default()
    };
    let ex = explore_parallel(model_run(vec![2, 2]), &opts);
    let text = String::from_utf8(buf.lock().clone()).expect("utf8 trace");
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every trace line is JSON"))
        .collect();
    assert!(!lines.is_empty());
    let mut starts = 0u64;
    let mut commits = 0u64;
    for l in &lines {
        assert_eq!(
            l.get("v").and_then(serde_json::Value::as_u64),
            Some(u64::from(TRACE_SCHEMA_VERSION)),
            "every record carries the schema version"
        );
        let event = l
            .get("event")
            .and_then(serde_json::Value::as_object)
            .unwrap();
        let (kind, _) = event.iter().next().expect("externally tagged event");
        match kind.as_str() {
            "ReplayStart" => starts += 1,
            "ReplayCommit" => commits += 1,
            _ => {}
        }
    }
    assert_eq!(commits, ex.interleavings, "one commit record per replay");
    assert!(starts >= commits, "every commit was started");
    let first = &lines[0];
    assert!(first.get("event").unwrap().get("CampaignStart").is_some());
    let last = lines.last().unwrap();
    let end = last.get("event").unwrap().get("CampaignEnd").unwrap();
    assert_eq!(
        end.get("interleavings").and_then(serde_json::Value::as_u64),
        Some(ex.interleavings)
    );
}
