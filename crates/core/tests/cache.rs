//! End-to-end tests of the content-addressed replay cache: a warm run
//! must be **byte-identical** to a cold run (report JSON) at every driver
//! (`--jobs 1`, `--jobs 4`, in-process `--shards 2`), with the same journal
//! bytes at each, reuse every committed subtree, and any change to the
//! program or prune-plan digest must be a full miss — never stale reuse.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dampi_core::cache::plan_digest;
use dampi_core::frame::{FRAME_HEADER_LEN, LOG_HEAD_LEN};
use dampi_core::scheduler::{ExploreOptions, RunResult, Start};
use dampi_core::shard::{InProcessLauncher, ShardOptions};
use dampi_core::{
    CampaignMetrics, DampiConfig, DampiVerifier, DecisionSet, PrunePlan, ReplayCache,
};
use dampi_mpi::program::MpiProgram;
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::patterns;

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dampi-cache-test-{}-{tag}-{n}", std::process::id()))
}

const PROGRAM_DIGEST: u64 = 0x1234_5678_9abc_def0;

fn racers_verifier(jobs: usize, journal: Option<&Path>) -> DampiVerifier {
    let config = DampiConfig::default().with_jobs(jobs);
    DampiVerifier::with_config(
        SimConfig::new(4).with_policy(MatchPolicy::LowestRank),
        match journal {
            Some(path) => config.with_journal(path.to_path_buf()),
            None => config,
        },
    )
}

struct RunStats {
    report: String,
    journal: Vec<u8>,
    hits: u64,
    misses: u64,
    stores: u64,
    stale: u64,
    committed: u64,
}

/// One racers campaign against `cache`, returning everything the parity
/// assertions need: the serialized report, the journal bytes, and the
/// cache ledger from the metrics snapshot.
fn run_racers(cache: &Arc<ReplayCache>, jobs: usize, shards: Option<usize>) -> RunStats {
    run_racers_journaled(cache, jobs, shards, true)
}

/// [`run_racers`], with the journal (an fsync per commit) left out on
/// request: `journal` is then empty.
fn run_racers_journaled(
    cache: &Arc<ReplayCache>,
    jobs: usize,
    shards: Option<usize>,
    journaled: bool,
) -> RunStats {
    let journal = tmp_path("journal");
    let m = CampaignMetrics::new();
    let verifier = racers_verifier(jobs, journaled.then_some(&journal))
        .with_metrics(m.clone())
        .with_cache(Arc::clone(cache));
    let report = if let Some(shards) = shards {
        let prog: Arc<dyn MpiProgram> = Arc::new(patterns::symmetric_racers());
        let v = Arc::new(verifier);
        let vr = Arc::clone(&v);
        let pr = Arc::clone(&prog);
        let run: Arc<dyn Fn(&DecisionSet) -> RunResult + Send + Sync> =
            Arc::new(move |ds| vr.instrumented_run(pr.as_ref(), ds));
        let launcher = InProcessLauncher::new(run, &ExploreOptions::default());
        let opts = ShardOptions {
            shards,
            ..ShardOptions::default()
        };
        v.verify_sharded_from(prog.as_ref(), &launcher, &opts, Start::default())
            .expect("clean sharded campaign")
    } else {
        verifier.verify(&patterns::symmetric_racers())
    };
    let snap = m.snapshot("racers", 4, "lamport", shards.unwrap_or(jobs));
    let cache_block = snap.get("cache").expect("cache ledger in snapshot");
    let field = |k: &str| cache_block.get(k).and_then(serde_json::Value::as_u64);
    let stats = RunStats {
        report: report.to_json().to_string(),
        journal: if journaled {
            std::fs::read(&journal).expect("journal written")
        } else {
            Vec::new()
        },
        hits: field("hits").expect("hits"),
        misses: field("misses").expect("misses"),
        stores: field("stores").expect("stores"),
        stale: field("stale").expect("stale"),
        committed: snap["wall_clock"]["replays_committed"]
            .as_u64()
            .expect("committed"),
    };
    let _ = std::fs::remove_file(journal);
    stats
}

#[test]
fn warm_run_is_byte_identical_and_all_hits_at_every_driver() {
    let dir = tmp_path("warm");
    let cache = Arc::new(
        ReplayCache::open(&dir, PROGRAM_DIGEST, plan_digest(None), false).expect("open cache"),
    );

    // Baseline without any cache: the cold cached run must not perturb it.
    let base_j = tmp_path("base-journal");
    let base = racers_verifier(1, Some(&base_j))
        .verify(&patterns::symmetric_racers())
        .to_json()
        .to_string();
    let base_journal = std::fs::read(&base_j).expect("baseline journal");
    let _ = std::fs::remove_file(&base_j);

    let cold = run_racers(&cache, 1, None);
    assert_eq!(cold.report, base, "cache-off vs cache-cold report");
    assert_eq!(
        cold.journal, base_journal,
        "cache-off vs cache-cold journal"
    );
    assert_eq!(cold.hits, 0, "empty store cannot hit");
    assert_eq!(cold.misses, cold.committed);
    assert_eq!(cold.stores, cold.misses, "every miss populates the store");
    assert!(cold.committed >= 2, "racers explores multiple subtrees");

    // A warm journal records its commits as hits, so it is not the cold
    // one; it is the same at every driver.
    let mut warm_journal = None;
    for (jobs, shards) in [(1, None), (4, None), (1, Some(2))] {
        let warm = run_racers(&cache, jobs, shards);
        assert_eq!(
            warm.report, cold.report,
            "warm report at jobs={jobs} shards={shards:?}"
        );
        assert_eq!(frame_offsets(&warm.journal).len() as u64, warm.committed);
        assert_eq!(
            warm_journal.get_or_insert_with(|| warm.journal.clone()),
            &warm.journal,
            "warm journal at jobs={jobs} shards={shards:?}"
        );
        assert_eq!(
            warm.hits, warm.committed,
            "warm run must reuse every subtree at jobs={jobs} shards={shards:?}"
        );
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.stores, 0, "a fully-warm run writes nothing");
        assert_eq!(warm.stale, 0);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn program_digest_change_forces_a_full_miss() {
    let dir = tmp_path("prog-flip");
    let cache = Arc::new(
        ReplayCache::open(&dir, PROGRAM_DIGEST, plan_digest(None), false).expect("open cache"),
    );
    let cold = run_racers(&cache, 1, None);
    assert_eq!(cold.stores, cold.committed);

    // Same store root, different program digest: a different keyspace
    // directory, so nothing can be reused — not even accidentally.
    let flipped = Arc::new(
        ReplayCache::open(&dir, PROGRAM_DIGEST ^ 1, plan_digest(None), false).expect("open cache"),
    );
    let warm = run_racers(&flipped, 1, None);
    assert_eq!(warm.hits, 0, "program-digest change must fully miss");
    assert_eq!(warm.misses, warm.committed);
    assert_eq!(warm.report, cold.report);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn prune_plan_digest_change_forces_a_full_miss() {
    let dir = tmp_path("plan-flip");
    let cache = Arc::new(
        ReplayCache::open(&dir, PROGRAM_DIGEST, plan_digest(None), false).expect("open cache"),
    );
    let cold = run_racers(&cache, 1, None);
    assert_eq!(cold.stores, cold.committed);

    // A non-empty plan digests differently from the no-plan keyspace, so
    // installing (or changing) a plan can never reuse subtrees explored
    // under different pruning. (The plan is deliberately *not* installed
    // in the verifier here: the exploration must stay identical so the
    // only variable is the keyspace.)
    let mut plan = PrunePlan::default();
    plan.deterministic.insert((1, 7));
    assert_ne!(plan_digest(Some(&plan)), plan_digest(None));
    let keyed = Arc::new(
        ReplayCache::open(&dir, PROGRAM_DIGEST, plan_digest(Some(&plan)), false)
            .expect("open cache"),
    );
    let warm = run_racers(&keyed, 1, None);
    assert_eq!(warm.hits, 0, "plan-digest change must fully miss");
    assert_eq!(warm.misses, warm.committed);
    assert_eq!(warm.report, cold.report);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn readonly_cache_reads_but_never_writes() {
    let dir = tmp_path("readonly");
    let ro = Arc::new(
        ReplayCache::open(&dir, PROGRAM_DIGEST, plan_digest(None), true).expect("open readonly"),
    );
    let cold = run_racers(&ro, 1, None);
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.stores, 0, "readonly must not populate the store");
    assert!(
        !dir.join(format!("{PROGRAM_DIGEST:016x}-{:016x}", plan_digest(None)))
            .exists(),
        "readonly open must not even create the keyspace directory"
    );

    // Populate read-write, then a readonly warm run reuses everything and
    // leaves the log byte for byte as it found it.
    let rw = Arc::new(
        ReplayCache::open(&dir, PROGRAM_DIGEST, plan_digest(None), false).expect("open cache"),
    );
    let populate = run_racers(&rw, 1, None);
    assert_eq!(populate.stores, populate.committed);
    let log = std::fs::read(log_path(&dir)).unwrap();
    let warm = run_racers(&open(&dir, true), 1, None);
    assert_eq!(warm.hits, warm.committed);
    assert_eq!(warm.stores, 0);
    assert_eq!(warm.report, cold.report);
    assert_eq!(std::fs::read(log_path(&dir)).unwrap(), log);

    // The handle opened before anyone stored indexed an absent log: it does
    // not see what was appended since, and re-executes instead.
    let blind = run_racers(&ro, 1, None);
    assert_eq!((blind.hits, blind.stores), (0, 0));
    assert_eq!(blind.misses, blind.committed);
    assert_eq!(blind.report, cold.report);
    let _ = std::fs::remove_dir_all(dir);
}

/// The racers keyspace's log under `dir`.
fn log_path(dir: &Path) -> PathBuf {
    dir.join(format!("{PROGRAM_DIGEST:016x}-{:016x}", plan_digest(None)))
        .join("entries")
}

fn open(dir: &Path, readonly: bool) -> Arc<ReplayCache> {
    Arc::new(
        ReplayCache::open(dir, PROGRAM_DIGEST, plan_digest(None), readonly).expect("open cache"),
    )
}

/// Header offsets of the log's frames, in order.
fn frame_offsets(log: &[u8]) -> Vec<usize> {
    let mut at = Vec::new();
    let end = dampi_core::frame::scan_log(log, |f| at.push(f.offset as usize)).expect("scan");
    assert_eq!(
        end,
        log.len() as u64,
        "a log nobody damaged has no torn tail"
    );
    at
}

#[test]
fn a_damaged_frame_is_counted_stale_once_and_silently_re_executed() {
    // Through the handle that wrote the log, then through one that meets the
    // damage while indexing: the ledger reads the same.
    for fresh_handle in [false, true] {
        let dir = tmp_path("corrupt");
        let cache = open(&dir, false);
        let cold = run_racers(&cache, 1, None);
        assert!(cold.stores >= 3);

        // Flip one payload byte in a frame in the middle of the log: its
        // checksum can no longer verify; its length word still can.
        let mut log = std::fs::read(log_path(&dir)).unwrap();
        let offsets = frame_offsets(&log);
        assert_eq!(offsets.len() as u64, cold.stores);
        log[offsets[offsets.len() / 2] + 40] ^= 0x10;
        std::fs::write(log_path(&dir), &log).unwrap();

        let cache = if fresh_handle {
            open(&dir, false)
        } else {
            cache
        };
        let warm = run_racers(&cache, 1, None);
        assert_eq!(warm.report, cold.report, "stale entry must not leak");
        assert_eq!(frame_offsets(&warm.journal).len() as u64, warm.committed);
        assert_eq!(warm.stale, 1, "exactly the damaged frame is stale");
        assert_eq!(warm.misses, 1, "the stale subtree re-executes");
        assert_eq!(warm.hits, warm.committed - 1);
        assert_eq!(warm.stores, 1, "the re-execution appends a fresh frame");

        // The repaired store is fully warm again, for this handle and the next.
        for cache in [Arc::clone(&cache), open(&dir, false)] {
            let again = run_racers(&cache, 1, None);
            assert_eq!(again.hits, again.committed);
            assert_eq!((again.misses, again.stores), (0, 0));
            assert_eq!(again.stale, 0, "fresh_handle={fresh_handle}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn an_intact_frame_holding_a_hostile_nest_is_stale_once_and_re_executed() {
    // A megabyte of `[`, in an unknown field or where a known one's value
    // should be, inside a frame whose checksum holds: only the parser's
    // nesting cap stands between it and the stack.
    let nest = "[".repeat(1 << 20);
    for (at, hostile) in [
        ("{", format!(r#"{{"unknown":{nest},"#)),
        (r#""result":{"#, format!(r#""result":{{"epochs":{nest},"#)),
    ] {
        let dir = tmp_path("hostile");
        let cold = run_racers_journaled(&open(&dir, false), 1, None, false);
        let log = std::fs::read(log_path(&dir)).unwrap();
        let offsets = frame_offsets(&log);
        let mid = offsets.len() / 2;
        let (start, end) = (offsets[mid], offsets[mid + 1]);
        let payload = &log[start + FRAME_HEADER_LEN..end];
        let (head, json) = payload.split_at(LOG_HEAD_LEN);
        let json = std::str::from_utf8(json).unwrap().replacen(at, &hostile, 1);
        let mut spliced = log[..start].to_vec();
        dampi_core::frame::write_frame(&mut spliced, &[head, json.as_bytes()].concat()).unwrap();
        spliced.extend_from_slice(&log[end..]);
        std::fs::write(log_path(&dir), &spliced).unwrap();

        let warm = run_racers_journaled(&open(&dir, false), 1, None, false);
        assert_eq!(warm.report, cold.report, "{at}");
        assert_eq!((warm.stale, warm.misses, warm.stores), (1, 1, 1), "{at}");
        assert_eq!(warm.hits, warm.committed - 1, "{at}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_log_torn_anywhere_in_its_last_frame_costs_one_replay() {
    let dir = tmp_path("torn");
    let cold = run_racers(&open(&dir, false), 1, None);
    let whole = std::fs::read(log_path(&dir)).unwrap();
    let last = *frame_offsets(&whole).last().unwrap();

    for cut in last..whole.len() {
        std::fs::write(log_path(&dir), &whole[..cut]).unwrap();
        let torn_bytes = u64::from(cut > last);

        // `--cache-readonly` serves every earlier entry and touches nothing.
        let ro = run_racers_journaled(&open(&dir, true), 1, None, false);
        assert_eq!(ro.report, cold.report, "cut at {cut}");
        assert_eq!(
            (ro.stale, ro.misses, ro.stores),
            (torn_bytes, 1, 0),
            "cut at {cut}"
        );
        assert_eq!(ro.hits, ro.committed - 1, "cut at {cut}");
        assert_eq!(
            std::fs::read(log_path(&dir)).unwrap(),
            whole[..cut],
            "cut at {cut}"
        );

        // A writable handle does the same, then stores what it re-executed
        // where the torn bytes were...
        let rw = run_racers_journaled(&open(&dir, false), 1, None, false);
        assert_eq!(rw.report, cold.report, "cut at {cut}");
        assert_eq!(
            (rw.stale, rw.misses, rw.stores),
            (torn_bytes, 1, 1),
            "cut at {cut}"
        );
        let mended = std::fs::read(log_path(&dir)).unwrap();
        assert_eq!(mended[..last], whole[..last], "cut at {cut}");
        assert_eq!(
            frame_offsets(&mended),
            frame_offsets(&whole),
            "cut at {cut}"
        );

        // ... which a reopen then serves.
        let again = run_racers_journaled(&open(&dir, true), 1, None, false);
        assert_eq!(again.hits, again.committed, "cut at {cut}");
        assert_eq!((again.stale, again.misses), (0, 0), "cut at {cut}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Each schedule's `result` in a cache or journal log, as the bytes it
/// was written as: an entry's last key is its result.
fn results_by_schedule(log: &[u8]) -> std::collections::BTreeMap<u64, String> {
    let mut out = std::collections::BTreeMap::new();
    dampi_core::frame::scan_log(log, |f| {
        let at = f.offset as usize + FRAME_HEADER_LEN;
        let json = std::str::from_utf8(&log[at + LOG_HEAD_LEN..at + f.len as usize]).unwrap();
        let (_, result) = json
            .split_once(r#""result":"#)
            .expect("an entry has a result");
        out.insert(u64::from_le_bytes(f.head), result.to_owned());
    })
    .expect("scan");
    out
}

#[test]
fn a_cache_entry_and_its_journal_record_hold_the_same_result() {
    // One turn-token racers campaign writing both logs: each commit's result
    // reaches both in walk order, whatever order its ranks finalized in.
    let (dir, journal) = (tmp_path("walk-order"), tmp_path("walk-order-journal"));
    let verifier = DampiVerifier::with_config(
        SimConfig::new(4)
            .with_policy(MatchPolicy::LowestRank)
            .with_deterministic(true),
        DampiConfig::default()
            .with_jobs(1)
            .with_journal(journal.clone()),
    )
    .with_cache(open(&dir, false));
    let report = verifier.verify(&patterns::symmetric_racers());
    let cached = results_by_schedule(&std::fs::read(log_path(&dir)).unwrap());
    let journaled = results_by_schedule(&std::fs::read(&journal).unwrap());
    assert_eq!(cached.len() as u64, report.interleavings);
    assert_eq!(
        cached.keys().collect::<Vec<_>>(),
        journaled.keys().collect::<Vec<_>>()
    );
    let differing = cached
        .iter()
        .filter(|&(schedule, result)| journaled[schedule] != *result)
        .count();
    assert_eq!(differing, 0, "of {} schedules", cached.len());
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(journal);
}
