//! The journal as a commit log, end to end: a campaign killed after any
//! commit, or whose journal is torn at any byte, resumes to the report and
//! the journal bytes of the uninterrupted campaign — on the inline walk, the
//! thread pool and the in-process shard fleet alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dampi_core::cache::plan_digest;
use dampi_core::scheduler::{ExploreOptions, RunResult, Start};
use dampi_core::shard::{InProcessLauncher, ShardOptions};
use dampi_core::{
    DampiConfig, DampiVerifier, DecisionSet, ExplorationJournal, PrunePlan, ReplayCache,
    VerificationReport,
};
use dampi_mpi::program::MpiProgram;
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::matmul::{Matmul, MatmulParams};
use dampi_workloads::patterns;

fn tmp_journal(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dampi-journal-test-{}-{tag}-{n}.journal",
        std::process::id()
    ))
}

/// Where a campaign's replays run.
#[derive(Clone, Copy, Debug)]
enum Driver {
    Jobs(usize),
    Shards(usize),
}

const DRIVERS: [Driver; 3] = [Driver::Jobs(1), Driver::Jobs(4), Driver::Shards(2)];

/// A campaign budget no test workload reaches.
const UNBOUNDED: u64 = 100_000;

/// One campaign of `prog` under `driver`, journaling to `journal`: fresh
/// with a budget of `max` commits, or resumed from the journal.
fn campaign(
    prog: &Arc<dyn MpiProgram>,
    sim: &SimConfig,
    driver: Driver,
    journal: &Path,
    max: u64,
    resume: bool,
) -> std::io::Result<VerificationReport> {
    let mut cfg = DampiConfig::default()
        .with_max_interleavings(max)
        .with_journal(journal.to_path_buf());
    if let Driver::Jobs(jobs) = driver {
        cfg = cfg.with_jobs(jobs);
    }
    let v = Arc::new(DampiVerifier::with_config(sim.clone(), cfg));
    let start = Start {
        journal: resume
            .then(|| ExplorationJournal::load(journal))
            .transpose()?,
        ..Start::default()
    };
    let Driver::Shards(shards) = driver else {
        return v.verify_from(prog.as_ref(), start);
    };
    let (vr, pr) = (Arc::clone(&v), Arc::clone(prog));
    let run: Arc<dyn Fn(&DecisionSet) -> RunResult + Send + Sync> =
        Arc::new(move |ds| vr.instrumented_run(pr.as_ref(), ds));
    let launcher = InProcessLauncher::new(run, &ExploreOptions::default());
    let opts = ShardOptions {
        shards,
        ..ShardOptions::default()
    };
    v.verify_sharded_from(prog.as_ref(), &launcher, &opts, start)
}

fn racers() -> (Arc<dyn MpiProgram>, SimConfig) {
    (
        Arc::new(patterns::symmetric_racers()),
        SimConfig::new(4).with_policy(MatchPolicy::LowestRank),
    )
}

/// The uninterrupted `--jobs 1` campaign: its report and journal bytes.
fn baseline(prog: &Arc<dyn MpiProgram>, sim: &SimConfig) -> (VerificationReport, Vec<u8>) {
    let j = tmp_journal("base");
    let report = campaign(prog, sim, Driver::Jobs(1), &j, UNBOUNDED, false).expect("campaign");
    let bytes = std::fs::read(&j).expect("journal written");
    let commits = ExplorationJournal::load(&j).expect("journal").commits();
    assert_eq!(commits as u64, report.interleavings, "one frame per commit");
    let _ = std::fs::remove_file(j);
    (report, bytes)
}

/// Kill a campaign after every `step`-th commit and resume it, under each
/// driver: the resumed report and the final journal are the uninterrupted
/// `--jobs 1` campaign's, byte for byte.
fn killed_and_resumed_under_every_driver(prog: &Arc<dyn MpiProgram>, sim: &SimConfig, step: u64) {
    let (base, base_bytes) = baseline(prog, sim);
    let total = base.interleavings;
    let base = base.to_json().to_string();
    for driver in DRIVERS {
        for cut in (step..=total).step_by(step as usize) {
            let j = tmp_journal("cut");
            let partial = campaign(prog, sim, driver, &j, cut, false).expect("partial");
            assert_eq!(partial.interleavings, cut, "{driver:?}");
            let resumed = campaign(prog, sim, driver, &j, UNBOUNDED, true).expect("resume");
            assert_eq!(resumed.to_json().to_string(), base, "{driver:?} cut {cut}");
            let bytes = std::fs::read(&j).expect("journal");
            assert!(
                bytes == base_bytes,
                "{driver:?} cut {cut}: journal bytes differ"
            );
            let _ = std::fs::remove_file(j);
        }
    }
}

#[test]
fn racers_killed_at_every_commit_resumes_under_every_driver() {
    let (prog, sim) = racers();
    killed_and_resumed_under_every_driver(&prog, &sim, 1);
}

#[test]
fn matmul_killed_at_every_tenth_commit_resumes_under_every_driver() {
    let prog: Arc<dyn MpiProgram> = Arc::new(Matmul::new(MatmulParams::default()));
    let sim = SimConfig::new(4);
    killed_and_resumed_under_every_driver(&prog, &sim, 10);
}

#[test]
fn a_journal_torn_at_any_byte_resumes_or_is_refused() {
    // A warm cache stands in for the replays, so that a resume at every
    // byte offset stays cheap: the journal's records are then hits, and so
    // are the commits a resume appends.
    let (prog, sim) = racers();
    let dir = tmp_journal("torn-cache");
    let cache = Arc::new(ReplayCache::open(&dir, 1, plan_digest(None), false).expect("cache"));
    let verifier = |cfg: DampiConfig| {
        DampiVerifier::with_config(sim.clone(), cfg).with_cache(Arc::clone(&cache))
    };
    let cold = verifier(DampiConfig::default()).verify(prog.as_ref());
    let j = tmp_journal("torn");
    let base = verifier(DampiConfig::default().with_journal(j.clone())).verify(prog.as_ref());
    let base = base.to_json().to_string();
    assert_eq!(base, cold.to_json().to_string());
    let whole = std::fs::read(&j).expect("journal written");
    let mut offsets = Vec::new();
    dampi_core::frame::scan_log(&whole[..], |f| offsets.push(f.offset as usize)).expect("scan");
    let first_end = offsets.get(1).copied().unwrap_or(whole.len());
    for cut in 0..=whole.len() {
        std::fs::write(&j, &whole[..cut]).expect("write");
        let resumed = ExplorationJournal::load(&j).and_then(|journal| {
            let start = Start {
                journal: Some(journal),
                ..Start::default()
            };
            verifier(DampiConfig::default()).verify_from(prog.as_ref(), start)
        });
        if cut > 0 && cut < first_end {
            assert!(resumed.is_err(), "cut {cut} is inside the first frame");
            continue;
        }
        let resumed = resumed.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(resumed.to_json().to_string(), base, "cut {cut}");
        let bytes = std::fs::read(&j).expect("journal");
        assert!(
            bytes == whole,
            "cut {cut}: the torn tail is cut and re-appended"
        );
    }
    let _ = std::fs::remove_file(j);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_journalled_warm_matmul_ack_campaign_is_one_frame_per_commit() {
    // The `matmul_ack_warm` benchmark's program (np=7, 6 slaves x 1 task),
    // its cache warm: every commit is a hit,
    // and the journal holds one record per commit.
    let program = Matmul::new(MatmulParams {
        rounds_per_slave: 1,
        ack_results: true,
        ..MatmulParams::default()
    });
    let sim = SimConfig::new(7).with_policy(MatchPolicy::LowestRank);
    let dir = tmp_journal("matmul-ack-cache");
    let cache = Arc::new(ReplayCache::open(&dir, 1, plan_digest(None), false).expect("cache"));
    let cold = DampiVerifier::new(sim.clone())
        .with_cache(Arc::clone(&cache))
        .verify(&program);
    let j = tmp_journal("matmul-ack");
    let warm = DampiVerifier::with_config(sim, DampiConfig::default().with_journal(j.clone()))
        .with_cache(cache)
        .verify(&program);
    assert_eq!(warm.to_json(), cold.to_json());
    let commits = ExplorationJournal::load(&j).expect("journal").commits();
    let bytes = std::fs::metadata(&j).expect("journal written").len();
    let _ = std::fs::remove_file(&j);
    let _ = std::fs::remove_dir_all(&dir);
    // Keyed by schedule alone (version 3), the records took 1 118 677 bytes;
    // the key costs each about 52.
    assert_eq!(
        (commits, bytes),
        (720, 1_156_412),
        "commits and bytes of the journal"
    );
}

#[test]
fn a_journal_written_without_a_plan_is_refused_under_one() {
    let (prog, sim) = racers();
    let j = tmp_journal("planless");
    let cfg = DampiConfig::default().with_journal(j.clone());
    let _ = DampiVerifier::with_config(sim.clone(), cfg).verify(prog.as_ref());
    let written = std::fs::read(&j).expect("journal written");
    let plan = PrunePlan {
        orbits: vec![[1, 3].into()],
        ..PrunePlan::default()
    };
    let start = Start {
        journal: Some(ExplorationJournal::load(&j).expect("journal loads")),
        ..Start::default()
    };
    let refused = DampiVerifier::new(sim)
        .with_prune_plan(plan)
        .verify_from(prog.as_ref(), start)
        .expect_err("another plan's journal");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
    assert!(refused.to_string().contains("another plan"), "{refused}");
    assert!(
        std::fs::read(&j).expect("journal") == written,
        "a refused journal is left as it was"
    );
    let _ = std::fs::remove_file(j);
}

#[test]
fn a_record_of_another_campaign_ends_serving_where_it_stands() {
    // The root record of this campaign, then the records of the same walk
    // under another config digest: the resume serves the root, refuses the
    // rest as if damaged, and re-executes from there.
    let (prog, sim) = racers();
    let journaled = |config_digest: u64| {
        let j = tmp_journal(&format!("config-{config_digest}"));
        let cfg = DampiConfig::default().with_journal(j.clone());
        let start = Start {
            config_digest,
            ..Start::default()
        };
        let v = DampiVerifier::with_config(sim.clone(), cfg);
        let report = v.verify_from(prog.as_ref(), start).expect("fresh campaign");
        let bytes = std::fs::read(&j).expect("journal written");
        let _ = std::fs::remove_file(j);
        (report.to_json().to_string(), bytes)
    };
    let (base, ours) = journaled(0);
    let (_, theirs) = journaled(1);
    let second = |bytes: &[u8]| {
        let mut offsets = Vec::new();
        dampi_core::frame::scan_log(bytes, |f| offsets.push(f.offset as usize)).expect("scan");
        offsets[1]
    };
    let j = tmp_journal("spliced");
    std::fs::write(
        &j,
        [&ours[..second(&ours)], &theirs[second(&theirs)..]].concat(),
    )
    .unwrap();
    let start = Start {
        journal: Some(ExplorationJournal::load(&j).expect("journal loads")),
        ..Start::default()
    };
    let resumed = DampiVerifier::new(sim).verify_from(prog.as_ref(), start);
    assert_eq!(resumed.expect("resumed").to_json().to_string(), base);
    assert!(
        std::fs::read(&j).unwrap() == ours,
        "the foreign records are cut"
    );
    let _ = std::fs::remove_file(j);
}

#[test]
fn old_journals_and_cache_logs_are_refused() {
    let (prog, sim) = racers();
    let dir = tmp_journal("old-cache");
    let cache = Arc::new(ReplayCache::open(&dir, 1, plan_digest(None), false).expect("cache"));
    let j = tmp_journal("v4");
    let cfg = DampiConfig::default().with_journal(j.clone());
    let _ = DampiVerifier::with_config(sim, cfg)
        .with_cache(cache)
        .verify(prog.as_ref());
    let keyspace = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
    assert!(ExplorationJournal::load(&keyspace.path().join("entries")).is_err());
    // A version-3 record was keyed by schedule alone.
    let log = std::fs::File::open(&j).unwrap();
    let mut first = None;
    dampi_core::frame::scan_log(&log, |f| {
        first.get_or_insert(f);
    })
    .unwrap();
    let f = first.expect("a record");
    let payload = dampi_core::frame::read_frame_at(&log, f.offset, f.len)
        .unwrap()
        .unwrap();
    let (head, json) = payload.split_at(dampi_core::frame::LOG_HEAD_LEN);
    let mut record: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(json).unwrap()).unwrap();
    let fields = record.as_object_mut().unwrap();
    for key in ["program", "plan", "schedule"] {
        fields.remove(key);
    }
    fields.insert("version".into(), serde_json::json!(3));
    let v3 = serde_json::to_string(&record).unwrap();
    let head = u64::from_le_bytes(head.try_into().unwrap());
    std::fs::write(
        &j,
        dampi_core::frame::head_frame(head, v3.as_bytes()).unwrap(),
    )
    .unwrap();
    assert!(ExplorationJournal::load(&j).is_err());
    let _ = std::fs::remove_file(j);
    let _ = std::fs::remove_dir_all(dir);
}
