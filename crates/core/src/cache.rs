//! Content-addressed replay-result cache: incremental verification.
//!
//! A campaign's unit of work is one replay — a [`DecisionSet`] executed to
//! completion, producing a [`SubtreeResult`]. That result is a pure
//! function of `(program, prune plan, schedule)`: the simulator is
//! deterministic, guided replays force the scheduled matches, and the
//! prune plan decides which children ever reach the frontier. The cache
//! exploits this by keying each stored result on the digest triple
//!
//! ```text
//!   (program digest, prune-plan digest, schedule digest)
//! ```
//!
//! and letting the deterministic commit path consult it before spawning a
//! replay: a hit installs the stored outcome (epoch logs, error records,
//! per-attempt makespans, divergence/retry counts) exactly as if the
//! replay had run, so warm campaigns are byte-identical to cold ones —
//! the subtree below a hit is re-derived by the walk itself from the
//! cached epoch log, which is why caching *one replay per schedule*
//! suffices to reuse whole subtrees.
//!
//! On disk, each entry is a single [`protocol::write_frame`]-checksummed
//! file (`[len][fnv1a][json]`) under `<root>/<program>-<plan>/<schedule>`,
//! written atomically (temp sibling + rename). Anything that fails the
//! checksum, schema-version, or key check is counted *stale*, deleted
//! (unless the cache is read-only), and treated as a miss — a torn write
//! or a layout change can cost a replay, never correctness.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::decisions::DecisionSet;
use crate::executor::AttemptReport;
use crate::prune::PrunePlan;
use crate::shard::protocol::{self, SubtreeResult};

/// Version of the on-disk entry layout. Bump on any change to the entry
/// schema or to the digest derivations; old entries then read as stale
/// and are re-populated, never misinterpreted.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// One on-disk cache entry: the full key (so a hash collision or a
/// misfiled entry is detected, not trusted) plus the stored result.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct CacheEntry {
    version: u32,
    program: u64,
    plan: u64,
    schedule: u64,
    result: SubtreeResult,
}

/// Digest of a schedule: FNV-1a over a canonical byte encoding of the
/// decision set (guided epoch, then the `(rank, clock, src)` triples in
/// sorted order). Unlike [`DecisionSet::signature`] — which uses the
/// process-local `DefaultHasher` and is only meant for the in-memory
/// visited set — this digest is stable across processes and reboots, so
/// it can address on-disk state.
#[must_use]
pub fn schedule_digest(decisions: &DecisionSet) -> u64 {
    let mut bytes = Vec::with_capacity(8 + decisions.decisions.len() * 24);
    bytes.extend_from_slice(&decisions.guided_epoch.to_le_bytes());
    let mut triples: Vec<(usize, u64, usize)> = decisions
        .decisions
        .iter()
        .map(|d| (d.rank, d.clock, d.src))
        .collect();
    triples.sort_unstable();
    for (rank, clock, src) in triples {
        bytes.extend_from_slice(&(rank as u64).to_le_bytes());
        bytes.extend_from_slice(&clock.to_le_bytes());
        bytes.extend_from_slice(&(src as u64).to_le_bytes());
    }
    protocol::checksum(&bytes)
}

/// Digest of a prune plan: FNV-1a over its canonical JSON. `BTreeSet`
/// fields serialize in sorted order and the serialized form includes the
/// plan's `version`, so a v1 and a v2 plan over the same trace digest
/// differently — a plan upgrade invalidates, exactly as required. `None`
/// (no pruning) gets a reserved digest of 0.
#[must_use]
pub fn plan_digest(plan: Option<&PrunePlan>) -> u64 {
    match plan {
        None => 0,
        Some(p) => {
            let json = serde_json::to_string(p).expect("prune plans serialize");
            protocol::checksum(json.as_bytes())
        }
    }
}

/// A miss's serialized entry, prepared *before* the commit consumes the
/// result and written *after* the commit succeeds — the store only ever
/// holds results the deterministic walk actually absorbed.
#[derive(Debug)]
pub(crate) struct PendingStore {
    schedule: u64,
    frame: Vec<u8>,
}

/// The content-addressed replay-result store. One instance serves a whole
/// campaign, and only the exploration driver touches it: executors
/// (including shard workers) never see the disk, so the frame protocol is
/// unchanged.
#[derive(Debug)]
pub struct ReplayCache {
    /// Keyspace directory: `<root>/<program:016x>-<plan:016x>`.
    dir: PathBuf,
    program: u64,
    plan: u64,
    readonly: bool,
    /// Entries rejected for checksum/version/key reasons.
    stale: AtomicU64,
}

impl ReplayCache {
    /// Open (and create, unless read-only) the keyspace for
    /// `(program, plan)` under `root`. The digests partition the store:
    /// any program or plan change lands in a different directory, so
    /// invalidation is structural — stale keyspaces are never consulted,
    /// only orphaned.
    pub fn open(root: &Path, program: u64, plan: u64, readonly: bool) -> io::Result<Self> {
        let dir = root.join(format!("{program:016x}-{plan:016x}"));
        if !readonly {
            fs::create_dir_all(&dir)?;
        }
        Ok(Self {
            dir,
            program,
            plan,
            readonly,
            stale: AtomicU64::new(0),
        })
    }

    /// Whether this handle was opened read-only (hits served, misses not
    /// stored, stale entries not deleted).
    #[must_use]
    pub fn readonly(&self) -> bool {
        self.readonly
    }

    /// How many on-disk entries were rejected (corrupt, wrong schema
    /// version, or key mismatch) by this handle so far.
    #[must_use]
    pub fn stale_count(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    fn entry_path(&self, schedule: u64) -> PathBuf {
        self.dir.join(format!("{schedule:016x}"))
    }

    /// Look up the stored result for `decisions`. Anything short of a
    /// fully-valid entry is a miss; invalid files are additionally
    /// counted stale and deleted (unless read-only) so one bad write
    /// costs one replay, once.
    pub(crate) fn lookup(&self, decisions: &DecisionSet) -> Option<AttemptReport> {
        let schedule = schedule_digest(decisions);
        let path = self.entry_path(schedule);
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => return self.reject(&path),
        };
        let Ok(Some(payload)) = protocol::read_frame(&mut file) else {
            return self.reject(&path);
        };
        let Ok(text) = std::str::from_utf8(&payload) else {
            return self.reject(&path);
        };
        let Ok(entry) = serde_json::from_str::<CacheEntry>(text) else {
            return self.reject(&path);
        };
        if entry.version != CACHE_SCHEMA_VERSION
            || entry.program != self.program
            || entry.plan != self.plan
            || entry.schedule != schedule
        {
            return self.reject(&path);
        }
        Some(entry.result.into())
    }

    /// Serialize `rep` for storage under `decisions`' digest. Returns
    /// `None` when nothing should be stored: the cache is read-only, or
    /// the result is a watchdog kill (a `ReplayTimeout` reflects a budget,
    /// not the schedule's semantics — caching it would freeze partial
    /// coverage, so timed-out subtrees always re-execute).
    pub(crate) fn prepare(
        &self,
        decisions: &DecisionSet,
        rep: &AttemptReport,
    ) -> Option<PendingStore> {
        if self.readonly || crate::scheduler::timeout_of(&rep.res.outcome).is_some() {
            return None;
        }
        let entry = CacheEntry {
            version: CACHE_SCHEMA_VERSION,
            program: self.program,
            plan: self.plan,
            schedule: schedule_digest(decisions),
            result: SubtreeResult {
                outcome: rep.res.outcome.clone(),
                epochs: rep.res.epochs.clone(),
                stats: rep.res.stats,
                attempt_makespans: rep.attempt_makespans.clone(),
                divergences: rep.divergences,
                retries: rep.retries,
            },
        };
        let json = serde_json::to_string(&entry).expect("cache entries serialize");
        let mut frame = Vec::with_capacity(json.len() + 12);
        protocol::write_frame(&mut frame, json.as_bytes()).expect("vec writes cannot fail");
        Some(PendingStore {
            schedule: entry.schedule,
            frame,
        })
    }

    /// Write a prepared entry (atomically: temp sibling + rename). Called
    /// after the commit absorbed the result. Returns `true` on success;
    /// failures are swallowed — the cache is an accelerator, never a
    /// correctness dependency.
    pub(crate) fn commit_store(&self, pending: &PendingStore) -> bool {
        let path = self.entry_path(pending.schedule);
        let tmp = self.dir.join(format!(
            ".{:016x}.tmp.{}",
            pending.schedule,
            std::process::id()
        ));
        let write = || -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&pending.frame)?;
            // No fsync: a torn entry fails the frame checksum on read and
            // is counted stale — strictly a performance event.
            drop(f);
            fs::rename(&tmp, &path)
        };
        if write().is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        true
    }

    /// Count of valid-looking entry files currently in the keyspace
    /// (test/diagnostic aid; does not validate contents).
    pub fn entries(&self) -> io::Result<usize> {
        match fs::read_dir(&self.dir) {
            Ok(rd) => Ok(rd
                .filter_map(Result::ok)
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.len() == 16 && !n.starts_with('.'))
                })
                .count()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn reject(&self, path: &Path) -> Option<AttemptReport> {
        self.stale.fetch_add(1, Ordering::Relaxed);
        if !self.readonly {
            let _ = fs::remove_file(path);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::EpochDecision;
    use crate::epoch::ToolRunStats;
    use crate::scheduler::RunResult;
    use dampi_mpi::program::RunOutcome;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dampi-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn schedule(n: usize) -> DecisionSet {
        let ds: Vec<EpochDecision> = (0..n)
            .map(|i| EpochDecision {
                rank: i,
                clock: 3 * i as u64 + 1,
                src: i + 1,
            })
            .collect();
        DecisionSet::guided(7, ds)
    }

    fn report() -> AttemptReport {
        AttemptReport {
            res: RunResult {
                outcome: RunOutcome {
                    rank_errors: Vec::new(),
                    leaks: dampi_mpi::LeakReport::default(),
                    fatal: None,
                    per_rank_vt: vec![1.25, 0.75],
                    wall_elapsed: std::time::Duration::ZERO,
                    makespan: 1.25,
                },
                epochs: Vec::new(),
                stats: ToolRunStats::default(),
            },
            attempt_makespans: vec![1.25, 0.5],
            divergences: 1,
            retries: 1,
        }
    }

    #[test]
    fn schedule_digest_is_order_independent_and_input_sensitive() {
        let a = DecisionSet::guided(
            2,
            vec![
                EpochDecision {
                    rank: 1,
                    clock: 5,
                    src: 0,
                },
                EpochDecision {
                    rank: 0,
                    clock: 3,
                    src: 2,
                },
            ],
        );
        let b = DecisionSet::guided(
            2,
            vec![
                EpochDecision {
                    rank: 0,
                    clock: 3,
                    src: 2,
                },
                EpochDecision {
                    rank: 1,
                    clock: 5,
                    src: 0,
                },
            ],
        );
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        let c = DecisionSet::guided(
            3,
            vec![EpochDecision {
                rank: 0,
                clock: 3,
                src: 2,
            }],
        );
        assert_ne!(schedule_digest(&a), schedule_digest(&c));
        assert_ne!(
            schedule_digest(&DecisionSet::self_run()),
            schedule_digest(&a)
        );
    }

    #[test]
    fn plan_digest_distinguishes_plans_and_versions() {
        assert_eq!(plan_digest(None), 0);
        let mut p = PrunePlan::default();
        p.infeasible.insert((1, 4, 2));
        let d1 = plan_digest(Some(&p));
        assert_ne!(d1, 0);
        let mut q = p.clone();
        q.infeasible.insert((0, 1, 1));
        assert_ne!(plan_digest(Some(&q)), d1);
        let mut v = p.clone();
        v.version += 1;
        assert_ne!(plan_digest(Some(&v)), d1, "plan version is part of the key");
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let root = tmpdir("roundtrip");
        let c = ReplayCache::open(&root, 11, 22, false).unwrap();
        let ds = schedule(2);
        assert!(c.lookup(&ds).is_none());
        let rep = report();
        let pending = c.prepare(&ds, &rep).unwrap();
        assert!(c.commit_store(&pending));
        let got = c.lookup(&ds).expect("stored entry hits");
        assert_eq!(got.attempt_makespans, rep.attempt_makespans);
        assert_eq!(got.divergences, 1);
        assert_eq!(got.retries, 1);
        assert_eq!(got.res.outcome.makespan.to_bits(), 1.25f64.to_bits());
        assert_eq!(c.stale_count(), 0);
        assert_eq!(c.entries().unwrap(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn different_program_or_plan_digest_misses() {
        let root = tmpdir("keyspace");
        let c = ReplayCache::open(&root, 11, 22, false).unwrap();
        let ds = schedule(1);
        let pending = c.prepare(&ds, &report()).unwrap();
        assert!(c.commit_store(&pending));
        let other_program = ReplayCache::open(&root, 12, 22, false).unwrap();
        assert!(other_program.lookup(&ds).is_none());
        let other_plan = ReplayCache::open(&root, 11, 23, false).unwrap();
        assert!(other_plan.lookup(&ds).is_none());
        // Structural invalidation: no stale counts, the keyspaces simply
        // never intersect.
        assert_eq!(other_program.stale_count(), 0);
        assert_eq!(other_plan.stale_count(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_counts_stale_and_is_deleted() {
        let root = tmpdir("corrupt");
        let c = ReplayCache::open(&root, 1, 0, false).unwrap();
        let ds = schedule(3);
        let pending = c.prepare(&ds, &report()).unwrap();
        assert!(c.commit_store(&pending));
        let path = c.entry_path(schedule_digest(&ds));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(c.lookup(&ds).is_none(), "corrupt entry must miss");
        assert_eq!(c.stale_count(), 1);
        assert!(!path.exists(), "corrupt entry must be deleted");
        // The very next store repopulates it.
        assert!(c.commit_store(&c.prepare(&ds, &report()).unwrap()));
        assert!(c.lookup(&ds).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn schema_version_mismatch_counts_stale() {
        let root = tmpdir("version");
        let c = ReplayCache::open(&root, 1, 0, false).unwrap();
        let ds = schedule(1);
        assert!(c.commit_store(&c.prepare(&ds, &report()).unwrap()));
        let path = c.entry_path(schedule_digest(&ds));
        // Rewrite the entry with a bumped version and a valid checksum.
        let mut f = File::open(&path).unwrap();
        let payload = protocol::read_frame(&mut f).unwrap().unwrap();
        let mut v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
        *v.get_mut("version").unwrap() = serde_json::to_value(&(CACHE_SCHEMA_VERSION + 1));
        let mut out = Vec::new();
        protocol::write_frame(&mut out, v.to_string().as_bytes()).unwrap();
        fs::write(&path, &out).unwrap();
        assert!(c.lookup(&ds).is_none());
        assert_eq!(c.stale_count(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn readonly_serves_hits_but_never_writes() {
        let root = tmpdir("readonly");
        let rw = ReplayCache::open(&root, 5, 0, false).unwrap();
        let hot = schedule(1);
        assert!(rw.commit_store(&rw.prepare(&hot, &report()).unwrap()));
        let ro = ReplayCache::open(&root, 5, 0, true).unwrap();
        assert!(ro.readonly());
        assert!(ro.lookup(&hot).is_some(), "read-only still serves hits");
        let cold = schedule(4);
        assert!(
            ro.prepare(&cold, &report()).is_none(),
            "read-only never prepares a store"
        );
        // Corrupt the hot entry: read-only counts it stale but leaves it.
        let path = rw.entry_path(schedule_digest(&hot));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(ro.lookup(&hot).is_none());
        assert_eq!(ro.stale_count(), 1);
        assert!(path.exists(), "read-only must not delete");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn timeout_results_are_never_stored() {
        let root = tmpdir("timeout");
        let c = ReplayCache::open(&root, 5, 0, false).unwrap();
        let mut rep = report();
        rep.res.outcome.fatal = Some(dampi_mpi::MpiError::ReplayTimeout {
            detail: "wall budget".into(),
        });
        assert!(
            c.prepare(&schedule(1), &rep).is_none(),
            "watchdog kills reflect a budget, not the schedule"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
