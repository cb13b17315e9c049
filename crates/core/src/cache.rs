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
//! On disk a keyspace is one directory, `<root>/<program>-<plan>`, holding
//! one file, `entries`: an append-only [`crate::frame`] log with one frame
//! per stored result. A frame's payload is the 8-byte schedule digest
//! followed by the entry's JSON — a [`crate::journal`] record is the same
//! entry plus the commit's source. [`ReplayCache::open`] reads the log
//! once, through a fixed-size buffer, checking every frame, and keeps only
//! where each schedule's latest frame sits — `schedule → (offset, len)`,
//! no entry bytes. From then on
//!
//! * a **miss** is a lookup in that index: no system call;
//! * a **hit** is one positional read of the frame, checked again in full —
//!   length word, checksum, schedule digest, schema version, program and
//!   plan digest — before anything in it is believed;
//! * a **store** is one `O_APPEND` `write` of the whole frame (and asking the
//!   file where it landed), then an index insert.
//!
//! Damage costs a replay, never correctness, and never more than it must:
//!
//! * a frame that is all there but fails its checksum, schema version or key
//!   is *stale*: counted once, dropped from the index, re-executed and
//!   appended afresh. The old bytes stay where they are, unreferenced, and a
//!   later open does not count a damaged frame whose schedule has an intact
//!   frame elsewhere in the log;
//! * bytes after the last whole frame are a *torn write*: counted stale
//!   once; every frame before them is served. A writable handle cuts them
//!   off just before its first append — and only if the file is still
//!   exactly as long as it was when this handle read it, since otherwise
//!   another handle has already done so; a read-only handle never writes,
//!   truncates or creates anything;
//! * a read that fails outright (`EIO`, `EMFILE`, …) says nothing about the
//!   entry: it is a miss for that commit and the entry stays.
//!
//! Handles on one keyspace, in one process or several, may append freely:
//! whole-frame `O_APPEND` writes never interleave. A handle does **not** see
//! frames appended by others after it opened; it re-executes those schedules
//! and appends its own copy, and on every later open the last intact frame
//! for a schedule wins.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::decisions::DecisionSet;
use crate::frame::{self, FRAME_HEADER_LEN, LOG_HEAD_LEN};
use crate::prune::PrunePlan;
use crate::scheduler::Source;
use crate::shard::protocol::SubtreeResult;

/// Version of the on-disk entry layout. Bump on any change to the entry
/// schema, to the digest derivations or to the keyspace layout; old entries
/// then read as stale and are re-populated, never misinterpreted. Version 1
/// kept one file per entry; those files are never read and can be deleted.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// The one file in a keyspace directory.
const LOG_NAME: &str = "entries";

/// One stored result under its full key, so that a hash collision, a
/// misfiled entry or another campaign's record is detected, not trusted.
/// Only a journal record says where its result came from.
#[derive(Debug, serde::Deserialize)]
pub(crate) struct Entry {
    version: u32,
    program: u64,
    plan: u64,
    schedule: u64,
    #[serde(default)]
    pub(crate) source: Option<Source>,
    pub(crate) result: SubtreeResult,
}

/// An [`Entry`] as written: the same keys in the same order, the result
/// borrowed from the commit, `source` left out when there is none.
struct EntryRef<'a> {
    key: Key,
    schedule: u64,
    source: Option<Source>,
    result: &'a SubtreeResult,
}

impl serde::Serialize for EntryRef<'_> {
    fn to_content(&self) -> serde::Content {
        let mut m = Vec::with_capacity(6);
        m.push(("version".to_owned(), self.key.version.to_content()));
        m.push(("program".to_owned(), self.key.program.to_content()));
        m.push(("plan".to_owned(), self.key.plan.to_content()));
        m.push(("schedule".to_owned(), self.schedule.to_content()));
        if let Some(source) = self.source {
            m.push(("source".to_owned(), source.to_content()));
        }
        m.push(("result".to_owned(), self.result.to_content()));
        serde::Content::Map(m)
    }
}

/// What every entry of one log is stored under: its format version, the
/// program's config digest and the prune plan's digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub(crate) version: u32,
    pub(crate) program: u64,
    pub(crate) plan: u64,
}

/// Why a frame's entry is not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// Not whole JSON, of another version, or another schedule's.
    Damaged,
    /// Another campaign's: the part of the key that differs.
    Foreign(&'static str),
}

impl Key {
    /// The frame holding `result` as `schedule`'s entry under this key.
    pub(crate) fn frame(
        self,
        schedule: u64,
        source: Option<Source>,
        result: &SubtreeResult,
    ) -> io::Result<Vec<u8>> {
        let entry = EntryRef {
            key: self,
            schedule,
            source,
            result,
        };
        let json = serde_json::to_string(&entry).map_err(io::Error::other)?;
        frame::head_frame(schedule, json.as_bytes())
    }

    /// The entry in a frame's payload, if every part of it says it is
    /// `schedule`'s under this key.
    pub(crate) fn decode(self, schedule: u64, payload: &[u8]) -> Result<Entry, Refused> {
        let json = payload.strip_prefix(&schedule.to_le_bytes()[..]);
        let json = json.and_then(|json| std::str::from_utf8(json).ok());
        match json.and_then(|json| serde_json::from_str::<Entry>(json).ok()) {
            Some(e) if e.version != self.version || e.schedule != schedule => Err(Refused::Damaged),
            Some(e) if e.program != self.program => Err(Refused::Foreign("config")),
            Some(e) if e.plan != self.plan => Err(Refused::Foreign("plan")),
            Some(e) => Ok(e),
            None => Err(Refused::Damaged),
        }
    }
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
    frame::checksum(&bytes)
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
            frame::checksum(json.as_bytes())
        }
    }
}

/// A miss's serialized entry, prepared *before* the commit consumes the
/// result and written *after* the commit succeeds — the store only ever
/// holds results the deterministic walk actually absorbed.
#[derive(Debug)]
pub(crate) struct PendingStore {
    schedule: u64,
    /// The whole frame, header included, as it will sit in the log.
    frame: Vec<u8>,
}

/// Where a schedule's frame sits in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placed {
    offset: u64,
    len: u32,
}

/// What a handle knows about its log beyond the file itself.
#[derive(Debug)]
struct LogState {
    index: HashMap<u64, Placed>,
    /// A torn tail met at open — where it starts, and how long the file was —
    /// still to be cut off before this handle's first append.
    torn: Option<(u64, u64)>,
    /// Cleared when an append fails: it may have left part of a frame behind,
    /// and frames appended after that would be out of every reader's reach.
    /// The next writable open cuts the tail off and carries on.
    appendable: bool,
}

/// The content-addressed replay-result store. One instance serves a whole
/// campaign, and only the exploration driver touches it: executors
/// (including shard workers) never see the disk, so the frame protocol is
/// unchanged.
#[derive(Debug)]
pub struct ReplayCache {
    key: Key,
    readonly: bool,
    /// The keyspace's log; `None` on a read-only handle whose keyspace
    /// nobody has written yet.
    log: Option<File>,
    state: Mutex<LogState>,
    /// Frames rejected for checksum/version/key reasons, torn tails included.
    stale: AtomicU64,
    /// How much of `stale` a campaign has already reported.
    stale_reported: AtomicU64,
}

impl ReplayCache {
    /// Open (and create, unless read-only) the keyspace for
    /// `(program, plan)` under `root`, and index its log. The digests
    /// partition the store: any program or plan change lands in a different
    /// directory, so invalidation is structural — stale keyspaces are never
    /// consulted, only orphaned.
    pub fn open(root: &Path, program: u64, plan: u64, readonly: bool) -> io::Result<Self> {
        let dir = root.join(format!("{program:016x}-{plan:016x}"));
        let path = dir.join(LOG_NAME);
        let log = if readonly {
            match File::open(&path) {
                Ok(f) => Some(f),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            }
        } else {
            fs::create_dir_all(&dir)?;
            Some(
                File::options()
                    .read(true)
                    .append(true)
                    .create(true)
                    .open(&path)?,
            )
        };
        let mut index = HashMap::new();
        // Schedules named by frames that failed their checksum. The name
        // decides only whether the frame is counted, so it need not be true.
        let mut damaged = Vec::new();
        let mut torn = None;
        if let Some(log) = &log {
            let frames_end = frame::scan_log(log, |f| {
                let schedule = u64::from_le_bytes(f.head);
                if f.intact && f.len as usize >= LOG_HEAD_LEN {
                    let placed = Placed {
                        offset: f.offset,
                        len: f.len,
                    };
                    index.insert(schedule, placed);
                } else {
                    damaged.push(schedule);
                }
            })?;
            let file_len = log.metadata()?.len();
            if file_len > frames_end {
                torn = Some((frames_end, file_len));
            }
        }
        // A damaged frame whose schedule has an intact frame somewhere in the
        // log costs nothing: it was replaced, or is a spoiled duplicate.
        damaged.retain(|schedule| !index.contains_key(schedule));
        let stale = damaged.len() as u64 + u64::from(torn.is_some());
        Ok(Self {
            key: Key {
                version: CACHE_SCHEMA_VERSION,
                program,
                plan,
            },
            readonly,
            log,
            state: Mutex::new(LogState {
                index,
                torn,
                appendable: !readonly,
            }),
            stale: AtomicU64::new(stale),
            stale_reported: AtomicU64::new(0),
        })
    }

    /// Whether this handle was opened read-only (hits served, misses not
    /// stored, nothing on disk touched).
    #[must_use]
    pub fn readonly(&self) -> bool {
        self.readonly
    }

    /// How many frames this handle has rejected so far (corrupt, torn, wrong
    /// schema version, or key mismatch), at open or on lookup.
    #[must_use]
    pub fn stale_count(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// The part of [`Self::stale_count`] no campaign has reported yet, which
    /// the caller now does: a handle can outlive one campaign (it is shared
    /// by `Arc`), and each reports what was found on its watch — the first
    /// one including what `open` found.
    pub(crate) fn take_unreported_stale(&self) -> u64 {
        let total = self.stale_count();
        total - self.stale_reported.swap(total, Ordering::Relaxed)
    }

    /// Look up the stored result for `decisions`. Anything short of a
    /// fully-valid entry is a miss; a frame that is there but invalid is
    /// additionally counted stale and forgotten, so one bad write costs one
    /// replay, once.
    pub(crate) fn lookup(&self, decisions: &DecisionSet) -> Option<SubtreeResult> {
        let schedule = schedule_digest(decisions);
        let log = self.log.as_ref()?;
        let placed = *self.state.lock().index.get(&schedule)?;
        // A read that fails outright says nothing about the entry: a miss
        // for this commit, and the entry stays.
        let payload = frame::read_frame_at(log, placed.offset, placed.len).ok()?;
        let entry = payload.and_then(|p| self.key.decode(schedule, &p).ok());
        if entry.is_none() {
            self.stale.fetch_add(1, Ordering::Relaxed);
            let mut state = self.state.lock();
            if state.index.get(&schedule) == Some(&placed) {
                state.index.remove(&schedule);
            }
        }
        entry.map(|e| e.result)
    }

    /// Serialize `rep` for storage under `decisions`' digest. Returns
    /// `None` when nothing should be stored: the cache is read-only, or
    /// the result is a watchdog kill (a `ReplayTimeout` reflects a budget,
    /// not the schedule's semantics — caching it would freeze partial
    /// coverage, so timed-out subtrees always re-execute).
    pub(crate) fn prepare(
        &self,
        decisions: &DecisionSet,
        rep: &SubtreeResult,
    ) -> Option<PendingStore> {
        if self.readonly || crate::scheduler::timeout_of(&rep.outcome).is_some() {
            return None;
        }
        let schedule = schedule_digest(decisions);
        Some(PendingStore {
            schedule,
            frame: self.key.frame(schedule, None, rep).ok()?,
        })
    }

    /// Append a prepared entry to the log. Called after the commit absorbed
    /// the result. Returns `true` on success; failures are swallowed — the
    /// cache is an accelerator, never a correctness dependency.
    pub(crate) fn commit_store(&self, pending: &PendingStore) -> bool {
        let Some(log) = &self.log else {
            return false;
        };
        // Held across the append: the file's cursor says where it landed.
        let mut state = self.state.lock();
        if !state.appendable {
            return false;
        }
        if let Some((frames_end, file_len)) = state.torn {
            let untouched = log.metadata().is_ok_and(|m| m.len() == file_len);
            if untouched && log.set_len(frames_end).is_err() {
                return false;
            }
            state.torn = None;
        }
        match frame::append_frame(log, &pending.frame) {
            Ok(offset) => {
                let len = (pending.frame.len() - FRAME_HEADER_LEN) as u32;
                state.index.insert(pending.schedule, Placed { offset, len });
                true
            }
            Err(_) => {
                state.appendable = false;
                false
            }
        }
    }

    /// Count of entries this handle can serve: the schedules indexed at open
    /// plus those stored since (test/diagnostic aid).
    pub fn entries(&self) -> io::Result<usize> {
        Ok(self.state.lock().index.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::EpochDecision;
    use crate::epoch::ToolRunStats;
    use dampi_mpi::program::RunOutcome;
    use std::path::PathBuf;

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

    fn report() -> SubtreeResult {
        SubtreeResult {
            outcome: RunOutcome {
                rank_errors: Vec::new(),
                leaks: dampi_mpi::LeakReport::default(),
                fatal: None,
                per_rank_vt: vec![1.25, 0.75],
                wall_elapsed: std::time::Duration::ZERO,
                makespan: 1.25,
                census: Default::default(),
            },
            epochs: Vec::new(),
            stats: ToolRunStats::default(),
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
        assert_eq!(got.outcome.makespan.to_bits(), 1.25f64.to_bits());
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

    /// The keyspace's log file, as bytes.
    fn log_path(root: &Path, program: u64, plan: u64) -> PathBuf {
        root.join(format!("{program:016x}-{plan:016x}"))
            .join(LOG_NAME)
    }

    fn store(c: &ReplayCache, ds: &DecisionSet) -> bool {
        c.commit_store(&c.prepare(ds, &report()).expect("storable"))
    }

    #[test]
    fn corrupt_frame_counts_stale_once_and_is_replaced() {
        let root = tmpdir("corrupt");
        let c = ReplayCache::open(&root, 1, 0, false).unwrap();
        let (first, victim, last) = (schedule(1), schedule(3), schedule(2));
        assert!(store(&c, &first) && store(&c, &victim) && store(&c, &last));
        // Flip one payload byte of the middle frame under the live handle.
        let path = log_path(&root, 1, 0);
        let mut bytes = fs::read(&path).unwrap();
        let at = c.state.lock().index[&schedule_digest(&victim)].offset as usize;
        bytes[at + FRAME_HEADER_LEN + 20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert!(c.lookup(&victim).is_none(), "corrupt frame must miss");
        assert!(c.lookup(&victim).is_none(), "and is forgotten, not re-read");
        assert_eq!(c.stale_count(), 1, "counted once");
        assert!(c.lookup(&first).is_some() && c.lookup(&last).is_some());
        // A fresh handle finds the same damage while indexing.
        let fresh = ReplayCache::open(&root, 1, 0, false).unwrap();
        assert_eq!((fresh.stale_count(), fresh.entries().unwrap()), (1, 2));
        assert!(fresh.lookup(&victim).is_none());
        assert_eq!(
            fresh.stale_count(),
            1,
            "a miss in the index is no second stale"
        );
        // The very next store repopulates it, for this handle and later ones;
        // the damaged frame stays in the log, replaced and no longer counted.
        assert!(store(&c, &victim));
        assert!(c.lookup(&victim).is_some());
        let later = ReplayCache::open(&root, 1, 0, true).unwrap();
        assert_eq!((later.stale_count(), later.entries().unwrap()), (0, 3));
        assert!(later.lookup(&victim).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    /// Append to the keyspace's log, behind every handle's back, a frame for
    /// `ds` that is intact but whose entry was edited by `edit`.
    fn append_edited(root: &Path, ds: &DecisionSet, edit: impl FnOnce(&mut serde_json::Value)) {
        let keyspace = ReplayCache::open(root, 1, 0, false).unwrap();
        let pending = keyspace.prepare(ds, &report()).unwrap();
        let payload = &pending.frame[FRAME_HEADER_LEN..];
        let json = std::str::from_utf8(&payload[LOG_HEAD_LEN..]).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(json).unwrap();
        edit(&mut v);
        let mut edited = payload[..LOG_HEAD_LEN].to_vec();
        edited.extend_from_slice(v.to_string().as_bytes());
        let mut bytes = fs::read(log_path(root, 1, 0)).unwrap();
        frame::write_frame(&mut bytes, &edited).unwrap();
        fs::write(log_path(root, 1, 0), &bytes).unwrap();
    }

    #[test]
    fn intact_frames_with_a_wrong_version_or_key_count_stale() {
        let bump = |field: &'static str| {
            move |v: &mut serde_json::Value| {
                let n = v[field].as_u64().unwrap();
                *v.get_mut(field).unwrap() = serde_json::to_value(&(n + 1));
            }
        };
        for field in ["version", "program", "plan", "schedule"] {
            let root = tmpdir(&format!("key-{field}"));
            let ds = schedule(1);
            append_edited(&root, &ds, bump(field));
            let c = ReplayCache::open(&root, 1, 0, false).unwrap();
            assert_eq!(
                (c.stale_count(), c.entries().unwrap()),
                (0, 1),
                "{field}: the checksum holds, so indexing cannot tell"
            );
            assert!(c.lookup(&ds).is_none(), "{field}");
            assert_eq!((c.stale_count(), c.entries().unwrap()), (1, 0), "{field}");
            let _ = fs::remove_dir_all(&root);
        }
        // Unedited, the same route serves: the edits above are what failed.
        let root = tmpdir("key-none");
        append_edited(&root, &schedule(1), |_| {});
        let c = ReplayCache::open(&root, 1, 0, true).unwrap();
        assert!(c.lookup(&schedule(1)).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn entries_written_with_a_wall_clock_still_decode() {
        // Outcomes carried `wall_elapsed` until it stopped being serialized.
        // Fields are looked up by name, so those entries are still served.
        let root = tmpdir("wall-clock");
        append_edited(&root, &schedule(1), |v| {
            let outcome = v
                .get_mut("result")
                .and_then(|r| r.get_mut("outcome"))
                .and_then(serde_json::Value::as_object_mut)
                .expect("an outcome object");
            let wall = serde_json::json!({"secs": 0, "nanos": 17_000});
            outcome.insert("wall_elapsed".to_owned(), wall);
        });
        let c = ReplayCache::open(&root, 1, 0, true).unwrap();
        let rep = c.lookup(&schedule(1)).expect("served");
        assert_eq!(rep.outcome.wall_elapsed, std::time::Duration::ZERO);
        assert_eq!(c.stale_count(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_torn_tail_at_any_length_loses_only_the_last_entry() {
        let root = tmpdir("torn");
        let c = ReplayCache::open(&root, 1, 0, false).unwrap();
        let (kept, torn, fresh) = (schedule(1), schedule(3), schedule(2));
        assert!(store(&c, &kept) && store(&c, &torn));
        let path = log_path(&root, 1, 0);
        let whole = fs::read(&path).unwrap();
        let last = c.state.lock().index[&schedule_digest(&torn)].offset as usize;
        drop(c);
        for cut in last..whole.len() {
            fs::write(&path, &whole[..cut]).unwrap();
            // Read-only: serves what is whole, counts the tail, writes nothing.
            let ro = ReplayCache::open(&root, 1, 0, true).unwrap();
            assert!(ro.lookup(&kept).is_some(), "cut at {cut}");
            assert!(ro.lookup(&torn).is_none(), "cut at {cut}");
            assert_eq!(ro.stale_count(), u64::from(cut > last), "cut at {cut}");
            assert!(ro.prepare(&fresh, &report()).is_none());
            assert_eq!(fs::read(&path).unwrap(), whole[..cut], "cut at {cut}");
            // Writable: the same, and opening alone still writes nothing.
            let rw = ReplayCache::open(&root, 1, 0, false).unwrap();
            assert!(rw.lookup(&kept).is_some(), "cut at {cut}");
            assert_eq!(rw.stale_count(), u64::from(cut > last), "cut at {cut}");
            assert_eq!(fs::read(&path).unwrap(), whole[..cut], "cut at {cut}");
            // Its first store cuts the tail off and lands where it began.
            assert!(store(&rw, &fresh), "cut at {cut}");
            assert_eq!(
                rw.state.lock().index[&schedule_digest(&fresh)].offset,
                last as u64,
                "cut at {cut}"
            );
            assert!(rw.lookup(&fresh).is_some(), "cut at {cut}");
            let reopened = ReplayCache::open(&root, 1, 0, true).unwrap();
            assert_eq!(
                (reopened.stale_count(), reopened.entries().unwrap()),
                (0, 2),
                "cut at {cut}"
            );
            assert!(reopened.lookup(&kept).is_some() && reopened.lookup(&fresh).is_some());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_torn_tail_another_handle_already_cut_is_not_cut_again() {
        let root = tmpdir("torn-twice");
        let c = ReplayCache::open(&root, 1, 0, false).unwrap();
        assert!(store(&c, &schedule(1)) && store(&c, &schedule(2)));
        let path = log_path(&root, 1, 0);
        let whole = fs::read(&path).unwrap();
        fs::write(&path, &whole[..whole.len() - 5]).unwrap();
        // Two handles both meet the torn tail.
        let a = ReplayCache::open(&root, 1, 0, false).unwrap();
        let b = ReplayCache::open(&root, 1, 0, false).unwrap();
        assert!(store(&a, &schedule(3)), "a cuts the tail and appends");
        assert!(store(&b, &schedule(4)), "b must not cut a's frame off");
        assert!(a.lookup(&schedule(3)).is_some());
        assert!(b.lookup(&schedule(4)).is_some());
        let c = ReplayCache::open(&root, 1, 0, true).unwrap();
        assert_eq!((c.stale_count(), c.entries().unwrap()), (0, 3));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicates_resolve_to_the_last_intact_frame_on_every_open() {
        let root = tmpdir("dups");
        let ds = schedule(2);
        let (a, b) = (
            ReplayCache::open(&root, 1, 0, false).unwrap(),
            ReplayCache::open(&root, 1, 0, false).unwrap(),
        );
        // Neither sees the other's frame, so both store the same schedule.
        assert!(store(&a, &ds) && b.lookup(&ds).is_none() && store(&b, &ds));
        let second = b.state.lock().index[&schedule_digest(&ds)];
        assert!(second.offset > 0);
        for _ in 0..3 {
            let c = ReplayCache::open(&root, 1, 0, true).unwrap();
            assert_eq!(c.entries().unwrap(), 1);
            assert_eq!(c.state.lock().index[&schedule_digest(&ds)], second);
        }
        // Damage the later copy: the earlier one is the last intact frame.
        let path = log_path(&root, 1, 0);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        for _ in 0..3 {
            let c = ReplayCache::open(&root, 1, 0, true).unwrap();
            assert_eq!((c.stale_count(), c.entries().unwrap()), (0, 1));
            assert_eq!(c.state.lock().index[&schedule_digest(&ds)].offset, 0);
            assert!(c.lookup(&ds).is_some());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn handles_appending_in_turn_are_all_served_by_a_later_one() {
        let root = tmpdir("alternate");
        let (a, b) = (
            ReplayCache::open(&root, 1, 0, false).unwrap(),
            ReplayCache::open(&root, 1, 0, false).unwrap(),
        );
        for i in 0..6 {
            assert!(store(if i % 2 == 0 { &a } else { &b }, &schedule(i)));
        }
        // Each serves what it stored (its offsets are the file's, not its own
        // idea of them) and has not seen the other's.
        for i in 0..6 {
            let (own, other) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
            assert!(own.lookup(&schedule(i)).is_some(), "{i}");
            assert!(other.lookup(&schedule(i)).is_none(), "{i}");
        }
        assert_eq!((a.stale_count(), b.stale_count()), (0, 0));
        let c = ReplayCache::open(&root, 1, 0, true).unwrap();
        assert_eq!((c.stale_count(), c.entries().unwrap()), (0, 6));
        assert!((0..6).all(|i| c.lookup(&schedule(i)).is_some()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failed_read_is_a_miss_that_keeps_the_entry() {
        let root = tmpdir("eio");
        let c = ReplayCache::open(&root, 1, 0, false).unwrap();
        let ds = schedule(1);
        assert!(store(&c, &ds));
        // Point the index past the end of the file: the read fails outright
        // (as `EIO` would) rather than returning bytes that fail a check.
        let digest = schedule_digest(&ds);
        let real = c.state.lock().index[&digest];
        c.state.lock().index.insert(
            digest,
            Placed {
                offset: 1 << 40,
                ..real
            },
        );
        assert!(c.lookup(&ds).is_none(), "a miss for this commit");
        assert_eq!(c.stale_count(), 0, "but nothing was found wrong");
        assert_eq!(c.entries().unwrap(), 1, "and the entry stays");
        c.state.lock().index.insert(digest, real);
        assert!(c.lookup(&ds).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn readonly_serves_hits_but_never_writes() {
        let root = tmpdir("readonly");
        let ro = ReplayCache::open(&root, 5, 0, true).unwrap();
        assert!(!root.join(format!("{:016x}-{:016x}", 5, 0)).exists());
        assert!(ro.lookup(&schedule(1)).is_none());
        let rw = ReplayCache::open(&root, 5, 0, false).unwrap();
        let hot = schedule(1);
        assert!(store(&rw, &hot));
        let ro = ReplayCache::open(&root, 5, 0, true).unwrap();
        assert!(ro.readonly());
        assert!(ro.lookup(&hot).is_some(), "read-only still serves hits");
        let cold = schedule(4);
        assert!(
            ro.prepare(&cold, &report()).is_none(),
            "read-only never prepares a store"
        );
        // Corrupt the hot entry: read-only counts it stale but leaves it.
        let path = log_path(&root, 5, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[FRAME_HEADER_LEN] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(ro.lookup(&hot).is_none());
        assert_eq!(ro.stale_count(), 1);
        assert_eq!(fs::read(&path).unwrap(), bytes, "read-only must not write");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn timeout_results_are_never_stored() {
        let root = tmpdir("timeout");
        let c = ReplayCache::open(&root, 5, 0, false).unwrap();
        let mut rep = report();
        rep.outcome.fatal = Some(dampi_mpi::MpiError::ReplayTimeout {
            detail: "wall budget".into(),
        });
        assert!(
            c.prepare(&schedule(1), &rep).is_none(),
            "watchdog kills reflect a budget, not the schedule"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
