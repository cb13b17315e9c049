//! The exploration journal: a campaign's commit log.
//!
//! A long exploration (hours of replays on the paper's larger benchmarks)
//! must survive the driver being killed — a preempted batch job, an OOM'd
//! login node, a ^C. A `GUIDED_RUN` is a function of its decision prefix,
//! and the walk ([`crate::scheduler`]) is a function of the results it
//! commits, in the order it commits them. So the journal keeps those results
//! and nothing else: a [`crate::frame`] log with one frame per commit,
//! appended with one `write` and made durable with one `fdatasync` before
//! the walk commits the next. A frame is a [`crate::cache`] entry — the
//! commit's 8-byte [`schedule_digest`], its key and its [`SubtreeResult`] —
//! plus where the result came from: a cache hit, an execution or a
//! quarantine.
//!
//! `dampi-cli verify --resume <journal>` starts the campaign over and serves
//! it from the log: at each commit turn the top of the frontier is answered
//! by the next record, if that record is the top's schedule. The walk
//! re-derives its frontier, visited set, coverage and every counter itself,
//! exactly as the uninterrupted campaign derived them, so a resumed campaign
//! finishes with the same report. The first record that names another
//! schedule ends serving: the walk goes on live, and the log is cut at that
//! record. A `GUIDED_RUN` is a function of its prefix for one program, tool
//! and prune plan only: a journal whose first record has another config or
//! plan digest is refused, naming which, and a later one ends serving.
//!
//! Damage costs replays, never correctness, as in [`crate::cache`]: the
//! records end at a torn tail or at the first damaged frame, and what would
//! have followed re-executes. Only the first frame is held to more: a
//! non-empty file whose first frame is not a journal record of this version
//! is refused, so an old journal, a cache log or garbage is an error, never
//! a silent restart.

use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};

use crate::cache::{plan_digest, schedule_digest, Entry, Key, Refused};
use crate::decisions::DecisionSet;
use crate::executor::AttemptReport;
use crate::frame::{self, LogFrame, FRAME_HEADER_LEN, LOG_HEAD_LEN};
use crate::prune::PrunePlan;
use crate::scheduler::Source;
use crate::shard::protocol::SubtreeResult;

/// Journal format version; bumped on incompatible record changes. Versions
/// 1–3 (snapshots, then records keyed by schedule alone) are not read.
pub const JOURNAL_VERSION: u32 = 4;

/// The key of a campaign's journal records.
pub(crate) fn key(config_digest: u64, plan: Option<&PrunePlan>) -> Key {
    Key {
        version: JOURNAL_VERSION,
        program: config_digest,
        plan: plan_digest(plan),
    }
}

/// A journal opened to resume from: the records of its log, served in
/// commit order.
#[derive(Debug)]
pub struct ExplorationJournal {
    /// The file it was loaded from: a resumed campaign appends to it.
    pub(crate) path: PathBuf,
    log: File,
    /// Every whole, intact frame from the start of the log up to the first
    /// one that is not.
    records: Vec<LogFrame>,
    /// Records served so far.
    served: usize,
}

impl ExplorationJournal {
    /// Index the journal log at `path` with one checksum scan. Fails when
    /// the file is non-empty and its first frame is missing or is not a
    /// journal record of [`JOURNAL_VERSION`], of any campaign.
    pub fn load(path: &Path) -> io::Result<Self> {
        let log = File::open(path)?;
        let mut records = Vec::new();
        let mut whole = true;
        frame::scan_log(&log, |f| {
            whole &= f.intact && f.len as usize >= LOG_HEAD_LEN;
            if whole {
                records.push(f);
            }
        })?;
        let journal = Self {
            path: path.to_path_buf(),
            log,
            records,
            served: 0,
        };
        let damaged = |f| matches!(journal.entry(key(0, None), f), Err(Refused::Damaged));
        if journal.records.first().is_none_or(damaged) && journal.log.metadata()?.len() > 0 {
            return Err(io::Error::other(format!(
                "{} is not a version-{JOURNAL_VERSION} exploration journal",
                path.display()
            )));
        }
        Ok(journal)
    }

    /// Write the log's records — its frames up to a torn tail or a damaged
    /// frame — to `path`, and sync them and the directory entry.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut bytes = vec![0; usize::try_from(self.end()).map_err(io::Error::other)?];
        self.log.read_exact_at(&mut bytes, 0)?;
        let mut f = File::create(path)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        sync_parent(path);
        Ok(())
    }

    /// Commits the log holds.
    #[must_use]
    pub fn commits(&self) -> usize {
        self.records.len()
    }

    /// Refuse another campaign's journal, one whose first record is not
    /// under `key`: an [`io::ErrorKind::InvalidData`] naming what differs.
    pub(crate) fn check(&self, key: Key) -> io::Result<()> {
        match self.records.first().map(|f| self.entry(key, f)) {
            Some(Err(Refused::Foreign(part))) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} was written under another {part}", self.path.display()),
            )),
            _ => Ok(()),
        }
    }

    /// The next record's result and source, if that record is the commit of
    /// `ds` under `key` and reads back whole.
    pub(crate) fn serve(&mut self, key: Key, ds: &DecisionSet) -> Option<(AttemptReport, Source)> {
        let f = self.records.get(self.served)?;
        if f.head != schedule_digest(ds).to_le_bytes() {
            return None;
        }
        let entry = self.entry(key, f).ok()?;
        let source = entry.source?;
        self.served += 1;
        Some((entry.result.into(), source))
    }

    /// Where the log stops being this campaign's: the first record not
    /// served, or the end of the records.
    pub(crate) fn unserved(&self) -> u64 {
        self.records
            .get(self.served)
            .map_or_else(|| self.end(), |f| f.offset)
    }

    fn end(&self) -> u64 {
        self.records
            .last()
            .map_or(0, |f| f.offset + FRAME_HEADER_LEN as u64 + u64::from(f.len))
    }

    /// The entry in frame `f`, checked against `key` and the schedule
    /// digest the frame is headed by.
    fn entry(&self, key: Key, f: &LogFrame) -> Result<Entry, Refused> {
        let payload = frame::read_frame_at(&self.log, f.offset, f.len);
        let payload = payload.ok().flatten().ok_or(Refused::Damaged)?;
        key.decode(u64::from_le_bytes(f.head), &payload)
    }

    /// Whether `path` names the file this journal was loaded from.
    fn is_at(&self, path: &Path) -> bool {
        match (self.log.metadata(), std::fs::metadata(path)) {
            (Ok(a), Ok(b)) => (a.dev(), a.ino()) == (b.dev(), b.ino()),
            _ => false,
        }
    }
}

/// Open the log a campaign appends its commits to. A fresh campaign starts
/// it empty, replacing any file at `path`; a resumed one appends to the
/// file it was loaded from, its torn tail cut off, or to a copy of its
/// records when `path` names another file.
pub(crate) fn open_log(path: &Path, from: Option<&ExplorationJournal>) -> io::Result<File> {
    if let Some(j) = from.filter(|j| !j.is_at(path)) {
        j.save(path)?;
    }
    let log = File::options().append(true).create(true).open(path)?;
    log.set_len(from.map_or(0, ExplorationJournal::end))?;
    if from.is_none() {
        sync_parent(path);
    }
    Ok(log)
}

/// Append one commit to `log` under `key` and make it durable: one
/// `write`, one `fdatasync`. A write that fails part-way leaves a torn
/// frame, where a later resume's records end.
pub(crate) fn append(
    mut log: &File,
    key: Key,
    decisions: &DecisionSet,
    source: Source,
    rep: AttemptReport,
) -> io::Result<()> {
    let mut result = SubtreeResult::from(rep);
    // Ranks hand in their epoch logs in the order they finalize; the record
    // keeps them in the order the walk reads them, so that a frame is a
    // function of its schedule alone.
    result.epochs.sort_by_key(|e| (e.clock, e.rank));
    let frame = key.frame(schedule_digest(decisions), Some(source), result)?;
    log.write_all(&frame)?;
    log.sync_data()
}

/// Make a new file's directory entry durable. Best-effort: some filesystems
/// refuse a directory fsync, and the file's own bytes are synced regardless.
fn sync_parent(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::EpochDecision;
    use crate::epoch::ToolRunStats;
    use crate::scheduler::RunResult;
    use dampi_mpi::program::RunOutcome;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dampi-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}", std::process::id()))
    }

    fn schedule(i: usize) -> DecisionSet {
        DecisionSet::guided(
            i as u64,
            vec![EpochDecision {
                rank: 0,
                clock: i as u64,
                src: 1,
            }],
        )
    }

    fn report(makespan: f64) -> AttemptReport {
        AttemptReport::single(RunResult {
            outcome: RunOutcome {
                rank_errors: vec![None, None],
                leaks: dampi_mpi::LeakReport::default(),
                fatal: None,
                per_rank_vt: vec![makespan, 0.5],
                wall_elapsed: std::time::Duration::ZERO,
                makespan,
                census: Default::default(),
            },
            epochs: Vec::new(),
            stats: ToolRunStats::default(),
        })
    }

    /// The key the test logs are written under.
    const KEY: Key = Key {
        version: JOURNAL_VERSION,
        program: 7,
        plan: 0,
    };

    /// A fresh log at `path` holding the commits of `schedule(0..n)`.
    fn write_log(path: &Path, n: usize) -> Vec<u8> {
        let log = open_log(path, None).unwrap();
        for i in 0..n {
            append(
                &log,
                KEY,
                &schedule(i),
                Source::Executed,
                report(i as f64 + 0.25),
            )
            .unwrap();
        }
        std::fs::read(path).unwrap()
    }

    /// The frame of `schedule(i)`'s commit with the record `json`.
    fn frame_of(i: usize, json: &str) -> Vec<u8> {
        frame::head_frame(schedule_digest(&schedule(i)), json.as_bytes()).unwrap()
    }

    /// The frame of `schedule(i)`'s record at format `version`.
    fn record_frame(i: usize, version: u32) -> Vec<u8> {
        let (at, result) = (schedule_digest(&schedule(i)), report(1.0).into());
        let key = Key { version, ..KEY };
        key.frame(at, Some(Source::Executed), result).unwrap()
    }

    #[test]
    fn appended_records_serve_back_in_commit_order() {
        let path = tmp("serve");
        write_log(&path, 3);
        let mut j = ExplorationJournal::load(&path).unwrap();
        assert_eq!(j.commits(), 3);
        assert!(j.serve(KEY, &schedule(1)).is_none(), "only the next record");
        for i in 0..3 {
            let (rep, source) = j.serve(KEY, &schedule(i)).expect("record");
            assert_eq!(source, Source::Executed);
            assert_eq!(
                rep.res.outcome.makespan.to_bits(),
                (i as f64 + 0.25).to_bits()
            );
        }
        assert!(j.serve(KEY, &schedule(3)).is_none(), "records exhausted");
        assert_eq!(j.unserved(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let path = tmp("bad-version");
        std::fs::write(&path, record_frame(0, JOURNAL_VERSION + 1)).unwrap();
        assert!(ExplorationJournal::load(&path).is_err());
        std::fs::write(&path, record_frame(0, JOURNAL_VERSION)).unwrap();
        assert_eq!(ExplorationJournal::load(&path).unwrap().commits(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_in_file_is_rejected() {
        // Past the first frame a record of another version is not refused
        // at load: it ends serving, and the walk re-executes from there.
        let path = tmp("future-version");
        let mut bytes = write_log(&path, 1);
        let second = bytes.len() as u64;
        bytes.extend(record_frame(1, JOURNAL_VERSION + 1));
        std::fs::write(&path, &bytes).unwrap();
        let mut j = ExplorationJournal::load(&path).unwrap();
        assert_eq!(j.commits(), 2, "the frame is whole and intact");
        assert!(j.serve(KEY, &schedule(0)).is_some());
        assert!(j.serve(KEY, &schedule(1)).is_none());
        assert_eq!(j.unserved(), second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_snapshot_journals_and_cache_logs_are_refused() {
        let path = tmp("not-a-journal");
        // A version-2 snapshot journal was one pretty-printed JSON object.
        std::fs::write(&path, "{\n  \"version\": 2,\n  \"interleavings\": 5\n}").unwrap();
        assert!(ExplorationJournal::load(&path).is_err());
        // A cache log is frames keyed the same way, holding other records.
        let entry = r#"{"version":2,"program":1,"plan":0,"schedule":7,"result":{}}"#;
        std::fs::write(&path, frame_of(0, entry)).unwrap();
        assert!(ExplorationJournal::load(&path).is_err());
        // An empty log is a campaign killed before its first commit.
        std::fs::write(&path, b"").unwrap();
        assert_eq!(ExplorationJournal::load(&path).unwrap().commits(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_journal_is_detected_not_misparsed() {
        let path = tmp("truncated");
        let whole = write_log(&path, 2);
        let first_end = {
            let j = ExplorationJournal::load(&path).unwrap();
            j.records[1].offset as usize
        };
        for cut in 0..=whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let loaded = ExplorationJournal::load(&path);
            if cut > 0 && cut < first_end {
                assert!(loaded.is_err(), "cut inside the first frame at {cut}");
                continue;
            }
            let want = usize::from(cut >= first_end) + usize::from(cut == whole.len());
            assert_eq!(loaded.unwrap().commits(), want, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resuming_in_place_cuts_what_was_not_served() {
        let path = tmp("in-place");
        let whole = write_log(&path, 3);
        let second = ExplorationJournal::load(&path).unwrap().records[1].offset;
        // A torn tail after the third record, as a kill mid-append leaves.
        std::fs::write(&path, [&whole[..], &whole[..7]].concat()).unwrap();
        let mut j = ExplorationJournal::load(&path).unwrap();
        assert_eq!(j.commits(), 3);
        let log = open_log(&path, Some(&j)).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == whole,
            "the torn tail is cut"
        );
        assert!(j.serve(KEY, &schedule(0)).is_some());
        // The walk went elsewhere at the second commit.
        assert!(j.serve(KEY, &schedule(9)).is_none());
        assert_eq!(j.unserved(), second);
        log.set_len(j.unserved()).unwrap();
        append(&log, KEY, &schedule(9), Source::Hit, report(9.0)).unwrap();
        let mut j = ExplorationJournal::load(&path).unwrap();
        assert_eq!(j.commits(), 2);
        assert!(j.serve(KEY, &schedule(0)).is_some());
        let (_, source) = j.serve(KEY, &schedule(9)).expect("the new record");
        assert_eq!(source, Source::Hit);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), j.unserved());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_copies_the_records_and_resuming_elsewhere_leaves_the_source() {
        let (path, copy) = (tmp("source"), tmp("copy"));
        let whole = write_log(&path, 2);
        let torn = [&whole[..], &whole[..30]].concat();
        std::fs::write(&path, &torn).unwrap();
        let j = ExplorationJournal::load(&path).unwrap();
        j.save(&copy).unwrap();
        assert!(
            std::fs::read(&copy).unwrap() == whole,
            "the torn tail stays behind"
        );
        let log = open_log(&copy, Some(&j)).unwrap();
        append(&log, KEY, &schedule(2), Source::Executed, report(2.0)).unwrap();
        assert_eq!(ExplorationJournal::load(&copy).unwrap().commits(), 3);
        assert!(
            std::fs::read(&path).unwrap() == torn,
            "the source is untouched"
        );
        // A fresh campaign replaces whatever the path held.
        open_log(&copy, None).unwrap();
        assert_eq!(std::fs::metadata(&copy).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&copy).ok();
    }
}
