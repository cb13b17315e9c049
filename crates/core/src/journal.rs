//! The exploration journal: a campaign's commit log.
//!
//! A long exploration (hours of replays on the paper's larger benchmarks)
//! must survive the driver being killed — a preempted batch job, an OOM'd
//! login node, a ^C. A `GUIDED_RUN` is a function of its decision prefix,
//! and the walk ([`crate::scheduler`]) is a function of the results it
//! commits, in the order it commits them. So the journal keeps those results
//! and nothing else: a [`crate::frame`] log with one frame per commit,
//! appended with one `write` and made durable with one `fdatasync` before
//! the walk commits the next. A frame's payload is the commit's 8-byte
//! [`schedule_digest`], as in the replay cache's log, followed by the JSON
//! record `{version, source, result}`: where the result came from (a cache
//! hit, an execution, a quarantine) and the [`SubtreeResult`] itself — the
//! payload shard results and cache entries carry.
//!
//! `dampi-cli verify --resume <journal>` starts the campaign over and serves
//! it from the log: at each commit turn the top of the frontier is answered
//! by the next record, if that record is the top's schedule. The walk
//! re-derives its frontier, visited set, coverage and every counter itself,
//! exactly as the uninterrupted campaign derived them, so a resumed campaign
//! finishes with the same report. The first record that names another
//! schedule ends serving: the walk goes on live, and the log is cut at that
//! record. Records are keyed by schedule alone, not by program: resuming
//! another program's journal is not detected (nor was it before).
//!
//! Damage costs replays, never correctness, as in [`crate::cache`]: the
//! records end at a torn tail or at the first damaged frame, and what would
//! have followed re-executes. Only the first frame is held to more: a
//! non-empty file whose first frame is not a journal record of this version
//! is refused, so an old snapshot journal, a cache log or garbage is an
//! error, never a silent restart.

use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::cache::schedule_digest;
use crate::decisions::DecisionSet;
use crate::executor::AttemptReport;
use crate::frame::{self, LogFrame, FRAME_HEADER_LEN, LOG_HEAD_LEN};
use crate::scheduler::Source;
use crate::shard::protocol::SubtreeResult;

/// Journal format version; bumped on incompatible record changes. Versions
/// 1 and 2 were whole-frontier snapshots; they are not read.
pub const JOURNAL_VERSION: u32 = 3;

/// One commit, as a frame of the log holds it after the schedule digest.
#[derive(Serialize, Deserialize)]
struct Record {
    version: u32,
    source: Source,
    result: SubtreeResult,
}

/// A journal opened to resume from: the records of its log, served in
/// commit order.
#[derive(Debug)]
pub struct ExplorationJournal {
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
    /// journal record of [`JOURNAL_VERSION`].
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
            log,
            records,
            served: 0,
        };
        let first = journal.records.first().and_then(|f| journal.read(f));
        if first.is_none() && journal.log.metadata()?.len() > 0 {
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

    /// The next record's result and source, if that record is the commit of
    /// `decisions` and reads back whole.
    pub(crate) fn serve(&mut self, decisions: &DecisionSet) -> Option<(AttemptReport, Source)> {
        let f = self.records.get(self.served)?;
        if f.head != schedule_digest(decisions).to_le_bytes() {
            return None;
        }
        let record = self.read(f)?;
        self.served += 1;
        Some((record.result.into(), record.source))
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

    /// The record in frame `f`, if it reads back whole and is of this
    /// version.
    fn read(&self, f: &LogFrame) -> Option<Record> {
        let payload = frame::read_frame_at(&self.log, f.offset, f.len).ok()??;
        let json = std::str::from_utf8(payload.strip_prefix(&f.head[..])?).ok()?;
        let record: Record = serde_json::from_str(json).ok()?;
        (record.version == JOURNAL_VERSION).then_some(record)
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
    let in_place = from.is_some_and(|j| j.is_at(path));
    if let (Some(j), false) = (from, in_place) {
        j.save(path)?;
    }
    let log = File::options().append(true).create(true).open(path)?;
    log.set_len(from.map_or(0, ExplorationJournal::end))?;
    if from.is_none() {
        sync_parent(path);
    }
    Ok(log)
}

/// Append one commit to `log` and make it durable: one `write`, one
/// `fdatasync`. A write that fails part-way leaves a torn frame, where a
/// later resume's records end.
pub(crate) fn append(
    mut log: &File,
    decisions: &DecisionSet,
    source: Source,
    rep: AttemptReport,
) -> io::Result<()> {
    let mut result = SubtreeResult::from(rep);
    // Ranks hand in their epoch logs in the order they finalize; the record
    // keeps them in the order the walk reads them, so that a frame is a
    // function of its schedule alone.
    result.epochs.sort_by_key(|e| (e.clock, e.rank));
    let record = Record {
        version: JOURNAL_VERSION,
        source,
        result,
    };
    let json = serde_json::to_string(&record).map_err(io::Error::other)?;
    let frame = frame::head_frame(schedule_digest(decisions), json.as_bytes())?;
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

    /// A fresh log at `path` holding the commits of `schedule(0..n)`.
    fn write_log(path: &Path, n: usize) -> Vec<u8> {
        let log = open_log(path, None).unwrap();
        for i in 0..n {
            append(
                &log,
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

    /// A record's JSON at format `version`.
    fn record_json(version: u32) -> String {
        let result = serde_json::to_string(&SubtreeResult::from(report(1.0))).unwrap();
        format!(r#"{{"version":{version},"source":"Executed","result":{result}}}"#)
    }

    #[test]
    fn appended_records_serve_back_in_commit_order() {
        let path = tmp("serve");
        write_log(&path, 3);
        let mut j = ExplorationJournal::load(&path).unwrap();
        assert_eq!(j.commits(), 3);
        assert!(j.serve(&schedule(1)).is_none(), "only the next record");
        for i in 0..3 {
            let (rep, source) = j.serve(&schedule(i)).expect("record");
            assert_eq!(source, Source::Executed);
            assert_eq!(
                rep.res.outcome.makespan.to_bits(),
                (i as f64 + 0.25).to_bits()
            );
        }
        assert!(j.serve(&schedule(3)).is_none(), "records exhausted");
        assert_eq!(j.unserved(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let path = tmp("bad-version");
        std::fs::write(&path, frame_of(0, &record_json(JOURNAL_VERSION + 1))).unwrap();
        assert!(ExplorationJournal::load(&path).is_err());
        std::fs::write(&path, frame_of(0, &record_json(JOURNAL_VERSION))).unwrap();
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
        bytes.extend(frame_of(1, &record_json(JOURNAL_VERSION + 1)));
        std::fs::write(&path, &bytes).unwrap();
        let mut j = ExplorationJournal::load(&path).unwrap();
        assert_eq!(j.commits(), 2, "the frame is whole and intact");
        assert!(j.serve(&schedule(0)).is_some());
        assert!(j.serve(&schedule(1)).is_none());
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
        assert!(j.serve(&schedule(0)).is_some());
        // The walk went elsewhere at the second commit.
        assert!(j.serve(&schedule(9)).is_none());
        assert_eq!(j.unserved(), second);
        log.set_len(j.unserved()).unwrap();
        append(&log, &schedule(9), Source::Hit, report(9.0)).unwrap();
        let mut j = ExplorationJournal::load(&path).unwrap();
        assert_eq!(j.commits(), 2);
        assert!(j.serve(&schedule(0)).is_some());
        let (_, source) = j.serve(&schedule(9)).expect("the new record");
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
        append(&log, &schedule(2), Source::Executed, report(2.0)).unwrap();
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
