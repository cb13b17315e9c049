//! The Epoch Decisions file (paper §II-B, Algorithm 1).
//!
//! After a run, DAMPI's schedule generator emits a *decisions* artifact: a
//! `guided_epoch` clock value and, for every non-deterministic event whose
//! clock is within the guided prefix, the source to force. On replay, each
//! process runs `GUIDED_RUN` (rewriting `MPI_ANY_SOURCE` to the forced
//! source via `GetSrcFromEpoch`) until its clock passes `guided_epoch`,
//! then reverts to `SELF_RUN` so new non-deterministic possibilities are
//! discovered below the forced prefix.
//!
//! The set serializes to JSON so it can be written to and read from disk
//! exactly like the paper's on-disk decisions file.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;

use dampi_mpi::IdMap;
use serde::{Deserialize, Serialize};

/// One forced match: at (`rank`, `clock`), take the message from `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EpochDecision {
    /// World rank of the non-deterministic event.
    pub rank: usize,
    /// Scalar clock identifying the epoch on that rank.
    pub clock: u64,
    /// Comm-rank source to force.
    pub src: usize,
}

/// A full guided-replay prescription.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DecisionSet {
    /// Clock horizon: events with clock ≤ `guided_epoch` are forced, later
    /// ones run free.
    pub guided_epoch: u64,
    /// The forced matches, in schedule-generator order (the final entry is
    /// the freshly-forced alternate — the branch point).
    pub decisions: Vec<EpochDecision>,
    #[serde(skip)]
    index: IdMap<(usize, u64), usize>,
}

impl DecisionSet {
    /// Empty set: a pure `SELF_RUN`.
    #[must_use]
    pub fn self_run() -> Self {
        Self::default()
    }

    /// Build a guided set from decisions and the branch-point clock.
    #[must_use]
    pub fn guided(guided_epoch: u64, decisions: Vec<EpochDecision>) -> Self {
        let mut s = Self {
            guided_epoch,
            decisions,
            index: IdMap::default(),
        };
        s.rebuild_index();
        s
    }

    /// True when this set forces nothing (initial run).
    #[must_use]
    pub fn is_self_run(&self) -> bool {
        self.decisions.is_empty()
    }

    /// `GetSrcFromEpoch`: the source to force for (`rank`, `clock`), if
    /// prescribed.
    #[must_use]
    pub fn lookup(&self, rank: usize, clock: u64) -> Option<usize> {
        self.index
            .get(&(rank, clock))
            .map(|&i| self.decisions[i].src)
    }

    /// Content hash used by the scheduler to deduplicate visited prefixes.
    #[must_use]
    pub fn signature(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.guided_epoch.hash(&mut h);
        // Hash as a set: order-independent identity of the forced prefix.
        let mut sorted = self.decisions.clone();
        sorted.sort_unstable_by_key(|d| (d.rank, d.clock, d.src));
        sorted.hash(&mut h);
        h.finish()
    }

    /// Write the decisions file (JSON) — `ExistSchedulerDecisionFile` side.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Read a decisions file back (`importEpochDecision`).
    pub fn load(path: &Path) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let mut s: Self = serde_json::from_str(&json).map_err(io::Error::other)?;
        s.rebuild_index();
        Ok(s)
    }

    /// Rebuild the lookup index after deserialization (the index is
    /// `#[serde(skip)]`; any `DecisionSet` coming off disk needs this
    /// before `lookup` works).
    pub(crate) fn rebuild_index(&mut self) {
        self.index = self
            .decisions
            .iter()
            .enumerate()
            .map(|(i, d)| ((d.rank, d.clock), i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecisionSet {
        DecisionSet::guided(
            7,
            vec![
                EpochDecision {
                    rank: 1,
                    clock: 3,
                    src: 0,
                },
                EpochDecision {
                    rank: 2,
                    clock: 7,
                    src: 3,
                },
            ],
        )
    }

    #[test]
    fn self_run_is_empty() {
        let s = DecisionSet::self_run();
        assert!(s.is_self_run());
        assert_eq!(s.lookup(0, 0), None);
    }

    #[test]
    fn lookup_finds_decisions() {
        let s = sample();
        assert!(!s.is_self_run());
        assert_eq!(s.lookup(1, 3), Some(0));
        assert_eq!(s.lookup(2, 7), Some(3));
        assert_eq!(s.lookup(1, 7), None);
    }

    #[test]
    fn signature_is_order_independent() {
        let a = sample();
        let mut decisions = a.decisions.clone();
        decisions.reverse();
        let b = DecisionSet::guided(7, decisions);
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signature_distinguishes_content() {
        let a = sample();
        let mut other = a.decisions.clone();
        other[0].src = 2;
        let b = DecisionSet::guided(7, other);
        assert_ne!(a.signature(), b.signature());
        let c = DecisionSet::guided(8, a.decisions.clone());
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dampi-decisions-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch_decisions.json");
        let s = sample();
        s.save(&path).unwrap();
        let loaded = DecisionSet::load(&path).unwrap();
        assert_eq!(loaded.guided_epoch, 7);
        assert_eq!(loaded.lookup(2, 7), Some(3));
        assert_eq!(loaded.signature(), s.signature());
        std::fs::remove_file(&path).ok();
    }
}
