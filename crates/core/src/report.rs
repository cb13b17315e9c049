//! Verification reports.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dampi_clocks::ClockMode;
use dampi_mpi::{LeakReport, MpiError};
use serde::{Deserialize, Serialize};

use crate::bounds::MixingBound;
use crate::decisions::DecisionSet;
use crate::scheduler::Exploration;

/// A program bug found during exploration, with its reproduction recipe:
/// replaying `decisions` deterministically re-triggers the bug.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FoundError {
    /// 1-based interleaving number in which the bug first manifested.
    pub interleaving: u64,
    /// World rank that failed.
    pub rank: usize,
    /// The failure.
    pub error: MpiError,
    /// Epoch Decisions that force the failing schedule.
    pub decisions: DecisionSet,
}

/// A replay the watchdog killed ([`dampi_mpi::ReplayBudget`]): coverage of
/// that schedule is *partial* and the report says so instead of silently
/// skipping it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayTimeoutRecord {
    /// 1-based interleaving number of the killed replay.
    pub interleaving: u64,
    /// Which budget tripped, with the limit and observed value.
    pub detail: String,
    /// The decisions that were being forced when the watchdog fired.
    pub decisions: DecisionSet,
}

/// Everything a verification session produced.
#[derive(Debug)]
pub struct VerificationReport {
    /// Program name (from `MpiProgram::name`).
    pub program: String,
    /// World size.
    pub nprocs: usize,
    /// Clock algebra used.
    pub clock_mode: ClockMode,
    /// Bounded-mixing setting.
    pub bound: MixingBound,
    /// Interleavings executed (including the initial `SELF_RUN`).
    pub interleavings: u64,
    /// Distinct program bugs, each with a reproduction schedule.
    pub errors: Vec<FoundError>,
    /// Resource-leak census of the initial run (Table II C-leak/R-leak).
    pub leaks: LeakReport,
    /// Wildcard operations analyzed in the initial run (Table II R\*).
    pub wildcards_analyzed: u64,
    /// §V unsafe-pattern monitor alerts.
    pub unsafe_alerts: u64,
    /// Guided-replay divergences across all runs.
    pub divergences: u64,
    /// Replays re-executed after a divergence (bounded retry-with-backoff).
    pub retries: u64,
    /// Replays killed by the watchdog budget — schedules with only partial
    /// coverage. Quarantined subtrees (see
    /// [`VerificationReport::quarantined`]) are recorded here too, as
    /// synthetic timeouts.
    pub timeouts: Vec<ReplayTimeoutRecord>,
    /// Subtrees a shard supervisor quarantined after exhausting their
    /// dispatch attempts (repeated worker loss). Each one also appears in
    /// [`VerificationReport::timeouts`]; always zero for in-process runs.
    pub quarantined: u64,
    /// True when a sharded campaign was drained early (SIGTERM) and
    /// checkpointed instead of running to completion — the report covers
    /// only the committed prefix and the journal holds the rest.
    pub drained: bool,
    /// Piggyback messages generated in the initial run.
    pub pb_messages: u64,
    /// Simulated seconds of the initial (instrumented) run.
    pub first_run_makespan: f64,
    /// Simulated seconds summed over every interleaving — the cost of the
    /// whole exploration (paper Fig. 6's y-axis).
    pub total_virtual_time: f64,
    /// True when `max_interleavings` cut the walk short.
    pub budget_exhausted: bool,
    /// Frontier alternates dropped by the static prune plan
    /// (`--prune-static`); zero when pruning was off.
    pub alternates_pruned: u64,
    /// Committed epoch instances the static analysis proved deterministic
    /// (singleton feasible sender set).
    pub wildcards_deterministic: u64,
    /// Frontier alternates dropped only by the cross-epoch fixed-point
    /// refinement (plan v2); disjoint from `alternates_pruned`.
    pub refined_alternates_pruned: u64,
    /// Committed epoch instances deterministic only at the refinement
    /// fixed point; disjoint from `wildcards_deterministic`.
    pub refined_wildcards_deterministic: u64,
    /// Frontier alternates dropped because the protocol's local type
    /// forbids their sender (plan v3); disjoint from the other prune
    /// counters.
    pub protocol_alternates_pruned: u64,
    /// Committed epoch instances whose wildcard the protocol proved
    /// deterministic; disjoint from the other deterministic counters.
    pub protocol_wildcards_deterministic: u64,
    /// Per-epoch `(rank, clock)` union of every discovered match (matched
    /// source and alternates, over all runs) — the verifier's coverage.
    pub discovered: BTreeMap<(usize, u64), BTreeSet<usize>>,
}

impl VerificationReport {
    /// The report of a finished exploration: the one place a scheduler
    /// counter is threaded into the report (DAMPI and the ISP baseline both
    /// build theirs here).
    #[must_use]
    pub fn from_exploration(
        program: &str,
        nprocs: usize,
        clock_mode: ClockMode,
        bound: MixingBound,
        ex: Exploration,
    ) -> Self {
        Self {
            program: program.to_owned(),
            nprocs,
            clock_mode,
            bound,
            interleavings: ex.interleavings,
            errors: ex.errors,
            leaks: ex.first_run_leaks,
            wildcards_analyzed: ex.first_run_stats.wildcards,
            unsafe_alerts: ex.first_run_stats.unsafe_alerts,
            divergences: ex.divergences,
            retries: ex.retries,
            timeouts: ex.timeouts,
            quarantined: ex.quarantined,
            drained: ex.drained,
            pb_messages: ex.first_run_stats.pb_messages,
            first_run_makespan: ex.first_run_makespan,
            total_virtual_time: ex.total_virtual_time,
            budget_exhausted: ex.budget_exhausted,
            alternates_pruned: ex.alternates_pruned,
            wildcards_deterministic: ex.wildcards_deterministic,
            refined_alternates_pruned: ex.refined_alternates_pruned,
            refined_wildcards_deterministic: ex.refined_wildcards_deterministic,
            protocol_alternates_pruned: ex.protocol_alternates_pruned,
            protocol_wildcards_deterministic: ex.protocol_wildcards_deterministic,
            discovered: ex.discovered,
        }
    }

    /// Number of deadlocks among the found errors.
    #[must_use]
    pub fn deadlocks(&self) -> usize {
        self.errors
            .iter()
            .filter(|e| matches!(e.error, MpiError::Deadlock { .. }))
            .count()
    }

    /// Number of application assertion failures among the found errors.
    #[must_use]
    pub fn assertion_failures(&self) -> usize {
        self.errors
            .iter()
            .filter(|e| matches!(e.error, MpiError::UserAssert { .. }))
            .count()
    }

    /// True when no bug was found and no resource leaked.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.errors.is_empty() && self.leaks.is_clean()
    }

    /// Total distinct match outcomes discovered across all epochs — the
    /// quantity vector clocks can strictly increase on cross-coupled
    /// patterns (§II-F).
    #[must_use]
    pub fn total_discovered_matches(&self) -> usize {
        self.discovered.values().map(BTreeSet::len).sum()
    }

    /// Canonical error-set signature for differential comparison between
    /// clock modes, piggyback mechanisms, and the ISP baseline.
    ///
    /// Each found error maps to a stable string that names the bug but not
    /// the schedule that reached it: deadlocks by their blocked-rank set,
    /// assertions by rank and message, collective mismatches and other
    /// errors by kind and rank. Interleaving indices and decision files
    /// are deliberately excluded — two searches that find the same bugs
    /// along different paths have equal signatures.
    #[must_use]
    pub fn error_signature(&self) -> BTreeSet<String> {
        self.errors
            .iter()
            .map(|e| match &e.error {
                // Deliberately rank-free: the *secondary* blocked set (ranks
                // stuck behind the starved one in collectives) depends on how
                // far each rank ran before detection, which differs between
                // the centralized ISP scheduler and DAMPI's decentralized one.
                MpiError::Deadlock { .. } => "deadlock".to_owned(),
                MpiError::UserAssert { message } => {
                    format!("assert:rank{}:{message}", e.rank)
                }
                MpiError::CollectiveMismatch { .. } => {
                    format!("collective-mismatch:rank{}", e.rank)
                }
                other => format!("{}:rank{}", error_kind(other), e.rank),
            })
            .collect()
    }

    /// Machine-readable export of the report (CI integration, the CLI's
    /// `--json` mode). Epoch keys are rendered as `"rank:clock"` strings.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let errors: Vec<serde_json::Value> = self
            .errors
            .iter()
            .map(|e| {
                serde_json::json!({
                    "interleaving": e.interleaving,
                    "rank": e.rank,
                    "error": e.error,
                    "message": e.error.to_string(),
                    "decisions": e.decisions,
                })
            })
            .collect();
        let discovered: serde_json::Map<String, serde_json::Value> = self
            .discovered
            .iter()
            .map(|((rank, clock), srcs)| {
                (
                    format!("{rank}:{clock}"),
                    serde_json::json!(srcs.iter().collect::<Vec<_>>()),
                )
            })
            .collect();
        serde_json::json!({
            "program": self.program,
            "nprocs": self.nprocs,
            "clock_mode": self.clock_mode.name(),
            "bound": self.bound.label(),
            "interleavings": self.interleavings,
            "budget_exhausted": self.budget_exhausted,
            "errors": errors,
            "deadlocks": self.deadlocks(),
            "assertion_failures": self.assertion_failures(),
            "leaks": self.leaks,
            "wildcards_analyzed": self.wildcards_analyzed,
            "unsafe_alerts": self.unsafe_alerts,
            "divergences": self.divergences,
            "retries": self.retries,
            "timeouts": self
                .timeouts
                .iter()
                .map(|t| {
                    serde_json::json!({
                        "interleaving": t.interleaving,
                        "detail": t.detail,
                        "decisions": t.decisions,
                    })
                })
                .collect::<Vec<_>>(),
            "quarantined": self.quarantined,
            "drained": self.drained,
            "pb_messages": self.pb_messages,
            "alternates_pruned": self.alternates_pruned,
            "wildcards_deterministic": self.wildcards_deterministic,
            "refined_alternates_pruned": self.refined_alternates_pruned,
            "refined_wildcards_deterministic": self.refined_wildcards_deterministic,
            "protocol_alternates_pruned": self.protocol_alternates_pruned,
            "protocol_wildcards_deterministic": self.protocol_wildcards_deterministic,
            "first_run_makespan_s": self.first_run_makespan,
            "total_virtual_time_s": self.total_virtual_time,
            "discovered": discovered,
        })
    }
}

/// Stable kind name for the error-signature's catch-all arm.
fn error_kind(e: &MpiError) -> &'static str {
    match e {
        MpiError::Deadlock { .. } => "deadlock",
        MpiError::Aborted { .. } => "aborted",
        MpiError::InvalidRank { .. } => "invalid-rank",
        MpiError::InvalidComm => "invalid-comm",
        MpiError::InvalidRequest => "invalid-request",
        MpiError::CollectiveMismatch { .. } => "collective-mismatch",
        MpiError::UserAssert { .. } => "assert",
        MpiError::Panicked { .. } => "panicked",
        MpiError::ToolProtocol { .. } => "tool-protocol",
        MpiError::Budget { .. } => "budget",
        MpiError::ReplayTimeout { .. } => "replay-timeout",
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DAMPI verification of `{}` ({} procs, {} clocks, {})",
            self.program,
            self.nprocs,
            self.clock_mode.name(),
            self.bound.label()
        )?;
        writeln!(
            f,
            "  interleavings: {}{}",
            self.interleavings,
            if self.budget_exhausted {
                " (budget exhausted)"
            } else {
                ""
            }
        )?;
        writeln!(f, "  wildcards analyzed (R*): {}", self.wildcards_analyzed)?;
        if self.alternates_pruned > 0 || self.wildcards_deterministic > 0 {
            writeln!(
                f,
                "  static pruning: {} alternate(s) dropped, {} deterministic wildcard instance(s)",
                self.alternates_pruned, self.wildcards_deterministic
            )?;
        }
        if self.refined_alternates_pruned > 0 || self.refined_wildcards_deterministic > 0 {
            writeln!(
                f,
                "  fixed-point refinement: {} additional alternate(s) dropped, {} additional deterministic wildcard instance(s)",
                self.refined_alternates_pruned, self.refined_wildcards_deterministic
            )?;
        }
        if self.protocol_alternates_pruned > 0 || self.protocol_wildcards_deterministic > 0 {
            writeln!(
                f,
                "  protocol conformance: {} alternate(s) dropped, {} protocol-deterministic wildcard instance(s)",
                self.protocol_alternates_pruned, self.protocol_wildcards_deterministic
            )?;
        }
        writeln!(
            f,
            "  C-leak: {}   R-leak: {}",
            if self.leaks.has_comm_leak() {
                "Yes"
            } else {
                "No"
            },
            if self.leaks.has_request_leak() {
                "Yes"
            } else {
                "No"
            },
        )?;
        writeln!(
            f,
            "  virtual time: first run {:.6}s, exploration total {:.3}s",
            self.first_run_makespan, self.total_virtual_time
        )?;
        if self.retries > 0 || self.divergences > 0 {
            writeln!(
                f,
                "  divergences: {} (replays retried {} times)",
                self.divergences, self.retries
            )?;
        }
        if !self.timeouts.is_empty() {
            writeln!(
                f,
                "  WARNING: {} replay(s) killed by the watchdog — coverage of those schedules is partial:",
                self.timeouts.len()
            )?;
            for t in &self.timeouts {
                writeln!(f, "    [interleaving {}] {}", t.interleaving, t.detail)?;
            }
        }
        if self.quarantined > 0 {
            writeln!(
                f,
                "  WARNING: {} subtree(s) quarantined after repeated worker loss — coverage of those schedules is partial",
                self.quarantined
            )?;
        }
        if self.drained {
            writeln!(
                f,
                "  NOTE: campaign drained early (SIGTERM) — the checkpoint journal holds the unexplored frontier"
            )?;
        }
        if self.unsafe_alerts > 0 {
            writeln!(
                f,
                "  WARNING: unsafe pattern (clock transmitted before Wait) seen {} times",
                self.unsafe_alerts
            )?;
        }
        if self.errors.is_empty() {
            writeln!(f, "  no errors found")?;
        } else {
            writeln!(f, "  errors ({}):", self.errors.len())?;
            for e in &self.errors {
                writeln!(
                    f,
                    "    [interleaving {}] rank {}: {}",
                    e.interleaving, e.rank, e.error
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> VerificationReport {
        VerificationReport {
            program: "demo".into(),
            nprocs: 4,
            clock_mode: ClockMode::Lamport,
            bound: MixingBound::Unbounded,
            interleavings: 7,
            errors: vec![
                FoundError {
                    interleaving: 3,
                    rank: 1,
                    error: MpiError::UserAssert {
                        message: "x==33".into(),
                    },
                    decisions: DecisionSet::self_run(),
                },
                FoundError {
                    interleaving: 5,
                    rank: 0,
                    error: MpiError::Deadlock {
                        blocked_ranks: vec![0, 1],
                    },
                    decisions: DecisionSet::self_run(),
                },
            ],
            leaks: LeakReport::default(),
            wildcards_analyzed: 12,
            unsafe_alerts: 1,
            divergences: 0,
            retries: 0,
            timeouts: vec![ReplayTimeoutRecord {
                interleaving: 6,
                detail: "wall-clock budget of 2s exceeded".into(),
                decisions: DecisionSet::self_run(),
            }],
            quarantined: 0,
            drained: false,
            pb_messages: 40,
            first_run_makespan: 0.001,
            total_virtual_time: 0.01,
            budget_exhausted: false,
            alternates_pruned: 0,
            wildcards_deterministic: 0,
            refined_alternates_pruned: 0,
            refined_wildcards_deterministic: 0,
            protocol_alternates_pruned: 0,
            protocol_wildcards_deterministic: 0,
            discovered: BTreeMap::new(),
        }
    }

    #[test]
    fn error_classification() {
        let r = report();
        assert_eq!(r.deadlocks(), 1);
        assert_eq!(r.assertion_failures(), 1);
        assert!(!r.clean());
    }

    #[test]
    fn display_mentions_key_facts() {
        let s = report().to_string();
        assert!(s.contains("interleavings: 7"));
        assert!(s.contains("R*"));
        assert!(s.contains("x==33"));
        assert!(s.contains("unsafe pattern"));
        assert!(s.contains("killed by the watchdog"));
    }

    #[test]
    fn json_export_roundtrips_key_fields() {
        let mut r = report();
        r.discovered.insert((1, 3), BTreeSet::from([0, 2]));
        let j = r.to_json();
        assert_eq!(j["interleavings"], 7);
        assert_eq!(j["assertion_failures"], 1);
        assert_eq!(j["deadlocks"], 1);
        assert_eq!(j["clock_mode"], "lamport");
        assert_eq!(j["discovered"]["1:3"], serde_json::json!([0, 2]));
        assert!(j["errors"][0]["message"]
            .as_str()
            .unwrap()
            .contains("x==33"));
        // Full document serializes.
        let text = serde_json::to_string(&j).unwrap();
        assert!(text.contains("wildcards_analyzed"));
    }

    #[test]
    fn shard_robustness_fields_surface_honestly() {
        let mut r = report();
        // Clean run: keys always present (byte parity with sharded runs),
        // but no warning noise.
        let j = r.to_json();
        assert_eq!(j["quarantined"], 0);
        assert_eq!(j["drained"], false);
        assert!(!r.to_string().contains("quarantined"));
        assert!(!r.to_string().contains("drained early"));
        // Chaos run: partial coverage must be called out.
        r.quarantined = 2;
        r.drained = true;
        let s = r.to_string();
        assert!(s.contains("2 subtree(s) quarantined"), "{s}");
        assert!(s.contains("drained early"), "{s}");
        assert_eq!(r.to_json()["quarantined"], 2);
        assert_eq!(r.to_json()["drained"], true);
    }

    #[test]
    fn clean_report_is_clean() {
        let mut r = report();
        r.errors.clear();
        r.unsafe_alerts = 0;
        assert!(r.clean());
        assert!(r.to_string().contains("no errors found"));
    }
}
