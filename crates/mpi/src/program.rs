//! Program abstraction and run outcomes.

use std::future::Future;
use std::pin::Pin;

use crate::error::{MpiError, Result};
use crate::leak::LeakReport;
use crate::proc_api::Mpi;

/// What [`MpiProgram::run`] returns: one rank's program body as a boxed
/// future, polled by the run harness while the rank holds the turn.
pub type RankBody<'a> = Pin<Box<dyn Future<Output = Result<()>> + 'a>>;

/// An MPI program under verification: executed once per rank, against the
/// rank's own interposition stack. Must be `Sync` because every replay
/// worker shares one instance (like a compiled SPMD binary).
///
/// The body is a future because its blocking calls are: a program is an
/// `async fn` whose MPI calls `.await`, boxed once per rank.
pub trait MpiProgram: Send + Sync {
    /// Program body for one rank; `mpi.world_rank()` distinguishes roles.
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a>;

    /// Optional human-readable name used in reports.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// Adapter: any `Fn(&mut dyn Mpi) -> Result<()>` is a program. It cannot
/// `.await`, so it makes only the calls that never wait (`isend`, `irecv`,
/// `compute`, the queries); a closure that blocks is an
/// [`AsyncFnProgram`].
pub struct FnProgram<F>(pub F);

impl<F> MpiProgram for FnProgram<F>
where
    F: Fn(&mut dyn Mpi) -> Result<()> + Send + Sync,
{
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move { (self.0)(mpi) })
    }
}

/// Adapter: any `async` closure over `&mut dyn Mpi` is a program.
pub struct AsyncFnProgram<F>(pub F);

impl<F> MpiProgram for AsyncFnProgram<F>
where
    F: AsyncFn(&mut dyn Mpi) -> Result<()> + Send + Sync,
{
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin((self.0)(mpi))
    }
}

/// A per-rank error paired with its rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankError {
    /// World rank that failed.
    pub rank: usize,
    /// The failure.
    pub error: MpiError,
}

/// How often one run handed the turn on. Like virtual time, the count
/// repeats exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RuntimeCensus {
    /// Times a rank that blocked, finished or polled in vain handed the
    /// turn token on. (The one hand-off `Mpi::shadow_world` makes to the
    /// last rank at start-up is not a pass.)
    pub turn_passes: u64,
}

impl std::ops::AddAssign for RuntimeCensus {
    fn add_assign(&mut self, other: Self) {
        self.turn_passes += other.turn_passes;
    }
}

/// Everything a single execution of a program produced. Serializable so
/// shard workers can ship a replay's outcome to the supervisor verbatim.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunOutcome {
    /// Per-rank error, if the rank's program (or its finalize) failed.
    pub rank_errors: Vec<Option<MpiError>>,
    /// Resource-leak census at teardown.
    pub leaks: LeakReport,
    /// The first global failure (deadlock / abort / collective mismatch),
    /// if any.
    pub fatal: Option<MpiError>,
    /// Final virtual time of each rank.
    pub per_rank_vt: Vec<f64>,
    /// Wall-clock time the harness spent executing this run (world
    /// creation to the last rank's report). Unlike everything else here it is *not* deterministic —
    /// observability only, never part of verification semantics, and never
    /// serialized: a shipped, cached or journaled outcome reads back as zero,
    /// so its bytes are a function of the schedule alone.
    #[serde(skip)]
    pub wall_elapsed: std::time::Duration,
    /// Simulated makespan: max over ranks of final virtual time.
    pub makespan: f64,
    /// Turn passes of this run. Observability only, like `wall_elapsed`,
    /// and never serialized either.
    #[serde(skip)]
    pub census: RuntimeCensus,
}

impl RunOutcome {
    /// Root-cause program bugs: per-rank errors excluding the secondary
    /// `Aborted` teardown errors other ranks observe.
    #[must_use]
    pub fn program_bugs(&self) -> Vec<RankError> {
        let mut bugs: Vec<RankError> = self
            .rank_errors
            .iter()
            .enumerate()
            .filter_map(|(rank, e)| match e {
                // Aborted ranks are collateral of another rank's failure;
                // ReplayTimeout is the harness's own watchdog verdict.
                // Neither is a bug in the program under test.
                Some(err)
                    if !matches!(
                        err,
                        MpiError::Aborted { .. } | MpiError::ReplayTimeout { .. }
                    ) =>
                {
                    Some(RankError {
                        rank,
                        error: err.clone(),
                    })
                }
                _ => None,
            })
            .collect();
        // Every rank blocked in the same cycle reports the same deadlock
        // (or livelock): keep one representative *per distinct rank set*.
        // Two independent cycles (disjoint blocked sets) are two bugs, not
        // one.
        let mut seen_cycles: Vec<MpiError> = Vec::new();
        bugs.retain(|b| match &b.error {
            MpiError::Deadlock { .. } | MpiError::Livelock { .. } => {
                if seen_cycles.contains(&b.error) {
                    false
                } else {
                    seen_cycles.push(b.error.clone());
                    true
                }
            }
            _ => true,
        });
        bugs
    }

    /// True when the run deadlocked.
    #[must_use]
    pub fn deadlocked(&self) -> bool {
        matches!(self.fatal, Some(MpiError::Deadlock { .. }))
    }

    /// True when no rank failed (leaks may still exist).
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.fatal.is_none() && self.rank_errors.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(errors: Vec<Option<MpiError>>, fatal: Option<MpiError>) -> RunOutcome {
        RunOutcome {
            rank_errors: errors,
            leaks: LeakReport::default(),
            fatal,
            per_rank_vt: vec![0.0],
            wall_elapsed: std::time::Duration::ZERO,
            makespan: 0.0,
            census: RuntimeCensus::default(),
        }
    }

    #[test]
    fn clean_outcome_succeeds() {
        let o = outcome_with(vec![None, None], None);
        assert!(o.succeeded());
        assert!(o.program_bugs().is_empty());
        assert!(!o.deadlocked());
    }

    #[test]
    fn aborted_ranks_are_not_root_causes() {
        let o = outcome_with(
            vec![
                Some(MpiError::UserAssert {
                    message: "boom".into(),
                }),
                Some(MpiError::Aborted { by_rank: 0 }),
            ],
            Some(MpiError::Aborted { by_rank: 0 }),
        );
        let bugs = o.program_bugs();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].rank, 0);
        assert!(!o.succeeded());
    }

    #[test]
    fn duplicate_deadlocks_collapse() {
        let dl = MpiError::Deadlock {
            blocked_ranks: vec![0, 1],
        };
        let o = outcome_with(vec![Some(dl.clone()), Some(dl.clone())], Some(dl));
        assert!(o.deadlocked());
        assert_eq!(o.program_bugs().len(), 1);
    }

    #[test]
    fn distinct_deadlock_cycles_stay_separate() {
        // Ranks {0,1} block on each other while {2,3} block independently:
        // two cycles, two root causes — dedup must not collapse them.
        let ab = MpiError::Deadlock {
            blocked_ranks: vec![0, 1],
        };
        let cd = MpiError::Deadlock {
            blocked_ranks: vec![2, 3],
        };
        let o = outcome_with(
            vec![
                Some(ab.clone()),
                Some(ab.clone()),
                Some(cd.clone()),
                Some(cd),
            ],
            Some(ab),
        );
        let bugs = o.program_bugs();
        assert_eq!(bugs.len(), 2, "{bugs:?}");
        assert_eq!(bugs[0].rank, 0);
        assert_eq!(bugs[1].rank, 2);
    }

    #[test]
    fn deadlock_dedup_keeps_non_deadlock_bugs() {
        let dl = MpiError::Deadlock {
            blocked_ranks: vec![1, 2],
        };
        let o = outcome_with(
            vec![
                Some(MpiError::UserAssert {
                    message: "boom".into(),
                }),
                Some(dl.clone()),
                Some(dl.clone()),
            ],
            Some(dl),
        );
        let bugs = o.program_bugs();
        assert_eq!(bugs.len(), 2, "{bugs:?}");
        assert!(matches!(bugs[0].error, MpiError::UserAssert { .. }));
        assert!(matches!(bugs[1].error, MpiError::Deadlock { .. }));
    }
}
