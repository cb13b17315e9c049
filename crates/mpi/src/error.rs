//! Error type shared by the runtime, tools, and verifier drivers.

use std::fmt;

/// Result alias for MPI simulator operations.
pub type Result<T> = std::result::Result<T, MpiError>;

/// Errors produced by the simulated MPI runtime or by verified programs.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MpiError {
    /// Every live rank is blocked inside the runtime with no possible
    /// progress — a real deadlock of the verified program.
    Deadlock {
        /// World ranks that were blocked when the deadlock was declared.
        blocked_ranks: Vec<usize>,
    },
    /// Every live rank is blocked or polling in vain, and no rank has
    /// changed shared state for [`crate::runtime::SPIN_YIELDS`] of the
    /// pollers' turns — a poll loop waiting for something no rank will
    /// ever do.
    Livelock {
        /// World ranks that were polling when the livelock was declared.
        polling_ranks: Vec<usize>,
    },
    /// Another rank aborted (program error or panic), tearing down the job —
    /// the simulator analog of `MPI_Abort`.
    Aborted {
        /// The rank whose failure initiated the teardown.
        by_rank: usize,
    },
    /// A rank referenced a peer outside the communicator's group.
    InvalidRank {
        /// The offending rank argument.
        rank: i32,
        /// Size of the communicator it was used with.
        comm_size: usize,
    },
    /// An operation referenced a freed or unknown communicator.
    InvalidComm,
    /// An operation referenced an unknown or already-consumed request.
    InvalidRequest,
    /// Two ranks called different collectives (or different roots/ops) on
    /// the same communicator concurrently — erroneous per the MPI standard.
    CollectiveMismatch {
        /// Description of the two conflicting calls.
        detail: String,
    },
    /// A program-level assertion failed (the verified application detected
    /// its own bug, e.g. the paper's Fig. 3 `if (x==33) error`).
    UserAssert {
        /// The application's message.
        message: String,
    },
    /// A rank panicked; the panic payload is captured as text.
    Panicked {
        /// Panic payload rendered to a string.
        message: String,
    },
    /// Tool-layer protocol violation (e.g. a piggyback message missing).
    ToolProtocol {
        /// Description of the violation.
        detail: String,
    },
    /// The verifier hit a configured exploration limit (not a program bug).
    Budget {
        /// Which limit was exceeded.
        detail: String,
    },
    /// A replay watchdog killed the run: a per-replay wall-clock or
    /// virtual-time budget was exceeded (a hung or runaway interleaving,
    /// not a program bug — the schedule is recorded and skipped).
    ReplayTimeout {
        /// Which budget tripped, with the limit and observed value.
        detail: String,
    },
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Deadlock { blocked_ranks } => {
                write!(f, "deadlock: all live ranks blocked {blocked_ranks:?}")
            }
            MpiError::Livelock { polling_ranks } => {
                write!(
                    f,
                    "livelock: ranks {polling_ranks:?} poll for what no rank sends"
                )
            }
            MpiError::Aborted { by_rank } => write!(f, "job aborted by rank {by_rank}"),
            MpiError::InvalidRank { rank, comm_size } => {
                write!(
                    f,
                    "invalid rank {rank} for communicator of size {comm_size}"
                )
            }
            MpiError::InvalidComm => write!(f, "invalid or freed communicator"),
            MpiError::InvalidRequest => write!(f, "invalid or consumed request"),
            MpiError::CollectiveMismatch { detail } => {
                write!(f, "collective call mismatch: {detail}")
            }
            MpiError::UserAssert { message } => write!(f, "application assertion: {message}"),
            MpiError::Panicked { message } => write!(f, "rank panicked: {message}"),
            MpiError::ToolProtocol { detail } => write!(f, "tool protocol violation: {detail}"),
            MpiError::Budget { detail } => write!(f, "exploration budget exceeded: {detail}"),
            MpiError::ReplayTimeout { detail } => {
                write!(f, "replay watchdog fired: {detail}")
            }
        }
    }
}

impl std::error::Error for MpiError {}

impl MpiError {
    /// True for errors that represent *bugs in the verified program* (the
    /// things a verifier reports), as opposed to tool/budget conditions.
    #[must_use]
    pub fn is_program_bug(&self) -> bool {
        matches!(
            self,
            MpiError::Deadlock { .. }
                | MpiError::Livelock { .. }
                | MpiError::UserAssert { .. }
                | MpiError::Panicked { .. }
                | MpiError::CollectiveMismatch { .. }
                | MpiError::InvalidRank { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MpiError::Deadlock {
            blocked_ranks: vec![0, 1],
        };
        assert!(e.to_string().contains("deadlock"));
        let e = MpiError::UserAssert {
            message: "x==33".into(),
        };
        assert!(e.to_string().contains("x==33"));
    }

    #[test]
    fn bug_classification() {
        assert!(MpiError::Deadlock {
            blocked_ranks: vec![]
        }
        .is_program_bug());
        assert!(MpiError::UserAssert {
            message: String::new()
        }
        .is_program_bug());
        assert!(!MpiError::Budget {
            detail: String::new()
        }
        .is_program_bug());
        assert!(!MpiError::ReplayTimeout {
            detail: String::new()
        }
        .is_program_bug());
        assert!(!MpiError::Aborted { by_rank: 0 }.is_program_bug());
    }
}
