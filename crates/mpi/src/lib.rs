//! An MPI runtime **simulator** and PnMPI-style interposition substrate.
//!
//! The DAMPI paper runs on real MPI (MVAPICH2 on an InfiniBand cluster) and
//! interposes on the profiling interface (PMPI) via PnMPI. Rust has no
//! production MPI interposition story, so this crate provides the closest
//! synthetic equivalent that exercises the same code paths:
//!
//! * **Ranks are OS threads** (reused from run to run, see [`pool`])
//!   executing real Rust programs against the
//!   [`Mpi`] trait — the program-facing MPI-2-era API (point-to-point with
//!   wildcard receives and probes, requests, blocking collectives,
//!   communicator management).
//! * **Message matching** follows the MPI standard: per-communicator
//!   unexpected/posted queues, tag matching, `ANY_SOURCE`/`ANY_TAG`
//!   wildcards, and the non-overtaking rule (messages between the same pair
//!   on the same communicator and tag match in order). The wildcard match
//!   *policy* is configurable to model the runtime bias the paper's
//!   introduction discusses (a native MPI library tends to pick the same
//!   match every run, masking Heisenbugs).
//! * **Tool layering** mirrors PnMPI: a tool is a [`Mpi`] implementation
//!   wrapping an inner [`Mpi`]; the bottom of the stack is [`Pmpi`], the
//!   runtime itself (the `PMPI_*` level).
//! * **Virtual time** ([`vtime`]): a LogP-style cost model tracks per-rank
//!   simulated time so verification overheads can be compared in *simulated
//!   seconds* without a 1024-node cluster. This is what regenerates the
//!   shape of the paper's Fig. 5/6 and Table II.
//! * **Error detection substrate**: deadlock detection (all live ranks
//!   blocked inside the runtime), communicator leaks and request leaks at
//!   finalize, collective-call mismatches, and rank aborts.

// `pool` erases one lifetime to lend a caller's borrows to threads that
// outlive the call; it is the only module allowed to contain `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod comm;
pub mod envelope;
pub mod error;
pub mod fault;
pub mod interpose;
pub mod leak;
pub mod matching;
#[allow(unsafe_code)]
pub mod pool;
pub mod proc_api;
pub mod program;
pub mod request;
pub mod runtime;
pub mod stats;
pub mod trace;
pub mod types;
pub mod vtime;

pub use collective::{CollOutcome, CollSig, Contribution, ReduceOp};
pub use comm::Comm;
pub use envelope::Envelope;
pub use error::{MpiError, Result};
pub use fault::{FaultAction, FaultLayer, FaultPlan, FaultRule};
pub use interpose::{LayerFactory, PassthroughLayer};
pub use leak::LeakReport;
pub use matching::MatchPolicy;
pub use proc_api::{Completed, Completion, Mpi, Pmpi, Status};
pub use program::{FnProgram, MpiProgram, RankError, RunOutcome, RuntimeCensus};
pub use request::Request;
pub use runtime::{run_native, run_with_layers, ReplayBudget, SimConfig, World};
pub use stats::{OpClass, OpStats};
pub use types::{fnv1a64, fnv1a64_extend, Tag, ANY_SOURCE, ANY_TAG, FNV1A64_EMPTY};
pub use vtime::VTimeParams;
