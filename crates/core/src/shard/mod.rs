//! Process-sharded campaign execution with a fault-tolerant supervisor.
//!
//! The paper's verifier is *distributed*: exploration work is farmed out
//! to many MPI processes and merged centrally. This module is that layer
//! for the reproduction — the exploration driver (DESIGN.md, "Exploration
//! driver") hands frontier subtrees to `N` worker processes and commits
//! their results in depth-first order, so `--shards N` produces
//! **byte-identical** output to `--jobs 1`: same interleaving counts, same
//! error sets, same report JSON, same journal bytes.
//!
//! The pieces:
//!
//! * [`protocol`] — the length-prefixed, checksummed frame codec and the
//!   supervisor ↔ worker message set.
//! * [`worker`] — the dumb replay servant: one schedule in, one
//!   [`protocol::SubtreeResult`] out, heartbeats on the side, and the
//!   [`dampi_mpi::fault::WorkerFaultPlan`] chaos hooks.
//! * [`lease`] — the two failure detectors (beacon silence, wall-clock
//!   lease) as a pure, clock-free state machine.
//! * [`supervisor`] — the worker fleet as the driver's executor: dispatch,
//!   loss recovery with bounded redispatch, quarantine of poison subtrees,
//!   bounded worker restarts, and graceful drain.
//!
//! Workers never hold exploration state. That asymmetry is the entire
//! robustness story: any worker can die at any moment and the supervisor
//! loses only the wall-clock time of the replays that were in flight.

pub mod lease;
pub mod protocol;
pub mod supervisor;
pub mod worker;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use dampi_mpi::fault::WorkerFaultPlan;

use crate::config::RetryBackoff;

pub use lease::{LeaseConfig, SlotHealth, Verdict};
pub use protocol::{FromWorker, SubtreeResult, ToWorker, PROTOCOL_VERSION};
pub(crate) use supervisor::explore_sharded_from;
pub use supervisor::{
    InProcessLauncher, ProcessWorkerLauncher, SpawnedWorker, WorkerHandle, WorkerLauncher,
};
pub use worker::{run_worker, WorkerConfig};

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Worker slots (processes). `0` and `1` both mean one worker — the
    /// supervisor still runs, so fault tolerance applies even at width 1.
    pub shards: usize,
    /// Declare a worker lost after this much silence (no frame of any
    /// kind). Must comfortably exceed the worker heartbeat interval.
    pub heartbeat_timeout: Duration,
    /// Declare a worker wedged when a dispatched subtree outlives this
    /// wall-clock budget despite flowing heartbeats.
    pub lease: Duration,
    /// Dispatch attempts per subtree before it is quarantined and
    /// committed as an honest timeout record.
    pub max_attempts: u32,
    /// Worker respawns per slot before the slot is abandoned.
    pub max_restarts_per_slot: u32,
    /// Backoff schedule between a slot's respawn attempts (seeded by the
    /// slot index).
    pub respawn_backoff: RetryBackoff,
    /// Backoff schedule before a lost subtree is dispatched again (seeded
    /// by the subtree signature).
    pub redispatch_backoff: RetryBackoff,
    /// Chaos plan armed into one worker (tests and `--worker-fault`).
    pub fault: Option<WorkerFaultPlan>,
    /// Which slot receives [`ShardOptions::fault`] (its generation 0
    /// incarnation only, unless the plan is persistent).
    pub fault_slot: usize,
    /// Graceful-drain flag: when it turns true (the CLI wires SIGTERM to
    /// it), the campaign returns early with
    /// [`crate::scheduler::Exploration::drained`] set; its journal already
    /// holds every commit.
    pub drain: Option<Arc<AtomicBool>>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        Self {
            shards: 2,
            heartbeat_timeout: Duration::from_secs(2),
            lease: Duration::from_secs(30),
            max_attempts: 3,
            max_restarts_per_slot: 3,
            respawn_backoff: RetryBackoff {
                base: Duration::from_millis(25),
                cap: Duration::from_secs(1),
                jitter: 0.5,
            },
            redispatch_backoff: RetryBackoff::default(),
            fault: None,
            fault_slot: 0,
            drain: None,
        }
    }
}
