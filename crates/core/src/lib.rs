//! **DAMPI** — the Distributed Analyzer for MPI: a scalable dynamic formal
//! verifier that guarantees coverage of the space of MPI non-determinism
//! (wildcard receives and probes), reproducing Vo et al., SC 2010.
//!
//! # How it works (paper §II)
//!
//! 1. **Interposition** — [`tool::DampiLayer`] wraps every MPI call of the
//!    target program (the PnMPI analog in `dampi-mpi`).
//! 2. **Decentralized match detection** — each rank keeps a logical clock
//!    ([`clock::AnyClock`]: Lamport by default, vector as the precise
//!    reference mode). Every message carries a **piggybacked** clock stamp
//!    ([`pb`]); each wildcard receive opens an **epoch**
//!    ([`epoch::EpochRecord`]). A message whose stamp is *not causally
//!    after* an epoch is **late** and its sender is recorded as a potential
//!    alternate match ([`late`]).
//! 3. **Replay** — after the free run, the schedule generator
//!    ([`scheduler`]) walks the recorded **Epoch Decisions**
//!    ([`decisions::DecisionSet`]) depth-first, forcing one unexplored
//!    alternate per replay (`GUIDED_RUN` up to `guided_epoch`, then back to
//!    `SELF_RUN`).
//! 4. **Search bounding** — [`bounds::MixingBound`] implements *bounded
//!    mixing* (overlapping exploration windows of height *k*), and
//!    `pcontrol`-bracketed regions implement *loop iteration abstraction*.
//! 5. **Error detection** — deadlocks and program assertions via the
//!    runtime, resource leaks at finalize, plus the §V unsafe-pattern
//!    monitor ([`monitor`]).
//!
//! The top-level driver is [`verifier::DampiVerifier`]:
//!
//! ```
//! use dampi_core::verifier::DampiVerifier;
//! use dampi_mpi::{FnProgram, MatchPolicy, SimConfig, Comm, ANY_SOURCE};
//! use bytes::Bytes;
//!
//! // Paper Fig. 3: the error only manifests if P2's send matches. The
//! // barrier (as in the paper's figure) guarantees both sends are visible
//! // to the wildcard, so the alternate-match analysis is deterministic.
//! let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
//!     match mpi.world_rank() {
//!         0 => {
//!             mpi.send(Comm::WORLD, 1, 22, Bytes::from_static(b"\x16"))?;
//!             mpi.barrier(Comm::WORLD)?;
//!         }
//!         2 => {
//!             mpi.send(Comm::WORLD, 1, 22, Bytes::from_static(b"\x21"))?;
//!             mpi.barrier(Comm::WORLD)?;
//!         }
//!         _ => {
//!             mpi.barrier(Comm::WORLD)?;
//!             let (_, x) = mpi.recv(Comm::WORLD, ANY_SOURCE, 22)?;
//!             dampi_mpi::proc_api::user_assert(x[0] != 0x21, "x == 33")?;
//!             let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 22)?; // drain
//!         }
//!     }
//!     Ok(())
//! });
//! // LowestRank matching keeps the SELF_RUN clean (P0's message wins), so
//! // the bug is provably found by *replay*, not by scheduling luck.
//! let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
//! let report = DampiVerifier::new(sim).verify(&prog);
//! assert!(report.interleavings >= 2);
//! assert!(!report.errors.is_empty(), "DAMPI must find the x==33 bug");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cache;
pub mod clock;
pub mod config;
pub mod decisions;
pub mod epoch;
mod executor;
pub mod frame;
pub mod journal;
pub mod late;
pub mod metrics;
pub mod minimize;
pub mod monitor;
pub mod pb;
pub mod prune;
pub mod report;
pub mod scheduler;
pub mod shard;
pub mod tool;
pub mod verifier;

pub use bounds::MixingBound;
pub use cache::{ReplayCache, CACHE_SCHEMA_VERSION};
pub use config::{DampiConfig, PiggybackMechanism, RetryBackoff};
pub use decisions::{DecisionSet, EpochDecision};
pub use epoch::{EpochRecord, NdKind};
pub use journal::ExplorationJournal;
pub use metrics::{CampaignMetrics, CampaignTrace, METRICS_SCHEMA_VERSION, TRACE_SCHEMA_VERSION};
pub use prune::PrunePlan;
pub use report::{FoundError, ReplayTimeoutRecord, VerificationReport};
pub use shard::ShardOptions;
pub use verifier::DampiVerifier;

pub use dampi_clocks::ClockMode;
