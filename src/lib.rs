//! **dampi** — facade crate re-exporting the whole DAMPI reproduction.
//!
//! This workspace reproduces *"A Scalable and Distributed Dynamic Formal
//! Verifier for MPI Programs"* (Vo et al., SC 2010): the DAMPI verifier, an
//! MPI runtime simulator as its substrate, the ISP centralized baseline,
//! and the paper's benchmark workloads.
//!
//! * [`mpi`] — the MPI runtime simulator and PnMPI-style interposition.
//! * [`clocks`] — Lamport and vector logical clocks.
//! * [`core`] — the verifier (epochs, piggybacks, replay, bounds), and the
//!   ISP centralized baseline as a second tool stack it replays under.
//! * [`analysis`] — static pre-replay analysis (match-set pruning, lints).
//! * [`workloads`] — matmul, ParMETIS-like, NAS-like, SpecMPI-like, ADLB.
//!
//! Quickstart: see `examples/quickstart.rs`, or:
//!
//! ```
//! use dampi::core::DampiVerifier;
//! use dampi::mpi::{AsyncFnProgram, SimConfig, Comm, ANY_SOURCE};
//!
//! let prog = AsyncFnProgram(async |mpi: &mut dyn dampi::mpi::Mpi| {
//!     if mpi.world_rank() == 0 {
//!         for _ in 1..mpi.world_size() {
//!             let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0).await?;
//!         }
//!     } else {
//!         let payload = dampi::mpi::envelope::codec::encode_u64(42);
//!         mpi.send(Comm::WORLD, 0, 0, payload).await?;
//!     }
//!     Ok(())
//! });
//! let report = DampiVerifier::new(SimConfig::new(3)).verify(&prog);
//! assert!(report.errors.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use dampi_analysis as analysis;
pub use dampi_clocks as clocks;
pub use dampi_core as core;
pub use dampi_fuzz as fuzz;
pub use dampi_mpi as mpi;
pub use dampi_workloads as workloads;
