//! **ISP** — the centralized dynamic verifier baseline (paper §II-A), as a
//! tool stack [`crate::DampiVerifier`] replays under
//! ([`crate::config::ToolStack::Isp`]).
//!
//! ISP preceded DAMPI: it intercepts every MPI call and performs a
//! *synchronous transaction* with one central scheduler, which therefore
//! holds a complete global picture — match detection is exact (vector-clock
//! quality) and replay is driven centrally. The price is that every MPI
//! call in the entire job serializes through the scheduler, which is why
//! ISP's verification time explodes with scale (paper Fig. 5/6) while
//! DAMPI's stays near-native.
//!
//! * [`IspScheduler`] — the central scheduler: a serialized virtual clock
//!   (every transaction advances `max(sched, caller) + per_op`) plus
//!   centrally-maintained vector clocks, message logs, and epoch records.
//! * [`IspLayer`] — the interposition layer: each operation round trips
//!   through the scheduler (cost) and reports enough information for
//!   central match detection. Wildcard receives are forced from the same
//!   [`DecisionSet`](crate::decisions::DecisionSet) format DAMPI uses.
//!
//! The exploration driver, its executors, the journal, the cache and the
//! report are DAMPI's, so the two tools differ *only* in architecture
//! (centralized vs decentralized), exactly the comparison the paper makes.

mod sched;
mod tool;

pub use sched::IspScheduler;
pub use tool::IspLayer;
