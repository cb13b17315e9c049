//! PnMPI-style tool layering.
//!
//! A *layer* is just an [`Mpi`] implementation that owns an inner [`Mpi`]
//! and forwards (possibly rewritten) calls downward — the simulator analog
//! of a PnMPI module providing `MPI_f` and calling `PMPI_f`. A layer
//! implements the eleven required methods only: [`Mpi::pmpi`], which hands
//! the rank-local queries the bottom handle, and the ten operations, among
//! them the three waists [`Mpi::collective`], [`Mpi::complete`] and
//! [`Mpi::probe_for`]. It inherits every typed collective (communicator
//! management included), completion and probe call as a provided method.
//! This module provides one reference layer, [`StatsLayer`], which counts
//! the application's communication operations in the paper's Table I
//! classification, excluding any traffic layers below it generate.
//!
//! The verifier's two tool stacks (`DampiLayer` and `isp::IspLayer`, both
//! in `dampi-core`) are built on exactly this pattern.

use std::sync::Arc;

use bytes::Bytes;

use crate::collective::{CollOutcome, CollSig, Contribution, Rider};
use crate::comm::Comm;
use crate::error::Result;
use crate::matching::ProbeInfo;
use crate::proc_api::{Completed, Completion, Mpi, Pmpi, Status};
use crate::request::Request;
use crate::stats::{OpClass, OpStats, StatsCollector};
use crate::types::Tag;

/// Factory alias re-exported for tool crates.
pub use crate::runtime::LayerFactory;

/// Counts application-level communication operations (Table I census).
///
/// Place at the **top** of the stack: only calls entering from the program
/// are counted, never tool-generated traffic below.
pub struct StatsLayer<M: Mpi> {
    inner: M,
    local: OpStats,
    collector: Arc<StatsCollector>,
}

impl<M: Mpi> StatsLayer<M> {
    /// Wrap `inner`, reporting to `collector` at finalize.
    pub fn new(inner: M, collector: Arc<StatsCollector>) -> Self {
        Self {
            inner,
            local: OpStats::default(),
            collector,
        }
    }

    fn tally(&mut self, class: OpClass) {
        self.local.record(class);
    }
}

impl<M: Mpi> Mpi for StatsLayer<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }
    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.tally(OpClass::SendRecv);
        self.inner.isend(comm, dest, tag, data)
    }
    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.tally(OpClass::SendRecv);
        self.inner.irecv(comm, src, tag)
    }
    fn complete(&mut self, reqs: &[Request], how: Completion) -> Result<Completed> {
        self.tally(OpClass::Wait);
        self.inner.complete(reqs, how)
    }
    fn waitall(&mut self, reqs: &[Request]) -> Result<Vec<(Status, Bytes)>> {
        // MPI_Waitall is a single call; count it once (Table I counts
        // calls, not completed requests) and let the lower layers expand.
        self.tally(OpClass::Wait);
        self.inner.waitall(reqs)
    }
    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Result<Option<ProbeInfo>> {
        self.tally(OpClass::SendRecv);
        self.inner.probe_for(comm, src, tag, blocking)
    }
    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &mut Rider,
    ) -> Result<CollOutcome> {
        self.tally(OpClass::Collective);
        self.inner.collective(comm, sig, contribution, rider)
    }
    fn shadow_world(&mut self) -> Result<Comm> {
        self.inner.shadow_world()
    }
    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()> {
        self.inner.release_shadow_world(shadow)
    }
    fn pcontrol(&mut self, code: i32) -> Result<()> {
        self.inner.pcontrol(code)
    }
    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.inner.compute(seconds)
    }
    fn finalize(&mut self) -> Result<()> {
        self.collector.submit(self.inner.world_rank(), self.local);
        self.inner.finalize()
    }
}
