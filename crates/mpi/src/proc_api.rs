//! The program-facing MPI API ([`Mpi`]) and the bottom of the interposition
//! stack ([`Pmpi`], the `PMPI_*` level).
//!
//! Verified programs are written against `&mut dyn Mpi`. Tool layers
//! (DAMPI, ISP, stats) also implement [`Mpi`] by wrapping an inner
//! implementation — the PnMPI pattern: a call enters the top of the stack
//! and each layer decides what to forward downward, ultimately reaching the
//! runtime through [`Pmpi`].

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;

use crate::collective::{CollOutcome, CollSig, Contribution, ReduceOp, Rider};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::matching::ProbeInfo;
use crate::request::Request;
use crate::runtime::World;
use crate::types::Tag;

/// Completion status of a receive (or trivially of a send).
///
/// For receives, `source` is the comm rank the message actually came from —
/// the information DAMPI's Algorithm 1 reads after completing a wildcard
/// receive (`status.MPI_SOURCE`). For send completions the runtime reports
/// the caller's own rank and the posted tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Comm rank of the message source.
    pub source: usize,
    /// Tag of the matched message.
    pub tag: Tag,
}

/// How a completion call waits and how much it takes: the mode argument of
/// [`Mpi::complete`]. `wait`/`test` are the one-request case of the `Any`
/// modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Block until a request is complete and consume the lowest-index one
    /// (`MPI_Wait`, `MPI_Waitany`).
    WaitAny,
    /// Consume the lowest-index complete request, if there is one
    /// (`MPI_Test`, `MPI_Testany`).
    TestAny,
    /// Block until a request is complete and consume every request complete
    /// at that moment (`MPI_Waitsome`).
    WaitSome,
}

impl Completion {
    /// Whether the call blocks until it has something to return.
    #[must_use]
    pub fn blocking(self) -> bool {
        !matches!(self, Self::TestAny)
    }

    /// Whether the call takes every complete request rather than the first.
    #[must_use]
    pub fn takes_all(self) -> bool {
        matches!(self, Self::WaitSome)
    }
}

/// One consumed request: its index in the list passed to [`Mpi::complete`],
/// its status and (for receives) its payload.
pub type Done = (usize, Status, Bytes);

/// What [`Mpi::complete`] consumed, in index order. The first completion is
/// held inline, so the `Any` modes never allocate.
#[derive(Debug, Default)]
pub struct Completed {
    first: Option<Done>,
    rest: Vec<Done>,
}

impl Completed {
    /// Append a completion.
    pub fn push(&mut self, done: Done) {
        if self.first.is_none() {
            self.first = Some(done);
        } else {
            self.rest.push(done);
        }
    }

    /// True when nothing was consumed (a polling miss).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The completions, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Done> {
        self.first.iter().chain(&self.rest)
    }

    /// The completions, in index order, for a layer that rewrites payloads.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Done> {
        self.first.iter_mut().chain(&mut self.rest)
    }
}

impl IntoIterator for Completed {
    type Item = Done;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Done>, std::vec::IntoIter<Done>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// What a waist returns: a boxed future, polled only while its rank holds
/// the turn. One allocation per call, and one type for every layer, so
/// [`Mpi`] stays object-safe and no program × layer pair monomorphises a
/// future of its own.
pub type Waist<'a, T> = Pin<Box<dyn Future<Output = Result<T>> + 'a>>;

/// The MPI interface available to verified programs and tool layers.
///
/// Eleven methods are required: [`Mpi::pmpi`] and the ten operations a
/// tool layer may intercept. Everything else is provided. The six
/// rank-local queries (`world_rank`, `world_size`, `comm_rank`,
/// `comm_size`, `translate_rank`, `now`) read the bottom handle directly,
/// since no layer rewrites them. Every other call is built on three waists,
/// so a tool layer states each behaviour once and intercepts every typed
/// call derived from it: every collective — the ten data collectives
/// (`barrier` … `alltoall`) and `comm_dup`/`comm_split`/`comm_free` — goes
/// through [`Mpi::collective`], the five completion calls (`wait`, `test`,
/// `waitany`, `testany`, `waitsome`) through [`Mpi::complete`], and
/// `probe`/`iprobe` through [`Mpi::probe_for`]. The blocking conveniences
/// (`send`, `recv`, `sendrecv`) are built from those, and `waitall` may be
/// intercepted as one call.
/// [`Mpi::shadow_world`] and [`Mpi::release_shadow_world`] are for tool
/// layers, not programs: every layer forwards them.
///
/// The calls that can hand the turn to another rank — the three waists,
/// `waitall`, `shadow_world` and `finalize` — return a [`Waist`] future; a
/// layer wraps its pre/post code around `self.inner.op(..).await`. The
/// typed calls derived from them are `async` methods of `dyn Mpi`. The rest
/// are synchronous: only the turn holder ever runs, so they never wait.
#[allow(clippy::too_many_arguments)]
pub trait Mpi {
    /// The bottom of this stack, which the rank-local queries read. A layer
    /// returns its inner layer's `pmpi()`. The borrow is shared and every
    /// operation takes `&mut self`, so a layer can read the bottom handle
    /// but cannot send through it past the layers below:
    ///
    /// ```compile_fail,E0596
    /// use bytes::Bytes;
    /// use dampi_mpi::{Comm, Mpi, Pmpi, Request, Result};
    ///
    /// fn skip_the_layers_below<M: Mpi>(layer: &mut M) -> Result<Request> {
    ///     layer.pmpi().isend(Comm::WORLD, 0, 0, Bytes::new())
    /// }
    /// ```
    fn pmpi(&self) -> &Pmpi;

    /// This process's world rank.
    fn world_rank(&self) -> usize {
        self.pmpi().rank
    }
    /// Number of processes in the world.
    fn world_size(&self) -> usize {
        self.pmpi().world.nprocs()
    }
    /// This process's rank within `comm`.
    fn comm_rank(&self, comm: Comm) -> Result<usize> {
        let pmpi = self.pmpi();
        pmpi.world.op_comm_rank(pmpi.rank, comm)
    }
    /// Size of `comm`'s group.
    fn comm_size(&self, comm: Comm) -> Result<usize> {
        let pmpi = self.pmpi();
        pmpi.world.op_comm_size(pmpi.rank, comm)
    }
    /// Translate a rank of `comm`'s group to its world rank (the analog of
    /// `MPI_Group_translate_ranks` against the world group).
    fn translate_rank(&self, comm: Comm, comm_rank: usize) -> Result<usize> {
        self.pmpi().world.op_translate_rank(comm, comm_rank)
    }
    /// This rank's current virtual time (simulated seconds).
    fn now(&self) -> f64 {
        let pmpi = self.pmpi();
        pmpi.world.op_now(pmpi.rank)
    }

    /// Nonblocking send (`MPI_Isend`); eager, so the request is complete on
    /// creation but must still be waited to be reclaimed.
    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request>;
    /// Nonblocking receive (`MPI_Irecv`); `src` may be [`crate::ANY_SOURCE`]
    /// — the non-deterministic operation DAMPI enumerates outcomes of.
    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request>;
    /// The one entry point of every completion call: consume the complete
    /// requests among `reqs` that `how` asks for. The five typed calls below
    /// are derived from it, so a tool layer implements its completion
    /// behaviour here once. Blocking modes never return empty.
    fn complete<'a>(&'a mut self, reqs: &'a [Request], how: Completion) -> Waist<'a, Completed>;
    /// The one entry point of `probe`/`iprobe`: report a matchable message
    /// without receiving it, waiting for one when `blocking` (which then
    /// never returns `None`). `src` may be wildcard (also non-deterministic,
    /// paper §II-E).
    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Waist<'_, Option<ProbeInfo>>;

    /// The one entry point of every collective: deposit this rank's
    /// `contribution` to the `sig` rendezvous on `comm` and leave with its
    /// per-rank outcome. The typed collectives and the three communicator
    /// operations below are all derived from it, so a tool layer implements
    /// its collective behaviour here once. `rider` is what a tool layer
    /// adds to the call instead of holding rendezvous of its own (its clock
    /// words, a shadow twin to create or free); programs pass it empty, and
    /// every layer forwards it.
    fn collective<'a>(
        &'a mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &'a mut Rider,
    ) -> Waist<'a, CollOutcome>;

    /// The tool's private duplicate of `MPI_COMM_WORLD` (DAMPI's piggyback
    /// communicator, set up inside `MPI_Init`). **Not collective**: a world
    /// has one, the first rank to ask creates it, and no rank waits for
    /// another. Each caller is charged the virtual time of a `comm_dup`.
    fn shadow_world(&mut self) -> Waist<'_, Comm>;
    /// Give back this rank's hold on the communicator [`Mpi::shadow_world`]
    /// returned. Not collective either: the communicator is freed once
    /// every rank of the world has released it.
    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()>;

    /// `MPI_Pcontrol`: a no-op for the runtime, but tool layers interpret it
    /// — DAMPI's loop iteration abstraction brackets loops with it
    /// (paper §III-B1).
    fn pcontrol(&mut self, code: i32) -> Result<()>;
    /// Advance this rank's virtual time by `seconds` of local computation.
    fn compute(&mut self, seconds: f64) -> Result<()>;
    /// `MPI_Finalize`-time hook; tool layers flush their logs here. Called
    /// once by the run harness after the program returns successfully.
    fn finalize(&mut self) -> Waist<'_, ()>;

    /// `MPI_Waitall`: wait for every request, in order.
    fn waitall<'a>(&'a mut self, reqs: &'a [Request]) -> Waist<'a, Vec<(Status, Bytes)>> {
        Box::pin(async move {
            let mut out = Vec::with_capacity(reqs.len());
            for req in reqs {
                let done = self.complete(std::slice::from_ref(req), Completion::WaitAny);
                let (_, status, data) = blocking_hit(done.await?)?;
                out.push((status, data));
            }
            Ok(out)
        })
    }
}

/// The typed calls a program makes, each derived from a waist of the
/// stack it is handed. A layer generic over its inner `M: Mpi` reaches them
/// through `&mut self.inner as &mut dyn Mpi`.
impl dyn Mpi + '_ {
    /// Block until `req` completes (`MPI_Wait`); consumes the request.
    pub async fn wait(&mut self, req: Request) -> Result<(Status, Bytes)> {
        let done = self.complete(&[req], Completion::WaitAny).await?;
        let (_, status, data) = blocking_hit(done)?;
        Ok((status, data))
    }

    /// Poll `req` (`MPI_Test`); consumes the request when complete.
    pub async fn test(&mut self, req: Request) -> Result<Option<(Status, Bytes)>> {
        let done = self.complete(&[req], Completion::TestAny).await?;
        Ok(done
            .into_iter()
            .next()
            .map(|(_, status, data)| (status, data)))
    }

    /// Block until any of `reqs` completes (`MPI_Waitany`); returns its
    /// index and consumes only that request.
    pub async fn waitany(&mut self, reqs: &[Request]) -> Result<(usize, Status, Bytes)> {
        blocking_hit(self.complete(reqs, Completion::WaitAny).await?)
    }

    /// Poll any of `reqs` (`MPI_Testany`); consumes the completed request.
    pub async fn testany(&mut self, reqs: &[Request]) -> Result<Option<(usize, Status, Bytes)>> {
        Ok(self
            .complete(reqs, Completion::TestAny)
            .await?
            .into_iter()
            .next())
    }

    /// Block until at least one of `reqs` completes (`MPI_Waitsome`);
    /// returns and consumes every request complete at that moment.
    pub async fn waitsome(&mut self, reqs: &[Request]) -> Result<Vec<(usize, Status, Bytes)>> {
        Ok(self
            .complete(reqs, Completion::WaitSome)
            .await?
            .into_iter()
            .collect())
    }

    /// Blocking probe (`MPI_Probe`).
    pub async fn probe(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<ProbeInfo> {
        self.probe_for(comm, src, tag, true)
            .await?
            .ok_or_else(|| MpiError::ToolProtocol {
                detail: "blocking probe returned no message".to_owned(),
            })
    }

    /// Nonblocking probe (`MPI_Iprobe`).
    pub async fn iprobe(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Option<ProbeInfo>> {
        self.probe_for(comm, src, tag, false).await
    }

    /// Blocking send (`MPI_Send`).
    pub async fn send(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<()> {
        let r = self.isend(comm, dest, tag, data)?;
        self.wait(r).await?;
        Ok(())
    }

    /// Blocking receive (`MPI_Recv`).
    pub async fn recv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<(Status, Bytes)> {
        let r = self.irecv(comm, src, tag)?;
        self.wait(r).await
    }

    /// `MPI_Sendrecv`: concurrent send and receive, completing both.
    #[allow(clippy::too_many_arguments)]
    pub async fn sendrecv(
        &mut self,
        comm: Comm,
        dest: i32,
        send_tag: Tag,
        data: Bytes,
        src: i32,
        recv_tag: Tag,
    ) -> Result<(Status, Bytes)> {
        let rr = self.irecv(comm, src, recv_tag)?;
        let sr = self.isend(comm, dest, send_tag, data)?;
        let out = self.wait(rr).await?;
        self.wait(sr).await?;
        Ok(out)
    }

    /// Run one typed collective: the [`Mpi::collective`] waist with an
    /// empty rider.
    async fn typed(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
    ) -> Result<CollOutcome> {
        self.collective(comm, sig, contribution, &mut Rider::default())
            .await
    }

    /// `MPI_Barrier`.
    pub async fn barrier(&mut self, comm: Comm) -> Result<()> {
        let sig = CollSig::Barrier;
        match self.typed(comm, sig, Contribution::None).await? {
            CollOutcome::None => Ok(()),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Bcast`: root passes `Some(data)`, everyone receives it.
    pub async fn bcast(&mut self, comm: Comm, root: usize, data: Option<Bytes>) -> Result<Bytes> {
        let sig = CollSig::Bcast { root };
        let contribution = if self.comm_rank(comm)? == root {
            Contribution::Bytes(root_data(sig, data)?)
        } else {
            Contribution::None
        };
        match self.typed(comm, sig, contribution).await? {
            CollOutcome::Bytes(b) => Ok(b),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Reduce` on u64 vectors; only root receives `Some`.
    pub async fn reduce_u64(
        &mut self,
        comm: Comm,
        root: usize,
        value: Vec<u64>,
        op: ReduceOp,
    ) -> Result<Option<Vec<u64>>> {
        let sig = CollSig::ReduceU64 { root, op };
        match self.typed(comm, sig, Contribution::U64s(value)).await? {
            CollOutcome::U64s(v) => Ok(Some(v)),
            CollOutcome::None => Ok(None),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Allreduce` on u64 vectors.
    pub async fn allreduce_u64(
        &mut self,
        comm: Comm,
        value: Vec<u64>,
        op: ReduceOp,
    ) -> Result<Vec<u64>> {
        let sig = CollSig::AllreduceU64 { op };
        match self.typed(comm, sig, Contribution::U64s(value)).await? {
            CollOutcome::U64s(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Reduce` on f64 vectors; only root receives `Some`.
    pub async fn reduce_f64(
        &mut self,
        comm: Comm,
        root: usize,
        value: Vec<f64>,
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        let sig = CollSig::ReduceF64 { root, op };
        match self.typed(comm, sig, Contribution::F64s(value)).await? {
            CollOutcome::F64s(v) => Ok(Some(v)),
            CollOutcome::None => Ok(None),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Allreduce` on f64 vectors.
    pub async fn allreduce_f64(
        &mut self,
        comm: Comm,
        value: Vec<f64>,
        op: ReduceOp,
    ) -> Result<Vec<f64>> {
        let sig = CollSig::AllreduceF64 { op };
        match self.typed(comm, sig, Contribution::F64s(value)).await? {
            CollOutcome::F64s(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Gather` to `root`, which receives all contributions in comm-rank
    /// order.
    pub async fn gather(
        &mut self,
        comm: Comm,
        root: usize,
        data: Bytes,
    ) -> Result<Option<Vec<Bytes>>> {
        let sig = CollSig::Gather { root };
        match self.typed(comm, sig, Contribution::Bytes(data)).await? {
            CollOutcome::BytesVec(v) => Ok(Some(v)),
            CollOutcome::None => Ok(None),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Allgather`.
    pub async fn allgather(&mut self, comm: Comm, data: Bytes) -> Result<Vec<Bytes>> {
        let sig = CollSig::Allgather;
        match self.typed(comm, sig, Contribution::Bytes(data)).await? {
            CollOutcome::BytesVec(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Scatter` from `root`, which passes one payload per rank.
    pub async fn scatter(
        &mut self,
        comm: Comm,
        root: usize,
        data: Option<Vec<Bytes>>,
    ) -> Result<Bytes> {
        let sig = CollSig::Scatter { root };
        let contribution = if self.comm_rank(comm)? == root {
            Contribution::BytesVec(root_data(sig, data)?)
        } else {
            Contribution::None
        };
        match self.typed(comm, sig, contribution).await? {
            CollOutcome::Bytes(b) => Ok(b),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Alltoall`.
    pub async fn alltoall(&mut self, comm: Comm, data: Vec<Bytes>) -> Result<Vec<Bytes>> {
        let sig = CollSig::Alltoall;
        match self.typed(comm, sig, Contribution::BytesVec(data)).await? {
            CollOutcome::BytesVec(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Comm_dup` (collective over `comm`).
    pub async fn comm_dup(&mut self, comm: Comm) -> Result<Comm> {
        let sig = CollSig::CommDup;
        match self.typed(comm, sig, Contribution::None).await? {
            CollOutcome::Comm(c) => Ok(c),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Comm_split` (collective): negative `color` means
    /// `MPI_UNDEFINED` and yields `None`.
    pub async fn comm_split(&mut self, comm: Comm, color: i64, key: i64) -> Result<Option<Comm>> {
        let sig = CollSig::CommSplit;
        let contribution = Contribution::Split { color, key };
        match self.typed(comm, sig, contribution).await? {
            CollOutcome::Comm(c) => Ok(Some(c)),
            CollOutcome::NoComm => Ok(None),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Comm_free` (collective over `comm`).
    pub async fn comm_free(&mut self, comm: Comm) -> Result<()> {
        let sig = CollSig::CommFree;
        match self.typed(comm, sig, Contribution::None).await? {
            CollOutcome::None => Ok(()),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }
}

/// A blocking completion left the waist empty-handed: a broken layer below,
/// never a program error.
fn blocking_hit(done: Completed) -> Result<Done> {
    done.into_iter()
        .next()
        .ok_or_else(|| MpiError::ToolProtocol {
            detail: "blocking completion returned no request".to_owned(),
        })
}

/// The payload the root of a `bcast`/`scatter` must supply.
fn root_data<T>(sig: CollSig, data: Option<T>) -> Result<T> {
    data.ok_or_else(|| MpiError::ToolProtocol {
        detail: format!("{} root passed no data", sig.name()),
    })
}

/// A collective left the rendezvous with an outcome its typed wrapper cannot
/// unpack: a broken layer below, never a program error.
fn unexpected_outcome(sig: CollSig, got: &CollOutcome) -> MpiError {
    MpiError::ToolProtocol {
        detail: format!("{} returned {got:?}", sig.name()),
    }
}

/// The bottom of the interposition stack: direct access to the simulated
/// runtime, analogous to calling `PMPI_*` functions.
pub struct Pmpi {
    world: Rc<World>,
    rank: usize,
}

impl Pmpi {
    /// Handle for `rank` on `world`. Normally constructed by the run
    /// harness and passed to the layer factory.
    #[must_use]
    pub fn new(world: Rc<World>, rank: usize) -> Self {
        Self { world, rank }
    }

    /// The world this handle belongs to.
    #[must_use]
    pub fn world(&self) -> &Rc<World> {
        &self.world
    }
}

impl Mpi for Pmpi {
    fn pmpi(&self) -> &Pmpi {
        self
    }

    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.world.op_isend(self.rank, comm, dest, tag, data)
    }

    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.world.op_irecv(self.rank, comm, src, tag)
    }

    fn complete<'a>(&'a mut self, reqs: &'a [Request], how: Completion) -> Waist<'a, Completed> {
        Box::pin(self.world.op_complete(self.rank, reqs, how))
    }

    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Waist<'_, Option<ProbeInfo>> {
        Box::pin(self.world.op_probe(self.rank, comm, src, tag, blocking))
    }

    fn collective<'a>(
        &'a mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &'a mut Rider,
    ) -> Waist<'a, CollOutcome> {
        Box::pin(
            self.world
                .collective(self.rank, comm, sig, contribution, rider),
        )
    }

    fn shadow_world(&mut self) -> Waist<'_, Comm> {
        Box::pin(self.world.op_shadow_world(self.rank))
    }

    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()> {
        self.world.op_release_shadow_world(self.rank, shadow)
    }

    fn pcontrol(&mut self, _code: i32) -> Result<()> {
        // The runtime ignores pcontrol, per MPI; tool layers interpret it.
        self.world.op_fatal_check()
    }

    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.world.op_compute(self.rank, seconds)
    }

    fn finalize(&mut self) -> Waist<'_, ()> {
        Box::pin(std::future::ready(Ok(())))
    }
}

/// Convenience guard: turn a boolean program property into a
/// [`MpiError::UserAssert`], the simulator analog of the paper Fig. 3
/// `if (x==33) error` application-level check.
pub fn user_assert(cond: bool, message: impl Into<String>) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(MpiError::UserAssert {
            message: message.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_assert_passes_and_fails() {
        assert!(user_assert(true, "fine").is_ok());
        match user_assert(false, "x==33") {
            Err(MpiError::UserAssert { message }) => assert_eq!(message, "x==33"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
