//! The program-facing MPI API ([`Mpi`]) and the bottom of the interposition
//! stack ([`Pmpi`], the `PMPI_*` level).
//!
//! Verified programs are written against `&mut dyn Mpi`. Tool layers
//! (DAMPI, ISP, stats) also implement [`Mpi`] by wrapping an inner
//! implementation — the PnMPI pattern: a call enters the top of the stack
//! and each layer decides what to forward downward, ultimately reaching the
//! runtime through [`Pmpi`].

use std::sync::Arc;

use bytes::Bytes;

use crate::collective::{CollOutcome, CollSig, Contribution, ReduceOp};
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

/// The MPI interface available to verified programs and tool layers.
///
/// Blocking convenience operations (`send`, `recv`, `waitall`, `sendrecv`)
/// have default implementations in terms of the nonblocking primitives, and
/// the ten typed data collectives (`barrier` … `alltoall`) in terms of
/// [`Mpi::collective`], so a tool layer that intercepts the primitives
/// automatically intercepts the conveniences. `comm_dup`/`comm_split`/
/// `comm_free` stay primitives: layers treat each of the three differently.
#[allow(clippy::too_many_arguments)]
pub trait Mpi: Send {
    /// This process's world rank.
    fn world_rank(&self) -> usize;
    /// Number of processes in the world.
    fn world_size(&self) -> usize;
    /// This process's rank within `comm`.
    fn comm_rank(&self, comm: Comm) -> Result<usize>;
    /// Size of `comm`'s group.
    fn comm_size(&self, comm: Comm) -> Result<usize>;
    /// Translate a rank of `comm`'s group to its world rank (the analog of
    /// `MPI_Group_translate_ranks` against the world group).
    fn translate_rank(&self, comm: Comm, comm_rank: usize) -> Result<usize>;
    /// This rank's current virtual time (simulated seconds).
    fn now(&self) -> f64;

    /// Nonblocking send (`MPI_Isend`); eager, so the request is complete on
    /// creation but must still be waited to be reclaimed.
    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request>;
    /// Nonblocking receive (`MPI_Irecv`); `src` may be [`crate::ANY_SOURCE`]
    /// — the non-deterministic operation DAMPI enumerates outcomes of.
    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request>;
    /// Block until `req` completes (`MPI_Wait`); consumes the request.
    fn wait(&mut self, req: Request) -> Result<(Status, Bytes)>;
    /// Poll `req` (`MPI_Test`); consumes the request when complete.
    fn test(&mut self, req: Request) -> Result<Option<(Status, Bytes)>>;
    /// Block until any of `reqs` completes (`MPI_Waitany`); returns its
    /// index and consumes only that request.
    fn waitany(&mut self, reqs: &[Request]) -> Result<(usize, Status, Bytes)>;
    /// Poll any of `reqs` (`MPI_Testany`); consumes the completed request.
    fn testany(&mut self, reqs: &[Request]) -> Result<Option<(usize, Status, Bytes)>>;
    /// Block until at least one of `reqs` completes (`MPI_Waitsome`);
    /// returns and consumes every request complete at that moment.
    fn waitsome(&mut self, reqs: &[Request]) -> Result<Vec<(usize, Status, Bytes)>>;
    /// Blocking probe (`MPI_Probe`); `src` may be wildcard (also
    /// non-deterministic, paper §II-E).
    fn probe(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<ProbeInfo>;
    /// Nonblocking probe (`MPI_Iprobe`).
    fn iprobe(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Option<ProbeInfo>>;

    /// The one entry point of every data collective: deposit this rank's
    /// `contribution` to the `sig` rendezvous on `comm` and leave with its
    /// per-rank outcome. The typed collectives below are all derived from
    /// it, so a tool layer implements its collective behaviour here once.
    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
    ) -> Result<CollOutcome>;

    /// `MPI_Comm_dup` (collective over `comm`).
    fn comm_dup(&mut self, comm: Comm) -> Result<Comm>;
    /// `MPI_Comm_split` (collective): negative `color` means
    /// `MPI_UNDEFINED` and yields `None`.
    fn comm_split(&mut self, comm: Comm, color: i64, key: i64) -> Result<Option<Comm>>;
    /// `MPI_Comm_free` (collective over `comm`).
    fn comm_free(&mut self, comm: Comm) -> Result<()>;

    /// `MPI_Pcontrol`: a no-op for the runtime, but tool layers interpret it
    /// — DAMPI's loop iteration abstraction brackets loops with it
    /// (paper §III-B1).
    fn pcontrol(&mut self, code: i32) -> Result<()>;
    /// Advance this rank's virtual time by `seconds` of local computation.
    fn compute(&mut self, seconds: f64) -> Result<()>;
    /// `MPI_Finalize`-time hook; tool layers flush their logs here. Called
    /// once by the run harness after the program returns successfully.
    fn finalize(&mut self) -> Result<()>;

    /// Blocking send (`MPI_Send`).
    fn send(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<()> {
        let r = self.isend(comm, dest, tag, data)?;
        self.wait(r)?;
        Ok(())
    }

    /// Blocking receive (`MPI_Recv`).
    fn recv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<(Status, Bytes)> {
        let r = self.irecv(comm, src, tag)?;
        self.wait(r)
    }

    /// `MPI_Waitall`: wait for every request, in order.
    fn waitall(&mut self, reqs: &[Request]) -> Result<Vec<(Status, Bytes)>> {
        reqs.iter().map(|r| self.wait(*r)).collect()
    }

    /// `MPI_Sendrecv`: concurrent send and receive, completing both.
    fn sendrecv(
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
        let out = self.wait(rr)?;
        self.wait(sr)?;
        Ok(out)
    }

    /// `MPI_Barrier`.
    fn barrier(&mut self, comm: Comm) -> Result<()> {
        let sig = CollSig::Barrier;
        match self.collective(comm, sig, Contribution::None)? {
            CollOutcome::None => Ok(()),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Bcast`: root passes `Some(data)`, everyone receives it.
    fn bcast(&mut self, comm: Comm, root: usize, data: Option<Bytes>) -> Result<Bytes> {
        let sig = CollSig::Bcast { root };
        let contribution = if self.comm_rank(comm)? == root {
            Contribution::Bytes(root_data(sig, data)?)
        } else {
            Contribution::None
        };
        match self.collective(comm, sig, contribution)? {
            CollOutcome::Bytes(b) => Ok(b),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Reduce` on u64 vectors; only root receives `Some`.
    fn reduce_u64(
        &mut self,
        comm: Comm,
        root: usize,
        value: Vec<u64>,
        op: ReduceOp,
    ) -> Result<Option<Vec<u64>>> {
        let sig = CollSig::ReduceU64 { root, op };
        match self.collective(comm, sig, Contribution::U64s(value))? {
            CollOutcome::U64s(v) => Ok(Some(v)),
            CollOutcome::None => Ok(None),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Allreduce` on u64 vectors.
    fn allreduce_u64(&mut self, comm: Comm, value: Vec<u64>, op: ReduceOp) -> Result<Vec<u64>> {
        let sig = CollSig::AllreduceU64 { op };
        match self.collective(comm, sig, Contribution::U64s(value))? {
            CollOutcome::U64s(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Reduce` on f64 vectors; only root receives `Some`.
    fn reduce_f64(
        &mut self,
        comm: Comm,
        root: usize,
        value: Vec<f64>,
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        let sig = CollSig::ReduceF64 { root, op };
        match self.collective(comm, sig, Contribution::F64s(value))? {
            CollOutcome::F64s(v) => Ok(Some(v)),
            CollOutcome::None => Ok(None),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Allreduce` on f64 vectors.
    fn allreduce_f64(&mut self, comm: Comm, value: Vec<f64>, op: ReduceOp) -> Result<Vec<f64>> {
        let sig = CollSig::AllreduceF64 { op };
        match self.collective(comm, sig, Contribution::F64s(value))? {
            CollOutcome::F64s(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Gather` to `root`, which receives all contributions in comm-rank
    /// order.
    fn gather(&mut self, comm: Comm, root: usize, data: Bytes) -> Result<Option<Vec<Bytes>>> {
        let sig = CollSig::Gather { root };
        match self.collective(comm, sig, Contribution::Bytes(data))? {
            CollOutcome::BytesVec(v) => Ok(Some(v)),
            CollOutcome::None => Ok(None),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Allgather`.
    fn allgather(&mut self, comm: Comm, data: Bytes) -> Result<Vec<Bytes>> {
        let sig = CollSig::Allgather;
        match self.collective(comm, sig, Contribution::Bytes(data))? {
            CollOutcome::BytesVec(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Scatter` from `root`, which passes one payload per rank.
    fn scatter(&mut self, comm: Comm, root: usize, data: Option<Vec<Bytes>>) -> Result<Bytes> {
        let sig = CollSig::Scatter { root };
        let contribution = if self.comm_rank(comm)? == root {
            Contribution::BytesVec(root_data(sig, data)?)
        } else {
            Contribution::None
        };
        match self.collective(comm, sig, contribution)? {
            CollOutcome::Bytes(b) => Ok(b),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }

    /// `MPI_Alltoall`.
    fn alltoall(&mut self, comm: Comm, data: Vec<Bytes>) -> Result<Vec<Bytes>> {
        let sig = CollSig::Alltoall;
        match self.collective(comm, sig, Contribution::BytesVec(data))? {
            CollOutcome::BytesVec(v) => Ok(v),
            other => Err(unexpected_outcome(sig, &other)),
        }
    }
}

/// The payload the root of a `bcast`/`scatter` must supply.
fn root_data<T>(sig: CollSig, data: Option<T>) -> Result<T> {
    data.ok_or_else(|| MpiError::ToolProtocol {
        detail: format!("{} root passed no data", sig.name()),
    })
}

/// A collective left the rendezvous with an outcome its typed wrapper cannot
/// unpack: a broken layer below, never a program error.
pub(crate) fn unexpected_outcome(sig: CollSig, got: &CollOutcome) -> MpiError {
    MpiError::ToolProtocol {
        detail: format!("{} returned {got:?}", sig.name()),
    }
}

/// The bottom of the interposition stack: direct access to the simulated
/// runtime, analogous to calling `PMPI_*` functions.
pub struct Pmpi {
    world: Arc<World>,
    rank: usize,
}

impl Pmpi {
    /// Handle for `rank` on `world`. Normally constructed by the run
    /// harness and passed to the layer factory.
    #[must_use]
    pub fn new(world: Arc<World>, rank: usize) -> Self {
        Self { world, rank }
    }

    /// The world this handle belongs to.
    #[must_use]
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }
}

impl Mpi for Pmpi {
    fn world_rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world.nprocs()
    }

    fn comm_rank(&self, comm: Comm) -> Result<usize> {
        self.world.op_comm_rank(self.rank, comm)
    }

    fn comm_size(&self, comm: Comm) -> Result<usize> {
        self.world.op_comm_size(self.rank, comm)
    }

    fn translate_rank(&self, comm: Comm, comm_rank: usize) -> Result<usize> {
        self.world.op_translate_rank(comm, comm_rank)
    }

    fn now(&self) -> f64 {
        self.world.op_now(self.rank)
    }

    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.world.op_isend(self.rank, comm, dest, tag, data)
    }

    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.world.op_irecv(self.rank, comm, src, tag)
    }

    fn wait(&mut self, req: Request) -> Result<(Status, Bytes)> {
        self.world.op_wait(self.rank, req)
    }

    fn test(&mut self, req: Request) -> Result<Option<(Status, Bytes)>> {
        self.world.op_test(self.rank, req)
    }

    fn waitany(&mut self, reqs: &[Request]) -> Result<(usize, Status, Bytes)> {
        self.world.op_waitany(self.rank, reqs)
    }

    fn testany(&mut self, reqs: &[Request]) -> Result<Option<(usize, Status, Bytes)>> {
        self.world.op_testany(self.rank, reqs)
    }

    fn waitsome(&mut self, reqs: &[Request]) -> Result<Vec<(usize, Status, Bytes)>> {
        self.world.op_waitsome(self.rank, reqs)
    }

    fn probe(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<ProbeInfo> {
        self.world.op_probe(self.rank, comm, src, tag)
    }

    fn iprobe(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Option<ProbeInfo>> {
        self.world.op_iprobe(self.rank, comm, src, tag)
    }

    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
    ) -> Result<CollOutcome> {
        // Communicator management has typed methods with their own checks
        // (tool shadow comms, the MPI_COMM_WORLD refusal): keep it off the
        // data waist so nothing reaches the runtime around them.
        if sig.is_comm_management() {
            return Err(MpiError::ToolProtocol {
                detail: format!("{} is not a data collective", sig.name()),
            });
        }
        self.world.collective(self.rank, comm, sig, contribution)
    }

    fn comm_dup(&mut self, comm: Comm) -> Result<Comm> {
        self.world.op_comm_dup(self.rank, comm)
    }

    fn comm_split(&mut self, comm: Comm, color: i64, key: i64) -> Result<Option<Comm>> {
        self.world.op_comm_split(self.rank, comm, color, key)
    }

    fn comm_free(&mut self, comm: Comm) -> Result<()> {
        self.world.op_comm_free(self.rank, comm)
    }

    fn pcontrol(&mut self, _code: i32) -> Result<()> {
        // The runtime ignores pcontrol, per MPI; tool layers interpret it.
        self.world.op_fatal_check()
    }

    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.world.op_compute(self.rank, seconds)
    }

    fn finalize(&mut self) -> Result<()> {
        Ok(())
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
