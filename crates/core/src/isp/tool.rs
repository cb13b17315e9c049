//! `IspLayer`: ISP's interposition layer.
//!
//! Every MPI operation performs a synchronous transaction with the central
//! scheduler (cost: serialized virtual time plus a round trip, §II-A) and
//! reports the information the scheduler needs for exact central match
//! detection. Wildcard receives are forced from an Epoch Decisions set —
//! the same replay mechanism as DAMPI, but keyed by ISP's per-rank
//! non-deterministic event counters.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use dampi_mpi::matching::ProbeInfo;
use dampi_mpi::proc_api::{Completed, Completion, Mpi, Pmpi, Status};
use dampi_mpi::{
    CollOutcome, CollSig, Comm, Contribution, Request, Result, Rider, Tag, ANY_SOURCE,
};

use super::sched::IspScheduler;
use crate::decisions::DecisionSet;
use crate::epoch::NdKind;

/// Request bookkeeping: what to report at completion time.
enum IspMeta {
    Send,
    Recv {
        comm: Comm,
        /// Epoch counter for wildcard receives.
        epoch: Option<u64>,
    },
}

/// The ISP tool layer for one rank.
pub struct IspLayer<M: Mpi> {
    inner: M,
    sched: Arc<IspScheduler>,
    decisions: Arc<DecisionSet>,
    rank: usize,
    nd_counter: u64,
    meta: HashMap<Request, IspMeta>,
    divergences: u64,
}

impl<M: Mpi> IspLayer<M> {
    /// Build the layer for one rank.
    pub fn new(inner: M, sched: Arc<IspScheduler>, decisions: Arc<DecisionSet>) -> Self {
        let rank = inner.world_rank();
        Self {
            inner,
            sched,
            decisions,
            rank,
            nd_counter: 0,
            meta: HashMap::new(),
            divergences: 0,
        }
    }

    /// The synchronous scheduler exchange every call performs.
    fn transact(&mut self) -> Result<()> {
        let now = self.inner.now();
        let new_vt = self.sched.transact(now);
        self.inner.compute((new_vt - now).max(0.0))
    }

    /// Resolve a wildcard source: ISP's central replay forcing.
    fn nd_source(&mut self) -> (i32, bool) {
        let counter = self.nd_counter;
        match self.decisions.lookup(self.rank, counter) {
            Some(src) => (src as i32, true),
            None => {
                if !self.decisions.is_self_run() && counter <= self.decisions.guided_epoch {
                    self.divergences += 1;
                }
                (ANY_SOURCE, false)
            }
        }
    }

    /// Deposit this rank's pre-collective vector with the scheduler.
    ///
    /// The simulated runtime executes every collective as a full rendezvous
    /// (each rank's exit happens-after every rank's entry), so the causal
    /// model carries all-to-all edges whatever the operation's MPI dataflow.
    /// Recording only the dataflow edges (paper §II-E) under-orders
    /// post-collective sends against pre-collective wildcard receives, and
    /// the scheduler then proposes matches the runtime cannot realize —
    /// surfacing as phantom deadlocks on clean programs (fuzz seed 66). The
    /// DAMPI layer applies the same strengthening (the clock words it
    /// rides on each collective); both sides must agree or differential
    /// fuzzing diverges.
    fn report_collective(&mut self, comm: Comm) -> Result<()> {
        self.transact()?;
        let size = self.inner.comm_size(comm)?;
        self.sched.on_collective(self.rank, comm, size);
        Ok(())
    }

    fn after_recv_complete(&mut self, req: Request, status: &Status) -> Result<()> {
        match self.meta.remove(&req) {
            Some(IspMeta::Recv { comm, epoch }) => {
                let src_world = self.inner.translate_rank(comm, status.source)?;
                self.sched.on_recv_complete(
                    self.rank,
                    comm,
                    src_world,
                    status.source,
                    status.tag,
                    epoch,
                );
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

impl<M: Mpi> Mpi for IspLayer<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }

    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.transact()?;
        let crank = self.inner.comm_rank(comm)?;
        let dst_world = self.inner.translate_rank(comm, dest as usize)?;
        self.sched.on_send(self.rank, crank, dst_world, comm, tag);
        let req = self.inner.isend(comm, dest, tag, data)?;
        self.meta.insert(req, IspMeta::Send);
        Ok(req)
    }

    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.transact()?;
        if src == ANY_SOURCE {
            let (post_src, guided) = self.nd_source();
            let epoch = self
                .sched
                .on_nd_post(self.rank, comm, tag, NdKind::Recv, guided, None);
            debug_assert_eq!(epoch, self.nd_counter);
            self.nd_counter += 1;
            let req = self.inner.irecv(comm, post_src, tag)?;
            self.meta.insert(
                req,
                IspMeta::Recv {
                    comm,
                    epoch: Some(epoch),
                },
            );
            Ok(req)
        } else {
            let req = self.inner.irecv(comm, src, tag)?;
            self.meta.insert(req, IspMeta::Recv { comm, epoch: None });
            Ok(req)
        }
    }

    fn complete(&mut self, reqs: &[Request], how: Completion) -> Result<Completed> {
        self.transact()?;
        let done = self.inner.complete(reqs, how)?;
        for (idx, status, _) in done.iter() {
            self.after_recv_complete(reqs[*idx], status)?;
        }
        Ok(done)
    }

    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Result<Option<ProbeInfo>> {
        self.transact()?;
        if src != ANY_SOURCE {
            return self.inner.probe_for(comm, src, tag, blocking);
        }
        let (post_src, guided) = self.nd_source();
        let hit = self.inner.probe_for(comm, post_src, tag, blocking)?;
        if let Some(info) = hit {
            self.sched
                .on_nd_post(self.rank, comm, tag, NdKind::Probe, guided, Some(info.src));
            self.nd_counter += 1;
        }
        Ok(hit)
    }

    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &mut Rider,
    ) -> Result<CollOutcome> {
        self.report_collective(comm)?;
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
        // One last transaction: the tool detaches from the scheduler.
        self.transact()?;
        self.sched.report_divergences(self.divergences);
        self.inner.finalize()
    }
}
