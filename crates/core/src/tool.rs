//! `DampiLayer`: the DAMPI interposition tool (paper Algorithm 1).
//!
//! One instance wraps each rank's MPI stack and implements, per operation:
//!
//! * **`MPI_Irecv`** — a wildcard source opens an epoch
//!   (`RecordEpochData`), ticks the clock, and — under `GUIDED_RUN` with
//!   the clock inside the guided horizon — is rewritten to the source the
//!   Epoch Decisions file prescribes (`GetSrcFromEpoch`). In
//!   separate-message mode *every* piggyback receive (named or wildcard)
//!   is deferred to completion time and consumed in posting-sequence
//!   order (§II-D; see `settle_earlier` for why posting named piggyback
//!   receives eagerly mispairs stamps on mixed streams).
//! * **`MPI_Isend`** — piggybacks the current clock stamp (separate shadow
//!   message or payload packing, per configuration).
//! * **`MPI_Wait`/`Test`/`Waitany`** — completes the piggyback exchange,
//!   merges the incoming stamp, and runs `FindPotentialMatches` (late
//!   message analysis) against the rank's epoch log.
//! * **Probes** — wildcard probes are epochs too; `Iprobe` is recorded only
//!   when its flag is true (§II-E).
//! * **Collectives** — the clock is exchanged all-to-all (max) for every
//!   collective, matching the simulated runtime's rendezvous semantics
//!   (see `merge_collective_clock`; the paper's per-dataflow exchange of
//!   §II-E would under-order this runtime's collectives). The exchange, and
//!   the shadow of each communicator the application creates or frees,
//!   ride the application's own rendezvous (`Rider`): the tool holds none
//!   of its own but the finalize barrier.
//! * **`MPI_Pcontrol`** — brackets loop-iteration-abstraction regions
//!   (§III-B1).
//!
//! The layer also hosts the §V unsafe-pattern monitor.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use dampi_clocks::{ClockMode, ClockStamp};
use dampi_mpi::matching::ProbeInfo;
use dampi_mpi::proc_api::{Completed, Completion, Mpi, Pmpi, Status, Waist};
use dampi_mpi::{
    CollOutcome, CollSig, Comm, Contribution, IdMap, MpiError, Request, Result, Rider, Shadow, Tag,
    ANY_SOURCE, ANY_TAG,
};

use crate::clock::AnyClock;
use crate::config::PiggybackMechanism;
use crate::decisions::DecisionSet;
use crate::epoch::{EpochRecord, NdKind, ToolRunStats, TraceCollector};
use crate::late;
use crate::monitor::UnsafePatternMonitor;
use crate::pb;

/// `MPI_Pcontrol` code opening a loop-iteration-abstraction region.
pub const PCONTROL_LOOP_BEGIN: i32 = 2;
/// `MPI_Pcontrol` code closing a loop-iteration-abstraction region.
pub const PCONTROL_LOOP_END: i32 = 3;

/// Per-run shared context: decisions in, trace out.
#[derive(Debug)]
pub struct DampiCtx {
    /// Epoch Decisions driving this run (`self_run()` for the first).
    pub decisions: DecisionSet,
    /// Where each rank submits its epoch log at finalize.
    pub collector: Arc<TraceCollector>,
    /// Clock algebra for this session.
    pub clock_mode: ClockMode,
    /// Piggyback transport.
    pub piggyback: PiggybackMechanism,
    /// Virtual CPU seconds charged per late message analyzed.
    pub analysis_cost: f64,
    /// §V paired-clock fix: keep a separate transmittal clock that only
    /// learns of a wildcard receive's tick once its Wait/Test completes.
    pub deferred_clock: bool,
}

/// What the layer must do when an application request completes.
enum ReqMeta {
    /// Send with a separate piggyback message in flight.
    SendPb(Request),
    /// Send with the stamp packed into the payload: nothing pending.
    SendPacked,
    /// Separate-message receive (named or wildcard). The piggyback
    /// receive is deferred to completion time, and `seq` — the posting
    /// sequence number — orders shadow-stream consumption so stamps pair
    /// with the payloads the matcher actually gave each receive.
    RecvSep {
        comm: Comm,
        epoch_idx: Option<usize>,
        seq: u64,
    },
    /// Packing-mode receive: stamp arrives inside the payload.
    RecvPacked {
        comm: Comm,
        epoch_idx: Option<usize>,
    },
}

/// The DAMPI tool layer for one rank.
pub struct DampiLayer<M: Mpi> {
    inner: M,
    ctx: Arc<DampiCtx>,
    rank: usize,
    nprocs: usize,
    clock: AnyClock,
    /// §V paired-clock fix: the clock actually piggybacked on outgoing
    /// traffic. Identical to `clock` unless `deferred_clock` is on, in
    /// which case wildcard ticks reach it only at Wait/Test time.
    xmit: AnyClock,
    /// Currently in `GUIDED_RUN` (reverts to `SELF_RUN` past the horizon).
    guided: bool,
    epochs: Vec<EpochRecord>,
    meta: IdMap<Request, ReqMeta>,
    /// Application comm → shadow piggyback comm (separate-message mode).
    /// Ordered so finalize-time cleanup frees collectively in one order.
    shadow: BTreeMap<Comm, Comm>,
    /// Every live application communicator, for the finalize-time drain.
    known_comms: BTreeSet<Comm>,
    /// Monotone posting counter for separate-message receives.
    recv_seq: u64,
    /// Still-pending separate-message receives in posting order
    /// (`seq` → request and application comm), for `settle_earlier`.
    posted_recvs: BTreeMap<u64, (Request, Comm)>,
    /// Receives force-completed by piggyback sequencing, held with their
    /// status, payload, and stamp until the application claims them via
    /// `wait`/`test`/`waitany`/`testany`/`waitsome`. Clock effects are
    /// deferred to claim time so they land exactly where payload-packing
    /// mode would apply them.
    ready: IdMap<Request, (Status, Bytes, ClockStamp)>,
    region_depth: u32,
    monitor: UnsafePatternMonitor,
    stats: ToolRunStats,
    /// Epoch log already handed to the collector (normally at finalize).
    submitted: bool,
}

impl<M: Mpi> DampiLayer<M> {
    /// Build the layer for one rank — tool setup inside `MPI_Init`. In
    /// separate-message mode it obtains the world shadow communicator from
    /// [`Mpi::shadow_world`], which waits for no other rank: a replay starts
    /// without a rendezvous.
    pub async fn new(mut inner: M, ctx: Arc<DampiCtx>) -> Result<Self> {
        let rank = inner.world_rank();
        let nprocs = inner.world_size();
        let mut shadow = BTreeMap::new();
        if ctx.piggyback == PiggybackMechanism::SeparateMessage {
            shadow.insert(Comm::WORLD, inner.shadow_world().await?);
        }
        let guided = !ctx.decisions.is_self_run();
        Ok(Self {
            inner,
            rank,
            nprocs,
            known_comms: BTreeSet::from([Comm::WORLD]),
            clock: AnyClock::new(ctx.clock_mode, rank, nprocs),
            xmit: AnyClock::new(ctx.clock_mode, rank, nprocs),
            guided,
            epochs: Vec::new(),
            meta: IdMap::default(),
            recv_seq: 0,
            posted_recvs: BTreeMap::new(),
            ready: IdMap::default(),
            shadow,
            region_depth: 0,
            monitor: UnsafePatternMonitor::default(),
            stats: ToolRunStats::default(),
            submitted: false,
            ctx,
        })
    }

    /// The layer below, for the typed calls `dyn Mpi` derives from the
    /// waists.
    fn lower(&mut self) -> &mut dyn Mpi {
        &mut self.inner
    }

    /// Current clock (exposed for tests and diagnostics).
    #[must_use]
    pub fn clock_scalar(&self) -> u64 {
        self.clock.scalar()
    }

    /// The stamp piggybacked on outgoing traffic (§V: the transmittal
    /// clock when the paired-clock fix is on, else the analysis clock).
    fn xmit_stamp(&self) -> dampi_clocks::ClockStamp {
        if self.ctx.deferred_clock {
            self.xmit.stamp()
        } else {
            self.clock.stamp()
        }
    }

    /// §V synchronization point: a wildcard receive committed (Wait/Test),
    /// so its tick may now be transmitted.
    fn sync_clocks(&mut self) {
        if self.ctx.deferred_clock {
            self.xmit.merge(&self.clock.stamp());
        }
    }

    fn shadow_of(&self, comm: Comm) -> Result<Comm> {
        self.shadow
            .get(&comm)
            .copied()
            .ok_or_else(|| MpiError::ToolProtocol {
                detail: format!("no shadow communicator for {comm:?}"),
            })
    }

    fn transmit_guard(&mut self) {
        // §V: transmitting the clock while a wildcard receive is pending
        // makes late analysis unsound for that window.
        let _ = self.monitor.clock_transmitted();
    }

    /// Wildcard receive/probe entry: mode bookkeeping and source rewrite.
    fn nd_source(&mut self) -> (i32, bool) {
        let clock_val = self.clock.scalar();
        if self.guided && clock_val > self.ctx.decisions.guided_epoch {
            // Algorithm 1: past the horizon, revert to SELF_RUN.
            self.guided = false;
        }
        if self.guided {
            match self.ctx.decisions.lookup(self.rank, clock_val) {
                Some(src) => (src as i32, true),
                None => {
                    self.stats.divergences += 1;
                    (ANY_SOURCE, false)
                }
            }
        } else {
            (ANY_SOURCE, false)
        }
    }

    fn record_epoch(
        &mut self,
        comm: Comm,
        tag_spec: Tag,
        kind: NdKind,
        guided: bool,
        matched_src: Option<usize>,
    ) -> usize {
        // The epoch *id* is the pre-tick scalar (Algorithm 1 associates the
        // current LC with the event, then increments); the epoch *stamp* is
        // the event's timestamp — post-tick — so late analysis compares
        // against the receive event itself.
        let clock = self.clock.scalar();
        self.clock.tick();
        self.epochs.push(EpochRecord {
            rank: self.rank,
            clock,
            stamp: self.clock.stamp(),
            comm,
            tag_spec,
            kind,
            in_region: self.region_depth > 0,
            guided,
            matched_src,
            alternates: BTreeSet::new(),
        });
        self.stats.wildcards += 1;
        self.epochs.len() - 1
    }

    /// Non-deterministic receive (Algorithm 1, `MPI_Irecv` wildcard arm).
    fn nd_irecv(&mut self, comm: Comm, tag: Tag) -> Result<Request> {
        let (post_src, guided_flag) = self.nd_source();
        let req = self.inner.irecv(comm, post_src, tag)?;
        let epoch_idx = self.record_epoch(comm, tag, NdKind::Recv, guided_flag, None);
        self.track_recv(req, comm, Some(epoch_idx));
        self.monitor.nd_posted(req);
        Ok(req)
    }

    /// Register a posted receive for claim-time processing. A
    /// separate-message receive — named ones too — defers its piggyback for
    /// posting-ordered consumption: eagerly posting it pairs stamps by
    /// *shadow arrival* order, which diverges from payload pairing when a
    /// wildcard posted earlier on the same stream is still unclaimed (the
    /// mispairing fixed by `settle_earlier`).
    fn track_recv(&mut self, req: Request, comm: Comm, epoch_idx: Option<usize>) {
        let meta = match self.ctx.piggyback {
            PiggybackMechanism::SeparateMessage => {
                let seq = self.recv_seq;
                self.recv_seq += 1;
                self.posted_recvs.insert(seq, (req, comm));
                ReqMeta::RecvSep {
                    comm,
                    epoch_idx,
                    seq,
                }
            }
            PiggybackMechanism::PayloadPacking => ReqMeta::RecvPacked { comm, epoch_idx },
        };
        self.meta.insert(req, meta);
    }

    /// Consume one piggyback stamp from the shadow stream of the source
    /// and tag a completed receive actually matched.
    async fn take_pb_stamp(&mut self, comm: Comm, status: Status) -> Result<ClockStamp> {
        let shadow = self.shadow_of(comm)?;
        let (_, pbdata) = self
            .lower()
            .recv(shadow, status.source as i32, status.tag)
            .await?;
        Ok(pb::decode_stamp(&pbdata).0)
    }

    /// The `SeparateMessage` mispairing fix. Within one `(source, tag,
    /// comm)` stream the matcher hands payloads to compatible receives in
    /// *posting* order (non-overtaking), so the shadow piggyback stream —
    /// which arrives in send order — must be consumed in posting order
    /// too. Eagerly posting a named receive's piggyback irecv broke that
    /// whenever a wildcard posted earlier on the same stream was still
    /// unclaimed: the named receive stole the wildcard's stamp.
    ///
    /// Before a completing receive takes its own stamp, settle every
    /// earlier-posted receive on the same communicator the matcher has
    /// already completed: `test` it out of the runtime (non-consuming
    /// when incomplete — and an earlier-posted *incomplete* receive
    /// provably shares no stream with any already-matched payload, or the
    /// matcher would have picked it first), consume its piggyback, and
    /// park the result in `ready` for the application's own wait/test.
    async fn settle_earlier(&mut self, comm: Comm, before_seq: u64) -> Result<()> {
        let earlier: Vec<(u64, Request)> = self
            .posted_recvs
            .range(..before_seq)
            .filter(|(_, (_, c))| *c == comm)
            .map(|(s, (r, _))| (*s, *r))
            .collect();
        for (seq, req) in earlier {
            if let Some((status, data)) = self.lower().test(req).await? {
                self.posted_recvs.remove(&seq);
                let stamp = self.take_pb_stamp(comm, status).await?;
                self.ready.insert(req, (status, data, stamp));
            }
        }
        Ok(())
    }

    /// A `waitsome` took several receives out of the runtime in one call,
    /// in the order of the caller's list. Pair their stamps in *posting*
    /// order, whatever the list's order, and park them in `ready` for the
    /// caller's index-order claims. The whole batch leaves `posted_recvs`
    /// first: `settle_earlier` must not `test` a request the runtime no
    /// longer knows.
    async fn settle_batch(&mut self, reqs: &[Request], done: &Completed) -> Result<()> {
        let mut batch = Vec::new();
        for (i, status, data) in done.iter() {
            if let Some(ReqMeta::RecvSep { comm, seq, .. }) = self.meta.get(&reqs[*i]) {
                self.posted_recvs.remove(seq);
                batch.push((*seq, *comm, reqs[*i], *status, data.clone()));
            }
        }
        batch.sort_unstable_by_key(|(seq, ..)| *seq);
        for (seq, comm, req, status, data) in batch {
            self.settle_earlier(comm, seq).await?;
            let stamp = self.take_pb_stamp(comm, status).await?;
            self.ready.insert(req, (status, data, stamp));
        }
        Ok(())
    }

    /// Claim-time processing of a receive, shared by both piggyback
    /// mechanisms and by the direct-completion and force-completed (`ready`)
    /// paths: monitor commit, §V clock sync, epoch bookkeeping, stamp
    /// ingestion.
    fn finish_recv(
        &mut self,
        req: Request,
        status: Status,
        epoch_idx: Option<usize>,
        comm: Comm,
        stamp: &ClockStamp,
    ) -> Result<()> {
        self.monitor.nd_completed(req);
        self.sync_clocks();
        let mut matched_clock = None;
        if let Some(i) = epoch_idx {
            self.epochs[i].matched_src = Some(status.source);
            matched_clock = Some(self.epochs[i].clock);
        }
        self.ingest(stamp, status.source, status.tag, comm, matched_clock)
    }

    /// Serve a request force-completed by `settle_earlier`, applying the
    /// deferred clock effects now — the moment the application commits
    /// the completion, exactly where payload-packing mode applies them.
    fn claim_ready(&mut self, req: Request) -> Result<Option<(Status, Bytes)>> {
        let Some((status, data, stamp)) = self.ready.remove(&req) else {
            return Ok(None);
        };
        match self.meta.remove(&req) {
            Some(ReqMeta::RecvSep {
                comm, epoch_idx, ..
            }) => {
                self.finish_recv(req, status, epoch_idx, comm, &stamp)?;
                Ok(Some((status, data)))
            }
            _ => Err(MpiError::ToolProtocol {
                detail: "force-completed request lost its receive metadata".to_owned(),
            }),
        }
    }

    /// Consume an incoming stamp: `FindPotentialMatches` then clock merge.
    fn ingest(
        &mut self,
        stamp: &dampi_clocks::ClockStamp,
        src: usize,
        tag: Tag,
        comm: Comm,
        matched_epoch_clock: Option<u64>,
    ) -> Result<()> {
        let was_late = late::analyze_incoming(
            &mut self.epochs,
            self.ctx.clock_mode,
            stamp,
            src,
            tag,
            comm,
            matched_epoch_clock,
        );
        self.stats.messages_analyzed += 1;
        if was_late {
            self.stats.late_messages += 1;
        }
        // FindPotentialMatches scans the epoch log: its cost grows with
        // the number of wildcard receives recorded so far, which is why
        // wildcard-heavy codes (104.milc) pay far more than sparse ones
        // (Table II). Each comparison is O(1) for scalar Lamport clocks
        // but O(N) for vector clocks — the per-operation side of the
        // §II-C scalability argument.
        if !self.epochs.is_empty() {
            let words = match self.ctx.clock_mode {
                ClockMode::Lamport => 1.0,
                ClockMode::Vector => self.nprocs as f64,
            };
            let per_compare = self.ctx.analysis_cost * (1.0 + words / 16.0);
            self.inner.compute(per_compare * self.epochs.len() as f64)?;
        }
        self.clock.merge(stamp);
        if self.ctx.deferred_clock {
            self.xmit.merge(stamp);
        }
        Ok(())
    }

    /// Post-completion processing of one request the runtime just completed;
    /// leaves the application's payload in `data`.
    async fn after_completion(
        &mut self,
        req: Request,
        status: Status,
        data: &mut Bytes,
    ) -> Result<()> {
        match self.meta.remove(&req) {
            None | Some(ReqMeta::SendPacked) => Ok(()),
            Some(ReqMeta::SendPb(pb)) => self.lower().wait(pb).await.map(drop),
            Some(ReqMeta::RecvSep {
                comm,
                epoch_idx,
                seq,
            }) => {
                self.posted_recvs.remove(&seq);
                // §II-D: the source is now known, so the piggyback can be
                // received deterministically — after settling every
                // earlier-posted completed receive on this communicator,
                // so the shadow stream is consumed in posting order.
                self.settle_earlier(comm, seq).await?;
                let stamp = self.take_pb_stamp(comm, status).await?;
                self.finish_recv(req, status, epoch_idx, comm, &stamp)
            }
            Some(ReqMeta::RecvPacked { comm, epoch_idx }) => {
                let (stamp, payload) = pb::unpack(data);
                *data = payload;
                self.finish_recv(req, status, epoch_idx, comm, &stamp)
            }
        }
    }

    /// Merge the clock words a collective's members max-combined.
    ///
    /// Every collective exchanges clocks all-to-all. The paper (§II-E)
    /// exchanges them along each collective's *dataflow* (root-to-all for
    /// bcast/scatter, all-to-root for reduce/gather), which is sound for
    /// real MPI where a non-root gather may return before other
    /// participants enter. This simulator's collectives are a full
    /// rendezvous — every rank's exit happens-after every rank's entry — so
    /// the causal model must carry the matching all-to-all edges. Tracking
    /// only the dataflow edges under-orders post-collective sends against
    /// pre-collective wildcard receives, and the verifier then forces
    /// replays the runtime cannot realize, which surface as phantom
    /// deadlocks on clean programs (found by `dampi-cli fuzz`, seed 66).
    fn merge_collective_clock(&mut self, words: &[u64]) {
        let stamp = AnyClock::stamp_from_words(self.ctx.clock_mode, words);
        self.clock.merge(&stamp);
        if self.ctx.deferred_clock {
            self.xmit.merge(&stamp);
        }
    }

    fn adjust_probe(&self, info: ProbeInfo) -> ProbeInfo {
        match self.ctx.piggyback {
            PiggybackMechanism::SeparateMessage => info,
            PiggybackMechanism::PayloadPacking => ProbeInfo {
                len: info
                    .len
                    .saturating_sub(pb::stamp_wire_bytes(self.ctx.clock_mode, self.nprocs)),
                ..info
            },
        }
    }
}

impl<M: Mpi> Mpi for DampiLayer<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }

    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.transmit_guard();
        self.stats.pb_messages += 1;
        match self.ctx.piggyback {
            PiggybackMechanism::SeparateMessage => {
                let req = self.inner.isend(comm, dest, tag, data)?;
                let stamp = pb::encode_stamp(&self.xmit_stamp());
                self.stats.pb_wire_bytes += stamp.len() as u64;
                let shadow = self.shadow_of(comm)?;
                let pbr = self.inner.isend(shadow, dest, tag, stamp)?;
                self.meta.insert(req, ReqMeta::SendPb(pbr));
                Ok(req)
            }
            PiggybackMechanism::PayloadPacking => {
                let packed = pb::pack(&self.xmit_stamp(), &data);
                // The stamp frame is the packing overhead on the wire.
                self.stats.pb_wire_bytes += (packed.len() - data.len()) as u64;
                let req = self.inner.isend(comm, dest, tag, packed)?;
                self.meta.insert(req, ReqMeta::SendPacked);
                Ok(req)
            }
        }
    }

    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        if src == ANY_SOURCE {
            return self.nd_irecv(comm, tag);
        }
        let req = self.inner.irecv(comm, src, tag)?;
        self.track_recv(req, comm, None);
        Ok(req)
    }

    fn complete<'a>(&'a mut self, reqs: &'a [Request], how: Completion) -> Waist<'a, Completed> {
        Box::pin(async move {
            if self.ready.is_empty() || !reqs.iter().any(|r| self.ready.contains_key(r)) {
                let mut done = self.inner.complete(reqs, how).await?;
                if how.takes_all() {
                    self.settle_batch(reqs, &done).await?;
                }
                for (i, status, data) in done.iter_mut() {
                    if self.ready.is_empty() || self.claim_ready(reqs[*i])?.is_none() {
                        self.after_completion(reqs[*i], *status, data).await?;
                    }
                }
                return Ok(done);
            }
            // A request force-completed by piggyback sequencing is
            // immediately available, but the runtime no longer knows it:
            // mirror the runtime's index-order scan across the mix of parked
            // and live requests.
            let mut done = Completed::default();
            for (i, r) in reqs.iter().enumerate() {
                let (status, data) = match self.claim_ready(*r)? {
                    Some(parked) => parked,
                    None => match self.lower().test(*r).await? {
                        Some((status, mut data)) => {
                            self.after_completion(*r, status, &mut data).await?;
                            (status, data)
                        }
                        None => continue,
                    },
                };
                done.push((i, status, data));
                if !how.takes_all() {
                    break;
                }
            }
            Ok(done)
        })
    }

    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Waist<'_, Option<ProbeInfo>> {
        Box::pin(async move {
            let hit = if src == ANY_SOURCE {
                let (post_src, guided_flag) = self.nd_source();
                let hit = self.inner.probe_for(comm, post_src, tag, blocking).await?;
                // §II-E: only record when the flag says a message is ready.
                if let Some(info) = hit {
                    self.record_epoch(comm, tag, NdKind::Probe, guided_flag, Some(info.src));
                    // A probe commits its match immediately: synchronize now.
                    self.sync_clocks();
                }
                hit
            } else {
                self.inner.probe_for(comm, src, tag, blocking).await?
            };
            Ok(hit.map(|info| self.adjust_probe(info)))
        })
    }

    fn collective<'a>(
        &'a mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &'a mut Rider,
    ) -> Waist<'a, CollOutcome> {
        self.transmit_guard();
        // The clock exchange and the shadow communicators (§II-D: one for
        // each communicator of the program, made where there is collective
        // context) ride the application's own rendezvous.
        rider.clock = AnyClock::stamp_words(&self.xmit_stamp());
        if self.ctx.piggyback == PiggybackMechanism::SeparateMessage {
            rider.shadow = match sig {
                CollSig::CommDup | CollSig::CommSplit => Shadow::Create,
                CollSig::CommFree => self
                    .shadow
                    .get(&comm)
                    .map_or(Shadow::None, |&sh| Shadow::Free(sh)),
                _ => Shadow::None,
            };
        }
        Box::pin(async move {
            let out = self
                .inner
                .collective(comm, sig, contribution, rider)
                .await?;
            self.merge_collective_clock(&rider.clock);
            if let CollOutcome::Comm(app) = out {
                self.known_comms.insert(app);
                if let Shadow::Created(Some(sh)) = rider.shadow {
                    self.shadow.insert(app, sh);
                }
            } else if sig == CollSig::CommFree {
                self.known_comms.remove(&comm);
                self.shadow.remove(&comm);
            }
            Ok(out)
        })
    }

    fn shadow_world(&mut self) -> Waist<'_, Comm> {
        self.inner.shadow_world()
    }

    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()> {
        self.inner.release_shadow_world(shadow)
    }

    fn pcontrol(&mut self, code: i32) -> Result<()> {
        match code {
            PCONTROL_LOOP_BEGIN => self.region_depth += 1,
            PCONTROL_LOOP_END => self.region_depth = self.region_depth.saturating_sub(1),
            _ => {}
        }
        self.inner.pcontrol(code)
    }

    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.inner.compute(seconds)
    }

    fn finalize(&mut self) -> Waist<'_, ()> {
        Box::pin(async move {
            // Sends that never matched a receive still *impinge* on their
            // destination and are potential matches for its epochs (§II-B,
            // and the paper's Fig. 3, where the alternate sender's message
            // is never received in the SELF_RUN). Synchronize so every
            // pre-finalize send has arrived, then drain and analyze pending
            // messages.
            self.lower().barrier(Comm::WORLD).await?;
            let comms: Vec<Comm> = self.known_comms.iter().copied().collect();
            for comm in comms {
                while let Some(info) = self.lower().iprobe(comm, ANY_SOURCE, ANY_TAG).await? {
                    let (status, data) = self.lower().recv(comm, info.src as i32, info.tag).await?;
                    let stamp = match self.ctx.piggyback {
                        PiggybackMechanism::SeparateMessage => {
                            self.take_pb_stamp(comm, status).await?
                        }
                        PiggybackMechanism::PayloadPacking => pb::unpack(&data).0,
                    };
                    self.ingest(&stamp, info.src, info.tag, comm, None)?;
                    self.stats.drained_messages += 1;
                }
            }
            // Give up the remaining shadow communicators so tool-created
            // ones never pollute the application's C-leak census: the
            // world's by release, then those of communicators the
            // application leaked by a collective free (deterministic order
            // — every rank iterates the same BTreeMap keys).
            if let Some(sh) = self.shadow.remove(&Comm::WORLD) {
                self.inner.release_shadow_world(sh)?;
            }
            for sh in std::mem::take(&mut self.shadow).into_values() {
                self.lower().comm_free(sh).await?;
            }
            self.submit_trace();
            self.inner.finalize().await
        })
    }
}

impl<M: Mpi> DampiLayer<M> {
    /// Hand the epoch log and stats to the collector (idempotent).
    fn submit_trace(&mut self) {
        if self.submitted {
            return;
        }
        self.submitted = true;
        // Final epoch hygiene: the matched source is not an alternate.
        for e in &mut self.epochs {
            if let Some(m) = e.matched_src {
                e.alternates.remove(&m);
            }
        }
        self.stats.unsafe_alerts = self.monitor.alerts();
        self.ctx
            .collector
            .submit(std::mem::take(&mut self.epochs), self.stats);
    }
}

impl<M: Mpi> Drop for DampiLayer<M> {
    fn drop(&mut self) {
        // A rank that errored or panicked never reaches `finalize`, but its
        // epoch log still describes real non-determinism the scheduler must
        // branch on — the buggy interleaving may be the SELF_RUN itself, and
        // dropping the log would silently prune every alternate reachable
        // from it. Flush here as a fallback; `finalize` already set the
        // flag on the happy path. (No MPI calls — the world may be dead.)
        self.submit_trace();
    }
}
