//! The ISP central scheduler.
//!
//! Every MPI call of every rank performs a synchronous transaction here
//! (paper §II-A: "each MPI call involves a synchronous communication
//! between the MPI process and the scheduler"). Two consequences, both
//! reproduced:
//!
//! * **Cost** — transactions serialize on one virtual clock
//!   ([`dampi_mpi::vtime::CentralClock`]); with total MPI op counts growing
//!   super-linearly in process count (Table I), this is the bottleneck that
//!   produces Fig. 5's exploding curve.
//! * **Precision** — the scheduler sees everything, so it maintains exact
//!   vector clocks per rank, a complete message log, and epoch records with
//!   vector-precise late analysis. Unlike DAMPI it needs no piggyback
//!   messages and never misses a cross-coupled match (§II-F) — at the cost
//!   of the architecture that cannot scale.

use std::collections::{BTreeSet, HashMap, VecDeque};

use dampi_clocks::{ClockMode, ClockStamp, LogicalClock, VectorClock};
use dampi_mpi::vtime::{CentralClock, VTimeParams};
use dampi_mpi::{Comm, Tag};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::epoch::{EpochRecord, NdKind, ToolRunStats};
use crate::late;

#[derive(Debug)]
struct SendRec {
    stamp: Vec<u64>,
    src_crank: usize,
}

#[derive(Debug)]
struct CollGather {
    /// (world rank, pre-collective vector) per contributor.
    contributions: Vec<(usize, Vec<u64>)>,
    expected: usize,
}

#[derive(Debug)]
struct SchedInner {
    clock: CentralClock,
    params: VTimeParams,
    vcs: Vec<VectorClock>,
    nd_counters: Vec<u64>,
    epochs: Vec<EpochRecord>,
    /// (comm, src world, dst world, tag) → pending sends in order.
    send_log: HashMap<(Comm, usize, usize, Tag), VecDeque<SendRec>>,
    /// In-flight collective gathers per communicator.
    colls: HashMap<Comm, CollGather>,
    stats: ToolRunStats,
}

/// The central scheduler shared by every rank's [`super::IspLayer`].
#[derive(Debug)]
pub struct IspScheduler {
    nprocs: usize,
    inner: Mutex<SchedInner>,
}

impl IspScheduler {
    /// Scheduler for an `nprocs`-rank job.
    #[must_use]
    pub fn new(nprocs: usize, params: VTimeParams) -> Arc<Self> {
        Arc::new(Self {
            nprocs,
            inner: Mutex::new(SchedInner {
                clock: CentralClock::new(),
                params,
                vcs: (0..nprocs).map(|r| VectorClock::new(r, nprocs)).collect(),
                nd_counters: vec![0; nprocs],
                epochs: Vec::new(),
                send_log: HashMap::new(),
                colls: HashMap::new(),
                stats: ToolRunStats::default(),
            }),
        })
    }

    /// One synchronous scheduler transaction: serialize on the central
    /// clock and return the caller's new local virtual time.
    pub fn transact(&self, caller_vt: f64) -> f64 {
        let mut g = self.inner.lock();
        let params = g.params;
        g.clock.transact(caller_vt, &params)
    }

    /// Total transactions processed (diagnostics).
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.inner.lock().clock.transactions()
    }

    /// Fold a rank's replay-divergence count into the run stats.
    pub fn report_divergences(&self, count: u64) {
        self.inner.lock().stats.divergences += count;
    }

    /// A send was issued: log it with the sender's current vector stamp.
    pub fn on_send(
        &self,
        src_world: usize,
        src_crank: usize,
        dst_world: usize,
        comm: Comm,
        tag: Tag,
    ) {
        let mut g = self.inner.lock();
        let stamp = g.vcs[src_world].components().to_vec();
        g.send_log
            .entry((comm, src_world, dst_world, tag))
            .or_default()
            .push_back(SendRec { stamp, src_crank });
    }

    /// A wildcard receive/probe was posted: open an epoch. Returns the
    /// per-rank epoch counter (the Epoch Decisions key for ISP).
    pub fn on_nd_post(
        &self,
        world_rank: usize,
        comm: Comm,
        tag_spec: Tag,
        kind: NdKind,
        guided: bool,
        matched_src: Option<usize>,
    ) -> u64 {
        let mut g = self.inner.lock();
        let counter = g.nd_counters[world_rank];
        g.nd_counters[world_rank] += 1;
        g.vcs[world_rank].tick();
        let stamp = ClockStamp::Vector(g.vcs[world_rank].components().to_vec());
        g.epochs.push(EpochRecord {
            rank: world_rank,
            clock: counter,
            stamp,
            comm,
            tag_spec,
            kind,
            in_region: false,
            guided,
            matched_src,
            alternates: BTreeSet::new(),
        });
        g.stats.wildcards += 1;
        counter
    }

    /// A receive completed: pair it with the sender's logged stamp
    /// (non-overtaking: first unconsumed send of the stream), run exact
    /// late analysis, merge vector clocks, and bind the epoch's match.
    pub fn on_recv_complete(
        &self,
        dst_world: usize,
        comm: Comm,
        src_world: usize,
        src_crank: usize,
        tag: Tag,
        epoch_counter: Option<u64>,
    ) {
        let mut g = self.inner.lock();
        let rec = g
            .send_log
            .get_mut(&(comm, src_world, dst_world, tag))
            .and_then(VecDeque::pop_front);
        let stamp_words = match rec {
            Some(r) => r.stamp,
            // A send the layer did not report (should not happen) — fall
            // back to the sender's current clock.
            None => g.vcs[src_world].components().to_vec(),
        };
        if let Some(counter) = epoch_counter {
            if let Some(e) = g
                .epochs
                .iter_mut()
                .find(|e| e.rank == dst_world && e.clock == counter)
            {
                e.matched_src = Some(src_crank);
            }
        }
        let stamp = ClockStamp::Vector(stamp_words);
        let mut epochs = std::mem::take(&mut g.epochs);
        let dst_epochs: Vec<usize> = (0..epochs.len())
            .filter(|&i| epochs[i].rank == dst_world)
            .collect();
        let mut late_hit = false;
        {
            // Analyze only this destination's epochs.
            let mut view: Vec<EpochRecord> =
                dst_epochs.iter().map(|&i| epochs[i].clone()).collect();
            late_hit = late::analyze_incoming(
                &mut view,
                ClockMode::Vector,
                &stamp,
                src_crank,
                tag,
                comm,
                epoch_counter,
            ) || late_hit;
            for (slot, updated) in dst_epochs.iter().zip(view) {
                epochs[*slot] = updated;
            }
        }
        g.epochs = epochs;
        if late_hit {
            g.stats.late_messages += 1;
        }
        g.vcs[dst_world].merge(&stamp);
    }

    /// A rank is entering a collective: deposit its pre-collective vector.
    /// When the last member deposits, every contributor merges the
    /// elementwise maximum — one all-to-all exchange whatever the
    /// operation, matching the runtime's rendezvous and the clock words
    /// DAMPI rides on it. Must be called *before* the rank enters the
    /// underlying collective so contributions are pre-collective values.
    pub fn on_collective(&self, world_rank: usize, comm: Comm, comm_size: usize) {
        let mut g = self.inner.lock();
        let vec = g.vcs[world_rank].components().to_vec();
        let gather = g.colls.entry(comm).or_insert_with(|| CollGather {
            contributions: Vec::with_capacity(comm_size),
            expected: comm_size,
        });
        gather.contributions.push((world_rank, vec));
        if gather.contributions.len() == gather.expected {
            let gather = g.colls.remove(&comm).expect("just inserted");
            let merged: Vec<u64> = (0..self.nprocs)
                .map(|i| {
                    gather
                        .contributions
                        .iter()
                        .map(|(_, v)| v[i])
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            let merged = ClockStamp::Vector(merged);
            for (wr, _) in &gather.contributions {
                g.vcs[*wr].merge(&merged);
            }
        }
    }

    /// End of run: analyze every *unconsumed* logged send against its
    /// destination's epochs (the central analog of DAMPI's finalize-time
    /// drain), then return the epoch log and stats.
    pub fn collect(&self) -> (Vec<EpochRecord>, ToolRunStats) {
        let mut g = self.inner.lock();
        type StreamKey = (Comm, usize, usize, Tag);
        let leftovers: Vec<(StreamKey, Vec<SendRec>)> = g
            .send_log
            .drain()
            .map(|(k, q)| (k, q.into_iter().collect()))
            .collect();
        let mut epochs = std::mem::take(&mut g.epochs);
        for ((comm, _src_world, dst_world, tag), recs) in leftovers {
            for rec in recs {
                let stamp = ClockStamp::Vector(rec.stamp);
                let mut view: Vec<EpochRecord> = epochs
                    .iter()
                    .filter(|e| e.rank == dst_world)
                    .cloned()
                    .collect();
                if late::analyze_incoming(
                    &mut view,
                    ClockMode::Vector,
                    &stamp,
                    rec.src_crank,
                    tag,
                    comm,
                    None,
                ) {
                    g.stats.drained_messages += 1;
                }
                let mut vi = view.into_iter();
                for e in epochs.iter_mut().filter(|e| e.rank == dst_world) {
                    *e = vi.next().expect("same filter");
                }
            }
        }
        // Final hygiene: matched sources are not alternates.
        for e in &mut epochs {
            if let Some(m) = e.matched_src {
                e.alternates.remove(&m);
            }
        }
        let stats = g.stats;
        (epochs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(n: usize) -> Arc<IspScheduler> {
        IspScheduler::new(n, VTimeParams::default())
    }

    #[test]
    fn transactions_serialize_time() {
        let s = sched(2);
        let t1 = s.transact(0.0);
        let t2 = s.transact(0.0);
        assert!(t2 > t1);
        assert_eq!(s.transactions(), 2);
    }

    #[test]
    fn send_recv_updates_vector_clocks_and_epochs() {
        let s = sched(3);
        // Rank 1 posts a wildcard (epoch 0), ticking its VC.
        let c = s.on_nd_post(1, Comm::WORLD, 0, NdKind::Recv, false, None);
        assert_eq!(c, 0);
        // Ranks 0 and 2 send to rank 1 concurrently.
        s.on_send(0, 0, 1, Comm::WORLD, 0);
        s.on_send(2, 2, 1, Comm::WORLD, 0);
        // Rank 1's receive completes from rank 0.
        s.on_recv_complete(1, Comm::WORLD, 0, 0, 0, Some(0));
        // Rank 2's message arrives via a second (deterministic) receive.
        s.on_recv_complete(1, Comm::WORLD, 2, 2, 0, None);
        let (epochs, stats) = s.collect();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].matched_src, Some(0));
        assert!(epochs[0].alternates.contains(&2), "{epochs:?}");
        assert_eq!(stats.wildcards, 1);
    }

    #[test]
    fn unreceived_sends_analyzed_at_collect() {
        let s = sched(3);
        s.on_nd_post(1, Comm::WORLD, 0, NdKind::Recv, false, None);
        s.on_send(0, 0, 1, Comm::WORLD, 0);
        s.on_send(2, 2, 1, Comm::WORLD, 0);
        s.on_recv_complete(1, Comm::WORLD, 0, 0, 0, Some(0));
        // Rank 2's message is never received — collect must still see it.
        let (epochs, stats) = s.collect();
        assert!(epochs[0].alternates.contains(&2));
        assert_eq!(stats.drained_messages, 1);
    }

    #[test]
    fn causally_after_send_not_an_alternate() {
        let s = sched(2);
        s.on_nd_post(1, Comm::WORLD, 0, NdKind::Recv, false, None);
        s.on_send(0, 0, 1, Comm::WORLD, 0);
        s.on_recv_complete(1, Comm::WORLD, 0, 0, 0, Some(0));
        // Rank 1 replies to 0; rank 0's next send is causally after the
        // epoch and must not become an alternate.
        s.on_send(1, 1, 0, Comm::WORLD, 1);
        s.on_recv_complete(0, Comm::WORLD, 1, 1, 1, None);
        s.on_send(0, 0, 1, Comm::WORLD, 0);
        s.on_recv_complete(1, Comm::WORLD, 0, 0, 0, None);
        let (epochs, _) = s.collect();
        assert!(
            epochs[0].alternates.is_empty(),
            "reply chain is causally after: {epochs:?}"
        );
    }

    #[test]
    fn collective_allmax_merges_everyone() {
        let s = sched(2);
        // Rank 1 ticks via an epoch, then both enter a barrier.
        s.on_nd_post(1, Comm::WORLD, 0, NdKind::Recv, false, Some(0));
        s.on_collective(0, Comm::WORLD, 2);
        s.on_collective(1, Comm::WORLD, 2);
        // Rank 0 now knows rank 1's tick: a send from rank 0 is causally
        // after the epoch.
        s.on_send(0, 0, 1, Comm::WORLD, 0);
        s.on_recv_complete(1, Comm::WORLD, 0, 0, 0, None);
        let (epochs, _) = s.collect();
        assert!(epochs[0].alternates.is_empty(), "{epochs:?}");
    }
}
