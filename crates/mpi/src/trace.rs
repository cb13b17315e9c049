//! Event-trace recording layer.
//!
//! Records every MPI call a rank makes — operation, arguments, virtual
//! time — into a shared collector, in the spirit of the trace-based tools
//! the paper's related work discusses (ScalaTrace, MPIWiz). Those tools
//! can only *replay the observed schedule*; DAMPI derives and enforces
//! alternate schedules. The trace layer is therefore a diagnostic
//! companion, not a verifier: stack it above `DampiLayer` to see exactly
//! what the program did in the interleaving that exposed a bug.

use parking_lot::Mutex;
use std::sync::Arc;

use bytes::Bytes;

use crate::collective::{CollOutcome, CollSig, Contribution, Rider};
use crate::comm::Comm;
use crate::error::Result;
use crate::matching::ProbeInfo;
use crate::proc_api::{Completed, Completion, Mpi, Pmpi};
use crate::request::Request;
use crate::types::{fnv1a64, Tag};

/// One recorded MPI event.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceEvent {
    /// World rank that issued the call.
    pub rank: usize,
    /// Per-rank event sequence number.
    pub seq: u64,
    /// Rank-local virtual time when the call was issued.
    pub vt: f64,
    /// The operation and its interesting arguments.
    pub op: TraceOp,
}

/// Content identity of a message payload (FNV-1a over the bytes).
///
/// Recorded alongside the length on every traced send: any analysis that
/// treats two sends as interchangeable must compare what was *sent*, not
/// just how much — two equal-length payloads with different contents can
/// steer the receiver into different behavior (the Fig. 3 bug is exactly
/// a payload-value assert).
#[must_use]
pub fn payload_digest(data: &[u8]) -> u64 {
    fnv1a64(data)
}

/// Operation variants captured by the trace.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[allow(missing_docs)]
pub enum TraceOp {
    Isend {
        comm: u32,
        dest: i32,
        tag: Tag,
        bytes: usize,
        digest: u64,
    },
    Irecv {
        comm: u32,
        src: i32,
        tag: Tag,
    },
    Wait {
        completed_source: usize,
        tag: Tag,
    },
    Test {
        completed: bool,
    },
    Probe {
        comm: u32,
        src: i32,
        tag: Tag,
        hit_source: usize,
    },
    Iprobe {
        comm: u32,
        src: i32,
        tag: Tag,
        hit: bool,
    },
    Collective {
        comm: u32,
        name: std::borrow::Cow<'static, str>,
    },
    CommDup {
        parent: u32,
        result: u32,
    },
    CommSplit {
        parent: u32,
        color: i64,
        member: bool,
        /// Ordering key the rank passed (serde-defaulted so pre-existing
        /// traces still parse).
        #[serde(default)]
        key: i64,
        /// Id of the communicator this rank received, `None` when the
        /// rank opted out (negative color). Lets offline analysis rebuild
        /// derived-comm membership; serde-defaulted for old traces.
        #[serde(default)]
        result: Option<u32>,
    },
    CommFree {
        comm: u32,
    },
    Pcontrol {
        code: i32,
    },
    Finalize,
}

/// Thread-safe trace sink shared by per-rank [`TraceLayer`]s.
#[derive(Debug, Default)]
pub struct TraceCollector {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceCollector {
    /// Fresh collector behind an `Arc`.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn push(&self, ev: TraceEvent) {
        self.events.lock().push(ev);
    }

    /// Drain the recorded events, ordered by (rank, seq).
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut evs = std::mem::take(&mut *self.events.lock());
        evs.sort_by_key(|e| (e.rank, e.seq));
        evs
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Serialize the trace as JSON Lines (one event per line).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.take()
            .iter()
            .map(|e| serde_json::to_string(e).expect("trace events serialize"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The recording layer for one rank.
pub struct TraceLayer<M: Mpi> {
    inner: M,
    collector: Arc<TraceCollector>,
    rank: usize,
    seq: u64,
}

impl<M: Mpi> TraceLayer<M> {
    /// Wrap `inner`, recording into `collector`.
    pub fn new(inner: M, collector: Arc<TraceCollector>) -> Self {
        let rank = inner.world_rank();
        Self {
            inner,
            collector,
            rank,
            seq: 0,
        }
    }

    fn record(&mut self, op: TraceOp) {
        let ev = TraceEvent {
            rank: self.rank,
            seq: self.seq,
            vt: self.inner.now(),
            op,
        };
        self.seq += 1;
        self.collector.push(ev);
    }
}

impl<M: Mpi> Mpi for TraceLayer<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }
    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.record(TraceOp::Isend {
            comm: comm.0,
            dest,
            tag,
            bytes: data.len(),
            digest: payload_digest(&data),
        });
        self.inner.isend(comm, dest, tag, data)
    }
    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.record(TraceOp::Irecv {
            comm: comm.0,
            src,
            tag,
        });
        self.inner.irecv(comm, src, tag)
    }
    fn complete(&mut self, reqs: &[Request], how: Completion) -> Result<Completed> {
        let done = self.inner.complete(reqs, how)?;
        if how.blocking() {
            for (_, status, _) in done.iter() {
                self.record(TraceOp::Wait {
                    completed_source: status.source,
                    tag: status.tag,
                });
            }
        } else {
            self.record(TraceOp::Test {
                completed: !done.is_empty(),
            });
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
        let hit = self.inner.probe_for(comm, src, tag, blocking)?;
        let comm = comm.0;
        self.record(match hit {
            Some(info) if blocking => TraceOp::Probe {
                comm,
                src,
                tag,
                hit_source: info.src,
            },
            _ => TraceOp::Iprobe {
                comm,
                src,
                tag,
                hit: hit.is_some(),
            },
        });
        Ok(hit)
    }
    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &mut Rider,
    ) -> Result<CollOutcome> {
        let parent = comm.0;
        // A new communicator is recorded with its result, once it has one.
        let made = |out: &CollOutcome| match out {
            CollOutcome::Comm(c) => Some(c.0),
            _ => None,
        };
        match (sig, &contribution) {
            (CollSig::CommDup, _) => {
                let out = self.inner.collective(comm, sig, contribution, rider)?;
                if let Some(result) = made(&out) {
                    self.record(TraceOp::CommDup { parent, result });
                }
                Ok(out)
            }
            (CollSig::CommSplit, &Contribution::Split { color, key }) => {
                let out = self.inner.collective(comm, sig, contribution, rider)?;
                let result = made(&out);
                self.record(TraceOp::CommSplit {
                    parent,
                    color,
                    member: result.is_some(),
                    key,
                    result,
                });
                Ok(out)
            }
            _ => {
                self.record(match sig {
                    CollSig::CommFree => TraceOp::CommFree { comm: parent },
                    _ => TraceOp::Collective {
                        comm: parent,
                        name: sig.name().into(),
                    },
                });
                self.inner.collective(comm, sig, contribution, rider)
            }
        }
    }
    fn shadow_world(&mut self) -> Result<Comm> {
        self.inner.shadow_world()
    }
    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()> {
        self.inner.release_shadow_world(shadow)
    }
    fn pcontrol(&mut self, code: i32) -> Result<()> {
        self.record(TraceOp::Pcontrol { code });
        self.inner.pcontrol(code)
    }
    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.inner.compute(seconds)
    }
    fn finalize(&mut self) -> Result<()> {
        self.record(TraceOp::Finalize);
        self.inner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FnProgram;
    use crate::runtime::{run_with_layers, SimConfig};
    use crate::{ANY_SOURCE, ANY_TAG};

    fn traced_run(
        n: usize,
        prog: impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync,
    ) -> Vec<TraceEvent> {
        let collector = TraceCollector::new();
        let c2 = Arc::clone(&collector);
        let out = run_with_layers(&SimConfig::new(n), &FnProgram(prog), &move |_, pmpi| {
            Ok(Box::new(TraceLayer::new(pmpi, Arc::clone(&c2))))
        });
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        collector.take()
    }

    #[test]
    fn records_point_to_point_and_collectives() {
        let events = traced_run(2, |mpi| {
            if mpi.world_rank() == 0 {
                mpi.send(Comm::WORLD, 1, 7, Bytes::from_static(b"abc"))?;
            } else {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, ANY_TAG)?;
            }
            mpi.barrier(Comm::WORLD)
        });
        assert!(events.iter().any(|e| matches!(
            e.op,
            TraceOp::Isend {
                dest: 1,
                tag: 7,
                bytes: 3,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e.op,
            TraceOp::Irecv {
                src: ANY_SOURCE,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e.op,
            TraceOp::Wait {
                completed_source: 0,
                ..
            }
        )));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(&e.op, TraceOp::Collective { name, .. } if name == "barrier"))
                .count(),
            2,
            "one barrier record per rank"
        );
    }

    #[test]
    fn per_rank_sequence_is_monotone() {
        let events = traced_run(3, |mpi| {
            mpi.barrier(Comm::WORLD)?;
            mpi.barrier(Comm::WORLD)?;
            mpi.barrier(Comm::WORLD)
        });
        for rank in 0..3 {
            let seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.rank == rank)
                .map(|e| e.seq)
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        }
    }

    #[test]
    fn jsonl_export_parses_back() {
        let collector = TraceCollector::new();
        let c2 = Arc::clone(&collector);
        let prog = FnProgram(|mpi: &mut dyn Mpi| mpi.barrier(Comm::WORLD));
        let out = run_with_layers(&SimConfig::new(2), &prog, &move |_, pmpi| {
            Ok(Box::new(TraceLayer::new(pmpi, Arc::clone(&c2))))
        });
        assert!(out.succeeded());
        // take() drains; re-record via a fresh run for the export test.
        let collector2 = TraceCollector::new();
        let c3 = Arc::clone(&collector2);
        let out = run_with_layers(&SimConfig::new(2), &prog, &move |_, pmpi| {
            Ok(Box::new(TraceLayer::new(pmpi, Arc::clone(&c3))))
        });
        assert!(out.succeeded());
        let jsonl = collector2.to_jsonl();
        let parsed: Vec<TraceEvent> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        // barrier + finalize per rank.
        assert_eq!(parsed.len(), 4);
    }

    #[test]
    fn comm_lifecycle_recorded() {
        let events = traced_run(2, |mpi| {
            let d = mpi.comm_dup(Comm::WORLD)?;
            mpi.comm_free(d)
        });
        assert!(events
            .iter()
            .any(|e| matches!(e.op, TraceOp::CommDup { parent: 0, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.op, TraceOp::CommFree { .. })));
    }
}
