//! Blocking collective operations: rendezvous slots and data combination.
//!
//! MPI requires all ranks of a communicator to call the *same* collective;
//! it does not require synchronous completion. The simulator implements
//! collectives as generation-counted rendezvous: ranks deposit
//! contributions, the last arrival combines them, and every rank leaves with
//! its per-rank outcome. Calling mismatched collectives concurrently on one
//! communicator is detected and reported as an error — itself a useful MPI
//! verification check.

use std::collections::HashMap;

use bytes::Bytes;

use crate::error::{MpiError, Result};

/// Reduction operator for `reduce`/`allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum (what DAMPI's clock exchange uses: `MPI_MAX`).
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    fn apply_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// Signature of a collective call, compared across ranks to detect
/// mismatched collectives (different operation, root, or reduction op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollSig {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast` from `root`.
    Bcast {
        /// Root comm rank.
        root: usize,
    },
    /// `MPI_Reduce` of u64 vectors to `root`.
    ReduceU64 {
        /// Root comm rank.
        root: usize,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// `MPI_Allreduce` of u64 vectors.
    AllreduceU64 {
        /// Reduction operator.
        op: ReduceOp,
    },
    /// `MPI_Reduce` of f64 vectors to `root`.
    ReduceF64 {
        /// Root comm rank.
        root: usize,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// `MPI_Allreduce` of f64 vectors.
    AllreduceF64 {
        /// Reduction operator.
        op: ReduceOp,
    },
    /// `MPI_Gather` to `root`.
    Gather {
        /// Root comm rank.
        root: usize,
    },
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Scatter` from `root`.
    Scatter {
        /// Root comm rank.
        root: usize,
    },
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Comm_dup` (collective over the parent).
    CommDup,
    /// `MPI_Comm_split` (collective over the parent).
    CommSplit,
    /// `MPI_Comm_free` (collective over the freed communicator).
    CommFree,
}

impl CollSig {
    /// Operation name as trace layers record it. The strings are a contract
    /// for `.protocol` specs, lint L001 and the analysis digests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CollSig::Barrier => "barrier",
            CollSig::Bcast { .. } => "bcast",
            CollSig::ReduceU64 { .. } => "reduce_u64",
            CollSig::AllreduceU64 { .. } => "allreduce_u64",
            CollSig::ReduceF64 { .. } => "reduce_f64",
            CollSig::AllreduceF64 { .. } => "allreduce_f64",
            CollSig::Gather { .. } => "gather",
            CollSig::Allgather => "allgather",
            CollSig::Scatter { .. } => "scatter",
            CollSig::Alltoall => "alltoall",
            CollSig::CommDup => "comm_dup",
            CollSig::CommSplit => "comm_split",
            CollSig::CommFree => "comm_free",
        }
    }

    /// Root comm rank of the rooted collectives, `None` for the rest.
    #[must_use]
    pub fn root(self) -> Option<usize> {
        match self {
            CollSig::Bcast { root }
            | CollSig::ReduceU64 { root, .. }
            | CollSig::ReduceF64 { root, .. }
            | CollSig::Gather { root }
            | CollSig::Scatter { root } => Some(root),
            _ => None,
        }
    }

    /// True for the communicator-management collectives, which the typed
    /// `comm_dup`/`comm_split`/`comm_free` own and the runtime combines.
    #[must_use]
    pub fn is_comm_management(self) -> bool {
        matches!(
            self,
            CollSig::CommDup | CollSig::CommSplit | CollSig::CommFree
        )
    }
}

/// Per-rank input to a collective.
#[derive(Debug, Clone)]
pub enum Contribution {
    /// No data (barrier, non-root bcast/scatter, comm ops).
    None,
    /// Byte payload (bcast root, gather/allgather element).
    Bytes(Bytes),
    /// u64 vector (reductions, clock exchange).
    U64s(Vec<u64>),
    /// f64 vector (reductions).
    F64s(Vec<f64>),
    /// Per-destination byte payloads (alltoall; scatter root).
    BytesVec(Vec<Bytes>),
    /// `comm_split` arguments.
    Split {
        /// Color: ranks with equal non-negative colors share a new
        /// communicator; negative means `MPI_UNDEFINED` (no membership).
        color: i64,
        /// Key: ordering of ranks within the new communicator.
        key: i64,
    },
}

/// Per-rank result of a collective.
#[derive(Debug, Clone)]
pub enum CollOutcome {
    /// No data returned.
    None,
    /// Byte payload.
    Bytes(Bytes),
    /// u64 vector.
    U64s(Vec<u64>),
    /// f64 vector.
    F64s(Vec<f64>),
    /// Vector of byte payloads (gather/allgather/alltoall).
    BytesVec(Vec<Bytes>),
    /// New communicator handle (dup/split).
    Comm(crate::comm::Comm),
    /// `comm_split` with `MPI_UNDEFINED` color: caller is in no new comm.
    NoComm,
}

/// Combine deposited contributions into per-rank outcomes for the
/// *data-movement* collectives. Communicator-management collectives
/// (dup/split/free) are combined by the runtime, which owns the comm table.
pub fn combine(sig: CollSig, contribs: &[Contribution]) -> Result<Vec<CollOutcome>> {
    let n = contribs.len();
    let mismatch = |detail: &str| -> MpiError {
        MpiError::CollectiveMismatch {
            detail: detail.to_owned(),
        }
    };
    match sig {
        CollSig::Barrier => Ok(vec![CollOutcome::None; n]),
        CollSig::Bcast { root } => {
            let data = match contribs.get(root) {
                Some(Contribution::Bytes(b)) => b.clone(),
                _ => return Err(mismatch("bcast root contributed no bytes")),
            };
            Ok((0..n).map(|_| CollOutcome::Bytes(data.clone())).collect())
        }
        CollSig::ReduceU64 { .. } | CollSig::AllreduceU64 { .. } => {
            let op = match sig {
                CollSig::ReduceU64 { op, .. } | CollSig::AllreduceU64 { op } => op,
                _ => unreachable!(),
            };
            let vecs: Vec<&Vec<u64>> = contribs
                .iter()
                .map(|c| match c {
                    Contribution::U64s(v) => Ok(v),
                    _ => Err(mismatch("u64 reduction got non-u64 contribution")),
                })
                .collect::<Result<_>>()?;
            let len = vecs[0].len();
            if vecs.iter().any(|v| v.len() != len) {
                return Err(mismatch("u64 reduction with ragged vector lengths"));
            }
            let mut acc = vecs[0].clone();
            for v in &vecs[1..] {
                for (a, b) in acc.iter_mut().zip(v.iter()) {
                    *a = op.apply_u64(*a, *b);
                }
            }
            Ok(match sig {
                CollSig::ReduceU64 { root, .. } => (0..n)
                    .map(|r| {
                        if r == root {
                            CollOutcome::U64s(acc.clone())
                        } else {
                            CollOutcome::None
                        }
                    })
                    .collect(),
                _ => (0..n).map(|_| CollOutcome::U64s(acc.clone())).collect(),
            })
        }
        CollSig::ReduceF64 { .. } | CollSig::AllreduceF64 { .. } => {
            let op = match sig {
                CollSig::ReduceF64 { op, .. } | CollSig::AllreduceF64 { op } => op,
                _ => unreachable!(),
            };
            let vecs: Vec<&Vec<f64>> = contribs
                .iter()
                .map(|c| match c {
                    Contribution::F64s(v) => Ok(v),
                    _ => Err(mismatch("f64 reduction got non-f64 contribution")),
                })
                .collect::<Result<_>>()?;
            let len = vecs[0].len();
            if vecs.iter().any(|v| v.len() != len) {
                return Err(mismatch("f64 reduction with ragged vector lengths"));
            }
            let mut acc = vecs[0].clone();
            for v in &vecs[1..] {
                for (a, b) in acc.iter_mut().zip(v.iter()) {
                    *a = op.apply_f64(*a, *b);
                }
            }
            Ok(match sig {
                CollSig::ReduceF64 { root, .. } => (0..n)
                    .map(|r| {
                        if r == root {
                            CollOutcome::F64s(acc.clone())
                        } else {
                            CollOutcome::None
                        }
                    })
                    .collect(),
                _ => (0..n).map(|_| CollOutcome::F64s(acc.clone())).collect(),
            })
        }
        CollSig::Gather { .. } | CollSig::Allgather => {
            let all: Vec<Bytes> = contribs
                .iter()
                .map(|c| match c {
                    Contribution::Bytes(b) => Ok(b.clone()),
                    _ => Err(mismatch("gather got non-bytes contribution")),
                })
                .collect::<Result<_>>()?;
            Ok(match sig {
                CollSig::Gather { root } => (0..n)
                    .map(|r| {
                        if r == root {
                            CollOutcome::BytesVec(all.clone())
                        } else {
                            CollOutcome::None
                        }
                    })
                    .collect(),
                _ => (0..n).map(|_| CollOutcome::BytesVec(all.clone())).collect(),
            })
        }
        CollSig::Scatter { root } => {
            let parts = match contribs.get(root) {
                Some(Contribution::BytesVec(v)) if v.len() == n => v.clone(),
                Some(Contribution::BytesVec(_)) => {
                    return Err(mismatch("scatter root vector length != comm size"))
                }
                _ => return Err(mismatch("scatter root contributed no vector")),
            };
            Ok(parts.into_iter().map(CollOutcome::Bytes).collect())
        }
        CollSig::Alltoall => {
            let mats: Vec<&Vec<Bytes>> = contribs
                .iter()
                .map(|c| match c {
                    Contribution::BytesVec(v) if v.len() == n => Ok(v),
                    Contribution::BytesVec(_) => {
                        Err(mismatch("alltoall vector length != comm size"))
                    }
                    _ => Err(mismatch("alltoall got non-vector contribution")),
                })
                .collect::<Result<_>>()?;
            Ok((0..n)
                .map(|i| CollOutcome::BytesVec((0..n).map(|j| mats[j][i].clone()).collect()))
                .collect())
        }
        CollSig::CommDup | CollSig::CommSplit | CollSig::CommFree => Err(MpiError::ToolProtocol {
            detail: "comm-management collectives are combined by the runtime".to_owned(),
        }),
    }
}

/// Generation-counted rendezvous slot: one per communicator.
#[derive(Debug)]
pub struct CollSlot {
    size: usize,
    generation: u64,
    sig: Option<CollSig>,
    arrived: Vec<Option<Contribution>>,
    narrived: usize,
    max_vt: f64,
    results: HashMap<u64, Pending>,
}

#[derive(Debug)]
struct Pending {
    outcomes: Vec<Option<CollOutcome>>,
    remaining: usize,
    vt: f64,
    /// Error to report to every participant (mismatch detected at combine).
    error: Option<MpiError>,
}

impl CollSlot {
    /// New slot for a communicator of `size` ranks.
    #[must_use]
    pub fn new(size: usize) -> Self {
        Self {
            size,
            generation: 0,
            sig: None,
            arrived: vec![None; size],
            narrived: 0,
            max_vt: 0.0,
            results: HashMap::new(),
        }
    }

    /// Current generation (next collective to complete).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Deposit a contribution. Returns `(generation, is_last)`; when
    /// `is_last` the caller must immediately combine via
    /// [`CollSlot::take_contributions`] + [`CollSlot::finish`].
    pub fn enter(
        &mut self,
        comm_rank: usize,
        sig: CollSig,
        contribution: Contribution,
        vt: f64,
    ) -> Result<(u64, bool)> {
        match self.sig {
            None => self.sig = Some(sig),
            Some(existing) if existing == sig => {}
            Some(existing) => {
                return Err(MpiError::CollectiveMismatch {
                    detail: format!("rank called {sig:?} while others are in {existing:?}"),
                })
            }
        }
        assert!(
            self.arrived[comm_rank].is_none(),
            "rank {comm_rank} entered the same collective generation twice"
        );
        self.arrived[comm_rank] = Some(contribution);
        self.narrived += 1;
        self.max_vt = self.max_vt.max(vt);
        Ok((self.generation, self.narrived == self.size))
    }

    /// Last entrant: drain the deposited contributions, resetting the slot
    /// for the next generation. Returns `(sig, contributions, max_vt)`.
    pub fn take_contributions(&mut self) -> (CollSig, Vec<Contribution>, f64) {
        assert_eq!(self.narrived, self.size, "take before all arrived");
        let sig = self.sig.take().expect("sig set on first enter");
        let contribs = self
            .arrived
            .iter_mut()
            .map(|c| c.take().expect("all arrived"))
            .collect();
        let vt = self.max_vt;
        self.narrived = 0;
        self.max_vt = 0.0;
        (sig, contribs, vt)
    }

    /// Publish per-rank outcomes (or a shared error) for `gen`.
    pub fn finish(
        &mut self,
        gen: u64,
        outcomes: std::result::Result<Vec<CollOutcome>, MpiError>,
        vt: f64,
    ) {
        assert_eq!(gen, self.generation, "finishing a stale generation");
        self.generation += 1;
        let pending = match outcomes {
            Ok(o) => Pending {
                outcomes: o.into_iter().map(Some).collect(),
                remaining: self.size,
                vt,
                error: None,
            },
            Err(e) => Pending {
                outcomes: vec![None; self.size],
                remaining: self.size,
                vt,
                error: Some(e),
            },
        };
        self.results.insert(gen, pending);
    }

    /// Poll for the outcome of generation `gen` for `comm_rank`. Returns
    /// `Some((outcome, vt))` once published; the entry is reclaimed after
    /// the last rank takes its outcome.
    pub fn try_take(&mut self, gen: u64, comm_rank: usize) -> Option<(Result<CollOutcome>, f64)> {
        let pending = self.results.get_mut(&gen)?;
        let out = match &pending.error {
            Some(e) => Err(e.clone()),
            None => Ok(pending.outcomes[comm_rank]
                .take()
                .expect("rank took its collective outcome twice")),
        };
        let vt = pending.vt;
        pending.remaining -= 1;
        if pending.remaining == 0 {
            self.results.remove(&gen);
        }
        Some((out, vt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn barrier_combines_to_none() {
        let out = combine(CollSig::Barrier, &[Contribution::None, Contribution::None]).unwrap();
        assert!(matches!(out[0], CollOutcome::None));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn bcast_distributes_root_data() {
        let out = combine(
            CollSig::Bcast { root: 1 },
            &[Contribution::None, Contribution::Bytes(bytes("hi"))],
        )
        .unwrap();
        for o in out {
            match o {
                CollOutcome::Bytes(b) => assert_eq!(&b[..], b"hi"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn allreduce_u64_max() {
        let out = combine(
            CollSig::AllreduceU64 { op: ReduceOp::Max },
            &[
                Contribution::U64s(vec![3, 1]),
                Contribution::U64s(vec![2, 9]),
            ],
        )
        .unwrap();
        for o in out {
            match o {
                CollOutcome::U64s(v) => assert_eq!(v, vec![3, 9]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn reduce_f64_sum_only_root() {
        let out = combine(
            CollSig::ReduceF64 {
                root: 0,
                op: ReduceOp::Sum,
            },
            &[Contribution::F64s(vec![1.5]), Contribution::F64s(vec![2.5])],
        )
        .unwrap();
        match &out[0] {
            CollOutcome::F64s(v) => assert_eq!(v, &vec![4.0]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(out[1], CollOutcome::None));
    }

    #[test]
    fn ragged_reduction_is_mismatch() {
        let err = combine(
            CollSig::AllreduceU64 { op: ReduceOp::Sum },
            &[Contribution::U64s(vec![1]), Contribution::U64s(vec![1, 2])],
        )
        .unwrap_err();
        assert!(matches!(err, MpiError::CollectiveMismatch { .. }));
    }

    #[test]
    fn gather_collects_at_root() {
        let out = combine(
            CollSig::Gather { root: 1 },
            &[
                Contribution::Bytes(bytes("a")),
                Contribution::Bytes(bytes("b")),
            ],
        )
        .unwrap();
        assert!(matches!(out[0], CollOutcome::None));
        match &out[1] {
            CollOutcome::BytesVec(v) => {
                assert_eq!(&v[0][..], b"a");
                assert_eq!(&v[1][..], b"b");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scatter_distributes_parts() {
        let out = combine(
            CollSig::Scatter { root: 0 },
            &[
                Contribution::BytesVec(vec![bytes("x"), bytes("y")]),
                Contribution::None,
            ],
        )
        .unwrap();
        match (&out[0], &out[1]) {
            (CollOutcome::Bytes(a), CollOutcome::Bytes(b)) => {
                assert_eq!(&a[..], b"x");
                assert_eq!(&b[..], b"y");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alltoall_transposes() {
        let out = combine(
            CollSig::Alltoall,
            &[
                Contribution::BytesVec(vec![bytes("00"), bytes("01")]),
                Contribution::BytesVec(vec![bytes("10"), bytes("11")]),
            ],
        )
        .unwrap();
        match &out[1] {
            CollOutcome::BytesVec(v) => {
                assert_eq!(&v[0][..], b"01");
                assert_eq!(&v[1][..], b"11");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn slot_rendezvous_lifecycle() {
        let mut slot = CollSlot::new(2);
        let (gen, last) = slot
            .enter(0, CollSig::Barrier, Contribution::None, 1.0)
            .unwrap();
        assert!(!last);
        let (gen2, last) = slot
            .enter(1, CollSig::Barrier, Contribution::None, 3.0)
            .unwrap();
        assert_eq!(gen, gen2);
        assert!(last);
        let (sig, contribs, max_vt) = slot.take_contributions();
        assert_eq!(sig, CollSig::Barrier);
        assert_eq!(contribs.len(), 2);
        assert!((max_vt - 3.0).abs() < 1e-12);
        slot.finish(gen, combine(sig, &contribs), 3.5);
        let (out, vt) = slot.try_take(gen, 0).unwrap();
        assert!(matches!(out.unwrap(), CollOutcome::None));
        assert!((vt - 3.5).abs() < 1e-12);
        let _ = slot.try_take(gen, 1).unwrap();
        // Entry reclaimed after last take.
        assert!(slot.try_take(gen, 0).is_none());
        // Next generation proceeds.
        assert_eq!(slot.generation(), gen + 1);
    }

    #[test]
    fn slot_detects_mismatched_collectives() {
        let mut slot = CollSlot::new(2);
        slot.enter(0, CollSig::Barrier, Contribution::None, 0.0)
            .unwrap();
        let err = slot
            .enter(1, CollSig::Bcast { root: 0 }, Contribution::None, 0.0)
            .unwrap_err();
        assert!(matches!(err, MpiError::CollectiveMismatch { .. }));
    }

    #[test]
    fn slot_detects_mismatched_roots() {
        let mut slot = CollSlot::new(2);
        slot.enter(
            0,
            CollSig::Bcast { root: 0 },
            Contribution::Bytes(bytes("x")),
            0.0,
        )
        .unwrap();
        let err = slot
            .enter(
                1,
                CollSig::Bcast { root: 1 },
                Contribution::Bytes(bytes("y")),
                0.0,
            )
            .unwrap_err();
        assert!(matches!(err, MpiError::CollectiveMismatch { .. }));
    }

    #[test]
    fn finish_with_error_propagates_to_all() {
        let mut slot = CollSlot::new(2);
        let (gen, _) = slot
            .enter(
                0,
                CollSig::AllreduceU64 { op: ReduceOp::Sum },
                Contribution::U64s(vec![1]),
                0.0,
            )
            .unwrap();
        slot.enter(
            1,
            CollSig::AllreduceU64 { op: ReduceOp::Sum },
            Contribution::U64s(vec![1, 2]),
            0.0,
        )
        .unwrap();
        let (sig, contribs, vt) = slot.take_contributions();
        slot.finish(gen, combine(sig, &contribs), vt);
        let (out0, _) = slot.try_take(gen, 0).unwrap();
        let (out1, _) = slot.try_take(gen, 1).unwrap();
        assert!(out0.is_err());
        assert!(out1.is_err());
    }
}
