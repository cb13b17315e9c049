//! Generated MPI programs: the serialisable workload format the
//! `dampi-fuzz` generator produces and the differential oracle replays.
//!
//! A [`GenSpec`] is a *global total order* of MPI events; each rank
//! executes the projection of that order onto itself. The format is plain
//! data (serde JSON), which is what makes fuzzing practical end-to-end:
//!
//! * the generator emits specs deterministically from a seed,
//! * the shrinker minimises a disagreeing spec by deleting events and
//!   re-running the oracle on the *data*, and
//! * a shrunk reproducer is committed under `fixtures/fuzz/` and replayed
//!   forever as a regression test ([`fixtures`]).
//!
//! Deadlock freedom is by construction (unless a bug is injected): the
//! generator only emits a blocking point once enough compatible sends
//! precede it in the global order, and collectives occupy the same global
//! position on every rank. See DESIGN.md §15 for the grammar and the
//! inductive argument.

use bytes::Bytes;
use dampi_mpi::envelope::codec;
use dampi_mpi::proc_api::{user_assert, Mpi};
use dampi_mpi::{Comm, MpiProgram, RankBody, Result, Tag, ANY_SOURCE};
use serde::{Deserialize, Serialize};

/// Injected bug class, recorded as a known-answer label on the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BugLabel {
    /// No injected bug: every mode must report the program clean.
    Clean,
    /// A send was deleted: some receive starves on every schedule.
    Deadlock,
    /// One rank calls `barrier` where the others call a `bcast`.
    Mismatch,
    /// A duplicated communicator is never freed and a request is
    /// abandoned. (Unreceived *messages* are not part of this label: the
    /// verifier's finalize-time drain consumes them for late-message
    /// analysis, so they never appear in an instrumented leak census.)
    Leak,
    /// A wildcard receive asserts on a poison payload that only one
    /// candidate sender carries: an error on *some* schedules only.
    Race,
    /// The program is MPI-clean but violates its companion session
    /// protocol (wrong message order, wrong peer, or an early exit).
    /// Injected only by the protocol-template generator in `dampi-fuzz`,
    /// which pairs every such program with the spec it must fail against.
    Conformance,
}

impl BugLabel {
    /// Stable lower-case name used in verdict JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BugLabel::Clean => "clean",
            BugLabel::Deadlock => "deadlock",
            BugLabel::Mismatch => "mismatch",
            BugLabel::Leak => "leak",
            BugLabel::Race => "race",
            BugLabel::Conformance => "conformance",
        }
    }
}

/// Source specification of a generated receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrcSpec {
    /// Deterministic receive from one rank.
    Named(usize),
    /// `MPI_ANY_SOURCE` — opens a DAMPI epoch.
    Wildcard,
}

/// How a generated receive is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecvVia {
    /// `recv` — blocks in place.
    Blocking,
    /// `irecv` — posted here, completed by a later [`GenOp::Wait`].
    Irecv,
    /// `probe` then `recv` of the probed envelope.
    ProbeRecv,
}

/// Collective flavour at a synchronisation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// `barrier`.
    Barrier,
    /// `bcast` from `root`.
    Bcast,
    /// `allreduce_u64` (max).
    Allreduce,
    /// `gather` to `root`.
    Gather,
}

/// One event in the global total order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GenOp {
    /// `from` posts an eager send (`isend` + immediate `wait`).
    Send {
        /// Sending rank.
        from: usize,
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: Tag,
        /// Communicator slot (0 = `MPI_COMM_WORLD`).
        comm: usize,
        /// Payload value (the oracle's race poison rides here).
        value: u64,
    },
    /// `rank` receives.
    Recv {
        /// Receiving rank.
        rank: usize,
        /// Named or wildcard source.
        src: SrcSpec,
        /// Message tag.
        tag: Tag,
        /// Communicator slot.
        comm: usize,
        /// Blocking, nonblocking, or probe-then-recv.
        via: RecvVia,
        /// When set, `user_assert(payload != value)` after completion.
        assert_ne: Option<u64>,
    },
    /// `rank` completes the `slot`-th `Irecv` it posted.
    Wait {
        /// Waiting rank.
        rank: usize,
        /// Index among this rank's `Irecv` receives, in posting order.
        slot: usize,
    },
    /// Global synchronisation point — every rank participates.
    Collective {
        /// Collective flavour.
        kind: CollectiveKind,
        /// Root rank (ignored for barrier/allreduce).
        root: usize,
        /// Communicator slot.
        comm: usize,
        /// Injected mismatch: this rank calls `barrier` instead.
        mismatch_rank: Option<usize>,
    },
    /// Collectively duplicate `MPI_COMM_WORLD` into slot `id`.
    CommDup {
        /// Communicator slot the duplicate is bound to.
        id: usize,
    },
    /// Collectively split `MPI_COMM_WORLD` (one colour, key = rank) into
    /// slot `id` — the full group, so slot ranks equal world ranks.
    CommSplit {
        /// Communicator slot the split is bound to.
        id: usize,
    },
    /// Collectively free the communicator in slot `id`.
    CommFree {
        /// Communicator slot to free.
        id: usize,
    },
    /// `rank` posts an `irecv` that is never completed (request leak).
    LeakRequest {
        /// Leaking rank.
        rank: usize,
        /// Tag of the abandoned receive (nothing sends it).
        tag: Tag,
        /// Communicator slot.
        comm: usize,
    },
}

/// A generated MPI program: metadata plus the global event order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenSpec {
    /// Program name (shows up in verification reports).
    pub name: String,
    /// World size the spec was generated for.
    pub nprocs: usize,
    /// Generator seed (0 for hand-written fixtures).
    pub seed: u64,
    /// Known-answer label of the injected bug, if any.
    pub bug: BugLabel,
    /// The global total order of events.
    pub ops: Vec<GenOp>,
}

impl GenSpec {
    /// Serialise to pretty JSON (the committed fixture format).
    ///
    /// # Panics
    /// Never: the spec is plain data.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("GenSpec serialises")
    }

    /// Parse a spec from JSON.
    ///
    /// # Errors
    /// Returns the serde error when `s` is not a valid spec.
    pub fn from_json(s: &str) -> std::result::Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Number of wildcard receives/probes (DAMPI epochs) in the spec.
    #[must_use]
    pub fn wildcard_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    GenOp::Recv {
                        src: SrcSpec::Wildcard,
                        ..
                    }
                )
            })
            .count()
    }
}

/// Interpreter: runs a [`GenSpec`] as an [`MpiProgram`].
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// The spec being interpreted.
    pub spec: GenSpec,
}

impl GenProgram {
    /// Wrap a spec for execution.
    #[must_use]
    pub fn new(spec: GenSpec) -> Self {
        Self { spec }
    }

    fn resolve_comm(comms: &[Option<Comm>], slot: usize) -> Result<Comm> {
        comms
            .get(slot)
            .copied()
            .flatten()
            .ok_or_else(|| dampi_mpi::MpiError::ToolProtocol {
                detail: format!("generated spec references unbound comm slot {slot}"),
            })
    }

    fn check_payload(data: &Bytes, assert_ne: Option<u64>) -> Result<()> {
        if let Some(poison) = assert_ne {
            let got = codec::decode_u64(data);
            user_assert(got != poison, format!("received poison payload {got}"))?;
        }
        Ok(())
    }
}

impl MpiProgram for GenProgram {
    fn name(&self) -> &str {
        &self.spec.name
    }

    #[allow(clippy::too_many_lines)]
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let me = mpi.world_rank();
            // Communicator slots: 0 is always WORLD; the rest bind on dup/split.
            let mut comms: Vec<Option<Comm>> = vec![None; 16];
            comms[0] = Some(Comm::WORLD);
            // Posted-irecv slots for this rank: (request, assert_ne), taken by Wait.
            let mut slots: Vec<Option<(dampi_mpi::Request, Option<u64>)>> = Vec::new();
            for op in &self.spec.ops {
                match *op {
                    GenOp::Send {
                        from,
                        to,
                        tag,
                        comm,
                        value,
                    } => {
                        if from == me {
                            let c = Self::resolve_comm(&comms, comm)?;
                            mpi.send(
                                c,
                                i32::try_from(to).unwrap_or(0),
                                tag,
                                codec::encode_u64(value),
                            )
                            .await?;
                        }
                    }
                    GenOp::Recv {
                        rank,
                        src,
                        tag,
                        comm,
                        via,
                        assert_ne,
                    } => {
                        if rank != me {
                            continue;
                        }
                        let c = Self::resolve_comm(&comms, comm)?;
                        let src_spec = match src {
                            SrcSpec::Named(s) => i32::try_from(s).unwrap_or(0),
                            SrcSpec::Wildcard => ANY_SOURCE,
                        };
                        match via {
                            RecvVia::Blocking => {
                                let (_, data) = mpi.recv(c, src_spec, tag).await?;
                                Self::check_payload(&data, assert_ne)?;
                            }
                            RecvVia::Irecv => {
                                let req = mpi.irecv(c, src_spec, tag)?;
                                slots.push(Some((req, assert_ne)));
                            }
                            RecvVia::ProbeRecv => {
                                let info = mpi.probe(c, src_spec, tag).await?;
                                let (_, data) = mpi
                                    .recv(c, i32::try_from(info.src).unwrap_or(0), info.tag)
                                    .await?;
                                Self::check_payload(&data, assert_ne)?;
                            }
                        }
                    }
                    GenOp::Wait { rank, slot } => {
                        if rank != me {
                            continue;
                        }
                        let entry =
                            slots.get_mut(slot).and_then(Option::take).ok_or_else(|| {
                                dampi_mpi::MpiError::ToolProtocol {
                                    detail: format!(
                                        "rank {me} waits unposted/duplicate slot {slot}"
                                    ),
                                }
                            })?;
                        let (req, assert_ne) = entry;
                        let (_, data) = mpi.wait(req).await?;
                        Self::check_payload(&data, assert_ne)?;
                    }
                    GenOp::Collective {
                        kind,
                        root,
                        comm,
                        mismatch_rank,
                    } => {
                        let c = Self::resolve_comm(&comms, comm)?;
                        if mismatch_rank == Some(me) {
                            // Injected collective mismatch: the odd rank out
                            // calls barrier at this synchronisation point.
                            mpi.barrier(c).await?;
                            continue;
                        }
                        match kind {
                            CollectiveKind::Barrier => mpi.barrier(c).await?,
                            CollectiveKind::Bcast => {
                                let payload = if me == root {
                                    Some(codec::encode_u64(77))
                                } else {
                                    None
                                };
                                let _ = mpi.bcast(c, root, payload).await?;
                            }
                            CollectiveKind::Allreduce => {
                                let _ = mpi
                                    .allreduce_u64(c, vec![me as u64], dampi_mpi::ReduceOp::Max)
                                    .await?;
                            }
                            CollectiveKind::Gather => {
                                let _ = mpi.gather(c, root, codec::encode_u64(me as u64)).await?;
                            }
                        }
                    }
                    GenOp::CommDup { id } => {
                        let c = mpi.comm_dup(Comm::WORLD).await?;
                        comms[id] = Some(c);
                    }
                    GenOp::CommSplit { id } => {
                        // One colour, key = world rank: the full group survives
                        // and slot ranks equal world ranks.
                        let c = mpi.comm_split(Comm::WORLD, 0, me as i64).await?;
                        comms[id] = c;
                    }
                    GenOp::CommFree { id } => {
                        let c = Self::resolve_comm(&comms, id)?;
                        comms[id] = None;
                        mpi.comm_free(c).await?;
                    }
                    GenOp::LeakRequest { rank, tag, comm } => {
                        if rank == me {
                            let c = Self::resolve_comm(&comms, comm)?;
                            let _abandoned = mpi.irecv(c, ANY_SOURCE, tag)?;
                        }
                    }
                }
            }
            Ok(())
        })
    }
}

/// Committed fuzzer-shrunk regression fixtures, embedded at compile time.
pub mod fixtures {
    use super::GenSpec;

    /// The `PiggybackMechanism::SeparateMessage` mispairing reproducer
    /// (interleaved wildcard + named receives on one `(source, tag, comm)`
    /// stream — see `dampi_core::config` and DESIGN.md §15.4).
    #[must_use]
    pub fn separate_message_mispair() -> GenSpec {
        load(include_str!(
            "../fixtures/fuzz/separate_message_mispair.json"
        ))
    }

    /// The collective-ordering phantom-deadlock reproducer: a wildcard
    /// receive before a `Gather` and a send to the same stream after it.
    /// When the causal model tracked only the collective's dataflow
    /// (all-to-root) instead of the runtime's full rendezvous, the
    /// post-gather send looked concurrent with the pre-gather receive,
    /// and every verifier mode forced an unrealizable replay that
    /// deadlocked — reported as a bug in this clean program (shrunk from
    /// `dampi-cli fuzz` seed 66).
    #[must_use]
    pub fn collective_phantom_deadlock() -> GenSpec {
        load(include_str!(
            "../fixtures/fuzz/collective_phantom_deadlock.json"
        ))
    }

    /// Every committed fixture, for corpus-style sweeps.
    #[must_use]
    pub fn all() -> Vec<GenSpec> {
        vec![separate_message_mispair(), collective_phantom_deadlock()]
    }

    fn load(s: &str) -> GenSpec {
        GenSpec::from_json(s).expect("committed fixture parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping(via: RecvVia) -> GenSpec {
        let mut ops = vec![
            GenOp::Send {
                from: 1,
                to: 0,
                tag: 5,
                comm: 0,
                value: 42,
            },
            GenOp::Recv {
                rank: 0,
                src: SrcSpec::Wildcard,
                tag: 5,
                comm: 0,
                via,
                assert_ne: None,
            },
        ];
        if via == RecvVia::Irecv {
            ops.push(GenOp::Wait { rank: 0, slot: 0 });
        }
        GenSpec {
            name: "gen_ping".into(),
            nprocs: 2,
            seed: 0,
            bug: BugLabel::Clean,
            ops,
        }
    }

    #[test]
    fn json_round_trip() {
        let spec = ping(RecvVia::Irecv);
        let back = GenSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.wildcard_count(), 1);
    }

    #[test]
    fn interpreter_runs_clean() {
        use dampi_mpi::{run_native, MatchPolicy, SimConfig};
        for via in [RecvVia::Blocking, RecvVia::Irecv, RecvVia::ProbeRecv] {
            let spec = ping(via);
            let outcome = run_native(
                &SimConfig::new(spec.nprocs).with_policy(MatchPolicy::LowestRank),
                &GenProgram::new(spec),
            );
            assert!(outcome.program_bugs().is_empty(), "via {via:?}");
            assert!(outcome.leaks.is_clean(), "via {via:?}");
        }
    }

    #[test]
    fn fixtures_parse_and_run() {
        use dampi_mpi::{run_native, MatchPolicy, SimConfig};
        for spec in fixtures::all() {
            let outcome = run_native(
                &SimConfig::new(spec.nprocs).with_policy(MatchPolicy::LowestRank),
                &GenProgram::new(spec.clone()),
            );
            assert!(
                outcome.program_bugs().is_empty(),
                "fixture {} should be clean natively",
                spec.name
            );
        }
    }
}
