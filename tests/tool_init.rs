//! What a replay pays before its first message, and what must not change
//! when that gets cheaper.
//!
//! `DampiLayer` obtains and releases its shadow of `MPI_COMM_WORLD` without
//! a rendezvous (`Mpi::shadow_world` / `Mpi::release_shadow_world`), so the
//! tool's fixed cost per replay is one collective: the finalize barrier.
//! Its clock exchange and the shadows of the application's communicators
//! ride the application's collectives (`Rider`), so they add none. The
//! first part of this file counts that. The rest pins what the rendezvous
//! they replaced used to decide implicitly, with literals taken before each
//! change: virtual time to the bit, the turn order of a deterministic run,
//! communicator ids and labels, and what a rank sees while the world is
//! torn down.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use dampi::core::epoch::TraceCollector;
use dampi::core::tool::{DampiCtx, DampiLayer};
use dampi::core::{ClockMode, DampiConfig, DampiVerifier, DecisionSet, PiggybackMechanism};
use dampi::mpi::leak::CommLeak;
use dampi::mpi::matching::ProbeInfo;
use dampi::mpi::{
    run_with_layers, CollOutcome, CollSig, Comm, Completed, Completion, Contribution, FnProgram,
    MatchPolicy, Mpi, MpiProgram, Pmpi, ReduceOp, Request, Result, Rider, RunOutcome, SimConfig,
    Tag, ANY_SOURCE,
};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::parmetis::{Parmetis, ParmetisParams};
use dampi::workloads::patterns;

/// Calls that reached the runtime, by name, summed over ranks.
type Calls = Arc<Mutex<BTreeMap<&'static str, usize>>>;

/// Sits between `DampiLayer` and `Pmpi` and counts every rendezvous, and
/// the calls that used to be one; forwards everything.
struct Counting<M: Mpi> {
    inner: M,
    calls: Calls,
}

impl<M: Mpi> Counting<M> {
    fn saw(&self, name: &'static str) {
        *self.calls.lock().unwrap().entry(name).or_default() += 1;
    }
}

impl<M: Mpi> Mpi for Counting<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }
    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.inner.isend(comm, dest, tag, data)
    }
    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.inner.irecv(comm, src, tag)
    }
    fn complete(&mut self, reqs: &[Request], how: Completion) -> Result<Completed> {
        self.inner.complete(reqs, how)
    }
    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Result<Option<ProbeInfo>> {
        self.inner.probe_for(comm, src, tag, blocking)
    }
    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &mut Rider,
    ) -> Result<CollOutcome> {
        self.saw(sig.name());
        self.inner.collective(comm, sig, contribution, rider)
    }
    fn shadow_world(&mut self) -> Result<Comm> {
        self.saw("shadow_world");
        self.inner.shadow_world()
    }
    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()> {
        self.saw("release_shadow_world");
        self.inner.release_shadow_world(shadow)
    }
    fn pcontrol(&mut self, code: i32) -> Result<()> {
        self.inner.pcontrol(code)
    }
    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.inner.compute(seconds)
    }
    fn finalize(&mut self) -> Result<()> {
        self.inner.finalize()
    }
}

const NP: usize = 4;

/// One free run of `program` on [`NP`] ranks under `DampiLayer` over
/// [`Counting`]; the calls each rank made below the tool (every rank made
/// the same ones).
fn calls_per_rank(
    piggyback: PiggybackMechanism,
    program: &dyn MpiProgram,
) -> BTreeMap<&'static str, usize> {
    let sim = SimConfig::new(NP);
    let ctx = Arc::new(DampiCtx {
        decisions: DecisionSet::self_run(),
        collector: TraceCollector::new(),
        clock_mode: ClockMode::Lamport,
        piggyback,
        analysis_cost: sim.vtime.dampi_analysis,
        deferred_clock: false,
    });
    let calls = Calls::default();
    let out = run_with_layers(&sim, program, &|_, pmpi| {
        let counting = Counting {
            inner: pmpi,
            calls: Arc::clone(&calls),
        };
        Ok(Box::new(DampiLayer::new(counting, Arc::clone(&ctx))?))
    });
    assert!(out.succeeded(), "{:?}", out.rank_errors);
    assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    let total = std::mem::take(&mut *calls.lock().unwrap());
    total
        .into_iter()
        .map(|(name, n)| {
            assert_eq!(n % NP, 0, "{name}: {n} calls over {NP} ranks");
            (name, n / NP)
        })
        .collect()
}

#[test]
fn an_empty_replay_holds_one_rendezvous() {
    let empty = FnProgram(|_: &mut dyn Mpi| Ok(()));
    assert_eq!(
        calls_per_rank(PiggybackMechanism::SeparateMessage, &empty),
        BTreeMap::from([
            ("barrier", 1),
            ("release_shadow_world", 1),
            ("shadow_world", 1)
        ]),
    );
    assert_eq!(
        calls_per_rank(PiggybackMechanism::PayloadPacking, &empty),
        BTreeMap::from([("barrier", 1)]),
    );
}

#[test]
fn application_communicators_keep_their_collective_shadows() {
    // dup + free of WORLD: each used to be the application's rendezvous,
    // its shadow's (separate messages only) and a clock exchange, 6 per
    // rank (4 packing). The shadow and the clock now ride the one.
    let dups = FnProgram(|mpi: &mut dyn Mpi| {
        let c = mpi.comm_dup(Comm::WORLD)?;
        mpi.comm_free(c)
    });
    assert_eq!(
        calls_per_rank(PiggybackMechanism::SeparateMessage, &dups),
        BTreeMap::from([
            ("barrier", 1),
            ("comm_dup", 1),
            ("comm_free", 1),
            ("release_shadow_world", 1),
            ("shadow_world", 1),
        ]),
    );
    assert_eq!(
        calls_per_rank(PiggybackMechanism::PayloadPacking, &dups),
        BTreeMap::from([("barrier", 1), ("comm_dup", 1), ("comm_free", 1)]),
    );
}

#[test]
fn data_collectives_carry_the_clock_exchange() {
    // bcast + allreduce: each was followed by the tool's own allreduce,
    // 4 rendezvous per rank; now 2.
    let data = FnProgram(|mpi: &mut dyn Mpi| {
        let me = mpi.world_rank();
        mpi.bcast(Comm::WORLD, 0, (me == 0).then(Bytes::new))?;
        mpi.allreduce_u64(Comm::WORLD, vec![1], ReduceOp::Sum)
            .map(drop)
    });
    for piggyback in [
        PiggybackMechanism::SeparateMessage,
        PiggybackMechanism::PayloadPacking,
    ] {
        let mut calls = calls_per_rank(piggyback, &data);
        calls.remove("shadow_world");
        calls.remove("release_shadow_world");
        assert_eq!(
            calls,
            BTreeMap::from([("allreduce_u64", 1), ("barrier", 1), ("bcast", 1)]),
            "{piggyback:?}"
        );
    }
}

fn verifier(sim: SimConfig, piggyback: PiggybackMechanism) -> DampiVerifier {
    let cfg = DampiConfig::default()
        .with_clock_mode(ClockMode::Lamport)
        .with_piggyback(piggyback);
    DampiVerifier::with_config(sim, cfg)
}

fn free_run(v: &DampiVerifier, program: &dyn MpiProgram) -> RunOutcome {
    v.instrumented_run(program, &DecisionSet::self_run())
        .outcome
}

#[test]
fn the_shadow_keeps_its_place_in_the_leak_census() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let v = verifier(sim, PiggybackMechanism::SeparateMessage);
    // Clean run: every rank released it, so it is freed.
    assert_eq!(free_run(&v, &patterns::fig3()).leaks.comm_leaks, []);
    // The x == 33 leg: rank 1 fails before finalize and never releases, as
    // it never joined the collective free. The shadow is the first derived
    // communicator and is reported under the label `comm_dup` gave it.
    let report = v.verify(&patterns::fig3());
    let bug = report.errors.first().expect("fig3 finds x == 33");
    let aborted = v.instrumented_run(&patterns::fig3(), &bug.decisions);
    assert!(!aborted.outcome.succeeded());
    assert_eq!(
        aborted.outcome.leaks.comm_leaks,
        [CommLeak {
            comm: Comm(1),
            label: "dup of MPI_COMM_WORLD".to_owned(),
            size: 3,
        }]
    );
}

#[test]
fn virtual_time_is_bit_identical() {
    // The rendezvous charged every rank `max_r(vt_r + s) + c`; a rank now
    // charges itself `(vt_r + s) + c`. The maximum over ranks — the
    // makespan — is the same float.
    let matmul = Matmul::new(MatmulParams {
        rounds_per_slave: 1,
        ..MatmulParams::default()
    });
    let parmetis = Parmetis::new(ParmetisParams::nominal(16, 0.5));
    let lowest = |np| SimConfig::new(np).with_policy(MatchPolicy::LowestRank);
    let pinned = [
        (
            PiggybackMechanism::SeparateMessage,
            0x3f38_393c_8ca3_3c02_u64,
            0x3f88_5be1_a826_24a2_u64,
        ),
        (
            PiggybackMechanism::PayloadPacking,
            0x3f34_4adf_3b28_38f3,
            0x3f86_68c2_6139_001f,
        ),
    ];
    for (piggyback, matmul_bits, parmetis_bits) in pinned {
        let v = verifier(lowest(7), piggyback);
        let got = free_run(&v, &matmul).makespan.to_bits();
        assert_eq!(got, matmul_bits, "matmul {piggyback:?}: {got:#x}");
        let v = verifier(lowest(16), piggyback);
        let got = free_run(&v, &parmetis).makespan.to_bits();
        assert_eq!(got, parmetis_bits, "parmetis {piggyback:?}: {got:#x}");
    }
}

#[test]
fn a_deterministic_run_still_starts_with_the_last_rank() {
    // The init rendezvous left the turn with its last entrant, so every
    // separate-message run starts rank np-1, then 0, 1, …
    // Adlb's server (rank 0) therefore hears from rank 15 first; were
    // rank 0 to start, the free run would match differently and the k=1
    // campaign built on it would change.
    let sim = SimConfig::new(16).with_policy(MatchPolicy::LowestRank);
    let program = Adlb::new(AdlbParams {
        seed_items: 2,
        ..AdlbParams::default()
    });
    let run = DampiVerifier::new(sim).instrumented_run(&program, &DecisionSet::self_run());
    let mut epochs: Vec<(usize, u64, usize)> = run
        .epochs
        .iter()
        .map(|e| (e.rank, e.clock, e.matched_src.expect("free run completes")))
        .collect();
    epochs.sort_unstable();
    let matched_by_server = [
        15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15, 15, 15, 1, 1, 1, 1, 13, 13, 14,
        14, 12, 12, 15, 15,
    ];
    let pinned: Vec<(usize, u64, usize)> = matched_by_server
        .into_iter()
        .enumerate()
        .map(|(clock, src)| (0, clock as u64, src))
        .collect();
    assert_eq!(epochs, pinned);
}

#[test]
fn a_rank_still_gets_its_shadow_while_the_world_is_torn_down() {
    // Fuzz seed 14 plants a collective mismatch. The ranks that were
    // parked in the init rendezvous when the world turned fatal left it
    // with their communicator and ran on to their first guarded operation,
    // some recording an epoch on the way; `shadow_world` must not fail on a
    // fatal world either, or the seed's verdict goes from
    // `mechanism-variance` to `agree`.
    use dampi::fuzz::{generate, run_oracle, GenParams, OracleParams};
    let corpus = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/corpus/fuzz_verdicts.jsonl"
    ))
    .expect("committed corpus");
    let committed = corpus.lines().nth(14).expect("line 15");
    let spec = generate(14, &GenParams::for_seed(14));
    let verdict = run_oracle(&spec, &OracleParams::default());
    assert_eq!(verdict.verdict, "mechanism-variance");
    assert_eq!(verdict.to_json(), committed);
}

/// `(rank, call, virtual time as bits)` per call entered, and `(rank, "=",
/// id)` per communicator a call made (`u64::MAX`: none).
type Log = Arc<Mutex<Vec<(usize, &'static str, u64)>>>;

/// Sits above `DampiLayer` and logs which rank enters which application
/// call. `now` first waits for the turn, so the log is the order in which
/// ranks act.
struct Recorder<M: Mpi> {
    inner: M,
    log: Log,
}

impl<M: Mpi> Recorder<M> {
    fn saw(&self, name: &'static str) {
        let vt = self.inner.now().to_bits();
        let rank = self.inner.world_rank();
        self.log.lock().unwrap().push((rank, name, vt));
    }

    /// Log the communicator a `comm_dup`/`comm_split` returned.
    fn made(&self, comm: Option<Comm>) {
        let id = comm.map_or(u64::MAX, |c| u64::from(c.0));
        let rank = self.inner.world_rank();
        self.log.lock().unwrap().push((rank, "=", id));
    }
}

impl<M: Mpi> Mpi for Recorder<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }
    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.saw("isend");
        self.inner.isend(comm, dest, tag, data)
    }
    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.saw("irecv");
        self.inner.irecv(comm, src, tag)
    }
    fn complete(&mut self, reqs: &[Request], how: Completion) -> Result<Completed> {
        self.saw("complete");
        self.inner.complete(reqs, how)
    }
    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Result<Option<ProbeInfo>> {
        self.saw("probe");
        self.inner.probe_for(comm, src, tag, blocking)
    }
    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &mut Rider,
    ) -> Result<CollOutcome> {
        self.saw(sig.name());
        let out = self.inner.collective(comm, sig, contribution, rider)?;
        match out {
            CollOutcome::Comm(c) => self.made(Some(c)),
            CollOutcome::NoComm => self.made(None),
            _ => {}
        }
        Ok(out)
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
        self.saw("finalize");
        self.inner.finalize()
    }
}

/// Collectives on WORLD, a dup, a split of the dup into two colours (one
/// colour in a collective while the other exchanges point-to-point),
/// wildcard receives on the dup; the split is freed and the dup leaked.
fn collectives_and_communicators(mpi: &mut dyn Mpi) -> Result<()> {
    let me = mpi.world_rank();
    mpi.bcast(Comm::WORLD, 0, (me == 0).then(|| Bytes::from_static(b"go")))?;
    let sum = mpi.allreduce_u64(Comm::WORLD, vec![me as u64], ReduceOp::Sum)?;
    let dup = mpi.comm_dup(Comm::WORLD)?;
    let colour = (me % 2) as i64;
    let half = mpi
        .comm_split(dup, colour, -(me as i64))?
        .expect("every rank has a colour");
    if colour == 0 {
        mpi.allreduce_u64(half, sum, ReduceOp::Max)?;
    } else {
        let peer = 1 - mpi.comm_rank(half)? as i32;
        mpi.sendrecv(half, peer, 7, Bytes::from(vec![me as u8]), peer, 7)?;
    }
    if me == 0 {
        for _ in 1..mpi.world_size() {
            mpi.recv(dup, ANY_SOURCE, 9)?;
        }
    } else {
        mpi.send(dup, 0, 9, Bytes::from(vec![me as u8]))?;
    }
    mpi.comm_free(half)
}

type Discovered = Vec<(usize, u64, Option<usize>, Vec<usize>)>;

/// What [`exact_self_run`] pins.
#[derive(Debug, PartialEq)]
struct Exact {
    /// `rank.call` in the order ranks entered their calls.
    order: String,
    /// Each rank's virtual time as it entered `finalize`, as bits.
    vt_at_finalize: Vec<u64>,
    /// Each rank's virtual time at the end of the run, as bits.
    vt_at_end: Vec<u64>,
    leaks: Vec<CommLeak>,
    discovered: Discovered,
}

/// One turn-token DAMPI self-run of [`collectives_and_communicators`] on
/// [`NP`] ranks.
fn exact_self_run(piggyback: PiggybackMechanism) -> Exact {
    let sim = SimConfig::new(NP).with_policy(MatchPolicy::LowestRank);
    let collector = TraceCollector::new();
    let ctx = Arc::new(DampiCtx {
        decisions: DecisionSet::self_run(),
        collector: Arc::clone(&collector),
        clock_mode: ClockMode::Lamport,
        piggyback,
        analysis_cost: sim.vtime.dampi_analysis,
        deferred_clock: false,
    });
    let log = Arc::default();
    let program = FnProgram(collectives_and_communicators);
    let out = run_with_layers(&sim, &program, &|_, pmpi| {
        Ok(Box::new(Recorder {
            inner: DampiLayer::new(pmpi, Arc::clone(&ctx))?,
            log: Arc::clone(&log),
        }))
    });
    assert!(out.succeeded(), "{:?}", out.rank_errors);
    let log = std::mem::take(&mut *log.lock().unwrap());
    let order: Vec<String> = log
        .iter()
        .map(|&(r, call, v)| match call {
            "=" => format!("{r}={v}"),
            _ => format!("{r}.{call}"),
        })
        .collect();
    let mut vt_at_finalize = vec![0; NP];
    for &(r, call, vt) in &log {
        if call == "finalize" {
            vt_at_finalize[r] = vt;
        }
    }
    let mut discovered: Discovered = collector
        .take()
        .0
        .into_iter()
        .map(|e| {
            (
                e.rank,
                e.clock,
                e.matched_src,
                e.alternates.into_iter().collect(),
            )
        })
        .collect();
    discovered.sort_unstable();
    Exact {
        order: order.join(" "),
        vt_at_finalize,
        vt_at_end: out.per_rank_vt.iter().map(|v| v.to_bits()).collect(),
        leaks: out.leaks.comm_leaks,
        discovered,
    }
}

#[test]
fn collectives_keep_their_schedule_time_and_communicators() {
    // Literals taken while the clock exchange and the shadow dup/split/free
    // were rendezvous of their own. A member that completes a ridden
    // rendezvous leaves with the turn as it did then; a fusion that kept
    // the turn with the first rendezvous' last entrant reorders `order`.
    let pinned = [
        (
            PiggybackMechanism::SeparateMessage,
            Exact {
                order: concat!(
                    "3.bcast 0.bcast 1.bcast 2.bcast 1.allreduce_u64 2.allreduce_u64 ",
                    "3.allreduce_u64 0.allreduce_u64 3.comm_dup 0.comm_dup 1.comm_dup ",
                    "2.comm_dup 0=2 0.comm_split 1=2 1.comm_split 2=2 2.comm_split 3=2 ",
                    "3.comm_split 1=5 1.irecv 1.isend 1.complete 2=4 2.allreduce_u64 3=5 ",
                    "3.irecv 3.isend 3.complete 3.complete 3.isend 3.complete 3.comm_free ",
                    "0=4 0.allreduce_u64 1.complete 1.isend 1.complete 1.comm_free 2.isend ",
                    "2.complete 2.comm_free 0.irecv 0.complete 0.irecv 0.complete 0.irecv ",
                    "0.complete 0.comm_free 1.finalize 3.finalize 0.finalize 2.finalize",
                )
                .to_owned(),
                vt_at_finalize: vec![
                    0x3f2c_2ad0_5a98_4959,
                    0x3f26_058c_1736_38b2,
                    0x3f2c_2ad0_5a98_4959,
                    0x3f26_058c_1736_38b2,
                ],
                vt_at_end: vec![
                    0x3f30_7162_ffe5_ba14,
                    0x3f30_7162_ffe5_ba14,
                    0x3f30_7162_ffe5_ba14,
                    0x3f30_7162_ffe5_ba14,
                ],
                leaks: vec![CommLeak {
                    comm: Comm(2),
                    label: "dup of MPI_COMM_WORLD".to_owned(),
                    size: 4,
                }],
                discovered: vec![
                    (0, 0, Some(1), vec![2, 3]),
                    (0, 1, Some(2), vec![3]),
                    (0, 2, Some(3), vec![]),
                ],
            },
        ),
        (
            PiggybackMechanism::PayloadPacking,
            Exact {
                order: concat!(
                    "0.bcast 1.bcast 2.bcast 3.bcast 2.allreduce_u64 3.allreduce_u64 ",
                    "0.allreduce_u64 1.allreduce_u64 0.comm_dup 1.comm_dup 2.comm_dup ",
                    "3.comm_dup 2=1 2.comm_split 3=1 3.comm_split 0=1 0.comm_split 1=1 ",
                    "1.comm_split 0=2 0.allreduce_u64 1=3 1.irecv 1.isend 1.complete 2=2 ",
                    "2.allreduce_u64 3=3 3.irecv 3.isend 3.complete 3.complete 3.isend ",
                    "3.complete 3.comm_free 0.irecv 0.complete 0.irecv 0.complete ",
                    "1.complete 1.isend 1.complete 1.comm_free 2.isend 2.complete ",
                    "2.comm_free 3.finalize 0.irecv 0.complete 0.comm_free 1.finalize ",
                    "2.finalize 0.finalize",
                )
                .to_owned(),
                vt_at_finalize: vec![
                    0x3f25_7b92_4795_c0c6,
                    0x3f1f_b902_eb6c_cb01,
                    0x3f25_7b92_4795_c0c6,
                    0x3f1f_b902_eb6c_cb01,
                ],
                vt_at_end: vec![
                    0x3f27_0e39_7ea6_cf0b,
                    0x3f27_0e39_7ea6_cf0b,
                    0x3f27_0e39_7ea6_cf0b,
                    0x3f27_0e39_7ea6_cf0b,
                ],
                leaks: vec![CommLeak {
                    comm: Comm(1),
                    label: "dup of MPI_COMM_WORLD".to_owned(),
                    size: 4,
                }],
                discovered: vec![
                    (0, 0, Some(3), vec![1, 2]),
                    (0, 1, Some(1), vec![2]),
                    (0, 2, Some(2), vec![]),
                ],
            },
        ),
    ];
    for (piggyback, want) in pinned {
        assert_eq!(exact_self_run(piggyback), want, "{piggyback:?}");
    }
}
