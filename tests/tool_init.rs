//! What a replay pays before its first message, and what must not change
//! when that gets cheaper.
//!
//! `DampiLayer` obtains and releases its shadow of `MPI_COMM_WORLD` without
//! a rendezvous (`Mpi::shadow_world` / `Mpi::release_shadow_world`), so the
//! tool's fixed cost per replay is one collective: the finalize barrier.
//! The first half of this file counts that. The second half pins what the
//! `comm_dup(WORLD)` rendezvous it replaced used to decide implicitly, with
//! literals taken before the change: virtual time to the bit, the turn order
//! of a deterministic run, and what a rank sees while the world is torn down.

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
    MatchPolicy, Mpi, MpiProgram, Request, Result, RunOutcome, SimConfig, Tag,
};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::parmetis::{Parmetis, ParmetisParams};
use dampi::workloads::patterns;

/// Calls that reached the runtime, by name, summed over ranks.
type Calls = Arc<Mutex<BTreeMap<&'static str, usize>>>;

/// Sits between `DampiLayer` and `Pmpi` and counts every call that is, or
/// used to be, a rendezvous; forwards everything.
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
    fn world_rank(&self) -> usize {
        self.inner.world_rank()
    }
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }
    fn comm_rank(&self, comm: Comm) -> Result<usize> {
        self.inner.comm_rank(comm)
    }
    fn comm_size(&self, comm: Comm) -> Result<usize> {
        self.inner.comm_size(comm)
    }
    fn translate_rank(&self, comm: Comm, comm_rank: usize) -> Result<usize> {
        self.inner.translate_rank(comm, comm_rank)
    }
    fn now(&self) -> f64 {
        self.inner.now()
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
    ) -> Result<CollOutcome> {
        self.saw(sig.name());
        self.inner.collective(comm, sig, contribution)
    }
    fn comm_dup(&mut self, comm: Comm) -> Result<Comm> {
        self.saw("comm_dup");
        self.inner.comm_dup(comm)
    }
    fn comm_split(&mut self, comm: Comm, color: i64, key: i64) -> Result<Option<Comm>> {
        self.saw("comm_split");
        self.inner.comm_split(comm, color, key)
    }
    fn comm_free(&mut self, comm: Comm) -> Result<()> {
        self.saw("comm_free");
        self.inner.comm_free(comm)
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
        monitor: false,
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
    // dup + free of WORLD: each is the application's call, its shadow's
    // (separate messages only) and one clock exchange — what it always was.
    let dups = FnProgram(|mpi: &mut dyn Mpi| {
        let c = mpi.comm_dup(Comm::WORLD)?;
        mpi.comm_free(c)
    });
    assert_eq!(
        calls_per_rank(PiggybackMechanism::SeparateMessage, &dups),
        BTreeMap::from([
            ("allreduce_u64", 2),
            ("barrier", 1),
            ("comm_dup", 2),
            ("comm_free", 2),
            ("release_shadow_world", 1),
            ("shadow_world", 1),
        ]),
    );
    assert_eq!(
        calls_per_rank(PiggybackMechanism::PayloadPacking, &dups),
        BTreeMap::from([
            ("allreduce_u64", 2),
            ("barrier", 1),
            ("comm_dup", 1),
            ("comm_free", 1)
        ]),
    );
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
        // Matmul's free run depends on arrival order: take the turn token's.
        let v = verifier(lowest(7).with_deterministic(true), piggyback);
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
    // deterministic separate-message run starts rank np-1, then 0, 1, …
    // Adlb's server (rank 0) therefore hears from rank 15 first; were
    // rank 0 to start, the free run would match differently and the k=1
    // campaign built on it would change.
    let sim = SimConfig::new(16)
        .with_policy(MatchPolicy::LowestRank)
        .with_deterministic(true);
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
