//! Property tests for the vector-clock happens-before relation.
//!
//! Two layers of evidence that `dampi_clocks::VectorClock` recovers the
//! exact causal order the verifiers rely on:
//!
//! 1. Against a first-principles oracle: on random message traces, clock
//!    comparison must equal the transitive closure of program order plus
//!    send→receive edges (the Fidge/Mattern theorem, paper §II-C).
//! 2. Against the ISP baseline: on random generated programs, vector-mode
//!    DAMPI and the centralized ISP scheduler must report the same error
//!    sets and — when neither is budget-capped — the same total match
//!    sets. Both claim *exact* causality, so any gap is a bug in one of
//!    them, not clock imprecision.

use dampi_clocks::{ClockOrd, ClockStamp, LogicalClock, VectorClock};
use dampi_core::{
    ClockMode, DampiConfig, DampiVerifier, PiggybackMechanism, ToolStack, VerificationReport,
};
use dampi_fuzz::{generate, GenParams};
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::generated::{GenProgram, GenSpec};
use proptest::prelude::*;

/// One event of a synthetic trace: local work, or a message between two
/// distinct processes.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Local { proc: usize },
    Msg { src: usize, dst: usize },
}

/// Decode proptest's raw integer tuples into a well-formed trace over
/// `nprocs` processes (message endpoints always distinct).
fn decode(nprocs: usize, raw: &[(u8, usize, usize)]) -> Vec<Ev> {
    raw.iter()
        .map(|&(kind, a, b)| {
            let proc = a % nprocs;
            if kind == 0 {
                Ev::Local { proc }
            } else {
                Ev::Msg {
                    src: proc,
                    dst: (proc + 1 + b % (nprocs - 1)) % nprocs,
                }
            }
        })
        .collect()
}

/// Replay `trace` through real vector clocks, producing one stamp per
/// event, and independently build the ground-truth happens-before matrix
/// by transitive closure over program order + message edges.
fn replay(nprocs: usize, trace: &[Ev]) -> (Vec<Vec<u64>>, Vec<Vec<bool>>) {
    struct Trace {
        clocks: Vec<VectorClock>,
        stamps: Vec<Vec<u64>>,
        edges: Vec<(usize, usize)>,
        last_of: Vec<Option<usize>>,
    }
    impl Trace {
        fn event(&mut self, p: usize) -> usize {
            self.clocks[p].tick();
            self.stamps.push(self.clocks[p].components().to_vec());
            let e = self.stamps.len() - 1;
            if let Some(prev) = self.last_of[p] {
                self.edges.push((prev, e));
            }
            self.last_of[p] = Some(e);
            e
        }
    }
    let mut t = Trace {
        clocks: (0..nprocs).map(|r| VectorClock::zero(r, nprocs)).collect(),
        stamps: Vec::new(),
        edges: Vec::new(),
        last_of: vec![None; nprocs],
    };
    for ev in trace {
        match *ev {
            Ev::Local { proc } => {
                t.event(proc);
            }
            Ev::Msg { src, dst } => {
                let send = t.event(src);
                let stamp = t.clocks[src].stamp();
                t.clocks[dst].merge(&stamp);
                let recv = t.event(dst);
                t.edges.push((send, recv));
            }
        }
    }
    let Trace { stamps, edges, .. } = t;
    let n = stamps.len();
    let mut hb = vec![vec![false; n]; n];
    for &(a, b) in &edges {
        hb[a][b] = true;
    }
    for k in 0..n {
        // Every edge points at a later event index, so the graph is acyclic
        // and row k cannot change during its own iteration — snapshot it.
        let via_k = hb[k].clone();
        for row in hb.iter_mut() {
            if row[k] {
                for (j, &reach) in via_k.iter().enumerate() {
                    if reach {
                        row[j] = true;
                    }
                }
            }
        }
    }
    (stamps, hb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vector_hb_equals_transitive_closure(
        nprocs in 2usize..5,
        raw in proptest::collection::vec((0u8..2, 0usize..8, 0usize..8), 1..40),
    ) {
        let trace = decode(nprocs, &raw);
        let (stamps, hb) = replay(nprocs, &trace);
        for i in 0..stamps.len() {
            for j in 0..stamps.len() {
                let a = ClockStamp::Vector(stamps[i].clone());
                let b = ClockStamp::Vector(stamps[j].clone());
                let got = VectorClock::compare(&a, &b);
                // Every event ticks its owner first, so distinct events
                // never carry equal stamps.
                let want = if i == j {
                    ClockOrd::Equal
                } else if hb[i][j] {
                    ClockOrd::Before
                } else if hb[j][i] {
                    ClockOrd::After
                } else {
                    ClockOrd::Concurrent
                };
                prop_assert_eq!(got, want, "events {} vs {}", i, j);
            }
        }
    }
}

const MAX_INTERLEAVINGS: u64 = 800;

/// Vector-mode DAMPI, or ISP (whose clocks are vectors regardless).
fn report(spec: &GenSpec, tool: ToolStack) -> VerificationReport {
    let sim = SimConfig::new(spec.nprocs).with_policy(MatchPolicy::LowestRank);
    let cfg = DampiConfig::default()
        .with_tool(tool)
        .with_clock_mode(ClockMode::Vector)
        .with_piggyback(PiggybackMechanism::SeparateMessage)
        .with_max_interleavings(MAX_INTERLEAVINGS);
    DampiVerifier::with_config(sim, cfg).verify(&GenProgram::new(spec.clone()))
}

proptest! {
    // Each case runs two full verification campaigns; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn vector_mode_agrees_with_isp_on_generated_programs(seed in 0u64..10_000) {
        let spec = generate(seed, &GenParams::for_seed(seed));
        let isp = report(&spec, ToolStack::Isp);
        let vec = report(&spec, ToolStack::Dampi);
        prop_assert_eq!(
            isp.error_signature(),
            vec.error_signature(),
            "exact modes disagree on errors for seed {}", seed
        );
        if !isp.budget_exhausted && !vec.budget_exhausted && isp.error_signature().is_empty() {
            prop_assert_eq!(
                isp.total_discovered_matches(),
                vec.total_discovered_matches(),
                "exact modes disagree on match sets for seed {}", seed
            );
        }
    }
}
