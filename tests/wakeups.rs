//! How often a replay hands the turn on, pinned as counts.
//!
//! Every rank of a run is a future polled on the calling thread, and the
//! kernel polls only the turn holder, so nothing parks and nothing is
//! woken: the turn passes are the whole census, and they repeat exactly.
//! Each DAMPI run here is one self-run (`DecisionSet::self_run`). None of
//! these programs polls, so no pass is a poller's. (The test names keep
//! the wake-up vocabulary of the threaded runtime these counts were first
//! taken on.)

use dampi::core::{DampiVerifier, DecisionSet};
use dampi::mpi::{run_native, FnProgram, MatchPolicy, Mpi, MpiProgram, RuntimeCensus, SimConfig};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::parmetis::{Parmetis, ParmetisParams};

fn census(np: usize, program: &dyn MpiProgram) -> RuntimeCensus {
    let sim = SimConfig::new(np).with_policy(MatchPolicy::LowestRank);
    let run = DampiVerifier::new(sim).instrumented_run(program, &DecisionSet::self_run());
    assert!(run.outcome.succeeded(), "{:?}", run.outcome.rank_errors);
    let c = run.outcome.census;
    eprintln!("np={np}: {c:?}");
    c
}

fn adlb() -> Adlb {
    Adlb::new(AdlbParams {
        seed_items: 2,
        ..AdlbParams::default()
    })
}

fn matmul() -> Matmul {
    Matmul::new(MatmulParams {
        rounds_per_slave: 1,
        ..MatmulParams::default()
    })
}

#[test]
fn adlb_on_the_turn_token_wakes_each_holder_once() {
    // 84 while DAMPI's clock exchange was a rendezvous of its own after
    // every collective; it now rides the application's.
    let c = census(16, &adlb());
    assert_eq!(c.turn_passes, 70, "{c:?}");
}

#[test]
fn matmul_on_the_turn_token_wakes_each_holder_once() {
    // 34 with the clock exchange a rendezvous of its own.
    let c = census(7, &matmul());
    assert_eq!(c.turn_passes, 29, "{c:?}");
}

#[test]
fn parmetis_on_the_turn_token_wakes_each_holder_once() {
    let parmetis = Parmetis::new(ParmetisParams::nominal(16, 0.5));
    let c = census(16, &parmetis);
    assert_eq!(c.turn_passes, 978, "{c:?}");
}

#[test]
fn a_finishing_rank_passes_the_turn_the_same_way_every_run() {
    // A rank finishes while it holds the turn (the kernel sees its future
    // return), so an empty program passes the turn once per rank but the
    // last. While each rank was a thread that finished off the turn, this
    // read 0-1 at np 2 and 4-15 at np 16, varying from run to run.
    let empty = FnProgram(|_: &mut dyn Mpi| Ok(()));
    for (np, passes) in [(2, 1), (16, 15)] {
        let sim = SimConfig::new(np);
        for _ in 0..100 {
            let out = run_native(&sim, &empty);
            assert!(out.succeeded(), "{:?}", out.rank_errors);
            assert_eq!(out.census.turn_passes, passes, "np={np}");
        }
    }
}
