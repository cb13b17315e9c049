//! How often a replay's rank threads park and wake, pinned as counts.
//!
//! Each run here is one DAMPI self-run (`DecisionSet::self_run`). The
//! runtime wakes a rank only when it can act, so no wake is spurious and a
//! rank gets at most one notify per park. Only the turn holder is ever
//! woken, so the notifies are the turn passes (plus, at most, the first
//! hand-off to a rank already parked for it) and the turn passes repeat
//! exactly. None of these programs polls, so no pass is a poller's. A park
//! counts only when it waits, and every wait ends in a notify, so the parks
//! are bounded the same way. (A park with
//! notifies pending sends them instead of waiting: a rank whose successor
//! passes the turn straight back may not park at all.)

use dampi::core::{DampiVerifier, DecisionSet};
use dampi::mpi::{MatchPolicy, MpiProgram, RuntimeCensus, SimConfig};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::parmetis::{Parmetis, ParmetisParams};

fn census(np: usize, program: &dyn MpiProgram) -> RuntimeCensus {
    let sim = SimConfig::new(np).with_policy(MatchPolicy::LowestRank);
    let run = DampiVerifier::new(sim).instrumented_run(program, &DecisionSet::self_run());
    assert!(run.outcome.succeeded(), "{:?}", run.outcome.rank_errors);
    let c = run.outcome.census;
    eprintln!("np={np}: {c:?}");
    assert_eq!(c.spurious_wakes, 0, "{c:?}");
    assert!(c.wakes <= c.parks, "{c:?}");
    assert!(c.wakes <= c.turn_passes + 1, "{c:?}");
    assert!(c.parks <= c.turn_passes + 1, "{c:?}");
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
