//! How often a replay's rank threads park and wake, pinned as counts.
//!
//! Each run here is one DAMPI self-run (`DecisionSet::self_run`). The
//! runtime wakes a rank only when it can act, so no wake is spurious and a
//! rank gets at most one notify per park. Under the turn token only the
//! holder is ever woken, so the notifies are the turn passes (plus, at
//! most, the first hand-off to a rank already parked for it) and the turn
//! passes repeat exactly. A park counts only when it waits, and every wait
//! ends in a notify, so the parks are bounded the same way. (A park with
//! notifies pending sends them instead of waiting: a rank whose successor
//! passes the turn straight back may not park at all.)

use dampi::core::{DampiVerifier, DecisionSet};
use dampi::mpi::{MatchPolicy, MpiProgram, RuntimeCensus, SimConfig};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::parmetis::{Parmetis, ParmetisParams};

fn census(np: usize, deterministic: bool, program: &dyn MpiProgram) -> RuntimeCensus {
    let sim = SimConfig::new(np)
        .with_policy(MatchPolicy::LowestRank)
        .with_deterministic(deterministic);
    let run = DampiVerifier::new(sim).instrumented_run(program, &DecisionSet::self_run());
    assert!(run.outcome.succeeded(), "{:?}", run.outcome.rank_errors);
    let c = run.outcome.census;
    eprintln!("np={np} det={deterministic}: {c:?}");
    assert_eq!(c.spurious_wakes, 0, "{c:?}");
    assert!(c.wakes <= c.parks, "{c:?}");
    if deterministic {
        assert!(c.wakes <= c.turn_passes + 1, "{c:?}");
        assert!(c.parks <= c.turn_passes + 1, "{c:?}");
    }
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
    let c = census(16, true, &adlb());
    assert_eq!(c.turn_passes, 84, "{c:?}");
}

#[test]
fn matmul_on_the_turn_token_wakes_each_holder_once() {
    let c = census(7, true, &matmul());
    assert_eq!(c.turn_passes, 34, "{c:?}");
}

#[test]
fn free_running_matmul_wakes_only_ranks_that_can_act() {
    let c = census(7, false, &matmul());
    assert_eq!(c.turn_passes, 0, "{c:?}");
}

#[test]
fn free_running_parmetis_wakes_only_ranks_that_can_act() {
    let parmetis = Parmetis::new(ParmetisParams::nominal(16, 0.5));
    let c = census(16, false, &parmetis);
    assert_eq!(c.turn_passes, 0, "{c:?}");
}
