//! Cross-crate integration: the DAMPI and ISP verifiers against the full
//! workload suite.

use dampi::core::{DampiConfig, DampiVerifier, MixingBound};
use dampi::isp::IspVerifier;
use dampi::mpi::{MatchPolicy, MpiError, SimConfig};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::patterns;
use dampi::workloads::{nas, spec};

#[test]
fn both_tools_find_the_fig3_bug() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let d = DampiVerifier::new(sim.clone()).verify(&patterns::fig3());
    let i = IspVerifier::new(sim).verify(&patterns::fig3());
    assert_eq!(d.assertion_failures(), 1, "{d}");
    assert!(
        i.errors
            .iter()
            .any(|e| matches!(e.error, MpiError::UserAssert { .. })),
        "{i}"
    );
}

#[test]
fn both_tools_find_the_schedule_deadlock() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let d = DampiVerifier::new(sim.clone()).verify(&patterns::deadlock_on_alternate_schedule());
    let i = IspVerifier::new(sim).verify(&patterns::deadlock_on_alternate_schedule());
    assert!(d.deadlocks() >= 1, "{d}");
    assert!(i.deadlocks() >= 1, "{i}");
}

#[test]
fn coverage_agrees_on_matmul() {
    let prog = Matmul::new(MatmulParams {
        n: 4,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let d = DampiVerifier::new(SimConfig::new(4)).verify(&prog);
    let i = IspVerifier::new(SimConfig::new(4)).verify(&prog);
    assert!(d.errors.is_empty());
    assert!(i.errors.is_empty());
    assert_eq!(d.interleavings, i.interleavings, "\nDAMPI {d}\nISP {i}");
}

#[test]
fn all_nas_kernels_verify_clean_under_budget() {
    for (name, prog) in nas::all_nominal() {
        let cfg = DampiConfig::default().with_max_interleavings(30);
        let report = DampiVerifier::with_config(SimConfig::new(4), cfg).verify(prog.as_ref());
        assert!(
            report.errors.is_empty(),
            "{name} must verify clean: {report}"
        );
        // Leak findings surface through the verifier too.
        let expect_leak = matches!(name, "BT" | "FT");
        assert_eq!(report.leaks.has_comm_leak(), expect_leak, "{name}");
    }
}

#[test]
fn all_spec_kernels_verify_clean_under_budget() {
    for (name, prog) in spec::all_nominal() {
        let cfg = DampiConfig::default().with_max_interleavings(30);
        let report = DampiVerifier::with_config(SimConfig::new(4), cfg).verify(prog.as_ref());
        assert!(
            report.errors.is_empty(),
            "{name} must verify clean: {report}"
        );
        let expect_leak = matches!(name, "104.milc" | "113.GemsFDTD" | "137.lu");
        assert_eq!(report.leaks.has_comm_leak(), expect_leak, "{name}");
    }
}

#[test]
fn adlb_verifies_clean_under_k1() {
    let prog = Adlb::new(AdlbParams {
        nservers: 1,
        seed_items: 2,
        spawn_depth: 1,
        spawn_width: 1,
        work_cost: 0.0,
    });
    let cfg = DampiConfig::default()
        .with_bound(MixingBound::K(1))
        .with_max_interleavings(5_000);
    let report = DampiVerifier::with_config(SimConfig::new(4), cfg).verify(&prog);
    assert!(report.errors.is_empty(), "{report}");
    assert!(report.wildcards_analyzed > 0);
}

#[test]
fn dampi_repro_schedule_replays_under_isp() {
    // The Epoch Decisions format is shared: a bug found by DAMPI can be
    // replayed by ISP (and vice versa), since both force the same
    // (rank, epoch) -> source prescriptions.
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let d = DampiVerifier::new(sim.clone()).verify(&patterns::fig3());
    let repro = &d.errors[0].decisions;
    let isp = IspVerifier::new(sim);
    let rerun = isp.instrumented_run(&patterns::fig3(), repro);
    assert!(
        rerun
            .outcome
            .program_bugs()
            .iter()
            .any(|b| matches!(b.error, MpiError::UserAssert { .. })),
        "ISP must reproduce DAMPI's schedule: {:?}",
        rerun.outcome.rank_errors
    );
}

#[test]
fn native_bias_masks_what_verifiers_find() {
    // The paper's motivating claim, end to end: across biased policies the
    // native run stays green while both verifiers flag the bug. The native
    // legs run on the cooperative scheduler so that the bias asserted is
    // the match policy's: free-running, which of rank 1's and rank 2's
    // sends reaches the matcher first is an OS-thread race.
    for policy in [MatchPolicy::LowestRank, MatchPolicy::ArrivalOrder] {
        let sim = SimConfig::new(3)
            .with_policy(policy)
            .with_deterministic(true);
        let native = dampi::mpi::run_native(&sim, &patterns::fig3());
        assert!(native.succeeded(), "bias should mask the bug natively");
    }
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    assert!(!DampiVerifier::new(sim.clone())
        .verify(&patterns::fig3())
        .errors
        .is_empty());
    assert!(!IspVerifier::new(sim)
        .verify(&patterns::fig3())
        .errors
        .is_empty());
}

#[test]
fn head_to_head_deadlock_found_in_initial_run() {
    let report = DampiVerifier::new(SimConfig::new(2)).verify(&patterns::deadlock_head_to_head());
    assert_eq!(report.deadlocks(), 1, "{report}");
    assert_eq!(report.interleavings, 1, "found without any replay");
}

#[test]
fn leaky_program_reported_by_both_tools() {
    let d = DampiVerifier::new(SimConfig::new(2)).verify(&patterns::leaky_program());
    assert!(d.leaks.has_comm_leak() && d.leaks.has_request_leak(), "{d}");
    let i = IspVerifier::new(SimConfig::new(2)).verify(&patterns::leaky_program());
    assert!(i.leaks.has_comm_leak() && i.leaks.has_request_leak(), "{i}");
}
