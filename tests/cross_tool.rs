//! Cross-crate integration: the DAMPI and ISP verifiers against the full
//! workload suite.

use dampi::core::{DampiConfig, DampiVerifier, DecisionSet, MixingBound, ToolStack};
use dampi::mpi::{
    run_native, AsyncFnProgram, Comm, MatchPolicy, Mpi, MpiError, ReduceOp, RunOutcome, SimConfig,
};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::patterns;
use dampi::workloads::{nas, spec};

/// The verifier, replaying under the ISP tool stack.
fn isp_verifier(sim: SimConfig) -> DampiVerifier {
    DampiVerifier::with_config(sim, DampiConfig::default().with_tool(ToolStack::Isp))
}

#[test]
fn both_tools_find_the_fig3_bug() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let d = DampiVerifier::new(sim.clone()).verify(&patterns::fig3());
    let i = isp_verifier(sim).verify(&patterns::fig3());
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
    let i = isp_verifier(sim).verify(&patterns::deadlock_on_alternate_schedule());
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
    let i = isp_verifier(SimConfig::new(4)).verify(&prog);
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
    let isp = isp_verifier(sim);
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
    // native run stays green while both verifiers flag the bug.
    for policy in [MatchPolicy::LowestRank, MatchPolicy::ArrivalOrder] {
        let sim = SimConfig::new(3).with_policy(policy);
        let native = run_native(&sim, &patterns::fig3());
        assert!(native.succeeded(), "bias should mask the bug natively");
    }
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    assert!(!DampiVerifier::new(sim.clone())
        .verify(&patterns::fig3())
        .errors
        .is_empty());
    assert!(!isp_verifier(sim)
        .verify(&patterns::fig3())
        .errors
        .is_empty());
}

/// Rank 0 frees a communicator while rank 1 max-reduces on it: natively
/// a collective mismatch on both ranks, and so under both tools. DAMPI used
/// to open `comm_free` with its own max-allreduce on the communicator; that
/// paired silently with rank 1's, and both ranks ended deadlocked in the
/// rendezvous that followed.
#[test]
fn a_free_against_a_max_allreduce_is_a_mismatch_on_the_turn_token() {
    let program = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        let c = mpi.comm_dup(Comm::WORLD).await?;
        if mpi.world_rank() == 0 {
            mpi.comm_free(c).await
        } else {
            mpi.allreduce_u64(c, vec![5], ReduceOp::Max).await.map(drop)
        }
    });
    let sim = SimConfig::new(2);
    let self_run = |v: DampiVerifier| -> RunOutcome {
        v.instrumented_run(&program, &DecisionSet::self_run())
            .outcome
    };
    let runs = [
        ("native", run_native(&sim, &program)),
        ("dampi", self_run(DampiVerifier::new(sim.clone()))),
        ("isp", self_run(isp_verifier(sim.clone()))),
    ];
    for (tool, out) in runs {
        assert!(
            out.rank_errors
                .iter()
                .all(|e| matches!(e, Some(MpiError::CollectiveMismatch { .. }))),
            "{tool}: {:?}",
            out.rank_errors
        );
    }
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
    let i = isp_verifier(SimConfig::new(2)).verify(&patterns::leaky_program());
    assert!(i.leaks.has_comm_leak() && i.leaks.has_request_leak(), "{i}");
}

/// A rank spinning on `test` for a wildcard receive, with and without
/// `compute` between its polls, verifies under both tools. `IspLayer`
/// charges its scheduler exchange with `compute` before every operation,
/// so its spin loops always compute between polls; a `compute` that reset
/// the runtime's poll state kept the spinner on the turn for good.
#[test]
fn a_polling_wildcard_receive_verifies_under_both_tools() {
    use dampi::mpi::{ReplayBudget, ANY_SOURCE};
    use std::time::Duration;

    for work in [0.0, 1e-6] {
        let program = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            if mpi.world_rank() == 0 {
                for _ in 1..mpi.world_size() {
                    let r = mpi.irecv(w, ANY_SOURCE, 3)?;
                    while mpi.test(r).await?.is_none() {
                        if work > 0.0 {
                            mpi.compute(work)?;
                        }
                    }
                }
                Ok(())
            } else {
                mpi.compute(1e-3)?;
                mpi.send(w, 0, 3, Default::default()).await
            }
        });
        let budget = ReplayBudget::unlimited().with_max_wall_clock(Duration::from_secs(10));
        let sim = SimConfig::new(3).with_budget(budget);
        let d = DampiVerifier::new(sim.clone()).verify(&program);
        let i = isp_verifier(sim).verify(&program);
        for r in [&d, &i] {
            assert!(
                r.errors.is_empty() && r.timeouts.is_empty(),
                "compute {work}: {r}"
            );
        }
        assert_eq!(d.interleavings, 2, "compute {work}: {d}");
        assert_eq!(i.interleavings, 2, "compute {work}: {i}");
    }
}
