//! End-to-end ISP tests and the ISP-vs-DAMPI architectural comparison
//! that underlies the paper's Fig. 5 and Fig. 6.

use dampi_core::{DampiConfig, DampiVerifier, ToolStack};
use dampi_mpi::envelope::codec;
use dampi_mpi::proc_api::user_assert;
use dampi_mpi::{AsyncFnProgram, Comm, MatchPolicy, Mpi, MpiError, SimConfig, ANY_SOURCE};
use dampi_workloads::matmul::{Matmul, MatmulParams};
use dampi_workloads::parmetis::{Parmetis, ParmetisParams};
use dampi_workloads::patterns;

/// The verifier, replaying under the ISP tool stack.
fn isp_verifier(sim: SimConfig) -> DampiVerifier {
    DampiVerifier::with_config(sim, DampiConfig::default().with_tool(ToolStack::Isp))
}

#[test]
fn isp_finds_the_fig3_bug() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let report = isp_verifier(sim).verify(&patterns::fig3());
    assert!(
        report
            .errors
            .iter()
            .any(|e| matches!(e.error, MpiError::UserAssert { .. })),
        "{report}"
    );
    assert!(report.interleavings >= 2);
}

#[test]
fn isp_finds_alternate_schedule_deadlock() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let report = isp_verifier(sim).verify(&patterns::deadlock_on_alternate_schedule());
    assert!(report.deadlocks() >= 1, "{report}");
}

#[test]
fn isp_is_complete_on_the_cross_coupled_pattern() {
    // §II-F: ISP's central vector clocks never miss the cross-coupled
    // match that Lamport-mode DAMPI misses. Compare coverage from
    // identical forced initial schedules.
    use dampi_core::{DecisionSet, EpochDecision};
    let initial = DecisionSet::guided(
        0,
        vec![
            EpochDecision {
                rank: 1,
                clock: 0,
                src: 0,
            },
            EpochDecision {
                rank: 2,
                clock: 0,
                src: 3,
            },
        ],
    );
    let isp = isp_verifier(SimConfig::new(4));
    let res = isp.instrumented_run(&patterns::fig4_cross_coupled(), &initial);
    assert!(res.outcome.succeeded(), "{:?}", res.outcome.fatal);
    let e10 = res
        .epochs
        .iter()
        .find(|e| e.rank == 1 && e.clock == 0)
        .expect("rank 1 epoch 0");
    assert!(
        e10.alternates.contains(&2),
        "ISP (vector-precise) must see P2's concurrent forward: {e10:?}"
    );
}

#[test]
fn isp_and_dampi_agree_on_clean_programs() {
    let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        let n = mpi.world_size();
        if mpi.world_rank() == 0 {
            for _ in 1..n {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1).await?;
            }
        } else {
            mpi.send(Comm::WORLD, 0, 1, codec::encode_u64(7)).await?;
        }
        Ok(())
    });
    let dampi = DampiVerifier::new(SimConfig::new(4)).verify(&prog);
    let isp = isp_verifier(SimConfig::new(4)).verify(&prog);
    assert!(dampi.errors.is_empty());
    assert!(isp.errors.is_empty());
    // Same interleaving space for this symmetric pattern: 3! = 6.
    assert_eq!(dampi.interleavings, 6);
    assert_eq!(isp.interleavings, 6);
    // Same coverage.
    assert_eq!(
        dampi.total_discovered_matches(),
        isp.total_discovered_matches()
    );
}

#[test]
fn isp_single_run_is_slower_than_dampi_single_run() {
    // The core architectural claim: on the same workload, ISP's serialized
    // per-op transactions cost far more virtual time than DAMPI's
    // piggyback traffic.
    let prog = Parmetis::new(ParmetisParams {
        coarsen_rounds: 4,
        exchanges_per_round: 2,
        msg_bytes: 128,
        round_cost: 0.0,
        leak_comm: false,
    });
    let sim = SimConfig::new(8);
    let native = dampi_mpi::run_native(&sim, &prog).makespan;
    let dampi = DampiVerifier::new(sim.clone())
        .instrumented_run(&prog, &dampi_core::DecisionSet::self_run())
        .outcome
        .makespan;
    let isp = isp_verifier(sim)
        .instrumented_run(&prog, &dampi_core::DecisionSet::self_run())
        .outcome
        .makespan;
    assert!(dampi > native, "instrumentation is not free");
    assert!(
        isp > dampi * 2.0,
        "centralized scheduling must dominate: native={native:.6} dampi={dampi:.6} isp={isp:.6}"
    );
}

#[test]
fn isp_slowdown_grows_with_scale_dampi_stays_flat() {
    // Fig. 5's shape in miniature: the ISP/native ratio grows with process
    // count; the DAMPI/native ratio does not (beyond noise).
    let ratios = |np: usize| {
        let prog = Parmetis::new(ParmetisParams::nominal(np, 0.05));
        let sim = SimConfig::new(np);
        let native = dampi_mpi::run_native(&sim, &prog).makespan;
        let dampi = DampiVerifier::new(sim.clone())
            .instrumented_run(&prog, &dampi_core::DecisionSet::self_run())
            .outcome
            .makespan;
        let isp = isp_verifier(sim)
            .instrumented_run(&prog, &dampi_core::DecisionSet::self_run())
            .outcome
            .makespan;
        (dampi / native, isp / native)
    };
    let (d8, i8) = ratios(8);
    let (d32, i32_) = ratios(32);
    assert!(
        i32_ > i8,
        "ISP slowdown must grow with scale: {i8:.2} -> {i32_:.2}"
    );
    assert!(
        d32 < i32_ / 2.0,
        "DAMPI must stay well under ISP at scale: dampi={d32:.2} isp={i32_:.2}"
    );
    assert!(
        d8 < 5.0 && d32 < 5.0,
        "DAMPI overhead stays near-native: {d8:.2}, {d32:.2}"
    );
}

#[test]
fn isp_explores_matmul_interleavings() {
    let prog = Matmul::new(MatmulParams {
        n: 4,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let mut isp = isp_verifier(SimConfig::new(3));
    isp.cfg.max_interleavings = Some(50);
    let report = isp.verify(&prog);
    assert!(report.errors.is_empty(), "{report}");
    assert!(report.interleavings >= 2, "{report}");
}

#[test]
fn isp_respects_budget() {
    let prog = Matmul::new(MatmulParams {
        n: 4,
        rounds_per_slave: 2,
        task_cost: 0.0,
        ..Default::default()
    });
    let mut isp = isp_verifier(SimConfig::new(4));
    isp.cfg.max_interleavings = Some(3);
    let report = isp.verify(&prog);
    assert_eq!(report.interleavings, 3);
    assert!(report.budget_exhausted);
}

#[test]
fn isp_guided_replay_reproduces_bug() {
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let isp = isp_verifier(sim);
    let report = isp.verify(&patterns::fig3());
    let repro = report
        .errors
        .iter()
        .find(|e| matches!(e.error, MpiError::UserAssert { .. }))
        .expect("bug found")
        .decisions
        .clone();
    let rerun = isp.instrumented_run(&patterns::fig3(), &repro);
    assert!(rerun
        .outcome
        .program_bugs()
        .iter()
        .any(|b| matches!(b.error, MpiError::UserAssert { .. })));
}

#[test]
fn isp_counts_wildcards() {
    let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0).await?;
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0).await?;
        } else {
            mpi.send(Comm::WORLD, 0, 0, codec::encode_u64(1)).await?;
        }
        user_assert(true, "fine")?;
        Ok(())
    });
    let mut isp = isp_verifier(SimConfig::new(3));
    isp.cfg.max_interleavings = Some(1);
    let report = isp.verify(&prog);
    assert_eq!(report.wildcards_analyzed, 2);
}

#[test]
fn isp_transaction_counts_scale_with_ops() {
    use dampi_core::isp::IspScheduler;
    use dampi_mpi::vtime::VTimeParams;
    let sched = IspScheduler::new(4, VTimeParams::default());
    assert_eq!(sched.transactions(), 0);
    for _ in 0..10 {
        sched.transact(0.0);
    }
    assert_eq!(sched.transactions(), 10);
}

#[test]
fn isp_handles_waitsome_completions() {
    use dampi_mpi::envelope::codec;
    // Master uses waitsome over wildcard receives: the ISP layer must
    // report each completion to the central scheduler.
    let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        let n = mpi.world_size();
        if mpi.world_rank() == 0 {
            let reqs: Vec<_> = (1..n)
                .map(|_| mpi.irecv(Comm::WORLD, ANY_SOURCE, 0))
                .collect::<dampi_mpi::Result<_>>()?;
            let mut remaining = reqs;
            while !remaining.is_empty() {
                let done = mpi.waitsome(&remaining).await?;
                let taken: Vec<usize> = done.iter().map(|(i, _, _)| *i).collect();
                remaining = remaining
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !taken.contains(i))
                    .map(|(_, r)| r)
                    .collect();
            }
        } else {
            mpi.send(Comm::WORLD, 0, 0, codec::encode_u64(9)).await?;
        }
        Ok(())
    });
    let mut isp = isp_verifier(SimConfig::new(4));
    isp.cfg.max_interleavings = Some(200);
    let report = isp.verify(&prog);
    assert!(report.errors.is_empty(), "{report}");
    assert_eq!(report.wildcards_analyzed, 3);
    assert!(report.interleavings >= 2, "{report}");
}

#[test]
fn isp_probe_epochs_counted() {
    let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            let info = mpi.probe(Comm::WORLD, ANY_SOURCE, 0).await?;
            let _ = mpi.recv(Comm::WORLD, info.src as i32, 0).await?;
        } else {
            mpi.send(Comm::WORLD, 0, 0, dampi_mpi::envelope::codec::encode_u64(1))
                .await?;
        }
        Ok(())
    });
    let mut isp = isp_verifier(SimConfig::new(3));
    isp.cfg.max_interleavings = Some(1);
    let report = isp.verify(&prog);
    assert_eq!(report.wildcards_analyzed, 1, "{report}");
}

/// How the master of [`drain_program`] consumes its wildcard messages.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drain {
    Wait,
    Test,
    Waitany,
    Testany,
    Waitsome,
    Probe,
    IprobeSpin,
}

/// Every slave sends one message, then rank 0 drains them through `how`.
/// The barrier in between queues every message first, so each poll hits.
fn drain_program(how: Drain) -> impl dampi_mpi::MpiProgram {
    AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
        let (w, n) = (Comm::WORLD, mpi.world_size());
        if mpi.world_rank() != 0 {
            mpi.send(w, 0, 0, codec::encode_u64(7)).await?;
            return mpi.barrier(w).await;
        }
        mpi.barrier(w).await?;
        if matches!(how, Drain::Probe | Drain::IprobeSpin) {
            for _ in 1..n {
                let info = loop {
                    if how == Drain::Probe {
                        break mpi.probe(w, ANY_SOURCE, 0).await?;
                    }
                    if let Some(info) = mpi.iprobe(w, ANY_SOURCE, 0).await? {
                        break info;
                    }
                };
                mpi.recv(w, info.src as i32, 0).await?;
            }
            return Ok(());
        }
        let mut rest = (1..n)
            .map(|_| mpi.irecv(w, ANY_SOURCE, 0))
            .collect::<dampi_mpi::Result<Vec<_>>>()?;
        // Completing the last-posted receive first makes DAMPI's
        // separate-message mode settle the earlier ones out of the runtime
        // and park them: `how` then has to claim parked completions.
        mpi.wait(rest.pop().expect("np > 1")).await?;
        while !rest.is_empty() {
            match how {
                Drain::Wait => drop(mpi.wait(rest.remove(0)).await?),
                Drain::Test => {
                    if mpi.test(rest[0]).await?.is_some() {
                        rest.remove(0);
                    }
                }
                Drain::Waitany => drop(rest.remove(mpi.waitany(&rest).await?.0)),
                Drain::Testany => {
                    if let Some((idx, ..)) = mpi.testany(&rest).await? {
                        rest.remove(idx);
                    }
                }
                Drain::Waitsome => {
                    for (idx, ..) in mpi.waitsome(&rest).await?.iter().rev() {
                        rest.remove(*idx);
                    }
                }
                Drain::Probe | Drain::IprobeSpin => unreachable!("handled above"),
            }
        }
        Ok(())
    })
}

#[test]
fn every_completion_and_probe_call_explores_the_same_space() {
    use dampi_core::{DampiConfig, PiggybackMechanism, VerificationReport};
    fn sim() -> SimConfig {
        SimConfig::new(4).with_policy(MatchPolicy::LowestRank)
    }
    let dampi = |piggyback| {
        let cfg = DampiConfig::default().with_piggyback(piggyback);
        move |how| DampiVerifier::with_config(sim(), cfg.clone()).verify(&drain_program(how))
    };
    type Verify = Box<dyn Fn(Drain) -> VerificationReport>;
    let tools: [(&str, Verify); 3] = [
        (
            "dampi/separate",
            Box::new(dampi(PiggybackMechanism::SeparateMessage)),
        ),
        (
            "dampi/packed",
            Box::new(dampi(PiggybackMechanism::PayloadPacking)),
        ),
        (
            "isp",
            Box::new(|how| isp_verifier(sim()).verify(&drain_program(how))),
        ),
    ];
    for (tool, verify) in &tools {
        let reference = verify(Drain::Wait);
        assert!(reference.errors.is_empty(), "{tool}: {reference}");
        assert_eq!(reference.interleavings, 6, "{tool}: 3! match orders");
        for how in [
            Drain::Test,
            Drain::Waitany,
            Drain::Testany,
            Drain::Waitsome,
            Drain::Probe,
            Drain::IprobeSpin,
        ] {
            let report = verify(how);
            assert!(report.errors.is_empty(), "{tool} {how:?}: {report}");
            assert_eq!(
                (report.interleavings, &report.discovered),
                (reference.interleavings, &reference.discovered),
                "{tool} {how:?}"
            );
        }
    }
}
