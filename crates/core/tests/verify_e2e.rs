//! End-to-end verification tests: DAMPI against the paper's example
//! programs and representative non-deterministic workload patterns.

use bytes::Bytes;
use dampi_core::tool::{PCONTROL_LOOP_BEGIN, PCONTROL_LOOP_END};
use dampi_core::{ClockMode, DampiConfig, DampiVerifier, MixingBound, PiggybackMechanism};
use dampi_mpi::envelope::codec;
use dampi_mpi::proc_api::user_assert;
use dampi_mpi::{Comm, FnProgram, MatchPolicy, Mpi, MpiError, SimConfig, ANY_SOURCE, ANY_TAG};

fn verifier(n: usize) -> DampiVerifier {
    DampiVerifier::new(SimConfig::new(n))
}

fn with_cfg(n: usize, cfg: DampiConfig) -> DampiVerifier {
    DampiVerifier::with_config(SimConfig::new(n), cfg)
}

/// Paper Fig. 3: P0 and P2 race into P1's wildcard receive; the program
/// errors iff P2's message wins. The barrier before the receive plus the
/// `LowestRank` match policy model a *biased native runtime* that always
/// lets P0 win — the situation where conventional testing masks the bug
/// and only DAMPI's guided replay exposes it (paper §I).
fn fig3_program() -> FnProgram<impl Fn(&mut dyn Mpi) -> dampi_mpi::Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(22))?;
                mpi.barrier(Comm::WORLD)?;
            }
            2 => {
                mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(33))?;
                mpi.barrier(Comm::WORLD)?;
            }
            _ => {
                mpi.barrier(Comm::WORLD)?;
                let (_, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                let x = codec::decode_u64(&data);
                user_assert(x != 33, "x == 33")?;
                // Consume the other message so the run stays clean.
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
            }
        }
        Ok(())
    })
}

/// Verifier whose native runtime deterministically prefers the lowest
/// sender rank — the biased runtime of the Fig. 3 scenario.
fn biased_verifier(n: usize) -> DampiVerifier {
    DampiVerifier::new(SimConfig::new(n).with_policy(MatchPolicy::LowestRank))
}

#[test]
fn fig3_bug_found_by_replay() {
    let report = biased_verifier(3).verify(&fig3_program());
    assert!(
        report.interleavings >= 2,
        "must explore the alternate match"
    );
    assert_eq!(report.assertion_failures(), 1, "{report}");
    // The reproduction recipe must force P2's message.
    let err = &report.errors[0];
    assert!(matches!(err.error, MpiError::UserAssert { .. }));
    assert!(err.decisions.decisions.iter().any(|d| d.src == 2));
}

#[test]
fn fig3_bug_found_even_without_second_receive() {
    // The unmatched message is only seen by the finalize-time drain:
    // exactly the paper's Fig. 3 as written.
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(22))?,
            2 => mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(33))?,
            _ => {
                let (_, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                user_assert(codec::decode_u64(&data) != 33, "x == 33")?;
            }
        }
        Ok(())
    });
    let report = verifier(3).verify(&prog);
    assert_eq!(report.assertion_failures(), 1, "{report}");
}

#[test]
fn deterministic_program_needs_one_interleaving() {
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            mpi.send(Comm::WORLD, 1, 0, Bytes::from_static(b"d"))?;
        } else if mpi.world_rank() == 1 {
            let _ = mpi.recv(Comm::WORLD, 0, 0)?;
        }
        mpi.barrier(Comm::WORLD)?;
        Ok(())
    });
    let report = verifier(4).verify(&prog);
    assert_eq!(report.interleavings, 1);
    assert_eq!(report.wildcards_analyzed, 0);
    assert!(report.clean(), "{report}");
}

#[test]
fn master_slave_covers_all_match_orders() {
    // Master posts S wildcard receives; S slaves each send once. The full
    // space has S! orders but distinct matched-source *sets* per epoch are
    // what DAMPI covers: each epoch must discover every slave as a
    // potential match.
    let slaves = 3usize;
    let prog = FnProgram(move |mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            for _ in 0..slaves {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
            }
        } else {
            mpi.send(
                Comm::WORLD,
                0,
                1,
                codec::encode_u64(mpi.world_rank() as u64),
            )?;
        }
        Ok(())
    });
    let report = verifier(slaves + 1).verify(&prog);
    assert!(report.clean(), "{report}");
    // 3 epochs on rank 0; first must have all 3 slaves as possibilities.
    let first_epoch = report.discovered.iter().next().expect("has epochs");
    assert_eq!(first_epoch.1.len(), slaves, "{report}");
    // Full coverage of distinct orders = 3! = 6 interleavings.
    assert_eq!(report.interleavings, 6, "{report}");
}

#[test]
fn bounded_mixing_reduces_interleavings_on_real_program() {
    let slaves = 3usize;
    let make = move || {
        FnProgram(move |mpi: &mut dyn Mpi| {
            if mpi.world_rank() == 0 {
                for _ in 0..slaves {
                    let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
                }
            } else {
                mpi.send(Comm::WORLD, 0, 1, codec::encode_u64(1))?;
            }
            Ok(())
        })
    };
    let full = verifier(slaves + 1).verify(&make()).interleavings;
    let k0 = with_cfg(
        slaves + 1,
        DampiConfig::default().with_bound(MixingBound::K(0)),
    )
    .verify(&make())
    .interleavings;
    let k1 = with_cfg(
        slaves + 1,
        DampiConfig::default().with_bound(MixingBound::K(1)),
    )
    .verify(&make())
    .interleavings;
    assert!(k0 <= k1, "k0={k0} k1={k1}");
    assert!(k1 <= full, "k1={k1} full={full}");
    assert!(k0 < full, "k0={k0} must prune full={full}");
}

#[test]
fn fig8_matmul_interleavings_under_bounded_mixing() {
    // Fig. 8 as a checked answer: the cells the `fig8_bounded_matmul`
    // printer shows for its matmul (n=8, one round per slave, free-running
    // ranks) at np 2-6. The unbounded column is the (np-1)! match orders;
    // k=0 is 1 + the alternates of the free run; k=1 and k=2 lie between.
    use dampi_workloads::matmul::{Matmul, MatmulParams};
    let prog = Matmul::new(MatmulParams {
        n: 8,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let bounds = [
        MixingBound::K(0),
        MixingBound::K(1),
        MixingBound::K(2),
        MixingBound::Unbounded,
    ];
    let figure: [(usize, [u64; 4]); 5] = [
        (2, [1, 1, 1, 1]),
        (3, [2, 2, 2, 2]),
        (4, [4, 6, 6, 6]),
        (5, [7, 15, 24, 24]),
        (6, [11, 31, 72, 120]),
    ];
    for (np, row) in figure {
        let got = bounds.map(|bound| {
            let v = DampiVerifier::with_config(
                SimConfig::new(np),
                DampiConfig::default().with_bound(bound),
            );
            let report = v.verify(&prog);
            assert!(report.clean() && !report.budget_exhausted, "{report}");
            report.interleavings
        });
        assert_eq!(got, row, "np={np}, k = 0, 1, 2, unbounded");
    }
}

#[test]
fn loop_region_abstraction_suppresses_branching() {
    let slaves = 3usize;
    let prog = FnProgram(move |mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            mpi.pcontrol(PCONTROL_LOOP_BEGIN)?;
            for _ in 0..slaves {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
            }
            mpi.pcontrol(PCONTROL_LOOP_END)?;
        } else {
            mpi.send(Comm::WORLD, 0, 1, codec::encode_u64(1))?;
        }
        Ok(())
    });
    let report = verifier(slaves + 1).verify(&prog);
    assert_eq!(
        report.interleavings, 1,
        "regions must pin matches to SELF_RUN: {report}"
    );
    assert_eq!(report.wildcards_analyzed, slaves as u64);
}

/// Paper Fig. 4: the cross-coupled pattern where Lamport clocks lose
/// completeness and vector clocks do not.
///
/// P0: Isend(to:1) ... Isend(to:2)
/// P1: Irecv(*)    ... Isend(to:1)  (rank 2's send)
/// P2: Irecv(*)    ... Isend(to:2)  (rank 1's send)
/// P3: Isend(to:2) ... Isend(to:1)
fn fig4_program() -> FnProgram<impl Fn(&mut dyn Mpi) -> dampi_mpi::Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 0, Bytes::from_static(b"p0"))?;
            }
            1 => {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                mpi.send(Comm::WORLD, 2, 0, Bytes::from_static(b"p1"))?;
                // Consume the second message that may arrive (from P2/P3).
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
            }
            2 => {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                mpi.send(Comm::WORLD, 1, 0, Bytes::from_static(b"p2"))?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
            }
            3 => {
                mpi.send(Comm::WORLD, 2, 0, Bytes::from_static(b"p3"))?;
            }
            _ => unreachable!(),
        }
        Ok(())
    })
}

/// §II-F, reproduced deterministically: force the paper's initial matching
/// (P0→P1, P3→P2) via an explicit decisions file and run once in each
/// clock mode. P2's forwarded send is *concurrent* with P1's first epoch:
/// vector clocks classify it late (a potential match); its Lamport
/// projection equals the epoch's clock, so Lamport clocks must judge it
/// "causally after" and miss it — the precise incompleteness the paper
/// describes.
#[test]
fn fig4_lamport_misses_cross_coupled_match_vector_finds_it() {
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
    let run_mode = |mode: ClockMode| {
        let v = DampiVerifier::with_config(
            SimConfig::new(4),
            DampiConfig::default().with_clock_mode(mode),
        );
        let res = v.instrumented_run(&fig4_program(), &initial);
        assert!(res.outcome.succeeded(), "{:?}", res.outcome.fatal);
        let e10 = res
            .epochs
            .iter()
            .find(|e| e.rank == 1 && e.clock == 0)
            .expect("rank 1's first epoch exists")
            .clone();
        e10
    };
    let lam = run_mode(ClockMode::Lamport);
    let vec = run_mode(ClockMode::Vector);
    assert_eq!(lam.matched_src, Some(0));
    assert_eq!(vec.matched_src, Some(0));
    assert!(
        !lam.alternates.contains(&2),
        "Lamport clocks must miss P2's concurrent forward: {lam:?}"
    );
    assert!(
        vec.alternates.contains(&2),
        "vector clocks must find P2's concurrent forward: {vec:?}"
    );
}

/// Paper Fig. 10: Irecv(*) → Barrier → (late send) → Wait. The monitor
/// must flag the clock transmission that happens before the Wait.
#[test]
fn fig10_unsafe_pattern_monitor_fires() {
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(22))?;
                mpi.barrier(Comm::WORLD)?;
            }
            1 => {
                let req = mpi.irecv(Comm::WORLD, ANY_SOURCE, 0)?;
                mpi.barrier(Comm::WORLD)?; // transmits the clock: unsafe
                let _ = mpi.wait(req)?;
            }
            _ => {
                mpi.barrier(Comm::WORLD)?;
                mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(33))?;
            }
        }
        Ok(())
    });
    let report = verifier(3).verify(&prog);
    assert!(
        report.unsafe_alerts > 0,
        "monitor must flag the Fig. 10 pattern: {report}"
    );
}

#[test]
fn safe_pattern_raises_no_alert() {
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(22))?;
                mpi.barrier(Comm::WORLD)?;
            }
            1 => {
                let (_, _) = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?; // completed first
                mpi.barrier(Comm::WORLD)?;
            }
            _ => {
                mpi.barrier(Comm::WORLD)?;
            }
        }
        Ok(())
    });
    let report = verifier(3).verify(&prog);
    assert_eq!(report.unsafe_alerts, 0, "{report}");
}

#[test]
fn deadlock_in_alternate_interleaving_found() {
    // Rank 1 receives twice from anyone. If the FIRST message is from rank
    // 2, it then (incorrectly) receives from rank 0 only — but rank 0
    // already sent its single message, which was consumed as the first:
    // hence a deadlock exists in the schedule where rank 2 wins first.
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(0))?,
            2 => mpi.send(Comm::WORLD, 1, 0, codec::encode_u64(2))?,
            _ => {
                let (st, _) = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                if st.source == 2 {
                    // Bug: expects another message from rank 2.
                    let _ = mpi.recv(Comm::WORLD, 2, 0)?;
                } else {
                    let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                }
            }
        }
        Ok(())
    });
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    let report = DampiVerifier::new(sim).verify(&prog);
    assert!(
        report.deadlocks() >= 1,
        "the rank-2-first schedule deadlocks: {report}"
    );
}

#[test]
fn leaks_reported_through_verifier() {
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        let _leak = mpi.comm_dup(Comm::WORLD)?;
        if mpi.world_rank() == 0 {
            let _req_leak = mpi.irecv(Comm::WORLD, ANY_SOURCE, 5)?;
        } else if mpi.world_rank() == 1 {
            mpi.send(Comm::WORLD, 0, 5, Bytes::from_static(b"x"))?;
        }
        Ok(())
    });
    let report = verifier(2).verify(&prog);
    assert!(report.leaks.has_comm_leak(), "{report}");
    assert!(report.leaks.has_request_leak(), "{report}");
    // Exactly the application's one leaked comm — tool shadows are freed.
    assert_eq!(report.leaks.comm_leaks.len(), 1, "{:?}", report.leaks);
}

#[test]
fn payload_packing_mechanism_works() {
    let cfg = DampiConfig::default().with_piggyback(PiggybackMechanism::PayloadPacking);
    let report =
        DampiVerifier::with_config(SimConfig::new(3).with_policy(MatchPolicy::LowestRank), cfg)
            .verify(&fig3_program());
    assert_eq!(report.assertion_failures(), 1, "{report}");
}

#[test]
fn vector_mode_full_session() {
    let cfg = DampiConfig::default().with_clock_mode(ClockMode::Vector);
    let report =
        DampiVerifier::with_config(SimConfig::new(3).with_policy(MatchPolicy::LowestRank), cfg)
            .verify(&fig3_program());
    assert_eq!(report.assertion_failures(), 1, "{report}");
}

#[test]
fn wildcard_probe_is_an_epoch() {
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            let info = mpi.probe(Comm::WORLD, ANY_SOURCE, ANY_TAG)?;
            let _ = mpi.recv(Comm::WORLD, info.src as i32, info.tag)?;
            let info = mpi.probe(Comm::WORLD, ANY_SOURCE, ANY_TAG)?;
            let _ = mpi.recv(Comm::WORLD, info.src as i32, info.tag)?;
        } else {
            mpi.send(
                Comm::WORLD,
                0,
                mpi.world_rank() as i32,
                codec::encode_u64(7),
            )?;
        }
        Ok(())
    });
    let report = verifier(3).verify(&prog);
    assert!(report.wildcards_analyzed >= 2, "{report}");
    assert!(report.clean(), "{report}");
}

#[test]
fn coverage_is_schedule_independent() {
    // Verify twice: SELF_RUN races may vary which source matches first,
    // but the *coverage* (union of discovered matches per epoch) must
    // agree on symmetric programs where all sends are mutually concurrent.
    let slaves = 3usize;
    let make = move || {
        FnProgram(move |mpi: &mut dyn Mpi| {
            if mpi.world_rank() == 0 {
                for _ in 0..slaves {
                    let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
                }
            } else {
                mpi.send(Comm::WORLD, 0, 1, codec::encode_u64(1))?;
            }
            Ok(())
        })
    };
    let r1 = verifier(slaves + 1).verify(&make());
    let r2 = verifier(slaves + 1).verify(&make());
    assert_eq!(r1.discovered, r2.discovered);
    assert_eq!(r1.interleavings, r2.interleavings);
}

#[test]
fn max_interleavings_budget_respected() {
    let slaves = 4usize;
    let prog = FnProgram(move |mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            for _ in 0..slaves {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
            }
        } else {
            mpi.send(Comm::WORLD, 0, 1, codec::encode_u64(1))?;
        }
        Ok(())
    });
    let cfg = DampiConfig::default().with_max_interleavings(5);
    let report = with_cfg(slaves + 1, cfg).verify(&prog);
    assert_eq!(report.interleavings, 5);
    assert!(report.budget_exhausted);
}

#[test]
fn stop_on_first_error_short_circuits() {
    let cfg = DampiConfig::default().stop_at_first_error();
    let report =
        DampiVerifier::with_config(SimConfig::new(3).with_policy(MatchPolicy::LowestRank), cfg)
            .verify(&fig3_program());
    assert_eq!(report.errors.len(), 1);
}

#[test]
fn overhead_run_reports_slowdown() {
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        let n = mpi.world_size();
        if mpi.world_rank() == 0 {
            for _ in 1..n {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
            }
        } else {
            mpi.compute(1e-4)?;
            mpi.send(Comm::WORLD, 0, 0, codec::encode_u64(1))?;
        }
        mpi.barrier(Comm::WORLD)?;
        Ok(())
    });
    let v = verifier(8);
    let (slowdown, native, inst) = v.slowdown(&prog);
    assert!(native.succeeded());
    assert!(inst.outcome.succeeded(), "{:?}", inst.outcome.fatal);
    assert!(
        slowdown >= 1.0,
        "instrumentation cannot be free: {slowdown}"
    );
    assert!(slowdown < 20.0, "overhead should be bounded: {slowdown}");
    assert_eq!(inst.stats.wildcards, 7);
}

#[test]
fn decisions_roundtrip_through_file_reproduce_bug() {
    // Take the bug's reproduction decisions, save/load them, and re-run a
    // single guided execution: the bug must re-manifest deterministically.
    let v = biased_verifier(3);
    let report = v.verify(&fig3_program());
    let repro = &report.errors[0].decisions;
    let dir = std::env::temp_dir().join("dampi-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.json");
    repro.save(&path).unwrap();
    let loaded = dampi_core::DecisionSet::load(&path).unwrap();
    let rerun = v.instrumented_run(&fig3_program(), &loaded);
    let bugs = rerun.outcome.program_bugs();
    assert!(
        bugs.iter()
            .any(|b| matches!(b.error, MpiError::UserAssert { .. })),
        "replaying the saved schedule must re-trigger the bug: {bugs:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// The §V proposed fix, implemented and demonstrated: with the paired
/// transmittal clock, the Fig. 10 barrier no longer leaks the wildcard's
/// tick, P2's post-barrier send is classified late, and the x==33 crash is
/// found by replay — the coverage hole closes.
#[test]
fn fig10_bug_found_with_deferred_clock_sync() {
    let prog = || {
        FnProgram(|mpi: &mut dyn Mpi| {
            match mpi.world_rank() {
                0 => {
                    mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(22))?;
                    mpi.barrier(Comm::WORLD)?;
                }
                1 => {
                    let req = mpi.irecv(Comm::WORLD, ANY_SOURCE, 22)?;
                    mpi.barrier(Comm::WORLD)?;
                    let (_, data) = mpi.wait(req)?;
                    user_assert(codec::decode_u64(&data) != 33, "x == 33")?;
                    let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 22)?;
                }
                _ => {
                    mpi.barrier(Comm::WORLD)?;
                    mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(33))?;
                }
            }
            Ok(())
        })
    };
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
    // Paper-faithful DAMPI: the pattern escapes coverage; the monitor is
    // the only defense.
    let plain = DampiVerifier::new(sim.clone()).verify(&prog());
    assert_eq!(
        plain.assertion_failures(),
        0,
        "plain Lamport DAMPI cannot see the competitor: {plain}"
    );
    assert!(plain.unsafe_alerts > 0, "but the monitor warns: {plain}");
    // With the paired-clock fix, the competitor is discovered and forced.
    let fixed = DampiVerifier::with_config(sim, DampiConfig::default().with_deferred_clock_sync())
        .verify(&prog());
    assert_eq!(
        fixed.assertion_failures(),
        1,
        "deferred clock sync must close the coverage hole: {fixed}"
    );
}

/// Algorithm 1's horizon semantics: with a decision set whose
/// `guided_epoch` covers only the first of two wildcard phases, the layer
/// forces the first epoch (guided = true) and reverts to SELF_RUN for the
/// second (guided = false), re-discovering its alternates.
#[test]
fn guided_mode_reverts_past_the_horizon() {
    let prog = FnProgram(|mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            // Phase 1: one wildcard receive (epoch clock 0).
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
            mpi.barrier(Comm::WORLD)?;
            // Phase 2: two more wildcard receives, clocks past the horizon.
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 2)?;
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 2)?;
        } else {
            mpi.send(Comm::WORLD, 0, 1, codec::encode_u64(1))?;
            mpi.barrier(Comm::WORLD)?;
            mpi.send(Comm::WORLD, 0, 2, codec::encode_u64(2))?;
        }
        Ok(())
    });
    let v = verifier(3);
    // Force epoch 0 to source 2; horizon = clock 0 only.
    let ds = dampi_core::DecisionSet::guided(
        0,
        vec![dampi_core::EpochDecision {
            rank: 0,
            clock: 0,
            src: 2,
        }],
    );
    let run = v.instrumented_run(&prog, &ds);
    assert!(run.outcome.succeeded(), "{:?}", run.outcome.fatal);
    let mut epochs = run.epochs.clone();
    epochs.sort_by_key(|e| e.clock);
    assert_eq!(epochs.len(), 4);
    assert!(epochs[0].guided, "first epoch is forced");
    assert_eq!(epochs[0].matched_src, Some(2), "forced source wins");
    for e in &epochs[1..] {
        assert!(!e.guided, "past the horizon the mode is SELF_RUN: {e:?}");
    }
    // Phase-2 epochs still discover their alternates (both senders).
    let phase2: Vec<_> = epochs.iter().filter(|e| e.tag_spec == 2).collect();
    assert_eq!(phase2.len(), 2);
    let all: std::collections::BTreeSet<usize> = phase2
        .iter()
        .flat_map(|e| {
            e.matched_src
                .into_iter()
                .chain(e.alternates.iter().copied())
        })
        .collect();
    assert_eq!(all, std::collections::BTreeSet::from([1, 2]));
}

/// Reproduction schedules shrink to their essential decisions: the fig3
/// bug needs exactly one forced match.
#[test]
fn minimize_shrinks_fig3_repro_to_one_decision() {
    let v = biased_verifier(3);
    let report = v.verify(&fig3_program());
    let err = report
        .errors
        .iter()
        .find(|e| matches!(e.error, MpiError::UserAssert { .. }))
        .expect("bug found");
    let (minimal, runs) = v.minimize_error(&fig3_program(), err);
    assert_eq!(
        minimal.decisions.len(),
        1,
        "only the P2-wins decision matters: {minimal:?}"
    );
    assert_eq!(minimal.decisions[0].src, 2);
    // And it still reproduces.
    let rerun = v.instrumented_run(&fig3_program(), &minimal);
    assert!(rerun
        .outcome
        .program_bugs()
        .iter()
        .any(|b| matches!(b.error, MpiError::UserAssert { .. })));
    let _ = runs;
}
