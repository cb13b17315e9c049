//! Property-based checks of the cross-epoch refinement and the full
//! prune pipeline, with the *real* verifier as the soundness oracle:
//! random small master/worker programs are verified plain and pruned from
//! the same traced free run, and the error sets must be byte-identical —
//! the end-to-end contract every analysis pass must preserve.

use std::collections::BTreeSet;

use dampi_analysis::{analyze, passes, TraceModel};
use dampi_core::report::VerificationReport;
use dampi_core::DampiVerifier;
use dampi_mpi::envelope::codec;
use dampi_mpi::proc_api::user_assert;
use dampi_mpi::program::AsyncFnProgram;
use dampi_mpi::{Comm, MatchPolicy, Mpi, SimConfig, ANY_SOURCE, ANY_TAG};
use proptest::prelude::*;

/// One receive rank 0 posts, in program order.
#[derive(Debug, Clone, Copy)]
enum RecvSpec {
    /// `recv(src, tag)` — a named claim the refinement may count on.
    Named(usize, i32),
    /// `recv(ANY_SOURCE, tag_spec)`, optionally asserting the payload is
    /// not `poison` — a content-dependent branch that must block any
    /// payload-oblivious merge of the senders involved.
    Wild(i32, Option<u64>),
}

/// The whole scenario: what each sender rank sends to rank 0 (tag,
/// payload value), and the receives rank 0 posts. Programs may deadlock
/// or fail assertions; the contract is only that pruning never *changes*
/// the reported error set.
#[derive(Debug, Clone)]
struct Scenario {
    nprocs: usize,
    sends: Vec<Vec<(i32, u64)>>,
    recvs: Vec<RecvSpec>,
}

/// Decode the raw sampled integers into a scenario. Tags come from
/// {5, 7}; wildcard tag specs from {5, 7, ANY_TAG}; a poison value of 0
/// means "no assertion".
fn build(nprocs: usize, raw_sends: &[Vec<(u8, u64)>], raw_recvs: &[(u8, usize, u64)]) -> Scenario {
    let tag = |t: u8| if t == 0 { 5 } else { 7 };
    let mut sends: Vec<Vec<(i32, u64)>> = raw_sends
        .iter()
        .map(|msgs| msgs.iter().map(|&(t, v)| (tag(t), v)).collect())
        .collect();
    sends.truncate(nprocs - 1);
    while sends.len() < nprocs - 1 {
        sends.push(Vec::new());
    }
    let recvs = raw_recvs
        .iter()
        .map(|&(kind, src, poison)| match kind {
            0 | 1 => RecvSpec::Named(1 + (src - 1) % (nprocs - 1), tag(kind)),
            2 => RecvSpec::Wild(5, (poison > 0).then_some(poison)),
            3 => RecvSpec::Wild(7, (poison > 0).then_some(poison)),
            _ => RecvSpec::Wild(ANY_TAG, (poison > 0).then_some(poison)),
        })
        .collect();
    Scenario {
        nprocs,
        sends,
        recvs,
    }
}

fn program(
    sc: &Scenario,
) -> AsyncFnProgram<impl AsyncFn(&mut dyn Mpi) -> dampi_mpi::Result<()> + Send + Sync> {
    let sc = sc.clone();
    AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
        let me = mpi.world_rank();
        if me == 0 {
            for spec in &sc.recvs {
                match *spec {
                    RecvSpec::Named(src, tag) => {
                        let _ = mpi.recv(Comm::WORLD, src as i32, tag).await?;
                    }
                    RecvSpec::Wild(tag, poison) => {
                        let (_, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, tag).await?;
                        if let Some(p) = poison {
                            user_assert(
                                data.len() != 8 || codec::decode_u64(&data) != p,
                                "poisoned payload reached the wildcard",
                            )?;
                        }
                    }
                }
            }
        } else if let Some(msgs) = sc.sends.get(me - 1) {
            for &(tag, val) in msgs {
                mpi.send(Comm::WORLD, 0, tag, codec::encode_u64(val))
                    .await?;
            }
        }
        Ok(())
    })
}

fn error_keys(r: &VerificationReport) -> Vec<(usize, String)> {
    let mut k: Vec<(usize, String)> = r
        .errors
        .iter()
        .map(|e| (e.rank, e.error.to_string()))
        .collect();
    k.sort();
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end soundness: whatever the passes prune, the pruned
    /// campaign reports exactly the plain campaign's error set. Also
    /// pins the structural laws the passes promise: refined sets are
    /// subsets of the base sets, never drop the observed match, subsume
    /// the count-based refutations, and the fixed point lands within its
    /// bound. And if L005 claims a definitely-stuck receive, the plain
    /// campaign must indeed report an error.
    #[test]
    fn pruning_preserves_error_sets(
        nprocs in 2usize..5,
        raw_sends in prop::collection::vec(
            prop::collection::vec((0u8..2, 1u64..4), 0..3), 1..4),
        raw_recvs in prop::collection::vec((0u8..5, 1usize..4, 0u64..4), 0..4),
    ) {
        let sc = build(nprocs, &raw_sends, &raw_recvs);
        let prog = program(&sc);
        let v = DampiVerifier::new(
            SimConfig::new(sc.nprocs).with_policy(MatchPolicy::LowestRank),
        );
        let (events, run) = v.traced_run(&prog);
        let model = TraceModel::build(sc.nprocs, &events, &run.epochs);

        let base_sets = passes::match_sets(&model);
        let refinement = passes::refine_match_sets(&model, &base_sets);
        prop_assert!(refinement.iterations <= model.epochs.len() + 2);
        for (k, base) in &base_sets {
            match (base, refinement.sets.get(k)) {
                (Some(b), Some(Some(r))) => prop_assert!(r.is_subset(b), "{:?}", k),
                (None, Some(None)) => {}
                other => prop_assert!(false, "{:?}: shape changed: {:?}", k, other),
            }
        }
        for e in &model.epochs {
            if let (Some(m), Some(Some(set))) =
                (e.matched_src, refinement.sets.get(&(e.rank, e.clock)))
            {
                if base_sets[&(e.rank, e.clock)]
                    .as_ref()
                    .is_some_and(|b| b.contains(&m))
                {
                    prop_assert!(set.contains(&m), "observed match dropped at {:?}", e);
                }
            }
        }
        // The positional fixed point subsumes count-based refutation.
        for &(rank, clock, s) in &passes::infeasible_alternates(&model) {
            if let Some(Some(set)) = refinement.sets.get(&(rank, clock)) {
                prop_assert!(
                    !set.contains(&s),
                    "counting refuted ({},{},{}) but refinement kept it",
                    rank, clock, s
                );
            }
        }

        let base = v.verify_with_first_run(&prog, run.clone());
        let analysis = analyze("prop", sc.nprocs, &events, &run);
        let pruned = v
            .clone()
            .with_prune_plan(analysis.prune_plan())
            .verify_with_first_run(&prog, run);
        prop_assert_eq!(error_keys(&base), error_keys(&pruned), "scenario {:?}", sc);
        prop_assert!(pruned.interleavings <= base.interleavings);
        if analysis.lints.iter().any(|l| l.id == "L005") {
            prop_assert!(
                !base.errors.is_empty(),
                "L005 claimed a definite bug on an error-free program: {:?}",
                sc
            );
        }
    }

    /// The op-level candidate sets (L005's evidence) stay within the
    /// trivially-sound envelope of existing world ranks.
    #[test]
    fn op_candidates_stay_within_envelope(
        nprocs in 2usize..5,
        raw_sends in prop::collection::vec(
            prop::collection::vec((0u8..2, 1u64..4), 0..3), 1..4),
        raw_recvs in prop::collection::vec((0u8..5, 1usize..4, 0u64..4), 0..4),
    ) {
        let sc = build(nprocs, &raw_sends, &raw_recvs);
        let prog = program(&sc);
        let v = DampiVerifier::new(
            SimConfig::new(sc.nprocs).with_policy(MatchPolicy::LowestRank),
        );
        let (events, run) = v.traced_run(&prog);
        let model = TraceModel::build(sc.nprocs, &events, &run.epochs);
        let envelope: BTreeSet<usize> = (0..sc.nprocs).collect();
        for ((rank, _pos), set) in passes::wildcard_op_candidates(&model) {
            prop_assert!(rank < sc.nprocs);
            prop_assert!(set.is_subset(&envelope));
        }
    }
}
