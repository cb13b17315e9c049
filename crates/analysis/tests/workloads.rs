//! End-to-end analyzer checks against the real workload crate: seeded-bug
//! patterns must fire exactly their intended lint, clean kernels must fire
//! none, and the symmetry pass must find the racers orbits it prunes with.
//! The session-protocol gates live here too: every committed spec must be
//! conformant against its workload (zero false positives), the seeded
//! L006–L008 patterns must fire exactly their lint, and protocol-guided
//! pruning must beat PrunePlan v2 without touching the error set.

use dampi_analysis::{
    analyze, analyze_program, analyze_program_with_protocol, analyze_with_protocol, AnalysisReport,
    ProtocolSpec,
};
use dampi_core::report::VerificationReport;
use dampi_core::DampiVerifier;
use dampi_mpi::program::MpiProgram;
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::{nas, patterns, protocols, spec};

fn verifier(np: usize) -> DampiVerifier {
    DampiVerifier::new(SimConfig::new(np).with_policy(MatchPolicy::LowestRank))
}

/// Error set of one campaign as comparable `(rank, message)` keys.
type ErrorKeys = Vec<(usize, String)>;

fn keys(r: &VerificationReport) -> ErrorKeys {
    let mut k: ErrorKeys = r
        .errors
        .iter()
        .map(|e| (e.rank, e.error.to_string()))
        .collect();
    k.sort();
    k
}

/// Grow the plain and the pruned campaign from the same traced free run
/// (exactly the CLI's `--prune-static` path), check the coverage invariant
/// — equal error sets — and return both reports and the plan's analysis.
fn base_and_pruned(
    v: &DampiVerifier,
    prog: &dyn MpiProgram,
) -> (VerificationReport, VerificationReport, AnalysisReport) {
    let (events, run) = v.traced_run(prog);
    let base = v.verify_with_first_run(prog, run.clone());
    let analysis = analyze(prog.name(), v.sim.nprocs, &events, &run);
    let pruned = v
        .clone()
        .with_prune_plan(analysis.prune_plan())
        .verify_with_first_run(prog, run);
    assert_eq!(
        keys(&base),
        keys(&pruned),
        "{}: pruning changed the error set",
        prog.name()
    );
    (base, pruned, analysis)
}

fn orbits(report: &AnalysisReport) -> Vec<Vec<usize>> {
    report
        .plan
        .orbits
        .iter()
        .map(|o| o.iter().copied().collect())
        .collect()
}

#[test]
fn collective_mismatch_fires_exactly_l001() {
    let report = analyze_program(&verifier(4), &patterns::collective_mismatch());
    let ids: Vec<&str> = report.lints.iter().map(|l| l.id).collect();
    assert_eq!(ids, ["L001"], "lints: {:?}", report.lints);
    assert_eq!(report.error_lints(), 1);
}

#[test]
fn request_leak_fires_exactly_l002() {
    let report = analyze_program(&verifier(4), &patterns::request_leak());
    let ids: Vec<&str> = report.lints.iter().map(|l| l.id).collect();
    assert_eq!(ids, ["L002"], "lints: {:?}", report.lints);
    // A warning, not an error: the CLI must not exit non-zero for it.
    assert_eq!(report.error_lints(), 0);
}

#[test]
fn clean_nas_kernels_fire_no_lints() {
    for (name, prog) in nas::all_nominal() {
        let report = analyze_program(&verifier(4), prog.as_ref());
        assert!(
            report.lints.is_empty(),
            "{name}: unexpected lints {:?}",
            report.lints
        );
    }
}

#[test]
fn racers_orbits_are_stable() {
    // The racers trace is deterministic (all payloads are constant), so the
    // symmetry pass must find the producer and consumer orbits every run,
    // and the campaign they halve is the same every run: 4 replays -> 2.
    let (base, pruned, analysis) = base_and_pruned(&verifier(4), &patterns::symmetric_racers());
    assert_eq!(orbits(&analysis), vec![vec![0, 2], vec![1, 3]]);
    assert_eq!((base.interleavings, pruned.interleavings), (4, 2));
}

#[test]
fn fig3_keeps_its_bug_under_pruning() {
    // Fig. 3's ranks 0 and 2 send *equal-length* payloads (22 vs. 33) to
    // rank 1's wildcards; the bug lives on the x==33 match only. The
    // payload digest must keep the two senders out of a common orbit, and
    // the pruned campaign must still report the assertion failure.
    let prog = patterns::fig3();
    let report = analyze_program(&verifier(3), &prog);
    assert!(
        report.plan.orbits.is_empty(),
        "content-distinct senders must not form an orbit: {:?}",
        report.plan.orbits
    );
    let (base, _, _) = base_and_pruned(&verifier(3), &prog);
    assert!(
        !base.errors.is_empty(),
        "fig3 plain campaign must find the bug"
    );
}

#[test]
fn stuck_wildcard_fires_l005() {
    // Rank 0's wildcard waits for tag 9 that nobody ever sends: the
    // refined match set is empty, so L005 fires (and L002 for the
    // never-completed request). L003 must stay quiet — the only real
    // traffic is balanced by a named receive.
    let report = analyze_program(&verifier(3), &patterns::stuck_wildcard());
    let ids: Vec<&str> = report.lints.iter().map(|l| l.id).collect();
    assert_eq!(ids, ["L002", "L005"], "lints: {:?}", report.lints);
    // L005 is the only error-severity finding (L002 is a warning).
    assert_eq!(report.error_lints(), 1);
    assert!(report.plan.is_empty(), "plan: {:?}", report.plan);
}

#[test]
fn matmul_ack_slaves_merge_obliviously() {
    // In ack mode the slaves' traces differ only in the *content* of the
    // task payloads they receive, and they receive exclusively by name:
    // the payload-oblivious pass must merge all three into one orbit, and
    // that orbit collapses the campaign 90 replays -> 15 on every run.
    use dampi_workloads::matmul::{Matmul, MatmulParams};
    let prog = Matmul::new(MatmulParams {
        ack_results: true,
        ..Default::default()
    });
    let (base, pruned, analysis) = base_and_pruned(&DampiVerifier::new(SimConfig::new(4)), &prog);
    assert_eq!(
        orbits(&analysis),
        vec![vec![1, 2, 3]],
        "{:?}",
        analysis.plan
    );
    assert!(
        !analysis.plan.oblivious_receives.is_empty(),
        "merge must be licensed by masked receives"
    );
    assert_eq!((base.interleavings, pruned.interleavings), (90, 15));
}

#[test]
fn matmul_content_mode_stays_unmerged() {
    // Pinned: content-returning matmul routes row data through the
    // wildcard receives — masking is never licensed, no orbit forms, and
    // the plan (a singleton match set or two, which forks nothing anyway)
    // prunes no alternate: all 162 replays stay.
    use dampi_workloads::matmul::{Matmul, MatmulParams};
    let prog = Matmul::new(MatmulParams::default());
    let (base, pruned, analysis) = base_and_pruned(&DampiVerifier::new(SimConfig::new(4)), &prog);
    assert!(analysis.plan.orbits.is_empty(), "{:?}", analysis.plan);
    assert!(analysis.plan.oblivious_receives.is_empty());
    assert_eq!(
        pruned.alternates_pruned + pruned.refined_alternates_pruned,
        0
    );
    assert_eq!((base.interleavings, pruned.interleavings), (162, 162));
}

#[test]
fn adlb_oblivious_merges_beyond_exact() {
    // The trace is a function of the program and the match policy, so the
    // numbers are pinned. The containment invariant is checked on every
    // run: the oblivious grouping refines the exact one.
    use std::collections::BTreeSet;

    use dampi_analysis::{passes, TraceModel};
    use dampi_core::bounds::MixingBound;
    use dampi_core::DampiConfig;
    use dampi_workloads::adlb::{Adlb, AdlbParams};
    let prog = Adlb::new(AdlbParams::default());
    let verifier = |policy: MatchPolicy, k: u32| {
        DampiVerifier::with_config(
            SimConfig::new(16).with_policy(policy),
            DampiConfig::default().with_bound(MixingBound::K(k)),
        )
    };
    // (exact, oblivious) orbits and the masking points licensing the merge.
    let orbits_of = |policy: MatchPolicy| {
        let (events, run) = verifier(policy, 1).traced_run(&prog);
        let model = TraceModel::build(16, &events, &run.epochs);
        let exact = passes::rank_orbits(&model);
        let (oblivious, points) = passes::rank_orbits_oblivious(&model);
        for orbit in &exact {
            assert!(
                oblivious.iter().any(|o| orbit.is_subset(o)),
                "{policy:?}: exact orbit {orbit:?} lost under oblivious grouping {oblivious:?}"
            );
        }
        (exact, oblivious, points.len())
    };
    let merged = |orbits: &[BTreeSet<usize>]| -> usize { orbits.iter().map(BTreeSet::len).sum() };
    let set = |ranks: &[usize]| ranks.iter().copied().collect::<BTreeSet<usize>>();
    for _ in 0..2 {
        let (exact, oblivious, points) = orbits_of(MatchPolicy::LowestRank);
        assert_eq!(exact, [set(&[4, 5, 6, 7, 8, 9])]);
        assert_eq!(
            oblivious,
            [set(&[4, 5, 6, 7, 8, 9]), set(&[10, 11, 12, 13, 14])]
        );
        assert_eq!((merged(&exact), merged(&oblivious), points), (6, 11, 5));
    }
    // Every other dealing merges strictly too, each under a masking license.
    for seed in 1..16 {
        let (exact, oblivious, points) = orbits_of(MatchPolicy::Seeded(seed));
        assert!(
            merged(&oblivious) > merged(&exact) && points > 0,
            "Seeded({seed}): {exact:?} -> {oblivious:?} with {points} masking points"
        );
    }
    // The campaign-level contract: the pruned campaign keeps the error set
    // (checked inside `base_and_pruned`) and shrinks. k=0 keeps both
    // campaigns to a few hundred replays.
    let (base, pruned, analysis) = base_and_pruned(&verifier(MatchPolicy::LowestRank, 0), &prog);
    assert!(!analysis.plan.orbits.is_empty(), "{:?}", analysis.plan);
    assert_eq!((base.interleavings, pruned.interleavings), (304, 219));
}

#[test]
fn alternate_schedule_deadlock_survives_pruning() {
    // The deadlock only manifests on a forced alternate match — exactly
    // the kind of fork an unsound prune plan would drop.
    let prog = patterns::deadlock_on_alternate_schedule();
    let (base, _, _) = base_and_pruned(&verifier(3), &prog);
    assert!(
        !base.errors.is_empty(),
        "plain campaign must find the deadlock"
    );
}

#[test]
fn clean_spec_kernels_fire_no_lints() {
    // The SpecMPI2007 skeletons join the zero-false-positive gate: none
    // of L001–L008 may fire on a nominal run.
    for (name, prog) in spec::all_nominal() {
        let report = analyze_program(&verifier(4), prog.as_ref());
        assert!(
            report.lints.is_empty(),
            "{name}: unexpected lints {:?}",
            report.lints
        );
    }
}

#[test]
fn clean_parmetis_fires_no_lints() {
    use dampi_workloads::parmetis::{Parmetis, ParmetisParams};
    let prog = Parmetis::new(ParmetisParams::nominal(4, 0.2));
    let report = analyze_program(&verifier(4), &prog);
    assert!(
        report.lints.is_empty(),
        "parmetis: unexpected lints {:?}",
        report.lints
    );
}

/// The committed workloads each committed spec is checked against, at the
/// world size the spec's literal roles assume.
fn spec_programs() -> Vec<(&'static str, usize, Box<dyn MpiProgram>)> {
    use dampi_workloads::adlb::{Adlb, AdlbParams};
    use dampi_workloads::matmul::{Matmul, MatmulParams};
    vec![
        ("matmul", 4, Box::new(Matmul::new(MatmulParams::default()))),
        (
            "matmul_ack",
            4,
            Box::new(Matmul::new(MatmulParams {
                ack_results: true,
                ..MatmulParams::default()
            })),
        ),
        ("adlb", 4, Box::new(Adlb::new(AdlbParams::default()))),
        ("racers", 4, Box::new(patterns::symmetric_racers())),
        ("ordered_stages", 3, Box::new(patterns::ordered_stages())),
        ("protocol_demo", 3, Box::new(patterns::protocol_demo())),
    ]
}

#[test]
fn every_committed_spec_is_conformant_with_zero_false_positives() {
    for (name, np, prog) in spec_programs() {
        let spec = ProtocolSpec::parse(protocols::by_name(name).expect("committed spec"))
            .unwrap_or_else(|e| panic!("{name}: spec must parse: {e}"));
        let report = analyze_program_with_protocol(&verifier(np), prog.as_ref(), Some(&spec))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let p = report.protocol.as_ref().expect("protocol block present");
        assert_eq!(
            (p.l006, p.l007, p.l008),
            (0, 0, 0),
            "{name}: false positive — {:?}",
            report.lints
        );
        assert!(
            p.rank_status.iter().all(|s| *s == "conformant"),
            "{name}: {:?}",
            p.rank_status
        );
    }
}

#[test]
fn seeded_protocol_violations_fire_exactly_their_lint() {
    let spec = ProtocolSpec::parse(protocols::PROTOCOL_DEMO).unwrap();
    let cases: Vec<(&str, Box<dyn MpiProgram>, &str)> = vec![
        ("order", Box::new(patterns::protocol_order_bug()), "L006"),
        ("peer", Box::new(patterns::protocol_peer_bug()), "L007"),
        ("short", Box::new(patterns::protocol_short_bug()), "L008"),
    ];
    for (what, prog, want) in cases {
        let report =
            analyze_program_with_protocol(&verifier(3), prog.as_ref(), Some(&spec)).unwrap();
        let ids: Vec<&str> = report.lints.iter().map(|l| l.id).collect();
        assert_eq!(ids, [want], "{what} bug: lints {:?}", report.lints);
        assert_eq!(
            report.lints[0].ranks,
            [0],
            "{what} bug fires on the coordinator"
        );
        assert_eq!(report.error_lints(), 1, "{what} bug must drive exit 2");
        // A non-conformant run must contribute no pruning facts.
        assert!(report.plan.protocol_deterministic.is_empty());
        assert!(report.plan.protocol_infeasible.is_empty());
    }
}

#[test]
fn ordered_stages_protocol_prunes_beyond_v2_with_equal_errors() {
    // The committed headline: PrunePlan v2 keeps both interleavings of
    // ordered_stages' sink wildcard; the protocol pins it to stage1 and the
    // campaign drops to a single replayed schedule. protocol_demo is the
    // control: its spec is conformant but rules no alternate out, so the
    // protocol plan is empty and all three campaigns replay the same 2.
    // Rows: (program, spec, base -> v2 -> v3 replays,
    //        [protocol_deterministic, protocol_infeasible] fact counts).
    type Row = (Box<dyn MpiProgram>, &'static str, [u64; 3], [usize; 2]);
    let rows: Vec<Row> = vec![
        (
            Box::new(patterns::ordered_stages()),
            protocols::ORDERED_STAGES,
            [2, 2, 1],
            [2, 1],
        ),
        (
            Box::new(patterns::protocol_demo()),
            protocols::PROTOCOL_DEMO,
            [2, 2, 2],
            [0, 0],
        ),
    ];
    for (prog, spec, replays, facts) in rows {
        let (prog, name, np) = (prog.as_ref(), prog.name(), 3);
        let v = verifier(np);
        let (events, run) = v.traced_run(prog);
        let base = v.verify_with_first_run(prog, run.clone());
        let v2 = analyze(name, np, &events, &run);
        let spec = ProtocolSpec::parse(spec).unwrap();
        let v3 = analyze_with_protocol(name, np, &events, &run, Some(&spec)).unwrap();
        assert_eq!(
            [
                v3.plan.protocol_deterministic.len(),
                v3.plan.protocol_infeasible.len()
            ],
            facts,
            "{name}: {:?}",
            v3.plan
        );
        let pruned_v2 = v
            .clone()
            .with_prune_plan(v2.prune_plan())
            .verify_with_first_run(prog, run.clone());
        let pruned_v3 = v
            .clone()
            .with_prune_plan(v3.prune_plan())
            .verify_with_first_run(prog, run);
        assert_eq!(
            [
                base.interleavings,
                pruned_v2.interleavings,
                pruned_v3.interleavings
            ],
            replays,
            "{name}: base -> v2 -> v3"
        );
        assert_eq!(keys(&base), keys(&pruned_v2), "{name}");
        assert_eq!(keys(&base), keys(&pruned_v3), "{name}");
        // The campaign counters attribute the win to the protocol.
        assert_eq!(
            pruned_v3.protocol_alternates_pruned + pruned_v3.protocol_wildcards_deterministic > 0,
            replays[2] < replays[1],
            "{name}"
        );
    }
}

#[test]
fn seeded_bugs_prune_nothing_by_accident() {
    // The lint patterns are asymmetric and wildcard-free: the prune plan
    // must stay empty so `analyze` never masks the bug it is reporting.
    for prog in [
        Box::new(patterns::collective_mismatch()) as Box<dyn dampi_mpi::MpiProgram>,
        Box::new(patterns::request_leak()),
    ] {
        let report = analyze_program(&verifier(4), prog.as_ref());
        assert!(report.plan.is_empty(), "plan: {:?}", report.plan);
    }
}
