//! The paper's evaluation (§III) as pinned answers: Fig. 5, Table I,
//! Table II, Fig. 6, Fig. 8, Fig. 9 and four ablations.
//!
//! Each test runs one artifact at a size that fits a test run and asserts
//! every cell it would print against a literal: counts exactly, virtual
//! times and ratios at the precision the table shows. The runtime's turn
//! token makes each cell repeat from run to run. One row is one line: its
//! cells in column order, space separated. EXPERIMENTS.md sets these
//! cells beside the paper's. Table II, and Fig. 5's DAMPI column, at any
//! np are `dampi-cli overhead --np N`.

use std::sync::Arc;

use dampi::core::pb::stamp_wire_bytes;
use dampi::core::scheduler::RunResult;
use dampi::core::{
    ClockMode, DampiConfig, DampiVerifier, DecisionSet, MixingBound, PiggybackMechanism, ToolStack,
};
use dampi::mpi::interpose::StatsLayer;
use dampi::mpi::stats::{OpStats, StatsCollector};
use dampi::mpi::{ready_stack, run_native, run_with_layers, MatchPolicy, MpiProgram, SimConfig};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::parmetis::{Parmetis, ParmetisParams};
use dampi::workloads::spec::{Lammps, Milc};
use dampi::workloads::{nas, patterns, spec};

/// A ParMETIS kernel at a tenth of the paper's scale.
fn parmetis(np: usize) -> Parmetis {
    Parmetis::new(ParmetisParams::nominal(np, 0.1))
}

/// The instrumented/native virtual-time ratio of one self-run and the
/// instrumented run, both runs required to succeed.
fn slowdown(verifier: &DampiVerifier, program: &dyn MpiProgram) -> (f64, RunResult) {
    let (ratio, native, inst) = verifier.slowdown(program);
    assert!(native.succeeded(), "{}: {:?}", program.name(), native.fatal);
    assert!(
        inst.outcome.succeeded(),
        "{}: {:?}",
        program.name(),
        inst.outcome.fatal
    );
    (ratio, inst)
}

/// The virtual time of one self-run under `cfg`.
fn makespan(np: usize, cfg: DampiConfig, program: &dyn MpiProgram) -> f64 {
    let out = DampiVerifier::with_config(SimConfig::new(np), cfg)
        .instrumented_run(program, &DecisionSet::self_run())
        .outcome;
    assert!(out.succeeded(), "{:?}", out.fatal);
    out.makespan
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "Yes"
    } else {
        "No"
    }
}

/// Fig. 5: ParMETIS verification time (virtual seconds) natively, under
/// DAMPI and under ISP, np 4-32; then DAMPI alone to the paper's 1K
/// processes. ISP's time climbs with the op count; DAMPI stays within a
/// small factor of native.
#[test]
fn fig5_parmetis_dampi_vs_isp() {
    let rows: Vec<String> = [4, 8, 12, 16, 20, 24, 28, 32, 64, 128, 256, 512, 1024]
        .into_iter()
        .map(|np| {
            let prog = parmetis(np);
            let native = run_native(&SimConfig::new(np), &prog);
            assert!(native.succeeded(), "{:?}", native.fatal);
            let native = native.makespan;
            let dampi = makespan(np, DampiConfig::default(), &prog);
            let mut row = format!("{np} {native:.4} {dampi:.4}");
            if np <= 32 {
                let isp = makespan(np, DampiConfig::default().with_tool(ToolStack::Isp), &prog);
                row += &format!(" {isp:.4} {:.2}x {:.2}x", dampi / native, isp / native);
            } else {
                row += &format!(" - {:.2}x -", dampi / native);
            }
            row
        })
        .collect();
    assert_eq!(
        rows,
        [
            "4 0.0027 0.0028 0.0431 1.07x 16.26x",
            "8 0.0022 0.0024 0.0922 1.11x 42.47x",
            "12 0.0022 0.0025 0.1495 1.15x 67.38x",
            "16 0.0022 0.0025 0.2299 1.15x 103.66x",
            "20 0.0023 0.0027 0.2871 1.18x 126.55x",
            "24 0.0023 0.0027 0.3675 1.18x 161.97x",
            "28 0.0023 0.0027 0.4480 1.18x 197.43x",
            "32 0.0023 0.0027 0.5516 1.18x 243.11x",
            "64 0.0017 0.0021 - 1.23x -",
            "128 0.0018 0.0022 - 1.26x -",
            "256 0.0018 0.0023 - 1.29x -",
            "512 0.0018 0.0024 - 1.31x -",
            "1024 0.0019 0.0025 - 1.34x -",
        ]
    );
}

/// Table I: the MPI operation census of ParMETIS at np 8-128 (Send-Recv,
/// Collective and Wait; totals and per process), then the growth of the
/// total and of the per-process count per doubling. The total grows
/// about twice as fast as one process's share.
#[test]
fn table1_parmetis_operation_census() {
    let nps = [8, 16, 32, 64, 128];
    let census: Vec<(OpStats, OpStats)> = nps
        .iter()
        .map(|&np| {
            let collector = StatsCollector::new();
            let c = Arc::clone(&collector);
            let out = run_with_layers(&SimConfig::new(np), &parmetis(np), &move |_, pmpi| {
                ready_stack(StatsLayer::new(pmpi, Arc::clone(&c)))
            });
            assert!(out.succeeded(), "{:?}", out.fatal);
            (collector.total(), collector.per_proc())
        })
        .collect();
    let fmt_k = |v: u64| {
        if v >= 10_000 {
            format!("{}K", v / 1000)
        } else if v >= 1000 {
            format!("{:.1}K", v as f64 / 1000.0)
        } else {
            v.to_string()
        }
    };
    type Cell = fn(&(OpStats, OpStats)) -> u64;
    let cells: [(&str, Cell); 8] = [
        ("All", |d| d.0.total()),
        ("All-per-proc", |d| d.1.total()),
        ("Send-Recv", |d| d.0.send_recv),
        ("Send-Recv-per-proc", |d| d.1.send_recv),
        ("Collective", |d| d.0.collective),
        ("Collective-per-proc", |d| d.1.collective),
        ("Wait", |d| d.0.wait),
        ("Wait-per-proc", |d| d.1.wait),
    ];
    let mut rows: Vec<String> = cells
        .iter()
        .map(|(label, cell)| {
            let counts: Vec<String> = census.iter().map(|d| fmt_k(cell(d))).collect();
            format!("{label} {}", counts.join(" "))
        })
        .collect();
    for (label, cell) in [cells[0], cells[1]] {
        let growth: Vec<String> = census
            .windows(2)
            .map(|w| format!("{:.2}x", cell(&w[1]) as f64 / cell(&w[0]) as f64))
            .collect();
        rows.push(format!("{label}-growth {}", growth.join(" ")));
    }
    assert_eq!(
        rows,
        [
            "All 312 816 1.9K 3.4K 7.6K",
            "All-per-proc 39 51 59 53 59",
            "Send-Recv 192 512 1.3K 2.3K 5.4K",
            "Send-Recv-per-proc 24 32 40 36 42",
            "Collective 56 112 224 320 640",
            "Collective-per-proc 7 7 7 5 5",
            "Wait 64 192 384 768 1.5K",
            "Wait-per-proc 8 12 12 12 12",
            "All-growth 2.62x 2.31x 1.80x 2.23x",
            "All-per-proc-growth 1.31x 1.16x 0.90x 1.11x",
        ]
    );
}

/// Table II at np 64: slowdown, wildcard receives analyzed (R*) and the
/// communicator and request leak findings of ParMETIS and the SpecMPI and
/// NAS skeletons. 104.milc is the worst slowdown, as in the paper.
#[test]
fn table2_dampi_overhead_at_np_64() {
    let np = 64;
    let mut programs: Vec<(&str, Box<dyn MpiProgram>)> = vec![(
        "ParMETIS-3.1",
        Box::new(Parmetis::new(ParmetisParams::nominal(np, 0.3))),
    )];
    programs.extend(spec::all_nominal());
    programs.extend(nas::all_nominal());
    let verifier = DampiVerifier::new(SimConfig::new(np));
    let mut worst = ("", 0.0f64);
    let rows: Vec<String> = programs
        .iter()
        .map(|(name, prog)| {
            let (ratio, inst) = slowdown(&verifier, prog.as_ref());
            if ratio > worst.1 {
                worst = (name, ratio);
            }
            let leaks = &inst.outcome.leaks;
            format!(
                "{name} {ratio:.2}x {} {} {}",
                inst.stats.wildcards,
                yes_no(leaks.has_comm_leak()),
                yes_no(leaks.has_request_leak())
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            "ParMETIS-3.1 1.19x 0 Yes No",
            "104.milc 16.04x 4480 Yes No",
            "107.leslie3d 1.10x 0 No No",
            "113.GemsFDTD 1.14x 0 Yes No",
            "126.lammps 1.76x 0 No No",
            "130.socorro 1.22x 0 No No",
            "137.lu 1.09x 126 Yes No",
            "BT 1.28x 0 Yes No",
            "CG 1.12x 0 No No",
            "DT 1.02x 0 No No",
            "EP 1.03x 0 No No",
            "FT 1.03x 0 Yes No",
            "IS 1.08x 0 No No",
            "LU 2.57x 224 No No",
            "MG 1.14x 0 No No",
        ]
    );
    assert_eq!(worst.0, "104.milc");
}

/// Fig. 6: virtual seconds, summed over replays, to explore N
/// interleavings of an np-8 matmul under DAMPI and under ISP. Both grow
/// linearly in N; ISP's slope is far steeper.
#[test]
fn fig6_matmul_time_to_explore_n_interleavings() {
    let prog = Matmul::new(MatmulParams {
        n: 8,
        rounds_per_slave: 2,
        task_cost: 1e-4,
        ..Default::default()
    });
    let explore = |tool: ToolStack, budget: u64| {
        let cfg = DampiConfig::default()
            .with_tool(tool)
            .with_max_interleavings(budget);
        let report = DampiVerifier::with_config(SimConfig::new(8), cfg).verify(&prog);
        assert_eq!(
            report.interleavings, budget,
            "matmul has enough interleavings"
        );
        report.total_virtual_time
    };
    let rows: Vec<String> = [50, 100]
        .into_iter()
        .map(|budget| {
            let dampi = explore(ToolStack::Dampi, budget);
            let isp = explore(ToolStack::Isp, budget);
            format!("{budget} {dampi:.2} {isp:.2} {:.1}x", isp / dampi)
        })
        .collect();
    assert_eq!(rows, ["50 0.04 1.35 30.5x", "100 0.09 2.69 30.6x"]);
}

#[test]
fn fig8_matmul_interleavings_under_bounded_mixing() {
    // Fig. 8 as a checked answer: the cells for its matmul (n=8, one round
    // per slave) at np 2-6. The unbounded column is the (np-1)! match
    // orders; k=0 is 1 + the alternates of the free run; k=1 and k=2 lie
    // between.
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

/// Fig. 9: interleavings DAMPI explores for ADLB (one server, three seed
/// items) at np 4 and 8 under mixing bounds k = 0, 1, 2, each within a
/// budget of 2000 replays. Counts grow with np and with k; every schedule passes
/// ADLB's own accounting.
#[test]
fn fig9_adlb_interleavings_under_bounded_mixing() {
    let prog = Adlb::new(AdlbParams {
        nservers: 1,
        seed_items: 3,
        spawn_depth: 1,
        spawn_width: 1,
        work_cost: 1e-5,
    });
    let rows: Vec<String> = [4, 8]
        .into_iter()
        .map(|np| {
            let cells: Vec<String> = (0..=2)
                .map(|k| {
                    let cfg = DampiConfig::default()
                        .with_bound(MixingBound::K(k))
                        .with_max_interleavings(2_000);
                    let report = DampiVerifier::with_config(SimConfig::new(np), cfg).verify(&prog);
                    assert!(report.errors.is_empty(), "ADLB must verify clean: {report}");
                    assert!(!report.budget_exhausted, "{report}");
                    report.interleavings.to_string()
                })
                .collect();
            format!("{np} {}", cells.join(" "))
        })
        .collect();
    assert_eq!(rows, ["4 31 89 249", "8 67 349 1965"]);
}

/// Ablation: DAMPI's separate shadow-communicator piggyback against
/// payload packing, as instrumented virtual time of 126.lammps at np 64
/// and its ratio to native.
#[test]
fn ablation_piggyback_mechanism() {
    let np = 64;
    let prog = Lammps::nominal();
    let native = run_native(&SimConfig::new(np), &prog).makespan;
    let rows: Vec<String> = [
        ("separate-message", PiggybackMechanism::SeparateMessage),
        ("payload-packing", PiggybackMechanism::PayloadPacking),
    ]
    .into_iter()
    .map(|(name, mech)| {
        let m = makespan(np, DampiConfig::default().with_piggyback(mech), &prog);
        format!("{name} {m:.4} {:.2}x", m / native)
    })
    .collect();
    assert_eq!(
        rows,
        [
            "separate-message 0.0023 1.76x",
            "payload-packing 0.0015 1.15x",
        ]
    );
}

/// Ablation: Lamport against vector clocks on 104.milc, as piggyback wire
/// bytes per message and slowdown at np 16, 64 and 256. A vector stamp
/// grows with the world; a Lamport stamp does not (§II-C).
#[test]
fn ablation_clock_mode() {
    let prog = Milc::nominal();
    let rows: Vec<String> = [16, 64, 256]
        .into_iter()
        .map(|np| {
            let slow = |mode| {
                let cfg = DampiConfig::default().with_clock_mode(mode);
                slowdown(&DampiVerifier::with_config(SimConfig::new(np), cfg), &prog).0
            };
            format!(
                "{np} {} {} {:.2}x {:.2}x",
                stamp_wire_bytes(ClockMode::Lamport, np),
                stamp_wire_bytes(ClockMode::Vector, np),
                slow(ClockMode::Lamport),
                slow(ClockMode::Vector)
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            "16 24 144 17.09x 30.87x",
            "64 24 528 16.04x 69.80x",
            "256 24 2064 15.49x 223.96x",
        ]
    );
}

/// Ablation: whether one native run of the Fig. 3 program shows its bug
/// under three match policies, against DAMPI's coverage.
#[test]
fn ablation_native_bias_against_dampi_coverage() {
    let mut rows: Vec<String> = [
        ("LowestRank", MatchPolicy::LowestRank),
        ("ArrivalOrder", MatchPolicy::ArrivalOrder),
        ("Seeded(7)", MatchPolicy::Seeded(7)),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let out = run_native(&SimConfig::new(3).with_policy(policy), &patterns::fig3());
        format!("native-{name} {}", yes_no(!out.succeeded()))
    })
    .collect();
    let report = DampiVerifier::new(SimConfig::new(3).with_policy(MatchPolicy::LowestRank))
        .verify(&patterns::fig3());
    rows.push(format!(
        "DAMPI {} {}",
        yes_no(!report.errors.is_empty()),
        report.interleavings
    ));
    assert_eq!(
        rows,
        [
            "native-LowestRank No",
            "native-ArrivalOrder No",
            "native-Seeded(7) No",
            "DAMPI Yes 2",
        ]
    );
}

/// Ablation: interleavings of an np-5 matmul under the paper's walk and
/// under a DPOR-style walk that also branches on alternates found in
/// guided epochs.
#[test]
fn ablation_branch_on_guided_epochs() {
    let prog = Matmul::new(MatmulParams {
        n: 6,
        rounds_per_slave: 1,
        task_cost: 0.0,
        ..Default::default()
    });
    let rows: Vec<u64> = [false, true]
        .into_iter()
        .map(|branch| {
            let mut cfg = DampiConfig::default().with_max_interleavings(50_000);
            cfg.branch_on_guided = branch;
            DampiVerifier::with_config(SimConfig::new(5), cfg)
                .verify(&prog)
                .interleavings
        })
        .collect();
    assert_eq!(rows, [24, 41]);
}
