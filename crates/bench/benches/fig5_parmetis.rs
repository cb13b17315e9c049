//! **Fig. 5 — ParMETIS-3.1: DAMPI vs. ISP.**
//!
//! Verification time (simulated seconds) of the deterministic ParMETIS
//! kernel under ISP's centralized scheduler vs. DAMPI, as process count
//! grows from 4 to 32 (the paper's x-axis), plus DAMPI-only points out to
//! 1024 to demonstrate the "negligible overhead until beyond 1K" claim.
//!
//! Expected shape: ISP's curve climbs super-linearly (every MPI call
//! serializes through one scheduler while the total op count grows ~2.5x
//! per doubling); DAMPI stays within a small factor of native throughout.

use dampi_bench::Table;
use dampi_core::{DampiVerifier, DecisionSet};
use dampi_isp::IspVerifier;
use dampi_mpi::{run_native, SimConfig};
use dampi_workloads::parmetis::{Parmetis, ParmetisParams};

fn scale() -> f64 {
    if std::env::var("DAMPI_BENCH_FAST").is_ok() {
        0.1
    } else {
        0.3
    }
}

fn measure(np: usize, with_isp: bool) -> (f64, f64, Option<f64>) {
    let prog = Parmetis::new(ParmetisParams::nominal(np, scale()));
    let sim = SimConfig::new(np);
    let native = run_native(&sim, &prog);
    assert!(native.succeeded(), "{:?}", native.fatal);
    let dampi = DampiVerifier::new(sim.clone())
        .instrumented_run(&prog, &DecisionSet::self_run())
        .outcome;
    assert!(dampi.succeeded(), "{:?}", dampi.fatal);
    let isp = with_isp.then(|| {
        let out = IspVerifier::new(sim)
            .instrumented_run(&prog, &DecisionSet::self_run())
            .outcome;
        assert!(out.succeeded(), "{:?}", out.fatal);
        out.makespan
    });
    (native.makespan, dampi.makespan, isp)
}

fn main() {
    let mut table = Table::new(
        "Fig. 5: ParMETIS-3.1 verification time (simulated seconds), DAMPI vs ISP",
        &[
            "procs",
            "native",
            "DAMPI",
            "ISP",
            "DAMPI/native",
            "ISP/native",
        ],
    );
    for np in [4usize, 8, 12, 16, 20, 24, 28, 32] {
        let (native, dampi, isp) = measure(np, true);
        let isp = isp.expect("requested");
        table.row(vec![
            np.to_string(),
            format!("{native:.4}"),
            format!("{dampi:.4}"),
            format!("{isp:.4}"),
            format!("{:.2}x", dampi / native),
            format!("{:.2}x", isp / native),
        ]);
    }
    // DAMPI-only extension: the scalability headroom ISP cannot reach.
    for np in [64usize, 128, 256, 512, 1024] {
        let (native, dampi, _) = measure(np, false);
        table.row(vec![
            np.to_string(),
            format!("{native:.4}"),
            format!("{dampi:.4}"),
            "-".to_owned(),
            format!("{:.2}x", dampi / native),
            "-".to_owned(),
        ]);
    }
    table.print();
}
