//! `--quick` smoke: every workload's code path, traced and untraced,
//! through the real executable, in seconds (matmul np=4, 162 replays; adlb
//! np=6; fuzz seeds 0 and 1; ParMETIS np=16).

use std::path::Path;
use std::process::{Command, Output};

use dampi_benchmark::report::Results;
use dampi_benchmark::{spec, sys};
use serde_json::Value;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dampi-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark executable starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("output is UTF-8")
}

/// The driver's contract for the last line of a run.
fn check_contract_line(text: &str, names: &[&str]) {
    let last = text.lines().last().expect("some output");
    let line: Value = serde_json::from_str(last).expect("last line is JSON");
    let keys: Vec<&String> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys.len(), 4, "{last}");
    assert_eq!(
        line.get("correct").and_then(Value::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(
        line.get("failed").and_then(Value::as_u64),
        Some(0),
        "{last}"
    );
    assert!(
        line.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{last}"
    );
    let metrics = line
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), names.len(), "{last}");
    for name in names {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing: {last}"));
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name}: {last}"
        );
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name}: {last}"
        );
    }
}

#[test]
fn quick_smoke_runs_every_workload_both_ways() {
    let e2e: Vec<&str> = spec::END_TO_END.iter().map(|(m, _)| m.name).collect();
    let layers: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();

    // One workload the way the driver runs it.
    for (trace, names) in [("0", &e2e), ("1", &layers)] {
        let out = bench(&[
            "--workload",
            "matmul_cold",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(out.status.success(), "{out:?}");
        let text = stdout(&out);
        for name in names.iter() {
            assert!(text.contains(name), "{name} not printed by name");
        }
        check_contract_line(&text, names);
    }
    let spans = std::fs::read_to_string(sys::out_dir().join("matmul_cold.trace.jsonl")).unwrap();
    assert!(spans.lines().any(|l| l.contains("\"core.tool.replay\"")));
    assert!(spans
        .lines()
        .any(|l| l.contains("\"core.scheduler.replays\"")));

    // Every workload, both ways, collected into one results file.
    let path = sys::out_dir().join("smoke-results.json");
    let path_str = path.to_str().expect("UTF-8 path");
    let out = bench(&["--quick", "--seconds", "0.2", "--out", path_str]);
    assert!(out.status.success(), "{}\n{out:?}", stdout(&out));
    let results: Results = serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
        .expect("results.json parses");
    assert_eq!(results.runs.len(), 2 * spec::WORKLOADS.len());
    for (pair, (workload, _)) in results.runs.chunks(2).zip(spec::WORKLOADS) {
        let [untraced, traced] = pair else {
            panic!("two runs per workload")
        };
        assert_eq!(
            (untraced.workload.as_str(), untraced.traced),
            (workload, false)
        );
        assert_eq!((traced.workload.as_str(), traced.traced), (workload, true));
        assert_eq!(untraced.failed + traced.failed, 0, "{workload}");
        assert_eq!(untraced.metrics.len(), e2e.len(), "{workload}");
        assert_eq!(traced.metrics.len(), layers.len(), "{workload}");
        assert!(
            untraced.metrics.values().all(|v| *v > 0.0),
            "{workload}: {untraced:?}"
        );
        let trace = sys::out_dir().join(format!("{workload}.trace.jsonl"));
        assert!(Path::new(&trace).exists(), "{workload} wrote no trace");
    }
    // What each workload is there to exercise was in fact exercised.
    let layer = |w: usize, name: &str| results.runs[2 * w + 1].metrics[name];
    assert_eq!(layer(0, "core.scheduler.replays"), 162.0);
    assert_eq!(layer(0, "core.cache.hits"), 0.0);
    assert!(layer(1, "analysis.alternates_pruned") > 0.0);
    assert!(layer(1, "analysis.plan_s") > 0.0);
    assert_eq!(layer(2, "core.cache.hits"), 90.0);
    assert_eq!(layer(2, "core.cache.misses"), 0.0);
    assert_eq!(layer(2, "core.scheduler.replay_p50_us"), 0.0);
    assert!(layer(2, "core.journal.save_us") > 0.0);
    assert!(layer(3, "isp.replays") > 0.0 && layer(3, "fuzz.seed_s_max") > 0.0);
    assert!(layer(4, "isp_vt_slowdown_x") > layer(4, "dampi_vt_slowdown_x"));
    assert!(layer(4, "mpi.runtime.msgs_per_s") > 0.0);

    // A file compared with itself has no worse row.
    let out = bench(&["compare", path_str, path_str]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("verdict_wall_s"));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
