//! Integration tests of the `dampi-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dampi-cli"))
}

#[test]
fn list_names_workloads() {
    let out = cli().arg("list").output().expect("run dampi-cli");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["matmul", "parmetis", "adlb", "fig3", "104.milc", "lu"] {
        assert!(stdout.contains(name), "missing `{name}` in:\n{stdout}");
    }
}

#[test]
fn verify_fig3_exits_with_bug_status() {
    let out = cli()
        .args(["verify", "fig3", "--np", "3"])
        .output()
        .expect("run dampi-cli");
    // Exit code 2 = verification found bugs.
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("x == 33"), "{stdout}");
}

#[test]
fn verify_clean_workload_exits_zero() {
    let out = cli()
        .args(["verify", "cg", "--np", "4", "--max", "5"])
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no errors found"), "{stdout}");
}

#[test]
fn verify_with_isp_backend() {
    let out = cli()
        .args(["verify", "fig3", "--np", "3", "--isp"])
        .output()
        .expect("run dampi-cli");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn verify_fig10_deferred_clock_finds_bug() {
    // Without the fix: clean exit (bug not reachable by plain coverage).
    let out = cli()
        .args(["verify", "fig10", "--np", "3"])
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{out:?}");
    // With the §V paired-clock fix: the bug is found.
    let out = cli()
        .args(["verify", "fig10", "--np", "3", "--deferred-clock"])
        .output()
        .expect("run dampi-cli");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unknown_workload_fails_gracefully() {
    let out = cli()
        .args(["verify", "nonexistent"])
        .output()
        .expect("run dampi-cli");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload"));
}

#[test]
fn usage_on_no_args() {
    let out = cli().output().expect("run dampi-cli");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn k_bound_flag_parses() {
    let out = cli()
        .args(["verify", "matmul", "--np", "4", "--k", "0", "--max", "200"])
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn verify_jobs_parity_on_symmetric_racers() {
    // The parallel acceptance check at the CLI boundary: `--jobs 4` must
    // report the identical interleaving count, error set, and coverage as
    // `--jobs 1` on the wildcard-racing pattern.
    let run = |jobs: &str| {
        let out = cli()
            .args(["verify", "racers", "--np", "4", "--jobs", jobs, "--json"])
            .output()
            .expect("run dampi-cli");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let seq = run("1");
    let par = run("4");
    assert_eq!(seq, par, "parallel JSON report must be byte-identical");
    assert!(seq.contains("\"interleavings\""), "{seq}");
}

#[test]
fn verify_prune_static_composes_with_shards() {
    // Real worker processes: the analyzed free run is committed by the
    // supervisor and the plan prunes on its commit path, so the pruned
    // sharded campaign is the pruned sequential one, byte for byte.
    let dir = std::env::temp_dir().join(format!("dampi-cli-prune-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |driver: [&str; 2], journal: &str| {
        let journal = dir.join(journal);
        let out = cli()
            .args(["verify", "racers", "--np", "4", "--prune-static", "--json"])
            .args(driver)
            .arg("--journal")
            .arg(&journal)
            .output()
            .expect("run dampi-cli");
        assert!(out.status.success(), "{out:?}");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read(&journal).expect("journal written"),
        )
    };
    let (seq, seq_journal) = run(["--jobs", "1"], "j1.journal");
    let (sharded, sharded_journal) = run(["--shards", "2"], "s2.journal");
    assert_eq!(seq, sharded, "pruned report must be byte-identical");
    assert_eq!(
        seq_journal, sharded_journal,
        "journal must be byte-identical"
    );
    let report: serde_json::Value = serde_json::from_str(&seq).unwrap();
    let field = |v: &serde_json::Value, k: &str| v.get(k).and_then(serde_json::Value::as_u64);
    assert_eq!(field(&report, "interleavings"), Some(2), "4 -> 2 replays");
    assert!(field(&report, "alternates_pruned") > Some(0));
    std::fs::remove_dir_all(&dir).ok();

    let out = cli()
        .args(["verify", "ordered_stages", "--np", "3", "--prune-static"])
        .args(["--protocol", "ordered_stages", "--shards", "2", "--json"])
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{out:?}");
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(field(&report, "interleavings"), Some(1));
}

/// Assert that the `--trace` a run saved folds back to its `--metrics` file,
/// byte for byte as the CLI prints it, `wall_clock` included. The refold
/// checks the campaign's ledger (`CampaignMetrics::check`) on the way.
fn assert_trace_refolds(trace: &std::path::Path, metrics: &std::path::Path) {
    let live = std::fs::read_to_string(metrics).unwrap();
    let v: serde_json::Value = serde_json::from_str(&live).unwrap();
    let saved = std::io::BufReader::new(std::fs::File::open(trace).unwrap());
    let refold = dampi::core::CampaignMetrics::from_trace(saved)
        .unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
    let snap = refold.snapshot(
        v["program"].as_str().unwrap(),
        v["nprocs"].as_u64().unwrap() as usize,
        v["semantic"]["clock_mode"].as_str().unwrap(),
        v["jobs"].as_u64().unwrap() as usize,
    );
    let refolded = serde_json::to_string_pretty(&snap).unwrap() + "\n";
    assert_eq!(refolded, live, "{}", trace.display());
}

#[test]
fn verify_metrics_snapshot_is_deterministic_across_jobs() {
    // The observability acceptance check: the `semantic` section of the
    // `--metrics` snapshot must be byte-identical at any worker count;
    // only `wall_clock` may differ.
    let dir = std::env::temp_dir().join("dampi-cli-metrics-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (trace1, trace) = (dir.join("m1.trace.jsonl"), dir.join("m4.trace.jsonl"));
    let run = |jobs: &str, file: &str, extra: &[&str]| {
        let path = dir.join(file);
        let out = cli()
            .args(["verify", "racers", "--np", "4", "--jobs", jobs, "--metrics"])
            .arg(&path)
            .args(extra)
            .output()
            .expect("run dampi-cli");
        assert!(out.status.success(), "{out:?}");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            v.get("schema").and_then(serde_json::Value::as_u64),
            Some(u64::from(dampi::core::METRICS_SCHEMA_VERSION))
        );
        (
            path,
            serde_json::to_string(v.get("semantic").unwrap()).unwrap(),
        )
    };
    let (p1, sem1) = run("1", "m1.json", &["--trace", trace1.to_str().unwrap()]);
    let (p4, sem4) = run("4", "m4.json", &["--trace", trace.to_str().unwrap()]);
    assert_eq!(sem1, sem4, "semantic metrics must not depend on --jobs");
    // The traced run streams schema-versioned JSONL beside its snapshot.
    let lines = std::fs::read_to_string(&trace).unwrap();
    assert!(lines.lines().count() > 0, "an empty trace");
    for line in lines.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("a JSON line");
        assert_eq!(
            v.get("v").and_then(serde_json::Value::as_u64),
            Some(u64::from(dampi::core::TRACE_SCHEMA_VERSION)),
            "{line}"
        );
    }
    // Each saved trace folds back to its run's snapshot.
    assert_trace_refolds(&trace1, &p1);
    assert_trace_refolds(&trace, &p4);
    // The runtime census rides beside it: every replay's finalize barrier
    // parks its first entrants.
    let snapshot: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&p1).unwrap()).unwrap();
    let parks = snapshot["runtime"]["parks"]
        .as_u64()
        .expect("runtime.parks");
    assert!(parks > 0, "{}", snapshot["runtime"]);
    // The wall-clock counters that repeat at `--jobs 1`: the dispatch
    // ledger, the pool width, both histograms' counts and the idle fleet.
    let wall = &snapshot["wall_clock"];
    let counters = serde_json::json!({
        "replays_started": wall["replays_started"],
        "replays_committed": wall["replays_committed"],
        "replays_aborted": wall["replays_aborted"],
        "speculation_hits": wall["speculation_hits"],
        "workers": wall["workers"],
        "replay_wall_us.count": wall["replay_wall_us"]["count"],
        "journal_write_us.count": wall["journal_write_us"]["count"],
        "shard": wall["shard"],
    });
    assert_eq!(
        serde_json::to_string(&counters).unwrap(),
        concat!(
            r#"{"replays_started":4,"replays_committed":4,"replays_aborted":0,"#,
            r#""speculation_hits":0,"workers":1,"replay_wall_us.count":4,"#,
            r#""journal_write_us.count":0,"shard":{"workers_spawned":0,"workers_lost":0,"#,
            r#""workers_restarted":0,"subtrees_redispatched":0,"quarantined":0}}"#
        )
    );
    for p in [p1, p4, trace1, trace] {
        std::fs::remove_file(p).ok();
    }
}

/// The `semantic` and `cache` sections of one `verify … --metrics` run, as
/// compact JSON.
fn metrics_sections(args: &str, path: &std::path::Path) -> (String, String) {
    let out = cli()
        .args(args.split_whitespace())
        .arg("--metrics")
        .arg(path)
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{args}: {out:?}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let section = |k: &str| serde_json::to_string(v.get(k).expect(k)).unwrap();
    (section("semantic"), section("cache"))
}

#[test]
fn verify_metrics_semantic_and_cache_sections_are_pinned() {
    // Literals of campaigns whose sections repeat under free-running ranks:
    // a pruned ordered_stages cold then warm through one cache, and pruned
    // racers. Every field of both sections, byte for byte.
    let dir = std::env::temp_dir().join(format!("dampi-cli-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let m = dir.join("m.json");
    let stages = format!(
        "verify ordered_stages --np 3 --prune-static --protocol ordered_stages --cache {}",
        dir.join("cache").display()
    );
    let stages_semantic = concat!(
        r#"{"clock_mode":"lamport","interleavings":1,"errors":[],"divergences":0,"#,
        r#""retries":0,"timeouts":0,"budget_exhausted":false,"#,
        r#""total_virtual_time_s":7.2649e-5,"forks_discovered":0,"frontier_peak":0,"#,
        r#""frontier_final":0,"tree_depth_max":0,"replays_by_depth":{"0":1},"#,
        r#""wildcards":2,"messages_analyzed":3,"late_messages":2,"#,
        r#""late_message_rate":0.6666666666666666,"pb_messages":3,"pb_wire_bytes":72,"#,
        r#""drained_messages":0,"unsafe_alerts":0,"alternates_pruned":0,"#,
        r#""wildcards_deterministic":0,"refined_alternates_pruned":0,"#,
        r#""refined_wildcards_deterministic":1,"protocol_alternates_pruned":1,"#,
        r#""protocol_wildcards_deterministic":1}"#
    );
    let cold = metrics_sections(&stages, &m);
    assert_eq!(cold.0, stages_semantic, "cold");
    assert_eq!(
        cold.1,
        r#"{"enabled":true,"readonly":false,"hits":0,"misses":1,"stores":1,"stale":0}"#
    );
    let warm = metrics_sections(&stages, &m);
    assert_eq!(warm.0, stages_semantic, "warm");
    assert_eq!(
        warm.1,
        r#"{"enabled":true,"readonly":false,"hits":1,"misses":0,"stores":0,"stale":0}"#
    );
    let racers = metrics_sections("verify racers --np 4 --prune-static", &m);
    assert_eq!(
        racers.0,
        concat!(
            r#"{"clock_mode":"lamport","interleavings":2,"errors":[],"divergences":0,"#,
            r#""retries":0,"timeouts":0,"budget_exhausted":false,"#,
            r#""total_virtual_time_s":0.000183875,"forks_discovered":1,"frontier_peak":1,"#,
            r#""frontier_final":0,"tree_depth_max":2,"replays_by_depth":{"0":1,"2":1},"#,
            r#""wildcards":8,"messages_analyzed":8,"late_messages":8,"#,
            r#""late_message_rate":1.0,"pb_messages":8,"pb_wire_bytes":192,"#,
            r#""drained_messages":0,"unsafe_alerts":0,"alternates_pruned":1,"#,
            r#""wildcards_deterministic":0,"refined_alternates_pruned":0,"#,
            r#""refined_wildcards_deterministic":4,"protocol_alternates_pruned":0,"#,
            r#""protocol_wildcards_deterministic":0}"#
        )
    );
    assert_eq!(
        racers.1,
        r#"{"enabled":false,"readonly":false,"hits":0,"misses":0,"stores":0,"stale":0}"#
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_cache_contract_holds_as_counts_under_every_driver() {
    // The replay-cache contract, stated in the ledger's own counts: a cold
    // run stores exactly what it replays; a warm run of the unchanged
    // workload executes nothing under any driver and prints the cold
    // report byte for byte; a flipped parameter shares no entry.
    let dir = std::env::temp_dir().join(format!("dampi-cli-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str, np: &str, driver: [&str; 2]| {
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let trace = dir.join(format!("{tag}.trace.jsonl"));
        let out = cli()
            .args(["verify", "matmul", "--np", np, "--max", "400", "--json"])
            .args(driver)
            .arg("--cache")
            .arg(dir.join("store"))
            .arg("--metrics")
            .arg(&metrics)
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run dampi-cli");
        assert!(out.status.success(), "{tag}: {out:?}");
        assert_trace_refolds(&trace, &metrics);
        let snapshot: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let count = |section: &str, key: &str| {
            snapshot[section][key]
                .as_u64()
                .unwrap_or_else(|| panic!("{tag}: no {section}.{key}"))
        };
        let ledger = ["hits", "misses", "stores", "stale"].map(|k| count("cache", k));
        let committed = count("wall_clock", "replays_committed");
        // The runtime census counts only replays executed in this process.
        let parks = count("runtime", "parks");
        assert_eq!(parks == 0, ledger[1] == 0, "{tag}: {parks} parks");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            ledger,
            committed,
            serde_json::to_string(&snapshot["semantic"]).unwrap(),
        )
    };
    // Every keyspace under the store: its one file's length, and how many
    // entries a handle opened on it serves.
    let keyspaces = || -> Vec<(u64, usize)> {
        let mut found = Vec::new();
        for keyspace in std::fs::read_dir(dir.join("store")).unwrap() {
            let keyspace = keyspace.unwrap();
            let files: Vec<_> = std::fs::read_dir(keyspace.path())
                .unwrap()
                .map(|f| f.unwrap())
                .collect();
            assert_eq!(files.len(), 1, "one log per keyspace: {files:?}");
            let name = keyspace.file_name().into_string().unwrap();
            let (program, plan) = name.split_once('-').expect("<program>-<plan>");
            let digest = |hex: &str| u64::from_str_radix(hex, 16).unwrap();
            let cache = dampi::core::ReplayCache::open(
                &dir.join("store"),
                digest(program),
                digest(plan),
                true,
            )
            .unwrap();
            assert_eq!(cache.stale_count(), 0, "{name}");
            found.push((files[0].metadata().unwrap().len(), cache.entries().unwrap()));
        }
        found
    };
    let (cold, ledger, replays, cold_semantic) = run("cold", "4", ["--jobs", "1"]);
    assert_eq!(ledger, [0, replays, replays, 0], "cold: {replays} replays");
    let stored = keyspaces();
    assert_eq!(stored.len(), 1);
    assert_eq!(stored[0].1 as u64, replays, "one entry per replay");
    for (tag, driver) in [
        ("warm-j1", ["--jobs", "1"]),
        ("warm-j4", ["--jobs", "4"]),
        ("warm-s2", ["--shards", "2"]),
    ] {
        let (warm, ledger, committed, semantic) = run(tag, "4", driver);
        assert_eq!(ledger, [committed, 0, 0, 0], "{tag}");
        assert_eq!(committed, replays, "{tag}");
        assert_eq!(warm, cold, "{tag}: warm report must be byte-identical");
        assert_eq!(semantic, cold_semantic, "{tag}: semantic metrics");
        assert_eq!(keyspaces(), stored, "{tag}: nothing re-stored");
    }
    let (_, ledger, flipped, _) = run("flip", "5", ["--jobs", "1"]);
    assert_eq!(ledger, [0, flipped, flipped, 0], "--np flip: full miss");
    let mut entries: Vec<usize> = keyspaces().into_iter().map(|(_, n)| n).collect();
    entries.sort_unstable();
    let mut expect = [replays as usize, flipped as usize];
    expect.sort_unstable();
    assert_eq!(
        entries, expect,
        "the flip stored into a keyspace of its own"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_trace_streams_schema_versioned_jsonl() {
    let dir = std::env::temp_dir().join("dampi-cli-metrics-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let out = cli()
        .args([
            "verify",
            "racers",
            "--np",
            "4",
            "--jobs",
            "2",
            "--progress",
            "--trace",
        ])
        .arg(&path)
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line is JSON"))
        .collect();
    assert!(!lines.is_empty());
    for l in &lines {
        assert_eq!(
            l.get("v").and_then(serde_json::Value::as_u64),
            Some(u64::from(dampi::core::TRACE_SCHEMA_VERSION)),
            "{l:?}"
        );
    }
    let last = lines.last().unwrap();
    assert!(
        last.get("event").unwrap().get("CampaignEnd").is_some(),
        "trace must close with CampaignEnd: {last:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_rejects_observability_flags_with_isp() {
    // Every DAMPI-only flag is refused by name under `--isp`, never
    // accepted and ignored (`--isp --k 0` used to explore unbounded). The
    // observability flags are no longer among them: they are the driver's.
    let rows: [&[&str]; 5] = [
        &["--k", "0"],
        &["--deferred-clock"],
        &["--clock", "lamport"],
        &["--prune-static"],
        &["--protocol", "matmul"],
    ];
    for row in rows {
        let out = cli()
            .args(["verify", "fig3", "--np", "3", "--isp"])
            .args(row)
            .output()
            .expect("run dampi-cli");
        assert_eq!(out.status.code(), Some(1), "{row:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(row[0]) && err.contains("DAMPI-only"),
            "{row:?}: {err}"
        );
    }
    // The driver's flags are the driver's, whatever the tool: an ISP
    // campaign's trace refolds to its snapshot, ledger checked, and the
    // snapshot names ISP's clocks.
    let path = std::env::temp_dir().join(format!("dampi-cli-isp-{}.json", std::process::id()));
    let trace = path.with_extension("trace.jsonl");
    let out = cli()
        .args("verify racers --np 4 --isp --jobs 2 --metrics".split_whitespace())
        .arg(&path)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{out:?}");
    assert_trace_refolds(&trace, &path);
    let snapshot: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(snapshot["semantic"]["clock_mode"], "vector", "{snapshot}");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(trace).ok();
}

#[test]
fn verify_rejects_zero_jobs_and_isp_with_jobs() {
    let out = cli()
        .args(["verify", "racers", "--np", "4", "--jobs", "0"])
        .output()
        .expect("run dampi-cli");
    assert!(!out.status.success(), "{out:?}");
    // ISP with `--jobs` or `--shards` used to be refused too; it is now one
    // campaign under every executor. Free-running ISP replays race, so
    // separate campaigns are compared by what their barriers pin: the
    // count, the errors and the coverage.
    for (workload, exit) in [("racers --np 4", Some(0)), ("fig3 --np 3", Some(2))] {
        let run = |driver: &str| {
            let out = cli()
                .arg("verify")
                .args(workload.split_whitespace())
                .args(["--isp", "--json"])
                .args(driver.split_whitespace())
                .output()
                .expect("run dampi-cli");
            assert_eq!(out.status.code(), exit, "{workload} {driver}: {out:?}");
            let report: serde_json::Value =
                serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
            // No piggyback anywhere: every replay, the workers' too, ran ISP.
            assert_eq!(report["pb_messages"], 0, "{workload} {driver}");
            assert_eq!(report["clock_mode"], "vector", "{workload} {driver}");
            ["interleavings", "errors", "discovered"].map(|k| report[k].clone())
        };
        let seq = run("--jobs 1");
        for driver in ["--jobs 2", "--shards 2"] {
            assert_eq!(run(driver), seq, "{workload} {driver}");
        }
    }
}

#[test]
fn fuzz_prefix_regenerates_the_committed_corpus() {
    // The differential oracle is deterministic end to end (generation,
    // verification under the cooperative scheduler, verdicts), so a prefix
    // of the committed corpus regenerates byte for byte — the schedule
    // parity oracle for any change to the runtime or the tool layers. 32
    // seeds here (seed 2 alone is 7056 replays); `ci.sh` compares 64 with
    // the release build. `fuzz` exits non-zero on an unclassified verdict.
    let corpus = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/corpus/fuzz_verdicts.jsonl"
    ))
    .expect("committed corpus");
    let out = cli()
        .args(["fuzz", "--seed", "0", "--count", "32"])
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success(), "{out:?}");
    let fresh = String::from_utf8_lossy(&out.stdout);
    for (seed, (fresh, committed)) in fresh.lines().zip(corpus.lines()).enumerate() {
        assert_eq!(fresh, committed, "seed {seed}");
    }
    assert_eq!(fresh.lines().count(), 32);
    // Every disagreement in the full corpus carries a classification
    // (Fig-4-style omission, mechanism variance, budget cap): a `BUG:`
    // verdict is a mined, unfixed tool bug.
    let verdicts: Vec<serde_json::Value> = corpus
        .lines()
        .map(|l| serde_json::from_str(l).expect("verdict line is JSON"))
        .collect();
    assert_eq!(verdicts.len(), 256);
    for v in &verdicts {
        let verdict = v["verdict"].as_str().expect("verdict");
        assert!(!verdict.starts_with("BUG:"), "unclassified: {v}");
    }
}

/// `analyze <workload> --np <np> [--protocol <spec>] --json`: the exit code
/// and the report.
fn analyze(workload: &str, np: &str, protocol: Option<&str>) -> (Option<i32>, serde_json::Value) {
    let mut cmd = cli();
    cmd.args(["analyze", workload, "--np", np, "--json"]);
    if let Some(spec) = protocol {
        cmd.args(["--protocol", spec]);
    }
    let out = cmd.output().expect("run dampi-cli");
    let report =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("analyzer JSON");
    (out.status.code(), report)
}

#[test]
fn analyze_answers_are_schema_clean_and_exact() {
    use serde_json::json;
    /// (workload, np, protocol spec, the lints of a run that must exit 2).
    type Case<'a> = (&'a str, &'a str, Option<&'a str>, Option<&'a [&'a str]>);
    // Every committed spec is conformant against its workload — the
    // zero-false-positive gate — and each seeded bug fires exactly its lint.
    let demo = Some("protocol_demo");
    let cases: [Case; 12] = [
        ("racers", "4", None, None),
        ("collective_mismatch", "4", None, Some(&["L001"])),
        ("stuck_wildcard", "3", None, Some(&["L002", "L005"])),
        ("matmul", "4", Some("matmul"), None),
        ("matmul_ack", "4", Some("matmul_ack"), None),
        ("adlb", "4", Some("adlb"), None),
        ("racers", "4", Some("racers"), None),
        ("ordered_stages", "3", Some("ordered_stages"), None),
        ("protocol_demo", "3", demo, None),
        ("protocol_order_bug", "3", demo, Some(&["L006"])),
        ("protocol_peer_bug", "3", demo, Some(&["L007"])),
        ("protocol_short_bug", "3", demo, Some(&["L008"])),
    ];
    for (workload, np, protocol, lints) in cases {
        let (code, r) = analyze(workload, np, protocol);
        let ctx = format!("{workload} {protocol:?}: {r}");
        assert_eq!(r["program"], workload, "the registry name: {ctx}");
        let ids: Vec<&str> = r["lints"]
            .as_array()
            .expect("lints")
            .iter()
            .map(|l| l["id"].as_str().expect("lint id"))
            .collect();
        match lints {
            Some(expected) => {
                assert_eq!(code, Some(2), "error lints exit 2: {ctx}");
                assert_eq!(ids, expected, "{ctx}");
                assert_eq!(r["error_lints"], 1, "{ctx}");
            }
            None => assert_eq!(code, Some(0), "{ctx}"),
        }
        let p = &r["protocol"];
        let nprocs = r["nprocs"].as_u64().expect("nprocs") as usize;
        match (protocol, lints) {
            (None, _) => assert!(p.is_null(), "no --protocol, no block: {ctx}"),
            (Some(_), None) => {
                assert_eq!(p["rank_status"], json!(vec!["conformant"; nprocs]), "{ctx}");
                for lint in ["l006", "l007", "l008"] {
                    assert_eq!(p[lint], 0, "{ctx}");
                }
            }
            (Some(_), Some(_)) => {
                assert_eq!(r["lints"][0]["ranks"], json!([0]), "{ctx}");
                // The block counts each conformance lint the list holds.
                for (key, id) in [("l006", "L006"), ("l007", "L007"), ("l008", "L008")] {
                    let listed = ids.iter().filter(|i| **i == id).count();
                    assert_eq!(p[key], listed, "{key}: {ctx}");
                }
                let status = p["rank_status"].as_array().expect("rank_status");
                assert_eq!(status.len(), nprocs, "{ctx}");
                // Non-conformant runs contribute no pruning facts.
                assert_eq!(r["protocol_deterministic_wildcards"], json!([]), "{ctx}");
                assert_eq!(r["protocol_infeasible_alternates"], json!([]), "{ctx}");
            }
        }
        match (workload, protocol) {
            ("racers", None) => {
                assert_eq!(r["orbits"], json!(vec![vec![0, 2], vec![1, 3]]), "{ctx}")
            }
            // L005 is refinement-backed: some wildcard's refined set is empty.
            ("stuck_wildcard", _) => {
                let sizes = r["refined_match_set_sizes"].as_object().expect("sizes");
                assert!(sizes.iter().any(|(_, n)| *n == 0), "{ctx}");
            }
            _ => {}
        }
    }
}

#[test]
fn refused_command_lines_name_the_flag_and_never_panic() {
    // Out-of-range values, flags of another subcommand and flags missing
    // their companion are refused before anything runs: exit 1 (a panic is
    // 101, an ignored flag 0) and one `error:` line naming the flag. So is a
    // `--resume` file that is not a journal: here a hostile record, a
    // megabyte of `[`, inside an intact frame.
    let hostile = std::env::temp_dir().join(format!("dampi-cli-hostile-{}", std::process::id()));
    let frame = dampi::core::frame::head_frame(0, "[".repeat(1 << 20).as_bytes()).unwrap();
    std::fs::write(&hostile, frame).unwrap();
    let resume = format!("verify racers --resume {}", hostile.display());
    let rows = [
        (resume.as_str(), "--resume"),
        ("verify racers --np 0", "--np"),
        ("verify racers --k 4294967296", "--k"),
        ("verify racers --replay-wall -1", "--replay-wall"),
        ("verify racers --replay-wall 1e30", "--replay-wall"),
        ("verify racers --replay-vt nan", "--replay-vt"),
        ("verify racers --replay-vt 1e400", "--replay-vt"),
        (
            "verify racers --shards 2 --heartbeat-timeout -1",
            "--heartbeat-timeout",
        ),
        ("verify racers --shards 2 --lease nan", "--lease"),
        ("verify racers --lease 3", "--lease"),
        ("verify racers --heartbeat-timeout 1", "--heartbeat-timeout"),
        ("verify racers --max-attempts 2", "--max-attempts"),
        (
            "verify racers --shards 2 --worker-fault-slot 1",
            "--worker-fault-slot",
        ),
        ("verify racers --cache-readonly", "--cache-readonly"),
        ("verify racers --protocol racers", "--protocol"),
        ("verify racers --jobs 2 --shards 2", "--shards"),
        ("analyze racers --shards 2 --isp --cache /x", "--shards"),
        ("analyze racers --max 5", "--max"),
        ("overhead --json", "--json"),
        ("fuzz --protocol-templates 2 --count 3", "--count"),
    ];
    for (line, flag) in rows {
        let out = cli()
            .args(line.split_whitespace())
            .output()
            .expect("run dampi-cli");
        assert_eq!(out.status.code(), Some(1), "{line}: {out:?}");
        assert!(out.stdout.is_empty(), "{line}: nothing ran: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: ") && err.contains(flag),
            "{line}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{line}: {err}");
    }
    std::fs::remove_file(hostile).ok();
}

#[test]
fn verify_is_one_campaign_under_threads_worker_processes_and_chaos() {
    // Real `--worker` processes, spawned with the argv the flag table
    // derives: the report and the checkpoint journal are the `--jobs 1`
    // bytes under every executor, clean or with a worker killed
    // mid-campaign (the supervisor re-dispatches the lost subtree through
    // the same in-order commit path). Each run's trace folds back to its
    // metrics snapshot, worker losses, respawns and redispatches included.
    let dir = std::env::temp_dir().join(format!("dampi-cli-executors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str, workload: &str, driver: &str| {
        let journal = dir.join(format!("{tag}.journal"));
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let trace = dir.join(format!("{tag}.trace.jsonl"));
        let out = cli()
            .arg("verify")
            .args(workload.split_whitespace().chain(driver.split_whitespace()))
            .arg("--json")
            .arg("--journal")
            .arg(&journal)
            .arg("--metrics")
            .arg(&metrics)
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run dampi-cli");
        assert_trace_refolds(&trace, &metrics);
        let report = String::from_utf8_lossy(&out.stdout).into_owned();
        let json: serde_json::Value =
            serde_json::from_str(&report).unwrap_or_else(|e| panic!("{tag}: {e}: {out:?}"));
        let journal = std::fs::read(&journal).expect("journal written");
        (out.status.code(), report, json, journal, metrics)
    };
    let racers = "racers --np 4";
    let (code, seq, _, seq_journal, _) = run("rc.j1", racers, "--jobs 1");
    assert_eq!(code, Some(0));
    assert!(
        seq.contains("\"program\":\"racers\""),
        "registry name: {seq}"
    );
    let kill = "--shards 2 --worker-fault kill:1 --heartbeat-timeout 0.5";
    let mut snapshots = Vec::new();
    for (tag, driver) in [
        ("rc.j4", "--jobs 4"),
        ("rc.s2", "--shards 2"),
        ("rc.s2k", kill),
    ] {
        let (_, report, _, journal, metrics) = run(tag, racers, driver);
        assert_eq!(report, seq, "{tag}: report must be byte-identical");
        assert_eq!(journal, seq_journal, "{tag}: journal must be identical");
        snapshots.push(metrics);
    }
    // A protocol-pruned campaign is as indifferent to the thread count.
    let staged = "ordered_stages --np 3 --prune-static --protocol ordered_stages";
    let (_, one, ..) = run("os.j1", staged, "--jobs 1");
    let (_, four, ..) = run("os.j4", staged, "--jobs 4");
    assert_eq!(one, four, "pruned report must be byte-identical");
    // The kill really happened, and cost nothing semantic.
    let chaos: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&snapshots[2]).unwrap()).unwrap();
    let fleet = &chaos["wall_clock"]["shard"];
    assert!(fleet["workers_lost"].as_u64() >= Some(1), "{fleet}");
    assert!(
        fleet["subtrees_redispatched"].as_u64() >= Some(1),
        "{fleet}"
    );
    let semantic = |metrics: &std::path::Path| {
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(metrics).unwrap()).unwrap();
        serde_json::to_string(&v["semantic"]).unwrap()
    };
    assert_eq!(semantic(&snapshots[1]), semantic(&snapshots[2]), "killed");
    // A bug report crosses the process boundary intact (exit 2). Task-pool
    // workloads fold wall-clock into their virtual time, so across
    // *separate* campaigns they get count and error-set equality, not bytes.
    let rows = [
        ("f3", "fig3 --np 3", Some(2)),
        ("mm", "matmul", Some(0)),
        ("ad", "adlb --max 300", Some(0)),
    ];
    for (tag, workload, exit) in rows {
        let (code, _, threads, ..) = run(&format!("{tag}.j1"), workload, "--jobs 1");
        let (sharded_code, _, sharded, ..) = run(&format!("{tag}.s2"), workload, "--shards 2");
        assert_eq!((code, sharded_code), (exit, exit), "{tag}");
        assert_eq!(sharded["errors"], threads["errors"], "{tag}");
        assert_eq!(sharded["interleavings"], threads["interleavings"], "{tag}");
        let found = threads["errors"] != serde_json::json!([]);
        assert_eq!(found, exit == Some(2), "{tag}");
    }
    // Poison-subtree quarantine: a one-slot fleet whose worker dies on every
    // job terminates with an honest partial-coverage report, not a hang.
    let poison = "--shards 1 --worker-fault kill:0:always --heartbeat-timeout 0.5 --max-attempts 2";
    let (_, _, q, ..) = run("rc.quarantine", racers, poison);
    assert_eq!(q["quarantined"], 1, "{q}");
    assert_eq!(q["timeouts"].as_array().map(Vec::len), Some(1), "{q}");
    assert_eq!(q["errors"], serde_json::json!([]), "{q}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_protocol_templates_answer_every_seed_through_out() {
    // The known-answer conformance corpus at the CLI boundary: `--out` gets
    // one JSON line per seed, every one answered exactly, half of them
    // planted L006/L007/L008 violations (`fuzz` exits 1 on any miss).
    let path = std::env::temp_dir().join(format!("dampi-cli-templates-{}", std::process::id()));
    let out = cli()
        .args(["fuzz", "--protocol-templates", "24", "--out"])
        .arg(&path)
        .output()
        .expect("run dampi-cli");
    assert!(out.status.success() && out.stdout.is_empty(), "{out:?}");
    let lines: Vec<serde_json::Value> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("template line is JSON"))
        .collect();
    std::fs::remove_file(&path).ok();
    assert_eq!(lines.len(), 24);
    assert!(lines.iter().all(|v| v["ok"] == true), "{lines:?}");
    let planted = lines.iter().filter(|v| !v["expected"].is_null()).count();
    assert_eq!(planted, 12);
}

#[test]
fn a_journal_of_another_campaign_is_refused_naming_what_differs() {
    // A journal's records carry the config digest and the prune plan's
    // digest: resumed under another workload, tool, semantic flag or plan,
    // it is refused before anything runs, and left as it was.
    let dir = std::env::temp_dir().join(format!("dampi-cli-foreign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("racers.journal");
    let out = cli()
        .args(["verify", "racers", "--np", "4", "--journal"])
        .arg(&journal)
        .output()
        .expect("run dampi-cli");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let written = std::fs::read(&journal).expect("journal written");
    for (line, part) in [
        ("matmul --np 4", "config"),
        ("racers --np 4 --isp", "config"),
        ("racers --np 4 --clock vector", "config"),
        ("racers --np 4 --prune-static", "plan"),
    ] {
        let out = cli()
            .arg("verify")
            .args(line.split_whitespace())
            .arg("--resume")
            .arg(&journal)
            .output()
            .expect("run dampi-cli");
        assert_eq!(out.status.code(), Some(1), "{line}: {out:?}");
        assert!(out.stdout.is_empty(), "{line}: nothing ran: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error: ")).collect();
        assert_eq!(errors.len(), 1, "{line}: {err}");
        assert!(
            errors[0].contains("--resume") && errors[0].contains(&format!("another {part}")),
            "{line}: {err}"
        );
        assert!(
            std::fs::read(&journal).unwrap() == written,
            "{line}: a refused journal is left as it was"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Cut a pruned campaign after every commit with `--max`, under each
/// driver, and resume it with the same flags: the report and the journal
/// are the uninterrupted `--jobs 1` campaign's, byte for byte.
fn pruned_and_cut_at_every_commit_resumes_under_every_driver(tag: &str, workload: &str) {
    let dir = std::env::temp_dir().join(format!("dampi-cli-cut-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.journal");
    let run = |flags: &str, journal_flag: &str| {
        let out = cli()
            .arg("verify")
            .args(workload.split_whitespace())
            .args(flags.split_whitespace())
            .args(["--json", journal_flag])
            .arg(&journal)
            .output()
            .expect("run dampi-cli");
        assert!(matches!(out.status.code(), Some(0 | 2)), "{flags}: {out:?}");
        let report = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), report, std::fs::read(&journal).unwrap())
    };
    let _ = std::fs::remove_file(&journal);
    let base = run("--jobs 1", "--journal");
    let json: serde_json::Value = serde_json::from_str(&base.1).expect("report");
    let total = json["interleavings"].as_u64().expect("interleavings");
    assert!(total >= 1, "{}", base.1);
    for driver in ["--jobs 1", "--jobs 4", "--shards 2"] {
        for cut in 1..=total {
            let _ = std::fs::remove_file(&journal);
            let (_, partial, _) = run(&format!("{driver} --max {cut}"), "--journal");
            let partial: serde_json::Value = serde_json::from_str(&partial).expect("report");
            assert_eq!(partial["interleavings"].as_u64(), Some(cut), "{driver}");
            let resumed = run(driver, "--resume");
            assert_eq!(resumed.0, base.0, "{driver} cut {cut}: exit status");
            assert_eq!(resumed.1, base.1, "{driver} cut {cut}: report");
            assert!(
                resumed.2 == base.2,
                "{driver} cut {cut}: journal bytes differ"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn racers_pruned_and_cut_at_every_commit_resumes_under_every_driver() {
    pruned_and_cut_at_every_commit_resumes_under_every_driver(
        "racers",
        "racers --np 4 --prune-static",
    );
}

#[test]
fn protocol_pruned_and_cut_at_every_commit_resumes_under_every_driver() {
    pruned_and_cut_at_every_commit_resumes_under_every_driver(
        "stages",
        "ordered_stages --np 3 --prune-static --protocol ordered_stages",
    );
}
