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

fn lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_metrics-lint"))
}

#[test]
fn verify_metrics_snapshot_is_deterministic_across_jobs() {
    // The observability acceptance check: the `semantic` section of the
    // `--metrics` snapshot must be byte-identical at any worker count;
    // only `wall_clock` may differ.
    let dir = std::env::temp_dir().join("dampi-cli-metrics-test");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |jobs: &str, file: &str| {
        let path = dir.join(file);
        let out = cli()
            .args(["verify", "racers", "--np", "4", "--jobs", jobs, "--metrics"])
            .arg(&path)
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
    let (p1, sem1) = run("1", "m1.json");
    let (p4, sem4) = run("4", "m4.json");
    assert_eq!(sem1, sem4, "semantic metrics must not depend on --jobs");
    // The runtime census rides beside it: every replay's finalize barrier
    // parks its first entrants.
    let snapshot: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&p1).unwrap()).unwrap();
    let parks = snapshot["runtime"]["parks"]
        .as_u64()
        .expect("runtime.parks");
    assert!(parks > 0, "{}", snapshot["runtime"]);
    // The lint binary agrees, including the cross-file determinism check.
    let out = lint()
        .args([
            p1.to_str().unwrap(),
            p4.to_str().unwrap(),
            "--expect-semantic-match",
        ])
        .output()
        .expect("run metrics-lint");
    assert!(out.status.success(), "{out:?}");
    // And it rejects a snapshot whose ledger doesn't balance.
    let broken = dir.join("broken.json");
    let text = std::fs::read_to_string(&p1).unwrap();
    let mut v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let wall = v
        .as_object_mut()
        .unwrap()
        .get_mut("wall_clock")
        .unwrap()
        .as_object_mut()
        .unwrap();
    wall.insert("replays_started".into(), serde_json::json!(999));
    std::fs::write(&broken, serde_json::to_string(&v).unwrap()).unwrap();
    let out = lint().arg(&broken).output().expect("run metrics-lint");
    assert!(!out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("replays_started"), "{err}");
    // Nor one whose census counts more wakes than parks.
    let mut v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let runtime = v
        .as_object_mut()
        .unwrap()
        .get_mut("runtime")
        .unwrap()
        .as_object_mut()
        .unwrap();
    runtime.insert("wakes".into(), serde_json::json!(parks + 1));
    std::fs::write(&broken, serde_json::to_string(&v).unwrap()).unwrap();
    let out = lint().arg(&broken).output().expect("run metrics-lint");
    assert!(!out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("runtime: wakes"), "{err}");
    for p in [p1, p4, broken] {
        std::fs::remove_file(p).ok();
    }
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
        let out = cli()
            .args(["verify", "matmul", "--np", np, "--max", "400", "--json"])
            .args(driver)
            .arg("--cache")
            .arg(dir.join("store"))
            .arg("--metrics")
            .arg(&metrics)
            .output()
            .expect("run dampi-cli");
        assert!(out.status.success(), "{tag}: {out:?}");
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
            metrics,
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
    let (cold, ledger, replays, cold_metrics) = run("cold", "4", ["--jobs", "1"]);
    assert_eq!(ledger, [0, replays, replays, 0], "cold: {replays} replays");
    let stored = keyspaces();
    assert_eq!(stored.len(), 1);
    assert_eq!(stored[0].1 as u64, replays, "one entry per replay");
    let mut snapshots = vec![cold_metrics];
    for (tag, driver) in [
        ("warm-j1", ["--jobs", "1"]),
        ("warm-j4", ["--jobs", "4"]),
        ("warm-s2", ["--shards", "2"]),
    ] {
        let (warm, ledger, committed, metrics) = run(tag, "4", driver);
        assert_eq!(ledger, [committed, 0, 0, 0], "{tag}");
        assert_eq!(committed, replays, "{tag}");
        assert_eq!(warm, cold, "{tag}: warm report must be byte-identical");
        assert_eq!(keyspaces(), stored, "{tag}: nothing re-stored");
        snapshots.push(metrics);
    }
    let out = lint()
        .args(&snapshots)
        .arg("--expect-semantic-match")
        .output()
        .expect("run metrics-lint");
    assert!(out.status.success(), "{out:?}");
    let (_, ledger, flipped, metrics) = run("flip", "5", ["--jobs", "1"]);
    assert_eq!(ledger, [0, flipped, flipped, 0], "--np flip: full miss");
    let mut entries: Vec<usize> = keyspaces().into_iter().map(|(_, n)| n).collect();
    entries.sort_unstable();
    let mut expect = [replays as usize, flipped as usize];
    expect.sort_unstable();
    assert_eq!(
        entries, expect,
        "the flip stored into a keyspace of its own"
    );
    let out = lint().arg(&metrics).output().expect("run metrics-lint");
    assert!(out.status.success(), "{out:?}");
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
            Some(1),
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
    // accepted and ignored (`--isp --k 0` used to explore unbounded).
    let rows: [&[&str]; 5] = [
        &["--metrics", "/dev/null"],
        &["--k", "0"],
        &["--deferred-clock"],
        &["--clock", "lamport"],
        &["--protocol", "matmul"],
    ];
    for row in rows {
        let out = cli()
            .args(["verify", "fig3", "--np", "3", "--isp"])
            .args(row)
            .output()
            .expect("run dampi-cli");
        assert!(!out.status.success(), "{row:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(row[0]) && err.contains("DAMPI-only"),
            "{row:?}: {err}"
        );
    }
}

#[test]
fn verify_rejects_zero_jobs_and_isp_with_jobs() {
    let out = cli()
        .args(["verify", "racers", "--np", "4", "--jobs", "0"])
        .output()
        .expect("run dampi-cli");
    assert!(!out.status.success(), "{out:?}");
    let out = cli()
        .args(["verify", "fig3", "--np", "3", "--isp", "--jobs", "2"])
        .output()
        .expect("run dampi-cli");
    assert!(!out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ISP"), "{err}");
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
/// and the report, once `metrics-lint --analysis` has accepted its schema.
fn analyze(workload: &str, np: &str, protocol: Option<&str>) -> (Option<i32>, serde_json::Value) {
    let mut cmd = cli();
    cmd.args(["analyze", workload, "--np", np, "--json"]);
    if let Some(spec) = protocol {
        cmd.args(["--protocol", spec]);
    }
    let out = cmd.output().expect("run dampi-cli");
    let path = std::env::temp_dir().join(format!(
        "dampi-cli-analyze-{}-{workload}.json",
        std::process::id()
    ));
    std::fs::write(&path, &out.stdout).unwrap();
    let linted = lint()
        .arg("--analysis")
        .arg(&path)
        .output()
        .expect("run metrics-lint");
    std::fs::remove_file(&path).ok();
    assert!(linted.status.success(), "{workload}: {linted:?}");
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
        match (protocol, lints) {
            (None, _) => assert!(p.is_null(), "no --protocol, no block: {ctx}"),
            (Some(_), None) => {
                let nprocs = r["nprocs"].as_u64().expect("nprocs") as usize;
                assert_eq!(p["rank_status"], json!(vec!["conformant"; nprocs]), "{ctx}");
                for lint in ["l006", "l007", "l008"] {
                    assert_eq!(p[lint], 0, "{ctx}");
                }
            }
            (Some(_), Some(_)) => {
                assert_eq!(r["lints"][0]["ranks"], json!([0]), "{ctx}");
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
    // 101, an ignored flag 0) and one `error:` line naming the flag.
    let rows = [
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
}

#[test]
fn verify_is_one_campaign_under_threads_worker_processes_and_chaos() {
    // Real `--worker` processes, spawned with the argv the flag table
    // derives: the report and the checkpoint journal are the `--jobs 1`
    // bytes under every executor, clean or with a worker killed
    // mid-campaign (the supervisor re-dispatches the lost subtree through
    // the same in-order commit path).
    let dir = std::env::temp_dir().join(format!("dampi-cli-executors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str, workload: &str, driver: &str| {
        let journal = dir.join(format!("{tag}.journal"));
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let out = cli()
            .arg("verify")
            .args(workload.split_whitespace().chain(driver.split_whitespace()))
            .arg("--json")
            .arg("--journal")
            .arg(&journal)
            .arg("--metrics")
            .arg(&metrics)
            .output()
            .expect("run dampi-cli");
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
    let out = lint()
        .args(&snapshots[1..])
        .arg("--expect-semantic-match")
        .output()
        .expect("run metrics-lint");
    assert!(out.status.success(), "{out:?}");
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
