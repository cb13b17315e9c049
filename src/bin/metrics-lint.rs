//! `metrics-lint` — validate `dampi-cli verify --metrics` snapshots and
//! `dampi-cli analyze --json` reports.
//!
//! ```text
//! metrics-lint <snapshot.json>... [--expect-semantic-match]
//! metrics-lint --analysis <report.json>...
//! ```
//!
//! Checks every metrics file against the schema and its internal
//! invariants:
//!
//! * `schema` equals the supported version and the `semantic` and
//!   `wall_clock` sections are present;
//! * `replays_started == replays_committed + replays_aborted` (every
//!   dispatched replay is accounted for exactly once);
//! * every histogram's `count` equals the sum of its bucket counts plus
//!   `overflow`;
//! * `wall_clock.deterministic` is `false` (the section is honestly
//!   labelled);
//! * the `wall_clock.shard` fleet counters are present and consistent:
//!   `workers_lost <= workers_spawned` and
//!   `workers_restarted <= workers_lost`;
//! * the `cache` ledger is present and consistent: with the cache enabled
//!   every committed subtree was tallied exactly once on the commit path
//!   (`hits + misses == replays_committed`, so hits can never outnumber
//!   commits), `stores <= misses` (only misses populate the store), and
//!   with the cache disabled all four counters are zero;
//! * the `runtime` census is present and consistent: `wakes <= parks` (a
//!   park gets at most one wake), `spurious_wakes <= wakes` (each counts a
//!   wake that found nothing to do), and all four counters are zero when
//!   the cache served every commit (no replay executed here).
//!
//! With `--expect-semantic-match`, additionally requires the `semantic`
//! section of every file to be byte-identical once serialized — the
//! determinism contract for snapshots of the same campaign taken at
//! different `--jobs` levels.
//!
//! With `--analysis`, every file is instead validated as an analyzer
//! report (`analyze --json`, schema v2): all required keys present,
//! `plan_version` current, every lint carrying exactly the stable
//! fields, and the `protocol` block — when present — internally
//! consistent (hex digest, per-rank status vector, L006–L008 counts
//! agreeing with the lint list, and pruning facts withheld unless every
//! rank is conformant).

use std::path::PathBuf;
use std::process::ExitCode;

use dampi::analysis::ANALYSIS_SCHEMA_VERSION;
use dampi::core::prune::PRUNE_PLAN_VERSION;
use dampi::core::METRICS_SCHEMA_VERSION;
use serde_json::Value;

fn fail(file: &str, msg: &str) -> String {
    format!("{file}: {msg}")
}

fn require_u64(obj: &Value, key: &str, file: &str, errs: &mut Vec<String>) -> u64 {
    match obj.get(key).and_then(Value::as_u64) {
        Some(v) => v,
        None => {
            errs.push(fail(file, &format!("missing or non-integer `{key}`")));
            0
        }
    }
}

fn check_histogram(h: &Value, name: &str, file: &str, errs: &mut Vec<String>) {
    let Some(buckets) = h.get("buckets").and_then(Value::as_array) else {
        errs.push(fail(file, &format!("histogram `{name}` has no buckets")));
        return;
    };
    let in_buckets: u64 = buckets
        .iter()
        .filter_map(|b| b.get("n").and_then(Value::as_u64))
        .sum();
    let overflow = require_u64(h, "overflow", file, errs);
    let count = require_u64(h, "count", file, errs);
    if in_buckets + overflow != count {
        errs.push(fail(
            file,
            &format!(
                "histogram `{name}`: bucket sum {in_buckets} + overflow {overflow} != count {count}"
            ),
        ));
    }
}

fn check_file(path: &PathBuf, errs: &mut Vec<String>) -> Option<String> {
    let file = path.display().to_string();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errs.push(fail(&file, &format!("unreadable: {e}")));
            return None;
        }
    };
    let v: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            errs.push(fail(&file, &format!("invalid JSON: {e}")));
            return None;
        }
    };
    match v.get("schema").and_then(Value::as_u64) {
        Some(s) if s == u64::from(METRICS_SCHEMA_VERSION) => {}
        Some(s) => {
            errs.push(fail(
                &file,
                &format!("schema {s} unsupported (expected {METRICS_SCHEMA_VERSION})"),
            ));
            return None;
        }
        None => {
            errs.push(fail(&file, "missing `schema`"));
            return None;
        }
    }
    let Some(semantic) = v.get("semantic") else {
        errs.push(fail(&file, "missing `semantic` section"));
        return None;
    };
    let Some(wall) = v.get("wall_clock") else {
        errs.push(fail(&file, "missing `wall_clock` section"));
        return None;
    };
    if wall.get("deterministic").and_then(Value::as_bool) != Some(false) {
        errs.push(fail(&file, "`wall_clock.deterministic` must be false"));
    }
    let started = require_u64(wall, "replays_started", &file, errs);
    let committed = require_u64(wall, "replays_committed", &file, errs);
    let aborted = require_u64(wall, "replays_aborted", &file, errs);
    if started != committed + aborted {
        errs.push(fail(
            &file,
            &format!("replays_started {started} != committed {committed} + aborted {aborted}"),
        ));
    }
    for name in ["replay_wall_us", "journal_write_us"] {
        match wall.get(name) {
            Some(h) => check_histogram(h, name, &file, errs),
            None => errs.push(fail(&file, &format!("missing histogram `{name}`"))),
        }
    }
    match wall.get("shard") {
        Some(shard) => {
            let spawned = require_u64(shard, "workers_spawned", &file, errs);
            let lost = require_u64(shard, "workers_lost", &file, errs);
            let restarted = require_u64(shard, "workers_restarted", &file, errs);
            require_u64(shard, "subtrees_redispatched", &file, errs);
            require_u64(shard, "quarantined", &file, errs);
            // Every loss names a previously spawned incarnation, and every
            // restart answers a loss — violations mean the supervisor's
            // ledger double-counted a failure.
            if lost > spawned {
                errs.push(fail(
                    &file,
                    &format!("shard: workers_lost {lost} > workers_spawned {spawned}"),
                ));
            }
            if restarted > lost {
                errs.push(fail(
                    &file,
                    &format!("shard: workers_restarted {restarted} > workers_lost {lost}"),
                ));
            }
        }
        None => errs.push(fail(&file, "missing `wall_clock.shard` section")),
    }
    let mut all_hits = false;
    match v.get("cache") {
        Some(cache) => {
            let enabled = match cache.get("enabled").and_then(Value::as_bool) {
                Some(b) => b,
                None => {
                    errs.push(fail(&file, "missing or non-bool `cache.enabled`"));
                    false
                }
            };
            if cache.get("readonly").and_then(Value::as_bool).is_none() {
                errs.push(fail(&file, "missing or non-bool `cache.readonly`"));
            }
            let hits = require_u64(cache, "hits", &file, errs);
            let misses = require_u64(cache, "misses", &file, errs);
            let stores = require_u64(cache, "stores", &file, errs);
            let stale = require_u64(cache, "stale", &file, errs);
            if enabled {
                // Hits and misses are tallied only on the deterministic
                // commit path, so together they account for every
                // committed subtree exactly once — the invariant that
                // makes the hit rate identical at any --jobs/--shards.
                if hits + misses != committed {
                    errs.push(fail(
                        &file,
                        &format!(
                            "cache: hits {hits} + misses {misses} != replays_committed {committed}"
                        ),
                    ));
                }
                if stores > misses {
                    errs.push(fail(
                        &file,
                        &format!("cache: stores {stores} > misses {misses}"),
                    ));
                }
                all_hits = misses == 0;
            } else if hits + misses + stores + stale != 0 {
                errs.push(fail(
                    &file,
                    "cache disabled but hits/misses/stores/stale not all zero",
                ));
            }
        }
        None => errs.push(fail(&file, "missing `cache` section")),
    }
    match v.get("runtime") {
        Some(rt) => {
            let parks = require_u64(rt, "parks", &file, errs);
            let wakes = require_u64(rt, "wakes", &file, errs);
            let turn_passes = require_u64(rt, "turn_passes", &file, errs);
            let spurious = require_u64(rt, "spurious_wakes", &file, errs);
            if wakes > parks {
                errs.push(fail(
                    &file,
                    &format!("runtime: wakes {wakes} > parks {parks}"),
                ));
            }
            if spurious > wakes {
                errs.push(fail(
                    &file,
                    &format!("runtime: spurious_wakes {spurious} > wakes {wakes}"),
                ));
            }
            if all_hits && parks + wakes + turn_passes + spurious != 0 {
                errs.push(fail(
                    &file,
                    "runtime: counts from a campaign the cache served entirely",
                ));
            }
        }
        None => errs.push(fail(&file, "missing `runtime` section")),
    }
    // Canonical serialization for the cross-file determinism comparison.
    Some(serde_json::to_string(semantic).expect("reserializes"))
}

/// Keys every schema-v2 analyzer report must carry.
const ANALYSIS_KEYS: &[&str] = &[
    "schema_version",
    "program",
    "nprocs",
    "epochs",
    "epochs_mapped",
    "alternates_recorded",
    "match_set_sizes",
    "deterministic_wildcards",
    "infeasible_alternates",
    "orbits",
    "lints",
    "error_lints",
    "notes",
    "plan_version",
    "refined_match_set_sizes",
    "refinement_iterations",
    "refined_deterministic_wildcards",
    "refined_infeasible_alternates",
    "oblivious_receives",
    "protocol_deterministic_wildcards",
    "protocol_infeasible_alternates",
    "protocol",
];

fn check_analysis(path: &PathBuf, errs: &mut Vec<String>) {
    let file = path.display().to_string();
    let v: Value = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            errs.push(fail(&file, &format!("unreadable or invalid JSON: {e}")));
            return;
        }
    };
    for key in ANALYSIS_KEYS {
        if v.get(key).is_none() {
            errs.push(fail(&file, &format!("missing `{key}`")));
        }
    }
    if v.get("schema_version").and_then(Value::as_u64) != Some(u64::from(ANALYSIS_SCHEMA_VERSION)) {
        errs.push(fail(
            &file,
            &format!("schema_version != {ANALYSIS_SCHEMA_VERSION}"),
        ));
    }
    if v.get("plan_version").and_then(Value::as_u64) != Some(u64::from(PRUNE_PLAN_VERSION)) {
        errs.push(fail(
            &file,
            &format!("plan_version != {PRUNE_PLAN_VERSION}"),
        ));
    }
    let lints = v
        .get("lints")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    for lint in &lints {
        let keys: Vec<&str> = lint
            .as_object()
            .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        if sorted != ["id", "kind", "message", "ranks", "severity"] {
            errs.push(fail(&file, &format!("lint with unexpected fields: {lint}")));
            continue;
        }
        let id = lint["id"].as_str().unwrap_or_default();
        let sev = lint["severity"].as_str().unwrap_or_default();
        if !id.starts_with('L') || !matches!(sev, "error" | "warning") {
            errs.push(fail(&file, &format!("malformed lint: {lint}")));
        }
    }
    let count = |want: &str| lints.iter().filter(|l| l["id"] == want).count() as u64;
    let proto_facts = [
        "protocol_deterministic_wildcards",
        "protocol_infeasible_alternates",
    ]
    .iter()
    .map(|k| v.get(k).and_then(Value::as_array).map_or(0, Vec::len))
    .sum::<usize>();
    match v.get("protocol") {
        None | Some(Value::Null) => {
            // No spec supplied: the protocol fact sections must be empty
            // and no conformance lint may appear.
            if proto_facts != 0 {
                errs.push(fail(
                    &file,
                    "protocol facts present without a protocol block",
                ));
            }
            if count("L006") + count("L007") + count("L008") != 0 {
                errs.push(fail(&file, "conformance lints without a protocol block"));
            }
        }
        Some(p) => {
            for key in [
                "spec_name",
                "spec_digest",
                "rank_status",
                "l006",
                "l007",
                "l008",
            ] {
                if p.get(key).is_none() {
                    errs.push(fail(&file, &format!("protocol block missing `{key}`")));
                }
            }
            let digest = p
                .get("spec_digest")
                .and_then(Value::as_str)
                .unwrap_or_default();
            if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
                errs.push(fail(
                    &file,
                    &format!("spec_digest `{digest}` is not 16 hex chars"),
                ));
            }
            let status: Vec<&str> = p
                .get("rank_status")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_str).collect())
                .unwrap_or_default();
            if Some(status.len() as u64) != v.get("nprocs").and_then(Value::as_u64) {
                errs.push(fail(&file, "rank_status length != nprocs"));
            }
            let mut violations = 0;
            for (id, key) in [("L006", "l006"), ("L007", "l007"), ("L008", "l008")] {
                let n = p.get(key).and_then(Value::as_u64).unwrap_or(0);
                violations += n;
                if n != count(id) {
                    errs.push(fail(
                        &file,
                        &format!("protocol.{key} = {n} but {} {id} lint(s)", count(id)),
                    ));
                }
            }
            let all_conformant = !status.is_empty() && status.iter().all(|s| *s == "conformant");
            if violations > 0 && all_conformant {
                errs.push(fail(&file, "violations counted but every rank conformant"));
            }
            // The soundness gate: protocol pruning facts are only
            // admissible off a fully conformant traced run.
            if !all_conformant && proto_facts != 0 {
                errs.push(fail(
                    &file,
                    "protocol facts present on a non-conformant run",
                ));
            }
        }
    }
}

const USAGE: &str =
    "usage: metrics-lint <snapshot.json>... [--expect-semantic-match]\n       metrics-lint --analysis <report.json>...";

fn main() -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut expect_match = false;
    let mut analysis_mode = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--expect-semantic-match" => expect_match = true,
            "--analysis" => analysis_mode = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut errs: Vec<String> = Vec::new();
    if analysis_mode {
        for path in &files {
            check_analysis(path, &mut errs);
        }
        return if errs.is_empty() {
            println!("metrics-lint: {} analysis report(s) ok", files.len());
            ExitCode::SUCCESS
        } else {
            for e in &errs {
                eprintln!("metrics-lint: {e}");
            }
            ExitCode::FAILURE
        };
    }
    let semantics: Vec<(String, Option<String>)> = files
        .iter()
        .map(|p| (p.display().to_string(), check_file(p, &mut errs)))
        .collect();
    if expect_match {
        let mut valid = semantics.iter().filter_map(|(f, s)| Some((f, s.as_ref()?)));
        if let Some((first_file, first)) = valid.next() {
            for (file, s) in valid {
                if s != first {
                    errs.push(format!(
                        "{file}: semantic section differs from {first_file} (determinism contract violated)"
                    ));
                }
            }
        }
    }
    if errs.is_empty() {
        println!("metrics-lint: {} file(s) ok", files.len());
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("metrics-lint: {e}");
        }
        ExitCode::FAILURE
    }
}
