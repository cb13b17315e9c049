//! One run of one workload: set-up, warm-up, then either the timed passes
//! that yield the end-to-end metrics or the traced passes and calibrations
//! that yield the per-layer ones.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::calib::{self, Effort};
use crate::spec;
use crate::stats::{median, percentile, tail_percentile, Summary};
use crate::sys::{self, Scratch};
use crate::trace::{Trace, Tracer};
use crate::workloads::{self, Opts, Pass, Workload};

/// What the command line asks of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed (or traced) passes go on.
    pub seconds: f64,
    /// `--trace 1`: per-layer run.
    pub trace: bool,
    /// `--quick`: smoke sizes, no warm-up.
    pub quick: bool,
}

impl RunArgs {
    fn opts(&self) -> Opts {
        Opts {
            seed: self.seed,
            quick: self.quick,
        }
    }
}

/// Untimed passes repeat until this long after process start. On the
/// sandbox the first ~2.5 s of CPU after idle run 1.7–2x faster than what
/// follows; timing must start after that, or the first passes are fast and
/// the median depends on how long the machine idled before the run.
const WARMUP: Duration = Duration::from_secs(4);

/// The fewest timed passes a run reports a median of.
const MIN_PASSES: usize = 3;

/// What one run measured, as written to `out/<workload>.<kind>.json` and
/// merged into `out/results.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Cores available to the harness.
    pub nproc: usize,
    /// Verdicts asked for, warm-up passes included.
    pub attempted: u64,
    /// Of those, wrong or incomplete ones.
    pub failed: u64,
    /// Process start to the first timed pass, set-up included.
    pub warmup_s: f64,
    /// Metric name to value.
    pub metrics: BTreeMap<String, f64>,
    /// Sample summaries behind the metrics that are medians.
    pub summaries: BTreeMap<String, Summary>,
    /// Things a reader should know (steady-state guard, mismatches).
    pub warnings: Vec<String>,
}

impl RunReport {
    /// `failed / attempted`.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the driver reads: last line of standard output.
    #[must_use]
    pub fn contract_line(&self) -> String {
        let unit_of = |name: &str| {
            let e2e = spec::END_TO_END.iter().map(|(m, _)| m);
            e2e.chain(spec::PER_LAYER.iter())
                .find(|m| m.name == name)
                .map_or("", |m| m.unit)
        };
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    serde_json::json!({ "value": value, "unit": unit_of(name) }),
                )
            })
            .collect();
        serde_json::json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
        .to_string()
    }
}

/// The pinned answer of `workload` at this size, from `expected/`.
fn expected_answer(workload: &str, quick: bool) -> std::io::Result<Value> {
    let path = sys::bench_dir().join(format!("expected/{workload}.json"));
    let text = std::fs::read_to_string(&path)?;
    let all: Value = serde_json::from_str(&text).map_err(std::io::Error::other)?;
    let size = if quick { "quick" } else { "full" };
    all.get(size)
        .cloned()
        .ok_or_else(|| std::io::Error::other(format!("{} has no `{size}` answer", path.display())))
}

/// Runs passes and keeps the tally of wrong answers.
struct Checker {
    expected: Value,
    /// `Seeded` free runs reach the same verdict by another route, so the
    /// clocks that key the coverage map differ: only `--seed 0` pins it.
    pinned_coverage: bool,
    attempted: u64,
    failed: u64,
    warnings: Vec<String>,
}

fn without_coverage(mut answer: Value) -> Value {
    if let Some(o) = answer.as_object_mut() {
        o.remove("discovered");
    }
    answer
}

impl Checker {
    fn new(expected: Value, pinned_coverage: bool) -> Self {
        Self {
            expected: if pinned_coverage {
                expected
            } else {
                without_coverage(expected)
            },
            pinned_coverage,
            attempted: 0,
            failed: 0,
            warnings: Vec::new(),
        }
    }

    fn pass(&mut self, w: &mut dyn Workload, t: &Tracer) -> Pass {
        let pass = w.pass(t);
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        let got = if self.pinned_coverage {
            pass.answer.clone()
        } else {
            without_coverage(pass.answer.clone())
        };
        if got != self.expected {
            self.failed += 1;
            if self.warnings.len() < 3 {
                self.warnings
                    .push(format!("answer differs from expected: got {got}"));
            }
        }
        pass
    }
}

/// Median wall time of set-up, each taken in a fresh process: spawn to
/// exit of this executable building the workload and nothing else.
fn time_setup(args: &RunArgs) -> std::io::Result<Summary> {
    let exe = std::env::current_exe()?;
    let (min_reps, max_reps, budget) = if args.quick {
        (2, 2, Duration::ZERO)
    } else {
        (5, 25, Duration::from_millis(2500))
    };
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (samples.len() < max_reps && start.elapsed() < budget) {
        let scratch = Scratch::new(&format!("setup{}", samples.len()))?;
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .arg(scratch.path())
        .stdout(Stdio::null());
        if args.quick {
            cmd.arg("--quick");
        }
        let t0 = Instant::now();
        let status = cmd.status()?;
        samples.push(t0.elapsed().as_secs_f64());
        if !status.success() {
            return Err(std::io::Error::other(format!("set-up process: {status}")));
        }
    }
    Ok(Summary::of(&samples))
}

/// `--setup-only DIR`: build the workload into `DIR` and return.
///
/// # Errors
///
/// Fails on an unknown workload or an unwritable directory.
pub fn setup_only(args: &RunArgs, scratch: &std::path::Path) -> std::io::Result<()> {
    workloads::build(&args.workload, args.opts(), scratch, &Tracer::off()).map(drop)
}

/// Run one workload once.
///
/// # Errors
///
/// Fails on an unknown workload, a missing expected answer, or when files
/// under `benchmark/out` cannot be written.
pub fn run(args: &RunArgs) -> std::io::Result<RunReport> {
    let started = Instant::now();
    let tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    let scratch = Scratch::new("run")?;
    let mut check = Checker::new(expected_answer(&args.workload, args.quick)?, args.seed == 0);
    let mut w = workloads::build(&args.workload, args.opts(), scratch.path(), &tracer)?;

    let warmup = if args.quick { Duration::ZERO } else { WARMUP };
    while started.elapsed() < warmup {
        check.pass(w.as_mut(), &off);
    }
    let warmup_s = started.elapsed().as_secs_f64();

    let seconds = Duration::from_secs_f64(args.seconds);
    let (metrics, summaries) = if args.trace {
        let trace = traced_passes(w.as_mut(), &tracer, &mut check, seconds, args.quick);
        std::fs::create_dir_all(sys::out_dir())?;
        trace.write_jsonl(&sys::out_dir().join(format!("{}.trace.jsonl", args.workload)))?;
        (layer_metrics(&trace, warmup_s), BTreeMap::new())
    } else {
        let setup = time_setup(args)?;
        let min_passes = if args.quick { 1 } else { MIN_PASSES };
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < min_passes || t0.elapsed() < seconds {
            let p0 = Instant::now();
            check.pass(w.as_mut(), &off);
            walls.push(p0.elapsed().as_secs_f64());
        }
        // CPU time ticks in 10 ms steps, too coarse for one pass: the whole
        // timed phase is divided by its passes instead.
        let cpu_s = (sys::cpu_seconds() - cpu0) / walls.len() as f64;
        if let [first, rest @ ..] = walls.as_slice() {
            if !rest.is_empty() && *first < 0.85 * median(rest) {
                check.warnings.push(format!(
                    "not steady: first timed pass {first:.3} s is more than 15 % faster than the median of the rest {:.3} s",
                    median(rest)
                ));
            }
        }
        let wall = Summary::of(&walls);
        let metrics = [
            ("setup_s", setup.median),
            ("verdict_wall_s", wall.median),
            ("cpu_s", cpu_s),
            ("peak_rss_mb", sys::peak_rss_mb()),
        ];
        let summaries = [("setup_s", setup), ("verdict_wall_s", wall)];
        (
            metrics.map(|(k, v)| (k.to_owned(), v)).into(),
            summaries.map(|(k, v)| (k.to_owned(), v)).into(),
        )
    };

    Ok(RunReport {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.trace,
        nproc: sys::nproc(),
        attempted: check.attempted,
        failed: check.failed,
        warmup_s,
        metrics,
        summaries,
        warnings: check.warnings,
    })
}

/// Alternate untraced and traced passes for `seconds` (three pairs at
/// least), then take the workload's own layer measurements and the
/// calibrations. The untraced passes are the base of `trace.overhead_pct`:
/// same process, same moment, so the two differ by the tracing alone.
fn traced_passes(
    w: &mut dyn Workload,
    tracer: &Tracer,
    check: &mut Checker,
    seconds: Duration,
    quick: bool,
) -> Trace {
    let off = Tracer::off();
    let min_pairs = if quick { 1 } else { MIN_PASSES as u32 };
    let t0 = Instant::now();
    let mut pairs: u32 = 0;
    while pairs < min_pairs || t0.elapsed() < seconds / 2 {
        pairs += 1;
        tracer.set_pass(pairs);
        tracer.span("harness.untraced_pass", None, |_| check.pass(w, &off));
        tracer.span("harness.traced_pass", None, |_| check.pass(w, tracer));
    }
    tracer.set_pass(0);
    w.extras(tracer);
    let effort = if quick { Effort::QUICK } else { Effort::FULL };
    calib::run_level(tracer, &w.rep(), effort);
    calib::function_level(tracer, effort);
    tracer.snapshot()
}

/// Derive every per-layer metric from the trace. A metric whose layer the
/// workload never enters is 0.
#[must_use]
pub fn layer_metrics(trace: &Trace, warmup_s: f64) -> BTreeMap<String, f64> {
    let p50 = |name: &str, per: f64| {
        let v = trace.per_call_ns(name);
        if v.is_empty() {
            0.0
        } else {
            median(&v) / per
        }
    };
    let tail = |name: &str, per: f64| {
        let v = trace.per_call_ns(name);
        tail_percentile(v.len()).map_or(0.0, |p| percentile(&v, p) / per)
    };
    let count = |name: &str| trace.last_count(name).unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    const US: f64 = 1e3;
    const S: f64 = 1e9;

    // Scheduler: campaign spans and the replay spans under them.
    let campaigns: Vec<&crate::trace::Span> = trace
        .spans
        .iter()
        .filter(|s| s.name == "core.scheduler.campaign")
        .collect();
    let campaign_s: f64 = campaigns.iter().map(|s| s.ns() as f64 / S).sum();
    let scheduler_self_s: f64 = campaigns
        .iter()
        .map(|s| trace.self_ns(s.id) as f64 / S)
        .sum();
    let replays = count("core.scheduler.replays");
    let commits = replays * campaigns.len() as f64;
    let invocations = count("core.scheduler.invocations");

    // Warm campaign without (the pass) and with the journal.
    let hits = count("core.cache.hits");
    let cached_s = if hits > 0.0 {
        p50("core.scheduler.campaign", S)
    } else {
        0.0
    };
    let journaled_s = p50("core.journal.warm_campaign", S);

    let spawn_join_us = p50("mpi.runtime.spawn_join", US);
    let native_run_us = p50("mpi.runtime.native_run", US);
    let np_max = count("parmetis_scale.np_max");
    let native_np_max_s = p50(&format!("mpi.runtime.native_run.np{np_max}"), S);

    let traced_s = p50("harness.traced_pass", S);
    let untraced_s = p50("harness.untraced_pass", S);

    let seeds = trace.per_call_ns("fuzz.seed");
    let values = [
        ("workloads.build_s", p50("workloads.build", S)),
        ("mpi.runtime.spawn_join_us", spawn_join_us),
        (
            "mpi.runtime.spawn_join_tail_us",
            tail("mpi.runtime.spawn_join", US),
        ),
        ("mpi.runtime.native_run_us", native_run_us),
        (
            "mpi.runtime.msgs_per_s",
            ratio(count("mpi.runtime.messages_np_max"), native_np_max_s),
        ),
        (
            "mpi.matching.deliver_post_ns",
            p50("mpi.matching.deliver_post", 1.0),
        ),
        ("clocks.lamport_merge_ns", p50("clocks.lamport_merge", 1.0)),
        (
            "clocks.vector_merge_n256_ns",
            p50("clocks.vector_merge_n256", 1.0),
        ),
        ("core.pb.pack_unpack_ns", p50("core.pb.pack_unpack", 1.0)),
        (
            "core.pb.pack_unpack_vec256_ns",
            p50("core.pb.pack_unpack_vec256", 1.0),
        ),
        ("core.late.analyze_ns", p50("core.late.analyze", 1.0)),
        (
            "core.late.late_ratio",
            ratio(
                count("core.late.late_messages"),
                count("core.late.messages_analyzed"),
            ),
        ),
        (
            "core.tool.init_us",
            p50("core.tool.init", US) - spawn_join_us,
        ),
        (
            "core.tool.self_us",
            p50("core.tool.self_run", US) - native_run_us,
        ),
        ("core.tool.pb_messages", count("core.tool.pb_messages")),
        ("core.tool.pb_wire_bytes", count("core.tool.pb_wire_bytes")),
        ("core.scheduler.replays", replays),
        (
            "core.scheduler.divergences",
            count("core.scheduler.divergences"),
        ),
        ("core.scheduler.retries", count("core.scheduler.retries")),
        ("core.scheduler.replay_p50_us", p50("core.tool.replay", US)),
        (
            "core.scheduler.replay_tail_us",
            tail("core.tool.replay", US),
        ),
        ("core.scheduler.replays_per_s", ratio(commits, campaign_s)),
        (
            "core.scheduler.self_us_per_commit",
            ratio(scheduler_self_s * 1e6, commits),
        ),
        (
            "core.scheduler.parallelism_x",
            // `fold`, not `sum`: an empty `sum` is -0.0, which prints as such.
            ratio(
                trace
                    .per_call_ns("core.tool.replay")
                    .iter()
                    .fold(0.0, |a, b| a + b)
                    / S,
                campaign_s,
            ),
        ),
        (
            "core.scheduler.speculation_useful",
            ratio(replays, invocations),
        ),
        ("core.cache.hit_us", ratio(cached_s * 1e6, hits)),
        ("core.cache.hits", hits),
        ("core.cache.misses", count("core.cache.misses")),
        ("core.cache.bytes", count("core.cache.bytes")),
        (
            "core.journal.commit_us",
            if journaled_s > 0.0 {
                ratio((journaled_s - cached_s) * 1e6, hits)
            } else {
                0.0
            },
        ),
        ("core.journal.save_us", p50("core.journal.save", US)),
        ("core.journal.load_us", p50("core.journal.load", US)),
        ("core.journal.bytes", count("core.journal.bytes")),
        (
            "core.shard.frame_roundtrip_us",
            p50("core.shard.frame_roundtrip", US),
        ),
        ("analysis.plan_s", p50("analysis.plan", S)),
        ("analysis.facts", count("analysis.facts")),
        (
            "analysis.alternates_pruned",
            count("analysis.alternates_pruned"),
        ),
        ("isp.run_us", p50("isp.run", US)),
        ("isp.replays", count("isp.replays")),
        ("fuzz.gen_us", p50("fuzz.gen", US)),
        ("fuzz.seed_s_p50", p50("fuzz.seed", S)),
        (
            "fuzz.seed_s_max",
            seeds.iter().copied().fold(0.0, f64::max) / S,
        ),
        ("dampi_vt_slowdown_x", count("dampi_vt_slowdown_x")),
        ("isp_vt_slowdown_x", count("isp_vt_slowdown_x")),
        ("trace.traced_pass_s", traced_s),
        ("trace.untraced_pass_s", untraced_s),
        (
            "trace.overhead_pct",
            ratio((traced_s - untraced_s) * 100.0, untraced_s),
        ),
        ("warmup_s", warmup_s),
    ];
    values
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
}
