//! `dampi-cli` — drive the DAMPI verifier from the command line.
//!
//! ```text
//! dampi-cli list
//! dampi-cli verify <workload> [--np N] [--k K] [--max M] [--clock lamport|vector]
//!                             [--jobs N] [--isp] [--deferred-clock]
//!                             [--journal PATH] [--resume PATH]
//!                             [--replay-vt SECS] [--replay-wall SECS]
//!                             [--metrics PATH] [--trace PATH] [--progress]
//!                             [--prune-static]
//!                             [--cache DIR] [--cache-readonly]
//!                             [--shards N] [--worker-fault SPEC]
//!                             [--heartbeat-timeout SECS] [--lease SECS]
//!                             [--max-attempts K]
//! dampi-cli analyze <workload> [--np N] [--json] [--protocol SPEC]
//!                              # static pre-replay analysis (+ session conformance)
//! dampi-cli overhead [--np N]           # Table II style slowdown census
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use dampi::core::scheduler::{ExploreOptions, Start};
use dampi::core::shard::{self, ProcessWorkerLauncher, ShardOptions};
use dampi::core::{
    CampaignMetrics, CampaignTrace, ClockMode, DampiConfig, DampiVerifier, DecisionSet,
    ExplorationJournal, MixingBound, ReplayCache,
};
use dampi::isp::IspVerifier;
use dampi::mpi::fault::WorkerFaultPlan;
use dampi::mpi::{run_native, MatchPolicy, MpiProgram, ReplayBudget, SimConfig};
use dampi::workloads::adlb::{Adlb, AdlbParams};
use dampi::workloads::matmul::{Matmul, MatmulParams};
use dampi::workloads::parmetis::{Parmetis, ParmetisParams};
use dampi::workloads::{nas, patterns, spec};

fn registry(np: usize) -> Vec<(String, Box<dyn MpiProgram>)> {
    let mut v: Vec<(String, Box<dyn MpiProgram>)> = vec![
        (
            "matmul".into(),
            Box::new(Matmul::new(MatmulParams::default())),
        ),
        (
            "parmetis".into(),
            Box::new(Parmetis::new(ParmetisParams::nominal(np, 0.2))),
        ),
        ("adlb".into(), Box::new(Adlb::new(AdlbParams::default()))),
        ("fig3".into(), Box::new(patterns::fig3())),
        ("racers".into(), Box::new(patterns::symmetric_racers())),
        ("fig4".into(), Box::new(patterns::fig4_cross_coupled())),
        ("fig10".into(), Box::new(patterns::fig10_unsafe())),
        (
            "deadlock".into(),
            Box::new(patterns::deadlock_on_alternate_schedule()),
        ),
        ("leaky".into(), Box::new(patterns::leaky_program())),
        (
            "collective_mismatch".into(),
            Box::new(patterns::collective_mismatch()),
        ),
        ("request_leak".into(), Box::new(patterns::request_leak())),
        (
            "stuck_wildcard".into(),
            Box::new(patterns::stuck_wildcard()),
        ),
        (
            "matmul_ack".into(),
            Box::new(Matmul::new(MatmulParams {
                ack_results: true,
                ..MatmulParams::default()
            })),
        ),
        ("protocol_demo".into(), Box::new(patterns::protocol_demo())),
        (
            "protocol_order_bug".into(),
            Box::new(patterns::protocol_order_bug()),
        ),
        (
            "protocol_peer_bug".into(),
            Box::new(patterns::protocol_peer_bug()),
        ),
        (
            "protocol_short_bug".into(),
            Box::new(patterns::protocol_short_bug()),
        ),
        (
            "ordered_stages".into(),
            Box::new(patterns::ordered_stages()),
        ),
    ];
    for (name, prog) in nas::all_nominal() {
        v.push((name.to_lowercase(), prog));
    }
    for (name, prog) in spec::all_nominal() {
        v.push((name.to_lowercase(), prog));
    }
    v
}

struct Args {
    np: usize,
    k: Option<u32>,
    max: u64,
    clock: ClockMode,
    isp: bool,
    deferred: bool,
    biased: bool,
    json: bool,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    replay_vt: Option<f64>,
    replay_wall: Option<f64>,
    jobs: Option<usize>,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    progress: bool,
    prune_static: bool,
    shards: Option<usize>,
    heartbeat_timeout: Option<f64>,
    lease: Option<f64>,
    max_attempts: Option<u32>,
    worker_fault: Option<String>,
    fault_slot: usize,
    worker: bool,
    worker_beat_ms: u64,
    cache: Option<PathBuf>,
    cache_readonly: bool,
    protocol: Option<String>,
}

fn parse_flags(rest: &[String]) -> Result<Args, String> {
    let mut a = Args {
        np: 4,
        k: None,
        max: 10_000,
        clock: ClockMode::Lamport,
        isp: false,
        deferred: false,
        biased: true,
        json: false,
        journal: None,
        resume: None,
        replay_vt: None,
        replay_wall: None,
        jobs: None,
        metrics: None,
        trace: None,
        progress: false,
        prune_static: false,
        shards: None,
        heartbeat_timeout: None,
        lease: None,
        max_attempts: None,
        worker_fault: None,
        fault_slot: 0,
        worker: false,
        worker_beat_ms: 250,
        cache: None,
        cache_readonly: false,
        protocol: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--np" => a.np = val("--np")?.parse().map_err(|e| format!("--np: {e}"))?,
            "--k" => a.k = Some(val("--k")?.parse().map_err(|e| format!("--k: {e}"))?),
            "--max" => a.max = val("--max")?.parse().map_err(|e| format!("--max: {e}"))?,
            "--clock" => {
                a.clock = match val("--clock")?.as_str() {
                    "lamport" => ClockMode::Lamport,
                    "vector" => ClockMode::Vector,
                    other => return Err(format!("unknown clock mode `{other}`")),
                }
            }
            "--isp" => a.isp = true,
            "--deferred-clock" => a.deferred = true,
            "--unbiased" => a.biased = false,
            "--json" => a.json = true,
            "--jobs" => {
                let jobs: usize = val("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                a.jobs = Some(jobs);
            }
            "--shards" => {
                let shards: usize = val("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
                a.shards = Some(shards);
            }
            "--heartbeat-timeout" => {
                a.heartbeat_timeout = Some(
                    val("--heartbeat-timeout")?
                        .parse()
                        .map_err(|e| format!("--heartbeat-timeout: {e}"))?,
                );
            }
            "--lease" => {
                a.lease = Some(
                    val("--lease")?
                        .parse()
                        .map_err(|e| format!("--lease: {e}"))?,
                );
            }
            "--max-attempts" => {
                let k: u32 = val("--max-attempts")?
                    .parse()
                    .map_err(|e| format!("--max-attempts: {e}"))?;
                if k == 0 {
                    return Err("--max-attempts must be at least 1".to_owned());
                }
                a.max_attempts = Some(k);
            }
            "--worker-fault" => a.worker_fault = Some(val("--worker-fault")?),
            "--worker-fault-slot" => {
                a.fault_slot = val("--worker-fault-slot")?
                    .parse()
                    .map_err(|e| format!("--worker-fault-slot: {e}"))?;
            }
            "--worker" => a.worker = true,
            "--worker-beat-ms" => {
                a.worker_beat_ms = val("--worker-beat-ms")?
                    .parse()
                    .map_err(|e| format!("--worker-beat-ms: {e}"))?;
            }
            "--cache" => a.cache = Some(PathBuf::from(val("--cache")?)),
            "--cache-readonly" => a.cache_readonly = true,
            "--journal" => a.journal = Some(PathBuf::from(val("--journal")?)),
            "--resume" => a.resume = Some(PathBuf::from(val("--resume")?)),
            "--metrics" => a.metrics = Some(PathBuf::from(val("--metrics")?)),
            "--trace" => a.trace = Some(PathBuf::from(val("--trace")?)),
            "--progress" => a.progress = true,
            "--prune-static" => a.prune_static = true,
            "--protocol" => a.protocol = Some(val("--protocol")?),
            "--replay-vt" => {
                a.replay_vt = Some(
                    val("--replay-vt")?
                        .parse()
                        .map_err(|e| format!("--replay-vt: {e}"))?,
                );
            }
            "--replay-wall" => {
                a.replay_wall = Some(
                    val("--replay-wall")?
                        .parse()
                        .map_err(|e| format!("--replay-wall: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

/// Resolve `--protocol`: a filesystem path to a `.protocol` file wins;
/// otherwise the argument names a committed spec from
/// `dampi::workloads::protocols` (e.g. `matmul`, `ordered_stages`).
fn load_protocol(args: &Args) -> Result<Option<dampi::analysis::ProtocolSpec>, String> {
    let Some(arg) = &args.protocol else {
        return Ok(None);
    };
    let source = match std::fs::read_to_string(arg) {
        Ok(text) => text,
        Err(_) => dampi::workloads::protocols::by_name(arg)
            .map(str::to_owned)
            .ok_or_else(|| {
                format!("--protocol: `{arg}` is neither a readable file nor a committed spec name")
            })?,
    };
    dampi::analysis::ProtocolSpec::parse(&source)
        .map(Some)
        .map_err(|e| format!("--protocol {arg}: {e}"))
}

/// The flags that change what a replay *computes*, as opposed to how the
/// campaign is orchestrated, in canonical order. The supervisor spawns
/// each worker with exactly this vector (plus `--worker` plumbing), and
/// both sides hash it into the config digest the worker must echo in its
/// `Hello` frame — so a supervisor can never merge results computed under
/// different verification options.
fn semantic_args(name: &str, a: &Args) -> Vec<String> {
    let mut v = vec![
        "verify".to_owned(),
        name.to_owned(),
        "--np".to_owned(),
        a.np.to_string(),
        "--max".to_owned(),
        a.max.to_string(),
        "--clock".to_owned(),
        match a.clock {
            ClockMode::Lamport => "lamport".to_owned(),
            ClockMode::Vector => "vector".to_owned(),
        },
    ];
    if let Some(k) = a.k {
        v.push("--k".to_owned());
        v.push(k.to_string());
    }
    if a.deferred {
        v.push("--deferred-clock".to_owned());
    }
    if !a.biased {
        v.push("--unbiased".to_owned());
    }
    // f64 Display is shortest-roundtrip, so the respawned worker parses
    // back the identical bits.
    if let Some(vt) = a.replay_vt {
        v.push("--replay-vt".to_owned());
        v.push(vt.to_string());
    }
    if let Some(wall) = a.replay_wall {
        v.push("--replay-wall".to_owned());
        v.push(wall.to_string());
    }
    v
}

fn config_digest(name: &str, a: &Args) -> u64 {
    dampi::mpi::fnv1a64(semantic_args(name, a).join("\u{1f}").as_bytes())
}

/// SIGTERM → graceful drain. Lives in the CLI because `dampi-core`
/// forbids unsafe code; the handler body is one relaxed atomic store,
/// which is async-signal-safe.
#[cfg(unix)]
mod drain {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigterm(_sig: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Install the SIGTERM handler and return the drain flag the
    /// supervisor polls.
    pub fn install_sigterm() -> Arc<AtomicBool> {
        let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
        }
        flag
    }
}

fn cmd_list() -> ExitCode {
    println!("available workloads:");
    for (name, _) in registry(4) {
        println!("  {name}");
    }
    ExitCode::SUCCESS
}

/// `dampi-cli fuzz`: generate seeded programs, run each through the
/// differential clock-mode oracle, and emit one verdict JSON line per
/// seed. Fully deterministic: the same flags produce byte-identical
/// output, which is what the CI `fuzz-smoke` gate diffs against the
/// committed corpus.
fn cmd_fuzz(rest: &[String]) -> ExitCode {
    use dampi::fuzz::{gen, run_oracle, shrink, OracleParams};
    use dampi::workloads::generated::GenSpec;

    let mut seed0: u64 = 0;
    let mut count: u64 = 16;
    let mut max: Option<u64> = None;
    let mut escalate_k: Option<u32> = None;
    let mut out: Option<PathBuf> = None;
    let mut shrink_dir: Option<PathBuf> = None;
    let mut spec_out: Option<PathBuf> = None;
    let mut protocol_templates: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let r: Result<(), String> = (|| {
            match flag.as_str() {
                "--seed" => seed0 = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--count" => {
                    count = val("--count")?
                        .parse()
                        .map_err(|e| format!("--count: {e}"))?;
                }
                "--max" => max = Some(val("--max")?.parse().map_err(|e| format!("--max: {e}"))?),
                "--escalate-k" => {
                    escalate_k = Some(
                        val("--escalate-k")?
                            .parse()
                            .map_err(|e| format!("--escalate-k: {e}"))?,
                    );
                }
                "--out" => out = Some(PathBuf::from(val("--out")?)),
                "--shrink-bugs" => shrink_dir = Some(PathBuf::from(val("--shrink-bugs")?)),
                "--emit-specs" => spec_out = Some(PathBuf::from(val("--emit-specs")?)),
                "--protocol-templates" => {
                    protocol_templates = Some(
                        val("--protocol-templates")?
                            .parse()
                            .map_err(|e| format!("--protocol-templates: {e}"))?,
                    );
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Protocol-template mode: a separate known-answer corpus for the
    // static conformance checker, not the replay oracle. One JSON line
    // per seed; deterministic for equal flags.
    if let Some(n) = protocol_templates {
        use dampi::fuzz::{check_template, generate_template, Injection};
        let mut lines = Vec::new();
        let mut failures = 0u64;
        for seed in seed0..seed0 + n {
            let t = generate_template(seed);
            let outcome = check_template(&t);
            let injection = match t.injection {
                Injection::None => "none",
                Injection::Order => "order",
                Injection::Peer => "peer",
                Injection::Short => "short",
            };
            let line = match &outcome {
                Ok(fired) => format!(
                    "{{\"seed\":{seed},\"injection\":\"{injection}\",\"expected\":{},\"fired\":{fired},\"ok\":true}}",
                    t.injection
                        .expected_lint()
                        .map_or("null".to_owned(), |l| format!("\"{l}\"")),
                ),
                Err(e) => {
                    failures += 1;
                    eprintln!("seed {seed}: {e}");
                    format!(
                        "{{\"seed\":{seed},\"injection\":\"{injection}\",\"ok\":false,\"error\":{}}}",
                        serde_json::Value::String(e.clone())
                    )
                }
            };
            lines.push(line);
        }
        let body = lines.join("\n") + "\n";
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, &body) {
                eprintln!("error: --out: {e}");
                return ExitCode::FAILURE;
            }
        } else {
            print!("{body}");
        }
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!("{failures} of {n} protocol templates misanswered");
            ExitCode::FAILURE
        };
    }
    let mut oracle_params = OracleParams::default();
    if let Some(m) = max {
        oracle_params.max_interleavings = m;
    }
    if let Some(k) = escalate_k {
        oracle_params.escalate_k = k;
    }

    let mut lines = Vec::new();
    let mut bugs: Vec<GenSpec> = Vec::new();
    for seed in seed0..seed0 + count {
        let params = gen::GenParams::for_seed(seed);
        let spec = gen::generate(seed, &params);
        if let Some(dir) = &spec_out {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(dir.join(format!("fuzz_{seed}.json")), spec.to_json())
            }) {
                eprintln!("error: --emit-specs: {e}");
                return ExitCode::FAILURE;
            }
        }
        let verdict = run_oracle(&spec, &oracle_params);
        if verdict.unclassified() {
            eprintln!(
                "seed {seed}: {} — {} (shrinking: {})",
                verdict.verdict,
                verdict.detail,
                shrink_dir.is_some()
            );
            if let Some(dir) = &shrink_dir {
                let rounds = gen::generate_rounds(seed, &params);
                let want = verdict.verdict.clone();
                let shrunk = shrink(&spec.name, seed, &params, &rounds, |cand| {
                    run_oracle(cand, &oracle_params).verdict == want
                });
                let small = gen::lower(&spec.name, seed, &params, &shrunk);
                if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                    std::fs::write(dir.join(format!("shrunk_{seed}.json")), small.to_json())
                }) {
                    eprintln!("error: --shrink-bugs: {e}");
                    return ExitCode::FAILURE;
                }
            }
            bugs.push(spec);
        }
        lines.push(verdict.to_json());
    }
    let body = lines.join("\n") + "\n";
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &body) {
            eprintln!("error: --out: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        print!("{body}");
    }
    if bugs.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {count} seeds produced unclassified disagreements",
            bugs.len()
        );
        ExitCode::FAILURE
    }
}

fn cmd_verify(name: &str, rest: &[String]) -> ExitCode {
    let args = match parse_flags(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((_, prog)) = registry(args.np).into_iter().find(|(n, _)| n == name) else {
        eprintln!("unknown workload `{name}` — try `dampi-cli list`");
        return ExitCode::FAILURE;
    };
    let mut sim = SimConfig::new(args.np);
    if args.biased {
        sim = sim.with_policy(MatchPolicy::LowestRank);
    }
    if args.replay_vt.is_some() || args.replay_wall.is_some() {
        let mut budget = ReplayBudget::default();
        if let Some(vt) = args.replay_vt {
            budget = budget.with_max_virtual_time(vt);
        }
        if let Some(wall) = args.replay_wall {
            budget = budget.with_max_wall_clock(Duration::from_secs_f64(wall));
        }
        sim = sim.with_budget(budget);
    }
    if args.worker {
        // Internal mode: the process was spawned by a `--shards`
        // supervisor and serves replays over stdin/stdout.
        if args.isp || args.shards.is_some() || args.prune_static || args.cache.is_some() {
            eprintln!("error: --worker is an internal flag and composes with none of --isp/--shards/--prune-static/--cache");
            return ExitCode::FAILURE;
        }
        return run_worker_mode(name, prog.as_ref(), sim, &args);
    }
    if args.cache_readonly && args.cache.is_none() {
        eprintln!("error: --cache-readonly requires --cache (there is no store to protect)");
        return ExitCode::FAILURE;
    }
    if args.worker_fault.is_some() && args.shards.is_none() {
        eprintln!("error: --worker-fault requires --shards (it injects chaos into a shard worker)");
        return ExitCode::FAILURE;
    }
    if args.shards.is_some() && args.jobs.is_some() {
        eprintln!("error: --jobs and --shards are mutually exclusive (jobs are replay threads, shards are worker processes)");
        return ExitCode::FAILURE;
    }
    if args.isp {
        // (is set, flag, what the centralized ISP baseline lacks for it)
        let dampi_only = [
            (args.resume.is_some(), "--resume", "checkpointed frontier"),
            (args.journal.is_some(), "--journal", "checkpointed frontier"),
            (args.jobs.is_some(), "--jobs", "parallel replay"),
            (args.shards.is_some(), "--shards", "worker fleet"),
            (args.metrics.is_some(), "--metrics", "campaign observer"),
            (args.trace.is_some(), "--trace", "campaign observer"),
            (args.progress, "--progress", "campaign observer"),
            (args.prune_static, "--prune-static", "frontier to prune"),
            (args.cache.is_some(), "--cache", "decision-prefix keys"),
            (args.k.is_some(), "--k", "mixing bound (always unbounded)"),
            (args.deferred, "--deferred-clock", "piggybacked clocks"),
        ];
        if let Some((_, flag, lacks)) = dampi_only.iter().find(|(set, ..)| *set) {
            eprintln!("error: {flag} is DAMPI-only: the ISP baseline has no {lacks}");
            return ExitCode::FAILURE;
        }
        let mut v = IspVerifier::new(sim);
        v.cfg.max_interleavings = Some(args.max);
        let report = v.verify(prog.as_ref());
        if args.json {
            println!("{}", report.to_json());
        } else {
            println!("{report}");
        }
        return if report.errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }
    // Default to every available core: each frontier fork is an
    // independent simulation and the merge is deterministic either way.
    // Under --shards the parallelism lives in the worker fleet, so the
    // in-process thread pool stays at 1.
    let jobs = if args.shards.is_some() {
        1
    } else {
        args.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    };
    let mut cfg = DampiConfig::default()
        .with_clock_mode(args.clock)
        .with_max_interleavings(args.max)
        .with_jobs(jobs);
    if let Some(k) = args.k {
        cfg = cfg.with_bound(MixingBound::K(k));
    }
    if args.deferred {
        cfg = cfg.with_deferred_clock_sync();
    }
    // A resumed campaign keeps checkpointing to the journal it came from
    // unless --journal names another.
    if let Some(path) = args.journal.as_ref().or(args.resume.as_ref()) {
        cfg = cfg.with_journal(path.clone());
    }
    let mut verifier = DampiVerifier::with_config(sim, cfg);
    // Observability is opt-in: the metrics arc exists iff a snapshot file
    // or live progress was requested, so the default path stays untouched.
    let metrics = if args.metrics.is_some() || args.progress {
        let m = CampaignMetrics::new();
        verifier = verifier.with_metrics(m.clone());
        Some(m)
    } else {
        None
    };
    if let Some(path) = &args.trace {
        match CampaignTrace::to_file(path) {
            Ok(t) => verifier = verifier.with_trace(t),
            Err(e) => {
                eprintln!("error: cannot open trace file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let mut prune_run = None;
    if args.prune_static {
        if args.resume.is_some() {
            eprintln!("error: --prune-static cannot join a resumed campaign (the plan is keyed to a fresh free run, not the journaled one)");
            return ExitCode::FAILURE;
        }
        let spec = match load_protocol(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The traced free run feeds the static analysis *and* becomes the
        // campaign's SELF_RUN, so the plan prunes exactly the frontier
        // that run produced.
        let (events, run) = verifier.traced_run(prog.as_ref());
        let analysis = match dampi::analysis::analyze_with_protocol(
            prog.name(),
            args.np,
            &events,
            &run,
            spec.as_ref(),
        ) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: --protocol: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(p) = &analysis.protocol {
            let violations = p.l006 + p.l007 + p.l008;
            if violations > 0 {
                // A non-conformant free run contributes no pruning facts
                // (they are gated on every rank conforming), so the
                // campaign falls back to the plan's v1/v2 passes.
                eprintln!(
                    "prune-static: protocol `{}` NOT conformant ({violations} violation(s)) — protocol facts withheld",
                    p.spec_name
                );
            }
        }
        let plan = analysis.prune_plan();
        eprintln!(
            "prune-static: {} infeasible alternate(s) (+{} refined, +{} protocol), {} deterministic wildcard(s) (+{} refined, +{} protocol), {} symmetry orbit(s) ({} oblivious receive(s))",
            plan.infeasible.len(),
            plan.refined_infeasible.len(),
            plan.protocol_infeasible.len(),
            plan.deterministic.len(),
            plan.refined_deterministic.len(),
            plan.protocol_deterministic.len(),
            plan.orbits.len(),
            plan.oblivious_receives.len()
        );
        verifier = verifier.with_prune_plan(plan);
        prune_run = Some(run);
    } else if args.protocol.is_some() {
        eprintln!("error: verify --protocol requires --prune-static (the spec's only role in verification is protocol-guided pruning)");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &args.cache {
        // Keyed after the prune plan is installed: a different plan is a
        // different keyspace directory, so plan changes can never reuse a
        // stale subtree. (An empty plan is dropped by with_prune_plan and
        // shares the no-plan keyspace — the exploration is identical.)
        let plan = dampi::core::cache::plan_digest(verifier.prune.as_deref());
        match ReplayCache::open(dir, config_digest(name, &args), plan, args.cache_readonly) {
            Ok(c) => verifier = verifier.with_cache(Arc::new(c)),
            Err(e) => {
                eprintln!("error: cannot open replay cache {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let progress_reporter = args.progress.then(|| {
        let m = metrics.clone().expect("progress implies metrics");
        let max = args.max;
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            // One line every 500ms until the campaign signals completion.
            while stop_rx.recv_timeout(Duration::from_millis(500)).is_err() {
                let p = m.progress();
                let eta = p
                    .eta_s(Some(max))
                    .map_or_else(|| "?".to_owned(), |s| format!("{s:.0}s"));
                eprintln!(
                    "progress: {} replays committed ({:.1}/s), frontier {}, eta {eta}",
                    p.committed,
                    p.rate(),
                    p.frontier
                );
            }
        });
        (stop_tx, handle)
    });
    // --resume and --prune-static exclude each other (checked above), so
    // the campaign has exactly one starting point under any executor.
    let start = match (&args.resume, prune_run) {
        (Some(journal), _) => match ExplorationJournal::load(journal) {
            Ok(j) => Start::Resume(j),
            Err(e) => {
                eprintln!("error: cannot resume from {}: {e}", journal.display());
                return ExitCode::FAILURE;
            }
        },
        (None, Some(run)) => Start::FirstRun(run),
        (None, None) => Start::Fresh,
    };
    let report = if let Some(shards) = args.shards {
        match run_sharded(name, prog.as_ref(), &verifier, shards, &args, start) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: sharded campaign failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        verifier.verify_from(prog.as_ref(), start)
    };
    if let Some((stop_tx, handle)) = progress_reporter {
        let _ = stop_tx.send(());
        let _ = handle.join();
    }
    if let (Some(m), Some(path)) = (&metrics, &args.metrics) {
        let clock = match args.clock {
            ClockMode::Lamport => "lamport",
            ClockMode::Vector => "vector",
        };
        let snap = m.snapshot(name, args.np, clock, args.shards.unwrap_or(jobs));
        let json = serde_json::to_string_pretty(&snap).expect("metrics snapshot serializes");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: cannot write metrics file {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// The `--worker` servant: serve replays over stdin/stdout until the
/// supervisor shuts the pipe. Never prints to stdout (that is the frame
/// channel); diagnostics go to stderr, which the supervisor inherits.
fn run_worker_mode(name: &str, prog: &dyn MpiProgram, sim: SimConfig, args: &Args) -> ExitCode {
    let fault = match args.worker_fault.as_deref().map(WorkerFaultPlan::parse) {
        None => None,
        Some(Ok(plan)) => Some(plan),
        Some(Err(e)) => {
            eprintln!("error: --worker-fault: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = DampiConfig::default()
        .with_clock_mode(args.clock)
        .with_max_interleavings(args.max);
    if let Some(k) = args.k {
        cfg = cfg.with_bound(MixingBound::K(k));
    }
    if args.deferred {
        cfg = cfg.with_deferred_clock_sync();
    }
    // Replay-parity knobs the supervisor's workers must share; everything
    // else in ExploreOptions is supervisor-side state a worker never has.
    let opts = ExploreOptions {
        divergence_retries: cfg.divergence_retries,
        retry_backoff: cfg.retry_backoff.for_sim(&sim),
        ..ExploreOptions::default()
    };
    let wcfg = shard::WorkerConfig {
        heartbeat_interval: Duration::from_millis(args.worker_beat_ms),
        config_digest: config_digest(name, args),
        fault,
        hard_exit: true,
        cancel: Arc::new(AtomicBool::new(false)),
    };
    let verifier = DampiVerifier::with_config(sim, cfg);
    match shard::run_worker(std::io::stdin(), std::io::stdout(), &wcfg, &opts, |ds| {
        verifier.instrumented_run(prog, ds)
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dampi worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drive a `--shards N` campaign: spawn `dampi-cli verify … --worker`
/// processes via the supervisor, with SIGTERM wired to a graceful drain.
fn run_sharded(
    name: &str,
    prog: &dyn MpiProgram,
    verifier: &DampiVerifier,
    shards: usize,
    args: &Args,
    start: Start,
) -> std::io::Result<dampi::core::VerificationReport> {
    let mut opts = ShardOptions {
        shards,
        config_digest: config_digest(name, args),
        ..ShardOptions::default()
    };
    if let Some(secs) = args.heartbeat_timeout {
        opts.heartbeat_timeout = Duration::from_secs_f64(secs);
    }
    if let Some(secs) = args.lease {
        opts.lease = Duration::from_secs_f64(secs);
    }
    if let Some(k) = args.max_attempts {
        opts.max_attempts = k;
    }
    if let Some(spec) = &args.worker_fault {
        let plan = WorkerFaultPlan::parse(spec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        opts.fault = Some(plan);
        opts.fault_slot = args.fault_slot;
    }
    #[cfg(unix)]
    {
        opts.drain = Some(drain::install_sigterm());
    }
    let exe = std::env::current_exe()?;
    let forwarded = semantic_args(name, args);
    // Beacons at a quarter of the silence threshold: three beats can be
    // lost to scheduling noise before the detector fires.
    let beat_ms = (opts.heartbeat_timeout.as_millis() as u64 / 4).clamp(10, 500);
    let fault_spec = args.worker_fault.clone();
    let launcher = ProcessWorkerLauncher::new(move |_slot, fault| {
        let mut c = Command::new(&exe);
        c.args(&forwarded)
            .arg("--worker")
            .arg("--worker-beat-ms")
            .arg(beat_ms.to_string());
        if fault.is_some() {
            if let Some(spec) = &fault_spec {
                c.arg("--worker-fault").arg(spec);
            }
        }
        c
    });
    verifier.verify_sharded_from(prog, &launcher, &opts, start)
}

fn cmd_analyze(name: &str, rest: &[String]) -> ExitCode {
    let args = match parse_flags(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((_, prog)) = registry(args.np).into_iter().find(|(n, _)| n == name) else {
        eprintln!("unknown workload `{name}` — try `dampi-cli list`");
        return ExitCode::FAILURE;
    };
    let mut sim = SimConfig::new(args.np);
    if args.biased {
        sim = sim.with_policy(MatchPolicy::LowestRank);
    }
    let spec = match load_protocol(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = DampiConfig::default().with_clock_mode(args.clock);
    let verifier = DampiVerifier::with_config(sim, cfg);
    let report = match dampi::analysis::analyze_program_with_protocol(
        &verifier,
        prog.as_ref(),
        spec.as_ref(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: --protocol: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    if report.error_lints() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn cmd_overhead(rest: &[String]) -> ExitCode {
    let args = match parse_flags(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<14} {:>9} {:>9} {:>7} {:>7}",
        "program", "slowdown", "R*", "C-leak", "R-leak"
    );
    for (name, prog) in registry(args.np) {
        let sim = SimConfig::new(args.np);
        let native = run_native(&sim, prog.as_ref());
        if !native.succeeded() {
            println!("{name:<14} (native run fails: intentional-bug workload, skipped)");
            continue;
        }
        let inst =
            DampiVerifier::new(sim).instrumented_run(prog.as_ref(), &DecisionSet::self_run());
        if !inst.outcome.succeeded() {
            println!("{name:<14} (instrumented run fails, skipped)");
            continue;
        }
        println!(
            "{name:<14} {:>8.2}x {:>9} {:>7} {:>7}",
            inst.outcome.makespan / native.makespan.max(1e-12),
            inst.stats.wildcards,
            if inst.outcome.leaks.has_comm_leak() {
                "Yes"
            } else {
                "No"
            },
            if inst.outcome.leaks.has_request_leak() {
                "Yes"
            } else {
                "No"
            },
        );
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dampi-cli list\n  dampi-cli verify <workload> [--np N] [--k K] [--max M] \
         [--clock lamport|vector] [--isp] [--deferred-clock] [--unbiased] [--json]\n    \
         [--jobs N]            parallel replay workers (default: all cores; result is\n    \
                               identical to --jobs 1, only faster)\n    \
         [--journal PATH]      checkpoint the exploration frontier after every run\n    \
         [--resume PATH]       continue an interrupted campaign from its journal\n    \
         [--replay-vt SECS]    kill any replay exceeding this virtual-time budget\n    \
         [--replay-wall SECS]  kill any replay exceeding this wall-clock budget\n    \
         [--metrics PATH]      write a campaign metrics snapshot (JSON) after the run\n    \
         [--trace PATH]        stream a schema-versioned JSONL campaign trace\n    \
         [--progress]          print a live progress line (replays/sec, frontier, ETA)\n    \
         [--prune-static]      run the static pre-analysis first and prune the frontier\n    \
                               (same error set, fewer replays)\n    \
         [--protocol SPEC]     with --prune-static: also check the free run against a\n    \
                               session-protocol spec (path or committed name) and prune\n    \
                               wildcard alternates the protocol rules out\n    \
         [--cache DIR]         content-addressed replay-result cache: warm reruns of an\n    \
                               unchanged workload reuse committed subtrees byte-for-byte\n    \
         [--cache-readonly]    consult the cache but never write or evict entries\n    \
         [--shards N]          shard replays across N worker *processes* under a\n    \
                               fault-tolerant supervisor; byte-identical to --jobs 1.\n    \
                               SIGTERM drains gracefully (checkpoint via --journal)\n    \
         [--heartbeat-timeout SECS]  declare a silent worker lost (default 2)\n    \
         [--lease SECS]        declare a wedged-but-chatty worker lost (default 30)\n    \
         [--max-attempts K]    quarantine a subtree after K lost dispatches (default 3)\n    \
         [--worker-fault SPEC] chaos-inject one worker: kind:nth[:always], kind one of\n    \
                               kill|exit-before-ack|stall-heartbeats|wedge|corrupt-result\n  \
         dampi-cli analyze <workload> [--np N] [--json] [--protocol SPEC]\n    \
                               static pre-replay analysis: match sets, prunable\n    \
                               alternates, symmetry orbits, definite-bug lints\n    \
                               (exit 2 when an error-severity lint fires);\n    \
                               --protocol adds L006–L008 session-conformance lints\n    \
                               against a spec file or committed spec name\n  \
         dampi-cli fuzz [--seed S] [--count N] [--max M] [--escalate-k K]\n    \
                        [--out PATH]          write verdict JSONL here instead of stdout\n    \
                        [--emit-specs DIR]    also write each generated program spec\n    \
                        [--shrink-bugs DIR]   minimise any unclassified disagreement to DIR\n    \
                        [--protocol-templates N]  known-answer corpus for the session-\n    \
                               conformance checker: N seeded protocol templates with\n    \
                               injected L006/L007/L008 violations (exit 1 on any miss)\n    \
                               seeded differential fuzzing: generate N programs, verify\n    \
                               each under ISP / vector / Lamport(k) / both piggyback\n    \
                               mechanisms, and classify every disagreement; output is\n    \
                               byte-identical for equal flags (exit 1 on a tool bug)\n  \
         dampi-cli overhead [--np N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "list" => cmd_list(),
            "verify" => match rest.split_first() {
                Some((name, flags)) => cmd_verify(name, flags),
                None => usage(),
            },
            "analyze" => match rest.split_first() {
                Some((name, flags)) => cmd_analyze(name, flags),
                None => usage(),
            },
            "fuzz" => cmd_fuzz(rest),
            "overhead" => cmd_overhead(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
