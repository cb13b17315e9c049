//! `dampi-cli` — drive the DAMPI verifier from the command line.
//!
//! Run it with no arguments for the usage text. That text, the parser, every
//! "requires / excludes / DAMPI-only" refusal, and the argv a `--shards`
//! supervisor hands its workers are all read off the one [`FLAGS`] table.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use dampi::core::scheduler::{ExploreOptions, Start};
use dampi::core::shard::{self, ProcessWorkerLauncher, ShardOptions};
use dampi::core::{
    CampaignMetrics, CampaignTrace, ClockMode, DampiConfig, DampiVerifier, DecisionSet,
    ExplorationJournal, MixingBound, ReplayCache, ToolStack, VerificationReport,
};
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

fn workload(name: &str, np: usize) -> Result<Box<dyn MpiProgram>, String> {
    registry(np)
        .into_iter()
        .find_map(|(n, prog)| (n == name).then_some(prog))
        .ok_or_else(|| format!("unknown workload `{name}` — try `dampi-cli list`"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cmd {
    List,
    Verify,
    Analyze,
    Fuzz,
    Overhead,
}

/// (subcommand, its name, whether a `<workload>` follows): `run` dispatches
/// on the name and `usage` prints the lot.
const CMDS: [(Cmd, &str, bool); 5] = [
    (Cmd::List, "list", false),
    (Cmd::Verify, "verify", true),
    (Cmd::Analyze, "analyze", true),
    (Cmd::Fuzz, "fuzz", false),
    (Cmd::Overhead, "overhead", false),
];

const V: &[Cmd] = &[Cmd::Verify];
const VA: &[Cmd] = &[Cmd::Verify, Cmd::Analyze];
const VAO: &[Cmd] = &[Cmd::Verify, Cmd::Analyze, Cmd::Overhead];
const VF: &[Cmd] = &[Cmd::Verify, Cmd::Fuzz];
const FZ: &[Cmd] = &[Cmd::Fuzz];

/// How a flag's value is read; what it refuses, it refuses at parse time.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// Seconds a `Duration` can hold: finite, non-negative, not overflowing.
    Secs,
    /// Any string: a path, a spec name, a fault spec.
    Text,
    Choice(&'static [&'static str]),
}
use Kind::{Choice, Secs, Switch, Text};

const COUNT: Kind = Kind::Int(1, u32::MAX as u64);
const U32: Kind = Kind::Int(0, u32::MAX as u64);
const U64: Kind = Kind::Int(0, u64::MAX);

impl Kind {
    /// Check `raw` and return it in canonical form — the form `Parsed` keeps
    /// and `semantic_args` writes back. `f64`'s `Display` is its shortest
    /// round-trip, so a respawned worker parses the identical bits.
    fn canonical(self, raw: &str) -> Result<String, String> {
        match self {
            Kind::Int(min, max) => match raw.parse::<u64>() {
                Ok(n) if n < min => Err(format!("must be at least {min}")),
                Ok(n) if n > max => Err(format!("must be at most {max}")),
                Ok(n) => Ok(n.to_string()),
                Err(e) => Err(format!("`{raw}`: {e}")),
            },
            Secs => match raw.parse::<f64>() {
                Ok(s) if Duration::try_from_secs_f64(s).is_ok() => Ok(s.to_string()),
                _ => Err(format!(
                    "`{raw}` is not a finite, non-negative number of seconds"
                )),
            },
            Choice(of) if !of.contains(&raw) => {
                Err(format!("`{raw}` is not one of {}", of.join("|")))
            }
            Switch | Text | Choice(_) => Ok(raw.to_owned()),
        }
    }
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value's placeholder in the usage text.
    meta: &'static str,
    /// The subcommands that take it; every other one refuses it by name.
    cmds: &'static [Cmd],
    help: &'static str,
    default: Option<&'static str>,
    /// Changes what a replay computes, as opposed to how the campaign is
    /// orchestrated: forwarded to shard workers and hashed into the config
    /// digest (see [`semantic_args`]).
    semantic: bool,
    /// Spoken only by a supervisor to its workers; absent from the usage.
    internal: bool,
    /// Refused unless one of these is given too. A requirement the current
    /// subcommand has no flag for does not bind there.
    needs: &'static [F],
    conflicts: &'static [F],
    /// What the centralized ISP baseline lacks for it; `None` where `--isp`
    /// honours the flag.
    isp_lacks: Option<&'static str>,
}

/// The columns a row may leave out.
const ROW: Flag = Flag {
    name: "",
    kind: Switch,
    meta: "",
    cmds: &[],
    help: "",
    default: None,
    semantic: false,
    internal: false,
    needs: &[],
    conflicts: &[],
    isp_lacks: None,
};

/// Declares the flag set once: `F` (a row's index, so code names a flag
/// without respelling it) and `FLAGS` (the rows) come from the same list.
/// A row is `Id = name, kind, placeholder, subcommands, help` and then any
/// of `Flag`'s other columns by name.
macro_rules! flag_table {
    ($($id:ident = $name:literal, $kind:expr, $meta:literal, $cmds:expr, $help:literal
        $(, $col:ident: $val:expr)*;)*) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum F { $($id),* }
        const FLAGS: &[Flag] = &[$(Flag {
            name: $name, kind: $kind, meta: $meta, cmds: $cmds, help: $help,
            $($col: $val,)* ..ROW
        }),*];
    };
}

/// What `--isp` lacks for the static pre-analysis rows.
const PLAN: &str = "prune plan (its facts are keyed by DAMPI epoch clocks)";

flag_table! {
    // The semantic rows come first, in the order `semantic_args` has always
    // written them: warm `--cache` directories are keyed by that order.
    Np = "--np", COUNT, "N", VAO, "simulated MPI ranks (default 4)",
        default: Some("4"), semantic: true;
    Max = "--max", U64, "M", VF, "interleaving budget (default 10000; fuzz: 2000 per mode)",
        default: Some("10000"), semantic: true;
    Clock = "--clock", Choice(&["lamport", "vector"]), "", VA,
        "the tool's logical clock (default lamport)",
        default: Some("lamport"), semantic: true,
        isp_lacks: Some("clock mode (one central scheduler sees every match)");
    K = "--k", U32, "K", V, "bounded mixing: explore alternates within K epochs of a fork only",
        semantic: true, isp_lacks: Some("mixing bound (always unbounded)");
    DeferredClock = "--deferred-clock", Switch, "", V,
        "the paper's §V paired-clock fix for the Fig. 10 unsafe pattern",
        semantic: true, isp_lacks: Some("piggybacked clocks");
    Unbiased = "--unbiased", Switch, "", VA,
        "free-run wildcards match as the runtime races them, not lowest rank first",
        semantic: true;
    ReplayVt = "--replay-vt", Secs, "SECS", V,
        "kill any replay exceeding this virtual-time budget",
        semantic: true;
    ReplayWall = "--replay-wall", Secs, "SECS", V,
        "kill any replay exceeding this wall-clock budget",
        semantic: true;
    // Last: absent, it leaves every DAMPI command line's digest as it was.
    Isp = "--isp", Switch, "", V, "replay under the centralized ISP baseline instead of DAMPI",
        semantic: true;
    Json = "--json", Switch, "", VA, "print the report as one JSON object";
    Jobs = "--jobs", COUNT, "N", V,
        "parallel replay threads (default: all cores; same result as 1, only faster)",
        conflicts: &[F::Shards];
    Journal = "--journal", Text, "PATH", V, "append every commit to a journal log";
    Resume = "--resume", Text, "PATH", V, "continue an interrupted campaign from its journal";
    Metrics = "--metrics", Text, "PATH", V,
        "write a campaign metrics snapshot (JSON) after the run";
    Trace = "--trace", Text, "PATH", V, "stream a schema-versioned JSONL campaign trace";
    Progress = "--progress", Switch, "", V,
        "print a live progress line (replays/sec, frontier, ETA)";
    PruneStatic = "--prune-static", Switch, "", V,
        "run the static pre-analysis first and prune the frontier (same error set, fewer replays)",
        isp_lacks: Some(PLAN);
    Protocol = "--protocol", Text, "SPEC", VA,
        "session-protocol spec (path or committed name): adds the L006–L008 conformance \
         lints; verify also prunes the alternates it rules out",
        needs: &[F::PruneStatic], isp_lacks: Some(PLAN);
    Cache = "--cache", Text, "DIR", V,
        "replay-result cache: warm reruns of an unchanged workload reuse committed subtrees \
         byte for byte";
    CacheReadonly = "--cache-readonly", Switch, "", V,
        "consult the cache but never write or evict entries",
        needs: &[F::Cache];
    Shards = "--shards", COUNT, "N", V,
        "shard replays across N supervised worker processes: byte-identical to --jobs 1; \
         SIGTERM drains gracefully (resume via --journal)";
    HeartbeatTimeout = "--heartbeat-timeout", Secs, "SECS", V,
        "declare a silent worker lost (default 2)",
        needs: &[F::Shards];
    Lease = "--lease", Secs, "SECS", V, "declare a wedged-but-chatty worker lost (default 30)",
        needs: &[F::Shards];
    MaxAttempts = "--max-attempts", COUNT, "K", V,
        "quarantine a subtree after K lost dispatches (default 3)",
        needs: &[F::Shards];
    WorkerFault = "--worker-fault", Text, "SPEC", V,
        "chaos-inject one worker: kind:nth[:always], kind one of \
         kill|exit-before-ack|stall-heartbeats|wedge|corrupt-result",
        needs: &[F::Shards, F::Worker];
    WorkerFaultSlot = "--worker-fault-slot", U64, "I", V,
        "the worker slot the fault hits (default 0)",
        needs: &[F::WorkerFault];
    Worker = "--worker", Switch, "", V, "serve replays to a supervisor over stdin/stdout",
        internal: true, conflicts: &[F::Shards, F::PruneStatic, F::Cache];
    WorkerBeatMs = "--worker-beat-ms", U64, "MS", V, "heartbeat period",
        default: Some("250"), internal: true, needs: &[F::Worker];
    Seed = "--seed", U64, "S", FZ, "first seed (default 0)", default: Some("0");
    Count = "--count", U64, "N", FZ, "consecutive seeds to run (default 16)",
        default: Some("16");
    EscalateK = "--escalate-k", U32, "K", FZ,
        "largest k the bounded-mixing modes escalate to (default 4)";
    Out = "--out", Text, "PATH", FZ, "write verdict JSONL here instead of stdout";
    EmitSpecs = "--emit-specs", Text, "DIR", FZ, "also write each generated program spec";
    ShrinkBugs = "--shrink-bugs", Text, "DIR", FZ,
        "minimise any unclassified disagreement to DIR";
    ProtocolTemplates = "--protocol-templates", U64, "N", FZ,
        "instead: N seeded protocol templates with injected L006/L007/L008 violations, a \
         known-answer corpus for the conformance checker (exit 1 on any miss)",
        conflicts: &[F::Count, F::Max, F::EscalateK, F::EmitSpecs, F::ShrinkBugs];
}

impl F {
    fn row(self) -> &'static Flag {
        &FLAGS[self as usize]
    }
}

impl fmt::Display for F {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().name)
    }
}

/// `error: --flag: <why>` for a failure met while acting on a flag's value.
fn fail(f: F, why: impl fmt::Display) -> String {
    format!("{f}: {why}")
}

/// One subcommand's parsed command line: each row's explicit value, if any,
/// checked and in canonical form (a switch's is empty).
#[derive(Clone)]
struct Parsed {
    cmd: Cmd,
    explicit: Vec<Option<String>>,
}

fn parse(cmd: Cmd, argv: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed {
        cmd,
        explicit: vec![None; FLAGS.len()],
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let i = FLAGS
            .iter()
            .position(|row| row.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let row = &FLAGS[i];
        if !row.cmds.contains(&cmd) {
            return Err(format!("{arg} is not a flag of `{}`", cmd.name()));
        }
        let raw = match row.kind {
            Switch => "",
            _ => it.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        let val = row.kind.canonical(raw);
        p.explicit[i] = Some(val.map_err(|why| format!("{arg}: {why}"))?);
    }
    p.check()?;
    Ok(p)
}

impl Parsed {
    /// The table's cross-flag columns: DAMPI-only under `--isp` first (so a
    /// flag ISP lacks is refused as such, whatever else it would need), then
    /// `needs` and `conflicts`.
    fn check(&self) -> Result<(), String> {
        let given = || {
            let rows = FLAGS.iter().zip(&self.explicit);
            rows.filter_map(|(row, val)| val.is_some().then_some(row))
        };
        if self.given(F::Isp) {
            if let Some((row, lacks)) = given().find_map(|row| Some((row, row.isp_lacks?))) {
                let name = row.name;
                return Err(format!(
                    "{name} is DAMPI-only: the ISP baseline has no {lacks}"
                ));
            }
        }
        for row in given() {
            let name = row.name;
            let takes = |f: &&F| f.row().cmds.contains(&self.cmd);
            let needs: Vec<&F> = row.needs.iter().filter(takes).collect();
            if !needs.is_empty() && !needs.iter().any(|&&f| self.given(f)) {
                return Err(format!("{name} requires {}", needs[0]));
            }
            if let Some(other) = row.conflicts.iter().find(|&&f| self.given(f)) {
                return Err(format!("{name} and {other} are mutually exclusive"));
            }
        }
        Ok(())
    }

    fn given(&self, f: F) -> bool {
        self.explicit[f as usize].is_some()
    }

    /// Row `i`'s explicit value, else its default where this subcommand
    /// takes the flag and the tool has it (`--isp` has no `--clock`).
    fn at(&self, i: usize) -> Option<&str> {
        let row = &FLAGS[i];
        let lacked = row.isp_lacks.is_some() && self.given(F::Isp);
        let binds = row.cmds.contains(&self.cmd) && !lacked;
        let default = row.default.filter(|_| binds);
        self.explicit[i].as_deref().or(default)
    }

    fn text(&self, f: F) -> Option<&str> {
        self.at(f as usize)
    }

    /// A numeric flag, in whatever type the row's kind fits.
    fn num<T: std::str::FromStr>(&self, f: F) -> Option<T> {
        self.text(f)?.parse().ok()
    }

    /// A numeric flag this subcommand has a default for.
    fn req<T: std::str::FromStr>(&self, f: F) -> T {
        self.num(f).expect("the row has a default that fits")
    }

    fn secs(&self, f: F) -> Option<Duration> {
        self.num(f).map(Duration::from_secs_f64)
    }

    fn path(&self, f: F) -> Option<PathBuf> {
        self.text(f).map(PathBuf::from)
    }
}

impl Cmd {
    fn name(self) -> &'static str {
        let row = CMDS.iter().find(|row| row.0 == self);
        row.expect("every subcommand is in CMDS").1
    }
}

fn usage() -> String {
    let mut s = String::from("usage:\n");
    for (cmd, name, workload) in CMDS {
        let positional = if workload { " <workload>" } else { "" };
        let _ = writeln!(s, "  dampi-cli {name}{positional}");
        let takes = |row: &&Flag| !row.internal && row.cmds.contains(&cmd);
        for row in FLAGS.iter().filter(takes) {
            let spelled = match row.kind {
                Switch => format!("[{}]", row.name),
                Choice(of) => format!("[{} {}]", row.name, of.join("|")),
                _ => format!("[{} {}]", row.name, row.meta),
            };
            let _ = writeln!(s, "    {spelled:<26} {}", row.help);
        }
    }
    s + "exit status: 0 clean, 1 refused or failed, 2 bugs or error lints found\n"
}

/// The flags that change what a replay *computes*, as opposed to how the
/// campaign is orchestrated, in table order. The supervisor spawns each
/// worker with exactly this vector (plus `--worker` plumbing), and both
/// sides hash it into the config digest the worker must echo in its `Hello`
/// frame — so a supervisor can never merge results computed under different
/// verification options. The same digest names a `--cache` keyspace.
fn semantic_args(name: &str, p: &Parsed) -> Vec<String> {
    let mut v = vec![Cmd::Verify.name().to_owned(), name.to_owned()];
    for (i, row) in FLAGS.iter().enumerate().filter(|(_, row)| row.semantic) {
        if let Some(val) = p.at(i) {
            v.push(row.name.to_owned());
            if !matches!(row.kind, Switch) {
                v.push(val.to_owned());
            }
        }
    }
    v
}

fn config_digest(name: &str, p: &Parsed) -> u64 {
    dampi::mpi::fnv1a64(semantic_args(name, p).join("\u{1f}").as_bytes())
}

/// [`config_digest`] at the default `--max`: the journal's key and every
/// worker's `Hello`. A budget decides where a campaign stops, not what a
/// commit holds, so one cut by `--max` resumes under any other. (`--cache`
/// keyspaces keep the budget in their digest, so existing stores stay warm.)
fn campaign_digest(name: &str, p: &Parsed) -> u64 {
    let mut unbudgeted = p.clone();
    unbudgeted.explicit[F::Max as usize] = None;
    config_digest(name, &unbudgeted)
}

/// The `error:` line of a campaign that could not run: a refused journal
/// names `--resume`.
fn campaign_failed(e: std::io::Error) -> String {
    match e.kind() {
        std::io::ErrorKind::InvalidData => fail(F::Resume, e),
        _ => format!("campaign failed: {e}"),
    }
}

/// The simulator and tool configuration the semantic flags describe: the one
/// place a flag becomes a `SimConfig`/`DampiConfig` field, for the campaign,
/// its shard workers and `analyze` alike.
fn replay_config(p: &Parsed) -> (SimConfig, DampiConfig) {
    let mut sim = SimConfig::new(p.req(F::Np)).with_budget(ReplayBudget {
        max_virtual_time: p.num(F::ReplayVt),
        max_wall_clock: p.secs(F::ReplayWall),
    });
    if !p.given(F::Unbiased) {
        sim = sim.with_policy(MatchPolicy::LowestRank);
    }
    let clock = match p.text(F::Clock) {
        Some("vector") => ClockMode::Vector,
        _ => ClockMode::Lamport,
    };
    let mut cfg = DampiConfig::default().with_clock_mode(clock);
    if p.given(F::Isp) {
        cfg = cfg.with_tool(ToolStack::Isp);
    }
    if let Some(max) = p.num(F::Max) {
        cfg = cfg.with_max_interleavings(max);
    }
    if let Some(k) = p.num(F::K) {
        cfg = cfg.with_bound(MixingBound::K(k));
    }
    if p.given(F::DeferredClock) {
        cfg = cfg.with_deferred_clock_sync();
    }
    (sim, cfg)
}

/// Resolve `--protocol`: a filesystem path to a `.protocol` file wins;
/// otherwise the argument names a committed spec from
/// `dampi::workloads::protocols` (e.g. `matmul`, `ordered_stages`).
fn load_protocol(p: &Parsed) -> Result<Option<dampi::analysis::ProtocolSpec>, String> {
    let Some(arg) = p.text(F::Protocol) else {
        return Ok(None);
    };
    let bad = |why: &dyn fmt::Display| fail(F::Protocol, format_args!("`{arg}` {why}"));
    let source = match std::fs::read_to_string(arg) {
        Ok(text) => text,
        Err(_) => dampi::workloads::protocols::by_name(arg)
            .map(str::to_owned)
            .ok_or_else(|| bad(&"is neither a readable file nor a committed spec name"))?,
    };
    dampi::analysis::ProtocolSpec::parse(&source)
        .map(Some)
        .map_err(|e| bad(&e))
}

fn fault_plan(p: &Parsed) -> Result<Option<WorkerFaultPlan>, String> {
    let plan = p.text(F::WorkerFault).map(WorkerFaultPlan::parse);
    plan.transpose().map_err(|e| fail(F::WorkerFault, e))
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

/// Verdict lines go to `--out`, else to stdout.
fn emit(p: &Parsed, lines: &[String]) -> Result<(), String> {
    let body = lines.join("\n") + "\n";
    match p.path(F::Out) {
        Some(path) => std::fs::write(path, body).map_err(|e| fail(F::Out, e)),
        None => {
            print!("{body}");
            Ok(())
        }
    }
}

fn write_into(dir: &Path, file: String, body: String) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(file), body)
}

/// `dampi-cli fuzz`: generate seeded programs, run each through the
/// differential clock-mode oracle, and emit one verdict JSON line per
/// seed. Fully deterministic: the same flags produce byte-identical
/// output, which is what the CI `fuzz-smoke` gate diffs against the
/// committed corpus.
fn cmd_fuzz(p: &Parsed) -> Result<ExitCode, String> {
    use dampi::fuzz::{gen, run_oracle, shrink, OracleParams};

    let seed0: u64 = p.req(F::Seed);
    if let Some(n) = p.num(F::ProtocolTemplates) {
        return fuzz_protocol_templates(p, seed0, n);
    }
    let count: u64 = p.req(F::Count);
    let mut oracle_params = OracleParams::default();
    // The table's default budget is `verify`'s; the oracle keeps its own.
    if p.given(F::Max) {
        oracle_params.max_interleavings = p.req(F::Max);
    }
    if let Some(k) = p.num(F::EscalateK) {
        oracle_params.escalate_k = k;
    }
    let (spec_out, shrink_dir) = (p.path(F::EmitSpecs), p.path(F::ShrinkBugs));

    let mut lines = Vec::new();
    let mut bugs = 0u64;
    for seed in seed0..seed0.saturating_add(count) {
        let params = gen::GenParams::for_seed(seed);
        let spec = gen::generate(seed, &params);
        if let Some(dir) = &spec_out {
            write_into(dir, format!("fuzz_{seed}.json"), spec.to_json())
                .map_err(|e| fail(F::EmitSpecs, e))?;
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
                write_into(dir, format!("shrunk_{seed}.json"), small.to_json())
                    .map_err(|e| fail(F::ShrinkBugs, e))?;
            }
            bugs += 1;
        }
        lines.push(verdict.to_json());
    }
    emit(p, &lines)?;
    if bugs > 0 {
        return Err(format!(
            "{bugs} of {count} seeds produced unclassified disagreements"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// Protocol-template mode: a separate known-answer corpus for the static
/// conformance checker, not the replay oracle. One JSON line per seed;
/// deterministic for equal flags.
fn fuzz_protocol_templates(p: &Parsed, seed0: u64, n: u64) -> Result<ExitCode, String> {
    use dampi::fuzz::{check_template, generate_template, Injection};
    let mut lines = Vec::new();
    let mut failures = 0u64;
    for seed in seed0..seed0.saturating_add(n) {
        let t = generate_template(seed);
        let injection = match t.injection {
            Injection::None => "none",
            Injection::Order => "order",
            Injection::Peer => "peer",
            Injection::Short => "short",
        };
        lines.push(match check_template(&t) {
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
                    serde_json::Value::String(e)
                )
            }
        });
    }
    emit(p, &lines)?;
    if failures > 0 {
        return Err(format!("{failures} of {n} protocol templates misanswered"));
    }
    Ok(ExitCode::SUCCESS)
}

/// Print a campaign's report under the name the user asked for (workloads
/// name themselves loosely: `racers` is "anonymous", `matmul_ack` "matmul").
fn print_report(name: &str, mut report: VerificationReport, p: &Parsed) -> ExitCode {
    report.program = name.to_owned();
    if p.given(F::Json) {
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

fn cmd_verify(name: &str, p: &Parsed) -> Result<ExitCode, String> {
    let np: usize = p.req(F::Np);
    let prog = workload(name, np)?;
    let prog = prog.as_ref();
    let (sim, mut cfg) = replay_config(p);
    if p.given(F::Worker) {
        // Internal mode: the process was spawned by a `--shards`
        // supervisor and serves replays over stdin/stdout.
        return run_worker_mode(name, prog, sim, cfg, p);
    }
    // Default to every available core: each frontier fork is an
    // independent simulation and the merge is deterministic either way.
    // Under --shards the parallelism lives in the worker fleet, so the
    // in-process thread pool stays at 1.
    let shards: Option<usize> = p.num(F::Shards);
    let jobs = match shards {
        Some(_) => 1,
        None => p.num(F::Jobs).unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }),
    };
    cfg = cfg.with_jobs(jobs);
    if let Some(path) = p.path(F::Journal) {
        cfg = cfg.with_journal(path);
    }
    let journal = p.path(F::Resume).map(|j| ExplorationJournal::load(&j));
    let mut start = Start {
        journal: journal.transpose().map_err(|e| fail(F::Resume, e))?,
        config_digest: campaign_digest(name, p),
        first_run: None,
    };
    let mut verifier = DampiVerifier::with_config(sim, cfg);
    // Observability is opt-in: the metrics arc exists iff a snapshot file
    // or live progress was requested, so the default path stays untouched.
    let metrics = (p.given(F::Metrics) || p.given(F::Progress)).then(CampaignMetrics::new);
    if let Some(m) = &metrics {
        verifier = verifier.with_metrics(m.clone());
    }
    if let Some(path) = p.path(F::Trace) {
        let trace = CampaignTrace::to_file(&path).map_err(|e| fail(F::Trace, e))?;
        verifier = verifier.with_trace(trace);
    }
    if p.given(F::PruneStatic) {
        let spec = load_protocol(p)?;
        // The traced free run feeds the static analysis *and* becomes the
        // campaign's SELF_RUN, so the plan prunes exactly the frontier
        // that run produced. A resumed campaign takes it again: if the
        // plan it gives is not the journal's, the journal is refused.
        let (events, run) = verifier.traced_run(prog);
        let analysis =
            dampi::analysis::analyze_with_protocol(prog.name(), np, &events, &run, spec.as_ref())
                .map_err(|e| fail(F::Protocol, e))?;
        if let Some(proto) = &analysis.protocol {
            let violations = proto.l006 + proto.l007 + proto.l008;
            if violations > 0 {
                // A non-conformant free run contributes no pruning facts
                // (they are gated on every rank conforming), so the
                // campaign falls back to the plan's v1/v2 passes.
                eprintln!(
                    "prune-static: protocol `{}` NOT conformant ({violations} violation(s)) — protocol facts withheld",
                    proto.spec_name
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
        start.first_run = Some(run);
    }
    if let Some(dir) = p.path(F::Cache) {
        // Keyed after the prune plan is installed: a different plan is a
        // different keyspace directory, so plan changes can never reuse a
        // stale subtree. (An empty plan is dropped by with_prune_plan and
        // shares the no-plan keyspace — the exploration is identical.)
        let plan = dampi::core::cache::plan_digest(verifier.prune.as_deref());
        let readonly = p.given(F::CacheReadonly);
        let cache = ReplayCache::open(&dir, config_digest(name, p), plan, readonly)
            .map_err(|e| fail(F::Cache, e))?;
        verifier = verifier.with_cache(Arc::new(cache));
    }
    let progress_reporter = metrics.clone().filter(|_| p.given(F::Progress)).map(|m| {
        let max: u64 = p.req(F::Max);
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            // One line every 500ms until the campaign signals completion.
            while stop_rx.recv_timeout(Duration::from_millis(500)).is_err() {
                let p = m.progress();
                let eta = p
                    .eta_s(max)
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
    let report = match shards {
        Some(shards) => run_sharded(name, prog, &verifier, shards, p, start)?,
        None => verifier.verify_from(prog, start).map_err(campaign_failed)?,
    };
    if let Some((stop_tx, handle)) = progress_reporter {
        let _ = stop_tx.send(());
        let _ = handle.join();
    }
    if let (Some(m), Some(path)) = (&metrics, p.path(F::Metrics)) {
        let clock = report.clock_mode.name();
        let snap = m.snapshot(name, np, clock, shards.unwrap_or(jobs));
        let json = serde_json::to_string_pretty(&snap).expect("metrics snapshot serializes");
        std::fs::write(path, json + "\n").map_err(|e| fail(F::Metrics, e))?;
    }
    Ok(print_report(name, report, p))
}

/// The `--worker` servant: serve replays over stdin/stdout until the
/// supervisor shuts the pipe. Never prints to stdout (that is the frame
/// channel); diagnostics go to stderr, which the supervisor inherits.
fn run_worker_mode(
    name: &str,
    prog: &dyn MpiProgram,
    sim: SimConfig,
    cfg: DampiConfig,
    p: &Parsed,
) -> Result<ExitCode, String> {
    // Replay-parity knobs the supervisor's workers must share; everything
    // else in ExploreOptions is supervisor-side state a worker never has.
    let opts = ExploreOptions {
        divergence_retries: cfg.divergence_retries,
        retry_backoff: cfg.retry_backoff.for_sim(&sim),
        ..ExploreOptions::default()
    };
    let wcfg = shard::WorkerConfig {
        heartbeat_interval: Duration::from_millis(p.req(F::WorkerBeatMs)),
        config_digest: campaign_digest(name, p),
        fault: fault_plan(p)?,
        hard_exit: true,
        cancel: Arc::new(AtomicBool::new(false)),
    };
    let verifier = DampiVerifier::with_config(sim, cfg);
    shard::run_worker(std::io::stdin(), std::io::stdout(), &wcfg, &opts, |ds| {
        verifier.instrumented_run(prog, ds)
    })
    .map_err(|e| format!("dampi worker: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// Drive a `--shards N` campaign: spawn `dampi-cli verify … --worker`
/// processes via the supervisor, with SIGTERM wired to a graceful drain.
fn run_sharded(
    name: &str,
    prog: &dyn MpiProgram,
    verifier: &DampiVerifier,
    shards: usize,
    p: &Parsed,
    start: Start,
) -> Result<VerificationReport, String> {
    let defaults = ShardOptions::default();
    let mut opts = ShardOptions {
        shards,
        fault: fault_plan(p)?,
        heartbeat_timeout: p
            .secs(F::HeartbeatTimeout)
            .unwrap_or(defaults.heartbeat_timeout),
        lease: p.secs(F::Lease).unwrap_or(defaults.lease),
        max_attempts: p.num(F::MaxAttempts).unwrap_or(defaults.max_attempts),
        fault_slot: p.num(F::WorkerFaultSlot).unwrap_or(defaults.fault_slot),
        ..defaults
    };
    #[cfg(unix)]
    {
        opts.drain = Some(drain::install_sigterm());
    }
    let exe = std::env::current_exe().map_err(campaign_failed)?;
    // Beacons at a quarter of the silence threshold: three beats can be
    // lost to scheduling noise before the detector fires.
    let beat_ms = (opts.heartbeat_timeout.as_millis() as u64 / 4).clamp(10, 500);
    let mut argv = semantic_args(name, p);
    argv.extend([F::Worker, F::WorkerBeatMs].map(|f| f.to_string()));
    argv.push(beat_ms.to_string());
    let fault_argv: Vec<String> = p
        .text(F::WorkerFault)
        .map(|spec| vec![F::WorkerFault.to_string(), spec.to_owned()])
        .unwrap_or_default();
    let launcher = ProcessWorkerLauncher::new(move |_slot, fault| {
        let mut c = Command::new(&exe);
        c.args(&argv);
        if fault.is_some() {
            c.args(&fault_argv);
        }
        c
    });
    verifier
        .verify_sharded_from(prog, &launcher, &opts, start)
        .map_err(campaign_failed)
}

fn cmd_analyze(name: &str, p: &Parsed) -> Result<ExitCode, String> {
    let prog = workload(name, p.req(F::Np))?;
    let spec = load_protocol(p)?;
    let (sim, cfg) = replay_config(p);
    let verifier = DampiVerifier::with_config(sim, cfg);
    let mut report =
        dampi::analysis::analyze_program_with_protocol(&verifier, prog.as_ref(), spec.as_ref())
            .map_err(|e| fail(F::Protocol, e))?;
    report.program = name.to_owned();
    if p.given(F::Json) {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    Ok(if report.error_lints() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_overhead(p: &Parsed) -> ExitCode {
    let np: usize = p.req(F::Np);
    println!(
        "{:<14} {:>9} {:>9} {:>7} {:>7}",
        "program", "slowdown", "R*", "C-leak", "R-leak"
    );
    for (name, prog) in registry(np) {
        let sim = SimConfig::new(np);
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

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some((word, rest)) = argv.split_first() else {
        return Err(format!("expected a subcommand\n{}", usage()));
    };
    let Some(&(cmd, _, workload)) = CMDS.iter().find(|row| row.1 == word) else {
        return Err(format!("unknown subcommand `{word}`\n{}", usage()));
    };
    let (name, flags) = match rest.split_first() {
        _ if !workload => ("", rest),
        Some((name, flags)) => (name.as_str(), flags),
        None => return Err(format!("`{word}` needs a <workload>\n{}", usage())),
    };
    let p = parse(cmd, flags)?;
    match cmd {
        Cmd::List => Ok(cmd_list()),
        Cmd::Verify => cmd_verify(name, &p),
        Cmd::Analyze => cmd_analyze(name, &p),
        Cmd::Fuzz => cmd_fuzz(&p),
        Cmd::Overhead => Ok(cmd_overhead(&p)),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parsed(cmd: Cmd, line: &str) -> Result<Parsed, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(cmd, &argv)
    }

    #[test]
    fn table_is_well_formed() {
        for (i, row) in FLAGS.iter().enumerate() {
            let name = row.name;
            assert!(name.starts_with("--") && !row.help.is_empty(), "{name}");
            assert!(!row.cmds.is_empty(), "{name}: no subcommand takes it");
            assert_eq!(
                FLAGS.iter().position(|r| r.name == name),
                Some(i),
                "{name} twice"
            );
            // `needs`/`conflicts` targets exist by construction (they are `F`s);
            // what is left to check is that each can bind: it is another flag
            // of some subcommand this one belongs to.
            for &other in row.needs.iter().chain(row.conflicts) {
                assert_ne!(other as usize, i, "{name} refers to itself");
                let shared = other.row().cmds.iter().any(|c| row.cmds.contains(c));
                assert!(shared, "{name} vs {other}: no subcommand takes both");
            }
            if let Some(default) = row.default {
                let canonical = row.kind.canonical(default);
                assert_eq!(canonical.as_deref(), Ok(default), "{name}: default");
            }
            let valued = !matches!(row.kind, Switch | Choice(_));
            assert_eq!(valued, !row.meta.is_empty(), "{name}: placeholder");
            if row.semantic || row.internal || row.isp_lacks.is_some() {
                assert!(row.cmds.contains(&Cmd::Verify), "{name}: a verify column");
                assert!(!(row.semantic && row.internal), "{name}");
            }
        }
    }

    #[test]
    fn usage_lists_every_public_flag_and_no_internal_one() {
        let usage = usage();
        for row in FLAGS {
            let listed = usage.contains(&format!("[{} ", row.name))
                || usage.contains(&format!("[{}]", row.name));
            assert_eq!(listed, !row.internal, "{}", row.name);
        }
        for (_, name, _) in CMDS {
            assert!(usage.contains(&format!("dampi-cli {name}")), "{name}");
        }
    }

    /// The literal vector and digests of the commit before the table: warm
    /// `--cache` directories and the worker `Hello` digest survive it.
    #[test]
    fn semantic_args_and_config_digest_are_pinned() {
        let p = parsed(Cmd::Verify, "--jobs 3 --json").unwrap();
        let bare = "verify racers --np 4 --max 10000 --clock lamport";
        assert_eq!(semantic_args("racers", &p).join(" "), bare);
        assert_eq!(config_digest("racers", &p), 0x2711_ab77_1f10_7c51);
        let line = "--replay-wall 0.50 --unbiased --np 05 --k 2 --shards 2 --deferred-clock \
                    --clock vector --replay-vt 1e3 --max 77 --cache /tmp/c --lease 3";
        let p = parsed(Cmd::Verify, line).unwrap();
        let full = "verify racers --np 5 --max 77 --clock vector --k 2 --deferred-clock \
                    --unbiased --replay-vt 1000 --replay-wall 0.5";
        assert_eq!(semantic_args("racers", &p).join(" "), full);
        assert_eq!(config_digest("racers", &p), 0xd6ef_a171_905a_5fd1);
        // `--isp` is written last, and the `--clock` default it lacks is not.
        let p = parsed(Cmd::Verify, "--isp --jobs 2 --replay-vt 1e3 --unbiased").unwrap();
        let isp = "verify racers --np 4 --max 10000 --unbiased --replay-vt 1000 --isp";
        assert_eq!(semantic_args("racers", &p).join(" "), isp);
        assert_eq!(config_digest("racers", &p), 0x4837_dc17_35cc_6d7e);
    }

    /// A value of `kind`, drawn from `n`.
    fn sample(kind: Kind, n: u64) -> Option<String> {
        match kind {
            Switch => None,
            Kind::Int(min, max) => Some((min + n % (max - min).max(1)).to_string()),
            Secs => Some(format!("{}e-3", n)),
            Text => Some(format!("v{n}")),
            Choice(of) => Some(of[n as usize % of.len()].to_owned()),
        }
    }

    proptest! {
        /// What the supervisor forwards, a worker parses back to the same
        /// semantic values — and so to the same vector and digest.
        #[test]
        fn workers_reparse_the_semantic_flags_they_are_sent(
            picks in prop::collection::vec((0usize..FLAGS.len(), 0u64..5000), 0..10),
        ) {
            // Draw from the public flags `verify` takes unconditionally, so
            // that most command lines are accepted (a `--jobs`/`--shards`
            // clash is not, nor a DAMPI-only flag beside `--isp`).
            let free = |row: &&Flag| {
                !row.internal && row.cmds.contains(&Cmd::Verify) && row.needs.is_empty()
            };
            let pool: Vec<&Flag> = FLAGS.iter().filter(free).collect();
            let mut argv = Vec::new();
            for (i, n) in picks {
                let row = pool[i % pool.len()];
                argv.push(row.name.to_owned());
                argv.extend(sample(row.kind, n));
            }
            if let Ok(p) = parse(Cmd::Verify, &argv) {
                let sent = semantic_args("w", &p);
                let worker = parse(Cmd::Verify, &sent[2..]).expect("forwarded argv parses");
                for (i, row) in FLAGS.iter().enumerate() {
                    let forwarded = row.semantic && p.at(i).is_some();
                    prop_assert_eq!(worker.explicit[i].is_some(), forwarded, "{}", row.name);
                    if row.semantic {
                        prop_assert_eq!(worker.at(i), p.at(i), "{}", row.name);
                    }
                }
                prop_assert_eq!(semantic_args("w", &worker), sent);
            }
        }
    }
}
