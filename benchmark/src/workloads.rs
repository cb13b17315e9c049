//! The five workloads. Each builds its inputs once (the work `setup_s`
//! times), then runs passes: one pass is one cold-to-verdict campaign and
//! yields an *answer* that is compared with the pinned one.
//!
//! Sizes are chosen so that a pass takes 0.5–1.5 s on the 2-core sandbox:
//! a 10 s run then holds 7–20 timed passes and its median is steady.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dampi_core::cache::plan_digest;
use dampi_core::report::FoundError;
use dampi_core::scheduler::{self, ExploreOptions, RunResult};
use dampi_core::{DampiConfig, DampiVerifier, DecisionSet, MixingBound, ReplayCache};
use dampi_fuzz::{GenParams, OracleParams};
use dampi_isp::IspVerifier;
use dampi_mpi::{run_native, MatchPolicy, MpiProgram, SimConfig};
use dampi_workloads::adlb::{Adlb, AdlbParams};
use dampi_workloads::generated::{GenProgram, GenSpec};
use dampi_workloads::matmul::{Matmul, MatmulParams};
use dampi_workloads::parmetis::{Parmetis, ParmetisParams};
use serde_json::{json, Value};

use crate::sys;
use crate::trace::Tracer;

/// How a workload is built.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// `--seed`: 0 selects `MatchPolicy::LowestRank`, anything else
    /// `MatchPolicy::Seeded(seed)`, on the workloads whose campaign size
    /// does not depend on the free run's matches (the two matmul ones).
    pub seed: u64,
    /// Smoke sizes: every code path in well under a second.
    pub quick: bool,
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// The schedule-independent facts of the verdict, compared with
    /// `expected/<workload>.json`.
    pub answer: Value,
    /// Verdicts this pass was asked for.
    pub attempted: u64,
    /// Of those: replay timeouts, budget-capped or quarantined campaigns,
    /// runs that errored, fuzz verdict lines that differ from the corpus.
    pub failed: u64,
}

/// A program and its world: what the run-level calibrations (`spawn_join`,
/// `native_run`, `tool.init`, `tool.self`, `isp.run`) are taken on.
pub struct Rep<'a> {
    /// The workload's program, or a typical one of them.
    pub program: &'a dyn MpiProgram,
    /// Its world: rank count and scheduler mode.
    pub sim: SimConfig,
}

/// One workload, built and ready to run passes.
pub trait Workload {
    /// One cold-to-verdict campaign. With `t` enabled the harness drives
    /// the exploration itself so that every call into a layer is a span.
    fn pass(&mut self, t: &Tracer) -> Pass;

    /// What the run-level calibrations are taken on.
    fn rep(&self) -> Rep<'_>;

    /// Layer measurements only this workload can take (traced run only).
    fn extras(&mut self, _t: &Tracer) {}
}

/// Build workload `name`: everything that happens before its first pass.
/// `scratch` is an empty directory the workload may fill.
///
/// # Errors
///
/// Fails on an unknown name or when scratch files cannot be written.
pub fn build(
    name: &str,
    opts: Opts,
    scratch: &Path,
    t: &Tracer,
) -> std::io::Result<Box<dyn Workload>> {
    Ok(match name {
        "matmul_cold" => Box::new(MatmulCold::build(opts, t)),
        "adlb_det_jobs2" => Box::new(AdlbDetJobs2::build(opts, t)),
        "matmul_ack_warm" => Box::new(MatmulAckWarm::build(opts, scratch, t)?),
        "fuzz_corpus" => Box::new(FuzzCorpus::build(opts, t)?),
        "parmetis_scale" => Box::new(ParmetisScale::build(opts)),
        other => {
            return Err(std::io::Error::other(format!("unknown workload `{other}`")));
        }
    })
}

fn policy(seed: u64) -> MatchPolicy {
    if seed == 0 {
        MatchPolicy::LowestRank
    } else {
        MatchPolicy::Seeded(seed)
    }
}

// ---- campaigns -----------------------------------------------------------

/// The facts of a campaign's verdict that do not depend on how it was
/// scheduled: replay count, errors, and the coverage map.
fn campaign_answer(
    replays: u64,
    errors: &[FoundError],
    discovered: &BTreeMap<(usize, u64), BTreeSet<usize>>,
) -> Value {
    let errors: BTreeSet<String> = errors
        .iter()
        .map(|e| format!("rank{}:{}", e.rank, e.error))
        .collect();
    let discovered: BTreeMap<String, Vec<usize>> = discovered
        .iter()
        .map(|((rank, clock), srcs)| (format!("{rank}:{clock}"), srcs.iter().copied().collect()))
        .collect();
    json!({ "replays": replays, "errors": errors, "discovered": discovered })
}

/// The `ExploreOptions` `DampiVerifier::verify` derives from its fields
/// (that mapping is private to the crate), minus the observers.
fn explore_options(v: &DampiVerifier) -> ExploreOptions {
    ExploreOptions {
        bound: v.cfg.bound,
        honor_regions: v.cfg.honor_regions,
        max_interleavings: v.cfg.max_interleavings,
        stop_on_first_error: v.cfg.stop_on_first_error,
        branch_on_guided: v.cfg.branch_on_guided,
        divergence_retries: v.cfg.divergence_retries,
        retry_backoff: v.cfg.retry_backoff,
        checkpoint: v.cfg.journal.clone(),
        jobs: v.cfg.jobs,
        metrics: None,
        trace: None,
        prune: v.prune.clone(),
        cache: v.cache.clone(),
    }
}

/// Run one campaign. Untraced, this is `DampiVerifier::verify` (or
/// `verify_with_first_run`) exactly as a user calls it. Traced, the harness
/// calls `scheduler::explore_parallel` with the same options and wraps
/// each `instrumented_run` in a span, so that the campaign span minus its
/// replay spans is the scheduler's own time.
fn campaign(
    v: &DampiVerifier,
    program: &dyn MpiProgram,
    first: Option<RunResult>,
    t: &Tracer,
) -> Pass {
    if !t.enabled() {
        let r = match first {
            Some(first) => v.verify_with_first_run(program, first),
            None => v.verify(program),
        };
        let failed = r.timeouts.len() as u64 + r.quarantined + u64::from(r.budget_exhausted);
        return Pass {
            answer: campaign_answer(r.interleavings, &r.errors, &r.discovered),
            attempted: 1,
            failed,
        };
    }

    let opts = explore_options(v);
    let first = std::sync::Mutex::new(first);
    let invocations = AtomicU64::new(0);
    let (late, analyzed) = (AtomicU64::new(0), AtomicU64::new(0));
    let (pb_messages, pb_wire_bytes) = (AtomicU64::new(0), AtomicU64::new(0));
    let ex = t.span("core.scheduler.campaign", None, |campaign| {
        scheduler::explore_parallel(
            |ds: &DecisionSet| {
                // Relaxed: independent statistics, read after the scope ends.
                invocations.fetch_add(1, Ordering::Relaxed);
                if ds.is_self_run() {
                    let reused = first.lock().expect("no panic holds this lock").take();
                    if let Some(run) = reused {
                        return run;
                    }
                }
                let run = t.span("core.tool.replay", campaign, |_| {
                    v.instrumented_run(program, ds)
                });
                late.fetch_add(run.stats.late_messages, Ordering::Relaxed);
                analyzed.fetch_add(run.stats.messages_analyzed, Ordering::Relaxed);
                pb_messages.fetch_add(run.stats.pb_messages, Ordering::Relaxed);
                pb_wire_bytes.fetch_add(run.stats.pb_wire_bytes, Ordering::Relaxed);
                run
            },
            &opts,
        )
    });
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    t.count("core.scheduler.replays", ex.interleavings as f64);
    t.count("core.scheduler.divergences", ex.divergences as f64);
    t.count("core.scheduler.retries", ex.retries as f64);
    t.count("core.scheduler.invocations", load(&invocations));
    t.count("core.late.late_messages", load(&late));
    t.count("core.late.messages_analyzed", load(&analyzed));
    t.count("core.tool.pb_messages", load(&pb_messages));
    t.count("core.tool.pb_wire_bytes", load(&pb_wire_bytes));
    t.count("core.cache.hits", ex.cache_hits as f64);
    t.count("core.cache.misses", ex.cache_misses as f64);
    let pruned =
        ex.alternates_pruned + ex.refined_alternates_pruned + ex.protocol_alternates_pruned;
    t.count("analysis.alternates_pruned", pruned as f64);
    Pass {
        answer: campaign_answer(ex.interleavings, &ex.errors, &ex.discovered),
        attempted: 1,
        failed: ex.timeouts.len() as u64 + ex.quarantined + u64::from(ex.budget_exhausted),
    }
}

// ---- matmul_cold ---------------------------------------------------------

fn matmul(opts: Opts, ack_results: bool, t: &Tracer) -> (Matmul, SimConfig) {
    // Full: 6 slaves x 1 task = 6! = 720 interleavings. Quick: 162 (90 in
    // ack mode).
    let (np, rounds_per_slave) = if opts.quick { (4, 2) } else { (7, 1) };
    let program = t.span("workloads.build", None, |_| {
        Matmul::new(MatmulParams {
            rounds_per_slave,
            ack_results,
            ..MatmulParams::default()
        })
    });
    (program, SimConfig::new(np).with_policy(policy(opts.seed)))
}

/// `DampiVerifier::verify` of `Matmul`, Lamport clocks, unbounded,
/// free-threaded simulator, `jobs=1`, no cache, no journal.
struct MatmulCold {
    program: Matmul,
    verifier: DampiVerifier,
}

impl MatmulCold {
    fn build(opts: Opts, t: &Tracer) -> Self {
        let (program, sim) = matmul(opts, false, t);
        Self {
            program,
            verifier: DampiVerifier::new(sim),
        }
    }
}

impl Workload for MatmulCold {
    fn pass(&mut self, t: &Tracer) -> Pass {
        campaign(&self.verifier, &self.program, None, t)
    }

    fn rep(&self) -> Rep<'_> {
        Rep {
            program: &self.program,
            sim: self.verifier.sim.clone(),
        }
    }
}

// ---- adlb_det_jobs2 ------------------------------------------------------

/// `traced_run` + `dampi_analysis::analyze` in set-up, then
/// `verify_with_first_run` of `Adlb` with the plan installed: k=1 bounded
/// mixing, deterministic (turn-token) simulator, `jobs=2`.
///
/// The free run's matches decide how many replays k=1 leaves (323–525
/// across six `Seeded` policies), so the policy is `LowestRank` for every
/// `--seed`: all runs measure the same 325-replay campaign.
struct AdlbDetJobs2 {
    program: Adlb,
    verifier: DampiVerifier,
    first: RunResult,
}

impl AdlbDetJobs2 {
    fn build(opts: Opts, t: &Tracer) -> Self {
        let np = if opts.quick { 6 } else { 16 };
        let program = t.span("workloads.build", None, |_| {
            Adlb::new(AdlbParams {
                seed_items: 2,
                ..AdlbParams::default()
            })
        });
        let sim = SimConfig::new(np)
            .with_policy(MatchPolicy::LowestRank)
            .with_deterministic(true);
        let cfg = DampiConfig::default()
            .with_bound(MixingBound::K(1))
            .with_jobs(2);
        let verifier = DampiVerifier::with_config(sim, cfg);
        let (plan, first) = t.span("analysis.plan", None, |_| {
            let (events, first) = verifier.traced_run(&program);
            let report = dampi_analysis::analyze(program.name(), np, &events, &first);
            (report.prune_plan(), first)
        });
        let facts = plan.infeasible.len()
            + plan.refined_infeasible.len()
            + plan.protocol_infeasible.len()
            + plan.deterministic.len()
            + plan.refined_deterministic.len()
            + plan.protocol_deterministic.len()
            + plan.orbits.len()
            + plan.oblivious_receives.len();
        t.count("analysis.facts", facts as f64);
        Self {
            program,
            verifier: verifier.with_prune_plan(plan),
            first,
        }
    }
}

impl Workload for AdlbDetJobs2 {
    fn pass(&mut self, t: &Tracer) -> Pass {
        campaign(&self.verifier, &self.program, Some(self.first.clone()), t)
    }

    fn rep(&self) -> Rep<'_> {
        Rep {
            program: &self.program,
            sim: self.verifier.sim.clone(),
        }
    }
}

// ---- matmul_ack_warm ------------------------------------------------------

/// Set-up runs one cold campaign of `Matmul{ack_results}` into a fresh
/// `ReplayCache`; a pass is a warm `verify` against that cache. No replay
/// executes: the walk and one cache read per commit are all there is.
///
/// The journal is measured in the traced run only (`core.journal.*`). A
/// checkpoint per commit is one fsync + rename + directory fsync, 0.7 ms of
/// a 0.07 ms commit, and on the sandbox's disk that latency moves 20 %
/// between runs (34 % on CPU time): no bound up to 25 % holds such a pass.
struct MatmulAckWarm {
    program: Matmul,
    /// Cache attached, no journal.
    cached: DampiVerifier,
    /// Cache attached, journal checkpoint per commit.
    journaled: DampiVerifier,
    cache_dir: std::path::PathBuf,
    journal: std::path::PathBuf,
}

impl MatmulAckWarm {
    fn build(opts: Opts, scratch: &Path, t: &Tracer) -> std::io::Result<Self> {
        let (program, sim) = matmul(opts, true, t);
        let cache_dir = scratch.join("cache");
        let journal = scratch.join("journal.json");
        // Any fixed program digest will do: the directory is this run's own.
        let cache = Arc::new(ReplayCache::open(&cache_dir, 1, plan_digest(None), false)?);
        let cached = DampiVerifier::new(sim.clone()).with_cache(Arc::clone(&cache));
        let journaled =
            DampiVerifier::with_config(sim, DampiConfig::default().with_journal(journal.clone()))
                .with_cache(cache);
        t.span("core.cache.populate", None, |_| cached.verify(&program));
        Ok(Self {
            program,
            cached,
            journaled,
            cache_dir,
            journal,
        })
    }
}

impl Workload for MatmulAckWarm {
    fn pass(&mut self, t: &Tracer) -> Pass {
        let mut pass = campaign(&self.cached, &self.program, None, t);
        if let Some(misses) = t.last_count("core.cache.misses") {
            // A replay that had to execute means the warm path was not taken.
            pass.failed += misses as u64;
        }
        pass
    }

    fn rep(&self) -> Rep<'_> {
        Rep {
            program: &self.program,
            sim: self.cached.sim.clone(),
        }
    }

    fn extras(&mut self, t: &Tracer) {
        t.count("core.cache.bytes", sys::dir_bytes(&self.cache_dir) as f64);
        // The same warm campaign with a checkpoint after every commit: what
        // it adds to a pass is the journal's cost.
        for _ in 0..3 {
            t.span("core.journal.warm_campaign", None, |_| {
                self.journaled.verify(&self.program)
            });
        }
        // The last checkpoint it left behind, loaded and saved alone.
        let bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        t.count("core.journal.bytes", bytes as f64);
        let copy = self.journal.with_extension("copy.json");
        for _ in 0..200 {
            let loaded = t.span("core.journal.load", None, |_| {
                dampi_core::ExplorationJournal::load(&self.journal)
            });
            let Ok(journal) = loaded else { break };
            t.span("core.journal.save", None, |_| journal.save(&copy))
                .expect("scratch directory is writable");
        }
    }
}

// ---- fuzz_corpus ---------------------------------------------------------

/// `dampi_fuzz::generate` + `run_oracle` (default `OracleParams`) on corpus
/// seeds 0..16 without seed 2, each verdict line compared with
/// `corpus/fuzz_verdicts.jsonl`.
///
/// Seed 2 alone is 7056 replays (7.3 s, 80 % of the window), which would
/// leave one pass per run; without it a pass is 343 replays of 15 programs
/// x 7 modes. Corpus windows differ 20x in cost (0.7–16 s), so `--seed`
/// does not pick the window: it rotates the order of the same seeds.
struct FuzzCorpus {
    seeds: Vec<u64>,
    /// `corpus[i]` is the committed verdict line of `seeds[i]`.
    corpus: Vec<String>,
    rep: (GenProgram, SimConfig),
}

impl FuzzCorpus {
    fn build(opts: Opts, t: &Tracer) -> std::io::Result<Self> {
        let mut seeds: Vec<u64> = if opts.quick {
            vec![0, 1]
        } else {
            (0..16).filter(|s| *s != 2).collect()
        };
        let by = usize::try_from(opts.seed % seeds.len() as u64).expect("below 16");
        seeds.rotate_left(by);
        let path = sys::bench_dir().join("../corpus/fuzz_verdicts.jsonl");
        let lines: Vec<String> = std::fs::read_to_string(&path)?
            .lines()
            .map(str::to_owned)
            .collect();
        let corpus = seeds
            .iter()
            .map(|s| {
                let line = usize::try_from(*s).ok().and_then(|i| lines.get(i));
                line.cloned().ok_or_else(|| {
                    std::io::Error::other(format!("{} has no line for seed {s}", path.display()))
                })
            })
            .collect::<std::io::Result<_>>()?;
        // The widest world the generator makes (np = 3 + seed % 3).
        let wide = *seeds.iter().find(|s| *s % 3 == 2).unwrap_or(&seeds[0]);
        let spec = t.span("workloads.build", None, |_| spec_of(wide));
        let sim = SimConfig::new(spec.nprocs)
            .with_policy(MatchPolicy::LowestRank)
            .with_deterministic(true);
        Ok(Self {
            seeds,
            corpus,
            rep: (GenProgram::new(spec), sim),
        })
    }
}

fn spec_of(seed: u64) -> GenSpec {
    dampi_fuzz::generate(seed, &GenParams::for_seed(seed))
}

impl Workload for FuzzCorpus {
    fn pass(&mut self, t: &Tracer) -> Pass {
        let params = OracleParams::default();
        let mut replays = BTreeMap::new();
        let (mut isp_replays, mut dampi_replays, mut failed) = (0, 0, 0);
        for (seed, committed) in self.seeds.iter().zip(&self.corpus) {
            let verdict = t.span("fuzz.seed", None, |parent| {
                let spec = t.span("fuzz.gen", parent, |_| spec_of(*seed));
                t.span("fuzz.oracle", parent, |_| {
                    dampi_fuzz::run_oracle(&spec, &params)
                })
            });
            failed += u64::from(verdict.to_json() != *committed);
            let isp = verdict.modes.first().map_or(0, |m| m.interleavings);
            let all: u64 = verdict.modes.iter().map(|m| m.interleavings).sum();
            isp_replays += isp;
            dampi_replays += all - isp;
            replays.insert(seed.to_string(), all);
        }
        t.count("isp.replays", isp_replays as f64);
        t.count("core.scheduler.replays", dampi_replays as f64);
        Pass {
            answer: json!({ "replays": replays }),
            attempted: self.seeds.len() as u64,
            failed,
        }
    }

    fn rep(&self) -> Rep<'_> {
        Rep {
            program: &self.rep.0,
            sim: self.rep.1.clone(),
        }
    }
}

// ---- parmetis_scale ------------------------------------------------------

/// For np in 16, 64, 256: `run_native`, `DampiVerifier::instrumented_run`
/// and (np <= 64, as in the paper's Fig. 5) `IspVerifier::instrumented_run`
/// of `Parmetis::new(ParmetisParams::nominal(np, 0.5))`, one free run each.
struct ParmetisScale {
    nps: Vec<usize>,
    rep: Parmetis,
}

/// `nominal`'s scale: 0.5 makes a quarter of the bench-scale messages
/// (73 728 piggybacks at np=256), so that a pass is 1.3 s, not 5 s.
const PARMETIS_SCALE: f64 = 0.5;

/// The largest world ISP is run at.
const ISP_MAX_NP: usize = 64;

impl ParmetisScale {
    fn build(opts: Opts) -> Self {
        Self {
            nps: if opts.quick {
                vec![16]
            } else {
                vec![16, 64, 256]
            },
            rep: Parmetis::new(ParmetisParams::nominal(16, PARMETIS_SCALE)),
        }
    }
}

impl Workload for ParmetisScale {
    fn pass(&mut self, t: &Tracer) -> Pass {
        let mut answer = BTreeMap::new();
        let (mut failed, mut pb_messages, mut pb_wire_bytes) = (0, 0, 0);
        let np_max = self.nps[self.nps.len() - 1];
        for &np in &self.nps {
            let program = t.span("workloads.build", None, |_| {
                Parmetis::new(ParmetisParams::nominal(np, PARMETIS_SCALE))
            });
            // ParMETIS posts no wildcard, so the policy (and `--seed`) is moot.
            let sim = SimConfig::new(np).with_policy(MatchPolicy::LowestRank);
            let native = t.span(&format!("mpi.runtime.native_run.np{np}"), None, |_| {
                run_native(&sim, &program)
            });
            let dampi = t.span(&format!("core.tool.self_run.np{np}"), None, |_| {
                DampiVerifier::new(sim.clone()).instrumented_run(&program, &DecisionSet::self_run())
            });
            let clean =
                |o: &dampi_mpi::RunOutcome| o.fatal.is_none() && o.program_bugs().is_empty();
            failed += u64::from(!clean(&native)) + u64::from(!clean(&dampi.outcome));
            let dampi_x = dampi.outcome.makespan / native.makespan;
            if np <= ISP_MAX_NP {
                let isp = t.span(&format!("isp.run.np{np}"), None, |_| {
                    IspVerifier::new(sim.clone())
                        .instrumented_run(&program, &DecisionSet::self_run())
                });
                let isp_x = isp.outcome.makespan / native.makespan;
                // ISP's virtual time depends on thread timing (it moved
                // 20 % between two runs), so it is not pinned; the paper's
                // claim that it dwarfs DAMPI's is checked instead.
                failed += u64::from(!clean(&isp.outcome)) + u64::from(isp_x < 10.0 * dampi_x);
                t.count("isp_vt_slowdown_x", isp_x);
            }
            if np == np_max {
                t.count("dampi_vt_slowdown_x", dampi_x);
                // One piggyback per application message.
                t.count(
                    "mpi.runtime.messages_np_max",
                    dampi.stats.pb_messages as f64,
                );
            }
            pb_messages += dampi.stats.pb_messages;
            pb_wire_bytes += dampi.stats.pb_wire_bytes;
            answer.insert(
                format!("np{np}"),
                json!({
                    // Twelve decimals: more than the 1 % a regression bound
                    // would allow, and a string compares exactly.
                    "dampi_vt_slowdown_x": format!("{dampi_x:.12}"),
                    "pb_messages": dampi.stats.pb_messages,
                    "pb_wire_bytes": dampi.stats.pb_wire_bytes,
                    "leaked_comms": dampi.outcome.leaks.comm_leaks.len(),
                }),
            );
        }
        t.count("parmetis_scale.np_max", np_max as f64);
        t.count("core.tool.pb_messages", pb_messages as f64);
        t.count("core.tool.pb_wire_bytes", pb_wire_bytes as f64);
        Pass {
            answer: json!(answer),
            attempted: 1,
            failed,
        }
    }

    fn rep(&self) -> Rep<'_> {
        Rep {
            program: &self.rep,
            sim: SimConfig::new(16).with_policy(MatchPolicy::LowestRank),
        }
    }
}
