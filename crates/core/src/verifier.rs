//! The DAMPI verification driver: run → analyze → generate → replay.
//!
//! [`DampiVerifier`] glues the pieces together, mirroring the framework
//! diagram of the paper's Fig. 1: the program executes under the
//! DAMPI-PnMPI module stack; potential matches are collected; the schedule
//! generator produces Epoch Decisions; the program is rerun under guidance
//! until the space of non-deterministic matches (as bounded by the
//! configuration) is covered.
//!
//! The same driver replays under ISP's centralized stack when
//! [`DampiConfig::tool`] is [`ToolStack::Isp`]: only the layer each rank
//! runs under changes.

use std::io;
use std::sync::Arc;

use dampi_clocks::ClockMode;
use dampi_mpi::fault::{FaultLayer, FaultPlan};
use dampi_mpi::program::{MpiProgram, RunOutcome};
use dampi_mpi::runtime::{ready_stack, run_with_layers, SimConfig};
use dampi_mpi::trace::{TraceCollector as EventTraceCollector, TraceEvent, TraceLayer};
use dampi_mpi::Mpi;

use crate::cache::ReplayCache;
use crate::config::{DampiConfig, ToolStack};
use crate::decisions::DecisionSet;
use crate::epoch::TraceCollector;
use crate::isp::{IspLayer, IspScheduler};
use crate::metrics::{CampaignMetrics, CampaignTrace};
use crate::prune::PrunePlan;
use crate::report::VerificationReport;
use crate::scheduler::{self, ExploreOptions, RunResult, Start};
use crate::shard::{ShardOptions, WorkerLauncher};
use crate::tool::{DampiCtx, DampiLayer};

/// The top-level verifier: DAMPI's driver, replaying under the tool stack
/// `cfg.tool` names.
#[derive(Debug, Clone)]
pub struct DampiVerifier {
    /// Simulated-world configuration (process count, match policy, costs).
    pub sim: SimConfig,
    /// Verifier configuration (tool stack, clock mode, bounds, heuristics).
    pub cfg: DampiConfig,
    /// Substrate fault-injection plan, layered below the tool stack when
    /// set (testing the verifier's own fault tolerance).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Campaign metrics sink observing [`Self::verify`] /
    /// [`Self::verify_from`] (see [`crate::metrics`]).
    pub metrics: Option<Arc<CampaignMetrics>>,
    /// Campaign trace (JSONL event stream) observing explorations.
    pub trace: Option<Arc<CampaignTrace>>,
    /// Static pre-analysis prune plan applied to the frontier (see
    /// [`crate::prune`]); produced by the `dampi-analysis` crate.
    pub prune: Option<Arc<PrunePlan>>,
    /// Persistent replay-result cache consulted on the commit path (see
    /// [`crate::cache`]); `dampi-cli verify --cache <dir>`.
    pub cache: Option<Arc<ReplayCache>>,
}

impl DampiVerifier {
    /// Verifier with default DAMPI configuration.
    #[must_use]
    pub fn new(sim: SimConfig) -> Self {
        Self::with_config(sim, DampiConfig::default())
    }

    /// Verifier with an explicit configuration.
    #[must_use]
    pub fn with_config(sim: SimConfig, cfg: DampiConfig) -> Self {
        Self {
            sim,
            cfg,
            fault_plan: None,
            metrics: None,
            trace: None,
            prune: None,
            cache: None,
        }
    }

    /// Builder-style: inject substrate faults below the tool stack.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Builder-style: observe explorations with a campaign metrics sink.
    /// Snapshot it after `verify` returns (see [`CampaignMetrics`]).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<CampaignMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Builder-style: stream campaign events to a JSONL trace.
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<CampaignTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder-style: prune the frontier with a static pre-analysis plan
    /// (`dampi-cli verify --prune-static`). An empty plan is dropped so
    /// exploration stays literally identical to the unpruned walk.
    #[must_use]
    pub fn with_prune_plan(mut self, plan: PrunePlan) -> Self {
        self.prune = (!plan.is_empty()).then(|| Arc::new(plan));
        self
    }

    /// Builder-style: attach a persistent replay-result cache. Open it
    /// with [`ReplayCache::open`] keyed on the program's config digest and
    /// [`crate::cache::plan_digest`] of the *installed* prune plan (attach
    /// the plan first). The exploration itself is unchanged — hits only
    /// short-circuit replay execution on the commit path.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ReplayCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    fn make_ctx(&self, decisions: &DecisionSet) -> (Arc<DampiCtx>, Arc<TraceCollector>) {
        let collector = TraceCollector::new();
        let ctx = Arc::new(DampiCtx {
            decisions: decisions.clone(),
            collector: Arc::clone(&collector),
            clock_mode: self.cfg.clock_mode,
            piggyback: self.cfg.piggyback,
            analysis_cost: self.sim.vtime.dampi_analysis,
            deferred_clock: self.cfg.deferred_clock_sync,
        });
        (ctx, collector)
    }

    /// Execute one run of `program` under the configured tool stack
    /// ([`DampiConfig::tool`]) with the given decisions. Public so overhead
    /// experiments (Table II, Fig. 5) can time a single instrumented run.
    pub fn instrumented_run(&self, program: &dyn MpiProgram, decisions: &DecisionSet) -> RunResult {
        // The fault layer (when armed) sits *below* the tool, so injected
        // faults hit application traffic and, under DAMPI, the tool's own
        // piggyback messages on the shadow communicator.
        let plan = self
            .fault_plan
            .as_ref()
            .filter(|plan| plan.armed(decisions.is_self_run()));
        let (outcome, (epochs, stats)) = match self.cfg.tool {
            ToolStack::Dampi => {
                let (ctx, collector) = self.make_ctx(decisions);
                let outcome = run_with_layers(&self.sim, program, &|_rank, pmpi| {
                    let ctx = Arc::clone(&ctx);
                    // Layer construction asks the runtime for the shadow
                    // communicator (`shadow_world`, operation 0 of every
                    // rank); a failure there is this rank's error, not a
                    // harness panic.
                    Box::pin(async move {
                        let layer: Box<dyn Mpi> = match plan {
                            Some(plan) => Box::new(
                                DampiLayer::new(FaultLayer::new(pmpi, Arc::clone(plan)), ctx)
                                    .await?,
                            ),
                            None => Box::new(DampiLayer::new(pmpi, ctx).await?),
                        };
                        Ok(layer)
                    })
                });
                (outcome, collector.take())
            }
            ToolStack::Isp => {
                let sched = IspScheduler::new(self.sim.nprocs, self.sim.vtime);
                let ds = Arc::new(decisions.clone());
                let outcome = run_with_layers(&self.sim, program, &|_rank, pmpi| {
                    let (sched, ds) = (Arc::clone(&sched), Arc::clone(&ds));
                    match plan {
                        Some(plan) => ready_stack(IspLayer::new(
                            FaultLayer::new(pmpi, Arc::clone(plan)),
                            sched,
                            ds,
                        )),
                        None => ready_stack(IspLayer::new(pmpi, sched, ds)),
                    }
                });
                (outcome, sched.collect())
            }
        };
        RunResult {
            outcome,
            epochs,
            stats,
        }
    }

    /// Execute one free (`SELF_RUN`) execution with an application-level
    /// event trace recorded *above* the DAMPI layer: the trace sees exactly
    /// the MPI calls the program made (piggyback traffic stays invisible,
    /// since it is issued below the trace layer), while the tool still
    /// collects epochs and alternates from the same run. This is the input
    /// the static pre-analysis (`dampi-analysis`) consumes; it runs under
    /// DAMPI's layer whatever [`DampiConfig::tool`] says, because the
    /// analysis keys its facts by DAMPI epoch clocks.
    pub fn traced_run(&self, program: &dyn MpiProgram) -> (Vec<TraceEvent>, RunResult) {
        let (ctx, collector) = self.make_ctx(&DecisionSet::self_run());
        let events = EventTraceCollector::new();
        let ev2 = Arc::clone(&events);
        let outcome = run_with_layers(&self.sim, program, &|_rank, pmpi| {
            let ctx = Arc::clone(&ctx);
            let ev2 = Arc::clone(&ev2);
            Box::pin(async move {
                let layer: Box<dyn Mpi> =
                    Box::new(TraceLayer::new(DampiLayer::new(pmpi, ctx).await?, ev2));
                Ok(layer)
            })
        });
        let (epochs, stats) = collector.take();
        (
            events.take(),
            RunResult {
                outcome,
                epochs,
                stats,
            },
        )
    }

    /// Execute `program` without instrumentation (the "native MPI"
    /// baseline for Table II slowdowns).
    #[must_use]
    pub fn native_run(&self, program: &dyn MpiProgram) -> RunOutcome {
        dampi_mpi::runtime::run_native(&self.sim, program)
    }

    /// Instrumented-vs-native slowdown of a single run (Table II).
    #[must_use]
    pub fn slowdown(&self, program: &dyn MpiProgram) -> (f64, RunOutcome, RunResult) {
        let native = self.native_run(program);
        let inst = self.instrumented_run(program, &DecisionSet::self_run());
        let ratio = if native.makespan > 0.0 {
            inst.outcome.makespan / native.makespan
        } else {
            1.0
        };
        (ratio, native, inst)
    }

    /// Shrink a found error's reproduction schedule to its essential
    /// decisions by repeated re-execution (greedy delta debugging; see
    /// [`crate::minimize`]). Returns the minimized schedule and the number
    /// of extra runs spent.
    pub fn minimize_error(
        &self,
        program: &dyn MpiProgram,
        error: &crate::report::FoundError,
    ) -> (DecisionSet, u64) {
        let target_rank = error.rank;
        let target_msg = error.error.to_string();
        crate::minimize::minimize(&error.decisions, |ds| {
            let run = self.instrumented_run(program, ds);
            run.outcome
                .program_bugs()
                .iter()
                .any(|b| b.rank == target_rank && b.error.to_string() == target_msg)
        })
    }

    fn explore_options(&self) -> ExploreOptions {
        ExploreOptions {
            bound: self.cfg.bound,
            honor_regions: self.cfg.honor_regions,
            max_interleavings: self.cfg.max_interleavings,
            stop_on_first_error: self.cfg.stop_on_first_error,
            branch_on_guided: self.cfg.branch_on_guided,
            divergence_retries: self.cfg.divergence_retries,
            retry_backoff: self.cfg.retry_backoff,
            checkpoint: self.cfg.journal.clone(),
            jobs: self.cfg.jobs,
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            prune: self.prune.clone(),
            cache: self.cache.clone(),
        }
    }

    /// Full verification: explore the space of non-deterministic matches.
    /// With `cfg.jobs > 1`, replays run on a worker pool; the merge is
    /// deterministic, so the report is identical to a sequential run.
    #[must_use]
    pub fn verify(&self, program: &dyn MpiProgram) -> VerificationReport {
        self.verify_from(program, Start::default())
            .expect(scheduler::IN_PROCESS)
    }

    /// Full verification that reuses an already-executed free run (e.g.
    /// the one [`Self::traced_run`] fed to the static analysis) as the
    /// campaign's `SELF_RUN` — see [`Start::first_run`].
    #[must_use]
    pub fn verify_with_first_run(
        &self,
        program: &dyn MpiProgram,
        first: RunResult,
    ) -> VerificationReport {
        let start = Start {
            first_run: Some(first),
            ..Start::default()
        };
        self.verify_from(program, start)
            .expect(scheduler::IN_PROCESS)
    }

    /// In-process verification from any [`Start`]: a journal in it resumes
    /// an interrupted campaign (see [`crate::journal`]).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when its journal is another campaign's.
    pub fn verify_from(
        &self,
        program: &dyn MpiProgram,
        start: Start,
    ) -> io::Result<VerificationReport> {
        let ex = scheduler::explore_from(
            &|ds| self.instrumented_run(program, ds),
            &self.explore_options(),
            start,
        )?;
        Ok(self.report_from(program.name(), ex))
    }

    /// [`Self::verify_from`] sharded across worker processes (or in-process
    /// stand-ins) spawned by `launcher`, with the fault tolerance described
    /// in [`crate::shard`]; its report and journal are byte-identical to the
    /// in-process campaign's. The supervisor commits [`Start::first_run`]
    /// and consults the prune plan itself, so workers need neither.
    ///
    /// # Errors
    ///
    /// As [`Self::verify_from`], and when the worker fleet cannot be
    /// spawned or permanently dies with work outstanding.
    pub fn verify_sharded_from(
        &self,
        program: &dyn MpiProgram,
        launcher: &dyn WorkerLauncher,
        shard: &ShardOptions,
        start: Start,
    ) -> io::Result<VerificationReport> {
        let ex =
            crate::shard::explore_sharded_from(launcher, &self.explore_options(), shard, start)?;
        Ok(self.report_from(program.name(), ex))
    }

    fn report_from(&self, program: &str, ex: scheduler::Exploration) -> VerificationReport {
        // ISP's central scheduler keeps exact vector clocks whatever the
        // DAMPI clock knob says.
        let clock_mode = match self.cfg.tool {
            ToolStack::Dampi => self.cfg.clock_mode,
            ToolStack::Isp => ClockMode::Vector,
        };
        VerificationReport::from_exploration(
            program,
            self.sim.nprocs,
            clock_mode,
            self.cfg.bound,
            ex,
        )
    }
}
