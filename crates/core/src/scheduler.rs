//! The schedule generator: a depth-first walk over Epoch Decisions.
//!
//! After each run, every epoch's potential alternate matches become branch
//! points. The generator forces one unexplored alternate per replay,
//! deepest-first (the paper §II-B: "successively force alternate matches at
//! the last step; then at the penultimate step; and so on"). Bounded mixing
//! and loop-iteration-abstraction regions prune the branch set; a visited
//! set over decision-prefix signatures prevents re-exploration.
//!
//! The generator is tool-agnostic: it only needs a `run` function mapping a
//! [`DecisionSet`] to a [`RunResult`]. Both of the verifier's tool stacks,
//! DAMPI's (decentralized piggyback analysis) and the ISP baseline's
//! (centralized scheduler), drive their replays through this one
//! implementation.
//!
//! There is one exploration loop, `drive`, over one `Walk`; where replays
//! run (inline, on a thread pool, across worker processes) is an
//! `Executor` behind it. Results commit strictly in depth-first order
//! whatever order they complete in, which is why every `jobs`/`shards`
//! setting yields a **bit-identical** exploration. DESIGN.md, "Exploration
//! driver", has the loop, the executor contract and the determinism
//! argument.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dampi_mpi::program::RunOutcome;
use dampi_mpi::MpiError;

use crate::bounds::MixingBound;
use crate::cache::{Key, ReplayCache};
use crate::config::RetryBackoff;
use crate::decisions::{DecisionSet, EpochDecision};
use crate::epoch::{EpochRecord, ToolRunStats};
use crate::executor::{Event, Executor, Inline, ThreadPool};
use crate::journal::{self, ExplorationJournal};
use crate::metrics::{
    emit, micros, observed, render_semantic, CampaignEvent, CampaignMetrics, CampaignTrace,
};
use crate::prune::PrunePlan;
use crate::report::{FoundError, ReplayTimeoutRecord};
use crate::shard::protocol::SubtreeResult;

/// What one execution produced, as the scheduler sees it.
#[derive(Clone)]
pub struct RunResult {
    /// Runtime outcome (errors, leaks, virtual times).
    pub outcome: RunOutcome,
    /// Every rank's epoch log (unsorted).
    pub epochs: Vec<EpochRecord>,
    /// Aggregate tool statistics for the run.
    pub stats: ToolRunStats,
}

/// Exploration policy knobs (subset of `DampiConfig` the walk needs).
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Bounded-mixing window.
    pub bound: MixingBound,
    /// Honor loop-iteration-abstraction regions.
    pub honor_regions: bool,
    /// Replay budget.
    pub max_interleavings: Option<u64>,
    /// Stop at the first program bug.
    pub stop_on_first_error: bool,
    /// Branch on alternates discovered for already-guided epochs.
    pub branch_on_guided: bool,
    /// Re-run a diverging guided replay up to this many extra times before
    /// accepting the divergent result. `0` by default: on the turn token a
    /// retry diverges as its first attempt did.
    pub divergence_retries: u32,
    /// Backoff schedule between divergence retries: exponential with
    /// deterministic jitter and a cap (see [`RetryBackoff`]). The default,
    /// `RetryBackoff::ZERO`, retries immediately.
    pub retry_backoff: RetryBackoff,
    /// When set, append every commit to a journal log at this path (see
    /// [`crate::journal`]) so a killed campaign can resume.
    pub checkpoint: Option<PathBuf>,
    /// Worker threads replaying frontier forks concurrently
    /// ([`explore_parallel`]); `0` and `1` both mean sequential. The merge
    /// is deterministic regardless of completion order, so any value
    /// produces the same exploration.
    pub jobs: usize,
    /// Campaign metrics sink (see [`crate::metrics`]): the timing-dependent
    /// counters, with a `semantic` section rendered from the finished
    /// [`Exploration`]. `None` costs the walk its `Option` checks.
    pub metrics: Option<Arc<CampaignMetrics>>,
    /// Span-style campaign trace (JSONL events, wall-clock ordered).
    pub trace: Option<Arc<CampaignTrace>>,
    /// Static pre-analysis prune plan (see [`crate::prune`]). Applied on
    /// the deterministic commit path only, so any `jobs` value still
    /// produces the same (pruned) exploration. `None` disables pruning.
    pub prune: Option<Arc<PrunePlan>>,
    /// Persistent content-addressed replay-result store (see
    /// [`crate::cache`]). Consulted on the deterministic commit path: a
    /// hit installs the stored result without spawning the replay, a miss
    /// populates the store after its commit. `None` disables caching.
    pub cache: Option<Arc<ReplayCache>>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            bound: MixingBound::Unbounded,
            honor_regions: true,
            max_interleavings: Some(100_000),
            stop_on_first_error: false,
            branch_on_guided: false,
            divergence_retries: 0,
            retry_backoff: RetryBackoff::ZERO,
            checkpoint: None,
            jobs: 1,
            metrics: None,
            trace: None,
            prune: None,
            cache: None,
        }
    }
}

/// Aggregated result of a full exploration.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Number of interleavings executed (including the initial run).
    pub interleavings: u64,
    /// Distinct program bugs found, with their reproduction decisions.
    pub errors: Vec<FoundError>,
    /// Tool stats of the initial `SELF_RUN`.
    pub first_run_stats: ToolRunStats,
    /// Simulated makespan of the initial run.
    pub first_run_makespan: f64,
    /// Leak census of the initial run.
    pub first_run_leaks: dampi_mpi::LeakReport,
    /// Sum of simulated makespans across every run — "time to explore".
    pub total_virtual_time: f64,
    /// Guided-lookup misses across all replays.
    pub divergences: u64,
    /// Replays re-executed after a divergence (bounded retry-with-backoff;
    /// retries do not count as interleavings, so a resumed campaign's
    /// interleaving numbering matches an uninterrupted one).
    pub retries: u64,
    /// Replays the watchdog budget killed. The scheduler records them and
    /// moves on — their subtrees are *not* expanded (the epoch log of a
    /// killed run is truncated), which is exactly the partial coverage the
    /// record reports.
    pub timeouts: Vec<ReplayTimeoutRecord>,
    /// True when the interleaving budget stopped the walk early.
    pub budget_exhausted: bool,
    /// Union of every match discovered per epoch `(rank, clock)` across
    /// all runs — matched sources and alternates combined. This is the
    /// verifier's *coverage*: the set of non-deterministic outcomes it
    /// knows about (used by the §II-F completeness comparisons).
    pub discovered: BTreeMap<(usize, u64), BTreeSet<usize>>,
    /// Frontier forks dropped by the static prune plan (infeasible or
    /// symmetry-redundant alternates). Zero when no plan is installed.
    pub alternates_pruned: u64,
    /// Epoch instances committed whose wildcard the static analysis proved
    /// deterministic (singleton feasible sender set).
    pub wildcards_deterministic: u64,
    /// Frontier forks dropped because the fixed-point positional
    /// refinement — not the single-pass envelope count — refuted the
    /// alternate. Disjoint from [`Exploration::alternates_pruned`].
    pub refined_alternates_pruned: u64,
    /// Epoch instances committed whose wildcard only the refinement fixed
    /// point proved deterministic. Disjoint from
    /// [`Exploration::wildcards_deterministic`].
    pub refined_wildcards_deterministic: u64,
    /// Frontier forks dropped because the protocol's local type forbids
    /// the alternate's sender at that receive state (plan v3). Disjoint
    /// from the envelope and refinement counters.
    pub protocol_alternates_pruned: u64,
    /// Epoch instances committed whose wildcard the protocol proved
    /// deterministic (local type admits exactly one sender role).
    /// Disjoint from the other deterministic counters.
    pub protocol_wildcards_deterministic: u64,
    /// Subtrees the shard supervisor quarantined after exhausting their
    /// dispatch attempts (see [`crate::shard`]). Each one is also recorded
    /// in [`Exploration::timeouts`] — this counter is the quick summary.
    /// Always zero for in-process exploration.
    pub quarantined: u64,
    /// True when a sharded campaign was drained early (SIGTERM) instead of
    /// running to completion. Its journal holds every commit, so resuming
    /// from it continues the campaign.
    pub drained: bool,
    /// Commits satisfied from the persistent replay cache. Always zero
    /// when no cache is attached; counted on the commit path, so the
    /// tally is identical at any `--jobs`/`--shards` setting.
    pub cache_hits: u64,
    /// Commits that executed (or quarantined) because the attached cache
    /// had no valid entry. With a cache attached,
    /// `cache_hits + cache_misses` equals the committed count exactly.
    pub cache_misses: u64,
    /// Forks pushed onto the frontier across the campaign.
    pub forks_discovered: u64,
    /// Largest frontier after any commit's fork pushes.
    pub frontier_peak: u64,
    /// Frontier size after the last commit.
    pub frontier_final: u64,
    /// Deepest committed replay: its number of forced decisions (the
    /// initial `SELF_RUN` has depth 0).
    pub tree_depth_max: u64,
    /// Committed replays per decision depth — the epoch tree's width
    /// profile.
    pub replays_by_depth: BTreeMap<u64, u64>,
    /// Tool stats summed over every committed run (the final attempt of
    /// each).
    pub run_stats: ToolRunStats,
}

/// Where an exploration begins, and whose it is. The default is a fresh
/// campaign: its initial `SELF_RUN` is the first thing executed.
#[derive(Default)]
pub struct Start {
    /// A free run that already executed, committed as the `SELF_RUN` unless
    /// the journal serves the root — the `--prune-static` path: the plan
    /// was derived from exactly that run, so the root frontier it prunes is
    /// the one that run produced, not a re-execution's.
    pub first_run: Option<RunResult>,
    /// A journal to resume from (see [`crate::journal`]): the walk commits
    /// its records before anything executes, and appends to it.
    pub journal: Option<ExplorationJournal>,
    /// Digest of the verification config. With the prune plan's digest it
    /// keys the journal's records; every shard worker's `Hello` echoes it.
    pub config_digest: u64,
}

struct Fork {
    decisions: DecisionSet,
    /// `decisions.signature()`, computed once: it keys the visited set,
    /// the driver's ready results and the executor's in-flight set.
    sig: u64,
    /// Deepest canonical epoch index this fork's subtree may still branch
    /// at (`None` = unbounded). Bounded mixing anchors the window at the
    /// epoch where the subtree's *original* alternate was forced and the
    /// window is inherited, not re-anchored, by nested forks — so each
    /// initial-run epoch opens one overlapping window of height `k` and
    /// the search cost is a sum of `O(P^k)` subtrees (paper §III-B2).
    window_end: Option<usize>,
}

impl Fork {
    fn new(decisions: DecisionSet, window_end: Option<usize>) -> Self {
        Self {
            sig: decisions.signature(),
            decisions,
            window_end,
        }
    }
}

/// Run the depth-first exploration from scratch with `opts.jobs` concurrent
/// replay workers. With `jobs <= 1` this is the sequential walk on the
/// caller's thread; with more, the result is still bit-identical — only
/// wall-clock time changes.
pub fn explore_parallel<F>(run: F, opts: &ExploreOptions) -> Exploration
where
    F: Fn(&DecisionSet) -> RunResult + Sync,
{
    explore_from(&run, opts, Start::default()).expect(IN_PROCESS)
}

/// In-process exploration from any [`Start`]: `opts.jobs` picks the
/// executor. Fails when the start's journal is another campaign's.
pub(crate) fn explore_from<F>(
    run: &F,
    opts: &ExploreOptions,
    start: Start,
) -> io::Result<Exploration>
where
    F: Fn(&DecisionSet) -> RunResult + Sync,
{
    let ex = if opts.jobs <= 1 {
        drive(opts, &mut Inline::new(|ds| run(ds), opts), start)
    } else {
        ThreadPool::scoped(run, opts, opts.jobs, |pool| drive(opts, pool, start))
    }?;
    Ok(end_campaign(opts, ex))
}

/// Announce the end of a campaign whose executor has stopped, so nothing a
/// worker still reports about discarded speculation can follow
/// `CampaignEnd`, and its `t_us` covers that drain.
pub(crate) fn end_campaign(opts: &ExploreOptions, ex: Exploration) -> Exploration {
    emit(opts, || CampaignEvent::CampaignEnd {
        interleavings: ex.interleavings,
        errors: ex.errors.len(),
        budget_exhausted: ex.budget_exhausted,
        semantic: render_semantic(&ex),
        hits: ex.cache_hits,
        misses: ex.cache_misses,
        stale: opts.cache.as_ref().map_or(0, |c| c.take_unreported_stale()),
    });
    ex
}

pub(crate) const IN_PROCESS: &str = "in-process executors fail only when a replay worker panicked";

/// A result waiting for its commit turn.
struct Ready {
    rep: SubtreeResult,
    source: Source,
}

/// Where a committed result came from. The journal records it with the
/// result, so a resumed campaign re-derives the cache tallies and the
/// quarantine count exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) enum Source {
    /// The persistent replay cache.
    Hit,
    /// An execution (a miss whenever a cache is attached).
    Executed,
    /// The executor gave up on the subtree; the result is synthetic.
    Quarantined,
}

/// The exploration loop. It alone owns the [`Walk`], the replay cache, the
/// journal and the campaign events (all but `CampaignEnd`, which its caller
/// emits through [`end_campaign`] once `exec` has stopped); `exec` only
/// runs replays. Each turn commits every result that is next in
/// depth-first order, offers the new top of the frontier to the executor
/// (unconditionally) and deeper entries as speculation (bounded by idle
/// workers and the remaining interleaving budget), then blocks for one
/// event. Because commit order —
/// not completion order — drives every state change, the exploration does
/// not depend on the executor; speculation past a budget/stop boundary is
/// discarded, never committed. A resumed campaign first serves each top
/// from the journal, for as long as the journal's records are the walk's.
pub(crate) fn drive(
    opts: &ExploreOptions,
    exec: &mut dyn Executor,
    start: Start,
) -> io::Result<Exploration> {
    let (mut first_run, mut records) = (start.first_run, start.journal);
    let key = journal::key(start.config_digest, opts.prune.as_deref());
    records.as_ref().map_or(Ok(()), |j| j.check(key))?;
    let mut w = Walk::new(opts, key, records.as_ref());
    // Nothing is submitted yet, so the idle count is the executor's width.
    emit(opts, || CampaignEvent::CampaignStart {
        jobs: exec.idle(),
        resumed: records.is_some(),
        readonly: opts.cache.as_ref().map(|c| c.readonly()),
    });
    w.stack.push(Fork::new(DecisionSet::self_run(), None));
    let dispatched = |signature| emit(opts, || CampaignEvent::Dispatched { signature });
    // Results completed ahead of their commit turn, by signature.
    let mut ready: HashMap<u64, Ready> = HashMap::new();
    // Schedules the cache has already missed on — probed at most once
    // each, however often the executor refuses them.
    let mut probed_miss: HashSet<u64> = HashSet::new();
    // The signature the loop last blocked for: a result that was ready
    // without blocking means speculation hid the whole replay latency.
    let mut waited: Option<u64> = None;

    loop {
        while !w.halted() {
            let Some(r) = w.stack.last().and_then(|top| ready.remove(&top.sig)) else {
                break;
            };
            let fork = w.stack.pop().expect("top checked");
            let speculated = r.source == Source::Executed && waited != Some(fork.sig);
            waited = None;
            w.commit(&fork, r, false, speculated);
        }
        if w.halted() || w.stack.is_empty() {
            break;
        }

        if let Some(j) = &mut records {
            // While records remain the top is served from them, and nothing
            // below it is speculated on.
            let top = &w.stack.last().expect("non-empty").decisions;
            if let Some((rep, source)) = j.serve(key, top) {
                let fork = w.stack.pop().expect("non-empty");
                dispatched(fork.sig);
                w.commit(&fork, Ready { rep, source }, true, false);
                continue;
            }
            // The walk has left the journal: the rest of it is not this
            // campaign's. Best-effort: records left behind only end a later
            // resume's serving there.
            if let Some((log, _)) = &w.log {
                let _ = log.set_len(j.unserved());
            }
            records = None;
        }
        let top_sig = w.stack.last().expect("non-empty").sig;
        let budget_room = opts.max_interleavings.map_or(usize::MAX, |max| {
            max.saturating_sub(w.ex.interleavings) as usize
        });
        let mut flying = exec.in_flight();
        for (depth, fork) in w.stack.iter().rev().enumerate() {
            // Every frontier entry is eventually popped, so speculation is
            // only wasted past a budget/stop boundary.
            if depth > 0 && (exec.idle() == 0 || flying + ready.len() >= budget_room) {
                break;
            }
            if ready.contains_key(&fork.sig) {
                continue;
            }
            let cached = match &opts.cache {
                Some(c) if !probed_miss.contains(&fork.sig) => c.lookup(&fork.decisions),
                _ => None,
            };
            let in_hand = match cached {
                Some(rep) => Some((rep, Source::Hit)),
                None if fork.decisions.is_self_run() => first_run
                    .take()
                    .map(|run| (SubtreeResult::single(run), Source::Executed)),
                None => None,
            };
            if let Some((rep, source)) = in_hand {
                // A result in hand counts as dispatched: the ledger
                // `started == committed + aborted` covers it too.
                dispatched(fork.sig);
                ready.insert(fork.sig, Ready { rep, source });
                if depth == 0 {
                    break; // commit it before looking any deeper
                }
                continue;
            }
            if opts.cache.is_some() {
                probed_miss.insert(fork.sig);
            }
            if exec.submit(fork.sig, &fork.decisions) {
                dispatched(fork.sig);
                flying += 1;
            }
        }
        if ready.contains_key(&top_sig) {
            continue;
        }

        waited = Some(top_sig);
        let (sig, rep, source) = match exec.next()? {
            Event::Completed(sig, rep) => (sig, *rep, Source::Executed),
            Event::Quarantined(sig, reason) => {
                dispatched(sig); // the synthetic commit's dispatch
                (sig, SubtreeResult::quarantined(reason), Source::Quarantined)
            }
            Event::Wake => continue,
            Event::Drain => {
                // Every commit is already in the journal.
                w.ex.drained = true;
                emit(opts, || CampaignEvent::CampaignDrained {
                    frontier: w.stack.len(),
                });
                break;
            }
        };
        ready.insert(sig, Ready { rep, source });
    }
    // Every accepted submission is, at this point, exactly one of:
    // committed, completed-but-uncommitted (ready), or still in flight. The
    // latter two were started and will never commit.
    let n = (exec.in_flight() + ready.len()) as u64;
    if n > 0 {
        emit(opts, || CampaignEvent::Aborted { n });
    }
    Ok(w.ex)
}

/// Mutable exploration state. Every state transition goes through
/// [`Walk::commit`]: the driver chooses *when* to execute a replay, the
/// walk alone decides *in what order* results become part of the
/// exploration.
struct Walk<'a> {
    opts: &'a ExploreOptions,
    ex: Exploration,
    visited: HashSet<u64>,
    stack: Vec<Fork>,
    seen_errors: HashSet<(usize, String)>,
    /// The journal every commit is appended to, and the key it is under.
    log: Option<(File, Key)>,
}

impl<'a> Walk<'a> {
    /// A walk journaling under `key` to `opts.checkpoint`, else to
    /// `resumed`'s own log. A journal that cannot be opened must not kill a
    /// healthy campaign: it runs unjournaled.
    fn new(opts: &'a ExploreOptions, key: Key, resumed: Option<&ExplorationJournal>) -> Self {
        let path = opts.checkpoint.as_deref();
        let log = path.or(resumed.map(|j| j.path.as_path())).and_then(|path| {
            journal::open_log(path, resumed)
                .inspect_err(|e| eprintln!("dampi: journal {} unusable: {e}", path.display()))
                .ok()
                .map(|log| (log, key))
        });
        Self {
            opts,
            ex: Exploration::default(),
            visited: HashSet::new(),
            stack: Vec::new(),
            seen_errors: HashSet::new(),
            log,
        }
    }

    /// Should the walk stop before committing another replay? Checked
    /// *before* the pop, so a budget interrupt leaves exactly the journal
    /// a kill after that commit would. The initial run is never budgeted
    /// away.
    fn halted(&mut self) -> bool {
        if let Some(max) = self.opts.max_interleavings {
            if self.ex.interleavings >= max.max(1) && !self.stack.is_empty() {
                self.ex.budget_exhausted = true;
                return true;
            }
        }
        self.opts.stop_on_first_error && !self.ex.errors.is_empty()
    }

    /// Commit one result in walk order, then record it: in the journal, and
    /// — a miss — in the cache, serialized before the commit and written
    /// after, so the store only ever holds results the walk absorbed. A
    /// result `served` from the journal being resumed is recorded nowhere.
    /// The initial `SELF_RUN` is the commit of the empty decision set. Its
    /// `ReplayCommit` event closes the commit; `speculated` says the result
    /// was ready before the driver waited for it.
    fn commit(&mut self, fork: &Fork, r: Ready, served: bool, speculated: bool) {
        let Ready { mut rep, source } = r;
        // Ranks hand in their epoch logs in the order they finalize. From
        // here on the result holds them in the order the walk reads them, so
        // its forks, its journal record and its cache entry are a function
        // of the schedule alone. The sort is stable on the walk's key.
        rep.epochs.sort_by_key(|e| (e.clock, e.rank));
        let pending = match &self.opts.cache {
            Some(c) if source != Source::Hit && !served => c.prepare(&fork.decisions, &rep),
            _ => None,
        };
        self.note_cache(source == Source::Hit, fork.sig);
        self.absorb_cost(&rep);
        self.ex.interleavings += 1;
        let interleaving = self.ex.interleavings;
        let errors_before = self.ex.errors.len();
        let stack_before = self.stack.len();
        let provenance = if fork.decisions.is_self_run() {
            self.ex.first_run_stats = rep.stats;
            self.ex.first_run_makespan = rep.outcome.makespan;
            // Leak checking happens at MPI_Finalize; a run that aborted or
            // deadlocked never reached it, so its leftover resources are
            // teardown debris, not application leaks.
            if rep.outcome.succeeded() {
                self.ex.first_run_leaks = rep.outcome.leaks.clone();
            }
            Provenance::Root
        } else {
            Provenance::Child {
                window_end: fork.window_end,
            }
        };
        absorb_errors(
            &mut self.ex,
            &mut self.seen_errors,
            &rep.outcome,
            interleaving,
            &fork.decisions,
        );
        absorb_discoveries(&mut self.ex, &rep.epochs);
        self.ex.run_stats.merge(&rep.stats);
        let timeout = timeout_of(&rep.outcome);
        let timed_out = timeout.is_some();
        if let Some(detail) = timeout {
            // A killed replay's epoch log is truncated; forking from it
            // would schedule prefixes the run never confirmed. Record the
            // partial coverage honestly and keep walking the rest of the
            // frontier.
            self.ex.timeouts.push(ReplayTimeoutRecord {
                interleaving,
                detail,
                decisions: fork.decisions.clone(),
            });
        } else {
            push_forks(
                &mut self.stack,
                &mut self.visited,
                &mut self.ex,
                &rep.epochs,
                provenance,
                self.opts,
            );
        }
        let depth = fork.decisions.decisions.len();
        let (forks_pushed, frontier) = (self.stack.len() - stack_before, self.stack.len());
        self.ex.forks_discovered += forks_pushed as u64;
        self.ex.frontier_final = frontier as u64;
        self.ex.frontier_peak = self.ex.frontier_peak.max(frontier as u64);
        self.ex.tree_depth_max = self.ex.tree_depth_max.max(depth as u64);
        *self.ex.replays_by_depth.entry(depth as u64).or_insert(0) += 1;
        if source == Source::Quarantined {
            self.ex.quarantined += 1;
        }
        if !served {
            self.journal(fork, source, &rep);
        }
        let stored = match (&self.opts.cache, pending) {
            (Some(c), Some(p)) => c.commit_store(&p),
            _ => false,
        };
        emit(self.opts, || CampaignEvent::ReplayCommit {
            interleaving,
            depth,
            forks_pushed,
            frontier,
            new_errors: self.ex.errors.len() - errors_before,
            makespan_s: rep.outcome.makespan,
            attempts: rep.retries + 1,
            timed_out,
            census: rep.outcome.census,
            speculated,
            stored,
        });
    }

    /// Account one commit's cache disposition: every commit is exactly one
    /// hit or one miss (a quarantine is a miss the cache could not serve),
    /// so `hits + misses` equals the committed count under any executor.
    /// No-op without a cache.
    fn note_cache(&mut self, hit: bool, signature: u64) {
        if self.opts.cache.is_none() {
            return;
        }
        if hit {
            self.ex.cache_hits += 1;
            emit(self.opts, || CampaignEvent::CacheHit { signature });
        } else {
            self.ex.cache_misses += 1;
        }
    }

    /// Account a replay's execution cost. Makespans are added one attempt
    /// at a time, in attempt order, so parallel totals are bitwise equal
    /// to sequential ones.
    fn absorb_cost(&mut self, rep: &SubtreeResult) {
        for m in &rep.attempt_makespans {
            self.ex.total_virtual_time += m;
        }
        self.ex.divergences += rep.divergences;
        self.ex.retries += rep.retries;
    }

    /// Append one commit to the journal, if the campaign keeps one. A
    /// failed append must not kill a healthy campaign: a resume only
    /// re-executes from that commit on.
    fn journal(&self, fork: &Fork, source: Source, rep: &SubtreeResult) {
        let Some((log, key)) = &self.log else {
            return;
        };
        let t0 = observed(self.opts).then(Instant::now);
        if let Err(e) = journal::append(log, *key, &fork.decisions, source, rep) {
            eprintln!("dampi: journal append failed: {e}");
        }
        if let Some(t0) = t0 {
            emit(self.opts, || CampaignEvent::Checkpoint {
                latency_us: micros(t0.elapsed()),
                frontier: self.stack.len(),
            });
        }
    }
}

/// The watchdog detail when this run was killed over budget.
pub(crate) fn timeout_of(outcome: &RunOutcome) -> Option<String> {
    match &outcome.fatal {
        Some(MpiError::ReplayTimeout { detail }) => Some(detail.clone()),
        _ => None,
    }
}

/// Where a run came from, for window bookkeeping.
enum Provenance {
    /// The initial `SELF_RUN`: every epoch anchors its own window.
    Root,
    /// A guided replay: new epochs may branch only inside the inherited
    /// window.
    Child { window_end: Option<usize> },
}
use Provenance::{Child, Root};

fn absorb_errors(
    ex: &mut Exploration,
    seen: &mut HashSet<(usize, String)>,
    outcome: &RunOutcome,
    interleaving: u64,
    decisions: &DecisionSet,
) {
    for bug in outcome.program_bugs() {
        let key = (bug.rank, bug.error.to_string());
        if seen.insert(key) {
            ex.errors.push(FoundError {
                interleaving,
                rank: bug.rank,
                error: bug.error,
                decisions: decisions.clone(),
            });
        }
    }
}

fn absorb_discoveries(ex: &mut Exploration, epochs: &[EpochRecord]) {
    for e in epochs {
        let entry = ex.discovered.entry((e.rank, e.clock)).or_default();
        if let Some(m) = e.matched_src {
            entry.insert(m);
        }
        entry.extend(e.alternates.iter().copied());
    }
}

/// Push a fork for every unexplored alternate inside the mixing window of
/// this run's `epochs`, which the commit has put in walk order. The static
/// prune plan's drops and the committed epoch instances it proved
/// deterministic are added to `ex`'s counters, per analysis pass — on the
/// commit path, so they are identical for any `jobs` value.
fn push_forks(
    stack: &mut Vec<Fork>,
    visited: &mut HashSet<u64>,
    ex: &mut Exploration,
    epochs: &[EpochRecord],
    provenance: Provenance,
    opts: &ExploreOptions,
) {
    let plan = opts.prune.as_deref();
    let at_root = matches!(provenance, Root);
    for (i, e) in epochs.iter().enumerate() {
        if let Some(p) = plan {
            if !e.guided {
                if p.deterministic.contains(&(e.rank, e.clock)) {
                    ex.wildcards_deterministic += 1;
                } else if p.refined_deterministic.contains(&(e.rank, e.clock)) {
                    ex.refined_wildcards_deterministic += 1;
                } else if p.protocol_deterministic.contains(&(e.rank, e.clock)) {
                    ex.protocol_wildcards_deterministic += 1;
                }
            }
        }
        if e.guided && !opts.branch_on_guided {
            continue;
        }
        if opts.honor_regions && e.in_region {
            continue;
        }
        // Bounded-mixing window: in the initial run every epoch anchors a
        // fresh window [i, i+k]; in a replay, new epochs may branch only
        // within the inherited window of the subtree's anchor.
        let window_end = match (&provenance, opts.bound) {
            (_, MixingBound::Unbounded) => None,
            (Root, MixingBound::K(k)) => Some(i.saturating_add(k as usize)),
            (Child { window_end }, MixingBound::K(_)) => {
                match window_end {
                    Some(end) if i <= *end => Some(*end),
                    Some(_) => continue, // outside the window: SELF_RUN only
                    None => None,
                }
            }
        };
        // Ranks a symmetry swap must leave untouched: every rank the forced
        // prefix names (as branching epoch or forced source) plus the
        // receiving rank itself. The prefix is every epoch ordered before
        // the branch point *and* every guided epoch regardless of order —
        // a guided epoch with the same clock as the branch point sorts
        // after it yet its source is still forced by the decision set.
        // Swapping two sources outside this set maps the forced prefix —
        // and hence the whole subtree — onto an isomorphic image.
        let fixed: BTreeSet<usize> = plan
            .filter(|p| !p.orbits.is_empty())
            .map(|_| {
                let mut f: BTreeSet<usize> = epochs
                    .iter()
                    .enumerate()
                    .filter(|&(j, p)| j < i || (j > i && p.guided))
                    .flat_map(|(_, p)| [p.rank, p.matched_src.unwrap_or(p.rank)])
                    .collect();
                f.insert(e.rank);
                f
            })
            .unwrap_or_default();
        // Sources whose subtree is already scheduled from this epoch: the
        // observed match (covered by not branching) plus kept alternates.
        let mut covered: Vec<usize> = e.matched_src.into_iter().collect();
        for alt in e.unexplored_alternates() {
            if let Some(p) = plan {
                if at_root && p.infeasible.contains(&(e.rank, e.clock, alt)) {
                    ex.alternates_pruned += 1;
                    continue;
                }
                if at_root && p.refined_infeasible.contains(&(e.rank, e.clock, alt)) {
                    ex.refined_alternates_pruned += 1;
                    continue;
                }
                if at_root && p.protocol_infeasible.contains(&(e.rank, e.clock, alt)) {
                    ex.protocol_alternates_pruned += 1;
                    continue;
                }
                let symmetric = !fixed.contains(&alt)
                    && covered
                        .iter()
                        .any(|&b| !fixed.contains(&b) && p.interchangeable(alt, b));
                if symmetric {
                    ex.alternates_pruned += 1;
                    continue;
                }
            }
            covered.push(alt);
            // The forced prefix: every earlier epoch keeps the match it had
            // in this run; the branch point takes the alternate.
            let mut decisions: Vec<EpochDecision> = epochs[..i]
                .iter()
                .filter_map(|p| {
                    p.matched_src.map(|m| EpochDecision {
                        rank: p.rank,
                        clock: p.clock,
                        src: m,
                    })
                })
                .collect();
            decisions.push(EpochDecision {
                rank: e.rank,
                clock: e.clock,
                src: alt,
            });
            let fork = Fork::new(DecisionSet::guided(e.clock, decisions), window_end);
            if visited.insert(fork.sig) {
                stack.push(fork);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::NdKind;
    use crate::executor::execute_with_retry;
    use dampi_clocks::ClockStamp;
    use dampi_mpi::{Comm, LeakReport, MpiError};
    use std::time::Duration;

    /// A synthetic "program": `n_epochs` wildcard receives on rank 0, each
    /// with sources `0..n_srcs`. The run function honors forced decisions
    /// and reports all alternates, mimicking what DampiLayer produces.
    /// `Fn + Sync` so the same harness drives every executor.
    fn synthetic_run(n_epochs: u64, n_srcs: usize) -> impl Fn(&DecisionSet) -> RunResult + Sync {
        move |ds: &DecisionSet| {
            let epochs: Vec<EpochRecord> = (0..n_epochs)
                .map(|clock| {
                    let forced = ds.lookup(0, clock);
                    let matched = forced.unwrap_or(0);
                    let guided = forced.is_some();
                    EpochRecord {
                        rank: 0,
                        clock,
                        stamp: ClockStamp::Lamport(clock),
                        comm: Comm::WORLD,
                        tag_spec: 0,
                        kind: NdKind::Recv,
                        in_region: false,
                        guided,
                        matched_src: Some(matched),
                        alternates: (0..n_srcs).filter(|s| *s != matched).collect(),
                    }
                })
                .collect();
            RunResult {
                outcome: RunOutcome {
                    rank_errors: vec![None],
                    leaks: LeakReport::default(),
                    fatal: None,
                    per_rank_vt: vec![1.0],
                    wall_elapsed: Duration::ZERO,
                    makespan: 1.0,
                    census: Default::default(),
                },
                epochs,
                stats: ToolRunStats {
                    wildcards: n_epochs,
                    ..Default::default()
                },
            }
        }
    }

    fn opts(bound: MixingBound) -> ExploreOptions {
        ExploreOptions {
            bound,
            max_interleavings: Some(1_000_000),
            divergence_retries: 2,
            retry_backoff: RetryBackoff::ZERO,
            ..ExploreOptions::default()
        }
    }

    /// The sequential walk on the inline executor, the reference every
    /// other executor is compared against.
    fn explore(run: impl Fn(&DecisionSet) -> RunResult + Sync, o: &ExploreOptions) -> Exploration {
        explore_parallel(run, &with_jobs(o.clone(), 1))
    }

    #[test]
    fn single_epoch_explores_each_alternate_once() {
        // 1 epoch, 3 sources: initial run + 2 alternates = 3 interleavings.
        let ex = explore(synthetic_run(1, 3), &opts(MixingBound::Unbounded));
        assert_eq!(ex.interleavings, 3);
        assert_eq!(ex.discovered[&(0, 0)].len(), 3);
    }

    #[test]
    fn unbounded_covers_full_product() {
        // 3 epochs × 3 sources each: 27 total interleavings (3^3).
        let ex = explore(synthetic_run(3, 3), &opts(MixingBound::Unbounded));
        assert_eq!(ex.interleavings, 27);
    }

    #[test]
    fn k0_is_linear() {
        // k=0: initial run + one replay per (epoch, alternate) pair:
        // 1 + N*(P-1) = 1 + 4*2 = 9.
        let ex = explore(synthetic_run(4, 3), &opts(MixingBound::K(0)));
        assert_eq!(ex.interleavings, 9);
    }

    #[test]
    fn k_grows_between_linear_and_exponential() {
        let full = explore(synthetic_run(4, 3), &opts(MixingBound::Unbounded)).interleavings;
        let k0 = explore(synthetic_run(4, 3), &opts(MixingBound::K(0))).interleavings;
        let k1 = explore(synthetic_run(4, 3), &opts(MixingBound::K(1))).interleavings;
        let k2 = explore(synthetic_run(4, 3), &opts(MixingBound::K(2))).interleavings;
        assert!(k0 < k1, "k0={k0} k1={k1}");
        assert!(k1 < k2, "k1={k1} k2={k2}");
        assert!(k2 < full, "k2={k2} full={full}");
        assert_eq!(full, 81);
    }

    #[test]
    fn budget_stops_exploration() {
        let ex = explore(
            synthetic_run(10, 4),
            &ExploreOptions {
                max_interleavings: Some(50),
                ..opts(MixingBound::Unbounded)
            },
        );
        assert_eq!(ex.interleavings, 50);
        assert!(ex.budget_exhausted);
    }

    #[test]
    fn regions_suppress_branching() {
        let base = synthetic_run(2, 3);
        let run = move |ds: &DecisionSet| {
            let mut r = base(ds);
            for e in &mut r.epochs {
                e.in_region = true;
            }
            r
        };
        let ex = explore(run, &opts(MixingBound::Unbounded));
        assert_eq!(ex.interleavings, 1, "regions make everything SELF_RUN");
    }

    #[test]
    fn errors_deduplicate_and_keep_repro() {
        let inner = synthetic_run(1, 2);
        let run = move |ds: &DecisionSet| {
            let mut r = inner(ds);
            // The bug manifests only when source 1 is forced.
            if ds.lookup(0, 0) == Some(1) {
                r.outcome.rank_errors[0] = Some(MpiError::UserAssert {
                    message: "x==33".into(),
                });
            }
            r
        };
        let ex = explore(run, &opts(MixingBound::Unbounded));
        assert_eq!(ex.interleavings, 2);
        assert_eq!(ex.errors.len(), 1);
        let err = &ex.errors[0];
        assert_eq!(err.interleaving, 2);
        assert_eq!(err.decisions.lookup(0, 0), Some(1));
    }

    #[test]
    fn stop_on_first_error_halts() {
        let inner = synthetic_run(2, 3);
        let run = move |ds: &DecisionSet| {
            let mut r = inner(ds);
            if !ds.is_self_run() {
                r.outcome.rank_errors[0] = Some(MpiError::UserAssert {
                    message: "any replay fails".into(),
                });
            }
            r
        };
        let ex = explore(
            run,
            &ExploreOptions {
                stop_on_first_error: true,
                ..opts(MixingBound::Unbounded)
            },
        );
        assert_eq!(ex.interleavings, 2);
        assert_eq!(ex.errors.len(), 1);
    }

    #[test]
    fn total_virtual_time_accumulates() {
        let ex = explore(synthetic_run(1, 3), &opts(MixingBound::Unbounded));
        assert!((ex.total_virtual_time - 3.0).abs() < 1e-12);
    }

    /// Field-by-field identity of two explorations, including bitwise
    /// float totals — the contract `explore_parallel` promises.
    fn assert_equiv(seq: &Exploration, par: &Exploration) {
        assert_eq!(par.interleavings, seq.interleavings);
        assert_eq!(par.discovered, seq.discovered);
        assert_eq!(par.alternates_pruned, seq.alternates_pruned);
        assert_eq!(par.wildcards_deterministic, seq.wildcards_deterministic);
        assert_eq!(par.refined_alternates_pruned, seq.refined_alternates_pruned);
        assert_eq!(
            par.refined_wildcards_deterministic,
            seq.refined_wildcards_deterministic
        );
        assert_eq!(
            par.protocol_alternates_pruned,
            seq.protocol_alternates_pruned
        );
        assert_eq!(
            par.protocol_wildcards_deterministic,
            seq.protocol_wildcards_deterministic
        );
        assert_eq!(par.budget_exhausted, seq.budget_exhausted);
        assert_eq!(par.divergences, seq.divergences);
        assert_eq!(par.retries, seq.retries);
        assert_eq!(
            par.total_virtual_time.to_bits(),
            seq.total_virtual_time.to_bits(),
            "virtual-time totals must be bitwise equal"
        );
        assert_eq!(par.errors.len(), seq.errors.len());
        for (p, s) in par.errors.iter().zip(&seq.errors) {
            assert_eq!(p.interleaving, s.interleaving);
            assert_eq!(p.rank, s.rank);
            assert_eq!(p.error.to_string(), s.error.to_string());
            assert_eq!(p.decisions.signature(), s.decisions.signature());
        }
        assert_eq!(par.timeouts.len(), seq.timeouts.len());
        for (p, s) in par.timeouts.iter().zip(&seq.timeouts) {
            assert_eq!(p.interleaving, s.interleaving);
            assert_eq!(p.decisions.signature(), s.decisions.signature());
        }
    }

    fn with_jobs(base: ExploreOptions, jobs: usize) -> ExploreOptions {
        ExploreOptions { jobs, ..base }
    }

    #[test]
    fn parallel_matches_sequential_unbounded() {
        let seq = explore(synthetic_run(3, 3), &opts(MixingBound::Unbounded));
        for jobs in [2, 4, 8] {
            let par = explore_parallel(
                synthetic_run(3, 3),
                &with_jobs(opts(MixingBound::Unbounded), jobs),
            );
            assert_equiv(&seq, &par);
        }
        assert_eq!(seq.interleavings, 27);
    }

    #[test]
    fn parallel_matches_sequential_bounded_mixing() {
        for k in 0..3u32 {
            let seq = explore(synthetic_run(4, 3), &opts(MixingBound::K(k)));
            let par = explore_parallel(synthetic_run(4, 3), &with_jobs(opts(MixingBound::K(k)), 4));
            assert_equiv(&seq, &par);
        }
    }

    #[test]
    fn parallel_respects_budget_exactly() {
        let budgeted = ExploreOptions {
            max_interleavings: Some(50),
            ..opts(MixingBound::Unbounded)
        };
        let seq = explore(synthetic_run(10, 4), &budgeted);
        let par = explore_parallel(synthetic_run(10, 4), &with_jobs(budgeted, 4));
        assert_equiv(&seq, &par);
        assert_eq!(par.interleavings, 50);
        assert!(par.budget_exhausted);
    }

    #[test]
    fn parallel_matches_sequential_with_errors_and_stop() {
        let make_run = || {
            let inner = synthetic_run(2, 3);
            move |ds: &DecisionSet| {
                let mut r = inner(ds);
                // Bug on one specific leaf schedule: both epochs forced
                // to source 2. Workers may execute it speculatively out of
                // order; the committed interleaving number must not care.
                if ds.lookup(0, 0) == Some(2) && ds.lookup(0, 1) == Some(2) {
                    r.outcome.rank_errors[0] = Some(MpiError::UserAssert {
                        message: "x==33".into(),
                    });
                }
                r
            }
        };
        for stop in [false, true] {
            let o = ExploreOptions {
                stop_on_first_error: stop,
                ..opts(MixingBound::Unbounded)
            };
            let seq = explore(make_run(), &o);
            let par = explore_parallel(make_run(), &with_jobs(o, 4));
            assert_equiv(&seq, &par);
            assert_eq!(par.errors.len(), 1, "stop={stop}");
        }
    }

    #[test]
    fn parallel_with_zero_or_one_jobs_is_sequential_path() {
        for jobs in [0, 1] {
            let par = explore_parallel(
                synthetic_run(3, 3),
                &with_jobs(opts(MixingBound::Unbounded), jobs),
            );
            assert_eq!(par.interleavings, 27);
        }
    }

    fn with_plan(base: ExploreOptions, plan: PrunePlan) -> ExploreOptions {
        ExploreOptions {
            prune: Some(Arc::new(plan)),
            ..base
        }
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let bare = explore(synthetic_run(3, 3), &opts(MixingBound::Unbounded));
        let planned = explore(
            synthetic_run(3, 3),
            &with_plan(opts(MixingBound::Unbounded), PrunePlan::default()),
        );
        assert_equiv(&bare, &planned);
        assert_eq!(planned.alternates_pruned, 0);
    }

    #[test]
    fn infeasible_alternates_dropped_at_root_only() {
        // 2 epochs x sources {0,1}: unpruned tree is 4 interleavings. Mark
        // (rank 0, clock 1, src 1) infeasible: the root fork at clock 1 is
        // dropped, but the replay of {e0 -> 1} still pushes its own clock-1
        // fork (child provenance — its epoch log is not the analyzed trace).
        let plan = PrunePlan {
            infeasible: BTreeSet::from([(0, 1, 1)]),
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(2, 2),
            &with_plan(opts(MixingBound::Unbounded), plan),
        );
        assert_eq!(ex.interleavings, 3);
        assert_eq!(ex.alternates_pruned, 1);
    }

    #[test]
    fn symmetric_alternates_collapse_to_one_representative() {
        // 1 epoch, sources {0,1,2}, observed match 0. With sources 1 and 2
        // interchangeable, branching to 2 is the mirror image of branching
        // to 1: only one representative replay runs.
        let plan = PrunePlan {
            orbits: vec![BTreeSet::from([1, 2])],
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(1, 3),
            &with_plan(opts(MixingBound::Unbounded), plan),
        );
        assert_eq!(ex.interleavings, 2);
        assert_eq!(ex.alternates_pruned, 1);
    }

    #[test]
    fn symmetry_respects_prefix_fixed_ranks() {
        // 2 epochs, sources {0,1,2}, orbit {1,2}. Forks at clock 1 carry
        // the forced prefix {e0 -> 0}; source 0 is fixed but 1 and 2 are
        // not, so the clock-1 branch to 2 is pruned wherever a branch to 1
        // is already covered — including inside replay subtrees.
        let plan = PrunePlan {
            orbits: vec![BTreeSet::from([1, 2])],
            ..PrunePlan::default()
        };
        let bare = explore(synthetic_run(2, 3), &opts(MixingBound::Unbounded));
        let pruned = explore(
            synthetic_run(2, 3),
            &with_plan(opts(MixingBound::Unbounded), plan),
        );
        assert_eq!(bare.interleavings, 9);
        assert!(pruned.interleavings < bare.interleavings);
        assert!(pruned.alternates_pruned > 0);
        // Coverage up to symmetry: the pruned walk still found no errors,
        // and every epoch it committed matches the unpruned campaign.
        assert!(pruned.errors.is_empty() && bare.errors.is_empty());
    }

    #[test]
    fn deterministic_wildcards_counted_not_branched() {
        // The plan marks clock 0 deterministic; the synthetic run still
        // reports alternates for it, but the counter tracks instances on
        // the commit path without altering exploration.
        let plan = PrunePlan {
            deterministic: BTreeSet::from([(0, 0)]),
            ..PrunePlan::default()
        };
        let bare = explore(synthetic_run(1, 2), &opts(MixingBound::Unbounded));
        let planned = explore(
            synthetic_run(1, 2),
            &with_plan(opts(MixingBound::Unbounded), plan),
        );
        assert_eq!(planned.interleavings, bare.interleavings);
        // Root commit counts it once; the guided replay's epoch is skipped.
        assert_eq!(planned.wildcards_deterministic, 1);
    }

    #[test]
    fn refined_infeasible_dropped_at_root_only() {
        // Mirror of `infeasible_alternates_dropped_at_root_only` through
        // the fixed-point channel: same pruning behavior, but the drop is
        // accounted in the refined counter, disjoint from the single-pass
        // one.
        let plan = PrunePlan {
            refined_infeasible: BTreeSet::from([(0, 1, 1)]),
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(2, 2),
            &with_plan(opts(MixingBound::Unbounded), plan),
        );
        assert_eq!(ex.interleavings, 3);
        assert_eq!(ex.alternates_pruned, 0);
        assert_eq!(ex.refined_alternates_pruned, 1);
    }

    #[test]
    fn refined_deterministic_counted_disjointly() {
        // An epoch in `refined_deterministic` but not `deterministic` only
        // bumps the refined counter; when both passes claim it, the
        // single-pass counter wins (the sets the analyzer emits are
        // disjoint, but the scheduler must not double-count regardless).
        let refined_only = PrunePlan {
            refined_deterministic: BTreeSet::from([(0, 0)]),
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(1, 2),
            &with_plan(opts(MixingBound::Unbounded), refined_only),
        );
        assert_eq!(ex.wildcards_deterministic, 0);
        assert_eq!(ex.refined_wildcards_deterministic, 1);

        let both = PrunePlan {
            deterministic: BTreeSet::from([(0, 0)]),
            refined_deterministic: BTreeSet::from([(0, 0)]),
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(1, 2),
            &with_plan(opts(MixingBound::Unbounded), both),
        );
        assert_eq!(ex.wildcards_deterministic, 1);
        assert_eq!(ex.refined_wildcards_deterministic, 0);
    }

    #[test]
    fn protocol_infeasible_dropped_at_root_only() {
        // Mirror of the envelope/refinement infeasibility tests through
        // the session-type channel: same root-only drop, accounted in the
        // protocol counter, disjoint from both older ones.
        let plan = PrunePlan {
            protocol_infeasible: BTreeSet::from([(0, 1, 1)]),
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(2, 2),
            &with_plan(opts(MixingBound::Unbounded), plan),
        );
        assert_eq!(ex.interleavings, 3);
        assert_eq!(ex.alternates_pruned, 0);
        assert_eq!(ex.refined_alternates_pruned, 0);
        assert_eq!(ex.protocol_alternates_pruned, 1);
    }

    #[test]
    fn protocol_deterministic_counted_disjointly() {
        // The protocol counter only fires when neither older pass already
        // claimed the epoch — the envelope pass wins, then refinement,
        // then the protocol.
        let protocol_only = PrunePlan {
            protocol_deterministic: BTreeSet::from([(0, 0)]),
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(1, 2),
            &with_plan(opts(MixingBound::Unbounded), protocol_only),
        );
        assert_eq!(ex.wildcards_deterministic, 0);
        assert_eq!(ex.refined_wildcards_deterministic, 0);
        assert_eq!(ex.protocol_wildcards_deterministic, 1);

        let both = PrunePlan {
            refined_deterministic: BTreeSet::from([(0, 0)]),
            protocol_deterministic: BTreeSet::from([(0, 0)]),
            ..PrunePlan::default()
        };
        let ex = explore(
            synthetic_run(1, 2),
            &with_plan(opts(MixingBound::Unbounded), both),
        );
        assert_eq!(ex.refined_wildcards_deterministic, 1);
        assert_eq!(ex.protocol_wildcards_deterministic, 0);
    }

    #[test]
    fn pruned_exploration_is_jobs_invariant() {
        let plan = PrunePlan {
            infeasible: BTreeSet::from([(0, 2, 1)]),
            refined_infeasible: BTreeSet::from([(0, 2, 2)]),
            refined_deterministic: BTreeSet::from([(0, 0)]),
            protocol_infeasible: BTreeSet::from([(0, 2, 3)]),
            protocol_deterministic: BTreeSet::from([(0, 1)]),
            orbits: vec![BTreeSet::from([1, 2, 3])],
            ..PrunePlan::default()
        };
        let seq = explore(
            synthetic_run(3, 4),
            &with_plan(opts(MixingBound::Unbounded), plan.clone()),
        );
        for jobs in [2, 4, 8] {
            let par = explore_parallel(
                synthetic_run(3, 4),
                &with_jobs(with_plan(opts(MixingBound::Unbounded), plan.clone()), jobs),
            );
            assert_equiv(&seq, &par);
        }
        assert!(seq.alternates_pruned > 0);
        assert!(seq.refined_alternates_pruned > 0);
        assert!(seq.protocol_alternates_pruned > 0);
        assert_eq!(seq.refined_wildcards_deterministic, 1);
        // Epoch (0,1) runs non-guided twice: at the root and in the one
        // epoch-0 replay (a fork's forced prefix guides every *earlier*
        // epoch, so (0,0) above only ever counts once).
        assert_eq!(seq.protocol_wildcards_deterministic, 2);
        assert!(seq.interleavings < 64, "plan must actually prune");
    }

    // ---- The executor contract, without threads ---------------------------

    /// The order a [`Scripted`] executor releases what it holds in.
    #[derive(Clone, Copy, Debug)]
    enum Order {
        /// Newest submission first.
        Reverse,
        /// Alternately the oldest and the newest.
        Interleaved,
        /// Oldest first, except that the very oldest — the driver always
        /// submits the next fork to commit first — goes last.
        TopLast,
    }

    /// A deterministic executor double: no threads, no sleeps. It accepts
    /// up to `width` submissions and `next` releases one of them in a
    /// scripted, adversarial order. It can also lose a submission (count it
    /// aborted and answer `Wake`, as the process fleet does when a worker
    /// dies) and quarantine one.
    struct Scripted<'a, F> {
        run: F,
        opts: &'a ExploreOptions,
        width: usize,
        order: Order,
        held: Vec<(u64, DecisionSet)>,
        turn: usize,
        /// Lose every submission this many times before completing it.
        losses: u32,
        lost: HashMap<u64, u32>,
        /// Quarantine the schedule this predicate picks.
        poison: fn(&DecisionSet) -> bool,
        /// Every signature ever accepted, in order.
        accepted: Vec<u64>,
    }

    impl<'a, F: Fn(&DecisionSet) -> RunResult> Scripted<'a, F> {
        fn new(run: F, opts: &'a ExploreOptions, width: usize, order: Order) -> Self {
            Self {
                run,
                opts,
                width,
                order,
                held: Vec::new(),
                turn: 0,
                losses: 0,
                lost: HashMap::new(),
                poison: |_| false,
                accepted: Vec::new(),
            }
        }
    }

    impl<F: Fn(&DecisionSet) -> RunResult> Executor for Scripted<'_, F> {
        fn idle(&self) -> usize {
            self.width - self.held.len()
        }

        fn in_flight(&self) -> usize {
            self.held.len()
        }

        fn submit(&mut self, sig: u64, decisions: &DecisionSet) -> bool {
            if self.held.len() >= self.width || self.held.iter().any(|(s, _)| *s == sig) {
                return false;
            }
            self.held.push((sig, decisions.clone()));
            self.accepted.push(sig);
            true
        }

        fn next(&mut self) -> io::Result<Event> {
            if self.held.is_empty() {
                return Err(io::Error::other("scripted executor holds nothing"));
            }
            self.turn += 1;
            let last = self.held.len() - 1;
            let pick = match self.order {
                Order::Reverse => last,
                Order::Interleaved => (self.turn % 2) * last,
                Order::TopLast => last.min(1),
            };
            let (sig, decisions) = self.held.remove(pick);
            let lost = self.lost.entry(sig).or_insert(0);
            let poisoned = (self.poison)(&decisions);
            if *lost < self.losses || poisoned {
                // Either way the accepted submission is gone: aborted.
                *lost += 1;
                emit(self.opts, || CampaignEvent::Aborted { n: 1 });
                return Ok(if poisoned {
                    Event::Quarantined(sig, "poison".into())
                } else {
                    Event::Wake
                });
            }
            let rep = execute_with_retry(&mut |ds| (self.run)(ds), &decisions, self.opts);
            Ok(Event::Completed(sig, Box::new(rep)))
        }
    }

    /// 3 epochs x 3 sources with everything the commit path has to keep in
    /// order: schedule-dependent makespans (so the f64 total is
    /// order-sensitive), a bug on one leaf, a diverging schedule (retried,
    /// several attempt makespans) and a schedule whose replay times out.
    fn model_run() -> impl Fn(&DecisionSet) -> RunResult + Sync {
        let base = synthetic_run(3, 3);
        move |ds: &DecisionSet| {
            let mut r = base(ds);
            let weight: usize = ds.decisions.iter().map(|d| d.src + 1).sum();
            r.outcome.makespan = 1.0 + 0.1 * weight as f64;
            if ds.lookup(0, 0) == Some(2) && ds.lookup(0, 1) == Some(2) {
                r.outcome.rank_errors[0] = Some(MpiError::UserAssert {
                    message: "x==33".into(),
                });
            }
            if ds.lookup(0, 2) == Some(1) {
                r.stats.divergences = 1;
            }
            if is_poison(ds) {
                r.outcome.fatal = Some(MpiError::ReplayTimeout {
                    detail: "poison".into(),
                });
                r.outcome.makespan = 0.0;
                r.epochs.clear();
                r.stats = ToolRunStats::default();
            }
            r
        }
    }

    fn is_poison(ds: &DecisionSet) -> bool {
        ds.decisions.len() == 2 && ds.lookup(0, 0) == Some(1) && ds.lookup(0, 1) == Some(1)
    }

    fn observed(tag: &str, max: Option<u64>) -> (ExploreOptions, Arc<CampaignMetrics>, PathBuf) {
        let journal = std::env::temp_dir().join(format!(
            "dampi-driver-test-{}-{tag}.journal",
            std::process::id()
        ));
        let metrics = CampaignMetrics::new();
        let opts = ExploreOptions {
            max_interleavings: max,
            checkpoint: Some(journal.clone()),
            metrics: Some(metrics.clone()),
            ..opts(MixingBound::Unbounded)
        };
        (opts, metrics, journal)
    }

    fn assert_ledger_balances(m: &CampaignMetrics, ex: &Exploration) {
        assert_eq!(m.progress().committed, ex.interleavings);
        assert_eq!(m.check(), Ok(()));
    }

    /// The in-order-commit argument, checked without relying on thread
    /// timing: whatever order results come back in, however often a
    /// submission is lost, the exploration is the inline one.
    #[test]
    fn scripted_completion_orders_match_inline() {
        for max in [Some(1_000_000), Some(7)] {
            let (o, m, inline_j) = observed("inline", max);
            let inline = explore(model_run(), &o);
            assert_ledger_balances(&m, &inline);
            let aborted =
                m.snapshot("model", 1, "lamport", 1)["wall_clock"]["replays_aborted"].clone();
            assert_eq!(aborted, 0, "the inline executor never speculates");
            let inline_bytes = std::fs::read(&inline_j).expect("inline journal");
            if !inline.budget_exhausted {
                assert_eq!(inline.errors.len(), 1);
                assert!(inline.retries > 0 && inline.timeouts.len() == 1);
            }

            for order in [Order::Reverse, Order::Interleaved, Order::TopLast] {
                for (width, losses) in [(1, 0), (3, 0), (4, 2), (8, 1)] {
                    let (o, m, j) = observed("scripted", max);
                    let mut exec = Scripted::new(model_run(), &o, width, order);
                    exec.losses = losses;
                    let ex = drive(&o, &mut exec, Start::default()).expect("scripted campaign");
                    assert_equiv(&inline, &ex);
                    assert_ledger_balances(&m, &ex);
                    // Speculation is never journaled, budget or not.
                    assert_eq!(
                        inline_bytes,
                        std::fs::read(&j).expect("scripted journal"),
                        "journal diverged: {order:?} width {width} losses {losses}"
                    );
                    let _ = std::fs::remove_file(j);
                }
            }
            let _ = std::fs::remove_file(inline_j);
        }
    }

    /// A quarantine commits as the timeout the schedule would have been,
    /// at its depth-first turn, and is counted.
    #[test]
    fn scripted_quarantine_commits_in_walk_order() {
        let (o, _, inline_j) = observed("q-inline", Some(1_000_000));
        let inline = explore(model_run(), &o);
        let (o, m, j) = observed("q-scripted", Some(1_000_000));
        let mut exec = Scripted::new(model_run(), &o, 4, Order::Reverse);
        exec.poison = is_poison;
        let ex = drive(&o, &mut exec, Start::default()).expect("scripted campaign");
        assert_equiv(&inline, &ex);
        assert_eq!(ex.timeouts[0].detail, inline.timeouts[0].detail);
        assert_eq!((inline.quarantined, ex.quarantined), (0, 1));
        assert_ledger_balances(&m, &ex);
        let _ = std::fs::remove_file(inline_j);
        let _ = std::fs::remove_file(j);
    }

    /// Kill the scripted campaign after every commit and resume it under
    /// another executor shape: the exploration, the ledger and the journal
    /// bytes are the uninterrupted campaign's. A quarantine served from the
    /// journal stays a quarantine, even where the resuming executor would
    /// have run that schedule cleanly.
    #[test]
    fn resume_at_every_cut_re_derives_the_campaign() {
        let (o, _, full_j) = observed("r-full", Some(1_000_000));
        let mut exec = Scripted::new(model_run(), &o, 4, Order::Reverse);
        exec.poison = is_poison;
        let full = drive(&o, &mut exec, Start::default()).expect("scripted campaign");
        let full_bytes = std::fs::read(&full_j).expect("journal");
        assert_eq!(full.quarantined, 1);
        for cut in 1..full.interleavings {
            let (o, _, j) = observed("r-cut", Some(cut));
            let mut exec = Scripted::new(model_run(), &o, 3, Order::Interleaved);
            exec.poison = is_poison;
            let partial = drive(&o, &mut exec, Start::default()).expect("partial campaign");
            let journal = ExplorationJournal::load(&j).expect("journal");
            assert_eq!(journal.commits() as u64, cut);

            let m = CampaignMetrics::new();
            let o = ExploreOptions {
                max_interleavings: Some(1_000_000),
                metrics: Some(m.clone()),
                ..o
            };
            let mut exec = Scripted::new(model_run(), &o, 2, Order::TopLast);
            if partial.quarantined == 0 {
                exec.poison = is_poison;
            }
            let start = Start {
                journal: Some(journal),
                ..Start::default()
            };
            let resumed = drive(&o, &mut exec, start).expect("resumed");
            assert_equiv(&full, &resumed);
            assert_eq!(resumed.quarantined, 1, "cut {cut}");
            assert_ledger_balances(&m, &resumed);
            assert!(
                std::fs::read(&j).expect("journal") == full_bytes,
                "cut {cut}"
            );
            let _ = std::fs::remove_file(j);
        }
        let _ = std::fs::remove_file(full_j);
    }

    /// A pre-executed free run is committed as the root by the driver and
    /// never reaches the executor.
    #[test]
    fn first_run_is_committed_not_dispatched() {
        let o = opts(MixingBound::Unbounded);
        let fresh = explore(model_run(), &o);
        let first = model_run()(&DecisionSet::self_run());
        let mut exec = Scripted::new(model_run(), &o, 2, Order::TopLast);
        let start = Start {
            first_run: Some(first),
            ..Start::default()
        };
        let ex = drive(&o, &mut exec, start).expect("scripted campaign");
        assert_equiv(&fresh, &ex);
        let root = DecisionSet::self_run().signature();
        assert!(!exec.accepted.contains(&root));
        assert_eq!(exec.accepted.len() as u64, ex.interleavings - 1);
    }
}
