//! Campaign observability: counters, histograms, and a span-style trace.
//!
//! A long verification campaign (paper §IV: thousands of replays) must not
//! be a black box between launch and the final [`VerificationReport`](crate::report::VerificationReport). This
//! module provides the instrumentation layer every perf PR is judged with:
//!
//! * [`CampaignMetrics`] — cheap atomic counters and fixed-bucket
//!   histograms, shared by the scheduler walk, the replay workers, and the
//!   CLI's live progress reporter. When no sink is installed the
//!   exploration pays only an `Option` check per replay.
//! * [`CampaignTrace`] — a schema-versioned JSONL event stream (the
//!   [`dampi_mpi::trace`] event-writer pattern lifted to campaign
//!   granularity): one line per replay start/commit, checkpoint, timeout,
//!   and campaign boundary.
//!
//! # Determinism contract
//!
//! Metrics come in two classes, kept in separate sections of the exported
//! snapshot:
//!
//! * **Semantic** (`"semantic"`, deterministic): quantities defined by the
//!   exploration itself — interleaving counts, epoch-tree depth/width,
//!   error sets, late-message classification totals, piggyback wire bytes.
//!   These are updated exclusively from the walk's commit path, which the
//!   parallel driver executes in exactly the sequential order (see
//!   [`crate::scheduler`]), so the serialized `semantic` object is
//!   **byte-identical** for `--jobs 1` and `--jobs N`.
//! * **Wall-clock** (`"wall_clock"`, explicitly marked
//!   `"deterministic": false`): scheduling and timing facts — replays
//!   started/aborted, speculation hits, worker busy/idle time, journal
//!   write latency, per-replay wall latency. These depend on thread timing
//!   and differ run to run.
//!
//! Beside them sit the replay-cache ledger (`"cache"`) and the runtime
//! census (`"runtime"`): parks, wakes, turn passes and spurious wakes
//! summed over the committed replays this process executed. Cache hits and
//! shard workers' results count zero there, and free-running counts
//! follow thread timing, so neither section is semantic.
//!
//! The [`CampaignTrace`] is wall-clock-ordered by construction (events are
//! appended as they happen across threads) and is therefore *not*
//! deterministic across worker counts; its per-event payloads for commit
//! events are.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dampi_mpi::RuntimeCensus;
use parking_lot::Mutex;
use serde::Serialize;

use crate::epoch::ToolRunStats;
use crate::scheduler::Exploration;

/// Version of the metrics snapshot schema (the `"schema"` key). 3 added
/// the `runtime` section.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// Version of the campaign-trace JSONL schema (the `"v"` key on every
/// line).
pub const TRACE_SCHEMA_VERSION: u32 = 1;

// ---- Fixed-bucket histogram -----------------------------------------------

/// Lock-free fixed-bucket histogram: `record` is one atomic increment per
/// bucket plus two for the running sum/count, cheap enough for hot paths.
#[derive(Debug)]
pub struct FixedHistogram {
    /// Inclusive upper bounds, ascending; values above the last bound land
    /// in the overflow bucket.
    bounds: Vec<u64>,
    /// One counter per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl FixedHistogram {
    /// Histogram over the given inclusive upper bounds (must be ascending).
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Microsecond-latency buckets (1µs .. 10s), the default for I/O and
    /// replay latencies.
    #[must_use]
    pub fn latency_us() -> Self {
        Self::new(&[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000])
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// JSON snapshot: `{"buckets": [{"le": bound, "n": count}, ...],
    /// "overflow": n, "count": c, "sum": s}`.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let buckets: Vec<serde_json::Value> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(le, n)| serde_json::json!({"le": le, "n": n.load(Ordering::Relaxed)}))
            .collect();
        serde_json::json!({
            "buckets": buckets,
            "overflow": self.counts[self.bounds.len()].load(Ordering::Relaxed),
            "count": self.count(),
            "sum": self.sum(),
        })
    }
}

// ---- Semantic metrics ------------------------------------------------------

/// Deterministic, commit-ordered campaign quantities. Updated only by the
/// walk's commit path, which runs in the identical order for any `--jobs`
/// value; see the module docs for the determinism contract.
#[derive(Debug, Default, Clone)]
pub struct SemanticMetrics {
    /// Forks pushed onto the frontier across the campaign.
    pub forks_discovered: u64,
    /// Largest frontier ever observed (after a commit's fork pushes).
    pub frontier_peak: u64,
    /// Frontier size after the most recent commit.
    pub frontier_size: u64,
    /// Deepest committed replay (number of forced decisions; the initial
    /// `SELF_RUN` has depth 0).
    pub tree_depth_max: u64,
    /// Committed replays per decision depth — the epoch tree's width
    /// profile.
    pub replays_by_depth: BTreeMap<u64, u64>,
    /// Tool-stat sums over every committed run (final attempt of each).
    pub wildcards: u64,
    /// Messages analyzed by `FindPotentialMatches` across committed runs.
    pub messages_analyzed: u64,
    /// Of those, messages classified *late* (potential alternate matches).
    pub late_messages: u64,
    /// Piggyback messages generated across committed runs.
    pub pb_messages: u64,
    /// Piggyback wire bytes across committed runs (grows with world size
    /// under vector clocks — the §II-C scalability argument, measured).
    pub pb_wire_bytes: u64,
    /// Unreceived messages drained and analyzed at finalize.
    pub drained_messages: u64,
    /// §V unsafe-pattern monitor alerts across committed runs.
    pub unsafe_alerts: u64,
    /// Frontier alternates dropped by the static prune plan across
    /// committed runs (see `dampi_core::prune`).
    pub alternates_pruned: u64,
    /// Committed epoch instances the static analysis proved deterministic
    /// (singleton feasible sender set — no branching possible).
    pub wildcards_deterministic: u64,
    /// Frontier alternates dropped only by the fixed-point positional
    /// refinement (disjoint from `alternates_pruned`).
    pub refined_alternates_pruned: u64,
    /// Committed epoch instances only the refinement fixed point proved
    /// deterministic (disjoint from `wildcards_deterministic`).
    pub refined_wildcards_deterministic: u64,
    /// Frontier alternates dropped because the protocol's local type
    /// forbids their sender at that receive state (plan v3, disjoint from
    /// the envelope/refinement counters).
    pub protocol_alternates_pruned: u64,
    /// Committed epoch instances whose wildcard the protocol proved
    /// deterministic (the local type admits exactly one sender role).
    pub protocol_wildcards_deterministic: u64,
}

impl SemanticMetrics {
    fn absorb_commit(&mut self, oc: &ObservedCommit, frontier: usize) {
        self.forks_discovered += oc.forks_pushed as u64;
        self.frontier_size = frontier as u64;
        self.frontier_peak = self.frontier_peak.max(frontier as u64);
        self.tree_depth_max = self.tree_depth_max.max(oc.depth as u64);
        *self.replays_by_depth.entry(oc.depth as u64).or_insert(0) += 1;
        self.wildcards += oc.stats.wildcards;
        self.messages_analyzed += oc.stats.messages_analyzed;
        self.late_messages += oc.stats.late_messages;
        self.pb_messages += oc.stats.pb_messages;
        self.pb_wire_bytes += oc.stats.pb_wire_bytes;
        self.drained_messages += oc.stats.drained_messages;
        self.unsafe_alerts += oc.stats.unsafe_alerts;
        self.alternates_pruned += oc.alternates_pruned;
        self.wildcards_deterministic += oc.wildcards_deterministic;
        self.refined_alternates_pruned += oc.refined_alternates_pruned;
        self.refined_wildcards_deterministic += oc.refined_wildcards_deterministic;
        self.protocol_alternates_pruned += oc.protocol_alternates_pruned;
        self.protocol_wildcards_deterministic += oc.protocol_wildcards_deterministic;
    }
}

/// What the walk reports to the sinks when it commits one replay.
#[derive(Debug, Clone, Copy)]
pub struct ObservedCommit {
    /// 1-based interleaving number.
    pub interleaving: u64,
    /// Forced-decision count of the committed schedule (0 = `SELF_RUN`).
    pub depth: usize,
    /// Forks this commit pushed onto the frontier.
    pub forks_pushed: usize,
    /// Distinct new errors this commit contributed.
    pub new_errors: usize,
    /// Simulated makespan of the final attempt.
    pub makespan: f64,
    /// Execution attempts (1 + divergence retries).
    pub attempts: u64,
    /// Final attempt's tool stats.
    pub stats: ToolRunStats,
    /// Watchdog detail when the replay was killed over budget.
    pub timed_out: bool,
    /// Frontier alternates the static prune plan dropped at this commit.
    pub alternates_pruned: u64,
    /// Epoch instances in this commit the plan proved deterministic.
    pub wildcards_deterministic: u64,
    /// Alternates dropped at this commit by the refinement fixed point
    /// alone (disjoint from `alternates_pruned`).
    pub refined_alternates_pruned: u64,
    /// Epoch instances only the refinement proved deterministic.
    pub refined_wildcards_deterministic: u64,
    /// Alternates dropped at this commit because the protocol forbids
    /// their sender (disjoint from the other prune counters).
    pub protocol_alternates_pruned: u64,
    /// Epoch instances the protocol proved deterministic at this commit.
    pub protocol_wildcards_deterministic: u64,
    /// Park/wake counts of the final attempt, when this process executed
    /// it. A cache hit or a shard worker's result carries zeros: the
    /// census is never serialized (`RunOutcome::census`).
    pub census: RuntimeCensus,
}

// ---- Campaign metrics ------------------------------------------------------

/// Aggregated end-of-campaign numbers copied from the final
/// [`Exploration`] (deterministic — they are the exploration's own
/// fields).
#[derive(Debug, Default, Clone)]
struct FinalMetrics {
    interleavings: u64,
    errors: Vec<(u64, usize, String)>,
    divergences: u64,
    retries: u64,
    timeouts: u64,
    total_virtual_time: f64,
    budget_exhausted: bool,
    finished: bool,
}

/// The campaign metrics sink. One instance observes one exploration; share
/// it via [`Arc`] between the verifier, the CLI progress reporter, and the
/// snapshot writer. All methods take `&self` and are thread-safe.
#[derive(Debug)]
pub struct CampaignMetrics {
    /// Replays dispatched for execution (root + every job handed to a
    /// worker or popped by the sequential walk). Wall-clock-dependent
    /// under `--jobs N`: speculation dispatches ahead of the commit order.
    started: AtomicU64,
    /// Replays committed (mirror of the semantic interleaving count, kept
    /// atomic so the progress reporter can read it without locking).
    committed: AtomicU64,
    /// Replays dispatched but never committed: speculation past a
    /// budget/stop boundary, cancelled or still in flight at shutdown.
    aborted: AtomicU64,
    /// Commits whose replay had already completed speculatively before the
    /// fork reached the top of the frontier (latency fully hidden).
    speculation_hits: AtomicU64,
    /// Worker-pool size of the exploration (0 = sequential).
    workers: AtomicU64,
    /// Wall-clock nanoseconds workers spent executing replays.
    worker_busy_ns: AtomicU64,
    /// Wall-clock nanoseconds workers spent waiting for work.
    worker_idle_ns: AtomicU64,
    /// Per-replay wall latency (execution only, µs).
    replay_wall_us: FixedHistogram,
    /// Journal checkpoint write latency (µs).
    journal_write_us: FixedHistogram,
    /// Worker processes (or in-process stand-ins) spawned by the shard
    /// supervisor, initial fleet and restarts included. Zero outside
    /// `--shards` runs.
    workers_spawned: AtomicU64,
    /// Workers declared lost (crash, silence past the heartbeat timeout,
    /// wedged past the lease, or a corrupt result frame).
    workers_lost: AtomicU64,
    /// Lost workers successfully replaced (`workers_restarted <=
    /// workers_lost`; the difference is slots that exhausted their restart
    /// budget).
    workers_restarted: AtomicU64,
    /// Subtrees dispatched again after their worker was lost (attempt 2+).
    subtrees_redispatched: AtomicU64,
    /// Subtrees quarantined after exhausting their dispatch attempts.
    quarantined: AtomicU64,
    /// 1 when a persistent replay cache was attached to the campaign.
    cache_enabled: AtomicU64,
    /// 1 when the attached cache was opened read-only.
    cache_readonly: AtomicU64,
    /// Commits satisfied from the persistent replay cache (counted on the
    /// deterministic commit path only, so the tally is identical at any
    /// `--jobs`/`--shards` setting).
    cache_hits: AtomicU64,
    /// Commits that had to execute (or quarantine) because the cache had
    /// no valid entry. `hits + misses == replays_committed` exactly.
    cache_misses: AtomicU64,
    /// Cache entries successfully written after a miss committed.
    cache_stores: AtomicU64,
    /// On-disk entries rejected as corrupt/stale by the cache handle.
    cache_stale: AtomicU64,
    /// Campaign wall-clock epoch.
    start: Instant,
    semantic: Mutex<SemanticMetrics>,
    /// Park/wake counts summed over the committed replays this process
    /// executed (the final attempt of each). Cache hits and shard results
    /// add zeros, and free-running counts depend on thread scheduling, so
    /// the sums stay out of the semantic section.
    runtime: Mutex<RuntimeCensus>,
    fin: Mutex<FinalMetrics>,
}

impl Default for CampaignMetrics {
    fn default() -> Self {
        Self {
            started: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            speculation_hits: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            worker_busy_ns: AtomicU64::new(0),
            worker_idle_ns: AtomicU64::new(0),
            replay_wall_us: FixedHistogram::latency_us(),
            journal_write_us: FixedHistogram::latency_us(),
            workers_spawned: AtomicU64::new(0),
            workers_lost: AtomicU64::new(0),
            workers_restarted: AtomicU64::new(0),
            subtrees_redispatched: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            cache_enabled: AtomicU64::new(0),
            cache_readonly: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_stores: AtomicU64::new(0),
            cache_stale: AtomicU64::new(0),
            start: Instant::now(),
            semantic: Mutex::new(SemanticMetrics::default()),
            runtime: Mutex::new(RuntimeCensus::default()),
            fin: Mutex::new(FinalMetrics::default()),
        }
    }
}

impl CampaignMetrics {
    /// Fresh sink behind an `Arc` for sharing with the exploration.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// One schedule was dispatched for execution.
    pub fn on_started(&self) {
        self.started.fetch_add(1, Ordering::Relaxed);
    }

    /// One replay finished executing (wall latency of the execution
    /// itself, all attempts included).
    pub fn on_executed(&self, wall: Duration) {
        let us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        self.replay_wall_us.record(us);
        self.worker_busy_ns.fetch_add(
            u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// A worker spent `idle` blocked waiting for work.
    pub fn on_worker_idle(&self, idle: Duration) {
        self.worker_idle_ns.fetch_add(
            u64::try_from(idle.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Record the worker-pool size.
    pub fn on_pool(&self, workers: usize) {
        self.workers.store(workers as u64, Ordering::Relaxed);
    }

    /// The walk committed one replay with `frontier` forks now pending.
    pub fn on_commit(&self, oc: &ObservedCommit, frontier: usize) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.semantic.lock().absorb_commit(oc, frontier);
        *self.runtime.lock() += oc.census;
    }

    /// A commit's result had already completed speculatively.
    pub fn on_speculation_hit(&self) {
        self.speculation_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` dispatched replays were discarded without committing.
    pub fn on_aborted(&self, n: u64) {
        self.aborted.fetch_add(n, Ordering::Relaxed);
    }

    /// The shard supervisor spawned a worker (initial fleet or restart).
    pub fn on_worker_spawned(&self) {
        self.workers_spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard supervisor declared a worker lost.
    pub fn on_worker_lost(&self) {
        self.workers_lost.fetch_add(1, Ordering::Relaxed);
    }

    /// A lost worker's slot was successfully respawned.
    pub fn on_worker_restarted(&self) {
        self.workers_restarted.fetch_add(1, Ordering::Relaxed);
    }

    /// A subtree was dispatched again after its worker was lost.
    pub fn on_subtree_redispatched(&self) {
        self.subtrees_redispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// A subtree was quarantined after exhausting its dispatch attempts.
    pub fn on_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// A persistent replay cache is attached to this campaign.
    pub fn on_cache_enabled(&self, readonly: bool) {
        self.cache_enabled.store(1, Ordering::Relaxed);
        self.cache_readonly
            .store(u64::from(readonly), Ordering::Relaxed);
    }

    /// A commit was satisfied from the persistent replay cache.
    pub fn on_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A commit executed (or quarantined) because the cache missed.
    pub fn on_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A missed result was written back to the cache.
    pub fn on_cache_store(&self) {
        self.cache_stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the cache handle's total stale-entry count (idempotent
    /// store, called once at campaign end).
    pub fn on_cache_stale(&self, total: u64) {
        self.cache_stale.store(total, Ordering::Relaxed);
    }

    /// One journal checkpoint was written.
    pub fn on_checkpoint(&self, latency: Duration) {
        self.journal_write_us
            .record(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// The exploration ended; copy its deterministic aggregates.
    pub fn on_finish(&self, ex: &Exploration) {
        let mut f = self.fin.lock();
        f.interleavings = ex.interleavings;
        f.errors = ex
            .errors
            .iter()
            .map(|e| (e.interleaving, e.rank, e.error.to_string()))
            .collect();
        f.divergences = ex.divergences;
        f.retries = ex.retries;
        f.timeouts = ex.timeouts.len() as u64;
        f.total_virtual_time = ex.total_virtual_time;
        f.budget_exhausted = ex.budget_exhausted;
        f.finished = true;
    }

    /// Live counters for a progress display (safe to call mid-campaign).
    #[must_use]
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            committed: self.committed.load(Ordering::Relaxed),
            started: self.started.load(Ordering::Relaxed),
            frontier: self.semantic.lock().frontier_size,
            elapsed: self.start.elapsed(),
        }
    }

    /// Replays committed so far (lock-free).
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Replays dispatched so far (lock-free).
    #[must_use]
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Replays dispatched but never committed (final after the
    /// exploration returns).
    #[must_use]
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// End-of-campaign snapshot as schema-versioned JSON. The `semantic`
    /// section is byte-identical across `--jobs` values; the `wall_clock`
    /// section is explicitly marked non-deterministic. Call after the
    /// exploration returns ([`Self::on_finish`] has run).
    #[must_use]
    pub fn snapshot(
        &self,
        program: &str,
        nprocs: usize,
        clock_mode: &str,
        jobs: usize,
    ) -> serde_json::Value {
        let s = self.semantic.lock().clone();
        let f = self.fin.lock().clone();
        let errors: Vec<serde_json::Value> = f
            .errors
            .iter()
            .map(|(interleaving, rank, message)| {
                serde_json::json!({
                    "interleaving": interleaving,
                    "rank": rank,
                    "message": message,
                })
            })
            .collect();
        let by_depth: serde_json::Map<String, serde_json::Value> = s
            .replays_by_depth
            .iter()
            .map(|(d, n)| (d.to_string(), serde_json::json!(n)))
            .collect();
        let late_rate = if s.messages_analyzed > 0 {
            s.late_messages as f64 / s.messages_analyzed as f64
        } else {
            0.0
        };
        let elapsed = self.start.elapsed().as_secs_f64();
        let committed = self.committed();
        let semantic = serde_json::json!({
            "clock_mode": clock_mode,
            "interleavings": f.interleavings,
            "errors": errors,
            "divergences": f.divergences,
            "retries": f.retries,
            "timeouts": f.timeouts,
            "budget_exhausted": f.budget_exhausted,
            "total_virtual_time_s": f.total_virtual_time,
            "forks_discovered": s.forks_discovered,
            "frontier_peak": s.frontier_peak,
            "frontier_final": s.frontier_size,
            "tree_depth_max": s.tree_depth_max,
            "replays_by_depth": serde_json::Value::Object(by_depth),
            "wildcards": s.wildcards,
            "messages_analyzed": s.messages_analyzed,
            "late_messages": s.late_messages,
            "late_message_rate": late_rate,
            "pb_messages": s.pb_messages,
            "pb_wire_bytes": s.pb_wire_bytes,
            "drained_messages": s.drained_messages,
            "unsafe_alerts": s.unsafe_alerts,
            "alternates_pruned": s.alternates_pruned,
            "wildcards_deterministic": s.wildcards_deterministic,
            "refined_alternates_pruned": s.refined_alternates_pruned,
            "refined_wildcards_deterministic": s.refined_wildcards_deterministic,
            "protocol_alternates_pruned": s.protocol_alternates_pruned,
            "protocol_wildcards_deterministic": s.protocol_wildcards_deterministic,
        });
        let shard = serde_json::json!({
            "workers_spawned": self.workers_spawned.load(Ordering::Relaxed),
            "workers_lost": self.workers_lost.load(Ordering::Relaxed),
            "workers_restarted": self.workers_restarted.load(Ordering::Relaxed),
            "subtrees_redispatched": self.subtrees_redispatched.load(Ordering::Relaxed),
            "quarantined": self.quarantined.load(Ordering::Relaxed),
        });
        let cache = serde_json::json!({
            "enabled": self.cache_enabled.load(Ordering::Relaxed) == 1,
            "readonly": self.cache_readonly.load(Ordering::Relaxed) == 1,
            "hits": self.cache_hits.load(Ordering::Relaxed),
            "misses": self.cache_misses.load(Ordering::Relaxed),
            "stores": self.cache_stores.load(Ordering::Relaxed),
            "stale": self.cache_stale.load(Ordering::Relaxed),
        });
        let rt = *self.runtime.lock();
        let runtime = serde_json::json!({
            "parks": rt.parks,
            "wakes": rt.wakes,
            "turn_passes": rt.turn_passes,
            "spurious_wakes": rt.spurious_wakes,
        });
        let wall_clock = serde_json::json!({
            "deterministic": false,
            "wall_s": elapsed,
            "replays_per_s": if elapsed > 0.0 { committed as f64 / elapsed } else { 0.0 },
            "replays_started": self.started(),
            "replays_committed": committed,
            "replays_aborted": self.aborted(),
            "speculation_hits": self.speculation_hits.load(Ordering::Relaxed),
            "workers": self.workers.load(Ordering::Relaxed),
            "worker_busy_s": self.worker_busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            "worker_idle_s": self.worker_idle_ns.load(Ordering::Relaxed) as f64 / 1e9,
            "replay_wall_us": self.replay_wall_us.to_json(),
            "journal_write_us": self.journal_write_us.to_json(),
            "shard": shard,
        });
        serde_json::json!({
            "schema": METRICS_SCHEMA_VERSION,
            "program": program,
            "nprocs": nprocs,
            "jobs": jobs,
            "finished": f.finished,
            "semantic": semantic,
            "wall_clock": wall_clock,
            "cache": cache,
            "runtime": runtime,
        })
    }
}

/// Live counters read by a progress display.
#[derive(Debug, Clone, Copy)]
pub struct ProgressSnapshot {
    /// Replays committed so far.
    pub committed: u64,
    /// Replays dispatched so far.
    pub started: u64,
    /// Frontier size after the latest commit.
    pub frontier: u64,
    /// Wall-clock time since the sink was created.
    pub elapsed: Duration,
}

impl ProgressSnapshot {
    /// Committed replays per wall-clock second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.committed as f64 / s
        } else {
            0.0
        }
    }

    /// Estimated seconds to exhaust the remaining interleaving budget at
    /// the current rate (an upper bound — the frontier may drain first).
    #[must_use]
    pub fn eta_s(&self, max_interleavings: Option<u64>) -> Option<f64> {
        let max = max_interleavings?;
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        Some(max.saturating_sub(self.committed) as f64 / rate)
    }
}

// ---- Campaign trace --------------------------------------------------------

/// One campaign event, serialized as the JSONL line payload.
#[derive(Debug, Clone, Serialize)]
pub enum CampaignEvent {
    /// The exploration began.
    CampaignStart {
        /// Worker-pool size (1 = sequential).
        jobs: usize,
        /// True when continuing from a checkpoint journal.
        resumed: bool,
    },
    /// A replay began executing (wall-clock order, any worker).
    ReplayStart {
        /// Decision-prefix signature of the schedule.
        signature: u64,
    },
    /// The walk committed a replay (commit order — deterministic payload).
    ReplayCommit {
        /// 1-based interleaving number.
        interleaving: u64,
        /// Forced-decision count (0 = `SELF_RUN`).
        depth: usize,
        /// Forks pushed onto the frontier by this commit.
        forks_pushed: usize,
        /// Frontier size after the pushes.
        frontier: usize,
        /// Distinct new errors contributed.
        new_errors: usize,
        /// Simulated makespan of the final attempt.
        makespan_s: f64,
        /// Execution attempts (1 + divergence retries).
        attempts: u64,
        /// True when the watchdog killed the replay (subtree not
        /// expanded).
        timed_out: bool,
    },
    /// A commit was satisfied from the persistent replay cache — no
    /// replay was spawned for this schedule (hence no `ReplayStart`).
    CacheHit {
        /// Decision-prefix signature of the schedule.
        signature: u64,
    },
    /// A frontier checkpoint was journaled.
    Checkpoint {
        /// Write latency in microseconds.
        latency_us: u64,
        /// Frontier size journaled.
        frontier: usize,
    },
    /// The shard supervisor spawned a worker into a slot (`generation`
    /// counts incarnations of the slot, 0 = initial fleet).
    WorkerSpawned {
        /// Supervisor slot index.
        slot: usize,
        /// Incarnation number within the slot.
        generation: u64,
    },
    /// A worker was declared lost and killed.
    WorkerLost {
        /// Supervisor slot index.
        slot: usize,
        /// Human-readable loss verdict (heartbeat timeout, lease expiry,
        /// connection error, corrupt frame, ...).
        reason: String,
    },
    /// A subtree lost with its worker was dispatched again.
    SubtreeRedispatched {
        /// Decision-prefix signature of the schedule.
        signature: u64,
        /// 1-based dispatch attempt this event begins.
        attempt: u32,
    },
    /// A subtree exhausted its dispatch attempts and was quarantined: the
    /// campaign records it as a timeout (honest partial coverage) and
    /// keeps exploring the rest of the frontier.
    SubtreeQuarantined {
        /// Decision-prefix signature of the schedule.
        signature: u64,
        /// Dispatch attempts consumed before giving up.
        attempts: u32,
    },
    /// A sharded campaign was drained early (SIGTERM) and checkpointed.
    CampaignDrained {
        /// Frontier size preserved in the checkpoint journal.
        frontier: usize,
    },
    /// The exploration ended.
    CampaignEnd {
        /// Total interleavings executed.
        interleavings: u64,
        /// Distinct errors found.
        errors: usize,
        /// True when the interleaving budget stopped the walk.
        budget_exhausted: bool,
    },
}

/// One JSONL line: schema version, microseconds since campaign start, and
/// the event payload.
#[derive(Debug, Clone, Serialize)]
pub struct TraceRecord {
    /// Trace schema version ([`TRACE_SCHEMA_VERSION`]).
    pub v: u32,
    /// Microseconds since the trace was opened (wall clock).
    pub t_us: u64,
    /// The event.
    pub event: CampaignEvent,
}

/// Append-only JSONL sink for [`CampaignEvent`]s. Thread-safe; writes are
/// line-atomic under an internal lock.
pub struct CampaignTrace {
    start: Instant,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for CampaignTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignTrace").finish_non_exhaustive()
    }
}

impl CampaignTrace {
    /// Trace into any writer (buffer it yourself if it is a raw file).
    #[must_use]
    pub fn to_writer(w: Box<dyn Write + Send>) -> Arc<Self> {
        Arc::new(Self {
            start: Instant::now(),
            sink: Mutex::new(w),
        })
    }

    /// Trace into a buffered file created (truncated) at `path`.
    pub fn to_file(path: &Path) -> io::Result<Arc<Self>> {
        let f = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(io::BufWriter::new(f))))
    }

    /// Trace into a shared in-memory buffer (tests).
    #[must_use]
    pub fn to_shared_buffer() -> (Arc<Self>, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let writer = SharedBuffer(Arc::clone(&buf));
        (Self::to_writer(Box::new(writer)), buf)
    }

    /// Append one event as a JSONL line. Errors are swallowed after a
    /// best-effort stderr note — tracing must never kill a healthy
    /// campaign.
    pub fn emit(&self, event: CampaignEvent) {
        let rec = TraceRecord {
            v: TRACE_SCHEMA_VERSION,
            t_us: u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX),
            event,
        };
        let line = match serde_json::to_string(&rec) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("dampi: trace serialize failed: {e}");
                return;
            }
        };
        let mut g = self.sink.lock();
        if let Err(e) = writeln!(g, "{line}") {
            eprintln!("dampi: trace write failed: {e}");
        }
    }

    /// Flush buffered lines to the underlying writer.
    pub fn flush(&self) {
        let _ = self.sink.lock().flush();
    }
}

impl Drop for CampaignTrace {
    fn drop(&mut self) {
        let _ = self.sink.get_mut().flush();
    }
}

struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = FixedHistogram::new(&[10, 100]);
        h.record(5);
        h.record(10);
        h.record(50);
        h.record(1_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
        let j = h.to_json();
        assert_eq!(j["buckets"][0]["n"], 2, "{j:?}");
        assert_eq!(j["buckets"][1]["n"], 1);
        assert_eq!(j["overflow"], 1);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = FixedHistogram::new(&[10, 10]);
    }

    #[test]
    fn commit_updates_semantic_counters() {
        let m = CampaignMetrics::new();
        let stats = ToolRunStats {
            wildcards: 3,
            late_messages: 2,
            messages_analyzed: 5,
            pb_messages: 7,
            pb_wire_bytes: 168,
            ..Default::default()
        };
        m.on_commit(
            &ObservedCommit {
                interleaving: 1,
                depth: 0,
                forks_pushed: 4,
                new_errors: 0,
                makespan: 0.5,
                attempts: 1,
                stats,
                timed_out: false,
                alternates_pruned: 2,
                wildcards_deterministic: 1,
                refined_alternates_pruned: 3,
                refined_wildcards_deterministic: 1,
                protocol_alternates_pruned: 2,
                protocol_wildcards_deterministic: 1,
                census: RuntimeCensus {
                    parks: 5,
                    wakes: 4,
                    turn_passes: 6,
                    spurious_wakes: 1,
                },
            },
            4,
        );
        m.on_commit(
            &ObservedCommit {
                interleaving: 2,
                depth: 1,
                forks_pushed: 0,
                new_errors: 1,
                makespan: 0.5,
                attempts: 1,
                stats,
                timed_out: false,
                alternates_pruned: 0,
                wildcards_deterministic: 1,
                refined_alternates_pruned: 1,
                refined_wildcards_deterministic: 0,
                protocol_alternates_pruned: 0,
                protocol_wildcards_deterministic: 1,
                // A cache hit: nothing executed here.
                census: RuntimeCensus::default(),
            },
            3,
        );
        let s = m.semantic.lock().clone();
        assert_eq!(s.forks_discovered, 4);
        assert_eq!(s.frontier_peak, 4);
        assert_eq!(s.frontier_size, 3);
        assert_eq!(s.tree_depth_max, 1);
        assert_eq!(s.replays_by_depth[&0], 1);
        assert_eq!(s.replays_by_depth[&1], 1);
        assert_eq!(s.wildcards, 6);
        assert_eq!(s.pb_wire_bytes, 336);
        assert_eq!(s.alternates_pruned, 2);
        assert_eq!(s.wildcards_deterministic, 2);
        assert_eq!(s.refined_alternates_pruned, 4);
        assert_eq!(s.refined_wildcards_deterministic, 1);
        assert_eq!(s.protocol_alternates_pruned, 2);
        assert_eq!(s.protocol_wildcards_deterministic, 2);
        assert_eq!(m.committed(), 2);
        m.on_finish(&Exploration::default());
        let j = m.snapshot("demo", 4, "lamport", 1);
        assert_eq!(
            j["runtime"],
            serde_json::json!({"parks": 5, "wakes": 4, "turn_passes": 6, "spurious_wakes": 1})
        );
        assert!(
            j["semantic"].get("parks").is_none(),
            "census is not semantic"
        );
    }

    #[test]
    fn snapshot_has_schema_and_sections() {
        let m = CampaignMetrics::new();
        m.on_started();
        m.on_finish(&Exploration::default());
        let j = m.snapshot("demo", 4, "lamport", 2);
        assert_eq!(j["schema"], METRICS_SCHEMA_VERSION);
        assert_eq!(j["semantic"]["clock_mode"], "lamport");
        assert_eq!(j["wall_clock"]["deterministic"], false);
        assert_eq!(j["wall_clock"]["replays_started"], 1);
        assert_eq!(j["finished"], true);
    }

    #[test]
    fn trace_emits_schema_versioned_jsonl() {
        let (trace, buf) = CampaignTrace::to_shared_buffer();
        trace.emit(CampaignEvent::CampaignStart {
            jobs: 2,
            resumed: false,
        });
        trace.emit(CampaignEvent::CampaignEnd {
            interleavings: 7,
            errors: 1,
            budget_exhausted: false,
        });
        trace.flush();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
            assert_eq!(v["v"], TRACE_SCHEMA_VERSION);
        }
        let last: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(last["event"]["CampaignEnd"]["interleavings"], 7);
    }

    #[test]
    fn eta_uses_remaining_budget() {
        let p = ProgressSnapshot {
            committed: 50,
            started: 60,
            frontier: 10,
            elapsed: Duration::from_secs(10),
        };
        assert!((p.rate() - 5.0).abs() < 1e-9);
        let eta = p.eta_s(Some(100)).unwrap();
        assert!((eta - 10.0).abs() < 1e-9, "{eta}");
        assert!(p.eta_s(None).is_none());
    }
}
