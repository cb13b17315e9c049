//! Campaign observability: one event stream, and the metrics fold over it.
//!
//! A long verification campaign (paper §IV: thousands of replays) must not
//! be a black box between launch and the final [`VerificationReport`](crate::report::VerificationReport).
//! Everything a campaign reports about itself is a [`CampaignEvent`]. The
//! driver, the in-process executors and the shard supervisor state each
//! fact once, through a crate-private helper that stamps it into one
//! [`TraceRecord`] and hands that record to whichever sinks are attached;
//! with none attached it builds no event and reads no clock.
//!
//! * [`CampaignTrace`] appends it as one schema-versioned JSONL line (the
//!   [`dampi_mpi::trace`] event-writer pattern lifted to campaign
//!   granularity).
//! * [`CampaignMetrics`] folds it into the tally behind the `--metrics`
//!   snapshot. [`CampaignMetrics::from_trace`] runs the same fold over a
//!   saved trace, so a trace reproduces the snapshot of the run that wrote
//!   it. Most of the fold adds, so the order it sees those records in is
//!   immaterial. The pool width, cache mode, frontier and end record are
//!   last-write instead; they are order-safe because the driver thread
//!   alone emits `CampaignStart`, `ReplayCommit` and `CampaignEnd`.
//! * [`CampaignMetrics::check`] states the ledger's relations once
//!   (`replays_started == committed + aborted`, the fleet, cache and census
//!   bounds), and `from_trace` refuses a finished trace that breaks one.
//!
//! # Determinism contract
//!
//! Metrics come in two classes, kept in separate sections of the exported
//! snapshot:
//!
//! * **Semantic** (`"semantic"`, deterministic): a rendering of the
//!   finished [`Exploration`], carried by `CampaignEnd` — interleaving
//!   counts, epoch-tree depth/width, error sets, late-message
//!   classification totals, piggyback wire bytes, prune counters. The walk
//!   tallies them on its commit path, which the parallel driver executes in
//!   exactly the sequential order (see [`crate::scheduler`]), so the
//!   serialized `semantic` object is **byte-identical** for `--jobs 1` and
//!   `--jobs N`.
//! * **Wall-clock** (`"wall_clock"`, explicitly marked
//!   `"deterministic": false`): scheduling and timing facts — replays
//!   started/aborted, speculation hits, worker busy/idle time, journal
//!   write latency, per-replay wall latency, and `wall_s`, the `t_us` of
//!   `CampaignEnd`. These depend on thread timing and differ run to run.
//!
//! Beside them sit the replay-cache ledger (`"cache"`, whose hits and
//! misses are the exploration's too) and the runtime census (`"runtime"`):
//! turn passes summed over the committed replays this process executed.
//! Cache hits and shard workers' results count zero there, so neither
//! section is semantic.
//!
//! The trace is in wall-clock order across threads, so it is *not*
//! deterministic across worker counts; its commit events' payloads are.

use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dampi_mpi::RuntimeCensus;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::scheduler::{Exploration, ExploreOptions};

/// Version of the metrics snapshot schema (the `"schema"` key). 3 added
/// the `runtime` section; 4 left it only `turn_passes`, since ranks no
/// longer park.
pub const METRICS_SCHEMA_VERSION: u32 = 4;

/// Version of the campaign-trace JSONL schema (the `"v"` key on every
/// line). 2 made the trace carry every fact the metrics snapshot is folded
/// from: `Dispatched`, `ReplayExecuted`, `WorkerIdle` and `Aborted`, the
/// census and cache store on `ReplayCommit`, the cache mode on
/// `CampaignStart`, and the rendered sections on `CampaignEnd`. 3 cut the
/// census to its turn passes.
pub const TRACE_SCHEMA_VERSION: u32 = 3;

// ---- Fixed-bucket histogram -----------------------------------------------

/// Inclusive upper bounds of the microsecond-latency buckets (1µs .. 10s),
/// for I/O and replay latencies; values above the last land in the overflow
/// bucket.
const BOUNDS: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Fixed-bucket histogram over `BOUNDS`: one counter per bucket and a
/// running sum.
#[derive(Debug, Clone, Default)]
pub struct FixedHistogram {
    /// One counter per bound plus the overflow bucket.
    counts: [u64; BOUNDS.len() + 1],
    sum: u64,
}

impl FixedHistogram {
    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BOUNDS.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// JSON snapshot: `{"buckets": [{"le": bound, "n": count}, ...],
    /// "overflow": n, "count": c, "sum": s}`.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        let buckets: Vec<serde_json::Value> = BOUNDS
            .iter()
            .zip(&self.counts)
            .map(|(le, n)| serde_json::json!({"le": le, "n": n}))
            .collect();
        serde_json::json!({
            "buckets": buckets,
            "overflow": self.counts[BOUNDS.len()],
            "count": self.counts.iter().sum::<u64>(),
            "sum": self.sum,
        })
    }
}

// ---- Campaign metrics ------------------------------------------------------

/// The campaign metrics sink: a fold over one campaign's
/// [`TraceRecord`]s. Share it via [`Arc`] between the verifier, the CLI
/// progress reporter, and the snapshot writer. All methods take `&self`
/// and are thread-safe.
#[derive(Debug)]
pub struct CampaignMetrics {
    /// Creation time: the epoch of records stamped for this sink alone,
    /// and of [`ProgressSnapshot::elapsed`].
    start: Instant,
    tally: Mutex<Tally>,
}

/// What the fold has counted so far: one field per snapshot counter, each a
/// count or a sum of the [`CampaignEvent`]s that carry it.
#[derive(Debug, Default)]
struct Tally {
    started: u64,
    committed: u64,
    aborted: u64,
    speculation_hits: u64,
    workers: u64,
    worker_busy_ns: u64,
    worker_idle_ns: u64,
    replay_wall_us: FixedHistogram,
    journal_write_us: FixedHistogram,
    workers_spawned: u64,
    workers_lost: u64,
    workers_restarted: u64,
    subtrees_redispatched: u64,
    quarantined: u64,
    /// `Some(readonly)` when a persistent replay cache was attached.
    cache: Option<bool>,
    cache_stores: u64,
    /// Frontier size after the latest commit.
    frontier: u64,
    runtime: RuntimeCensus,
    /// The `CampaignEnd` record, once folded in.
    end: Option<TraceRecord>,
}

impl Tally {
    /// The folded `CampaignEnd`: its `t_us`, its `semantic` section and its
    /// cache ledger `[hits, misses, stale]`.
    fn ended(&self) -> Option<(u64, &serde_json::Value, [u64; 3])> {
        match &self.end {
            Some(TraceRecord {
                t_us,
                event:
                    CampaignEvent::CampaignEnd {
                        semantic,
                        hits,
                        misses,
                        stale,
                        ..
                    },
                ..
            }) => Some((*t_us, semantic, [*hits, *misses, *stale])),
            _ => None,
        }
    }
}

impl Default for CampaignMetrics {
    fn default() -> Self {
        Self {
            start: Instant::now(),
            tally: Mutex::default(),
        }
    }
}

impl CampaignMetrics {
    /// Fresh sink behind an `Arc` for sharing with the exploration.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The fold of a saved JSONL trace: the sink that observed the campaign
    /// which wrote it, snapshot for snapshot. Refuses a line that is not a
    /// record of this [`TRACE_SCHEMA_VERSION`], and a trace that holds a
    /// `CampaignEnd` but fails [`check`](Self::check). A trace with none (a
    /// killed campaign) is not checked.
    pub fn from_trace(trace: impl BufRead) -> io::Result<Self> {
        let m = Self::default();
        for (n, line) in trace.lines().enumerate() {
            let bad =
                |e: &dyn std::fmt::Display| io::Error::other(format!("trace line {}: {e}", n + 1));
            let rec: TraceRecord = serde_json::from_str(&line?).map_err(|e| bad(&e))?;
            if rec.v != TRACE_SCHEMA_VERSION {
                return Err(bad(&format_args!(
                    "schema v{}, not v{TRACE_SCHEMA_VERSION}",
                    rec.v
                )));
            }
            m.record(&rec);
        }
        if m.tally.lock().end.is_some() {
            m.check()
                .map_err(|e| io::Error::other(format!("trace ledger: {e}")))?;
        }
        Ok(m)
    }

    /// Fold one record in.
    pub fn record(&self, rec: &TraceRecord) {
        use CampaignEvent as E;
        let mut t = self.tally.lock();
        match &rec.event {
            E::CampaignStart { jobs, readonly, .. } => {
                t.workers = *jobs as u64;
                t.cache = *readonly;
            }
            E::Dispatched { .. } => t.started += 1,
            E::ReplayExecuted { wall_ns, .. } => {
                t.replay_wall_us.record(wall_ns / 1_000);
                t.worker_busy_ns = t.worker_busy_ns.saturating_add(*wall_ns);
            }
            E::WorkerIdle { idle_ns } => {
                t.worker_idle_ns = t.worker_idle_ns.saturating_add(*idle_ns);
            }
            E::ReplayCommit {
                frontier,
                census,
                speculated,
                stored,
                ..
            } => {
                t.committed += 1;
                t.frontier = *frontier as u64;
                t.runtime += *census;
                t.speculation_hits += u64::from(*speculated);
                t.cache_stores += u64::from(*stored);
            }
            E::Checkpoint { latency_us, .. } => t.journal_write_us.record(*latency_us),
            E::Aborted { n } => t.aborted += n,
            E::WorkerSpawned { generation, .. } => {
                t.workers_spawned += 1;
                t.workers_restarted += u64::from(*generation > 0);
            }
            E::WorkerLost { .. } => t.workers_lost += 1,
            E::SubtreeRedispatched { .. } => t.subtrees_redispatched += 1,
            E::SubtreeQuarantined { .. } => t.quarantined += 1,
            E::CampaignEnd { .. } => t.end = Some(rec.clone()),
            E::ReplayStart { .. } | E::CacheHit { .. } | E::CampaignDrained { .. } => {}
        }
    }

    /// Live counters for a progress display (safe to call mid-campaign).
    #[must_use]
    pub fn progress(&self) -> ProgressSnapshot {
        let t = self.tally.lock();
        ProgressSnapshot {
            committed: t.committed,
            frontier: t.frontier,
            elapsed: self.start.elapsed(),
        }
    }

    /// The ledger's relations, each a fact of every finished campaign:
    /// every dispatch was committed or aborted; a lost worker had been
    /// spawned and a restart answers a loss; a cache tallied each commit as
    /// one hit or one miss and stored only misses, and without a cache
    /// nothing is tallied; a campaign the cache served entirely ran no
    /// replay here.
    /// `Err` names the first relation that fails.
    pub fn check(&self) -> Result<(), String> {
        macro_rules! holds {
            ($ok:expr, $($relation:tt)+) => {
                if !$ok {
                    return Err(format!($($relation)+));
                }
            };
        }
        let t = self.tally.lock();
        let (started, committed, aborted) = (t.started, t.committed, t.aborted);
        holds!(
            started == committed + aborted,
            "replays_started {started} != replays_committed {committed} + replays_aborted {aborted}"
        );
        let (spawned, lost, restarted) = (t.workers_spawned, t.workers_lost, t.workers_restarted);
        holds!(
            lost <= spawned,
            "workers_lost {lost} > workers_spawned {spawned}"
        );
        holds!(
            restarted <= lost,
            "workers_restarted {restarted} > workers_lost {lost}"
        );
        let [hits, misses, stale] = t.ended().map_or([0; 3], |(_, _, ledger)| ledger);
        let stores = t.cache_stores;
        let rt = t.runtime;
        if t.cache.is_some() {
            holds!(
                hits + misses == committed,
                "cache: hits {hits} + misses {misses} != replays_committed {committed}"
            );
            holds!(stores <= misses, "cache: stores {stores} > misses {misses}");
            holds!(
                misses > 0 || rt == RuntimeCensus::default(),
                "runtime: {rt:?} from a campaign the cache served entirely"
            );
        } else {
            holds!(
                [hits, misses, stores, stale] == [0; 4],
                "cache disabled but hits {hits}, misses {misses}, stores {stores}, stale {stale}"
            );
        }
        Ok(())
    }

    /// End-of-campaign snapshot as schema-versioned JSON. The `semantic`
    /// section is byte-identical across `--jobs` values; the `wall_clock`
    /// section is explicitly marked non-deterministic. Call after the
    /// exploration returns (its `CampaignEnd` is folded in); before that,
    /// `finished` is false and `wall_s` is 0.
    #[must_use]
    pub fn snapshot(
        &self,
        program: &str,
        nprocs: usize,
        clock_mode: &str,
        jobs: usize,
    ) -> serde_json::Value {
        let t = self.tally.lock();
        let (mut semantic, wall_us, [hits, misses, stale]) = match t.ended() {
            Some((t_us, semantic, ledger)) => (semantic.clone(), t_us, ledger),
            None => (render_semantic(&Exploration::default()), 0, [0; 3]),
        };
        if let Some(mode) = semantic.get_mut("clock_mode") {
            *mode = serde_json::json!(clock_mode);
        }
        let wall_s = wall_us as f64 / 1e6;
        let shard = serde_json::json!({
            "workers_spawned": t.workers_spawned,
            "workers_lost": t.workers_lost,
            "workers_restarted": t.workers_restarted,
            "subtrees_redispatched": t.subtrees_redispatched,
            "quarantined": t.quarantined,
        });
        let cache = serde_json::json!({
            "enabled": t.cache.is_some(),
            "readonly": t.cache == Some(true),
            "hits": hits,
            "misses": misses,
            "stores": t.cache_stores,
            "stale": stale,
        });
        let rt = t.runtime;
        let runtime = serde_json::json!({
            "turn_passes": rt.turn_passes,
        });
        let wall_clock = serde_json::json!({
            "deterministic": false,
            "wall_s": wall_s,
            "replays_per_s": if wall_s > 0.0 { t.committed as f64 / wall_s } else { 0.0 },
            "replays_started": t.started,
            "replays_committed": t.committed,
            "replays_aborted": t.aborted,
            "speculation_hits": t.speculation_hits,
            "workers": t.workers,
            "worker_busy_s": t.worker_busy_ns as f64 / 1e9,
            "worker_idle_s": t.worker_idle_ns as f64 / 1e9,
            "replay_wall_us": t.replay_wall_us.to_json(),
            "journal_write_us": t.journal_write_us.to_json(),
            "shard": shard,
        });
        serde_json::json!({
            "schema": METRICS_SCHEMA_VERSION,
            "program": program,
            "nprocs": nprocs,
            "jobs": jobs,
            "finished": t.end.is_some(),
            "semantic": semantic,
            "wall_clock": wall_clock,
            "cache": cache,
            "runtime": runtime,
        })
    }
}

/// The `semantic` section of a snapshot: the exploration's deterministic
/// tallies. `clock_mode` leads it, filled in by [`CampaignMetrics::snapshot`].
pub(crate) fn render_semantic(ex: &Exploration) -> serde_json::Value {
    let errors: Vec<serde_json::Value> = ex
        .errors
        .iter()
        .map(|e| {
            serde_json::json!({
                "interleaving": e.interleaving,
                "rank": e.rank,
                "message": e.error.to_string(),
            })
        })
        .collect();
    let by_depth: serde_json::Map<String, serde_json::Value> = ex
        .replays_by_depth
        .iter()
        .map(|(d, n)| (d.to_string(), serde_json::json!(n)))
        .collect();
    let s = &ex.run_stats;
    let late_rate = if s.messages_analyzed > 0 {
        s.late_messages as f64 / s.messages_analyzed as f64
    } else {
        0.0
    };
    serde_json::json!({
        "clock_mode": serde_json::Value::Null,
        "interleavings": ex.interleavings,
        "errors": errors,
        "divergences": ex.divergences,
        "retries": ex.retries,
        "timeouts": ex.timeouts.len() as u64,
        "budget_exhausted": ex.budget_exhausted,
        "total_virtual_time_s": ex.total_virtual_time,
        "forks_discovered": ex.forks_discovered,
        "frontier_peak": ex.frontier_peak,
        "frontier_final": ex.frontier_final,
        "tree_depth_max": ex.tree_depth_max,
        "replays_by_depth": serde_json::Value::Object(by_depth),
        "wildcards": s.wildcards,
        "messages_analyzed": s.messages_analyzed,
        "late_messages": s.late_messages,
        "late_message_rate": late_rate,
        "pb_messages": s.pb_messages,
        "pb_wire_bytes": s.pb_wire_bytes,
        "drained_messages": s.drained_messages,
        "unsafe_alerts": s.unsafe_alerts,
        "alternates_pruned": ex.alternates_pruned,
        "wildcards_deterministic": ex.wildcards_deterministic,
        "refined_alternates_pruned": ex.refined_alternates_pruned,
        "refined_wildcards_deterministic": ex.refined_wildcards_deterministic,
        "protocol_alternates_pruned": ex.protocol_alternates_pruned,
        "protocol_wildcards_deterministic": ex.protocol_wildcards_deterministic,
    })
}

/// Live counters read by a progress display.
#[derive(Debug, Clone, Copy)]
pub struct ProgressSnapshot {
    /// Replays committed so far.
    pub committed: u64,
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
    pub fn eta_s(&self, max_interleavings: u64) -> Option<f64> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        Some(max_interleavings.saturating_sub(self.committed) as f64 / rate)
    }
}

// ---- Campaign events -------------------------------------------------------

/// One campaign event, serialized as the JSONL line payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CampaignEvent {
    /// The exploration began.
    CampaignStart {
        /// Worker-pool size (1 = sequential).
        jobs: usize,
        /// True when continuing from a journal.
        resumed: bool,
        /// `Some(readonly)` when a persistent replay cache is attached.
        readonly: Option<bool>,
    },
    /// The driver dispatched a schedule: handed it to the executor, served
    /// it from the journal, or found its result in hand (a cache hit or a
    /// pre-executed root). Each one later commits or is `Aborted`.
    Dispatched {
        /// Decision-prefix signature of the schedule.
        signature: u64,
    },
    /// A replay began executing (wall-clock order, any worker).
    ReplayStart {
        /// Decision-prefix signature of the schedule.
        signature: u64,
    },
    /// A replay finished executing, divergence retries included.
    ReplayExecuted {
        /// Decision-prefix signature of the schedule.
        signature: u64,
        /// Wall-clock nanoseconds from start to result.
        wall_ns: u64,
    },
    /// A pool worker waited this long for its next job.
    WorkerIdle {
        /// Wall-clock nanoseconds spent waiting.
        idle_ns: u64,
    },
    /// The walk committed a replay (commit order — deterministic payload
    /// except `census` and `speculated`). Closes its commit: the commit's
    /// `CacheHit` and `Checkpoint` come before it.
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
        /// Park/wake counts of the final attempt when this process
        /// executed it; zeros for a cache hit or a shard worker's result.
        census: RuntimeCensus,
        /// True when the result had completed speculatively, before the
        /// driver waited for it.
        speculated: bool,
        /// True when the result was written to the replay cache.
        stored: bool,
    },
    /// A commit was satisfied from the persistent replay cache — no
    /// replay was spawned for this schedule (hence no `ReplayStart`).
    CacheHit {
        /// Decision-prefix signature of the schedule.
        signature: u64,
    },
    /// A commit was appended to the journal.
    Checkpoint {
        /// Write latency in microseconds.
        latency_us: u64,
        /// Frontier size after the commit.
        frontier: usize,
    },
    /// Dispatched schedules that will never commit: speculation discarded
    /// at the campaign's end, or a submission lost with its worker.
    Aborted {
        /// How many.
        n: u64,
    },
    /// The shard supervisor spawned a worker into a slot (`generation`
    /// counts incarnations of the slot, 0 = initial fleet, so a spawn of
    /// generation 1 or more is a restart).
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
    /// A sharded campaign was drained early (SIGTERM).
    CampaignDrained {
        /// Forks left unexplored; resuming the journal explores them.
        frontier: usize,
    },
    /// The exploration ended and its executor stopped, so this is a
    /// finished trace's last record. Its `t_us` is the snapshot's `wall_s`.
    CampaignEnd {
        /// Total interleavings executed.
        interleavings: u64,
        /// Distinct errors found.
        errors: usize,
        /// True when the interleaving budget stopped the walk.
        budget_exhausted: bool,
        /// The snapshot's `semantic` section, `clock_mode` left null.
        semantic: serde_json::Value,
        /// Commits served from the replay cache.
        hits: u64,
        /// Commits the replay cache could not serve (0 without a cache).
        misses: u64,
        /// Cache entries rejected as corrupt or stale, not yet reported by
        /// an earlier campaign on the same handle.
        stale: u64,
    },
}

/// One JSONL line: schema version, microseconds since the sink opened, and
/// the event payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Trace schema version ([`TRACE_SCHEMA_VERSION`]).
    pub v: u32,
    /// Microseconds since the trace was opened (wall clock); without a
    /// trace, since the metrics sink was created.
    pub t_us: u64,
    /// The event.
    pub event: CampaignEvent,
}

/// Report one campaign fact: stamp it once and hand the same record to
/// every sink `opts` carries. With none attached, `event` is never called
/// and no clock is read.
pub(crate) fn emit(opts: &ExploreOptions, event: impl FnOnce() -> CampaignEvent) {
    let epoch = match (&opts.trace, &opts.metrics) {
        (Some(t), _) => t.start,
        (None, Some(m)) => m.start,
        (None, None) => return,
    };
    let event = event();
    let rec = TraceRecord {
        v: TRACE_SCHEMA_VERSION,
        t_us: micros(epoch.elapsed()),
        event,
    };
    if let Some(m) = &opts.metrics {
        m.record(&rec);
    }
    if let Some(t) = &opts.trace {
        t.record(&rec);
    }
}

/// Is any sink observing the campaign? Timing sites read a clock only then.
pub(crate) fn observed(opts: &ExploreOptions) -> bool {
    opts.metrics.is_some() || opts.trace.is_some()
}

/// A duration in whole microseconds, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A duration in nanoseconds, saturating.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---- Campaign trace --------------------------------------------------------

/// Append-only JSONL sink for [`TraceRecord`]s. Thread-safe; writes are
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

    /// Append one record as a JSONL line; a `CampaignEnd` also flushes.
    /// Errors are swallowed after a best-effort stderr note — tracing must
    /// never kill a healthy campaign.
    pub fn record(&self, rec: &TraceRecord) {
        let line = match serde_json::to_string(rec) {
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
        if matches!(rec.event, CampaignEvent::CampaignEnd { .. }) {
            let _ = g.flush();
        }
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
    use crate::epoch::ToolRunStats;
    use std::collections::BTreeMap;

    fn rec(t_us: u64, event: CampaignEvent) -> TraceRecord {
        TraceRecord {
            v: TRACE_SCHEMA_VERSION,
            t_us,
            event,
        }
    }

    fn commit(frontier: usize, census: RuntimeCensus) -> CampaignEvent {
        CampaignEvent::ReplayCommit {
            interleaving: 1,
            depth: 0,
            forks_pushed: 0,
            frontier,
            new_errors: 0,
            makespan_s: 1.0,
            attempts: 1,
            timed_out: false,
            census,
            speculated: false,
            stored: false,
        }
    }

    fn end(ex: &Exploration) -> CampaignEvent {
        CampaignEvent::CampaignEnd {
            interleavings: ex.interleavings,
            errors: ex.errors.len(),
            budget_exhausted: ex.budget_exhausted,
            semantic: render_semantic(ex),
            hits: ex.cache_hits,
            misses: ex.cache_misses,
            stale: 0,
        }
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = FixedHistogram::default();
        for value in [0, 1, 5, 10, 50, 20_000_000] {
            h.record(value);
        }
        let j = h.to_json();
        assert_eq!(
            (j["count"].as_u64(), j["sum"].as_u64()),
            (Some(6), Some(20_000_066))
        );
        assert_eq!(
            j["buckets"][0],
            serde_json::json!({"le": 1, "n": 2}),
            "{j:?}"
        );
        assert_eq!(j["buckets"][1], serde_json::json!({"le": 10, "n": 2}));
        assert_eq!(j["buckets"][2], serde_json::json!({"le": 100, "n": 1}));
        assert_eq!(
            j["buckets"][7],
            serde_json::json!({"le": 10_000_000, "n": 0})
        );
        assert_eq!(j["overflow"], 1);
    }

    #[test]
    fn semantic_section_renders_the_exploration() {
        let m = CampaignMetrics::new();
        let census = RuntimeCensus { turn_passes: 6 };
        m.record(&rec(1, commit(4, census)));
        // A cache hit: nothing executed here.
        m.record(&rec(2, commit(3, RuntimeCensus::default())));
        let p = m.progress();
        assert_eq!((p.committed, p.frontier), (2, 3));
        m.record(&rec(
            3,
            end(&Exploration {
                interleavings: 2,
                forks_discovered: 4,
                frontier_peak: 4,
                frontier_final: 3,
                tree_depth_max: 1,
                replays_by_depth: BTreeMap::from([(0, 1), (1, 1)]),
                run_stats: ToolRunStats {
                    wildcards: 6,
                    late_messages: 1,
                    messages_analyzed: 4,
                    pb_wire_bytes: 336,
                    ..Default::default()
                },
                alternates_pruned: 2,
                protocol_wildcards_deterministic: 2,
                cache_hits: 1,
                cache_misses: 1,
                ..Exploration::default()
            }),
        ));
        let j = m.snapshot("demo", 4, "lamport", 1);
        let s = &j["semantic"];
        assert_eq!(s["clock_mode"], "lamport");
        assert_eq!(s["interleavings"], 2);
        assert_eq!(s["forks_discovered"], 4);
        assert_eq!(s["frontier_peak"], 4);
        assert_eq!(s["frontier_final"], 3);
        assert_eq!(s["tree_depth_max"], 1);
        assert_eq!(s["replays_by_depth"], serde_json::json!({"0": 1, "1": 1}));
        assert_eq!(s["wildcards"], 6);
        assert_eq!(s["late_message_rate"].as_f64(), Some(0.25));
        assert_eq!(s["pb_wire_bytes"], 336);
        assert_eq!(s["alternates_pruned"], 2);
        assert_eq!(s["protocol_wildcards_deterministic"], 2);
        assert_eq!(j["cache"]["hits"], 1);
        assert_eq!(j["cache"]["misses"], 1);
        assert_eq!(j["runtime"], serde_json::json!({"turn_passes": 6}));
        assert!(
            j["semantic"].get("turn_passes").is_none(),
            "census is not semantic"
        );
    }

    #[test]
    fn snapshot_has_schema_and_sections() {
        let m = CampaignMetrics::new();
        m.record(&rec(1, CampaignEvent::Dispatched { signature: 0 }));
        m.record(&rec(2, CampaignEvent::Aborted { n: 1 }));
        m.record(&rec(250_000, end(&Exploration::default())));
        assert_eq!(m.check(), Ok(()));
        let j = m.snapshot("demo", 4, "lamport", 2);
        assert_eq!(j["schema"], METRICS_SCHEMA_VERSION);
        assert_eq!(j["semantic"]["clock_mode"], "lamport");
        assert_eq!(j["wall_clock"]["deterministic"], false);
        assert_eq!(j["wall_clock"]["replays_started"], 1);
        assert_eq!(j["wall_clock"]["wall_s"], 0.25, "CampaignEnd's t_us");
        assert_eq!(j["finished"], true);
    }

    #[test]
    fn trace_emits_schema_versioned_jsonl() {
        let (trace, buf) = CampaignTrace::to_shared_buffer();
        trace.record(&rec(
            0,
            CampaignEvent::CampaignStart {
                jobs: 2,
                resumed: false,
                readonly: None,
            },
        ));
        trace.record(&rec(
            1,
            CampaignEvent::CampaignEnd {
                interleavings: 7,
                errors: 1,
                budget_exhausted: false,
                semantic: serde_json::Value::Null,
                hits: 0,
                misses: 0,
                stale: 0,
            },
        ));
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
            frontier: 10,
            elapsed: Duration::from_secs(10),
        };
        assert!((p.rate() - 5.0).abs() < 1e-9);
        let eta = p.eta_s(100).unwrap();
        assert!((eta - 10.0).abs() < 1e-9, "{eta}");
    }

    #[test]
    fn from_trace_refuses_a_finished_ledger_that_does_not_balance() {
        use CampaignEvent as E;
        let start = |readonly| E::CampaignStart {
            jobs: 1,
            resumed: false,
            readonly,
        };
        let dispatched = || E::Dispatched { signature: 1 };
        let one = || commit(0, RuntimeCensus::default());
        // The end of a campaign whose cache served `hits` commits.
        let finish = |cache_hits| {
            end(&Exploration {
                cache_hits,
                ..Exploration::default()
            })
        };
        let census = RuntimeCensus { turn_passes: 1 };
        let lost = E::WorkerLost {
            slot: 0,
            reason: "heartbeat".into(),
        };
        let mut stored = one();
        if let E::ReplayCommit { stored, .. } = &mut stored {
            *stored = true;
        }
        // Each stream breaks one relation, and the refusal names it.
        let cases: [(&str, Vec<E>); 5] = [
            (
                "replays_started",
                vec![start(None), dispatched(), finish(0)],
            ),
            (
                "from a campaign the cache served entirely",
                vec![
                    start(Some(false)),
                    dispatched(),
                    commit(0, census),
                    finish(1),
                ],
            ),
            (
                "cache disabled but hits 1",
                vec![start(None), dispatched(), one(), finish(1)],
            ),
            (
                "workers_lost 1 > workers_spawned 0",
                vec![start(None), lost, finish(0)],
            ),
            (
                "stores 1 > misses 0",
                vec![start(Some(false)), dispatched(), stored, finish(1)],
            ),
        ];
        for (relation, events) in cases {
            let mut text = String::new();
            for (t_us, event) in events.into_iter().enumerate() {
                text += &serde_json::to_string(&rec(t_us as u64, event)).unwrap();
                text.push('\n');
            }
            let err = CampaignMetrics::from_trace(text.as_bytes())
                .expect_err(relation)
                .to_string();
            assert!(err.contains(relation), "{relation}: {err}");
        }
        // A killed campaign's trace has no `CampaignEnd`: it is not checked.
        let killed = serde_json::to_string(&rec(0, E::Dispatched { signature: 1 })).unwrap();
        assert!(CampaignMetrics::from_trace(killed.as_bytes()).is_ok());
    }
}
