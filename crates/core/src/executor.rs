//! Where replays run: the [`Executor`] contract and its two in-process
//! implementations. The exploration driver
//! ([`crate::scheduler`], DESIGN.md "Exploration driver") decides *what* to
//! replay and in what order results commit; an executor only runs
//! schedules and hands the results back, in any order. The third
//! implementation, the fault-tolerant process fleet, lives in
//! [`crate::shard::supervisor`].

use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::decisions::DecisionSet;
use crate::metrics::CampaignEvent;
use crate::scheduler::{ExploreOptions, RunResult};
use crate::shard::protocol::SubtreeResult;

/// What [`Executor::next`] can report.
pub(crate) enum Event {
    /// The schedule with this signature finished executing.
    Completed(u64, Box<SubtreeResult>),
    /// The executor lost this schedule (and counted it aborted) once too
    /// often and gives up on it for the stated reason; the driver commits
    /// it as an honest timeout record, counted as one more start.
    Quarantined(u64, String),
    /// Nothing completed, but `submit` may now accept what it refused
    /// before (a backoff expired, a worker came back).
    Wake,
    /// Stop now: every commit is already in the journal.
    Drain,
}

/// A place to run replays. Signatures identify submissions: the visited
/// set admits each decision prefix onto the frontier exactly once.
///
/// The driver counts `replays_started` once per accepted `submit`. An
/// executor that loses an accepted submission (a worker died) counts it
/// aborted, stops counting it in `in_flight`, and the driver submits it
/// again.
pub(crate) trait Executor {
    /// Submissions the executor would start right now. Asked before
    /// anything is submitted, it is the executor's width.
    fn idle(&self) -> usize;
    /// Submissions accepted and neither completed, quarantined nor lost.
    fn in_flight(&self) -> usize;
    /// Offer one schedule. May refuse: it is already in flight, there is
    /// no capacity, or it is inside a redispatch backoff.
    fn submit(&mut self, sig: u64, decisions: &DecisionSet) -> bool;
    /// Block until something happens. `Err` ends the campaign.
    fn next(&mut self) -> io::Result<Event>;
}

/// Execute one schedule, retrying (with exponential backoff) when a guided
/// replay diverges from its decisions.
pub(crate) fn execute_with_retry<F>(
    run: &mut F,
    decisions: &DecisionSet,
    opts: &ExploreOptions,
) -> SubtreeResult
where
    F: FnMut(&DecisionSet) -> RunResult,
{
    let mut rep = SubtreeResult::single(run(decisions));
    let mut attempt: u32 = 0;
    while !decisions.is_self_run() && rep.stats.divergences > 0 && attempt < opts.divergence_retries
    {
        // The schedule's signature seeds the jitter, so a replay's retry
        // timing is a pure function of its identity — sharded campaigns
        // stay reproducible.
        let backoff = opts.retry_backoff.delay(attempt, decisions.signature());
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        attempt += 1;
        rep.retries += 1;
        let res = run(decisions);
        rep.attempt_makespans.push(res.outcome.makespan);
        rep.divergences += res.stats.divergences;
        (rep.outcome, rep.epochs, rep.stats) = (res.outcome, res.epochs, res.stats);
    }
    rep
}

/// [`execute_with_retry`] plus the in-process observability: the trace
/// `ReplayStart` event and the wall-clock replay span.
fn execute_timed<F>(
    run: &mut F,
    sig: u64,
    decisions: &DecisionSet,
    opts: &ExploreOptions,
) -> SubtreeResult
where
    F: FnMut(&DecisionSet) -> RunResult,
{
    if let Some(t) = &opts.trace {
        t.emit(CampaignEvent::ReplayStart { signature: sig });
    }
    let t0 = opts.metrics.as_ref().map(|_| Instant::now());
    let rep = execute_with_retry(run, decisions, opts);
    if let (Some(m), Some(t0)) = (&opts.metrics, t0) {
        m.on_executed(t0.elapsed());
    }
    rep
}

/// Runs each submission on the caller's thread, inside `next`. It holds
/// one submission at a time, so the driver never speculates over it: this
/// is the sequential depth-first walk (`jobs ≤ 1`, under either tool
/// stack) and the reference every other executor is compared against.
pub(crate) struct Inline<'a, F> {
    run: F,
    opts: &'a ExploreOptions,
    pending: Option<(u64, DecisionSet)>,
}

impl<'a, F> Inline<'a, F>
where
    F: FnMut(&DecisionSet) -> RunResult,
{
    pub(crate) fn new(run: F, opts: &'a ExploreOptions) -> Self {
        Self {
            run,
            opts,
            pending: None,
        }
    }
}

impl<F> Executor for Inline<'_, F>
where
    F: FnMut(&DecisionSet) -> RunResult,
{
    fn idle(&self) -> usize {
        usize::from(self.pending.is_none())
    }

    fn in_flight(&self) -> usize {
        usize::from(self.pending.is_some())
    }

    fn submit(&mut self, sig: u64, decisions: &DecisionSet) -> bool {
        if self.pending.is_some() {
            return false;
        }
        self.pending = Some((sig, decisions.clone()));
        true
    }

    fn next(&mut self) -> io::Result<Event> {
        let (sig, decisions) = self
            .pending
            .take()
            .ok_or_else(|| io::Error::other("inline executor has nothing to run"))?;
        let rep = execute_timed(&mut self.run, sig, &decisions, self.opts);
        Ok(Event::Completed(sig, Box::new(rep)))
    }
}

/// Scoped worker threads behind a job queue. Submissions past the pool's
/// width queue up, so `submit` only refuses duplicates.
pub(crate) struct ThreadPool {
    jobs: usize,
    job_tx: crossbeam::channel::Sender<(u64, DecisionSet)>,
    res_rx: crossbeam::channel::Receiver<(u64, SubtreeResult)>,
    in_flight: HashSet<u64>,
}

impl ThreadPool {
    /// Start `jobs` workers, hand the pool to `body`, then drain and
    /// cancel: workers skip whatever is still queued, finish the replay
    /// they are in (bounded by the per-replay watchdog) and exit; those
    /// results land in a channel nobody reads.
    pub(crate) fn scoped<F, R>(
        run: &F,
        opts: &ExploreOptions,
        jobs: usize,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R
    where
        F: Fn(&DecisionSet) -> RunResult + Sync,
    {
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<(u64, DecisionSet)>();
        let (res_tx, res_rx) = crossbeam::channel::unbounded::<(u64, SubtreeResult)>();
        let cancel = AtomicBool::new(false);
        crossbeam::thread::scope(|scope| {
            for wid in 0..jobs {
                let (job_rx, res_tx, cancel) = (job_rx.clone(), res_tx.clone(), &cancel);
                scope
                    .builder()
                    .name(format!("dampi-explore-{wid}"))
                    .spawn(move |_| loop {
                        let idle0 = opts.metrics.as_ref().map(|_| Instant::now());
                        let Ok((sig, decisions)) = job_rx.recv() else {
                            break;
                        };
                        if let (Some(m), Some(t0)) = (&opts.metrics, idle0) {
                            m.on_worker_idle(t0.elapsed());
                        }
                        if cancel.load(Ordering::Relaxed) {
                            continue; // drain without running
                        }
                        let rep = execute_timed(&mut |ds| run(ds), sig, &decisions, opts);
                        if res_tx.send((sig, rep)).is_err() {
                            break;
                        }
                    })
                    .expect("spawn exploration worker");
            }
            drop((job_rx, res_tx));
            let mut pool = Self {
                jobs,
                job_tx,
                res_rx,
                in_flight: HashSet::new(),
            };
            let out = body(&mut pool);
            cancel.store(true, Ordering::Relaxed);
            drop(pool);
            out
        })
        .expect("exploration worker scope")
    }
}

impl Executor for ThreadPool {
    fn idle(&self) -> usize {
        self.jobs.saturating_sub(self.in_flight.len())
    }

    fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn submit(&mut self, sig: u64, decisions: &DecisionSet) -> bool {
        !self.in_flight.contains(&sig)
            && self.job_tx.send((sig, decisions.clone())).is_ok()
            && self.in_flight.insert(sig)
    }

    fn next(&mut self) -> io::Result<Event> {
        let (sig, rep) = self
            .res_rx
            .recv()
            .map_err(|_| io::Error::other("every exploration worker exited"))?;
        self.in_flight.remove(&sig);
        Ok(Event::Completed(sig, Box::new(rep)))
    }
}
