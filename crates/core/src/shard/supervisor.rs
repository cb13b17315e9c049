//! The fault-tolerant process fleet: the `Executor` behind `--shards`.
//!
//! The exploration driver (DESIGN.md, "Exploration driver") owns every
//! piece of exploration state; `ProcessFleet` only runs the replays it is
//! handed, on worker *processes* behind a framed pipe protocol — which is
//! why a completed `--shards N` campaign is byte-identical to `--jobs 1`.
//! What the thread pool never has to survive, the fleet does:
//!
//! * **Crash detection** — a reader thread per worker incarnation turns
//!   EOF, I/O errors, and checksum-corrupt frames into loss events; a
//!   beacon-silence detector catches processes that die without closing
//!   their pipe, and a wall-clock lease catches workers that heartbeat
//!   forever without finishing (see [`super::lease`]).
//! * **Recovery** — a lost worker's in-flight subtree becomes submittable
//!   again after a deterministic backoff; the slot respawns with a bounded
//!   retry budget. Dispatch attempts per subtree are also bounded: after
//!   `max_attempts` losses the subtree is **quarantined**, committed as an
//!   honest [`timeout`](crate::report::ReplayTimeoutRecord) (partial
//!   coverage, reported, never silently dropped), and the walk moves on
//!   instead of hanging.
//! * **Graceful drain** — an external flag (the CLI wires SIGTERM to it)
//!   stops the campaign cleanly; its journal already holds every commit
//!   and resumes under any `--shards`/`--jobs` value.
//!
//! Accounting note: each real dispatch attempt of a lost subtree was
//! started once (by the driver) and aborted once (here), and a quarantined
//! subtree's synthetic commit counts one more start, so the campaign ledger
//! `started == committed + aborted` survives any kill schedule.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dampi_mpi::fault::WorkerFaultPlan;

use crate::decisions::DecisionSet;
use crate::executor::{Event, Executor};
use crate::metrics::{emit, nanos, CampaignEvent};
use crate::scheduler::{drive, end_campaign, Exploration, ExploreOptions, RunResult, Start};

use super::lease::{LeaseConfig, SlotHealth, Verdict};
use super::protocol::{recv_msg, FromWorker, ToWorker, PROTOCOL_VERSION};
use super::worker::{run_worker, WorkerConfig};
use super::ShardOptions;

// ---- Launcher abstraction --------------------------------------------------

/// The supervisor's grip on one live worker: a way to send it jobs and a
/// way to make it dead. `kill` must be idempotent and must never block
/// indefinitely.
pub trait WorkerHandle: Send {
    /// Frame one message to the worker.
    fn send(&mut self, msg: &ToWorker) -> io::Result<()>;
    /// Tear the worker down (close pipes, SIGKILL, cancel — whatever the
    /// transport needs). Called on loss, quarantine, and shutdown.
    fn kill(&mut self);
}

/// A freshly spawned worker: the handle plus the stream its frames arrive
/// on (the supervisor moves the reader into a dedicated thread).
pub struct SpawnedWorker {
    /// Command/kill side.
    pub handle: Box<dyn WorkerHandle>,
    /// Result/heartbeat side.
    pub reader: Box<dyn Read + Send>,
}

/// Spawns worker incarnations into slots. The launcher decides the
/// transport (OS process vs in-process thread); the supervisor's failure
/// handling is identical either way, which is what lets the whole
/// crash-recovery state machine be tested hermetically in-process.
pub trait WorkerLauncher {
    /// Spawn a fresh worker for `slot`. `fault` is the chaos plan this
    /// incarnation must arm (the supervisor arms faults only on the
    /// configured slot's first generation unless the plan is persistent).
    fn spawn(&self, slot: usize, fault: Option<WorkerFaultPlan>) -> io::Result<SpawnedWorker>;
}

// ---- OS-process launcher ---------------------------------------------------

/// Launches real worker processes. The command builder is injected (the
/// CLI builds `current_exe() verify --worker ...`), keeping this crate
/// free of CLI knowledge while the supervisor still owns stdio wiring:
/// stdin/stdout are the protocol, stderr passes through for diagnostics.
pub struct ProcessWorkerLauncher {
    make_command: Box<dyn Fn(usize, Option<WorkerFaultPlan>) -> Command>,
}

impl ProcessWorkerLauncher {
    /// Launcher from a command builder (called once per incarnation).
    #[must_use]
    pub fn new(make_command: impl Fn(usize, Option<WorkerFaultPlan>) -> Command + 'static) -> Self {
        Self {
            make_command: Box::new(make_command),
        }
    }
}

impl WorkerLauncher for ProcessWorkerLauncher {
    fn spawn(&self, slot: usize, fault: Option<WorkerFaultPlan>) -> io::Result<SpawnedWorker> {
        let mut cmd = (self.make_command)(slot, fault);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| io::Error::other("worker child has no stdin"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("worker child has no stdout"))?;
        Ok(SpawnedWorker {
            handle: Box::new(ProcessHandle {
                child,
                stdin: Some(stdin),
            }),
            reader: Box::new(stdout),
        })
    }
}

struct ProcessHandle {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl WorkerHandle for ProcessHandle {
    fn send(&mut self, msg: &ToWorker) -> io::Result<()> {
        match &mut self.stdin {
            Some(s) => super::protocol::send_msg(s, msg),
            None => Err(io::Error::from(io::ErrorKind::BrokenPipe)),
        }
    }

    fn kill(&mut self) {
        // Close stdin first: a healthy worker exits on EOF, so the common
        // shutdown path reaps without signalling. Wedged workers get a
        // short grace window, then SIGKILL.
        drop(self.stdin.take());
        for _ in 0..20 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

// ---- In-process launcher (hermetic fault-injection tests) ------------------

/// Runs workers as threads inside the supervisor's own process, speaking
/// the real wire protocol over anonymous pipes (`std::io::pipe`), so
/// checksums, torn frames and EOF behave as between processes. This is
/// how the supervisor's whole failure matrix — kills, stalls, wedges,
/// corrupt frames, exit-before-ack — is tested without fork/exec,
/// deterministically enough for proptest kill schedules.
pub struct InProcessLauncher {
    run: Arc<dyn Fn(&DecisionSet) -> RunResult + Send + Sync>,
    /// Beacon period for spawned workers.
    pub heartbeat_interval: Duration,
    /// Digest echoed in the worker `Hello`.
    pub config_digest: u64,
    /// The supervisor's divergence retries and backoff, for replay parity.
    opts: ExploreOptions,
}

impl InProcessLauncher {
    /// Launcher over a replay function shared by every worker thread.
    #[must_use]
    pub fn new(
        run: Arc<dyn Fn(&DecisionSet) -> RunResult + Send + Sync>,
        opts: &ExploreOptions,
    ) -> Self {
        Self {
            run,
            heartbeat_interval: Duration::from_millis(20),
            config_digest: 0,
            opts: ExploreOptions {
                divergence_retries: opts.divergence_retries,
                retry_backoff: opts.retry_backoff,
                ..ExploreOptions::default()
            },
        }
    }
}

struct InProcessHandle {
    writer: Option<io::PipeWriter>,
    cancel: Arc<AtomicBool>,
}

impl WorkerHandle for InProcessHandle {
    fn send(&mut self, msg: &ToWorker) -> io::Result<()> {
        match &mut self.writer {
            Some(w) => super::protocol::send_msg(w, msg),
            None => Err(io::Error::from(io::ErrorKind::BrokenPipe)),
        }
    }

    fn kill(&mut self) {
        // Cancel first (breaks wedge loops), then close the job pipe (a
        // worker blocked in recv sees EOF). The worker thread drops its
        // result-pipe writer on exit, which is the EOF our reader thread
        // turns into a loss event.
        self.cancel.store(true, Ordering::Relaxed);
        drop(self.writer.take());
    }
}

impl WorkerLauncher for InProcessLauncher {
    fn spawn(&self, slot: usize, fault: Option<WorkerFaultPlan>) -> io::Result<SpawnedWorker> {
        let (job_rx, job_tx) = io::pipe()?;
        let (res_rx, res_tx) = io::pipe()?;
        let cancel = Arc::new(AtomicBool::new(false));
        let run = Arc::clone(&self.run);
        let cfg = WorkerConfig {
            heartbeat_interval: self.heartbeat_interval,
            config_digest: self.config_digest,
            fault,
            hard_exit: false,
            cancel: Arc::clone(&cancel),
        };
        let opts = self.opts.clone();
        std::thread::Builder::new()
            .name(format!("dampi-shard-worker-{slot}"))
            .spawn(move || {
                let _ = run_worker(job_rx, res_tx, &cfg, &opts, |ds| (run)(ds));
            })?;
        Ok(SpawnedWorker {
            handle: Box::new(InProcessHandle {
                writer: Some(job_tx),
                cancel,
            }),
            reader: Box::new(res_rx),
        })
    }
}

// ---- The fleet --------------------------------------------------------------

/// Everything that can wake the fleet, funneled through one channel.
enum Signal {
    /// A frame arrived from slot `slot`, incarnation `gen`.
    Msg {
        slot: usize,
        gen: u64,
        msg: FromWorker,
    },
    /// Slot `slot`'s incarnation `gen` is gone (EOF or stream error).
    Gone {
        slot: usize,
        gen: u64,
        reason: String,
    },
    /// Periodic health/respawn/drain check.
    Tick,
}

/// One worker slot: a bounded-restart supply of worker incarnations.
struct Slot {
    /// Incarnation counter; events from older incarnations are stale and
    /// ignored (a kill races its own final frames).
    gen: u64,
    handle: Option<Box<dyn WorkerHandle>>,
    health: SlotHealth,
    /// Signature of the in-flight job, if any, and when it was dispatched.
    busy: Option<(u64, Instant)>,
    restarts: u32,
    /// When the next respawn attempt is due.
    respawn_at: Option<Instant>,
    /// Restart budget exhausted; this slot is out of the campaign.
    dead: bool,
}

/// Worker processes (or in-process stand-ins) spawned by a
/// [`WorkerLauncher`], with the failure handling of the module docs.
struct ProcessFleet<'a> {
    launcher: &'a dyn WorkerLauncher,
    opts: &'a ExploreOptions,
    shard: &'a ShardOptions,
    /// What every worker `Hello` must echo (see `on_msg`).
    config_digest: u64,
    lease_cfg: LeaseConfig,
    tx: crossbeam::channel::Sender<Signal>,
    rx: crossbeam::channel::Receiver<Signal>,
    slots: Vec<Slot>,
    /// Completions and quarantines not yet handed to the driver.
    outbox: VecDeque<Event>,
    /// Signature → slot currently executing it.
    in_flight: HashMap<u64, usize>,
    /// Dispatch attempts consumed per signature.
    attempts: HashMap<u64, u32>,
    /// Signatures lost with a worker: not dispatchable again before the
    /// deadline (redispatch backoff).
    deferred: HashMap<u64, Instant>,
}

impl<'a> ProcessFleet<'a> {
    /// Start the tick thread and the initial fleet.
    fn spawn(
        launcher: &'a dyn WorkerLauncher,
        opts: &'a ExploreOptions,
        shard: &'a ShardOptions,
        config_digest: u64,
    ) -> io::Result<Self> {
        let (tx, rx) = crossbeam::channel::unbounded::<Signal>();
        {
            let tx = tx.clone();
            let tick = tick_interval(shard);
            std::thread::Builder::new()
                .name("dampi-shard-tick".into())
                .spawn(move || loop {
                    std::thread::sleep(tick);
                    if tx.send(Signal::Tick).is_err() {
                        return;
                    }
                })?;
        }
        let shards = shard.shards.max(1);
        let mut fleet = Self {
            launcher,
            opts,
            shard,
            config_digest,
            lease_cfg: LeaseConfig {
                heartbeat_timeout: shard.heartbeat_timeout,
                lease: shard.lease,
            },
            tx,
            rx,
            slots: (0..shards)
                .map(|_| Slot {
                    gen: 0,
                    handle: None,
                    health: SlotHealth::new(Instant::now()),
                    busy: None,
                    restarts: 0,
                    respawn_at: None,
                    dead: false,
                })
                .collect(),
            outbox: VecDeque::new(),
            in_flight: HashMap::new(),
            attempts: HashMap::new(),
            deferred: HashMap::new(),
        };
        for i in 0..shards {
            fleet.spawn_slot(i)?;
        }
        Ok(fleet)
    }

    fn spawn_slot(&mut self, i: usize) -> io::Result<()> {
        let gen = self.slots[i].gen;
        let fault = self
            .shard
            .fault
            .filter(|f| self.shard.fault_slot == i && (gen == 0 || f.persistent));
        let spawned = self.launcher.spawn(i, fault)?;
        start_reader(spawned.reader, i, gen, self.tx.clone())?;
        let s = &mut self.slots[i];
        s.handle = Some(spawned.handle);
        s.health = SlotHealth::new(Instant::now());
        s.busy = None;
        s.respawn_at = None;
        emit(self.opts, || CampaignEvent::WorkerSpawned {
            slot: i,
            generation: gen,
        });
        Ok(())
    }

    /// Declare slot `i`'s current incarnation lost: kill it, reclaim its
    /// subtree (redispatch or quarantine), and schedule a respawn if the
    /// restart budget allows. Idempotent per incarnation.
    fn lose_slot(&mut self, i: usize, reason: &str, now: Instant) {
        let lost_sig = {
            let s = &mut self.slots[i];
            if s.dead || s.handle.is_none() {
                return;
            }
            if let Some(mut h) = s.handle.take() {
                h.kill();
            }
            s.gen += 1;
            s.health.on_idle();
            if s.restarts >= self.shard.max_restarts_per_slot {
                s.dead = true;
                s.respawn_at = None;
            } else {
                s.restarts += 1;
                s.respawn_at =
                    Some(now + self.shard.respawn_backoff.delay(s.restarts - 1, i as u64));
            }
            s.busy.take().map(|(sig, _)| sig)
        };
        emit(self.opts, || CampaignEvent::WorkerLost {
            slot: i,
            reason: reason.to_string(),
        });
        let Some(sig) = lost_sig else { return };
        self.in_flight.remove(&sig);
        emit(self.opts, || CampaignEvent::Aborted { n: 1 });
        let att = self.attempts.get(&sig).copied().unwrap_or(0);
        if att >= self.shard.max_attempts {
            self.outbox.push_back(Event::Quarantined(
                sig,
                format!("subtree lost with its worker {att} times; last loss: {reason}"),
            ));
            emit(self.opts, || CampaignEvent::SubtreeQuarantined {
                signature: sig,
                attempts: att,
            });
        } else {
            self.deferred.insert(
                sig,
                now + self
                    .shard
                    .redispatch_backoff
                    .delay(att.saturating_sub(1), sig),
            );
        }
    }

    /// Run both failure detectors over every live slot.
    fn check_health(&mut self, now: Instant) {
        for i in 0..self.slots.len() {
            let verdict = {
                let s = &self.slots[i];
                if s.dead || s.handle.is_none() {
                    continue;
                }
                s.health.verdict(now, &self.lease_cfg)
            };
            match verdict {
                Verdict::Healthy => {}
                Verdict::HeartbeatLost => self.lose_slot(i, "heartbeat timeout", now),
                Verdict::LeaseExpired => self.lose_slot(i, "lease expired", now),
            }
        }
    }

    /// Respawn every slot whose backoff deadline has passed.
    fn respawn_due(&mut self, now: Instant) {
        for i in 0..self.slots.len() {
            let due = {
                let s = &self.slots[i];
                !s.dead && s.handle.is_none() && s.respawn_at.is_some_and(|t| now >= t)
            };
            if !due {
                continue;
            }
            self.slots[i].respawn_at = None;
            if let Err(e) = self.spawn_slot(i) {
                eprintln!("dampi: shard worker {i} respawn failed: {e}");
                let s = &mut self.slots[i];
                if s.restarts >= self.shard.max_restarts_per_slot {
                    s.dead = true;
                } else {
                    s.restarts += 1;
                    s.respawn_at =
                        Some(now + self.shard.respawn_backoff.delay(s.restarts - 1, i as u64));
                }
            }
        }
    }

    /// Handle one frame from a live incarnation. `Err` is fatal to the
    /// whole campaign (protocol/config mismatch — results would silently
    /// diverge, which is worse than dying loudly).
    fn on_msg(&mut self, slot: usize, gen: u64, msg: FromWorker) -> io::Result<()> {
        {
            let s = &mut self.slots[slot];
            if s.dead || s.gen != gen || s.handle.is_none() {
                return Ok(()); // stale incarnation
            }
            s.health.on_seen(Instant::now());
        }
        match msg {
            FromWorker::Hello {
                protocol,
                config_digest,
                pid: _,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(io::Error::other(format!(
                        "worker {slot} speaks protocol {protocol}, supervisor speaks \
                         {PROTOCOL_VERSION}"
                    )));
                }
                if config_digest != self.config_digest {
                    return Err(io::Error::other(format!(
                        "worker {slot} config digest {config_digest:#018x} does not match \
                         supervisor digest {:#018x}; refusing to merge diverging results",
                        self.config_digest
                    )));
                }
                Ok(())
            }
            FromWorker::Heartbeat { .. } => Ok(()),
            FromWorker::Result { sig, result } => {
                let s = &mut self.slots[slot];
                if let Some((_, t0)) = s.busy.filter(|&(busy, _)| busy == sig) {
                    s.busy = None;
                    s.health.on_idle();
                    emit(self.opts, || CampaignEvent::ReplayExecuted {
                        signature: sig,
                        wall_ns: nanos(t0.elapsed()),
                    });
                    self.in_flight.remove(&sig);
                    self.outbox.push_back(Event::Completed(sig, result));
                }
                Ok(())
            }
        }
    }

    /// Hand `sig` to an idle worker. Returns false when no live idle
    /// worker accepted it (each worker whose pipe rejects the write is
    /// declared lost on the spot).
    fn try_dispatch(&mut self, sig: u64, decisions: &DecisionSet, now: Instant) -> bool {
        loop {
            let Some(i) = self
                .slots
                .iter()
                .position(|s| !s.dead && s.handle.is_some() && s.busy.is_none())
            else {
                return false;
            };
            let sent = self.slots[i]
                .handle
                .as_mut()
                .expect("position checked handle")
                .send(&ToWorker::Job {
                    sig,
                    decisions: decisions.clone(),
                });
            match sent {
                Ok(()) => {
                    {
                        let s = &mut self.slots[i];
                        s.busy = Some((sig, now));
                        s.health.on_dispatch(now, self.lease_cfg.lease);
                    }
                    self.in_flight.insert(sig, i);
                    self.deferred.remove(&sig);
                    let att = self.attempts.entry(sig).or_insert(0);
                    *att += 1;
                    let att = *att;
                    emit(self.opts, || CampaignEvent::ReplayStart { signature: sig });
                    if att > 1 {
                        emit(self.opts, || CampaignEvent::SubtreeRedispatched {
                            signature: sig,
                            attempt: att,
                        });
                    }
                    return true;
                }
                Err(e) => self.lose_slot(i, &format!("dispatch write failed: {e}"), now),
            }
        }
    }
}

impl Executor for ProcessFleet<'_> {
    fn idle(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.dead && s.handle.is_some() && s.busy.is_none())
            .count()
    }

    fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn submit(&mut self, sig: u64, decisions: &DecisionSet) -> bool {
        let now = Instant::now();
        !self.in_flight.contains_key(&sig)
            && self.deferred.get(&sig).is_none_or(|t| now >= *t)
            && self.try_dispatch(sig, decisions, now)
    }

    fn next(&mut self) -> io::Result<Event> {
        if let Some(ev) = self.outbox.pop_front() {
            return Ok(ev);
        }
        // The driver is blocked on a result nobody can produce any more:
        // wedged forever is worse than failing loudly.
        if self.slots.iter().all(|s| s.dead) {
            return Err(io::Error::other(format!(
                "all {} shard workers failed permanently with work outstanding",
                self.slots.len()
            )));
        }
        let signal = self
            .rx
            .recv()
            .map_err(|_| io::Error::other("shard event channel closed"))?;
        let now = Instant::now();
        match signal {
            Signal::Tick => {
                let draining = self.shard.drain.as_ref();
                if draining.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    return Ok(Event::Drain);
                }
                self.check_health(now);
                self.respawn_due(now);
            }
            Signal::Gone { slot, gen, reason } => {
                let s = &self.slots[slot];
                if !s.dead && s.gen == gen && s.handle.is_some() {
                    self.lose_slot(slot, &reason, now);
                }
            }
            Signal::Msg { slot, gen, msg } => self.on_msg(slot, gen, msg)?,
        }
        Ok(self.outbox.pop_front().unwrap_or(Event::Wake))
    }
}

impl Drop for ProcessFleet<'_> {
    /// Shutdown everything: polite `Shutdown` first, then the hammer.
    fn drop(&mut self) {
        for s in &mut self.slots {
            if let Some(h) = s.handle.as_mut() {
                let _ = h.send(&ToWorker::Shutdown);
            }
        }
        for s in &mut self.slots {
            if let Some(mut h) = s.handle.take() {
                h.kill();
            }
        }
    }
}

/// Pump frames from one worker incarnation into the event channel until
/// the stream ends. A checksum mismatch or torn frame surfaces here as an
/// `Err` from `recv_msg` — i.e. a corrupt frame *is* a dead worker, because
/// the stream can no longer be trusted after it.
fn start_reader(
    mut reader: Box<dyn Read + Send>,
    slot: usize,
    gen: u64,
    tx: crossbeam::channel::Sender<Signal>,
) -> io::Result<()> {
    std::thread::Builder::new()
        .name(format!("dampi-shard-read-{slot}"))
        .spawn(move || loop {
            let reason = match recv_msg::<_, FromWorker>(&mut reader) {
                Ok(Some(msg)) => {
                    if tx.send(Signal::Msg { slot, gen, msg }).is_err() {
                        return;
                    }
                    continue;
                }
                Ok(None) => "connection closed".into(),
                Err(e) => e.to_string(),
            };
            let _ = tx.send(Signal::Gone { slot, gen, reason });
            return;
        })?;
    Ok(())
}

fn tick_interval(shard: &ShardOptions) -> Duration {
    (shard.heartbeat_timeout.min(shard.lease) / 4)
        .clamp(Duration::from_millis(2), Duration::from_millis(200))
}

/// Run the exploration sharded across worker processes (or in-process
/// stand-ins) spawned by `launcher`, surviving worker failure per the
/// module docs. A completed campaign is byte-identical to
/// [`explore_parallel`](crate::scheduler::explore_parallel) with the same
/// options; a drained
/// one (`shard.drain`) returns early with [`Exploration::drained`] set, its
/// journal resumable.
///
/// # Errors
///
/// Fails when the initial fleet cannot spawn, when a worker's `Hello`
/// reveals a protocol or config mismatch, or when every slot exhausts its
/// restart budget with work still outstanding; and as `drive` does.
pub(crate) fn explore_sharded_from(
    launcher: &dyn WorkerLauncher,
    opts: &ExploreOptions,
    shard: &ShardOptions,
    start: Start,
) -> io::Result<Exploration> {
    let mut fleet = ProcessFleet::spawn(launcher, opts, shard, start.config_digest)?;
    let ex = drive(opts, &mut fleet, start)?;
    drop(fleet);
    Ok(end_campaign(opts, ex))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_interval_clamps() {
        let mut s = ShardOptions {
            heartbeat_timeout: Duration::from_millis(4),
            lease: Duration::from_secs(600),
            ..ShardOptions::default()
        };
        assert_eq!(tick_interval(&s), Duration::from_millis(2));
        s.heartbeat_timeout = Duration::from_secs(600);
        assert_eq!(tick_interval(&s), Duration::from_millis(200));
    }
}
