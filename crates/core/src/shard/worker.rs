//! The worker side of a sharded campaign: one replay per job, forever.
//!
//! A worker is deliberately dumb. It holds no frontier, no visited set, no
//! budget — the supervisor owns every piece of exploration state and the
//! worker only maps a [`DecisionSet`] to a [`super::SubtreeResult`] through the
//! exact same `execute_with_retry` path the in-process thread pool uses.
//! That is what keeps `--shards N` byte-identical to `--jobs 1`: the
//! numbers a worker ships back are the numbers the sequential walk would
//! have computed in place.
//!
//! Liveness is a dedicated beacon thread writing [`FromWorker::Heartbeat`]
//! frames on a fixed interval, *independent* of the replay loop, so the
//! supervisor can tell a long replay (beacons flowing, lease ticking) from
//! a dead process (silence). The frame writer is a mutex the beacon and
//! the result path share; frames are written whole under the lock, so the
//! two never interleave bytes on the wire.
//!
//! The [`WorkerFaultPlan`] hook makes the worker its own chaos monkey:
//! the supervisor arms a fault at spawn time and the worker fakes the
//! corresponding real-world failure (die mid-replay, go silent, wedge,
//! corrupt a frame, exit before acknowledging) at a deterministic job
//! index. Faults live here — in the victim — because that is where real
//! failures happen; the supervisor code under test runs unmodified.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dampi_mpi::fault::{WorkerFaultKind, WorkerFaultPlan};
use parking_lot::{Condvar, Mutex};

use crate::decisions::DecisionSet;
use crate::executor::execute_with_retry;
use crate::scheduler::{ExploreOptions, RunResult};

use super::protocol::{
    checksum, recv_msg, send_msg, write_frame_with_checksum, FromWorker, ToWorker, PROTOCOL_VERSION,
};

/// Everything a worker needs to know that is not the program itself.
pub struct WorkerConfig {
    /// Beacon period. Must be well under the supervisor's heartbeat
    /// timeout (the supervisor defaults to a 4x margin).
    pub heartbeat_interval: Duration,
    /// Digest of the verification config, echoed in `Hello` so a
    /// supervisor never merges results computed under different options.
    pub config_digest: u64,
    /// Armed chaos fault, if any (see [`WorkerFaultPlan`]).
    pub fault: Option<WorkerFaultPlan>,
    /// True for real worker processes: a `Kill` fault calls
    /// `std::process::abort`. False for in-process test workers, which
    /// simulate death by dropping their connection instead.
    pub hard_exit: bool,
    /// Cooperative cancellation for in-process workers: wedge loops poll
    /// this so a supervisor `kill` actually reclaims the thread. Real
    /// processes ignore it (SIGKILL does the reclaiming).
    pub cancel: Arc<AtomicBool>,
}

/// Beacon-thread control: a stop flag under a mutex plus a condvar so
/// shutdown interrupts the interval sleep immediately.
struct BeatCtl {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Serve jobs until the supervisor says `Shutdown` or closes the pipe.
///
/// Protocol: send `Hello`, start the beacon, then loop `recv job → replay
/// → send result`. Returns `Ok(())` on a clean shutdown *and* after a
/// simulated fault (the fault is the worker doing its job); returns `Err`
/// only when the command stream itself is broken.
pub fn run_worker<R, W, F>(
    mut reader: R,
    writer: W,
    cfg: &WorkerConfig,
    opts: &ExploreOptions,
    mut run: F,
) -> io::Result<()>
where
    R: Read,
    W: Write + Send + 'static,
    F: FnMut(&DecisionSet) -> RunResult,
{
    let writer: Arc<Mutex<W>> = Arc::new(Mutex::new(writer));
    send_msg(
        &mut *writer.lock(),
        &FromWorker::Hello {
            protocol: PROTOCOL_VERSION,
            config_digest: cfg.config_digest,
            pid: std::process::id(),
        },
    )?;

    let beat = Arc::new(BeatCtl {
        stop: Mutex::new(false),
        cv: Condvar::new(),
    });
    let beacon = {
        let beat = Arc::clone(&beat);
        let writer = Arc::clone(&writer);
        let interval = cfg.heartbeat_interval;
        std::thread::Builder::new()
            .name("dampi-worker-beat".into())
            .spawn(move || {
                let mut seq: u64 = 0;
                let mut stopped = beat.stop.lock();
                loop {
                    if *stopped {
                        return;
                    }
                    beat.cv.wait_for(&mut stopped, interval);
                    if *stopped {
                        return;
                    }
                    seq += 1;
                    if send_msg(&mut *writer.lock(), &FromWorker::Heartbeat { seq }).is_err() {
                        // Supervisor hung up; the job loop will see it too.
                        return;
                    }
                }
            })?
    };
    let stop_beats = || {
        *beat.stop.lock() = true;
        beat.cv.notify_all();
    };

    let out = job_loop(&mut reader, &writer, cfg, opts, &mut run, &stop_beats);
    stop_beats();
    let _ = beacon.join();
    out
}

/// What the armed fault decided about the job that just arrived.
enum FaultVerdict {
    /// Fault consumed the job; exit the worker.
    Exit,
    /// Fault consumed the job but the worker keeps serving (it is now a
    /// marked process the supervisor will kill).
    Continue,
}

#[allow(clippy::too_many_lines)]
fn job_loop<R, W, F>(
    reader: &mut R,
    writer: &Arc<Mutex<W>>,
    cfg: &WorkerConfig,
    opts: &ExploreOptions,
    run: &mut F,
    stop_beats: &dyn Fn(),
) -> io::Result<()>
where
    R: Read,
    W: Write + Send,
    F: FnMut(&DecisionSet) -> RunResult,
{
    let mut job_idx: u64 = 0;
    loop {
        let msg = match recv_msg::<_, ToWorker>(reader)? {
            Some(m) => m,
            None => return Ok(()), // supervisor closed the pipe
        };
        let (sig, mut decisions) = match msg {
            ToWorker::Shutdown => return Ok(()),
            ToWorker::Job { sig, decisions } => (sig, decisions),
        };
        decisions.rebuild_index();
        let armed = cfg.fault.filter(|f| f.nth_job == job_idx);
        job_idx += 1;
        if let Some(plan) = armed {
            match apply_fault(
                plan.kind, writer, cfg, opts, run, &decisions, sig, stop_beats,
            ) {
                FaultVerdict::Exit => return Ok(()),
                FaultVerdict::Continue => continue,
            }
        }
        let rep = execute_with_retry(run, &decisions, opts);
        send_msg(
            &mut *writer.lock(),
            &FromWorker::Result {
                sig,
                result: Box::new(rep.into()),
            },
        )?;
    }
}

/// Simulate the armed failure. Each arm mimics the observable shape of a
/// distinct real-world fault, which is what lets the supervisor tests pin
/// each detector (heartbeat vs lease vs checksum) to the failure class it
/// exists for.
#[allow(clippy::too_many_arguments)]
fn apply_fault<W, F>(
    kind: WorkerFaultKind,
    writer: &Arc<Mutex<W>>,
    cfg: &WorkerConfig,
    opts: &ExploreOptions,
    run: &mut F,
    decisions: &DecisionSet,
    sig: u64,
    stop_beats: &dyn Fn(),
) -> FaultVerdict
where
    W: Write + Send,
    F: FnMut(&DecisionSet) -> RunResult,
{
    match kind {
        WorkerFaultKind::Kill => {
            // SIGKILL mid-replay: no goodbye of any kind.
            stop_beats();
            if cfg.hard_exit {
                std::process::abort();
            }
            FaultVerdict::Exit
        }
        WorkerFaultKind::ExitBeforeAck => {
            // The replay ran to completion — side effects and all — but
            // the result never made it out. Re-dispatch must be
            // idempotent for this to be survivable.
            let _ = execute_with_retry(run, decisions, opts);
            stop_beats();
            FaultVerdict::Exit
        }
        WorkerFaultKind::StallHeartbeats => {
            // Silent wedge: the process lives but nothing flows. Only the
            // heartbeat detector can see this one.
            stop_beats();
            wedge(&cfg.cancel);
            FaultVerdict::Exit
        }
        WorkerFaultKind::WedgeReplay => {
            // Chatty wedge: beacons keep flowing, the job never finishes.
            // Only the lease detector can see this one.
            wedge(&cfg.cancel);
            FaultVerdict::Exit
        }
        WorkerFaultKind::CorruptResult => {
            // Ship a result frame whose checksum word lies about the
            // payload. The supervisor must reject the frame, not trust
            // partial bytes.
            let rep = execute_with_retry(run, decisions, opts);
            let msg = FromWorker::Result {
                sig,
                result: Box::new(rep.into()),
            };
            if let Ok(json) = serde_json::to_string(&msg) {
                let bytes = json.as_bytes();
                let _ = write_frame_with_checksum(
                    &mut *writer.lock(),
                    bytes,
                    checksum(bytes) ^ 0xdead_beef,
                );
            }
            // Keep serving: the supervisor will kill this incarnation as
            // soon as the bad frame desyncs the stream.
            FaultVerdict::Continue
        }
    }
}

/// Park until cancelled (in-process workers) or killed (real processes).
fn wedge(cancel: &AtomicBool) {
    while !cancel.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(5));
    }
}
