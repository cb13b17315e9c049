//! The process-wide pool of parked rank threads behind
//! [`run_with_layers`](crate::runtime::run_with_layers).
//!
//! DAMPI pays one re-execution per interleaving, so whatever a replay
//! costs before its first MPI call is paid hundreds of times per
//! campaign. Spawning and joining `np` OS threads was a third of a small
//! replay; here a run instead *checks out* `np` idle threads (spawning
//! only the ones that are missing), hands each its rank's job, blocks on a
//! completion latch until every rank has reported, and returns the
//! threads. Checkout is exclusive, so concurrent callers (`--jobs N`
//! replay workers) always get disjoint teams, and a team goes back in the
//! order it was taken: a caller that runs one world after another keeps
//! meeting the same threads.
//!
//! The pool holds threads and nothing else — no replay state. Every run
//! still builds a fresh [`World`](crate::runtime::World); a pooled thread
//! carries nothing from one job to the next but its stack.
//!
//! Worlds wider than [`POOLED_WORLD_MAX`] are not pooled (the runtime
//! spawns scoped threads for those): there the spawn cost is amortised
//! over ~10^5 messages, while hundreds of retained threads would each pin
//! an allocator arena.
//!
//! Pooled threads are detached and live until the process exits. Between
//! jobs they are parked on their own (empty) job queue and own nothing.
//!
//! # Safety contract
//!
//! A job borrows from its caller's stack (the program, the layer factory,
//! the world), but a pooled thread outlives the call, so the borrow's
//! lifetime has to be erased to hand it over — the same thing
//! `std::thread::scope` does internally, and the one thing in this crate
//! safe Rust cannot express. It is sound because `run` **cannot return
//! or unwind before every dispatched job has signalled the latch**, and a
//! worker never touches the borrow after signalling:
//!
//! * the caller waits for the latch in a drop guard (`Team`), so an
//!   unwind out of `run` waits exactly like a return does;
//! * a worker signals from a drop guard too (`Report`), after its last
//!   use of the borrow, so a job that panics past the runtime's own
//!   `catch_unwind` still reports (as [`MpiError::Panicked`]) instead of
//!   leaving the caller waiting or the borrow dangling;
//! * the latch is a channel — one report per job, counted by the caller —
//!   whose state is reference-counted and shared by both sides, never on
//!   the caller's stack, so the worker's last touch of it (unlock, notify)
//!   cannot race the caller's frame being popped.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::MpiError;

/// Widest world served from the pool; wider ones spawn scoped threads.
pub const POOLED_WORLD_MAX: usize = 32;

/// Stack size of every rank thread, pooled or scoped (kept small so
/// 1024-rank worlds are cheap; workloads are shallow).
pub(crate) const RANK_STACK_SIZE: usize = 256 * 1024;

/// What one rank does in one run: the whole per-rank lifecycle, given the
/// rank, yielding that rank's error if it had one.
pub(crate) type RankBody<'a> = dyn Fn(usize) -> Option<MpiError> + Sync + 'a;

/// A rank and how its job ended.
type Reported = (usize, Option<MpiError>);

/// Idle threads (each one the sending end of its job queue), most
/// recently returned last.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// Number of parked threads the pool holds right now (threads checked out
/// by a run in progress are not counted).
#[must_use]
pub fn idle_threads() -> usize {
    IDLE.lock().len()
}

struct Job {
    /// The caller's [`RankBody`] with its lifetime erased. Valid until
    /// this job's [`Report`] is dropped, and not a moment longer.
    body: *const RankBody<'static>,
    rank: usize,
    latch: Sender<Reported>,
}

// SAFETY: `body` points at a `RankBody`, which is `Sync`, so sharing it
// with the worker thread is what `&RankBody: Send` already permits; the
// raw pointer only drops the lifetime, which the module-level contract
// upholds. `rank` and `latch` are `Send` on their own.
unsafe impl Send for Job {}

/// Worker-side drop guard: signals the latch with the rank's outcome on
/// every way out of [`Job::execute`], unwinding included.
struct Report {
    latch: Sender<Reported>,
    rank: usize,
    outcome: Option<MpiError>,
}

impl Drop for Report {
    fn drop(&mut self) {
        // Cannot fail: the team keeps the receiving end until this arrives.
        let _ = self.latch.send((self.rank, self.outcome.take()));
    }
}

impl Job {
    fn execute(self) {
        let Job { body, rank, latch } = self;
        let mut report = Report {
            latch,
            rank,
            outcome: Some(MpiError::Panicked {
                message: "rank job unwound past its panic barrier".to_owned(),
            }),
        };
        // SAFETY: the caller of `run` is blocked in `Team::collect` until
        // `report` is dropped, which happens after the last use of `body`
        // below (on unwind too: `report` was declared first, so it is
        // dropped last), so the closure and everything it borrows are
        // still alive for as long as this reference is used.
        let body = unsafe { &*body };
        // The runtime's body has its own unwind barrier around everything
        // that runs program or tool code; this one keeps the *thread*
        // alive if a panic gets past it, so the pool never holds a dead
        // worker.
        if let Ok(outcome) = catch_unwind(AssertUnwindSafe(|| body(rank))) {
            report.outcome = outcome;
        }
    }
}

/// Caller-side drop guard: a checked-out team with jobs possibly in
/// flight. Dropping it waits for every job, then returns the threads.
struct Team {
    workers: Vec<Sender<Job>>,
    /// The latch: every job reports here exactly once. `latch` is kept so
    /// that jobs can be given a clone (and `reports` never disconnects).
    latch: Sender<Reported>,
    reports: Receiver<Reported>,
    in_flight: usize,
    outcomes: Vec<Option<MpiError>>,
}

impl Team {
    /// Take `np` idle threads out of the pool, spawning the missing ones.
    fn checkout(np: usize) -> Self {
        let mut workers = {
            let mut idle = IDLE.lock();
            let keep = idle.len().saturating_sub(np);
            idle.split_off(keep)
        };
        while workers.len() < np {
            let (tx, rx) = unbounded::<Job>();
            // Detached on purpose: the thread parks in `recv` for the life
            // of the process (the pool never drops a sender).
            std::thread::Builder::new()
                .name("dampi-rank".to_owned())
                .stack_size(RANK_STACK_SIZE)
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job.execute();
                    }
                })
                .expect("spawn rank thread");
            workers.push(tx);
        }
        let (latch, reports) = unbounded();
        Self {
            workers,
            latch,
            reports,
            in_flight: 0,
            outcomes: vec![None; np],
        }
    }

    /// Hand rank `rank`'s job to the team's `rank`-th thread.
    fn dispatch(&mut self, rank: usize, body: *const RankBody<'static>) {
        let job = Job {
            body,
            rank,
            latch: self.latch.clone(),
        };
        self.workers[rank]
            .send(job)
            .expect("pooled rank thread is alive");
        self.in_flight += 1;
    }

    /// Block until every dispatched job has reported.
    fn collect(&mut self) {
        while self.in_flight > 0 {
            let (rank, outcome) = self.reports.recv().expect("the team holds a sender");
            self.outcomes[rank] = outcome;
            self.in_flight -= 1;
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.collect();
        IDLE.lock().append(&mut self.workers);
    }
}

/// Run `body(rank)` for every `rank < np`, each on its own pooled thread,
/// all at once; returns when every rank has reported, with each rank's
/// outcome in rank order.
pub(crate) fn run(np: usize, body: &RankBody<'_>) -> Vec<Option<MpiError>> {
    let mut team = Team::checkout(np);
    // SAFETY: only the lifetime changes (same pointee type, same vtable).
    // The erased pointer is given to jobs of `team` alone, and `team`
    // waits for each of those jobs to drop its `Report` — in `collect`
    // below, or in its `Drop` if anything here unwinds — before this
    // function is left, i.e. before `body`'s real lifetime can end.
    let erased = unsafe {
        std::mem::transmute::<*const RankBody<'_>, *const RankBody<'static>>(std::ptr::from_ref(
            body,
        ))
    };
    for rank in 0..np {
        team.dispatch(rank, erased);
    }
    team.collect();
    std::mem::take(&mut team.outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// A body that panics with no barrier of its own — the case the
    /// runtime's body never produces — is reported as that rank's
    /// `Panicked`, the other ranks' outcomes are unaffected, and the
    /// thread survives to serve again.
    #[test]
    fn a_job_that_unwinds_past_every_barrier_reports_panicked_and_keeps_its_thread() {
        let ids: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        let outcomes = run(3, &|rank| {
            ids.lock().push((rank, std::thread::current().id()));
            assert!(rank != 1, "boom");
            (rank == 2).then_some(MpiError::InvalidComm)
        });
        assert_eq!(outcomes[0], None);
        assert!(matches!(outcomes[1], Some(MpiError::Panicked { .. })));
        assert_eq!(outcomes[2], Some(MpiError::InvalidComm));
        let panicked_on = ids.lock().iter().find(|(r, _)| *r == 1).expect("ran").1;
        // Other tests of this crate share the pool, so the same thread may
        // not come back on the first try. A dead one never would: the run
        // that drew it would wait for its report forever.
        let served_again = (0..1000).any(|_| {
            let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
            run(3, &|_| {
                seen.lock().push(std::thread::current().id());
                None
            });
            let seen = seen.into_inner();
            seen.contains(&panicked_on)
        });
        assert!(served_again);
    }
}
