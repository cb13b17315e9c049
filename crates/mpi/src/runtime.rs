//! The simulated-world runtime: rank threads, blocking, progress, deadlock
//! detection, collectives, communicator management, and the run harness.
//!
//! Every rank runs on an OS thread of its own for the length of one run.
//! The threads are reused from run to run: worlds of up to
//! [`POOLED_WORLD_MAX`] ranks check theirs out of the process-wide
//! [`pool`] (a replay campaign re-executes the program
//! hundreds of times, and spawn + join was a third of a small replay);
//! wider worlds spawn scoped threads. All shared state sits behind one
//! mutex, and a rank that cannot make progress parks on its *own* condvar.
//!
//! A notify is a futex syscall and, on one CPU, two context switches, so
//! a rank is woken only when it can act. One set of rules serves both
//! scheduler modes:
//! - a rank that blocks records in `Shared::waits` what it waits for:
//!   some of its own requests, a blocking probe's `(comm, src, tag)`, or a
//!   collective generation;
//! - an event clears a rank's `blocked` flag, and wakes it, only if it can
//!   satisfy that record. A completed request wakes its owner if the owner
//!   waits on it (a rendezvous sender included); a queued, unmatched
//!   message wakes its destination if that is in a matching blocking
//!   probe; the last entrant of a collective wakes the members waiting on
//!   it; a finishing rank wakes nobody;
//! - under the turn token ([`SimConfig::deterministic`]) only the rank
//!   that holds the turn is ever woken: an event just clears the flag, and
//!   the holder's hand-off wakes the next holder;
//! - a fatal error wakes everyone;
//! - a notify clears the rank's `parked` flag, so a park gets at most one.
//!
//! No notify is sent under the lock. On one CPU a rank notified by a
//! thread that still holds the mutex preempts it, blocks re-acquiring the
//! mutex inside its condvar wait and switches back: three context switches
//! for one hand-off. So `World::wake` only records the rank in
//! `Shared::pending`, and the lock guard (`World::lock`) sends the
//! notifies after it releases the mutex; `World::park` flushes the same
//! way before it sleeps. Invariant: `pending` is empty whenever the mutex
//! is free (checked on every acquisition in debug builds). No wake is
//! lost: a pending rank set its `parked` flag and entered its condvar wait
//! under the mutex, which that wait releases atomically, so a notify sent
//! after the notifier unlocks still finds it waiting. A notify can arrive
//! stale only if the rank's bounded wait (a wall-clock
//! [`ReplayBudget`]) timed out in between; it then ends a later wait
//! early, and that wait's loop re-checks and parks again.
//!
//! [`RunOutcome::census`] counts the parks that waited, notifies, turn
//! passes and notifies that found nothing to do.
//!
//! Deadlock is declared exactly when every unfinished rank is blocked
//! inside the runtime: state then can only change through another rank's
//! action, and there is none left to act — the classical "all live
//! processes blocked" criterion.

use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::collective::{combine, CollOutcome, CollSig, CollSlot, Contribution};
use crate::comm::{Comm, CommInfo};
use crate::envelope::Envelope;
use crate::error::{MpiError, Result};
use crate::leak::{CommLeak, LeakReport};
use crate::matching::{Delivery, MatchEngine, MatchPolicy, ProbeInfo};
use crate::pool::{self, RankBody, POOLED_WORLD_MAX, RANK_STACK_SIZE};
use crate::proc_api::{unexpected_outcome, Completed, Completion, Mpi, Pmpi, Status};
use crate::program::{MpiProgram, RunOutcome, RuntimeCensus};
use crate::request::{ReqKind, ReqState, Request, RequestEntry, RequestTable};
use crate::types::{source_matches, tag_matches, Tag, ANY_SOURCE};
use crate::vtime::VTimeParams;

/// Per-replay watchdog budgets (§ fault-tolerant exploration).
///
/// Both limits apply to a *single* run of the world — one interleaving.
/// When either trips, the runtime declares a global
/// [`MpiError::ReplayTimeout`] fatal: every blocked or still-running rank
/// unwinds with that error, the run harness returns normally, and the
/// verifier records the schedule as timed out instead of hanging the
/// whole campaign on one pathological interleaving.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayBudget {
    /// Kill the run once any rank's virtual clock passes this many
    /// simulated seconds (catches livelocks that spin in `compute`).
    pub max_virtual_time: Option<f64>,
    /// Kill the run once this much real time has elapsed since the world
    /// was created (catches hangs that make no virtual progress).
    pub max_wall_clock: Option<Duration>,
}

impl ReplayBudget {
    /// No limits (the default): replays run to completion or deadlock.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder-style: cap per-replay virtual time (simulated seconds).
    #[must_use]
    pub fn with_max_virtual_time(mut self, seconds: f64) -> Self {
        self.max_virtual_time = Some(seconds);
        self
    }

    /// Builder-style: cap per-replay wall-clock time.
    #[must_use]
    pub fn with_max_wall_clock(mut self, limit: Duration) -> Self {
        self.max_wall_clock = Some(limit);
        self
    }
}

/// Configuration of a simulated world.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of MPI processes (rank threads).
    pub nprocs: usize,
    /// Wildcard-receive resolution policy of the "native" runtime.
    pub policy: MatchPolicy,
    /// Virtual-time model parameters.
    pub vtime: VTimeParams,
    /// Eager-protocol threshold: messages with payloads up to this size
    /// are buffered (the send completes at post time); larger messages use
    /// the rendezvous protocol (the send completes only when matched by a
    /// receive). `None` means everything is eager — the default, and the
    /// common small-message regime. Real MPI implementations switch
    /// protocols exactly this way, and programs that are only correct
    /// under eager buffering ("unsafe" sends per the MPI standard)
    /// deadlock when run with `Some(0)`.
    pub eager_limit: Option<usize>,
    /// Per-replay watchdog budgets (wall clock and virtual time).
    pub budget: ReplayBudget,
    /// Deterministic cooperative scheduling. When set, exactly one
    /// runnable rank executes runtime calls at a time (every call that
    /// reads or advances simulated state, `now` and `compute` included, so
    /// whatever a tool layer does after its first call of an operation
    /// happens in turn order too): a round-robin turn token passes to the
    /// next unfinished, unblocked rank whenever the holder blocks or
    /// finishes. Message arrival order — and therefore
    /// every wildcard-match candidate set in the *unconstrained* part of a
    /// run — becomes a pure function of the program and the forced replay
    /// prefix instead of an OS thread-scheduling race. Exhaustive
    /// (vector-clock/ISP) exploration is insensitive to this choice; the
    /// schedule-relative Lamport analysis is not, so differential fuzzing
    /// requires it. Off by default: free-threaded runs exercise the racy
    /// arrival orders real MPI exhibits. Caveat: a rank that busy-waits on
    /// nonblocking calls (`test`/`iprobe` spin loops) without ever
    /// blocking never yields the token; only the wall-clock watchdog can
    /// reclaim such a run.
    pub deterministic: bool,
}

impl SimConfig {
    /// Default configuration for `nprocs` ranks.
    #[must_use]
    pub fn new(nprocs: usize) -> Self {
        assert!(nprocs > 0, "world must have at least one rank");
        Self {
            nprocs,
            policy: MatchPolicy::default(),
            vtime: VTimeParams::default(),
            eager_limit: None,
            budget: ReplayBudget::default(),
            deterministic: false,
        }
    }

    /// Builder-style: set the eager-protocol threshold (see
    /// [`SimConfig::eager_limit`]).
    #[must_use]
    pub fn with_eager_limit(mut self, limit: Option<usize>) -> Self {
        self.eager_limit = limit;
        self
    }

    /// Builder-style: set the wildcard match policy.
    #[must_use]
    pub fn with_policy(mut self, policy: MatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: set virtual-time parameters.
    #[must_use]
    pub fn with_vtime(mut self, vtime: VTimeParams) -> Self {
        self.vtime = vtime;
        self
    }

    /// Builder-style: set per-replay watchdog budgets.
    #[must_use]
    pub fn with_budget(mut self, budget: ReplayBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style: toggle deterministic cooperative scheduling (see
    /// [`SimConfig::deterministic`]).
    #[must_use]
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.deterministic = deterministic;
        self
    }
}

struct CommEntry {
    info: CommInfo,
    engine: MatchEngine,
    coll: CollSlot,
}

impl CommEntry {
    fn new(info: CommInfo) -> Self {
        let size = info.size();
        Self {
            info,
            engine: MatchEngine::new(size),
            coll: CollSlot::new(size),
        }
    }
}

/// What a blocked rank waits for: the events that can let it proceed.
/// Waiting for the execution turn needs no record, since `Shared::turn`
/// names the one rank the token wakes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wait {
    /// Completion of one of the requests in `Shared::wait_reqs`.
    Requests,
    /// An unexpected message on `comms[comm]` that a blocking probe with
    /// these specifiers matches.
    Probe { comm: usize, src: i32, tag: Tag },
    /// The outcome of generation `gen` of `comms[comm]`'s collective slot.
    Collective { comm: usize, gen: u64 },
}

struct Shared {
    comms: Vec<CommEntry>,
    requests: RequestTable,
    vt: Vec<f64>,
    /// `blocked[r]`: `r`'s wait was unsatisfied when last evaluated and no
    /// event since could have satisfied it.
    blocked: Vec<bool>,
    nblocked: usize,
    /// What each rank waits for, recorded when it becomes blocked and
    /// meaningful while `blocked[r]` holds.
    waits: Vec<Wait>,
    /// The requests of a [`Wait::Requests`] record: one buffer per rank,
    /// reused from wait to wait.
    wait_reqs: Vec<Vec<Request>>,
    /// Ranks waiting on their condvar right now, not yet woken: set in
    /// [`World::park`], cleared by [`World::wake`] (or by the park itself
    /// when it times out). Only these are ever notified, since notifying a
    /// condvar is a syscall even with no waiter.
    parked: Vec<bool>,
    /// Ranks woken while the lock is held, notified once it is released
    /// ([`Locked`]). Empty whenever the mutex is free; at most one entry
    /// per rank.
    pending: Vec<usize>,
    census: RuntimeCensus,
    finished: Vec<bool>,
    nfinished: usize,
    fatal: Option<MpiError>,
    /// Holder of the execution turn under deterministic scheduling
    /// ([`SimConfig::deterministic`]); unused otherwise.
    turn: usize,
    /// The tool's shadow of `MPI_COMM_WORLD` once a rank has asked for it
    /// ([`World::op_shadow_world`]), and how many ranks have released it.
    world_shadow: Option<(Comm, usize)>,
}

/// A simulated MPI world. Construct with [`World::new`], then execute
/// programs with [`run_native`] / [`run_with_layers`] (which build the
/// world internally) or drive ranks manually through [`Pmpi`] handles.
pub struct World {
    cfg: SimConfig,
    state: Mutex<Shared>,
    /// One condvar per rank for targeted wakeups; all bound to `state`.
    cvs: Vec<Condvar>,
    /// Wall-clock watchdog deadline for this run (from the replay budget).
    deadline: Option<Instant>,
}

/// The state lock, held; every [`World`] entry point takes it through
/// [`World::lock`]. Dropping it releases the mutex and then notifies the
/// ranks woken while it was held.
struct Locked<'w> {
    // Fields drop in declaration order: `guard` releases the mutex, then
    // `due` sends the notifies that `Drop for Locked` moved into it.
    guard: MutexGuard<'w, Shared>,
    due: Due<'w>,
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        let pending = &mut self.guard.pending;
        if pending.len() > 1 {
            self.due.many = std::mem::take(pending);
        } else {
            self.due.one = pending.pop();
        }
    }
}

impl Deref for Locked<'_> {
    type Target = Shared;
    fn deref(&self) -> &Shared {
        &self.guard
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Shared {
        &mut self.guard
    }
}

/// Notifies owed to ranks woken under the lock; sent on drop.
struct Due<'w> {
    cvs: &'w [Condvar],
    /// A lone pending rank, the common case: taken without the list's
    /// buffer.
    one: Option<usize>,
    /// Several pending ranks (a fatal error, or a collective completing in
    /// a free-running world) take the list's buffer with them; the next
    /// wake re-grows it.
    many: Vec<usize>,
}

impl Drop for Due<'_> {
    fn drop(&mut self) {
        for &rank in self.one.iter().chain(&self.many) {
            self.cvs[rank].notify_one();
        }
    }
}

impl World {
    /// Create a world with `COMM_WORLD` over `cfg.nprocs` ranks.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Arc<Self> {
        let n = cfg.nprocs;
        let shared = Shared {
            comms: vec![CommEntry::new(CommInfo::world(n))],
            requests: RequestTable::new(),
            vt: vec![0.0; n],
            blocked: vec![false; n],
            nblocked: 0,
            waits: vec![Wait::Requests; n],
            wait_reqs: vec![Vec::new(); n],
            parked: vec![false; n],
            pending: Vec::with_capacity(n),
            census: RuntimeCensus::default(),
            finished: vec![false; n],
            nfinished: 0,
            fatal: None,
            turn: 0,
            world_shadow: None,
        };
        let deadline = cfg
            .budget
            .max_wall_clock
            .map(|limit| Instant::now() + limit);
        Arc::new(Self {
            cfg,
            state: Mutex::new(shared),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            deadline,
        })
    }

    /// Number of ranks.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// The world configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    // ---- internal helpers -------------------------------------------------

    fn resolve(s: &Shared, comm: Comm, world_rank: usize) -> Result<(usize, usize)> {
        let idx = comm.0 as usize;
        let entry = s.comms.get(idx).ok_or(MpiError::InvalidComm)?;
        if entry.info.freed {
            return Err(MpiError::InvalidComm);
        }
        let crank = entry
            .info
            .comm_rank_of(world_rank)
            .ok_or(MpiError::InvalidComm)?;
        Ok((idx, crank))
    }

    fn fatal_err(s: &Shared) -> Option<MpiError> {
        s.fatal.clone()
    }

    /// Declare a watchdog timeout as the world's fatal error and wake every
    /// rank. An earlier fatal (first cause) wins.
    fn trip_timeout(&self, s: &mut Shared, detail: String) -> MpiError {
        if s.fatal.is_none() {
            s.fatal = Some(MpiError::ReplayTimeout { detail });
            self.wake_all(s);
        }
        s.fatal.clone().expect("fatal just set")
    }

    /// Fatal-or-watchdog check. An existing fatal error wins; otherwise the
    /// wall-clock deadline is consulted here — on every runtime entry — so
    /// even non-blocking spin loops (`iprobe`/`test` livelocks) observe the
    /// watchdog, not just ranks parked in `block_on`.
    fn guard(&self, s: &mut Shared) -> Option<MpiError> {
        if let Some(f) = Self::fatal_err(s) {
            return Some(f);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                let limit = self.cfg.budget.max_wall_clock.unwrap_or_default();
                return Some(
                    self.trip_timeout(s, format!("wall-clock budget of {limit:?} exceeded")),
                );
            }
        }
        None
    }

    /// Virtual-time budget check, called after `rank`'s clock advances.
    fn check_vt_budget(&self, s: &mut Shared, rank: usize) -> Result<()> {
        if let Some(limit) = self.cfg.budget.max_virtual_time {
            if s.vt[rank] > limit {
                let vt = s.vt[rank];
                return Err(self.trip_timeout(
                    s,
                    format!("virtual-time budget of {limit}s exceeded (rank {rank} at {vt:.6}s)"),
                ));
            }
        }
        Ok(())
    }

    /// Lock shared state. Dropping the guard releases the mutex, then sends
    /// the notifies [`Self::wake`] recorded meanwhile.
    fn lock(&self) -> Locked<'_> {
        let guard = self.state.lock();
        debug_assert!(guard.pending.is_empty(), "a wake outlived its lock");
        Locked {
            guard,
            due: Due {
                cvs: &self.cvs,
                one: None,
                many: Vec::new(),
            },
        }
    }

    /// Lock shared state and — in deterministic mode — park until `rank`
    /// holds the execution turn. Once the world has a fatal error the turn
    /// discipline is abandoned so every rank can unwind concurrently.
    fn enter(&self, rank: usize) -> Locked<'_> {
        let mut g = self.lock();
        if self.cfg.deterministic {
            let mut idle = false;
            while g.fatal.is_none() && g.turn != rank {
                if self.guard(&mut g).is_some() {
                    break; // watchdog tripped: fatal is now set
                }
                g = self.park(g, rank, &mut idle);
            }
        }
        g
    }

    /// [`Self::enter`], then the fatal-or-watchdog check every operation
    /// that does not block starts with.
    fn enter_guarded(&self, rank: usize) -> Result<Locked<'_>> {
        let mut g = self.enter(rank);
        match self.guard(&mut g) {
            Some(f) => Err(f),
            None => Ok(g),
        }
    }

    /// Wait on `rank`'s condvar, bounded by the wall-clock deadline when
    /// one is configured (so parked ranks re-check the watchdog). Every
    /// caller re-checks what it waits for when this returns.
    ///
    /// Notifies are never sent under the lock, and the wait releases it,
    /// so a park with wakes pending flushes them instead of waiting: it
    /// releases the mutex, notifies, re-locks and returns. By then the
    /// rank may hold what it waited for (a successor that passed the turn
    /// straight back), and the wait is skipped. Only a park that waits is
    /// counted.
    ///
    /// `idle` spans the parks of one wait: it is set when the park ended in
    /// a notify that did not hand the rank the turn. If the rank then parks
    /// again in the same wait, that notify found nothing to do and counts
    /// as a spurious wake.
    fn park<'w>(&'w self, mut g: Locked<'w>, rank: usize, idle: &mut bool) -> Locked<'w> {
        if !g.pending.is_empty() {
            drop(g);
            return self.lock();
        }
        if std::mem::take(idle) {
            g.census.spurious_wakes += 1;
        }
        g.census.parks += 1;
        g.parked[rank] = true;
        match self.deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                let _ = self.cvs[rank].wait_for(&mut g.guard, remaining);
            }
            None => self.cvs[rank].wait(&mut g.guard),
        }
        debug_assert!(g.pending.is_empty(), "a wake outlived its lock");
        let notified = !std::mem::replace(&mut g.parked[rank], false);
        *idle = notified && !(self.cfg.deterministic && g.turn == rank);
        g
    }

    /// Wake `rank` if it is parked and may act now: under the turn token
    /// only the holder may, until the world turns fatal. Callers hold the
    /// state lock, and a rank records what it waits for and parks under
    /// that lock, so a rank found not parked here cannot miss the event.
    ///
    /// The wake is recorded, not sent: clearing `parked` makes it the
    /// park's one wake, and the rank joins `Shared::pending`, which the
    /// lock guard notifies once the mutex is released ([`Locked`]).
    fn wake(&self, s: &mut Shared, rank: usize) {
        let may_act = !self.cfg.deterministic || s.turn == rank || s.fatal.is_some();
        if s.parked[rank] && may_act {
            s.parked[rank] = false;
            s.census.wakes += 1;
            s.pending.push(rank);
        }
    }

    /// Wake every parked rank: the world has turned fatal.
    fn wake_all(&self, s: &mut Shared) {
        for rank in 0..self.cfg.nprocs {
            self.wake(s, rank);
        }
    }

    /// Deterministic mode: make `to` the turn holder and wake it.
    fn give_turn(&self, s: &mut Shared, to: usize) {
        s.turn = to;
        self.wake(s, to);
    }

    /// Deterministic mode: hand the execution turn from `from` to the next
    /// runnable (unfinished, not logically blocked) rank, round-robin. The
    /// caller must have made `from` ineligible first — blocked or finished
    /// — so the token never returns to a rank that cannot act. If no rank
    /// is eligible the token stays put; the caller's deadlock check owns
    /// that case.
    fn pass_turn(&self, g: &mut Shared, from: usize) {
        if !self.cfg.deterministic || g.turn != from || g.fatal.is_some() {
            return;
        }
        let n = self.cfg.nprocs;
        for off in 1..n {
            let r = (from + off) % n;
            if !g.finished[r] && !g.blocked[r] {
                g.census.turn_passes += 1;
                self.give_turn(g, r);
                return;
            }
        }
    }

    /// Block `rank` until `ready` yields a result, with deadlock detection.
    /// `wait` (with `reqs` for [`Wait::Requests`]) is what `ready` waits
    /// for: the record events are checked against while `rank` is blocked.
    ///
    /// `blocked[r]` means *logically* blocked: `r`'s predicate was
    /// unsatisfied when last evaluated and no event since could have
    /// satisfied it. Every event that can satisfy a blocked rank's record
    /// ([`Self::unblock_if`]) clears its flag *before* notifying, so
    /// `nblocked == live ranks` holds exactly when no rank can ever make
    /// progress — a true deadlock, immune to wakeup-scheduling races.
    fn block_on<T>(
        &self,
        rank: usize,
        wait: Wait,
        reqs: &[Request],
        mut ready: impl FnMut(&mut Shared) -> Option<Result<T>>,
    ) -> Result<T> {
        let mut g = self.lock();
        let mut idle = false;
        loop {
            // Deterministic mode: only the turn holder may evaluate its
            // predicate (evaluation can consume state — complete a request,
            // take a collective outcome), so park until the token arrives.
            // A fatal error suspends the discipline: every rank proceeds to
            // the unwind paths below.
            if self.cfg.deterministic
                && g.fatal.is_none()
                && g.turn != rank
                && self.guard(&mut g).is_none()
            {
                g = self.park(g, rank, &mut idle);
                continue;
            }
            // Completion first: an operation whose predicate is already
            // satisfied succeeds even if the job is being torn down — only
            // operations that would still have to wait observe the abort.
            if let Some(out) = ready(&mut g) {
                Self::clear_blocked(&mut g, rank);
                return out;
            }
            if let Some(f) = self.guard(&mut g) {
                Self::clear_blocked(&mut g, rank);
                return Err(f);
            }
            if !g.blocked[rank] {
                let s = &mut *g;
                s.blocked[rank] = true;
                s.nblocked += 1;
                s.waits[rank] = wait;
                s.wait_reqs[rank].clear();
                s.wait_reqs[rank].extend_from_slice(reqs);
            }
            if g.nblocked == self.cfg.nprocs - g.nfinished {
                // Every unfinished rank (including us) is blocked: deadlock.
                let blocked_ranks: Vec<usize> = g
                    .blocked
                    .iter()
                    .enumerate()
                    .filter_map(|(r, &b)| b.then_some(r))
                    .collect();
                let err = MpiError::Deadlock { blocked_ranks };
                g.fatal = Some(err.clone());
                Self::clear_blocked(&mut g, rank);
                self.wake_all(&mut g);
                return Err(err);
            }
            // No deadlock, so some other rank is runnable: hand it the
            // turn (no-op outside deterministic mode). On timeout of the
            // bounded wait the loop re-enters `guard`, which trips the
            // watchdog and unwinds every rank.
            self.pass_turn(&mut g, rank);
            g = self.park(g, rank, &mut idle);
        }
    }

    fn clear_blocked(s: &mut Shared, rank: usize) {
        if s.blocked[rank] {
            s.blocked[rank] = false;
            s.nblocked -= 1;
        }
    }

    /// An event occurred: if `world_rank` is blocked on a wait it
    /// `satisfies`, clear its logical-block flag and wake it.
    fn unblock_if(
        &self,
        s: &mut Shared,
        world_rank: usize,
        satisfies: impl FnOnce(Wait, &[Request]) -> bool,
    ) {
        if s.blocked[world_rank] && satisfies(s.waits[world_rank], &s.wait_reqs[world_rank]) {
            Self::clear_blocked(s, world_rank);
            self.wake(s, world_rank);
        }
    }

    /// `req` of `owner` completed.
    fn request_done(&self, s: &mut Shared, owner: usize, req: Request) {
        self.unblock_if(s, owner, |wait, reqs| {
            wait == Wait::Requests && reqs.contains(&req)
        });
    }

    /// Complete a recv request (and, for rendezvous messages, the paired
    /// send request) and wake the owners. Caller holds the lock.
    fn complete_recv_locked(&self, s: &mut Shared, req_id: u64, env: Envelope) {
        if let Some(sreq) = env.send_req {
            let sender = s.requests.complete_send(sreq);
            self.request_done(s, sender, Request(sreq));
        }
        s.requests.complete_recv(req_id, env);
        let owner = s
            .requests
            .get(Request(req_id))
            .expect("just completed")
            .owner;
        self.request_done(s, owner, Request(req_id));
    }

    // ---- point-to-point ---------------------------------------------------

    pub(crate) fn op_now(&self, rank: usize) -> f64 {
        self.enter(rank).vt[rank]
    }

    pub(crate) fn op_compute(&self, rank: usize, seconds: f64) -> Result<()> {
        let mut g = self.enter_guarded(rank)?;
        g.vt[rank] += seconds.max(0.0);
        self.check_vt_budget(&mut g, rank)
    }

    pub(crate) fn op_fatal_check(&self) -> Result<()> {
        let mut g = self.lock();
        match self.guard(&mut g) {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    pub(crate) fn op_comm_rank(&self, rank: usize, comm: Comm) -> Result<usize> {
        let g = self.lock();
        Self::resolve(&g, comm, rank).map(|(_, crank)| crank)
    }

    pub(crate) fn op_comm_size(&self, rank: usize, comm: Comm) -> Result<usize> {
        let g = self.lock();
        Self::resolve(&g, comm, rank).map(|(idx, _)| g.comms[idx].info.size())
    }

    pub(crate) fn op_translate_rank(&self, comm: Comm, comm_rank: usize) -> Result<usize> {
        let g = self.lock();
        let entry = g.comms.get(comm.0 as usize).ok_or(MpiError::InvalidComm)?;
        entry
            .info
            .world_rank_of(comm_rank)
            .ok_or(MpiError::InvalidRank {
                rank: comm_rank as i32,
                comm_size: entry.info.size(),
            })
    }

    pub(crate) fn op_isend(
        &self,
        rank: usize,
        comm: Comm,
        dest: i32,
        tag: Tag,
        data: Bytes,
    ) -> Result<Request> {
        let mut g = self.enter_guarded(rank)?;
        let (idx, crank) = Self::resolve(&g, comm, rank)?;
        let size = g.comms[idx].info.size();
        if dest < 0 || dest as usize >= size {
            return Err(MpiError::InvalidRank {
                rank: dest,
                comm_size: size,
            });
        }
        g.vt[rank] += self.cfg.vtime.send_overhead;
        self.check_vt_budget(&mut g, rank)?;
        let eager = self.cfg.eager_limit.is_none_or(|limit| data.len() <= limit);
        let req = g.requests.create(RequestEntry {
            owner: rank,
            comm,
            kind: ReqKind::Send,
            src_spec: dest,
            tag_spec: tag,
            state: if eager {
                ReqState::SendDone
            } else {
                ReqState::Pending
            },
        });
        let env = Envelope {
            src: crank,
            dst: dest as usize,
            tag,
            payload: data,
            arrival_seq: 0,
            send_vt: g.vt[rank],
            send_req: (!eager).then_some(req.0),
        };
        let dst_world = g.comms[idx]
            .info
            .world_rank_of(dest as usize)
            .expect("validated dest");
        match g.comms[idx].engine.deliver(env) {
            Delivery::Matched {
                req: rreq,
                envelope,
            } => {
                self.complete_recv_locked(&mut g, rreq, envelope);
            }
            Delivery::Queued => {
                // An unexpected message can satisfy only a blocking probe.
                self.unblock_if(&mut g, dst_world, |wait, _| {
                    matches!(wait, Wait::Probe { comm, src, tag: want }
                        if comm == idx && source_matches(src, crank) && tag_matches(want, tag))
                });
            }
        }
        Ok(req)
    }

    pub(crate) fn op_irecv(&self, rank: usize, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        let mut g = self.enter_guarded(rank)?;
        let (idx, crank) = Self::resolve(&g, comm, rank)?;
        let size = g.comms[idx].info.size();
        if src != ANY_SOURCE && (src < 0 || src as usize >= size) {
            return Err(MpiError::InvalidRank {
                rank: src,
                comm_size: size,
            });
        }
        let req = g.requests.create(RequestEntry {
            owner: rank,
            comm,
            kind: ReqKind::Recv,
            src_spec: src,
            tag_spec: tag,
            state: ReqState::Pending,
        });
        let policy = self.cfg.policy;
        if let Some(env) = g.comms[idx].engine.post(crank, req.0, src, tag, policy) {
            self.complete_recv_locked(&mut g, req.0, env);
        }
        Ok(req)
    }

    fn finish_wait(&self, s: &mut Shared, rank: usize, req: Request) -> Result<(Status, Bytes)> {
        let entry = s.requests.consume(req)?;
        match entry.state {
            ReqState::SendDone => Ok((
                Status {
                    source: rank,
                    tag: entry.tag_spec,
                },
                Bytes::new(),
            )),
            ReqState::RecvDone(env) => {
                s.vt[rank] =
                    self.cfg
                        .vtime
                        .recv_complete(env.send_vt, s.vt[rank], env.payload.len());
                Ok((
                    Status {
                        source: env.src,
                        tag: env.tag,
                    },
                    env.payload,
                ))
            }
            ReqState::Pending => unreachable!("finish_wait on incomplete request"),
        }
    }

    /// Run `ready` as one operation of `rank`: through [`Self::block_on`]
    /// on `wait` until it yields when `blocking`, else once. Polling checks
    /// the guard *first* so that spin loops observe the watchdog.
    fn attempt<T>(
        &self,
        rank: usize,
        blocking: bool,
        wait: Wait,
        reqs: &[Request],
        mut ready: impl FnMut(&mut Shared) -> Option<Result<T>>,
    ) -> Result<Option<T>> {
        if blocking {
            return self.block_on(rank, wait, reqs, ready).map(Some);
        }
        let mut g = self.enter_guarded(rank)?;
        ready(&mut g).transpose()
    }

    /// Consume the complete requests among `reqs` that `how` asks for into
    /// `done`; `None` when there is none yet. Only the owner may complete a
    /// request, in every mode. (Filling the caller's `done` instead of
    /// returning one keeps an 80-byte value out of `block_on`'s
    /// `Option<Result<_>>` plumbing under the world lock: 25 ns per `wait`.)
    fn finish_ready(
        &self,
        s: &mut Shared,
        rank: usize,
        reqs: &[Request],
        how: Completion,
        done: &mut Completed,
    ) -> Result<Option<()>> {
        for (i, r) in reqs.iter().enumerate() {
            let entry = s.requests.get(*r)?;
            if entry.owner != rank {
                return Err(MpiError::ToolProtocol {
                    detail: format!("rank {rank} completed rank {}'s request", entry.owner),
                });
            }
            if entry.is_done() {
                let (status, data) = self.finish_wait(s, rank, *r)?;
                done.push((i, status, data));
                if !how.takes_all() {
                    break;
                }
            }
        }
        Ok((!done.is_empty()).then_some(()))
    }

    /// The bottom of [`Mpi::complete`](crate::proc_api::Mpi::complete).
    pub(crate) fn op_complete(
        &self,
        rank: usize,
        reqs: &[Request],
        how: Completion,
    ) -> Result<Completed> {
        if how.blocking() && reqs.is_empty() {
            return Err(MpiError::ToolProtocol {
                detail: "blocking completion on an empty request list".to_owned(),
            });
        }
        let mut done = Completed::default();
        self.attempt(rank, how.blocking(), Wait::Requests, reqs, |s| {
            self.finish_ready(s, rank, reqs, how, &mut done).transpose()
        })?;
        Ok(done)
    }

    /// The bottom of [`Mpi::probe_for`](crate::proc_api::Mpi::probe_for).
    pub(crate) fn op_probe(
        &self,
        rank: usize,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Result<Option<ProbeInfo>> {
        let policy = self.cfg.policy;
        let wait = Wait::Probe {
            comm: comm.0 as usize,
            src,
            tag,
        };
        self.attempt(rank, blocking, wait, &[], |s| {
            match Self::resolve(s, comm, rank) {
                Ok((idx, crank)) => s.comms[idx].engine.probe(crank, src, tag, policy).map(Ok),
                Err(e) => Some(Err(e)),
            }
        })
    }

    // ---- collectives ------------------------------------------------------

    /// Shared rendezvous path for every collective operation: the bottom
    /// of [`Mpi::collective`](crate::proc_api::Mpi::collective) and of the
    /// three communicator-management operations below.
    pub(crate) fn collective(
        &self,
        rank: usize,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
    ) -> Result<CollOutcome> {
        let (gen, idx, crank) = {
            let mut g = self.enter_guarded(rank)?;
            let (idx, crank) = Self::resolve(&g, comm, rank)?;
            let size = g.comms[idx].info.size();
            if let Some(root) = sig.root().filter(|&root| root >= size) {
                return Err(MpiError::InvalidRank {
                    rank: i32::try_from(root).unwrap_or(i32::MAX),
                    comm_size: size,
                });
            }
            g.vt[rank] += self.cfg.vtime.send_overhead;
            self.check_vt_budget(&mut g, rank)?;
            let vt = g.vt[rank];
            let (gen, last) = match g.comms[idx].coll.enter(crank, sig, contribution, vt) {
                Ok(v) => v,
                Err(e) => {
                    // Mismatched collective: a program bug that would hang
                    // the other participants — declare it globally.
                    g.fatal = Some(e.clone());
                    self.wake_all(&mut g);
                    return Err(e);
                }
            };
            if last {
                let (sig, contribs, max_vt) = g.comms[idx].coll.take_contributions();
                let result_vt = max_vt + self.cfg.vtime.collective_cost(size);
                let outcomes = if sig.is_comm_management() {
                    self.comm_management(&mut g, idx, sig, &contribs)
                } else {
                    combine(sig, &contribs)
                };
                g.comms[idx].coll.finish(gen, outcomes, result_vt);
                let waiting = Wait::Collective { comm: idx, gen };
                for i in 0..size {
                    let m = g.comms[idx].info.group[i];
                    self.unblock_if(&mut g, m, |wait, _| wait == waiting);
                }
            }
            (gen, idx, crank)
        };
        let wait = Wait::Collective { comm: idx, gen };
        let (outcome, vt) = self.block_on(rank, wait, &[], |s| {
            s.comms[idx].coll.try_take(gen, crank).map(Ok)
        })?;
        let mut g = self.lock();
        g.vt[rank] = g.vt[rank].max(vt);
        self.check_vt_budget(&mut g, rank)?;
        outcome
    }

    /// Append a duplicate of `comms[parent_idx]` to the comm table.
    fn push_dup(&self, s: &mut Shared, parent_idx: usize) -> Comm {
        let parent = &s.comms[parent_idx].info;
        let id = Comm(s.comms.len() as u32);
        let info = CommInfo::derived(
            id,
            parent.group.clone(),
            self.cfg.nprocs,
            format!("dup of {}", parent.label),
        );
        s.comms.push(CommEntry::new(info));
        id
    }

    /// Combine communicator-management collectives; owns the comm table.
    fn comm_management(
        &self,
        s: &mut Shared,
        parent_idx: usize,
        sig: CollSig,
        contribs: &[Contribution],
    ) -> std::result::Result<Vec<CollOutcome>, MpiError> {
        let n = contribs.len();
        match sig {
            CollSig::CommDup => Ok(vec![CollOutcome::Comm(self.push_dup(s, parent_idx)); n]),
            CollSig::CommSplit => {
                let parent_group = s.comms[parent_idx].info.group.clone();
                let parent_label = s.comms[parent_idx].info.label.clone();
                // Collect (color, key, comm rank) triples.
                let mut triples: Vec<(i64, i64, usize)> = Vec::with_capacity(n);
                for (crank, c) in contribs.iter().enumerate() {
                    match c {
                        Contribution::Split { color, key } => triples.push((*color, *key, crank)),
                        _ => {
                            return Err(MpiError::CollectiveMismatch {
                                detail: "comm_split got a non-split contribution".to_owned(),
                            })
                        }
                    }
                }
                let mut colors: Vec<i64> =
                    triples.iter().map(|t| t.0).filter(|&c| c >= 0).collect();
                colors.sort_unstable();
                colors.dedup();
                let mut outcomes = vec![CollOutcome::NoComm; n];
                for color in colors {
                    let mut members: Vec<(i64, usize)> = triples
                        .iter()
                        .filter(|t| t.0 == color)
                        .map(|t| (t.1, t.2))
                        .collect();
                    members.sort_unstable();
                    let group: Vec<usize> = members
                        .iter()
                        .map(|&(_, crank)| parent_group[crank])
                        .collect();
                    let id = Comm(s.comms.len() as u32);
                    let info = CommInfo::derived(
                        id,
                        group,
                        self.cfg.nprocs,
                        format!("split(color={color}) of {parent_label}"),
                    );
                    s.comms.push(CommEntry::new(info));
                    for &(_, crank) in &members {
                        outcomes[crank] = CollOutcome::Comm(id);
                    }
                }
                Ok(outcomes)
            }
            CollSig::CommFree => {
                s.comms[parent_idx].info.freed = true;
                Ok(vec![CollOutcome::None; n])
            }
            _ => unreachable!("comm_management called for a data collective"),
        }
    }

    pub(crate) fn op_comm_dup(&self, rank: usize, comm: Comm) -> Result<Comm> {
        match self.collective(rank, comm, CollSig::CommDup, Contribution::None)? {
            CollOutcome::Comm(c) => Ok(c),
            other => Err(unexpected_outcome(CollSig::CommDup, &other)),
        }
    }

    pub(crate) fn op_comm_split(
        &self,
        rank: usize,
        comm: Comm,
        color: i64,
        key: i64,
    ) -> Result<Option<Comm>> {
        match self.collective(
            rank,
            comm,
            CollSig::CommSplit,
            Contribution::Split { color, key },
        )? {
            CollOutcome::Comm(c) => Ok(Some(c)),
            CollOutcome::NoComm => Ok(None),
            other => Err(unexpected_outcome(CollSig::CommSplit, &other)),
        }
    }

    pub(crate) fn op_comm_free(&self, rank: usize, comm: Comm) -> Result<()> {
        if comm == Comm::WORLD {
            return Err(MpiError::ToolProtocol {
                detail: "cannot free MPI_COMM_WORLD".to_owned(),
            });
        }
        match self.collective(rank, comm, CollSig::CommFree, Contribution::None)? {
            CollOutcome::None => Ok(()),
            other => Err(unexpected_outcome(CollSig::CommFree, &other)),
        }
    }

    // ---- the tool's shadow of MPI_COMM_WORLD -------------------------------

    /// Charge `rank` the virtual time of a rendezvous over the whole world
    /// without holding one: the send overhead of entering, then the
    /// collective's latency. Two additions in that order, as
    /// [`Self::collective`] makes them, so the makespan keeps its bits:
    /// `max_r((vt_r + s) + c) == max_r(vt_r + s) + c`.
    fn charge_world_rendezvous(&self, s: &mut Shared, rank: usize) -> Result<()> {
        s.vt[rank] += self.cfg.vtime.send_overhead;
        s.vt[rank] += self.cfg.vtime.collective_cost(self.cfg.nprocs);
        self.check_vt_budget(s, rank)
    }

    /// The bottom of [`Mpi::shadow_world`](crate::proc_api::Mpi::shadow_world):
    /// the first rank to ask appends the duplicate of `MPI_COMM_WORLD` to
    /// the comm table (where `comm_dup` would have put it, so it keeps its
    /// id, its label and its place in the leak census); nobody waits.
    ///
    /// This stands in for the `comm_dup(WORLD)` rendezvous every rank used
    /// to open its run with, and keeps what that rendezvous decided besides
    /// the communicator. It left the deterministic turn with its last
    /// entrant, rank `np - 1`: the creating call hands the turn there. It
    /// let a rank it had admitted leave with its communicator even when the
    /// world had turned fatal meanwhile, to fail at its next operation: so
    /// this is [`Self::enter`], not [`Self::enter_guarded`]. And it cost
    /// virtual time ([`Self::charge_world_rendezvous`]).
    pub(crate) fn op_shadow_world(&self, rank: usize) -> Result<Comm> {
        let mut g = self.enter(rank);
        let shadow = match g.world_shadow {
            Some((shadow, _)) => shadow,
            None => {
                let shadow = self.push_dup(&mut g, Comm::WORLD.0 as usize);
                g.world_shadow = Some((shadow, 0));
                if self.cfg.deterministic && g.fatal.is_none() {
                    self.give_turn(&mut g, self.cfg.nprocs - 1);
                }
                shadow
            }
        };
        self.charge_world_rendezvous(&mut g, rank)?;
        Ok(shadow)
    }

    /// The bottom of
    /// [`Mpi::release_shadow_world`](crate::proc_api::Mpi::release_shadow_world):
    /// count `rank`'s release and mark the communicator freed at the last
    /// one. A run some rank never finalizes therefore reports the shadow in
    /// its leak census, as it did when the free was a collective that rank
    /// never joined.
    pub(crate) fn op_release_shadow_world(&self, rank: usize, shadow: Comm) -> Result<()> {
        let mut g = self.enter_guarded(rank)?;
        let (idx, _) = Self::resolve(&g, shadow, rank)?;
        let s = &mut *g;
        match &mut s.world_shadow {
            Some((held, released)) if *held == shadow => {
                *released += 1;
                s.comms[idx].info.freed = *released == self.cfg.nprocs;
            }
            _ => return Err(MpiError::InvalidComm),
        }
        self.charge_world_rendezvous(s, rank)
    }

    // ---- lifecycle --------------------------------------------------------

    fn mark_finished(&self, rank: usize) {
        let mut g = self.lock();
        if g.finished[rank] {
            return;
        }
        g.finished[rank] = true;
        g.nfinished += 1;
        // A finishing rank can strand blocked peers: recheck deadlock.
        if g.fatal.is_none() && g.nblocked > 0 && g.nblocked == self.cfg.nprocs - g.nfinished {
            let blocked_ranks: Vec<usize> = g
                .blocked
                .iter()
                .enumerate()
                .filter_map(|(r, &b)| b.then_some(r))
                .collect();
            g.fatal = Some(MpiError::Deadlock { blocked_ranks });
        }
        // Finishing satisfies no wait: the turn moves on, and only a fatal
        // world wakes anyone else.
        self.pass_turn(&mut g, rank);
        if g.fatal.is_some() {
            self.wake_all(&mut g);
        }
    }

    fn abort(&self, rank: usize) {
        let mut g = self.lock();
        if g.fatal.is_none() {
            g.fatal = Some(MpiError::Aborted { by_rank: rank });
        }
        if !g.finished[rank] {
            g.finished[rank] = true;
            g.nfinished += 1;
        }
        self.wake_all(&mut g);
    }

    fn leak_report(&self) -> LeakReport {
        let g = self.lock();
        let comm_leaks = g
            .comms
            .iter()
            .filter(|c| c.info.derived && !c.info.freed)
            .map(|c| CommLeak {
                comm: c.info.id,
                label: c.info.label.clone(),
                size: c.info.size(),
            })
            .collect();
        let request_leaks = g.requests.live_by_owner(self.cfg.nprocs);
        let unreceived_messages = g.comms.iter().map(|c| c.engine.total_unexpected()).sum();
        LeakReport {
            comm_leaks,
            request_leaks,
            unreceived_messages,
        }
    }

    fn snapshot_vt(&self) -> Vec<f64> {
        self.lock().vt.clone()
    }

    fn fatal(&self) -> Option<MpiError> {
        self.lock().fatal.clone()
    }

    fn census(&self) -> RuntimeCensus {
        self.lock().census
    }
}

/// Factory building each rank's interposition stack on top of the runtime
/// handle — the analog of PnMPI loading a tool-module chain. Construction
/// is fallible (tool setup may itself perform MPI calls, e.g. DAMPI's
/// [`Mpi::shadow_world`]); a failure is recorded as that rank's error
/// instead of panicking the harness.
pub type LayerFactory<'a> = dyn Fn(usize, Pmpi) -> Result<Box<dyn Mpi>> + Sync + 'a;

/// Execute `program` on a fresh world with a tool stack built by `factory`
/// for each rank. Blocks until every rank has finished; returns the
/// [`RunOutcome`] with per-rank errors, leak census, and virtual times.
///
/// The rank threads come from the process-wide [`pool`] and
/// go back to it, unless the world is wider than [`POOLED_WORLD_MAX`].
pub fn run_with_layers(
    cfg: &SimConfig,
    program: &dyn MpiProgram,
    factory: &LayerFactory<'_>,
) -> RunOutcome {
    let world = World::new(cfg.clone());
    let n = cfg.nprocs;
    let wall_start = std::time::Instant::now();

    let body = |rank: usize| -> Option<MpiError> {
        let pmpi = Pmpi::new(Arc::clone(&world), rank);
        // The unwind barrier covers the *whole* per-rank lifecycle —
        // tool-stack construction, the program body, and finalize — so a
        // panicking tool layer is isolated exactly like a panicking
        // application rank. The stack is dropped inside the barrier too
        // (during unwind on panic), letting tool layers flush partial
        // state from `Drop`.
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            let mut stack = factory(rank, pmpi)?;
            program.run(stack.as_mut())?;
            stack.finalize()
        }));
        let outcome: Option<MpiError> = match result {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e),
            Err(panic) => Some(MpiError::Panicked {
                message: panic_message(panic.as_ref()),
            }),
        };
        match &outcome {
            None => world.mark_finished(rank),
            Some(_) => world.abort(rank),
        }
        outcome
    };
    let rank_errors = if n > POOLED_WORLD_MAX {
        run_scoped(n, &body)
    } else {
        pool::run(n, &body)
    };

    let per_rank_vt = world.snapshot_vt();
    let makespan = per_rank_vt.iter().copied().fold(0.0_f64, f64::max);
    RunOutcome {
        rank_errors,
        leaks: world.leak_report(),
        fatal: world.fatal(),
        per_rank_vt,
        wall_elapsed: wall_start.elapsed(),
        makespan,
        census: world.census(),
    }
}

/// Run `body(rank)` for every `rank < n` on freshly spawned threads that
/// are joined before returning — how worlds too wide for the pool run.
fn run_scoped(n: usize, body: &RankBody<'_>) -> Vec<Option<MpiError>> {
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                scope
                    .builder()
                    .stack_size(RANK_STACK_SIZE)
                    .name(format!("rank-{rank}"))
                    .spawn(move |_| body(rank))
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread never panics past the catch"))
            .collect()
    })
    .expect("scope completes")
}

/// Execute `program` with no tool layers (the "native MPI" baseline used
/// for Table II slowdown denominators).
pub fn run_native(cfg: &SimConfig, program: &dyn MpiProgram) -> RunOutcome {
    run_with_layers(cfg, program, &|_, pmpi| Ok(Box::new(pmpi)))
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod thread_safety {
    //! The isolation contract parallel exploration rests on, checked at
    //! compile time: replay state is per-[`World`], and every replay
    //! builds a *fresh* one inside [`run_with_layers`], so concurrent
    //! replays on a scheduler worker pool share no mutable runtime state —
    //! only `Sync` configuration ([`SimConfig`], an `Arc<FaultPlan>`, the
    //! program itself). The rank-thread [`pool`] is the one
    //! process-wide object, and it holds no replay state: parked threads,
    //! checked out exclusively, that carry nothing from one job to the
    //! next. If a global ever sneaks into these types (a `Cell`, an `Rc`,
    //! a raw pointer), these assertions stop compiling before any test can
    //! race.

    use super::*;
    use crate::fault::FaultPlan;

    fn sync_send<T: Send + Sync + ?Sized>() {}

    #[test]
    fn replay_state_is_per_world_and_configuration_is_sync() {
        sync_send::<World>();
        sync_send::<SimConfig>();
        sync_send::<FaultPlan>();
        sync_send::<dyn MpiProgram>();
        sync_send::<Pmpi>();
    }
}
