//! The simulated-world runtime: the rank kernel, blocking, progress,
//! deadlock and livelock detection, collectives, communicator management,
//! and the run harness.
//!
//! A run executes on the calling thread. Each rank's whole lifecycle — its
//! layer factory, `program.run` and `finalize` — is one future, and
//! [`run_with_layers`] polls the future of the rank holding the
//! round-robin turn token, with a no-op waker: no rank is ever woken, the
//! kernel just polls whoever holds the turn next. A rank's future returns
//! `Pending` when the rank blocks, yields on a fruitless poll, or hands the
//! turn on, and `Ready` when the rank has finished; the turn then moves
//! on. All shared state sits in one `RefCell`, borrowed by one runtime
//! call at a time and never across an `.await`.
//!
//! Exactly one rank executes runtime calls at a time: the turn holder,
//! because it is the only one polled. The turn passes to the next
//! unfinished, unblocked rank when its holder blocks, finishes, or polls
//! fruitlessly twice without changing state another rank can see in
//! between (a `test`, `testany` or `iprobe` spin loop, with or without
//! `compute` in it; the poller stays eligible). Message arrival order, and
//! so every wildcard's candidate set, is a function of the program and the
//! forced replay prefix: a replay reproduces its parent up to the guided
//! epoch, and a campaign repeats byte for byte.
//!
//! Only the calls that can hand the turn on are futures: the waists
//! (`complete`, `probe_for`, `collective`), `shadow_world` and
//! `finalize`. `isend`, `irecv`, `compute`, `pcontrol` and the queries run
//! to completion, since their caller already holds the turn.
//!
//! A rank that blocks records in `Shared::waits` what it waits for: some of
//! its own requests, a blocking probe's `(comm, src, tag)`, or a collective
//! generation. An event clears a rank's `blocked` flag, which makes it
//! eligible for the turn again, only if it can satisfy that record. A
//! completed request unblocks its owner if the owner waits on it (a
//! rendezvous sender included); a queued, unmatched message unblocks its
//! destination if that is in a matching blocking probe; the last entrant
//! of a collective unblocks the members waiting on it; a finishing rank
//! unblocks nobody. A hand-off that reaches a rank owing a collective's
//! ridden rendezvous enters it for the rank instead, and moves on
//! (`Fused`).
//!
//! [`RunOutcome::census`] counts the turn passes.
//!
//! Deadlock is declared exactly when every unfinished rank is blocked
//! inside the runtime: state then can only change through another rank's
//! action, and there is none left to act — the classical "all live
//! processes blocked" criterion. Livelock is its polling twin: every
//! unfinished rank is blocked or has yielded [`SPIN_YIELDS`] fruitless
//! polls, and no rank has changed shared state meanwhile. A fatal error
//! (deadlock, livelock, abort, watchdog) suspends the turn: the kernel
//! polls every unfinished rank in rank order until each has unwound.

use std::cell::{RefCell, RefMut};
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::collective::{
    combine, CollOutcome, CollSig, CollSlot, Contribution, Ridden, Rider, Shadow,
};
use crate::comm::{Comm, CommInfo};
use crate::envelope::Envelope;
use crate::error::{MpiError, Result};
use crate::leak::{CommLeak, LeakReport};
use crate::matching::{Delivery, MatchEngine, MatchPolicy, ProbeInfo};
use crate::proc_api::{Completed, Completion, Mpi, Pmpi, Status};
use crate::program::{MpiProgram, RunOutcome, RuntimeCensus};
use crate::request::{ReqKind, ReqState, Request, RequestEntry, RequestTable};
use crate::types::{source_matches, tag_matches, Tag, ANY_SOURCE};
use crate::vtime::VTimeParams;

/// Fruitless-poll yields after which a rank counts as spinning, if no rank
/// has changed shared state since its first. A rank yields on every
/// second fruitless poll, so this is 2 048 polls that found nothing. A
/// tool's own polls (DAMPI's finalize drain tests one communicator each)
/// stay far below it; a single yield would be one of those.
pub const SPIN_YIELDS: u32 = 1024;

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
    /// Number of MPI processes (ranks).
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
    /// Per-replay watchdog budgets (wall clock and virtual time). Only the
    /// wall clock stops a loop polling for a message nobody sends.
    pub budget: ReplayBudget,
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

    /// Every world runs on the turn token; `true` is the only value.
    #[doc(hidden)]
    #[must_use]
    pub fn with_deterministic(self, deterministic: bool) -> Self {
        assert!(deterministic, "every world runs on the turn token");
        self
    }
}

struct CommEntry {
    info: CommInfo,
    engine: MatchEngine,
    coll: CollSlot,
    /// The collective on this communicator whose first rendezvous has
    /// completed while the ridden ones are still being entered.
    fused: Option<Fused>,
}

impl CommEntry {
    fn new(info: CommInfo) -> Self {
        let size = info.size();
        Self {
            info,
            engine: MatchEngine::new(size),
            coll: CollSlot::new(size),
            fused: None,
        }
    }
}

/// One of the rendezvous a collective call stands for: the application's
/// own and each one a [`Rider`] adds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// The application's operation: its data, or its new communicators.
    Primary,
    /// The tool's clock exchange: changes nothing but time.
    Clock,
    /// Create the tool's shadow twins.
    Twin,
    /// Free `comms[idx]`: the twin, then the application's communicator.
    Free(usize),
}

/// A collective call that stands for several rendezvous, in their order.
/// The data is combined at the first; the ones after it carry none. They
/// are entered one member at a time as the turn reaches it
/// ([`World::pass_turn`]), so the schedule, the communicator ids and the
/// virtual time are those of separate rendezvous.
struct Fused {
    gen: u64,
    /// The stages in order: `stages[..len]`.
    stages: [Stage; 3],
    len: usize,
    /// Stages completed so far.
    done: usize,
    /// Members that have entered stage `done`.
    entered: usize,
    /// Virtual time at which the last completed stage released its members.
    vt: f64,
    outcomes: Vec<CollOutcome>,
    ridden: Ridden,
    /// A split's colours, for its twins: `(colour, comm ranks in key order)`.
    colours: Option<Vec<(i64, Vec<usize>)>>,
}

impl Fused {
    /// The stages of a `sig` call on `comms[idx]` carrying `rider`, in the
    /// order the separate rendezvous were held; the first completed at `vt`.
    fn plan(gen: u64, vt: f64, sig: CollSig, rider: Rider, idx: usize) -> Self {
        let mut fused = Self {
            gen,
            stages: [Stage::Primary; 3],
            len: 0,
            done: 1,
            entered: 0,
            vt,
            outcomes: Vec::new(),
            ridden: Ridden {
                clock: rider.clock,
                twins: Vec::new(),
            },
            colours: None,
        };
        let clock = !fused.ridden.clock.is_empty();
        if sig == CollSig::CommFree {
            // Clocks are exchanged while the communicator is alive, then
            // the twin is freed, then the communicator.
            fused.then(clock, Stage::Clock);
            if let Shadow::Free(twin) = rider.shadow {
                fused.then(true, Stage::Free(twin.0 as usize));
            }
            fused.then(true, Stage::Free(idx));
        } else {
            fused.then(true, Stage::Primary);
            fused.then(rider.shadow == Shadow::Create, Stage::Twin);
            fused.then(clock, Stage::Clock);
        }
        fused
    }

    fn then(&mut self, held: bool, stage: Stage) {
        if held {
            self.stages[self.len] = stage;
            self.len += 1;
        }
    }
}

/// What a blocked rank waits for: the events that can let it proceed.
/// Waiting for the execution turn needs no record, since `Shared::turn`
/// names the one rank the kernel polls.
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
    census: RuntimeCensus,
    finished: Vec<bool>,
    nfinished: usize,
    fatal: Option<MpiError>,
    /// Holder of the execution turn.
    turn: usize,
    /// The holder has polled fruitlessly since it took the turn or last
    /// changed state another rank can see: its next fruitless poll passes
    /// the turn.
    polled: bool,
    /// Bumped whenever a rank changes state another rank can see; the
    /// yields of [`Self::spins`] count within one epoch.
    epoch: u64,
    /// `spins[r]`: the epoch of `r`'s last fruitless-poll yield and how many
    /// it has made in that epoch.
    spins: Vec<(u64, u32)>,
    /// Unfinished, unblocked ranks that reached [`SPIN_YIELDS`] in the
    /// current epoch.
    nspinning: usize,
    /// `owes[r]`: the communicator whose [`Fused`] collective `r` is to
    /// enter the next rendezvous of when the turn reaches it.
    owes: Vec<Option<usize>>,
    /// The tool's shadow of `MPI_COMM_WORLD` once a rank has asked for it
    /// ([`World::op_shadow_world`]), and how many ranks have released it.
    world_shadow: Option<(Comm, usize)>,
}

impl Shared {
    /// The holder changed state another rank can see: its fruitless polls
    /// start over, and so does every rank's spin count.
    fn changed(&mut self) {
        self.polled = false;
        self.touch();
    }

    /// Shared state changed: every rank's spin count starts over.
    fn touch(&mut self) {
        self.epoch += 1;
        self.nspinning = 0;
    }

    /// Is `rank` counted in `nspinning`?
    fn spinning(&self, rank: usize) -> bool {
        self.spins[rank] == (self.epoch, SPIN_YIELDS)
    }

    /// `rank` blocks or finishes: it no longer counts as spinning.
    fn stop_spinning(&mut self, rank: usize) {
        if self.spinning(rank) {
            self.nspinning -= 1;
        }
        self.spins[rank] = (0, 0);
    }

    /// Every unfinished rank is blocked, or blocked or spinning with at
    /// least one spinning: the world can no longer change.
    fn stalled(&self, nprocs: usize) -> Option<MpiError> {
        let live = nprocs - self.nfinished;
        if live == 0 || self.nblocked + self.nspinning < live {
            return None;
        }
        let ranks = |pick: &dyn Fn(usize) -> bool| (0..nprocs).filter(|&r| pick(r)).collect();
        Some(if self.nspinning == 0 {
            MpiError::Deadlock {
                blocked_ranks: ranks(&|r| self.blocked[r]),
            }
        } else {
            MpiError::Livelock {
                polling_ranks: ranks(&|r| self.spinning(r)),
            }
        })
    }
}

/// A simulated MPI world. Construct with [`World::new`], then execute
/// programs with [`run_native`] / [`run_with_layers`] (which build the
/// world internally and poll its ranks).
pub struct World {
    cfg: SimConfig,
    state: RefCell<Shared>,
    /// Wall-clock watchdog deadline for this run (from the replay budget).
    deadline: Option<Instant>,
}

/// Returns `Pending` once, then `Ready`: a rank that handed the turn on
/// suspends until the kernel polls it as the holder again.
fn yield_turn() -> impl Future<Output = ()> {
    let mut yielded = false;
    poll_fn(move |_| {
        if std::mem::replace(&mut yielded, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
}

impl World {
    /// Create a world with `COMM_WORLD` over `cfg.nprocs` ranks.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Rc<Self> {
        let n = cfg.nprocs;
        let shared = Shared {
            comms: vec![CommEntry::new(CommInfo::world(n))],
            requests: RequestTable::new(),
            vt: vec![0.0; n],
            blocked: vec![false; n],
            nblocked: 0,
            waits: vec![Wait::Requests; n],
            wait_reqs: vec![Vec::new(); n],
            census: RuntimeCensus::default(),
            finished: vec![false; n],
            nfinished: 0,
            fatal: None,
            turn: 0,
            polled: false,
            epoch: 1,
            spins: vec![(0, 0); n],
            nspinning: 0,
            owes: vec![None; n],
            world_shadow: None,
        };
        let deadline = cfg
            .budget
            .max_wall_clock
            .map(|limit| Instant::now() + limit);
        Rc::new(Self {
            cfg,
            state: RefCell::new(shared),
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

    /// Declare a watchdog timeout as the world's fatal error. An earlier
    /// fatal (first cause) wins.
    fn trip_timeout(&self, s: &mut Shared, detail: String) -> MpiError {
        s.fatal
            .get_or_insert(MpiError::ReplayTimeout { detail })
            .clone()
    }

    /// Fatal-or-watchdog check. An existing fatal error wins; otherwise the
    /// wall-clock deadline is consulted here — on every runtime entry, the
    /// one watchdog there is — so even non-blocking spin loops
    /// (`iprobe`/`test` livelocks) observe it.
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

    /// Borrow shared state for one runtime call. The borrow never spans an
    /// `.await`, so no two calls ever hold it at once.
    fn lock(&self) -> RefMut<'_, Shared> {
        self.state.borrow_mut()
    }

    /// Borrow shared state for a call of `rank`, which holds the turn: the
    /// kernel polls no other rank, until the world turns fatal.
    fn enter(&self, rank: usize) -> RefMut<'_, Shared> {
        let g = self.lock();
        debug_assert!(
            g.turn == rank || g.fatal.is_some(),
            "rank {rank} ran off its turn"
        );
        g
    }

    /// [`Self::enter`], then the fatal-or-watchdog check every operation
    /// that does not block starts with.
    fn enter_polling(&self, rank: usize) -> Result<RefMut<'_, Shared>> {
        let mut g = self.enter(rank);
        match self.guard(&mut g) {
            Some(f) => Err(f),
            None => Ok(g),
        }
    }

    /// [`Self::enter_polling`] for an operation that changes state another
    /// rank can see: the holder's fruitless polls start over.
    fn enter_guarded(&self, rank: usize) -> Result<RefMut<'_, Shared>> {
        let mut g = self.enter_polling(rank)?;
        g.changed();
        Ok(g)
    }

    /// Make `to` the turn holder.
    fn give_turn(s: &mut Shared, to: usize) {
        s.turn = to;
        s.polled = false;
    }

    /// Hand the execution turn from `from` to the next runnable
    /// (unfinished, not logically blocked) rank, round-robin. `from` is
    /// blocked or finished, so the token never returns to a rank that
    /// cannot act, or it polled in vain and stays eligible for the next
    /// round. If no other rank is eligible the token stays put: a blocked
    /// caller's deadlock check owns that case.
    ///
    /// A rank that owes a [`Fused`] collective its next rendezvous is not
    /// polled: it enters that rendezvous here, where it would have entered
    /// a separate one on its turn, and the scan goes on from it. Only the
    /// entrant that completes the last rendezvous is handed the turn, as
    /// it would have left holding it.
    fn pass_turn(&self, g: &mut Shared, from: usize) {
        if g.turn != from || g.fatal.is_some() {
            return;
        }
        let n = self.cfg.nprocs;
        let mut from = from;
        let mut off = 1;
        while off < n {
            let r = (from + off) % n;
            off += 1;
            if g.finished[r] || g.blocked[r] {
                continue;
            }
            if let Some(idx) = g.owes[r] {
                g.turn = r;
                if !self.fused_entry(g, idx, r) {
                    (from, off) = (r, 1);
                    continue;
                }
            }
            g.census.turn_passes += 1;
            Self::give_turn(g, r);
            return;
        }
    }

    /// One poll of a blocking operation of `rank`: `ready` yields a
    /// result, or `rank` is recorded blocked on `wait` (with `reqs` for
    /// [`Wait::Requests`]) and hands the turn on, with deadlock detection.
    ///
    /// `blocked[r]` means *logically* blocked: `r`'s predicate was
    /// unsatisfied when last evaluated and no event since could have
    /// satisfied it. Every event that can satisfy a blocked rank's record
    /// ([`Self::unblock_if`]) clears its flag, so `nblocked == live ranks`
    /// holds exactly when no rank can ever make progress.
    fn poll_block<T>(
        &self,
        rank: usize,
        wait: Wait,
        reqs: &[Request],
        ready: &mut impl FnMut(&mut Shared) -> Option<Result<T>>,
    ) -> Poll<Result<T>> {
        let mut g = self.lock();
        loop {
            // Only the turn holder may evaluate its predicate (evaluation
            // can consume state — complete a request, take a collective
            // outcome). A fatal error suspends the discipline: every rank
            // proceeds to the unwind paths below.
            if g.fatal.is_none() && g.turn != rank && self.guard(&mut g).is_none() {
                return Poll::Pending;
            }
            // Completion first: an operation whose predicate is already
            // satisfied succeeds even if the job is being torn down — only
            // operations that would still have to wait observe the abort.
            if let Some(out) = ready(&mut g) {
                Self::clear_blocked(&mut g, rank);
                g.changed();
                return Poll::Ready(out);
            }
            if let Some(f) = self.guard(&mut g) {
                Self::clear_blocked(&mut g, rank);
                return Poll::Ready(Err(f));
            }
            if !g.blocked[rank] {
                let s = &mut *g;
                s.stop_spinning(rank);
                s.blocked[rank] = true;
                s.nblocked += 1;
                s.waits[rank] = wait;
                s.wait_reqs[rank].clear();
                s.wait_reqs[rank].extend_from_slice(reqs);
            }
            if let Some(err) = g.stalled(self.cfg.nprocs) {
                g.fatal = Some(err.clone());
                Self::clear_blocked(&mut g, rank);
                return Poll::Ready(Err(err));
            }
            // Some other rank is runnable: hand it the turn. The hand-off
            // may complete a fused collective this rank is in and bring
            // the turn straight back.
            self.pass_turn(&mut g, rank);
            if g.turn == rank && !g.blocked[rank] {
                continue;
            }
            return Poll::Pending;
        }
    }

    /// Block `rank` until `ready` yields a result: [`Self::poll_block`]
    /// on every poll the kernel gives it.
    async fn block_on<T>(
        &self,
        rank: usize,
        wait: Wait,
        reqs: &[Request],
        mut ready: impl FnMut(&mut Shared) -> Option<Result<T>>,
    ) -> Result<T> {
        poll_fn(|_| self.poll_block(rank, wait, reqs, &mut ready)).await
    }

    fn clear_blocked(s: &mut Shared, rank: usize) {
        if s.blocked[rank] {
            s.blocked[rank] = false;
            s.nblocked -= 1;
        }
    }

    /// An event occurred: if `world_rank` is blocked on a wait it
    /// `satisfies`, clear its logical-block flag, which makes it eligible
    /// for the turn again.
    fn unblock_if(
        &self,
        s: &mut Shared,
        world_rank: usize,
        satisfies: impl FnOnce(Wait, &[Request]) -> bool,
    ) {
        if s.blocked[world_rank] && satisfies(s.waits[world_rank], &s.wait_reqs[world_rank]) {
            Self::clear_blocked(s, world_rank);
        }
    }

    /// `req` of `owner` completed.
    fn request_done(&self, s: &mut Shared, owner: usize, req: Request) {
        self.unblock_if(s, owner, |wait, reqs| {
            wait == Wait::Requests && reqs.contains(&req)
        });
    }

    /// Complete a recv request (and, for rendezvous messages, the paired
    /// send request) and unblock the owners. Caller holds the lock.
    fn complete_recv_locked(&self, s: &mut Shared, req: Request, env: Envelope) {
        if let Some(sreq) = env.send_req.map(Request) {
            let sender = s.requests.complete_send(sreq);
            self.request_done(s, sender, sreq);
        }
        s.requests.complete_recv(req, env);
        let owner = s.requests.get(req).expect("just completed").owner;
        self.request_done(s, owner, req);
    }

    // ---- point-to-point ---------------------------------------------------

    pub(crate) fn op_now(&self, rank: usize) -> f64 {
        self.enter(rank).vt[rank]
    }

    /// Only the caller's own clock moves, which no other rank's wait can
    /// observe, so a `test`/`compute` spin loop still passes the turn.
    pub(crate) fn op_compute(&self, rank: usize, seconds: f64) -> Result<()> {
        let mut g = self.enter_polling(rank)?;
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
                self.complete_recv_locked(&mut g, Request(rreq), envelope);
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
            self.complete_recv_locked(&mut g, req, env);
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
    ///
    /// A fruitless poll by a holder that already polled in vain since it
    /// took the turn or last changed state another rank can see passes the
    /// turn, and the rank stays eligible: a spin loop lets the ranks it
    /// waits for run, while a single poll (the tool's own, say) costs no
    /// hand-off. The rank suspends until the turn comes back, then returns
    /// the miss it found. Such a yield also counts towards [`SPIN_YIELDS`].
    async fn attempt<T>(
        &self,
        rank: usize,
        blocking: bool,
        wait: Wait,
        reqs: &[Request],
        mut ready: impl FnMut(&mut Shared) -> Option<Result<T>>,
    ) -> Result<Option<T>> {
        if blocking {
            return self.block_on(rank, wait, reqs, ready).await.map(Some);
        }
        {
            let mut g = self.enter_polling(rank)?;
            let out = ready(&mut g).transpose();
            if !matches!(out, Ok(None)) {
                g.changed();
                return out;
            }
            if !std::mem::replace(&mut g.polled, true) {
                return out;
            }
            self.pass_turn(&mut g, rank);
            if let Some(err) = self.spun(&mut g, rank) {
                return Err(err);
            }
            if g.turn == rank {
                return out;
            }
        }
        yield_turn().await;
        Ok(None)
    }

    /// `rank` yielded a fruitless poll: count it, and declare a livelock
    /// once every unfinished rank is blocked or spinning.
    fn spun(&self, s: &mut Shared, rank: usize) -> Option<MpiError> {
        let (epoch, yields) = &mut s.spins[rank];
        if *epoch != s.epoch {
            (*epoch, *yields) = (s.epoch, 0);
        }
        if *yields == SPIN_YIELDS {
            return None;
        }
        *yields += 1;
        if *yields < SPIN_YIELDS {
            return None;
        }
        s.nspinning += 1;
        let err = s.stalled(self.cfg.nprocs)?;
        s.fatal = Some(err.clone());
        Some(err)
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
    pub(crate) async fn op_complete(
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
        })
        .await?;
        Ok(done)
    }

    /// The bottom of [`Mpi::probe_for`](crate::proc_api::Mpi::probe_for).
    pub(crate) async fn op_probe(
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
        .await
    }

    // ---- collectives ------------------------------------------------------

    /// The bottom of [`Mpi::collective`](crate::proc_api::Mpi::collective):
    /// the one rendezvous path of every collective, communicator management
    /// included. What `rider` adds rides the same rendezvous ([`Fused`]).
    pub(crate) async fn collective(
        &self,
        rank: usize,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &mut Rider,
    ) -> Result<CollOutcome> {
        let (gen, idx, crank) = {
            let mut g = self.enter_guarded(rank)?;
            let (idx, crank) = Self::resolve(&g, comm, rank)?;
            Self::check_rider(&g, rank, comm, sig, rider)?;
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
            let (gen, last) = match g.comms[idx].coll.enter(crank, sig, contribution, rider, vt) {
                Ok(v) => v,
                Err(e) => {
                    // Mismatched collective: a program bug that would hang
                    // the other participants — declare it globally.
                    g.fatal = Some(e.clone());
                    return Err(e);
                }
            };
            if last {
                self.complete_first(&mut g, idx, gen, rank);
            }
            (gen, idx, crank)
        };
        let wait = Wait::Collective { comm: idx, gen };
        let (outcome, vt) = self
            .block_on(rank, wait, &[], |s| {
                s.comms[idx].coll.try_take(gen, crank, rider).map(Ok)
            })
            .await?;
        let mut g = self.lock();
        g.vt[rank] = g.vt[rank].max(vt);
        self.check_vt_budget(&mut g, rank)?;
        outcome
    }

    /// Refuse what no rendezvous may carry: freeing `MPI_COMM_WORLD`, and
    /// a twin request the operation has no use for.
    fn check_rider(s: &Shared, rank: usize, comm: Comm, sig: CollSig, rider: &Rider) -> Result<()> {
        let refuse = |detail: String| Err(MpiError::ToolProtocol { detail });
        match (sig, rider.shadow) {
            (CollSig::CommFree, _) if comm == Comm::WORLD => {
                refuse("cannot free MPI_COMM_WORLD".to_owned())
            }
            (CollSig::CommFree, Shadow::Free(twin)) if twin == Comm::WORLD || twin == comm => {
                refuse(format!("{twin:?} is no shadow twin of {comm:?}"))
            }
            (CollSig::CommFree, Shadow::Free(twin)) => Self::resolve(s, twin, rank).map(drop),
            (_, Shadow::None) | (CollSig::CommDup | CollSig::CommSplit, Shadow::Create) => Ok(()),
            (_, shadow) => refuse(format!("{} cannot carry {shadow:?}", sig.name())),
        }
    }

    /// The last entrant of a collective's first rendezvous: combine, then
    /// run the ridden rendezvous. Every other member now owes the next one,
    /// and the last entrant enters it first, as it did holding the turn.
    fn complete_first(&self, s: &mut Shared, idx: usize, gen: u64, rank: usize) {
        let (sig, contribs, max_vt) = s.comms[idx].coll.take_contributions();
        let vt = max_vt + self.cfg.vtime.collective_cost(contribs.len());
        let mut fused = Fused::plan(gen, vt, sig, s.comms[idx].coll.take_rider(), idx);
        if let Err(e) = self.first_stage(s, idx, sig, &contribs, &mut fused) {
            s.comms[idx].coll.finish(gen, Err(e), vt, Ridden::default());
            self.unblock_members(s, idx, gen);
            return;
        }
        if fused.done == fused.len {
            self.publish(s, idx, fused);
            return;
        }
        self.release(s, idx, rank, &fused);
        s.comms[idx].fused = Some(fused);
        self.fused_entry(s, idx, rank);
    }

    /// Combine the first rendezvous of a collective and do what completing
    /// it does to the comm table.
    fn first_stage(
        &self,
        s: &mut Shared,
        idx: usize,
        sig: CollSig,
        contribs: &[Contribution],
        fused: &mut Fused,
    ) -> Result<()> {
        let n = contribs.len();
        fused.outcomes = match sig {
            CollSig::CommFree => vec![CollOutcome::None; n],
            CollSig::CommDup => vec![CollOutcome::Comm(self.push_dup(s, idx)); n],
            CollSig::CommSplit => {
                let colours = split_colours(contribs)?;
                let outcomes = self.push_split(s, idx, &colours);
                fused.colours = Some(colours);
                outcomes
            }
            _ => combine(sig, contribs)?,
        };
        self.run_stage(s, idx, fused.stages[0], fused);
        Ok(())
    }

    /// Do what completing `stage` does to the comm table.
    fn run_stage(&self, s: &mut Shared, idx: usize, stage: Stage, fused: &mut Fused) {
        match stage {
            Stage::Primary | Stage::Clock => {}
            Stage::Twin => {
                fused.ridden.twins = match &fused.colours {
                    None => vec![Some(self.push_dup(s, idx)); fused.outcomes.len()],
                    Some(colours) => self
                        .push_split(s, idx, colours)
                        .into_iter()
                        .map(|o| match o {
                            CollOutcome::Comm(c) => Some(c),
                            _ => None,
                        })
                        .collect(),
                };
            }
            Stage::Free(freed) => s.comms[freed].info.freed = true,
        }
    }

    /// Complete the next ridden rendezvous of `fused`: every member entered
    /// at the time the last one left (`+ send_overhead`), and it cost
    /// `collective_cost`, two additions in that order.
    fn next_stage(&self, s: &mut Shared, idx: usize, fused: &mut Fused) {
        let size = fused.outcomes.len();
        fused.vt = (fused.vt + self.cfg.vtime.send_overhead) + self.cfg.vtime.collective_cost(size);
        let stage = fused.stages[fused.done];
        fused.done += 1;
        self.run_stage(s, idx, stage, fused);
    }

    /// `rank` enters the next ridden rendezvous of the collective on
    /// `comms[idx]`. Returns true when that completed the call; `rank`
    /// then leaves first. Otherwise it is blocked in the rendezvous, or, if
    /// it completed one with more to come, in the next, which it entered
    /// first.
    fn fused_entry(&self, s: &mut Shared, idx: usize, rank: usize) -> bool {
        s.owes[rank] = None;
        s.touch();
        let mut fused = s.comms[idx]
            .fused
            .take()
            .expect("a member owes a fused call");
        loop {
            s.vt[rank] += self.cfg.vtime.send_overhead;
            fused.entered += 1;
            if fused.entered < fused.outcomes.len() {
                s.blocked[rank] = true;
                s.nblocked += 1;
                s.waits[rank] = Wait::Collective {
                    comm: idx,
                    gen: fused.gen,
                };
                s.comms[idx].fused = Some(fused);
                return false;
            }
            fused.entered = 0;
            self.next_stage(s, idx, &mut fused);
            self.release(s, idx, rank, &fused);
            if fused.done == fused.len {
                self.publish(s, idx, fused);
                return true;
            }
        }
    }

    /// A rendezvous of `fused` completed with `rank` its last entrant: every
    /// member leaves it at `fused.vt`, and while more follow, every other
    /// member owes the next one.
    fn release(&self, s: &mut Shared, idx: usize, rank: usize, fused: &Fused) {
        let more = fused.done < fused.len;
        for i in 0..fused.outcomes.len() {
            let m = s.comms[idx].info.group[i];
            s.vt[m] = s.vt[m].max(fused.vt);
            if more && m != rank {
                Self::clear_blocked(s, m);
                s.owes[m] = Some(idx);
            }
        }
    }

    /// Publish a collective's outcomes and release its members.
    fn publish(&self, s: &mut Shared, idx: usize, fused: Fused) {
        let Fused {
            gen,
            vt,
            outcomes,
            ridden,
            ..
        } = fused;
        s.comms[idx].coll.finish(gen, Ok(outcomes), vt, ridden);
        self.unblock_members(s, idx, gen);
    }

    /// Wake the members of `comms[idx]` waiting on generation `gen`.
    fn unblock_members(&self, s: &mut Shared, idx: usize, gen: u64) {
        let waiting = Wait::Collective { comm: idx, gen };
        for i in 0..s.comms[idx].info.size() {
            let m = s.comms[idx].info.group[i];
            self.unblock_if(s, m, |wait, _| wait == waiting);
        }
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

    /// Append one communicator per colour of a split of `comms[parent_idx]`;
    /// each comm rank's outcome.
    fn push_split(
        &self,
        s: &mut Shared,
        parent_idx: usize,
        colours: &[(i64, Vec<usize>)],
    ) -> Vec<CollOutcome> {
        let parent = &s.comms[parent_idx].info;
        let (parent_group, parent_label) = (parent.group.clone(), parent.label.clone());
        let mut outcomes = vec![CollOutcome::NoComm; parent_group.len()];
        for (colour, members) in colours {
            let id = Comm(s.comms.len() as u32);
            let info = CommInfo::derived(
                id,
                members.iter().map(|&crank| parent_group[crank]).collect(),
                self.cfg.nprocs,
                format!("split(color={colour}) of {parent_label}"),
            );
            s.comms.push(CommEntry::new(info));
            for &crank in members {
                outcomes[crank] = CollOutcome::Comm(id);
            }
        }
        outcomes
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
    /// the communicator. It left the turn with its last entrant, rank
    /// `np - 1`: the creating call hands the turn there. It let a rank it
    /// had admitted leave with its communicator even when the world had
    /// turned fatal meanwhile, to fail at its next operation: so this is
    /// [`Self::enter`], not [`Self::enter_guarded`]. And it cost virtual
    /// time ([`Self::charge_world_rendezvous`]).
    pub(crate) async fn op_shadow_world(&self, rank: usize) -> Result<Comm> {
        let shadow = {
            let mut g = self.enter(rank);
            let shadow = match g.world_shadow {
                Some((shadow, _)) => shadow,
                None => {
                    let shadow = self.push_dup(&mut g, Comm::WORLD.0 as usize);
                    g.world_shadow = Some((shadow, 0));
                    g.touch();
                    if g.fatal.is_none() {
                        Self::give_turn(&mut g, self.cfg.nprocs - 1);
                    }
                    shadow
                }
            };
            self.charge_world_rendezvous(&mut g, rank)?;
            if g.turn == rank || g.fatal.is_some() {
                return Ok(shadow);
            }
            shadow
        };
        yield_turn().await;
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

    /// `rank`'s future returned: it finished cleanly (`ok`) or failed.
    /// A clean finish can strand blocked or spinning peers, so the world
    /// is checked for a stall before the turn moves on; a failure aborts
    /// the job.
    fn finish(&self, rank: usize, ok: bool) {
        let mut g = self.lock();
        if g.finished[rank] {
            return;
        }
        g.stop_spinning(rank);
        g.finished[rank] = true;
        g.nfinished += 1;
        if !ok {
            g.fatal.get_or_insert(MpiError::Aborted { by_rank: rank });
        }
        if g.fatal.is_none() {
            g.fatal = g.stalled(self.cfg.nprocs);
        }
        // Finishing satisfies no wait: the turn just moves on.
        self.pass_turn(&mut g, rank);
    }

    /// The rank the kernel polls next, after `last`: the turn holder, or
    /// once the world is fatal, the next unfinished rank in rank order.
    /// `None` once every rank has finished.
    fn next_to_poll(&self, last: usize) -> Option<usize> {
        let g = self.lock();
        let n = self.cfg.nprocs;
        if g.nfinished == n {
            return None;
        }
        if g.fatal.is_none() && !g.finished[g.turn] {
            return Some(g.turn);
        }
        (1..=n)
            .map(|off| (last + off) % n)
            .find(|&r| !g.finished[r])
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

/// The colours of a `comm_split`, ascending, each with its members' comm
/// ranks ordered by `(key, comm rank)`; negative colours join none.
fn split_colours(contribs: &[Contribution]) -> Result<Vec<(i64, Vec<usize>)>> {
    let mut triples: Vec<(i64, i64, usize)> = Vec::with_capacity(contribs.len());
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
    triples.retain(|t| t.0 >= 0);
    triples.sort_unstable();
    let mut colours: Vec<(i64, Vec<usize>)> = Vec::new();
    for (colour, _, crank) in triples {
        match colours.last_mut() {
            Some((c, members)) if *c == colour => members.push(crank),
            _ => colours.push((colour, vec![crank])),
        }
    }
    Ok(colours)
}

/// Factory building each rank's interposition stack on top of the runtime
/// handle — the analog of PnMPI loading a tool-module chain. Construction
/// is fallible and may itself perform MPI calls (DAMPI's
/// [`Mpi::shadow_world`]), so it is a future of the rank's lifecycle; a
/// failure is recorded as that rank's error instead of panicking the
/// harness.
pub type LayerFactory<'a> = dyn Fn(usize, Pmpi) -> StackFuture<'a> + Sync + 'a;

/// A rank's interposition stack, under construction: what a
/// [`LayerFactory`] returns.
pub type StackFuture<'a> = Pin<Box<dyn Future<Output = Result<Box<dyn Mpi + 'a>>> + 'a>>;

/// A stack whose construction makes no MPI call, as a [`LayerFactory`]
/// returns it.
pub fn ready_stack<'a>(stack: impl Mpi + 'a) -> StackFuture<'a> {
    Box::pin(std::future::ready(Ok(Box::new(stack) as Box<dyn Mpi + 'a>)))
}

/// One rank's whole lifecycle: its stack, its program, its finalize.
type RankFuture<'a> = Pin<Box<dyn Future<Output = Result<()>> + 'a>>;

/// Execute `program` on a fresh world with a tool stack built by `factory`
/// for each rank. Returns once every rank has finished, with the
/// [`RunOutcome`]'s per-rank errors, leak census, and virtual times.
///
/// Every rank runs on the calling thread: the kernel polls the turn
/// holder's lifecycle future until it suspends (`Pending`: it blocked,
/// yielded or handed the turn on) or finishes (`Ready`), then the next
/// holder's. Each poll, and the drop of a finished rank's future, sits
/// inside an unwind barrier covering the *whole* lifecycle — tool-stack
/// construction, the program body, finalize, and the stack's `Drop` — so a
/// panicking tool layer is isolated exactly like a panicking application
/// rank, and a layer can still flush partial state from `Drop`.
pub fn run_with_layers(
    cfg: &SimConfig,
    program: &dyn MpiProgram,
    factory: &LayerFactory<'_>,
) -> RunOutcome {
    let wall_start = Instant::now();
    let world = World::new(cfg.clone());
    let n = cfg.nprocs;
    let world_ref = &world;
    let mut ranks: Vec<Option<RankFuture<'_>>> = (0..n)
        .map(|rank| {
            let life: RankFuture<'_> = Box::pin(async move {
                let pmpi = Pmpi::new(Rc::clone(world_ref), rank);
                let mut stack = factory(rank, pmpi).await?;
                program.run(stack.as_mut()).await?;
                stack.finalize().await
            });
            Some(life)
        })
        .collect();
    let mut rank_errors = vec![None; n];
    let mut cx = Context::from_waker(Waker::noop());
    let mut rank = 0;
    while let Some(next) = world.next_to_poll(rank) {
        rank = next;
        let life = ranks[rank]
            .as_mut()
            .expect("an unfinished rank has a future");
        let outcome = match catch_unwind(AssertUnwindSafe(|| life.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => continue,
            Ok(Poll::Ready(done)) => done.err(),
            Err(panic) => Some(panicked(panic.as_ref())),
        };
        let life = ranks[rank].take();
        let outcome = match catch_unwind(AssertUnwindSafe(move || drop(life))) {
            Ok(()) => outcome,
            Err(panic) => Some(panicked(panic.as_ref())),
        };
        world.finish(rank, outcome.is_none());
        rank_errors[rank] = outcome;
    }

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

/// Execute `program` with no tool layers (the "native MPI" baseline used
/// for Table II slowdown denominators).
pub fn run_native(cfg: &SimConfig, program: &dyn MpiProgram) -> RunOutcome {
    run_with_layers(cfg, program, &|_, pmpi| ready_stack(pmpi))
}

fn panicked(panic: &(dyn std::any::Any + Send)) -> MpiError {
    MpiError::Panicked {
        message: panic_message(panic),
    }
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
    //! builds a *fresh* one inside [`run_with_layers`] on the calling
    //! thread, so concurrent replays on a scheduler worker pool share no
    //! mutable runtime state — only `Sync` configuration ([`SimConfig`], an
    //! `Arc<FaultPlan>`, the program itself).

    use super::*;
    use crate::fault::FaultPlan;

    fn sync_send<T: Send + Sync + ?Sized>() {}

    #[test]
    fn replay_state_is_per_world_and_configuration_is_sync() {
        sync_send::<SimConfig>();
        sync_send::<FaultPlan>();
        sync_send::<dyn MpiProgram>();
    }
}
