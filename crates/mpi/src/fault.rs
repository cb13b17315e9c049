//! Substrate fault injection: a tool layer that perturbs the world
//! underneath the verifier.
//!
//! A real DAMPI deployment runs on clusters where the substrate
//! misbehaves: piggyback messages get delayed or lost by failing NICs,
//! ranks crash, and runaway interleavings livelock. The verifier must
//! *survive* these — record what happened, report partial coverage
//! honestly, and keep exploring the remaining frontier. [`FaultLayer`]
//! makes such failures reproducible in-process: it sits *below* the DAMPI
//! tool layer (closest to [`Pmpi`]), so an injected fault hits both
//! application traffic and the tool's own piggyback messages on the shadow
//! communicator.
//!
//! Fault attribution is deliberately realistic: MPI does not tell a tool
//! *why* a message never arrived. A dropped message can therefore surface
//! as a deadlock (the receiver blocks forever), a replay timeout (the
//! watchdog fires first), or a divergence (a perturbed clock misses its
//! epoch decision). Tests assert on the *honest* downstream report, not on
//! the injection site.

use std::sync::Arc;

use bytes::Bytes;

use crate::collective::{CollOutcome, CollSig, Contribution, Rider};
use crate::comm::Comm;
use crate::error::Result;
use crate::matching::ProbeInfo;
use crate::proc_api::{Completed, Completion, Mpi, Pmpi};
use crate::request::Request;
use crate::types::Tag;

/// Tag offset used by [`FaultAction::DropSend`]: the message is diverted to
/// a tag no receiver posts for, so it sits unreceived until teardown (and
/// shows up in the leak census as an unreceived message — the drop is
/// observable, like a real lost packet occupying switch counters).
pub const BLACK_HOLE_TAG_OFFSET: Tag = 1 << 20;

/// What to do when a [`FaultRule`] fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Divert the matched send to a black-hole tag: the payload never
    /// reaches any posted receive. The receiver blocks (deadlock or
    /// watchdog timeout) or analyzes without it (partial coverage).
    DropSend,
    /// Send the matched message twice (the duplicate is sent first and its
    /// request completed immediately, so the leak census stays clean).
    DuplicateSend,
    /// Charge `seconds` of virtual time before the matched send — a slow
    /// link on one message.
    DelaySend {
        /// Virtual seconds of injected latency.
        seconds: f64,
    },
    /// Panic on the rule's nth MPI operation — a crashing rank. Panic
    /// isolation in the run harness converts this into a recorded
    /// `MpiError::Panicked` for that rank.
    Crash {
        /// Payload of the injected panic.
        message: String,
    },
    /// Spin in `compute(step)` forever starting at the rule's nth MPI
    /// operation — a livelocked rank. Only a replay budget
    /// ([`crate::ReplayBudget`]) ends it, which is exactly what the
    /// watchdog tests exercise.
    Livelock {
        /// Virtual seconds charged per spin iteration.
        step: f64,
    },
}

impl FaultAction {
    /// True for actions that trigger on sends (`isend`), as opposed to the
    /// operation-indexed actions (`Crash`, `Livelock`).
    #[must_use]
    pub fn is_send_action(&self) -> bool {
        matches!(
            self,
            FaultAction::DropSend | FaultAction::DuplicateSend | FaultAction::DelaySend { .. }
        )
    }
}

/// One injection site.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// World rank the fault applies to (`None` = every rank).
    pub rank: Option<usize>,
    /// Communicator filter for send actions (`None` = any). The world
    /// shadow communicator created by the DAMPI layer is the first derived
    /// communicator, `Comm(1)` — target it to perturb piggyback traffic
    /// specifically.
    pub comm: Option<Comm>,
    /// Zero-based index of the event the rule fires on: for send actions,
    /// the nth *matching* send; for `Crash`/`Livelock`, the nth MPI
    /// operation issued through the layer.
    pub nth: u64,
    /// The injected fault.
    pub action: FaultAction,
}

impl FaultRule {
    /// Does this rule's filter accept a send by `rank` on `comm`?
    fn matches_send(&self, rank: usize, comm: Comm) -> bool {
        self.action.is_send_action()
            && self.rank.is_none_or(|r| r == rank)
            && self.comm.is_none_or(|c| c == comm)
    }
}

/// A reproducible set of substrate faults for one verification campaign.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Injection sites, checked in order; the first rule that fires on an
    /// event wins.
    pub rules: Vec<FaultRule>,
    /// Arm the plan only for guided replays, keeping the initial
    /// `SELF_RUN` (and the trace it seeds exploration with) clean.
    pub only_guided: bool,
}

impl FaultPlan {
    /// Empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: add an injection site.
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Builder-style: arm only for guided replays.
    #[must_use]
    pub fn guided_only(mut self) -> Self {
        self.only_guided = true;
        self
    }

    /// Should the fault layer be installed for this run?
    #[must_use]
    pub fn armed(&self, self_run: bool) -> bool {
        if self.rules.is_empty() {
            return false;
        }
        !(self.only_guided && self_run)
    }
}

/// Process-level fault to inject into a shard *worker* — the extension of
/// the substrate-fault idea one layer up: instead of perturbing messages
/// under one replay, perturb the worker process the supervisor is
/// entrusting whole subtrees to. Each kind exercises one supervisor
/// recovery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WorkerFaultKind {
    /// Die instantly (process workers: `abort()`, i.e. the observable
    /// equivalent of a `kill -9`; in-process test workers: drop the
    /// connection). Exercises dead-worker detection via EOF/heartbeat
    /// loss and subtree re-dispatch.
    Kill,
    /// Execute the replay fully, then exit *without* sending the result
    /// frame. Exercises re-dispatch idempotence: the work was done, the
    /// ack was lost, and running it again must change nothing.
    ExitBeforeAck,
    /// Stop sending heartbeats and go silent without exiting. Exercises
    /// the heartbeat-timeout detector (a worker can be alive yet
    /// unresponsive — stuck in D-state, swapping, GC'd runtime).
    StallHeartbeats,
    /// Keep heartbeating but never finish the job. Exercises the
    /// wall-clock *lease* detector — the failure heartbeats cannot see.
    WedgeReplay,
    /// Send the result in a frame whose checksum is wrong. Exercises
    /// frame validation and treat-as-lost recovery.
    CorruptResult,
}

/// A reproducible process-level fault for one shard worker (the
/// [`FaultPlan`] analog of the worker supervisor — see `dampi-core`'s
/// `shard` module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerFaultPlan {
    /// What goes wrong.
    pub kind: WorkerFaultKind,
    /// Zero-based index of the job (within the faulted worker) the fault
    /// fires on.
    pub nth_job: u64,
    /// Re-arm on every respawned incarnation of the worker slot. Default
    /// (false) fires only in the slot's first incarnation, so the
    /// supervisor's restart actually recovers — the chaos-smoke setting.
    /// `true` makes the slot a repeat offender, driving quarantine.
    pub persistent: bool,
}

impl WorkerFaultPlan {
    /// Parse a CLI spec: `kind:nth[:always]`, e.g. `kill:2`,
    /// `wedge:0:always`. Kinds: `kill`, `exit-before-ack`,
    /// `stall-heartbeats`, `wedge`, `corrupt-result`.
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let mut parts = spec.split(':');
        let kind = match parts.next().unwrap_or("") {
            "kill" => WorkerFaultKind::Kill,
            "exit-before-ack" => WorkerFaultKind::ExitBeforeAck,
            "stall-heartbeats" => WorkerFaultKind::StallHeartbeats,
            "wedge" => WorkerFaultKind::WedgeReplay,
            "corrupt-result" => WorkerFaultKind::CorruptResult,
            other => {
                return Err(format!(
                    "unknown worker fault kind `{other}` (expected kill, \
                     exit-before-ack, stall-heartbeats, wedge, corrupt-result)"
                ))
            }
        };
        let nth_job = match parts.next() {
            None | Some("") => 0,
            Some(n) => n
                .parse()
                .map_err(|_| format!("worker fault job index `{n}` is not a number"))?,
        };
        let persistent = match parts.next() {
            None => false,
            Some("always") => true,
            Some(other) => return Err(format!("unexpected worker fault modifier `{other}`")),
        };
        if let Some(junk) = parts.next() {
            return Err(format!("trailing worker fault field `{junk}`"));
        }
        Ok(Self {
            kind,
            nth_job,
            persistent,
        })
    }
}

/// The fault-injection interposition layer. Transparent except where a
/// [`FaultRule`] fires.
pub struct FaultLayer<M: Mpi> {
    inner: M,
    plan: Arc<FaultPlan>,
    rank: usize,
    /// MPI operations issued through this layer (Crash/Livelock index).
    ops: u64,
    /// Per-rule count of matching sends seen so far.
    send_counts: Vec<u64>,
    /// Faults actually fired on this rank (diagnostics).
    fired: u64,
}

impl<M: Mpi> FaultLayer<M> {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: M, plan: Arc<FaultPlan>) -> Self {
        let rank = inner.world_rank();
        let send_counts = vec![0; plan.rules.len()];
        Self {
            inner,
            plan,
            rank,
            ops: 0,
            send_counts,
            fired: 0,
        }
    }

    /// Number of faults fired on this rank so far.
    #[must_use]
    pub fn faults_fired(&self) -> u64 {
        self.fired
    }

    /// Operation-indexed faults (`Crash`, `Livelock`): called on every MPI
    /// operation entering the layer.
    fn op_event(&mut self) -> Result<()> {
        let op_idx = self.ops;
        self.ops += 1;
        let plan = Arc::clone(&self.plan);
        for rule in &plan.rules {
            if rule.rank.is_some_and(|r| r != self.rank) || rule.nth != op_idx {
                continue;
            }
            match &rule.action {
                FaultAction::Crash { message } => {
                    self.fired += 1;
                    panic!("injected fault: {message}");
                }
                FaultAction::Livelock { step } => {
                    self.fired += 1;
                    let step = step.max(1e-9);
                    loop {
                        // Ends only when the world turns fatal — replay
                        // budget, abort, or deadlock declaration.
                        self.inner.compute(step)?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl<M: Mpi> Mpi for FaultLayer<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }

    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.op_event()?;
        let plan = Arc::clone(&self.plan);
        for (i, rule) in plan.rules.iter().enumerate() {
            if !rule.matches_send(self.rank, comm) {
                continue;
            }
            let seen = self.send_counts[i];
            self.send_counts[i] += 1;
            if seen != rule.nth {
                continue;
            }
            self.fired += 1;
            match &rule.action {
                FaultAction::DropSend => {
                    return self
                        .inner
                        .isend(comm, dest, tag + BLACK_HOLE_TAG_OFFSET, data);
                }
                FaultAction::DuplicateSend => {
                    let dup = self.inner.isend(comm, dest, tag, data.clone())?;
                    self.inner.wait(dup)?;
                    return self.inner.isend(comm, dest, tag, data);
                }
                FaultAction::DelaySend { seconds } => {
                    self.inner.compute(seconds.max(0.0))?;
                    return self.inner.isend(comm, dest, tag, data);
                }
                _ => unreachable!("matches_send admits only send actions"),
            }
        }
        self.inner.isend(comm, dest, tag, data)
    }

    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.op_event()?;
        self.inner.irecv(comm, src, tag)
    }
    fn complete(&mut self, reqs: &[Request], how: Completion) -> Result<Completed> {
        self.op_event()?;
        self.inner.complete(reqs, how)
    }
    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Result<Option<ProbeInfo>> {
        self.op_event()?;
        self.inner.probe_for(comm, src, tag, blocking)
    }

    fn collective(
        &mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &mut Rider,
    ) -> Result<CollOutcome> {
        self.op_event()?;
        self.inner.collective(comm, sig, contribution, rider)
    }

    fn shadow_world(&mut self) -> Result<Comm> {
        // A tool's first MPI operation: injection site 0 of every rank.
        self.op_event()?;
        self.inner.shadow_world()
    }
    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()> {
        self.op_event()?;
        self.inner.release_shadow_world(shadow)
    }

    fn pcontrol(&mut self, code: i32) -> Result<()> {
        self.op_event()?;
        self.inner.pcontrol(code)
    }
    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.op_event()?;
        self.inner.compute(seconds)
    }
    fn finalize(&mut self) -> Result<()> {
        // Teardown is never an injection site: finalize must stay
        // fault-free so a clean run's leak census is trustworthy.
        self.inner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FnProgram;
    use crate::runtime::{run_with_layers, ReplayBudget, SimConfig};
    use crate::types::ANY_SOURCE;
    use crate::MpiError;
    use std::time::Duration;

    fn bts(b: &'static [u8]) -> Bytes {
        Bytes::from_static(b)
    }

    fn faulted(
        plan: FaultPlan,
        cfg: SimConfig,
        prog: impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync,
    ) -> crate::program::RunOutcome {
        let plan = Arc::new(plan);
        run_with_layers(&cfg, &FnProgram(prog), &move |_, pmpi| {
            Ok(Box::new(FaultLayer::new(pmpi, Arc::clone(&plan))))
        })
    }

    #[test]
    fn empty_plan_is_transparent() {
        let out = faulted(FaultPlan::new(), SimConfig::new(2), |mpi| {
            if mpi.world_rank() == 0 {
                mpi.send(Comm::WORLD, 1, 7, bts(b"hi"))?;
            } else {
                let (st, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 7)?;
                assert_eq!(st.source, 0);
                assert_eq!(&data[..], b"hi");
            }
            mpi.barrier(Comm::WORLD)
        });
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn dropped_send_blocks_receiver_until_watchdog() {
        let plan = FaultPlan::new().with_rule(FaultRule {
            rank: Some(0),
            comm: Some(Comm::WORLD),
            nth: 0,
            action: FaultAction::DropSend,
        });
        let cfg = SimConfig::new(2)
            .with_budget(ReplayBudget::default().with_max_wall_clock(Duration::from_millis(200)));
        let out = faulted(plan, cfg, |mpi| {
            if mpi.world_rank() == 0 {
                mpi.send(Comm::WORLD, 1, 7, bts(b"hi"))?;
            } else {
                mpi.recv(Comm::WORLD, 0, 7)?;
            }
            Ok(())
        });
        assert!(!out.succeeded());
        // The receiver blocked on a message that will never come. With one
        // rank still unblocked-but-finished this is declared a deadlock;
        // if the deadlock check races teardown, the watchdog fires. Either
        // way the run terminates and reports a fatal condition.
        let fatal = out.fatal.expect("run must not hang");
        assert!(
            matches!(
                fatal,
                MpiError::Deadlock { .. }
                    | MpiError::ReplayTimeout { .. }
                    | MpiError::Aborted { .. }
            ),
            "unexpected fatal: {fatal:?}"
        );
        // The dropped message is observable in the leak census.
        assert!(out.leaks.unreceived_messages >= 1);
    }

    #[test]
    fn duplicate_send_delivers_twice() {
        let plan = FaultPlan::new().with_rule(FaultRule {
            rank: Some(0),
            comm: None,
            nth: 0,
            action: FaultAction::DuplicateSend,
        });
        let out = faulted(plan, SimConfig::new(2), |mpi| {
            if mpi.world_rank() == 0 {
                mpi.send(Comm::WORLD, 1, 7, bts(b"x"))?;
            } else {
                let (a, _) = mpi.recv(Comm::WORLD, ANY_SOURCE, 7)?;
                let (b, _) = mpi.recv(Comm::WORLD, ANY_SOURCE, 7)?;
                assert_eq!((a.source, b.source), (0, 0));
            }
            Ok(())
        });
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn delayed_send_charges_virtual_time() {
        let plan = FaultPlan::new().with_rule(FaultRule {
            rank: Some(0),
            comm: None,
            nth: 0,
            action: FaultAction::DelaySend { seconds: 5.0 },
        });
        let out = faulted(plan, SimConfig::new(2), |mpi| {
            if mpi.world_rank() == 0 {
                mpi.send(Comm::WORLD, 1, 7, bts(b"x"))?;
            } else {
                mpi.recv(Comm::WORLD, 0, 7)?;
            }
            Ok(())
        });
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.makespan >= 5.0, "delay must show up: {}", out.makespan);
    }

    #[test]
    fn crash_is_isolated_and_recorded() {
        let plan = FaultPlan::new().with_rule(FaultRule {
            rank: Some(1),
            comm: None,
            nth: 0,
            action: FaultAction::Crash {
                message: "simulated rank failure".into(),
            },
        });
        let out = faulted(plan, SimConfig::new(2), |mpi| {
            if mpi.world_rank() == 0 {
                mpi.send(Comm::WORLD, 1, 7, bts(b"x"))?;
            } else {
                mpi.recv(Comm::WORLD, 0, 7)?;
            }
            Ok(())
        });
        assert!(!out.succeeded());
        match &out.rank_errors[1] {
            Some(MpiError::Panicked { message }) => {
                assert!(message.contains("simulated rank failure"));
            }
            other => panic!("expected isolated panic, got {other:?}"),
        }
    }

    #[test]
    fn livelock_is_killed_by_virtual_time_budget() {
        let plan = FaultPlan::new().with_rule(FaultRule {
            rank: Some(1),
            comm: None,
            nth: 0,
            action: FaultAction::Livelock { step: 0.5 },
        });
        let cfg =
            SimConfig::new(2).with_budget(ReplayBudget::default().with_max_virtual_time(10.0));
        let out = faulted(plan, cfg, |mpi| {
            if mpi.world_rank() == 0 {
                mpi.send(Comm::WORLD, 1, 7, bts(b"x"))?;
            } else {
                mpi.recv(Comm::WORLD, 0, 7)?;
            }
            Ok(())
        });
        assert!(!out.succeeded());
        assert!(
            matches!(out.fatal, Some(MpiError::ReplayTimeout { .. })),
            "livelock must trip the watchdog, got {:?}",
            out.fatal
        );
    }

    #[test]
    fn worker_fault_spec_parses() {
        assert_eq!(
            WorkerFaultPlan::parse("kill:2").unwrap(),
            WorkerFaultPlan {
                kind: WorkerFaultKind::Kill,
                nth_job: 2,
                persistent: false,
            }
        );
        assert_eq!(
            WorkerFaultPlan::parse("wedge:0:always").unwrap(),
            WorkerFaultPlan {
                kind: WorkerFaultKind::WedgeReplay,
                nth_job: 0,
                persistent: true,
            }
        );
        // Bare kind defaults to the first job, one-shot.
        assert_eq!(WorkerFaultPlan::parse("corrupt-result").unwrap().nth_job, 0);
        for bad in [
            "",
            "explode",
            "kill:x",
            "kill:1:sometimes",
            "kill:1:always:x",
        ] {
            assert!(WorkerFaultPlan::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn guided_only_plan_is_disarmed_for_self_run() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule {
                rank: None,
                comm: None,
                nth: 0,
                action: FaultAction::DropSend,
            })
            .guided_only();
        assert!(!plan.armed(true));
        assert!(plan.armed(false));
        // An empty plan never arms, regardless of run kind.
        assert!(!FaultPlan::new().armed(false));
    }
}
