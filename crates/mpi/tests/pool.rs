//! Where a run's ranks execute, seen through the public entry points: on
//! the caller's own thread, whatever the world's width, so a panicking rank
//! costs neither the thread nor the run, concurrent callers share nothing,
//! and no run returns before its ranks are done with the caller's stack.
//! (The file keeps the name it had while ranks were pooled threads.)

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use bytes::Bytes;
use dampi_mpi::matching::ProbeInfo;
use dampi_mpi::{
    ready_stack, run_native, run_with_layers, AsyncFnProgram, CollOutcome, CollSig, Comm,
    Completed, Completion, Contribution, Mpi, MpiError, Pmpi, ReduceOp, ReplayBudget, Request,
    Result, Rider, SimConfig, Tag, Waist,
};

/// Thread id per rank of one run of an otherwise empty program.
fn team_of(np: usize) -> Vec<ThreadId> {
    let ids = Mutex::new(vec![None; np]);
    let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        ids.lock().unwrap()[mpi.world_rank()] = Some(std::thread::current().id());
        Ok(())
    });
    assert!(run_native(&SimConfig::new(np), &prog).succeeded());
    let ids = ids.into_inner().unwrap();
    ids.into_iter().map(|id| id.expect("rank ran")).collect()
}

#[test]
fn a_thousand_sequential_runs_share_one_team() {
    let mut seen = HashSet::new();
    for _ in 0..1000 {
        seen.extend(team_of(7));
    }
    assert_eq!(seen, HashSet::from([std::thread::current().id()]));
}

/// Forwards everything; panics in `finalize` on one rank.
struct PanicsInFinalize<M: Mpi> {
    inner: M,
    rank: usize,
}

impl<M: Mpi> Mpi for PanicsInFinalize<M> {
    fn pmpi(&self) -> &Pmpi {
        self.inner.pmpi()
    }
    fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
        self.inner.isend(comm, dest, tag, data)
    }
    fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
        self.inner.irecv(comm, src, tag)
    }
    fn complete<'a>(&'a mut self, reqs: &'a [Request], how: Completion) -> Waist<'a, Completed> {
        self.inner.complete(reqs, how)
    }
    fn probe_for(
        &mut self,
        comm: Comm,
        src: i32,
        tag: Tag,
        blocking: bool,
    ) -> Waist<'_, Option<ProbeInfo>> {
        self.inner.probe_for(comm, src, tag, blocking)
    }
    fn collective<'a>(
        &'a mut self,
        comm: Comm,
        sig: CollSig,
        contribution: Contribution,
        rider: &'a mut Rider,
    ) -> Waist<'a, CollOutcome> {
        self.inner.collective(comm, sig, contribution, rider)
    }
    fn shadow_world(&mut self) -> Waist<'_, Comm> {
        self.inner.shadow_world()
    }
    fn release_shadow_world(&mut self, shadow: Comm) -> Result<()> {
        self.inner.release_shadow_world(shadow)
    }
    fn pcontrol(&mut self, code: i32) -> Result<()> {
        self.inner.pcontrol(code)
    }
    fn compute(&mut self, seconds: f64) -> Result<()> {
        self.inner.compute(seconds)
    }
    fn finalize(&mut self) -> Waist<'_, ()> {
        Box::pin(async move {
            assert!(self.inner.world_rank() != self.rank, "injected: finalize");
            self.inner.finalize().await
        })
    }
}

#[test]
fn a_panicking_rank_is_reported_and_its_thread_serves_the_next_run() {
    const NP: usize = 3;
    const BAD: usize = 1;
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum At {
        Factory,
        Run,
        Finalize,
    }
    for at in [At::Factory, At::Run, At::Finalize] {
        let ids = Mutex::new(vec![None; NP]);
        let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
            assert!(at != At::Run || mpi.world_rank() != BAD, "injected: run");
            Ok(())
        });
        let out = run_with_layers(&SimConfig::new(NP), &prog, &|rank, pmpi| {
            ids.lock().unwrap()[rank] = Some(std::thread::current().id());
            assert!(at != At::Factory || rank != BAD, "injected: factory");
            let rank = if at == At::Finalize { BAD } else { NP };
            ready_stack(PanicsInFinalize { inner: pmpi, rank })
        });
        for (rank, err) in out.rank_errors.iter().enumerate() {
            match err {
                Some(MpiError::Panicked { message }) if rank == BAD => {
                    assert!(message.contains("injected"), "{at:?}: {message}");
                }
                None if rank != BAD => {}
                other => panic!("{at:?}: rank {rank} got {other:?}"),
            }
        }
        let ids: Vec<ThreadId> = ids
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|id| id.expect("factory ran"))
            .collect();
        assert_eq!(team_of(NP), ids, "{at:?}: the caller's thread, every rank");
        assert_eq!(ids, vec![std::thread::current().id(); NP], "{at:?}");
    }
}

#[test]
fn concurrent_callers_get_disjoint_teams() {
    const NP: usize = 16;
    // Both worlds must be in flight at once: each rank 0 waits here for
    // the other world's rank 0 before anything else happens.
    let both_running = Barrier::new(2);
    let campaign = |salt: u64| {
        let ids = Mutex::new(vec![None; NP]);
        let sums = Mutex::new(vec![0; NP]);
        let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
            let rank = mpi.world_rank();
            ids.lock().unwrap()[rank] = Some(std::thread::current().id());
            if rank == 0 {
                both_running.wait();
            }
            let sum = mpi
                .allreduce_u64(Comm::WORLD, vec![salt + rank as u64], ReduceOp::Sum)
                .await?;
            sums.lock().unwrap()[rank] = sum[0];
            // Odd ranks fail, so a result landing on the wrong rank shows.
            if rank % 2 == 1 {
                return Err(MpiError::UserAssert {
                    message: format!("{salt}/{rank}"),
                });
            }
            Ok(())
        });
        let out = run_native(&SimConfig::new(NP), &prog);
        for (rank, err) in out.rank_errors.iter().enumerate() {
            let want = (rank % 2 == 1).then(|| MpiError::UserAssert {
                message: format!("{salt}/{rank}"),
            });
            assert_eq!(*err, want, "world {salt} rank {rank}");
        }
        let total = NP as u64 * salt + (0..NP as u64).sum::<u64>();
        assert_eq!(sums.into_inner().unwrap(), vec![total; NP]);
        let ids = ids.into_inner().unwrap();
        ids.into_iter()
            .map(|id| id.expect("rank ran"))
            .collect::<HashSet<ThreadId>>()
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| campaign(1000));
        let b = s.spawn(|| campaign(2000));
        (a.join().expect("caller a"), b.join().expect("caller b"))
    });
    // Each world ran on its own caller's thread alone.
    assert_eq!((a.len(), b.len()), (1, 1));
    assert!(a.is_disjoint(&b));
}

/// A run that returned while a rank still held a borrow of the caller's
/// stack would be a use-after-free; the visible half of that contract is
/// that everything a rank wrote, however late, is there on return.
#[test]
fn no_run_returns_before_its_slowest_rank() {
    let late = Duration::from_millis(20);
    let recv_from =
        async |mpi: &mut dyn Mpi, src: i32| mpi.recv(Comm::WORLD, src, 0).await.map(|_| ());

    // Plain completion.
    let written = AtomicUsize::new(0);
    let flag = &written;
    let out = run_native(
        &SimConfig::new(3),
        &AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
            if mpi.world_rank() == 0 {
                std::thread::sleep(late);
                flag.store(1, Ordering::SeqCst);
            }
            Ok(())
        }),
    );
    assert!(out.succeeded());
    assert_eq!(written.load(Ordering::SeqCst), 1);

    // The watchdog ends the run while rank 0 is still asleep outside MPI.
    let written = AtomicUsize::new(0);
    let flag = &written;
    let budget = ReplayBudget::unlimited().with_max_wall_clock(Duration::from_millis(1));
    let out = run_native(
        &SimConfig::new(3).with_budget(budget),
        &AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
            if mpi.world_rank() == 0 {
                std::thread::sleep(late);
                flag.store(2, Ordering::SeqCst);
                Ok(())
            } else {
                recv_from(mpi, 0).await
            }
        }),
    );
    assert!(matches!(out.fatal, Some(MpiError::ReplayTimeout { .. })));
    assert_eq!(written.load(Ordering::SeqCst), 2);

    // A deadlock ends the run; rank 0 writes late, then joins the cycle.
    let written = AtomicUsize::new(0);
    let flag = &written;
    let out = run_native(
        &SimConfig::new(3),
        &AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
            let rank = mpi.world_rank();
            if rank == 0 {
                std::thread::sleep(late);
                flag.store(3, Ordering::SeqCst);
            }
            recv_from(mpi, ((rank + 1) % 3) as i32).await
        }),
    );
    assert!(out.deadlocked());
    assert_eq!(written.load(Ordering::SeqCst), 3);
}

#[test]
fn a_world_wider_than_the_pool_limit_spawns_and_retains_nothing() {
    // The paper's 1K processes are 1 024 futures on this thread, not 1 024
    // OS threads.
    let np = 1024;
    assert_eq!(team_of(np), vec![std::thread::current().id(); np]);
}
