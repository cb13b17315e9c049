//! An Asynchronous Dynamic Load Balancing library (paper §III: ADLB).
//!
//! Argonne's ADLB is a loosely coupled work-sharing library that
//! "aggressively employs non-deterministic commands" — servers sit in
//! wildcard-receive loops fielding `PUT`/`GET` traffic from workers. Its
//! degree of non-determinism defeats full-coverage verification even at a
//! dozen processes (the paper could not handle it under ISP at all), which
//! makes it the stress test for bounded mixing (Fig. 9).
//!
//! This implementation reproduces the protocol shape:
//!
//! * ranks `0..nservers` are **servers** holding work queues;
//! * the remaining ranks are **workers** that `GET` work, compute, and
//!   `PUT` spawned child items back;
//! * a `GET` against an empty queue *parks* the worker until work arrives
//!   (ADLB's blocking get) — no busy polling, so the epoch structure is
//!   deterministic;
//! * termination: when no work is queued, none is in flight, and every
//!   worker is parked, the server answers `DONE` to all.

use bytes::Bytes;
use dampi_mpi::envelope::codec;
use dampi_mpi::proc_api::user_assert;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, ReduceOp, Result, ANY_SOURCE, ANY_TAG};

use crate::tags;

/// Parameters of the ADLB workload.
#[derive(Debug, Clone, Copy)]
pub struct AdlbParams {
    /// Number of server ranks (work-queue holders).
    pub nservers: usize,
    /// Root work items seeded per server.
    pub seed_items: usize,
    /// Each item spawns children while its depth is below this.
    pub spawn_depth: usize,
    /// Children per spawning item.
    pub spawn_width: usize,
    /// Simulated compute seconds per item.
    pub work_cost: f64,
}

impl Default for AdlbParams {
    fn default() -> Self {
        Self {
            nservers: 1,
            seed_items: 4,
            spawn_depth: 1,
            spawn_width: 2,
            work_cost: 1e-5,
        }
    }
}

impl AdlbParams {
    /// Total items each server will see (seeds plus all spawned
    /// descendants): `seeds * (w^(d+1) - 1)/(w - 1)` for width `w`,
    /// depth `d`.
    #[must_use]
    pub fn items_per_server(&self) -> usize {
        let w = self.spawn_width;
        let mut per_seed = 0usize;
        let mut level = 1usize;
        for _ in 0..=self.spawn_depth {
            per_seed += level;
            level *= w.max(1);
        }
        self.seed_items * per_seed
    }
}

/// The ADLB work-sharing program.
#[derive(Debug, Clone)]
pub struct Adlb {
    params: AdlbParams,
}

impl Adlb {
    /// Build from parameters.
    #[must_use]
    pub fn new(params: AdlbParams) -> Self {
        Self { params }
    }

    /// Which server a worker talks to.
    fn server_of(&self, worker: usize) -> usize {
        worker % self.params.nservers
    }

    async fn run_server(&self, mpi: &mut dyn Mpi) -> Result<()> {
        let me = mpi.world_rank();
        let np = mpi.world_size();
        let p = self.params;
        let my_workers: Vec<usize> = (p.nservers..np)
            .filter(|w| self.server_of(*w) == me)
            .collect();
        // Item encoding: (depth, id) packed into a u64 pair.
        let mut queue: Vec<(u64, u64)> = (0..p.seed_items)
            .map(|i| (0u64, (me * 1_000_000 + i) as u64))
            .collect();
        let mut parked: Vec<usize> = Vec::new();
        let mut in_flight = 0usize;
        let mut completed = 0u64;
        let mut finished_workers = 0usize;
        if my_workers.is_empty() {
            return Ok(());
        }
        loop {
            // Serve parked workers while work is available.
            while !queue.is_empty() && !parked.is_empty() {
                let worker = parked.pop().expect("nonempty");
                let (depth, id) = queue.pop().expect("nonempty");
                mpi.send(
                    Comm::WORLD,
                    worker as i32,
                    tags::WORK,
                    codec::encode_u64s(&[depth, id]),
                )
                .await?;
                in_flight += 1;
            }
            // Termination: nothing queued, nothing running, all parked.
            if queue.is_empty() && in_flight == 0 && parked.len() == my_workers.len() {
                for worker in parked.drain(..) {
                    mpi.send(Comm::WORLD, worker as i32, tags::DONE, Bytes::new())
                        .await?;
                    finished_workers += 1;
                }
                break;
            }
            // The non-deterministic server loop: field whatever arrives.
            let (st, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, ANY_TAG).await?;
            match st.tag {
                tags::GET => {
                    parked.push(st.source);
                }
                tags::PUT => {
                    let vals = codec::decode_u64s(&data);
                    queue.push((vals[0], vals[1]));
                }
                tags::RESULT => {
                    in_flight -= 1;
                    completed += 1;
                }
                other => {
                    return Err(dampi_mpi::MpiError::UserAssert {
                        message: format!("server got unexpected tag {other}"),
                    })
                }
            }
        }
        user_assert(
            completed as usize == p.items_per_server(),
            format!(
                "server {me} completed {completed} items, expected {}",
                p.items_per_server()
            ),
        )?;
        user_assert(
            finished_workers == my_workers.len(),
            "server retired all its workers",
        )?;
        Ok(())
    }

    async fn run_worker(&self, mpi: &mut dyn Mpi) -> Result<()> {
        let me = mpi.world_rank();
        let p = self.params;
        let server = self.server_of(me) as i32;
        let mut items_done = 0u64;
        loop {
            mpi.send(Comm::WORLD, server, tags::GET, Bytes::new())
                .await?;
            let (st, data) = mpi.recv(Comm::WORLD, server, ANY_TAG).await?;
            match st.tag {
                tags::WORK => {
                    let vals = codec::decode_u64s(&data);
                    let (depth, id) = (vals[0], vals[1]);
                    mpi.compute(p.work_cost)?;
                    if (depth as usize) < p.spawn_depth {
                        for c in 0..p.spawn_width {
                            mpi.send(
                                Comm::WORLD,
                                server,
                                tags::PUT,
                                codec::encode_u64s(&[depth + 1, id * 31 + c as u64 + 1]),
                            )
                            .await?;
                        }
                    }
                    mpi.send(Comm::WORLD, server, tags::RESULT, Bytes::new())
                        .await?;
                    items_done += 1;
                }
                tags::DONE => break,
                other => {
                    return Err(dampi_mpi::MpiError::UserAssert {
                        message: format!("worker got unexpected tag {other}"),
                    })
                }
            }
        }
        let _ = items_done;
        Ok(())
    }
}

impl MpiProgram for Adlb {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            let np = mpi.world_size();
            let p = self.params;
            if np <= p.nservers {
                return Ok(());
            }
            if mpi.world_rank() < p.nservers {
                self.run_server(mpi).await?;
            } else {
                self.run_worker(mpi).await?;
            }
            // Global sanity: total completions across servers.
            let total = mpi
                .allreduce_u64(Comm::WORLD, vec![0], ReduceOp::Sum)
                .await?;
            let _ = total;
            Ok(())
        })
    }

    fn name(&self) -> &str {
        "ADLB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn item_count_formula() {
        let p = AdlbParams {
            seed_items: 2,
            spawn_depth: 1,
            spawn_width: 2,
            ..Default::default()
        };
        // Each seed: itself + 2 children = 3; two seeds = 6.
        assert_eq!(p.items_per_server(), 6);
        let p2 = AdlbParams {
            seed_items: 1,
            spawn_depth: 2,
            spawn_width: 3,
            ..Default::default()
        };
        // 1 + 3 + 9 = 13.
        assert_eq!(p2.items_per_server(), 13);
    }

    #[test]
    fn completes_natively_one_server() {
        let prog = Adlb::new(AdlbParams::default());
        let out = run_native(&SimConfig::new(4), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    }

    #[test]
    fn completes_with_multiple_servers() {
        let prog = Adlb::new(AdlbParams {
            nservers: 2,
            seed_items: 3,
            spawn_depth: 1,
            spawn_width: 2,
            work_cost: 0.0,
        });
        let out = run_native(&SimConfig::new(8), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn no_spawning_still_terminates() {
        let prog = Adlb::new(AdlbParams {
            seed_items: 5,
            spawn_depth: 0,
            spawn_width: 0,
            ..Default::default()
        });
        let out = run_native(&SimConfig::new(3), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn degenerate_all_servers() {
        let prog = Adlb::new(AdlbParams {
            nservers: 4,
            ..Default::default()
        });
        let out = run_native(&SimConfig::new(3), &prog);
        assert!(out.succeeded());
    }

    #[test]
    fn repeated_runs_complete_under_racy_schedules() {
        // The server loop is heavily non-deterministic; run several times
        // to exercise different native schedules.
        for _ in 0..10 {
            let prog = Adlb::new(AdlbParams {
                seed_items: 3,
                spawn_depth: 2,
                spawn_width: 2,
                work_cost: 0.0,
                nservers: 1,
            });
            let out = run_native(&SimConfig::new(5), &prog);
            assert!(out.succeeded(), "{:?}", out.rank_errors);
        }
    }
}
