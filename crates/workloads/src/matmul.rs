//! Master/slave matrix multiplication (paper §III: `matmul`).
//!
//! The master broadcasts `B`, divides the rows of `A` into ranges, and
//! hands one range to each slave. It then waits with a **wildcard
//! receive** for any slave to finish and immediately assigns it the next
//! range — the classic dynamically-load-balanced pattern whose wildcard
//! cascade defines the interleaving space studied in Fig. 6 and Fig. 8.
//!
//! The numeric work is real: slaves multiply their row range, the master
//! assembles `C = A×B` and verifies it against a serial product, so a
//! mis-matched schedule that corrupted data routing would be caught.

use bytes::Bytes;
use dampi_mpi::envelope::codec;
use dampi_mpi::proc_api::user_assert;
use dampi_mpi::{Comm, Mpi, MpiProgram, RankBody, Result, ANY_SOURCE};

use crate::tags;

/// Parameters of the matmul workload.
#[derive(Debug, Clone, Copy)]
pub struct MatmulParams {
    /// Matrix dimension (small by default: the interleavings, not the
    /// flops, are the subject).
    pub n: usize,
    /// Row ranges handed out per slave on average (total tasks =
    /// `rounds_per_slave * (np - 1)`); each task completion is one
    /// wildcard receive at the master.
    pub rounds_per_slave: usize,
    /// Simulated seconds of compute per task.
    pub task_cost: f64,
    /// Acknowledgement mode: slaves verify their partial product locally
    /// against the serial reference and send an empty `RESULT` ack
    /// instead of returning row contents. The master tracks assignments
    /// by sender rank, so no payload content ever steers control flow —
    /// the shape that licenses payload-oblivious symmetry across slaves.
    pub ack_results: bool,
}

impl Default for MatmulParams {
    fn default() -> Self {
        Self {
            n: 8,
            rounds_per_slave: 2,
            task_cost: 1e-4,
            ack_results: false,
        }
    }
}

/// The matmul program.
#[derive(Debug, Clone)]
pub struct Matmul {
    params: MatmulParams,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Matmul {
    /// Build with deterministic pseudo-random matrices.
    #[must_use]
    pub fn new(params: MatmulParams) -> Self {
        let n = params.n;
        let gen = |i: usize| ((i * 2654435761) % 97) as f64 / 97.0 - 0.5;
        let a: Vec<f64> = (0..n * n).map(gen).collect();
        let b: Vec<f64> = (0..n * n).map(|i| gen(i + n * n)).collect();
        Self { params, a, b }
    }

    /// Serial reference product.
    fn reference(&self) -> Vec<f64> {
        let n = self.params.n;
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += aik * self.b[k * n + j];
                }
            }
        }
        c
    }

    fn multiply_rows(&self, rows: std::ops::Range<usize>) -> Vec<f64> {
        let n = self.params.n;
        let mut out = vec![0.0; rows.len() * n];
        for (oi, i) in rows.clone().enumerate() {
            for k in 0..n {
                let aik = self.a[i * n + k];
                for j in 0..n {
                    out[oi * n + j] += aik * self.b[k * n + j];
                }
            }
        }
        out
    }

    /// Split row index space into `tasks` contiguous ranges.
    fn task_range(&self, task: usize, tasks: usize) -> std::ops::Range<usize> {
        let n = self.params.n;
        let lo = task * n / tasks;
        let hi = (task + 1) * n / tasks;
        lo..hi
    }

    async fn run_master(&self, mpi: &mut dyn Mpi) -> Result<()> {
        let np = mpi.world_size();
        let slaves = np - 1;
        let tasks = slaves * self.params.rounds_per_slave;
        let n = self.params.n;
        // Broadcast B.
        mpi.bcast(Comm::WORLD, 0, Some(codec::encode_f64s(&self.b)))
            .await?;
        let mut c = vec![0.0; n * n];
        // Ack mode: which task each slave is working on, keyed by rank.
        let mut working: Vec<Option<usize>> = vec![None; np];
        let mut acked = vec![false; tasks];
        let mut next_task = 0usize;
        // Prime each slave with one task.
        for (s, slot) in working.iter_mut().enumerate().skip(1) {
            mpi.send(
                Comm::WORLD,
                s as i32,
                tags::WORK,
                codec::encode_u64(next_task as u64),
            )
            .await?;
            *slot = Some(next_task);
            next_task += 1;
        }
        let mut completed = 0usize;
        while completed < tasks {
            // The wildcard receive: any slave may finish first.
            let (st, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, tags::RESULT).await?;
            if self.params.ack_results {
                // The ack carries no content; the sender rank alone says
                // which assignment completed. Dealing is static round-robin
                // (slave s owns tasks s-1, s-1+slaves, ...), so every rank's
                // op sequence — and the master's per-slave WORK payloads —
                // is identical on every schedule; the only nondeterminism
                // left is the ack arrival order this wildcard explores.
                let task = working[st.source].take();
                user_assert(task.is_some(), "matmul ack from an idle slave")?;
                let task = task.unwrap_or(0);
                acked[task] = true;
                completed += 1;
                let next = task + slaves;
                if next < tasks {
                    mpi.send(
                        Comm::WORLD,
                        st.source as i32,
                        tags::WORK,
                        codec::encode_u64(next as u64),
                    )
                    .await?;
                    working[st.source] = Some(next);
                } else {
                    mpi.send(Comm::WORLD, st.source as i32, tags::DONE, Bytes::new())
                        .await?;
                }
                continue;
            }
            let vals = codec::decode_f64s(&data);
            let task = vals[0] as usize;
            let range = self.task_range(task, tasks);
            for (oi, i) in range.enumerate() {
                for j in 0..n {
                    c[i * n + j] = vals[1 + oi * n + j];
                }
            }
            completed += 1;
            if next_task < tasks {
                mpi.send(
                    Comm::WORLD,
                    st.source as i32,
                    tags::WORK,
                    codec::encode_u64(next_task as u64),
                )
                .await?;
                working[st.source] = Some(next_task);
                next_task += 1;
            } else {
                mpi.send(Comm::WORLD, st.source as i32, tags::DONE, Bytes::new())
                    .await?;
            }
        }
        if self.params.ack_results {
            // Slaves verified contents locally; the master checks only
            // that every assignment came back.
            return user_assert(
                acked.into_iter().all(|a| a),
                "matmul ack bookkeeping lost a task",
            );
        }
        // Verify the assembled product against the serial reference.
        let reference = self.reference();
        let ok = c.iter().zip(&reference).all(|(x, y)| (x - y).abs() < 1e-9);
        user_assert(ok, "matmul result mismatch: a schedule corrupted routing")
    }

    async fn run_slave(&self, mpi: &mut dyn Mpi) -> Result<()> {
        let np = mpi.world_size();
        let slaves = np - 1;
        let tasks = slaves * self.params.rounds_per_slave;
        mpi.bcast(Comm::WORLD, 0, None).await?;
        loop {
            let (st, data) = mpi.recv(Comm::WORLD, 0, dampi_mpi::ANY_TAG).await?;
            if st.tag == tags::DONE {
                break;
            }
            let task = codec::decode_u64(&data) as usize;
            let range = self.task_range(task, tasks);
            mpi.compute(self.params.task_cost)?;
            let partial = self.multiply_rows(range.clone());
            if self.params.ack_results {
                // Verify here, against the rows the serial reference
                // assigns to this task, and ack with an empty message.
                let n = self.params.n;
                let reference = self.reference();
                let ok = partial
                    .iter()
                    .zip(&reference[range.start * n..range.end * n])
                    .all(|(x, y)| (x - y).abs() < 1e-9);
                user_assert(ok, "matmul slave-side partial product mismatch")?;
                mpi.send(Comm::WORLD, 0, tags::RESULT, Bytes::new()).await?;
            } else {
                let mut payload = Vec::with_capacity(1 + partial.len());
                payload.push(task as f64);
                payload.extend_from_slice(&partial);
                mpi.send(Comm::WORLD, 0, tags::RESULT, codec::encode_f64s(&payload))
                    .await?;
            }
        }
        Ok(())
    }
}

impl MpiProgram for Matmul {
    fn run<'a>(&'a self, mpi: &'a mut dyn Mpi) -> RankBody<'a> {
        Box::pin(async move {
            if mpi.world_size() < 2 {
                return Ok(());
            }
            if mpi.world_rank() == 0 {
                self.run_master(mpi).await
            } else {
                self.run_slave(mpi).await
            }
        })
    }

    fn name(&self) -> &str {
        if self.params.ack_results {
            "matmul_ack"
        } else {
            "matmul"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, SimConfig};

    #[test]
    fn reference_product_is_correct_for_identity_like() {
        let m = Matmul::new(MatmulParams {
            n: 4,
            ..Default::default()
        });
        let r = m.reference();
        assert_eq!(r.len(), 16);
    }

    #[test]
    fn runs_clean_natively() {
        let m = Matmul::new(MatmulParams::default());
        let out = run_native(&SimConfig::new(4), &m);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let m = Matmul::new(MatmulParams::default());
        let out = run_native(&SimConfig::new(1), &m);
        assert!(out.succeeded());
    }

    #[test]
    fn many_rounds_many_slaves() {
        let m = Matmul::new(MatmulParams {
            n: 12,
            rounds_per_slave: 3,
            task_cost: 0.0,
            ..Default::default()
        });
        let out = run_native(&SimConfig::new(7), &m);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn ack_mode_runs_clean_natively() {
        let m = Matmul::new(MatmulParams {
            ack_results: true,
            ..Default::default()
        });
        assert_eq!(m.name(), "matmul_ack");
        let out = run_native(&SimConfig::new(4), &m);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    }

    #[test]
    fn task_ranges_partition_rows() {
        let m = Matmul::new(MatmulParams {
            n: 10,
            rounds_per_slave: 3,
            ..Default::default()
        });
        let tasks = 6;
        let mut covered = vec![false; 10];
        for t in 0..tasks {
            for i in m.task_range(t, tasks) {
                assert!(!covered[i], "row {i} covered twice");
                covered[i] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }
}
