//! End-to-end semantics of the threaded MPI runtime: point-to-point,
//! wildcards, collectives, communicator management, deadlock detection,
//! leaks, aborts, and virtual time.

use bytes::Bytes;
use dampi_mpi::envelope::codec;
use dampi_mpi::{
    run_native, run_with_layers, Comm, FnProgram, MatchPolicy, MpiError, MpiProgram, Pmpi,
    ReduceOp, SimConfig, Status, ANY_SOURCE, ANY_TAG,
};

fn cfg(n: usize) -> SimConfig {
    SimConfig::new(n)
}

fn bts(s: &[u8]) -> Bytes {
    Bytes::copy_from_slice(s)
}

#[test]
fn ping_pong() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 7, bts(b"ping"))?;
                let (st, data) = mpi.recv(Comm::WORLD, 1, 8)?;
                assert_eq!(st.source, 1);
                assert_eq!(&data[..], b"pong");
            }
            1 => {
                let (st, data) = mpi.recv(Comm::WORLD, 0, 7)?;
                assert_eq!(st.source, 0);
                assert_eq!(&data[..], b"ping");
                mpi.send(Comm::WORLD, 0, 8, bts(b"pong"))?;
            }
            _ => unreachable!(),
        }
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
    assert!(out.leaks.is_clean());
}

#[test]
fn wildcard_receive_gets_all_messages() {
    // Rank 0 receives world_size-1 messages via ANY_SOURCE; each slave
    // sends its rank. All must arrive exactly once.
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let n = mpi.world_size();
        if mpi.world_rank() == 0 {
            let mut seen = vec![false; n];
            for _ in 1..n {
                let (st, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 1)?;
                let val = codec::decode_u64(&data) as usize;
                assert_eq!(st.source, val);
                assert!(!seen[val], "duplicate message from {val}");
                seen[val] = true;
            }
        } else {
            mpi.send(
                Comm::WORLD,
                0,
                1,
                codec::encode_u64(mpi.world_rank() as u64),
            )?;
        }
        Ok(())
    });
    let out = run_native(&cfg(6), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
}

#[test]
fn deadlock_two_ranks_both_receive() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let peer = 1 - mpi.world_rank() as i32;
        let _ = mpi.recv(Comm::WORLD, peer, 0)?;
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(out.deadlocked(), "expected deadlock, got {:?}", out.fatal);
    let bugs = out.program_bugs();
    assert!(matches!(bugs[0].error, MpiError::Deadlock { .. }));
}

#[test]
fn deadlock_missing_sender() {
    // Rank 1 waits for a message nobody sends while others finish.
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 1 {
            let _ = mpi.recv(Comm::WORLD, 2, 5)?;
        }
        Ok(())
    });
    let out = run_native(&cfg(3), &prog);
    assert!(out.deadlocked());
}

#[test]
fn no_false_deadlock_with_computing_rank() {
    // Rank 0 blocks while rank 1 computes then sends: must complete.
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            let _ = mpi.recv(Comm::WORLD, 1, 0)?;
        } else {
            std::thread::sleep(std::time::Duration::from_millis(20));
            mpi.send(Comm::WORLD, 0, 0, bts(b"late but real"))?;
        }
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(out.succeeded(), "{:?}", out.fatal);
}

#[test]
fn collectives_roundtrip() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let n = mpi.world_size();
        let me = mpi.world_rank();
        mpi.barrier(Comm::WORLD)?;
        // Bcast from root 1.
        let data = if me == 1 {
            Some(bts(b"root-data"))
        } else {
            None
        };
        let got = mpi.bcast(Comm::WORLD, 1, data)?;
        assert_eq!(&got[..], b"root-data");
        // Allreduce sum of ranks.
        let sum = mpi.allreduce_u64(Comm::WORLD, vec![me as u64], ReduceOp::Sum)?;
        assert_eq!(sum[0], (n * (n - 1) / 2) as u64);
        // Reduce max to root 0.
        let max = mpi.reduce_u64(Comm::WORLD, 0, vec![me as u64], ReduceOp::Max)?;
        if me == 0 {
            assert_eq!(max.unwrap()[0], (n - 1) as u64);
        } else {
            assert!(max.is_none());
        }
        // Allgather of rank bytes.
        let all = mpi.allgather(Comm::WORLD, codec::encode_u64(me as u64))?;
        for (i, b) in all.iter().enumerate() {
            assert_eq!(codec::decode_u64(b) as usize, i);
        }
        // Gather at root 2.
        let g = mpi.gather(Comm::WORLD, 2, codec::encode_u64(me as u64 * 10))?;
        if me == 2 {
            let g = g.unwrap();
            assert_eq!(g.len(), n);
            assert_eq!(codec::decode_u64(&g[3]), 30);
        }
        // Scatter from root 0.
        let parts = if me == 0 {
            Some((0..n).map(|i| codec::encode_u64(i as u64 + 100)).collect())
        } else {
            None
        };
        let part = mpi.scatter(Comm::WORLD, 0, parts)?;
        assert_eq!(codec::decode_u64(&part), me as u64 + 100);
        // Alltoall.
        let outbound: Vec<Bytes> = (0..n)
            .map(|j| codec::encode_u64((me * 100 + j) as u64))
            .collect();
        let inbound = mpi.alltoall(Comm::WORLD, outbound)?;
        for (j, b) in inbound.iter().enumerate() {
            assert_eq!(codec::decode_u64(b) as usize, j * 100 + me);
        }
        Ok(())
    });
    let out = run_native(&cfg(5), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
}

#[test]
fn allreduce_f64_sum() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let v = mpi.allreduce_f64(Comm::WORLD, vec![0.5], ReduceOp::Sum)?;
        assert!((v[0] - mpi.world_size() as f64 * 0.5).abs() < 1e-12);
        Ok(())
    });
    assert!(run_native(&cfg(4), &prog).succeeded());
}

#[test]
fn comm_dup_and_free() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let dup = mpi.comm_dup(Comm::WORLD)?;
        assert_ne!(dup, Comm::WORLD);
        // Traffic on the dup is isolated from world.
        if mpi.world_rank() == 0 {
            mpi.send(dup, 1, 3, bts(b"on-dup"))?;
        } else if mpi.world_rank() == 1 {
            let (_, data) = mpi.recv(dup, 0, 3)?;
            assert_eq!(&data[..], b"on-dup");
        }
        mpi.comm_free(dup)?;
        Ok(())
    });
    let out = run_native(&cfg(3), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
    assert!(out.leaks.is_clean(), "{:?}", out.leaks);
}

#[test]
fn comm_leak_detected() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let _leaked = mpi.comm_dup(Comm::WORLD)?;
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(out.succeeded());
    assert!(out.leaks.has_comm_leak());
    assert_eq!(out.leaks.comm_leaks.len(), 1);
}

#[test]
fn request_leak_detected() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            // Post a receive that is matched but never waited: leaked.
            let _req = mpi.irecv(Comm::WORLD, 1, 9)?;
        } else {
            mpi.send(Comm::WORLD, 0, 9, bts(b"x"))?;
        }
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
    assert!(out.leaks.has_request_leak());
    assert_eq!(out.leaks.request_leaks[0], 1);
    assert_eq!(out.leaks.request_leaks[1], 0);
}

#[test]
fn comm_split_partitions_traffic() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let me = mpi.world_rank();
        let color = (me % 2) as i64;
        let sub = mpi.comm_split(Comm::WORLD, color, me as i64)?.unwrap();
        let sub_size = mpi.comm_size(sub)?;
        let sub_rank = mpi.comm_rank(sub)?;
        assert_eq!(sub_size, 2);
        // Ring exchange inside the subcomm.
        let peer = ((sub_rank + 1) % sub_size) as i32;
        let (st, data) = mpi.sendrecv(sub, peer, 1, codec::encode_u64(me as u64), ANY_SOURCE, 1)?;
        let from_world = codec::decode_u64(&data) as usize;
        // The message must come from the same parity group.
        assert_eq!(from_world % 2, me % 2);
        assert_eq!(st.source, (sub_rank + sub_size - 1) % sub_size);
        mpi.comm_free(sub)?;
        Ok(())
    });
    let out = run_native(&cfg(4), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
    assert!(out.leaks.is_clean());
}

#[test]
fn comm_split_undefined_color() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let me = mpi.world_rank();
        let color = if me == 0 { -1 } else { 1 };
        let sub = mpi.comm_split(Comm::WORLD, color, 0)?;
        if me == 0 {
            assert!(sub.is_none());
        } else {
            let sub = sub.unwrap();
            assert_eq!(mpi.comm_size(sub)?, 2);
            mpi.comm_free(sub)?;
        }
        Ok(())
    });
    let out = run_native(&cfg(3), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
}

#[test]
fn collective_mismatch_detected() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            mpi.barrier(Comm::WORLD)?;
        } else {
            let _ = mpi.allreduce_u64(Comm::WORLD, vec![1], ReduceOp::Sum)?;
        }
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(matches!(
        out.fatal,
        Some(MpiError::CollectiveMismatch { .. })
    ));
}

#[test]
fn user_assert_aborts_job() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 1 {
            dampi_mpi::proc_api::user_assert(false, "x==33")?;
        } else {
            // This rank would block forever; the abort must release it.
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, ANY_TAG);
        }
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    let bugs = out.program_bugs();
    assert!(bugs
        .iter()
        .any(|b| matches!(b.error, MpiError::UserAssert { .. })));
}

#[test]
fn panic_is_captured_and_aborts() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            panic!("index out of bounds simulation");
        }
        let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, ANY_TAG);
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    let bugs = out.program_bugs();
    assert!(bugs
        .iter()
        .any(|b| matches!(&b.error, MpiError::Panicked { message } if message.contains("index"))));
}

#[test]
fn probe_then_recv() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            let info = mpi.probe(Comm::WORLD, ANY_SOURCE, ANY_TAG)?;
            assert_eq!(info.len, 5);
            let (st, data) = mpi.recv(Comm::WORLD, info.src as i32, info.tag)?;
            assert_eq!(st.source, info.src);
            assert_eq!(&data[..], b"probe");
        } else {
            mpi.send(Comm::WORLD, 0, 4, bts(b"probe"))?;
        }
        Ok(())
    });
    assert!(run_native(&cfg(2), &prog).succeeded());
}

#[test]
fn iprobe_polls() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            loop {
                if let Some(info) = mpi.iprobe(Comm::WORLD, 1, ANY_TAG)? {
                    let _ = mpi.recv(Comm::WORLD, 1, info.tag)?;
                    break;
                }
                std::thread::yield_now();
            }
        } else {
            mpi.send(Comm::WORLD, 0, 2, bts(b"eventually"))?;
        }
        Ok(())
    });
    assert!(run_native(&cfg(2), &prog).succeeded());
}

#[test]
fn waitany_returns_a_completed_request() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            let r1 = mpi.irecv(Comm::WORLD, 1, 1)?;
            let r2 = mpi.irecv(Comm::WORLD, 2, 2)?;
            let (idx, st, _) = mpi.waitany(&[r1, r2])?;
            // Exactly one of the two; wait the other.
            let other = if idx == 0 { r2 } else { r1 };
            assert_eq!(st.source, if idx == 0 { 1 } else { 2 });
            mpi.wait(other)?;
        } else {
            mpi.send(Comm::WORLD, 0, mpi.world_rank() as i32, bts(b"w"))?;
        }
        Ok(())
    });
    assert!(run_native(&cfg(3), &prog).succeeded());
}

#[test]
fn test_polls_request() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            let r = mpi.irecv(Comm::WORLD, 1, 0)?;
            loop {
                if let Some((st, data)) = mpi.test(r)? {
                    assert_eq!(st.source, 1);
                    assert_eq!(&data[..], b"t");
                    break;
                }
                std::thread::yield_now();
            }
        } else {
            mpi.send(Comm::WORLD, 0, 0, bts(b"t"))?;
        }
        Ok(())
    });
    assert!(run_native(&cfg(2), &prog).succeeded());
}

#[test]
fn match_policy_lowest_rank_biases_wildcards() {
    // Both senders' messages are queued before the receive is posted (the
    // barrier orders them), so the policy decides: LowestRank must pick 1.
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            mpi.barrier(Comm::WORLD)?;
            let (st, _) = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
            assert_eq!(st.source, 1, "LowestRank policy must prefer rank 1");
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
        } else {
            mpi.send(Comm::WORLD, 0, 0, bts(b"m"))?;
            mpi.barrier(Comm::WORLD)?;
        }
        Ok(())
    });
    let out = run_native(&cfg(3).with_policy(MatchPolicy::LowestRank), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
}

#[test]
fn nonovertaking_across_threads() {
    // Rank 1 sends 100 ordered messages; rank 0 receives them in order.
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            for i in 0..100u64 {
                let (_, data) = mpi.recv(Comm::WORLD, 1, 0)?;
                assert_eq!(codec::decode_u64(&data), i);
            }
        } else {
            for i in 0..100u64 {
                mpi.send(Comm::WORLD, 0, 0, codec::encode_u64(i))?;
            }
        }
        Ok(())
    });
    assert!(run_native(&cfg(2), &prog).succeeded());
}

#[test]
fn virtual_time_advances() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        mpi.compute(1.0)?;
        mpi.barrier(Comm::WORLD)?;
        assert!(mpi.now() >= 1.0);
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(out.succeeded());
    assert!(out.makespan >= 1.0);
}

#[test]
fn message_latency_reflected_in_vtime() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            mpi.compute(0.5)?;
            mpi.send(Comm::WORLD, 1, 0, bts(b"x"))?;
        } else {
            let _ = mpi.recv(Comm::WORLD, 0, 0)?;
            // Receiver time must be at least the sender's send time.
            assert!(mpi.now() > 0.5);
        }
        Ok(())
    });
    assert!(run_native(&cfg(2), &prog).succeeded());
}

#[test]
fn stats_layer_counts_application_ops() {
    use dampi_mpi::interpose::StatsLayer;
    use dampi_mpi::stats::StatsCollector;

    let collector = StatsCollector::new();
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            mpi.send(Comm::WORLD, 1, 0, bts(b"a"))?; // isend + wait
        } else {
            let _ = mpi.recv(Comm::WORLD, 0, 0)?; // irecv + wait
        }
        mpi.barrier(Comm::WORLD)?;
        Ok(())
    });
    let c2 = std::sync::Arc::clone(&collector);
    let out = run_with_layers(&cfg(2), &prog, &move |_, pmpi| {
        Ok(Box::new(StatsLayer::new(pmpi, std::sync::Arc::clone(&c2))))
    });
    assert!(out.succeeded());
    let total = collector.total();
    assert_eq!(total.send_recv, 2, "one isend + one irecv");
    assert_eq!(total.wait, 2);
    assert_eq!(total.collective, 2);
}

#[test]
fn passthrough_layer_is_transparent() {
    use dampi_mpi::PassthroughLayer;
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let sum = mpi.allreduce_u64(Comm::WORLD, vec![1], ReduceOp::Sum)?;
        assert_eq!(sum[0], mpi.world_size() as u64);
        Ok(())
    });
    let out = run_with_layers(&cfg(4), &prog, &|_, pmpi| {
        Ok(Box::new(PassthroughLayer::new(PassthroughLayer::new(pmpi))))
    });
    assert!(out.succeeded());
}

#[test]
fn invalid_rank_rejected() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        if mpi.world_rank() == 0 {
            let err = mpi.send(Comm::WORLD, 99, 0, bts(b"x")).unwrap_err();
            assert!(matches!(err, MpiError::InvalidRank { .. }));
            return Err(err);
        }
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(!out.succeeded());
}

#[test]
fn freed_comm_rejected() {
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let dup = mpi.comm_dup(Comm::WORLD)?;
        mpi.comm_free(dup)?;
        let err = mpi.isend(dup, 0, 0, bts(b"x")).unwrap_err();
        assert!(matches!(err, MpiError::InvalidComm));
        Ok(())
    });
    let out = run_native(&cfg(2), &prog);
    assert!(out.succeeded(), "{:?}", out.rank_errors);
}

#[test]
fn many_ranks_tree_reduction() {
    // A 64-rank stress of collectives + point-to-point.
    let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
        let me = mpi.world_rank();
        let n = mpi.world_size();
        // Manual binary-tree reduce of rank sums via p2p.
        let mut acc = me as u64;
        let mut stride = 1;
        while stride < n {
            if me.is_multiple_of(2 * stride) {
                let peer = me + stride;
                if peer < n {
                    let (_, data) = mpi.recv(Comm::WORLD, peer as i32, 0)?;
                    acc += codec::decode_u64(&data);
                }
            } else {
                mpi.send(Comm::WORLD, (me - stride) as i32, 0, codec::encode_u64(acc))?;
                break;
            }
            stride *= 2;
        }
        if me == 0 {
            assert_eq!(acc, (n as u64) * (n as u64 - 1) / 2);
        }
        mpi.barrier(Comm::WORLD)?;
        Ok(())
    });
    let out = run_native(&cfg(64), &prog);
    assert!(out.succeeded(), "{:?}", out.fatal);
}

/// A named program struct exercising the trait path (not FnProgram).
struct NamedProgram;
impl MpiProgram for NamedProgram {
    fn run(&self, mpi: &mut dyn dampi_mpi::Mpi) -> dampi_mpi::Result<()> {
        mpi.barrier(Comm::WORLD)
    }
    fn name(&self) -> &str {
        "named"
    }
}

#[test]
fn named_program_runs() {
    assert_eq!(NamedProgram.name(), "named");
    assert!(run_native(&cfg(2), &NamedProgram).succeeded());
}

mod rendezvous {
    //! Eager-vs-rendezvous protocol semantics: "unsafe" MPI programs that
    //! rely on eager buffering deadlock once payloads cross the eager
    //! limit — exactly like real MPI implementations.

    use super::*;

    /// Both ranks send first, then receive. Safe only with buffering.
    fn head_to_head_sends(
        bytes: usize,
    ) -> FnProgram<impl Fn(&mut dyn dampi_mpi::Mpi) -> dampi_mpi::Result<()> + Send + Sync> {
        FnProgram(move |mpi: &mut dyn dampi_mpi::Mpi| {
            let peer = (mpi.world_rank() ^ 1) as i32;
            mpi.send(Comm::WORLD, peer, 0, Bytes::from(vec![0u8; bytes]))?;
            let _ = mpi.recv(Comm::WORLD, peer, 0)?;
            Ok(())
        })
    }

    #[test]
    fn unsafe_send_pattern_ok_under_eager() {
        let out = run_native(&cfg(2), &head_to_head_sends(4096));
        assert!(out.succeeded(), "{:?}", out.fatal);
    }

    #[test]
    fn unsafe_send_pattern_deadlocks_under_rendezvous() {
        let sim = cfg(2).with_eager_limit(Some(0));
        let out = run_native(&sim, &head_to_head_sends(64));
        assert!(out.deadlocked(), "buffering-dependent program must hang");
    }

    #[test]
    fn eager_limit_threshold_is_respected() {
        // Small messages still eager below the limit: program survives.
        let sim = cfg(2).with_eager_limit(Some(1024));
        let out = run_native(&sim, &head_to_head_sends(64));
        assert!(out.succeeded(), "{:?}", out.fatal);
        // Above the limit: rendezvous, deadlock.
        let sim = cfg(2).with_eager_limit(Some(1024));
        let out = run_native(&sim, &head_to_head_sends(2048));
        assert!(out.deadlocked());
    }

    #[test]
    fn rendezvous_completes_when_receives_are_posted_first() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            let peer = (mpi.world_rank() ^ 1) as i32;
            let r = mpi.irecv(Comm::WORLD, peer, 0)?;
            mpi.send(Comm::WORLD, peer, 0, Bytes::from(vec![1u8; 256]))?;
            let (_, data) = mpi.wait(r)?;
            assert_eq!(data.len(), 256);
            Ok(())
        });
        let out = run_native(&cfg(2).with_eager_limit(Some(0)), &prog);
        assert!(out.succeeded(), "{:?}", out.fatal);
    }

    #[test]
    fn rendezvous_send_pending_until_matched() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            if mpi.world_rank() == 0 {
                let sreq = mpi.isend(Comm::WORLD, 1, 0, Bytes::from(vec![0u8; 128]))?;
                // Unmatched rendezvous send: test must report incomplete.
                assert!(mpi.test(sreq)?.is_none());
                mpi.barrier(Comm::WORLD)?;
                // Peer posts its receive after the barrier; wait completes.
                mpi.wait(sreq)?;
            } else {
                mpi.barrier(Comm::WORLD)?;
                let _ = mpi.recv(Comm::WORLD, 0, 0)?;
            }
            Ok(())
        });
        let out = run_native(&cfg(2).with_eager_limit(Some(0)), &prog);
        assert!(out.succeeded(), "{:?}", out.fatal);
    }

    #[test]
    fn dampi_finds_rendezvous_deadlock() {
        use dampi_core::DampiVerifier;
        let sim = cfg(2).with_eager_limit(Some(0));
        let report = DampiVerifier::new(sim).verify(&head_to_head_sends(64));
        assert!(
            report.deadlocks() >= 1,
            "the verifier must flag the unsafe send pattern: {report}"
        );
    }
}

mod completion_variants {
    //! `MPI_Testany` / `MPI_Waitsome` semantics.

    use super::*;

    #[test]
    fn testany_polls_and_consumes_one() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            if mpi.world_rank() == 0 {
                let r1 = mpi.irecv(Comm::WORLD, 1, 1)?;
                let r2 = mpi.irecv(Comm::WORLD, 2, 2)?;
                let mut remaining = vec![r1, r2];
                while !remaining.is_empty() {
                    if let Some((idx, st, _)) = mpi.testany(&remaining)? {
                        assert!(st.source == 1 || st.source == 2);
                        remaining.remove(idx);
                    } else {
                        std::thread::yield_now();
                    }
                }
            } else {
                mpi.send(Comm::WORLD, 0, mpi.world_rank() as i32, bts(b"m"))?;
            }
            Ok(())
        });
        let out = run_native(&cfg(3), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }

    #[test]
    fn waitsome_returns_all_ready() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            if mpi.world_rank() == 0 {
                mpi.barrier(Comm::WORLD)?;
                // Both messages are already queued (the senders passed the
                // barrier after sending): waitsome sees both complete.
                let r1 = mpi.irecv(Comm::WORLD, 1, 0)?;
                let r2 = mpi.irecv(Comm::WORLD, 2, 0)?;
                let done = mpi.waitsome(&[r1, r2])?;
                assert_eq!(done.len(), 2, "both were ready: {done:?}");
            } else {
                mpi.send(Comm::WORLD, 0, 0, bts(b"w"))?;
                mpi.barrier(Comm::WORLD)?;
            }
            Ok(())
        });
        let out = run_native(&cfg(3), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean(), "waitsome must consume requests");
    }

    #[test]
    fn waitsome_blocks_until_at_least_one() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            if mpi.world_rank() == 0 {
                let r1 = mpi.irecv(Comm::WORLD, 1, 0)?;
                let r2 = mpi.irecv(Comm::WORLD, 2, 0)?;
                let mut got = 0;
                let mut remaining = vec![r1, r2];
                while !remaining.is_empty() {
                    let done = mpi.waitsome(&remaining)?;
                    assert!(!done.is_empty());
                    got += done.len();
                    let taken: Vec<usize> = done.iter().map(|(i, _, _)| *i).collect();
                    remaining = remaining
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| !taken.contains(i))
                        .map(|(_, r)| r)
                        .collect();
                }
                assert_eq!(got, 2);
            } else {
                mpi.compute(1e-5)?;
                mpi.send(Comm::WORLD, 0, 0, bts(b"w"))?;
            }
            Ok(())
        });
        let out = run_native(&cfg(3), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    /// Only the owner may complete a request; `waitany`/`testany`/`waitsome`
    /// used to skip a foreign one and block until the deadlock detector
    /// fired (or answer `None` forever).
    #[test]
    fn a_request_of_another_rank_is_rejected_by_every_completion_call() {
        let shared = std::sync::Mutex::new(None);
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            let w = Comm::WORLD;
            if mpi.world_rank() == 0 {
                let mine = mpi.irecv(w, 1, 0)?;
                *shared.lock().unwrap() = Some(mine);
                mpi.barrier(w)?;
                mpi.wait(mine)?;
                return Ok(());
            }
            mpi.barrier(w)?;
            let foreign = [shared.lock().unwrap().expect("rank 0 posted")];
            let errs = [
                mpi.wait(foreign[0]).unwrap_err(),
                mpi.test(foreign[0]).unwrap_err(),
                mpi.waitany(&foreign).unwrap_err(),
                mpi.testany(&foreign).unwrap_err(),
                mpi.waitsome(&foreign).unwrap_err(),
            ];
            for err in errs {
                assert!(matches!(err, MpiError::ToolProtocol { .. }), "{err:?}");
            }
            mpi.send(w, 0, 0, bts(b"now"))
        });
        let out = run_native(&cfg(2), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }

    #[test]
    fn waitsome_under_dampi_wildcards() {
        use dampi_core::DampiVerifier;
        // Master collects results with waitsome over wildcard receives:
        // the tool must complete piggybacks for every element returned.
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            let n = mpi.world_size();
            if mpi.world_rank() == 0 {
                let reqs: Vec<_> = (1..n)
                    .map(|_| mpi.irecv(Comm::WORLD, ANY_SOURCE, 0))
                    .collect::<dampi_mpi::Result<_>>()?;
                let mut remaining = reqs;
                while !remaining.is_empty() {
                    let done = mpi.waitsome(&remaining)?;
                    let taken: Vec<usize> = done.iter().map(|(i, _, _)| *i).collect();
                    remaining = remaining
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| !taken.contains(i))
                        .map(|(_, r)| r)
                        .collect();
                }
            } else {
                mpi.send(Comm::WORLD, 0, 0, codec::encode_u64(7))?;
            }
            Ok(())
        });
        let report = DampiVerifier::new(cfg(4)).verify(&prog);
        assert!(report.errors.is_empty(), "{report}");
        assert_eq!(report.wildcards_analyzed, 3);
        assert!(report.interleavings >= 2, "{report}");
    }
}

mod collective_edges {
    //! Collective edge cases: root mismatches, derived-comm collectives,
    //! and repeated generations.

    use super::*;

    #[test]
    fn bcast_root_mismatch_detected() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            let root = mpi.world_rank(); // everyone claims root: mismatch
            let data = Some(bts(b"mine"));
            let _ = mpi.bcast(Comm::WORLD, root, data)?;
            Ok(())
        });
        let out = run_native(&cfg(2), &prog);
        assert!(matches!(
            out.fatal,
            Some(MpiError::CollectiveMismatch { .. })
        ));
    }

    #[test]
    fn reduce_op_mismatch_detected() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            let op = if mpi.world_rank() == 0 {
                ReduceOp::Sum
            } else {
                ReduceOp::Max
            };
            let _ = mpi.allreduce_u64(Comm::WORLD, vec![1], op)?;
            Ok(())
        });
        let out = run_native(&cfg(2), &prog);
        assert!(matches!(
            out.fatal,
            Some(MpiError::CollectiveMismatch { .. })
        ));
    }

    #[test]
    fn collectives_on_split_comm() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            let me = mpi.world_rank();
            let sub = mpi
                .comm_split(Comm::WORLD, (me % 2) as i64, me as i64)?
                .unwrap();
            let size = mpi.comm_size(sub)? as u64;
            let sum = mpi.allreduce_u64(sub, vec![1], ReduceOp::Sum)?;
            assert_eq!(sum[0], size, "reduction stays inside the subgroup");
            let gathered = mpi.allgather(sub, codec::encode_u64(me as u64))?;
            for g in &gathered {
                assert_eq!(codec::decode_u64(g) as usize % 2, me % 2);
            }
            mpi.comm_free(sub)?;
            Ok(())
        });
        let out = run_native(&cfg(6), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }

    #[test]
    fn many_back_to_back_generations() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            for i in 0..200u64 {
                let s = mpi.allreduce_u64(Comm::WORLD, vec![i], ReduceOp::Max)?;
                assert_eq!(s[0], i);
            }
            Ok(())
        });
        let out = run_native(&cfg(5), &prog);
        assert!(out.succeeded(), "{:?}", out.fatal);
    }

    #[test]
    fn vt_monotone_across_collectives() {
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            let mut prev = mpi.now();
            for _ in 0..10 {
                mpi.barrier(Comm::WORLD)?;
                let now = mpi.now();
                assert!(now >= prev, "virtual time went backwards");
                prev = now;
            }
            Ok(())
        });
        assert!(run_native(&cfg(4), &prog).succeeded());
    }
}

/// On the cooperative scheduler *every* runtime call waits for the turn,
/// `now` and `compute` included: a tool layer that reports to shared state
/// after reading its clock (ISP's central scheduler does, on every
/// operation) then reports in turn order, not in whichever order the rank
/// threads happened to start.
#[test]
fn deterministic_turn_covers_now_and_compute() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    for use_compute in [false, true] {
        let order = Mutex::new(Vec::new());
        let rank1_calling = AtomicBool::new(false);
        let prog = FnProgram(|mpi: &mut dyn dampi_mpi::Mpi| {
            if mpi.world_rank() == 0 {
                // Rank 0 starts with the turn and keeps it until it
                // finishes; rank 1 must still be inside its call then.
                while !rank1_calling.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                order.lock().unwrap().push(0);
            } else {
                rank1_calling.store(true, Ordering::SeqCst);
                if use_compute {
                    mpi.compute(1e-6)?;
                } else {
                    mpi.now();
                }
                order.lock().unwrap().push(1);
            }
            Ok(())
        });
        let out = run_native(&cfg(2).with_deterministic(true), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert_eq!(*order.lock().unwrap(), [0, 1], "compute: {use_compute}");
    }
}

mod lost_wakeup {
    //! The runtime wakes a blocked rank only for an event that satisfies
    //! what it recorded it waits for. Each case here is one way a wait gets
    //! satisfied, run on free-running threads and on the turn token under a
    //! wall-clock budget: a missed wake-up fails as `ReplayTimeout` instead
    //! of hanging the suite.

    use std::time::Duration;

    use super::*;
    use dampi_mpi::{Mpi, ReplayBudget, Result};

    fn sim(np: usize, deterministic: bool) -> SimConfig {
        let budget = ReplayBudget::unlimited().with_max_wall_clock(Duration::from_secs(10));
        cfg(np)
            .with_deterministic(deterministic)
            .with_budget(budget)
    }

    fn both_modes(np: usize, eager_limit: Option<usize>, prog: &dyn MpiProgram) {
        for deterministic in [false, true] {
            let out = run_native(&sim(np, deterministic).with_eager_limit(eager_limit), prog);
            assert!(
                out.succeeded(),
                "deterministic {deterministic}: {:?} {:?}",
                out.fatal,
                out.rank_errors
            );
            assert!(out.leaks.is_clean(), "{:?}", out.leaks);
        }
    }

    /// Once the world is fatal, a rank whose wake was lost still unwinds
    /// with the right error: when its bounded wait runs out. Only the time
    /// that took tells.
    fn assert_prompt(out: &dampi_mpi::RunOutcome, what: &str) {
        assert!(
            out.wall_elapsed < Duration::from_secs(5),
            "{what}: took {:?}, a parked rank waited out the watchdog",
            out.wall_elapsed
        );
    }

    /// An empty message: eager under every eager limit.
    fn go(mpi: &mut dyn Mpi, dest: i32) -> Result<()> {
        mpi.send(Comm::WORLD, dest, 99, Bytes::new())
    }

    fn wait_go(mpi: &mut dyn Mpi, src: i32) -> Result<()> {
        mpi.recv(Comm::WORLD, src, 99).map(drop)
    }

    #[test]
    fn waitany_wakes_for_the_request_that_completes_first() {
        // Rank 1 sends A only after rank 0's waitany returned B.
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            match mpi.world_rank() {
                0 => {
                    let a = mpi.irecv(w, 1, 1)?;
                    let b = mpi.irecv(w, 2, 2)?;
                    let (idx, st, _) = mpi.waitany(&[a, b])?;
                    assert_eq!((idx, st.source), (1, 2));
                    go(mpi, 1)?;
                    mpi.wait(a)?;
                }
                1 => {
                    wait_go(mpi, 0)?;
                    mpi.send(w, 0, 1, bts(b"a"))?;
                }
                _ => mpi.send(w, 0, 2, bts(b"b"))?,
            }
            Ok(())
        });
        both_modes(3, None, &prog);
    }

    #[test]
    fn wait_sleeps_through_another_request_then_wakes_for_its_own() {
        // B completes while rank 0 waits on A; A is sent after B.
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            match mpi.world_rank() {
                0 => {
                    let a = mpi.irecv(w, 1, 1)?;
                    let b = mpi.irecv(w, 2, 2)?;
                    let (st, _) = mpi.wait(a)?;
                    assert_eq!(st.source, 1);
                    let (st, _) = mpi.wait(b)?;
                    assert_eq!(st.source, 2);
                }
                1 => {
                    wait_go(mpi, 2)?;
                    mpi.send(w, 0, 1, bts(b"a"))?;
                }
                _ => {
                    mpi.send(w, 0, 2, bts(b"b"))?;
                    go(mpi, 1)?;
                }
            }
            Ok(())
        });
        both_modes(3, None, &prog);
    }

    #[test]
    fn blocking_probe_passes_over_messages_it_does_not_match() {
        // Queued for rank 0 in this order: wrong tag, wrong source, match.
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            match mpi.world_rank() {
                0 => {
                    let info = mpi.probe(w, 1, 5)?;
                    assert_eq!((info.src, info.tag, info.len), (1, 5, 5));
                    for (src, tag) in [(1, 6), (2, 5), (1, 5)] {
                        let (st, _) = mpi.recv(w, src, tag)?;
                        assert_eq!((st.source, st.tag), (src as usize, tag));
                    }
                }
                1 => {
                    mpi.send(w, 0, 6, bts(b"tag"))?;
                    go(mpi, 2)?;
                    wait_go(mpi, 2)?;
                    mpi.send(w, 0, 5, bts(b"match"))?;
                }
                _ => {
                    wait_go(mpi, 1)?;
                    mpi.send(w, 0, 5, bts(b"source"))?;
                    go(mpi, 1)?;
                }
            }
            Ok(())
        });
        both_modes(3, None, &prog);
    }

    #[test]
    fn iprobe_spin_then_blocking_recv() {
        // A bounded spin: on the turn token an unbounded one never yields.
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            if mpi.world_rank() == 0 {
                for _ in 0..100 {
                    if mpi.iprobe(w, 1, 3)?.is_some() {
                        break;
                    }
                    std::thread::yield_now();
                }
                let (_, data) = mpi.recv(w, 1, 3)?;
                assert_eq!(&data[..], b"late");
            } else {
                mpi.compute(1e-3)?;
                mpi.send(w, 0, 3, bts(b"late"))?;
            }
            Ok(())
        });
        both_modes(2, None, &prog);
    }

    #[test]
    fn rendezvous_send_wakes_when_its_receive_is_posted() {
        // Rank 1 posts its receive only after hearing from rank 2, so rank
        // 0's send is blocked until then.
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            match mpi.world_rank() {
                0 => {
                    let sreq = mpi.isend(w, 1, 0, Bytes::from(vec![7u8; 64]))?;
                    assert!(mpi.test(sreq)?.is_none(), "unmatched rendezvous send");
                    go(mpi, 2)?;
                    mpi.wait(sreq)?;
                }
                1 => {
                    wait_go(mpi, 2)?;
                    let (_, data) = mpi.recv(w, 0, 0)?;
                    assert_eq!(data.len(), 64);
                }
                _ => {
                    wait_go(mpi, 0)?;
                    go(mpi, 1)?;
                }
            }
            Ok(())
        });
        both_modes(3, Some(0), &prog);
    }

    #[test]
    fn collective_wakes_its_members_when_the_last_one_arrives_late() {
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let me = mpi.world_rank();
            if me == 2 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let sum = mpi.allreduce_u64(Comm::WORLD, vec![me as u64], ReduceOp::Sum)?;
            assert_eq!(sum, vec![6]);
            mpi.barrier(Comm::WORLD)
        });
        both_modes(4, None, &prog);
    }

    #[test]
    fn a_watchdog_trip_wakes_every_parked_rank() {
        // Every rank but 0 parks in a receive from rank 0, which overstays
        // the budget in user code: a parked rank's bounded wait trips the
        // watchdog and every rank unwinds with it.
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            if mpi.world_rank() == 0 {
                std::thread::sleep(Duration::from_millis(100));
                mpi.barrier(Comm::WORLD)
            } else {
                mpi.recv(Comm::WORLD, 0, 0).map(drop)
            }
        });
        for deterministic in [false, true] {
            let budget = ReplayBudget::unlimited().with_max_wall_clock(Duration::from_millis(20));
            let sim = cfg(3).with_deterministic(deterministic).with_budget(budget);
            let out = run_native(&sim, &prog);
            assert!(
                matches!(out.fatal, Some(MpiError::ReplayTimeout { .. })),
                "deterministic {deterministic}: {:?}",
                out.fatal
            );
            for (rank, err) in out.rank_errors.iter().enumerate() {
                assert!(
                    matches!(err, Some(MpiError::ReplayTimeout { .. })),
                    "rank {rank}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn ping_pong_hands_the_turn_back_and_forth() {
        // Every blocking receive hands the turn to the peer, whose reply
        // hands it straight back: each hand-off flushes the wake it
        // recorded before its own park, and may find the turn returned on
        // re-locking.
        const ROUND_TRIPS: usize = 1_000;
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let me = mpi.world_rank();
            let peer = 1 - me as i32;
            for _ in 0..ROUND_TRIPS {
                if me == 0 {
                    go(mpi, peer)?;
                    wait_go(mpi, peer)?;
                } else {
                    wait_go(mpi, peer)?;
                    go(mpi, peer)?;
                }
            }
            Ok(())
        });
        for deterministic in [false, true] {
            let out = run_native(&sim(2, deterministic), &prog);
            assert!(
                out.succeeded(),
                "deterministic {deterministic}: {:?}",
                out.fatal
            );
            let c = out.census;
            assert!(c.wakes <= c.parks, "deterministic {deterministic}: {c:?}");
            if deterministic {
                assert!(c.turn_passes >= 2 * ROUND_TRIPS as u64, "{c:?}");
                assert!(c.parks <= c.turn_passes + 1, "{c:?}");
                assert_eq!(c.spurious_wakes, 0, "{c:?}");
            }
        }
    }

    #[test]
    fn a_fatal_error_of_the_running_rank_unwinds_every_parked_rank() {
        // Every rank but 0 reports to rank 0 and parks in a barrier; rank 0
        // then declares a fatal error, once by a mismatched collective and
        // once by a failed user assert (an abort). Its wake-all flushes
        // every other rank at once.
        for mismatch in [true, false] {
            let prog = FnProgram(move |mpi: &mut dyn Mpi| {
                let (me, n) = (mpi.world_rank(), mpi.world_size());
                if me != 0 {
                    go(mpi, 0)?;
                    return mpi.barrier(Comm::WORLD);
                }
                for src in 1..n {
                    wait_go(mpi, src as i32)?;
                }
                // Free-running, the others' barrier entry is a race: give
                // it the time to park.
                std::thread::sleep(Duration::from_millis(5));
                if mismatch {
                    return mpi.bcast(Comm::WORLD, 0, Some(bts(b"x"))).map(drop);
                }
                assert_eq!(n, 1, "rank 0's user assert");
                Ok(())
            });
            for deterministic in [false, true] {
                let out = run_native(&sim(4, deterministic), &prog);
                let what = format!("mismatch {mismatch}, deterministic {deterministic}");
                assert_prompt(&out, &what);
                let fatal = out.fatal.clone().expect(&what);
                if mismatch {
                    assert!(
                        matches!(fatal, MpiError::CollectiveMismatch { .. }),
                        "{what}: {fatal:?}"
                    );
                } else {
                    assert_eq!(fatal, MpiError::Aborted { by_rank: 0 }, "{what}");
                    assert!(
                        matches!(out.rank_errors[0], Some(MpiError::Panicked { .. })),
                        "{what}: {:?}",
                        out.rank_errors[0]
                    );
                }
                for (rank, err) in out.rank_errors.iter().enumerate().skip(1) {
                    assert_eq!(err.as_ref(), Some(&fatal), "{what}: rank {rank}");
                }
            }
        }
    }

    #[test]
    fn a_wake_all_flushes_a_whole_world_of_parked_ranks() {
        // A ring of receives nobody sends: the last rank to block finds
        // every other rank blocked, declares the deadlock and wakes them
        // all, as many at once as a pooled world holds.
        let np = dampi_mpi::pool::POOLED_WORLD_MAX;
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let (me, n) = (mpi.world_rank(), mpi.world_size());
            wait_go(mpi, ((me + 1) % n) as i32)
        });
        let deadlock = MpiError::Deadlock {
            blocked_ranks: (0..np).collect(),
        };
        for deterministic in [false, true] {
            let out = run_native(&sim(np, deterministic), &prog);
            assert_prompt(&out, &format!("deterministic {deterministic}"));
            assert_eq!(
                out.fatal.as_ref(),
                Some(&deadlock),
                "deterministic {deterministic}"
            );
            for (rank, err) in out.rank_errors.iter().enumerate() {
                assert_eq!(
                    err.as_ref(),
                    Some(&deadlock),
                    "deterministic {deterministic}: rank {rank}"
                );
            }
        }
    }

    #[test]
    fn an_unawaited_completion_leaves_the_deadlock_exact() {
        // Rank 0 waits on A, which nobody sends, while its B completes;
        // rank 1 waits on a message nobody sends; rank 2 finishes. Both
        // live ranks are blocked: the same deadlock whether or not B's
        // completion woke rank 0.
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            match mpi.world_rank() {
                0 => {
                    let a = mpi.irecv(w, 1, 1)?;
                    let _b = mpi.irecv(w, 2, 2)?;
                    mpi.wait(a).map(drop)
                }
                1 => mpi.recv(w, 0, 0).map(drop),
                _ => mpi.send(w, 0, 2, bts(b"b")),
            }
        });
        for deterministic in [false, true] {
            let out = run_native(&sim(3, deterministic), &prog);
            assert_prompt(&out, &format!("deterministic {deterministic}"));
            let deadlock = MpiError::Deadlock {
                blocked_ranks: vec![0, 1],
            };
            assert_eq!(
                out.fatal,
                Some(deadlock.clone()),
                "deterministic {deterministic}"
            );
            assert_eq!(
                out.rank_errors,
                [Some(deadlock.clone()), Some(deadlock), None],
                "deterministic {deterministic}"
            );
        }
    }
}

mod waists {
    //! `Mpi::collective`, `Mpi::complete` and `Mpi::probe_for` are the entry
    //! points of the ten typed data collectives, the five completion calls
    //! and the two probes: a layer that implements only them sees every one.

    use std::sync::{Arc, Mutex};

    use super::*;
    use dampi_mpi::matching::ProbeInfo;
    use dampi_mpi::{
        CollOutcome, CollSig, Completed, Completion, Contribution, Mpi, PassthroughLayer, Request,
        Result, Tag,
    };

    /// One waist call as a layer sees it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        Collective(CollSig),
        /// The mode and how many requests were passed.
        Complete(Completion, usize),
        /// The `blocking` flag.
        Probe(bool),
    }

    /// Per-rank log of the waist calls one layer position saw.
    type SeenLog = Arc<Mutex<Vec<Vec<Seen>>>>;

    /// Forwards everything; its only behaviour is in the three waists.
    struct Recording<M: Mpi> {
        inner: M,
        log: SeenLog,
    }

    impl<M: Mpi> Recording<M> {
        fn saw(&self, call: Seen) {
            self.log.lock().unwrap()[self.inner.world_rank()].push(call);
        }
    }

    impl<M: Mpi> Mpi for Recording<M> {
        fn world_rank(&self) -> usize {
            self.inner.world_rank()
        }
        fn world_size(&self) -> usize {
            self.inner.world_size()
        }
        fn comm_rank(&self, comm: Comm) -> Result<usize> {
            self.inner.comm_rank(comm)
        }
        fn comm_size(&self, comm: Comm) -> Result<usize> {
            self.inner.comm_size(comm)
        }
        fn translate_rank(&self, comm: Comm, comm_rank: usize) -> Result<usize> {
            self.inner.translate_rank(comm, comm_rank)
        }
        fn now(&self) -> f64 {
            self.inner.now()
        }
        fn isend(&mut self, comm: Comm, dest: i32, tag: Tag, data: Bytes) -> Result<Request> {
            self.inner.isend(comm, dest, tag, data)
        }
        fn irecv(&mut self, comm: Comm, src: i32, tag: Tag) -> Result<Request> {
            self.inner.irecv(comm, src, tag)
        }
        fn complete(&mut self, reqs: &[Request], how: Completion) -> Result<Completed> {
            self.saw(Seen::Complete(how, reqs.len()));
            self.inner.complete(reqs, how)
        }
        fn probe_for(
            &mut self,
            comm: Comm,
            src: i32,
            tag: Tag,
            blocking: bool,
        ) -> Result<Option<ProbeInfo>> {
            self.saw(Seen::Probe(blocking));
            self.inner.probe_for(comm, src, tag, blocking)
        }
        fn collective(
            &mut self,
            comm: Comm,
            sig: CollSig,
            contribution: Contribution,
        ) -> Result<CollOutcome> {
            self.saw(Seen::Collective(sig));
            self.inner.collective(comm, sig, contribution)
        }
        fn comm_dup(&mut self, comm: Comm) -> Result<Comm> {
            self.inner.comm_dup(comm)
        }
        fn comm_split(&mut self, comm: Comm, color: i64, key: i64) -> Result<Option<Comm>> {
            self.inner.comm_split(comm, color, key)
        }
        fn comm_free(&mut self, comm: Comm) -> Result<()> {
            self.inner.comm_free(comm)
        }
        fn shadow_world(&mut self) -> Result<Comm> {
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
        fn finalize(&mut self) -> Result<()> {
            self.inner.finalize()
        }
    }

    fn new_log(np: usize) -> SeenLog {
        Arc::new(Mutex::new(vec![Vec::new(); np]))
    }

    /// Layer factory: a `Recording` above and one below a `PassthroughLayer`.
    fn recording_stack<'a>(
        upper: &'a SeenLog,
        lower: &'a SeenLog,
    ) -> impl Fn(usize, Pmpi) -> Result<Box<dyn Mpi>> + 'a {
        move |_, pmpi| {
            let lower = Recording {
                inner: pmpi,
                log: Arc::clone(lower),
            };
            Ok(Box::new(Recording {
                inner: PassthroughLayer::new(lower),
                log: Arc::clone(upper),
            }))
        }
    }

    /// The signature each typed collective of [`all_ten`] must reach the
    /// waist with, in call order, beside its contractual trace name.
    fn expected() -> [(CollSig, &'static str); 10] {
        let (sum, max, min) = (ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min);
        [
            (CollSig::Barrier, "barrier"),
            (CollSig::Bcast { root: 1 }, "bcast"),
            (CollSig::ReduceU64 { root: 0, op: sum }, "reduce_u64"),
            (CollSig::AllreduceU64 { op: max }, "allreduce_u64"),
            (CollSig::ReduceF64 { root: 2, op: sum }, "reduce_f64"),
            (CollSig::AllreduceF64 { op: min }, "allreduce_f64"),
            (CollSig::Gather { root: 1 }, "gather"),
            (CollSig::Allgather, "allgather"),
            (CollSig::Scatter { root: 0 }, "scatter"),
            (CollSig::Alltoall, "alltoall"),
        ]
    }

    /// What one rank received from the nine data-carrying collectives.
    type Received = (
        Bytes,
        Option<Vec<u64>>,
        Vec<u64>,
        Option<Vec<f64>>,
        Vec<f64>,
        Option<Vec<Bytes>>,
        Vec<Bytes>,
        Bytes,
        Vec<Bytes>,
    );

    /// Each typed collective once; returns everything the rank received.
    fn all_ten(mpi: &mut dyn Mpi) -> Result<Received> {
        let (me, n, w) = (mpi.world_rank(), mpi.world_size(), Comm::WORLD);
        let byte = |b: usize| bts(&[b as u8]);
        mpi.barrier(w)?;
        let bc = mpi.bcast(w, 1, (me == 1).then(|| bts(b"root-data")))?;
        let ru = mpi.reduce_u64(w, 0, vec![me as u64], ReduceOp::Sum)?;
        let au = mpi.allreduce_u64(w, vec![me as u64], ReduceOp::Max)?;
        let rf = mpi.reduce_f64(w, 2, vec![me as f64], ReduceOp::Sum)?;
        let af = mpi.allreduce_f64(w, vec![me as f64 + 0.5], ReduceOp::Min)?;
        let ga = mpi.gather(w, 1, byte(me))?;
        let ag = mpi.allgather(w, byte(me))?;
        let parts = (me == 0).then(|| (0..n).map(|i| byte(10 + i)).collect());
        let sc = mpi.scatter(w, 0, parts)?;
        let aa = mpi.alltoall(w, (0..n).map(|j| byte(10 * me + j)).collect())?;
        Ok((bc, ru, au, rf, af, ga, ag, sc, aa))
    }

    /// Run [`all_ten`] on three ranks under `factory`; per-rank results.
    fn run_all_ten(factory: &dampi_mpi::LayerFactory<'_>) -> Vec<Option<Received>> {
        let results = Arc::new(Mutex::new(vec![None; 3]));
        let sink = Arc::clone(&results);
        let prog = FnProgram(move |mpi: &mut dyn Mpi| {
            let got = all_ten(mpi)?;
            sink.lock().unwrap()[mpi.world_rank()] = Some(got);
            Ok(())
        });
        let out = run_with_layers(&cfg(3), &prog, factory);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        let got = results.lock().unwrap().clone();
        got
    }

    #[test]
    fn typed_call_reaches_each_layer_exactly_once() {
        let bare = run_all_ten(&|_, pmpi| Ok(Box::new(pmpi)));
        let ranks = vec![bts(&[0]), bts(&[1]), bts(&[2])];
        assert_eq!(
            bare[1],
            Some((
                bts(b"root-data"),
                None,
                vec![2],
                None,
                vec![0.5],
                Some(ranks.clone()),
                ranks,
                bts(&[11]),
                vec![bts(&[1]), bts(&[11]), bts(&[21])],
            ))
        );
        let (upper, lower) = (new_log(3), new_log(3));
        let stacked = run_all_ten(&recording_stack(&upper, &lower));
        assert_eq!(stacked, bare, "layers must not change what a rank receives");
        let sigs: Vec<Seen> = expected()
            .iter()
            .map(|(sig, _)| Seen::Collective(*sig))
            .collect();
        for log in [&upper, &lower] {
            for seen in log.lock().unwrap().iter() {
                assert_eq!(seen, &sigs, "one `collective` per typed call, in order");
            }
        }
    }

    #[test]
    fn point_to_point_call_reaches_each_layer_exactly_once() {
        use Completion::{TestAny, WaitAny, WaitSome};
        const SENDS: i32 = 6;
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            if mpi.world_rank() == 1 {
                for tag in 0..SENDS {
                    mpi.send(w, 0, tag, bts(&[tag as u8]))?;
                }
                return mpi.barrier(w);
            }
            // Every message is queued once the sender is past the barrier,
            // so each poll below hits the first time.
            mpi.barrier(w)?;
            assert_eq!(mpi.probe(w, 1, 0)?.len, 1);
            assert_eq!(mpi.iprobe(w, 1, 0)?.map(|info| info.src), Some(1));
            let mut recvs = Vec::new();
            for tag in 0..SENDS {
                recvs.push(mpi.irecv(w, 1, tag)?);
            }
            let tag_of = |(status, data): (Status, Bytes)| (status.tag, data[0]);
            assert_eq!(tag_of(mpi.wait(recvs[0])?), (0, 0));
            assert_eq!(mpi.test(recvs[1])?.map(tag_of), Some((1, 1)));
            let (idx, status, _) = mpi.waitany(&recvs[2..4])?;
            assert_eq!((idx, status.tag), (0, 2));
            let hit = mpi.testany(&recvs[3..5])?;
            assert_eq!(hit.map(|(idx, status, _)| (idx, status.tag)), Some((0, 3)));
            let rest = mpi.waitsome(&recvs[4..6])?;
            let tags: Vec<_> = rest.iter().map(|(idx, st, _)| (*idx, st.tag)).collect();
            assert_eq!(tags, [(0, 4), (1, 5)]);
            Ok(())
        });
        let (upper, lower) = (new_log(2), new_log(2));
        let out = run_with_layers(&cfg(2), &prog, &recording_stack(&upper, &lower));
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean(), "every request was consumed");
        let receiver = [
            Seen::Collective(CollSig::Barrier),
            Seen::Probe(true),
            Seen::Probe(false),
            Seen::Complete(WaitAny, 1),
            Seen::Complete(TestAny, 1),
            Seen::Complete(WaitAny, 2),
            Seen::Complete(TestAny, 2),
            Seen::Complete(WaitSome, 2),
        ];
        let mut sender = vec![Seen::Complete(WaitAny, 1); SENDS as usize];
        sender.push(Seen::Collective(CollSig::Barrier));
        for log in [&upper, &lower] {
            let log = log.lock().unwrap();
            assert_eq!(log[0], receiver, "one waist call per typed call, in order");
            assert_eq!(log[1], sender, "`send` is `isend` + `wait`");
        }
    }

    #[test]
    fn collective_names_are_pinned() {
        for (sig, name) in expected() {
            assert_eq!(sig.name(), name);
        }
    }

    #[test]
    fn out_of_range_root_is_rejected_before_the_rendezvous() {
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            let (w, root) = (Comm::WORLD, mpi.world_size());
            let bad = |err: MpiError| {
                assert!(
                    matches!(
                        err,
                        MpiError::InvalidRank {
                            rank: 3,
                            comm_size: 3
                        }
                    ),
                    "{err:?}"
                );
            };
            bad(mpi.bcast(w, root, None).unwrap_err());
            bad(mpi.reduce_u64(w, root, vec![1], ReduceOp::Sum).unwrap_err());
            bad(mpi
                .reduce_f64(w, root, vec![1.0], ReduceOp::Sum)
                .unwrap_err());
            bad(mpi.gather(w, root, bts(b"x")).unwrap_err());
            bad(mpi.scatter(w, root, None).unwrap_err());
            // No rank entered a rendezvous: the communicator is still usable.
            let sum = mpi.allreduce_u64(w, vec![1], ReduceOp::Sum)?;
            assert_eq!(sum, vec![3]);
            Ok(())
        });
        let out = run_native(&cfg(3), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn comm_management_stays_off_the_data_waist() {
        let prog = FnProgram(|mpi: &mut dyn Mpi| {
            for sig in [CollSig::CommDup, CollSig::CommSplit, CollSig::CommFree] {
                let err = mpi
                    .collective(Comm::WORLD, sig, Contribution::None)
                    .unwrap_err();
                assert!(matches!(err, MpiError::ToolProtocol { .. }), "{err:?}");
            }
            mpi.barrier(Comm::WORLD)
        });
        let out = run_native(&cfg(2), &prog);
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean());
    }
}
