//! The paper's figure-sized example programs, plus failure-injection
//! programs used by the test suite.

use bytes::Bytes;
use dampi_mpi::envelope::codec;
use dampi_mpi::proc_api::user_assert;
use dampi_mpi::{Comm, FnProgram, Mpi, Result, ANY_SOURCE, ANY_TAG};

/// Paper Fig. 3: three processes; P1's wildcard receive can match P0
/// (value 22, fine) or P2 (value 33, triggers the application error).
/// A barrier separates the sends from the receive so the choice is purely
/// the runtime's — the bias DAMPI's replay overrides.
#[must_use]
pub fn fig3() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(22))?;
                mpi.barrier(Comm::WORLD)?;
            }
            2 => {
                mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(33))?;
                mpi.barrier(Comm::WORLD)?;
            }
            1 => {
                mpi.barrier(Comm::WORLD)?;
                let (_, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 22)?;
                let x = codec::decode_u64(&data);
                user_assert(x != 33, "x == 33")?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 22)?;
            }
            // Extra ranks in larger worlds only synchronize.
            _ => mpi.barrier(Comm::WORLD)?,
        }
        Ok(())
    })
}

/// Paper Fig. 4: the cross-coupled four-process pattern on which Lamport
/// clocks lose completeness (§II-F). P1 and P2 each post a wildcard
/// receive whose "natural" matches are P0 and P3; each then forwards to
/// the other, creating concurrent sends whose Lamport projections are
/// indistinguishable from causally-later ones.
#[must_use]
pub fn fig4_cross_coupled() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 0, Bytes::from_static(b"p0"))?;
            }
            1 => {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                mpi.send(Comm::WORLD, 2, 0, Bytes::from_static(b"p1"))?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
            }
            2 => {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                mpi.send(Comm::WORLD, 1, 0, Bytes::from_static(b"p2"))?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
            }
            3 => {
                mpi.send(Comm::WORLD, 2, 0, Bytes::from_static(b"p3"))?;
            }
            // Ranks beyond the four-process pattern sit out.
            _ => {}
        }
        Ok(())
    })
}

/// Two symmetric wildcard consumers (ranks 1 and 3) each receive two
/// messages, one from each producer (ranks 0 and 2). The producers finish
/// sending before a global barrier, so — like [`fig3`] — every wildcard's
/// candidate set is fixed and the exploration frontier is deterministic
/// under `MatchPolicy::LowestRank`. By symmetry the two consumers record
/// their epochs at *equal* Lamport clocks, so a guided replay that branches
/// on one consumer's epoch necessarily leaves the other consumer's
/// equal-clock epoch unprescribed: a deterministic prefix divergence of the
/// §II-F imprecision kind, on every replay of that branch.
#[must_use]
pub fn symmetric_racers() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 | 2 => {
                mpi.send(Comm::WORLD, 1, 7, Bytes::from_static(b"race"))?;
                mpi.send(Comm::WORLD, 3, 7, Bytes::from_static(b"race"))?;
                mpi.barrier(Comm::WORLD)?;
            }
            1 | 3 => {
                mpi.barrier(Comm::WORLD)?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 7)?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 7)?;
            }
            _ => mpi.barrier(Comm::WORLD)?,
        }
        Ok(())
    })
}

/// Paper Fig. 10 / §V: an `Irecv(*)` whose clock is transmitted (via a
/// barrier) before its `Wait`, making P2's post-barrier send an undetected
/// competitor. Crashes (application error) when that send wins.
#[must_use]
pub fn fig10_unsafe() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(22))?;
                mpi.barrier(Comm::WORLD)?;
            }
            1 => {
                let req = mpi.irecv(Comm::WORLD, ANY_SOURCE, 22)?;
                mpi.barrier(Comm::WORLD)?;
                let (_, data) = mpi.wait(req)?;
                let x = codec::decode_u64(&data);
                user_assert(x != 33, "x == 33 (fig10 crash)")?;
                // Drain whichever message lost the race.
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 22)?;
            }
            2 => {
                mpi.barrier(Comm::WORLD)?;
                mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(33))?;
            }
            _ => {
                mpi.barrier(Comm::WORLD)?;
            }
        }
        Ok(())
    })
}

/// A head-to-head deadlock: both ranks receive before sending.
#[must_use]
pub fn deadlock_head_to_head() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        let peer = (mpi.world_rank() ^ 1) as i32;
        if peer as usize >= mpi.world_size() {
            return Ok(());
        }
        let (_, _) = mpi.recv(Comm::WORLD, peer, 0)?;
        mpi.send(Comm::WORLD, peer, 0, Bytes::from_static(b"never"))?;
        Ok(())
    })
}

/// A schedule-dependent deadlock: the master mishandles the case where
/// the second worker's result arrives first (real-world bug shape: an
/// index keyed by arrival order instead of rank).
#[must_use]
pub fn deadlock_on_alternate_schedule(
) -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                let (st, _) = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                if st.source == 2 {
                    // Buggy path: waits for a second message from rank 2
                    // that never comes.
                    let _ = mpi.recv(Comm::WORLD, 2, 0)?;
                } else {
                    let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0)?;
                }
            }
            r @ (1 | 2) => {
                mpi.send(Comm::WORLD, 0, 0, codec::encode_u64(r as u64))?;
            }
            _ => {}
        }
        Ok(())
    })
}

/// Seeded bug for the static analyzer's L001 lint: rank 0 enters a
/// barrier while every other rank enters a broadcast. The runtime reports
/// this dynamically as a collective mismatch; the pre-replay lint pass
/// flags it from the free run's trace without spending a single replay.
#[must_use]
pub fn collective_mismatch() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            mpi.barrier(Comm::WORLD)?;
        } else if mpi.world_rank() == 1 {
            let _ = mpi.bcast(Comm::WORLD, 1, Some(Bytes::from_static(b"cfg")))?;
        } else {
            let _ = mpi.bcast(Comm::WORLD, 1, None)?;
        }
        Ok(())
    })
}

/// Seeded bug for the static analyzer's L002 lint: rank 0 posts a receive
/// for the message rank 1 sends, then abandons the request without ever
/// completing it. The named receive keeps the send/recv counts balanced,
/// so exactly the request-leak lint fires and nothing else.
#[must_use]
pub fn request_leak() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                let _abandoned = mpi.irecv(Comm::WORLD, 1, 5)?;
            }
            1 => mpi.send(Comm::WORLD, 0, 5, Bytes::from_static(b"orphaned"))?,
            _ => {}
        }
        Ok(())
    })
}

/// Leaks one duplicated communicator and one request per run (Table II's
/// C-leak and R-leak detectors).
#[must_use]
pub fn leaky_program() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        let _leaked_comm = mpi.comm_dup(Comm::WORLD)?;
        if mpi.world_rank() == 0 {
            let _leaked_req = mpi.irecv(Comm::WORLD, ANY_SOURCE, ANY_TAG)?;
        } else if mpi.world_rank() == 1 {
            mpi.send(Comm::WORLD, 0, 7, Bytes::from_static(b"leak-bait"))?;
        }
        Ok(())
    })
}

/// Seeded bug for the static analyzer's L005 lint: rank 0 posts a
/// wildcard receive for tag 9, but no rank ever sends tag 9 — the refined
/// match set is empty and the receive is stuck on *every* schedule. The
/// only traffic (rank 1's tag-8 send) goes to rank 2's named receive, so
/// the send/recv counts stay balanced and L003 stays quiet.
#[must_use]
pub fn stuck_wildcard() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 9)?;
            }
            1 => mpi.send(Comm::WORLD, 2, 8, Bytes::from_static(b"routine"))?,
            2 => {
                let _ = mpi.recv(Comm::WORLD, 1, 8)?;
            }
            _ => {}
        }
        Ok(())
    })
}

/// Conforming run of the committed `protocol_demo.protocol` spec: the
/// coordinator greets `left` (tag 10) then `right` (tag 11) and collects
/// one RESULT (tag 12) from each worker through wildcard receives. MPI-wise
/// the program is bug-free; it exists so the conformance checker has a
/// known-clean baseline next to the three seeded violations below.
#[must_use]
pub fn protocol_demo() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 10, Bytes::from_static(b"left"))?;
                mpi.send(Comm::WORLD, 2, 11, Bytes::from_static(b"right"))?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 12)?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 12)?;
            }
            1 => {
                let _ = mpi.recv(Comm::WORLD, 0, 10)?;
                mpi.send(Comm::WORLD, 0, 12, Bytes::from_static(b"from-left"))?;
            }
            2 => {
                let _ = mpi.recv(Comm::WORLD, 0, 11)?;
                mpi.send(Comm::WORLD, 0, 12, Bytes::from_static(b"from-right"))?;
            }
            _ => {}
        }
        Ok(())
    })
}

/// Seeded **L006** (protocol-order) violation against `protocol_demo`'s
/// spec: the coordinator greets `right` *before* `left`. Every message is
/// still delivered (the workers' named receives don't care about global
/// order), so the program runs clean — only the protocol walk objects.
#[must_use]
pub fn protocol_order_bug() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 2, 11, Bytes::from_static(b"right"))?;
                mpi.send(Comm::WORLD, 1, 10, Bytes::from_static(b"left"))?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 12)?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 12)?;
            }
            1 => {
                let _ = mpi.recv(Comm::WORLD, 0, 10)?;
                mpi.send(Comm::WORLD, 0, 12, Bytes::from_static(b"from-left"))?;
            }
            2 => {
                let _ = mpi.recv(Comm::WORLD, 0, 11)?;
                mpi.send(Comm::WORLD, 0, 12, Bytes::from_static(b"from-right"))?;
            }
            _ => {}
        }
        Ok(())
    })
}

/// Seeded **L007** (unexpected-peer) violation against `protocol_demo`'s
/// spec: the coordinator's greetings carry the right tags but swap the
/// recipients — tag 10 goes to `right` and tag 11 to `left`. The workers
/// post `ANY_TAG` receives so the run itself completes.
#[must_use]
pub fn protocol_peer_bug() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 2, 10, Bytes::from_static(b"misrouted"))?;
                mpi.send(Comm::WORLD, 1, 11, Bytes::from_static(b"misrouted"))?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 12)?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 12)?;
            }
            1 => {
                let _ = mpi.recv(Comm::WORLD, 0, ANY_TAG)?;
                mpi.send(Comm::WORLD, 0, 12, Bytes::from_static(b"from-left"))?;
            }
            2 => {
                let _ = mpi.recv(Comm::WORLD, 0, ANY_TAG)?;
                mpi.send(Comm::WORLD, 0, 12, Bytes::from_static(b"from-right"))?;
            }
            _ => {}
        }
        Ok(())
    })
}

/// Seeded **L008** (incomplete-protocol) violation against
/// `protocol_demo`'s spec: `right` never reports a RESULT and the
/// coordinator gives up after a single wildcard receive, finalising with
/// one mandatory protocol receive outstanding. Send/recv counts stay
/// balanced, so L002/L003 have nothing to say — only the session type
/// notices the early exit.
#[must_use]
pub fn protocol_short_bug() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 10, Bytes::from_static(b"left"))?;
                mpi.send(Comm::WORLD, 2, 11, Bytes::from_static(b"right"))?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 12)?;
            }
            1 => {
                let _ = mpi.recv(Comm::WORLD, 0, 10)?;
                mpi.send(Comm::WORLD, 0, 12, Bytes::from_static(b"from-left"))?;
            }
            2 => {
                let _ = mpi.recv(Comm::WORLD, 0, 11)?;
            }
            _ => {}
        }
        Ok(())
    })
}

/// Token-serialised two-stage funnel (companion spec:
/// `ordered_stages.protocol`). Stage 1 feeds the sink and only then passes
/// a token to stage 2, which feeds the sink in turn. The sink's wildcard
/// receives *look* racy to the clock-based alternate analysis (stage 2's
/// send is concurrent with the sink's first receive), but the protocol pins
/// each receive to exactly one sender — the committed demonstration that
/// `--prune-static --protocol` removes a replay PrunePlan v2 keeps.
#[must_use]
pub fn ordered_stages() -> FnProgram<impl Fn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    FnProgram(|mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 7)?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 7)?;
            }
            1 => {
                mpi.send(Comm::WORLD, 0, 7, Bytes::from_static(b"stage-one"))?;
                mpi.send(Comm::WORLD, 2, 8, Bytes::from_static(b"token"))?;
            }
            2 => {
                let _ = mpi.recv(Comm::WORLD, 1, 8)?;
                mpi.send(Comm::WORLD, 0, 7, Bytes::from_static(b"stage-two"))?;
            }
            _ => {}
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, MatchPolicy, SimConfig};

    #[test]
    fn fig3_native_biased_run_is_clean() {
        let out = run_native(
            &SimConfig::new(3).with_policy(MatchPolicy::LowestRank),
            &fig3(),
        );
        assert!(out.succeeded(), "bias masks the bug: {:?}", out.rank_errors);
    }

    #[test]
    fn fig4_native_run_completes() {
        let out = run_native(&SimConfig::new(4), &fig4_cross_coupled());
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn symmetric_racers_native_run_completes() {
        let out = run_native(
            &SimConfig::new(4).with_policy(MatchPolicy::LowestRank),
            &symmetric_racers(),
        );
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn fig10_native_biased_run_is_clean() {
        let out = run_native(
            &SimConfig::new(3).with_policy(MatchPolicy::LowestRank),
            &fig10_unsafe(),
        );
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn head_to_head_deadlocks() {
        let out = run_native(&SimConfig::new(2), &deadlock_head_to_head());
        assert!(out.deadlocked());
    }

    #[test]
    fn alternate_schedule_deadlock_hidden_natively_under_bias() {
        // Cooperative scheduler: the bias under test is the match policy's,
        // not whichever rank thread happens to reach the matcher first.
        let out = run_native(
            &SimConfig::new(3)
                .with_policy(MatchPolicy::LowestRank)
                .with_deterministic(true),
            &deadlock_on_alternate_schedule(),
        );
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn stuck_wildcard_deadlocks_on_every_schedule() {
        let out = run_native(&SimConfig::new(3), &stuck_wildcard());
        assert!(out.deadlocked());
    }

    #[test]
    fn protocol_demo_family_runs_clean_natively() {
        let cfg = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
        let out = run_native(&cfg, &protocol_demo());
        assert!(out.succeeded(), "demo: {:?}", out.rank_errors);
        let out = run_native(&cfg, &protocol_order_bug());
        assert!(out.succeeded(), "order bug: {:?}", out.rank_errors);
        let out = run_native(&cfg, &protocol_peer_bug());
        assert!(out.succeeded(), "peer bug: {:?}", out.rank_errors);
        let out = run_native(&cfg, &protocol_short_bug());
        assert!(out.succeeded(), "short bug: {:?}", out.rank_errors);
    }

    #[test]
    fn ordered_stages_native_run_completes() {
        let out = run_native(
            &SimConfig::new(3).with_policy(MatchPolicy::LowestRank),
            &ordered_stages(),
        );
        assert!(out.succeeded(), "{:?}", out.rank_errors);
    }

    #[test]
    fn leaky_program_leaks() {
        let out = run_native(&SimConfig::new(2), &leaky_program());
        assert!(out.succeeded());
        assert!(out.leaks.has_comm_leak());
        assert!(out.leaks.has_request_leak());
        assert!(out.rank_errors[0].is_none());
    }
}
