//! Verification over derived communicators: DAMPI's shadow communicators
//! must track `comm_dup`/`comm_split` hierarchies, and ISP's central
//! bookkeeping must translate sub-communicator ranks correctly.

use dampi::core::{DampiConfig, DampiVerifier, DecisionSet, ToolStack};
use dampi::mpi::envelope::codec;
use dampi::mpi::proc_api::user_assert;
use dampi::mpi::{AsyncFnProgram, Comm, Mpi, Result, SimConfig, ANY_SOURCE};

/// Split the world by parity; the even group runs a master/worker exchange
/// with wildcard receives entirely inside the sub-communicator.
fn split_with_wildcards() -> AsyncFnProgram<impl AsyncFn(&mut dyn Mpi) -> Result<()> + Send + Sync>
{
    AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        let me = mpi.world_rank();
        let color = (me % 2) as i64;
        let sub = mpi
            .comm_split(Comm::WORLD, color, me as i64)
            .await?
            .expect("non-negative color");
        let sub_rank = mpi.comm_rank(sub)?;
        let sub_size = mpi.comm_size(sub)?;
        if color == 0 && sub_size > 1 {
            if sub_rank == 0 {
                let mut sum = 0u64;
                for _ in 1..sub_size {
                    let (_, data) = mpi.recv(sub, ANY_SOURCE, 1).await?;
                    sum += codec::decode_u64(&data);
                }
                // World ranks 2, 4, ... contribute their world rank.
                let expect: u64 = (1..sub_size as u64).map(|r| r * 2).sum();
                user_assert(sum == expect, format!("subcomm sum {sum} != {expect}"))?;
            } else {
                mpi.send(sub, 0, 1, codec::encode_u64(me as u64)).await?;
            }
        }
        mpi.barrier(Comm::WORLD).await?;
        mpi.comm_free(sub).await?;
        Ok(())
    })
}

#[test]
fn dampi_verifies_wildcards_inside_split_comms() {
    let report = DampiVerifier::new(SimConfig::new(6)).verify(&split_with_wildcards());
    assert!(report.errors.is_empty(), "{report}");
    assert_eq!(
        report.wildcards_analyzed, 2,
        "two wildcard receives in the even group"
    );
    assert!(
        report.interleavings >= 2,
        "both match orders explored: {report}"
    );
    assert!(
        report.leaks.is_clean(),
        "tool shadows must not leak: {:?}",
        report.leaks
    );
}

#[test]
fn isp_verifies_wildcards_inside_split_comms() {
    let isp = DampiConfig::default().with_tool(ToolStack::Isp);
    let report = DampiVerifier::with_config(SimConfig::new(6), isp).verify(&split_with_wildcards());
    assert!(report.errors.is_empty(), "{report}");
    assert!(report.interleavings >= 2, "{report}");
}

#[test]
fn nested_dups_with_wildcards() {
    // dup of a dup; wildcard traffic on the innermost communicator.
    let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        let d1 = mpi.comm_dup(Comm::WORLD).await?;
        let d2 = mpi.comm_dup(d1).await?;
        if mpi.world_rank() == 0 {
            for _ in 1..mpi.world_size() {
                let _ = mpi.recv(d2, ANY_SOURCE, 3).await?;
            }
        } else {
            mpi.send(d2, 0, 3, codec::encode_u64(1)).await?;
        }
        mpi.comm_free(d2).await?;
        mpi.comm_free(d1).await?;
        Ok(())
    });
    let report = DampiVerifier::new(SimConfig::new(3)).verify(&prog);
    assert!(report.errors.is_empty(), "{report}");
    assert_eq!(report.interleavings, 2, "{report}");
    assert!(report.leaks.is_clean(), "{:?}", report.leaks);
}

#[test]
fn traffic_on_different_comms_does_not_cross_match() {
    // Same (src, dst, tag) on two communicators: each receive must get its
    // own communicator's message, under verification too.
    let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        let dup = mpi.comm_dup(Comm::WORLD).await?;
        if mpi.world_rank() == 0 {
            mpi.send(Comm::WORLD, 1, 5, codec::encode_u64(111)).await?;
            mpi.send(dup, 1, 5, codec::encode_u64(222)).await?;
        } else if mpi.world_rank() == 1 {
            // Receive in the opposite order of the sends.
            let (_, on_dup) = mpi.recv(dup, ANY_SOURCE, 5).await?;
            let (_, on_world) = mpi.recv(Comm::WORLD, ANY_SOURCE, 5).await?;
            user_assert(codec::decode_u64(&on_dup) == 222, "dup got world traffic")?;
            user_assert(codec::decode_u64(&on_world) == 111, "world got dup traffic")?;
        }
        mpi.comm_free(dup).await?;
        Ok(())
    });
    let report = DampiVerifier::new(SimConfig::new(2)).verify(&prog);
    assert!(report.errors.is_empty(), "{report}");
}

#[test]
fn replay_forces_matches_inside_subcomm() {
    // Build an explicit decision forcing the second even-group sender
    // first, and check the guided run honors it (matched_src per epoch).
    let v = DampiVerifier::new(SimConfig::new(6));
    let first = v.instrumented_run(&split_with_wildcards(), &DecisionSet::self_run());
    assert!(first.outcome.succeeded(), "{:?}", first.outcome.fatal);
    let epoch = first
        .epochs
        .iter()
        .find(|e| e.matched_src.is_some())
        .expect("even-group wildcard epoch");
    // Force the other source at that epoch.
    let alt = *epoch
        .alternates
        .iter()
        .next()
        .expect("the other sender is a potential match");
    let ds = DecisionSet::guided(
        epoch.clock,
        vec![dampi::core::EpochDecision {
            rank: epoch.rank,
            clock: epoch.clock,
            src: alt,
        }],
    );
    let rerun = v.instrumented_run(&split_with_wildcards(), &ds);
    assert!(rerun.outcome.succeeded(), "{:?}", rerun.outcome.fatal);
    let forced = rerun
        .epochs
        .iter()
        .find(|e| e.rank == epoch.rank && e.clock == epoch.clock)
        .expect("same epoch exists in replay");
    assert_eq!(forced.matched_src, Some(alt), "the forced source must win");
    assert!(forced.guided);
}
