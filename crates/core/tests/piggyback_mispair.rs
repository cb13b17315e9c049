//! Regression test for the `PiggybackMechanism::SeparateMessage`
//! mispairing: interleaved wildcard + named receives on one
//! `(source, tag, comm)` stream used to pair a deferred piggyback with the
//! wrong payload, silently corrupting late-message analysis.
//!
//! The fixture (`crates/workloads/fixtures/fuzz/separate_message_mispair
//! .json`, mined and shrunk by `dampi-fuzz`) builds the smallest shape
//! that makes the corruption *observable*: rank 2 posts wildcard,
//! wildcard, named on one stream, so under the old eager posting the named
//! receive's piggyback irecv stole the stream's first stamp. The stamp it
//! should have merged differs by exactly one tick, which flips a
//! late-message comparison on rank 1 between `Before` (late → alternate
//! discovered) and `Equal` (not late). Payload packing pairs stamps by
//! construction, so the two mechanisms must agree exactly — any
//! difference is a tool bug, not clock imprecision.

use dampi_core::{ClockMode, DampiConfig, DampiVerifier, PiggybackMechanism};
use dampi_mpi::{MatchPolicy, SimConfig};
use dampi_workloads::generated::{fixtures, GenProgram};

fn verify(pb: PiggybackMechanism) -> dampi_core::VerificationReport {
    let spec = fixtures::separate_message_mispair();
    let sim = SimConfig::new(spec.nprocs).with_policy(MatchPolicy::LowestRank);
    let cfg = DampiConfig::default()
        .with_clock_mode(ClockMode::Lamport)
        .with_piggyback(pb)
        .with_max_interleavings(200);
    DampiVerifier::with_config(sim, cfg).verify(&GenProgram::new(spec))
}

#[test]
fn separate_message_agrees_with_payload_packing() {
    let sep = verify(PiggybackMechanism::SeparateMessage);
    let packed = verify(PiggybackMechanism::PayloadPacking);
    assert_eq!(
        sep.error_signature(),
        packed.error_signature(),
        "piggyback mechanisms disagree on the error set"
    );
    assert_eq!(
        sep.discovered, packed.discovered,
        "piggyback mechanisms disagree on discovered match sets"
    );
    assert_eq!(
        sep.interleavings, packed.interleavings,
        "piggyback mechanisms disagree on the number of interleavings"
    );
    // The fixture's whole point: the stolen stamp used to *hide* an
    // alternate. Pin the correct answer, not just the agreement.
    let alt: Vec<_> = packed
        .discovered
        .values()
        .filter(|srcs| srcs.len() > 1)
        .collect();
    assert_eq!(alt.len(), 1, "exactly one epoch has an alternate");
}

mod waitsome_out_of_posting_order {
    //! The same stream rule inside one call: `waitsome` hands back several
    //! receives at once, in the order of the caller's list, and the shadow
    //! stamps must still be consumed in posting order. A list in reverse
    //! posting order used to end in `InvalidRequest` under
    //! `SeparateMessage` (the stamp sequencing `test`ed a request the same
    //! `waitsome` had already consumed).

    use std::sync::Mutex;

    use bytes::Bytes;
    use dampi_core::{ClockMode, DampiConfig, DampiVerifier, DecisionSet, PiggybackMechanism};
    use dampi_mpi::{AsyncFnProgram, Comm, MatchPolicy, Mpi, SimConfig, Status, ANY_SOURCE};

    /// What rank 1 saw: each receive's status and payload in posting
    /// order, and its Lamport clock afterwards (the id of its next epoch).
    /// (Not virtual time: the runtime charges completions in list order.)
    type Seen = (Vec<(Status, Bytes)>, Vec<u64>);

    fn run(pb: PiggybackMechanism, reversed: bool) -> Seen {
        let got = Mutex::new(Vec::new());
        let prog = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
            let w = Comm::WORLD;
            match mpi.world_rank() {
                // Two wildcard receives tick rank 0's clock between its
                // sends, so the two stamps on the stream differ.
                0 => {
                    mpi.recv(w, ANY_SOURCE, 1).await?;
                    mpi.send(w, 1, 7, Bytes::from_static(b"first")).await?;
                    mpi.recv(w, ANY_SOURCE, 1).await?;
                    mpi.send(w, 1, 7, Bytes::from_static(b"second")).await?;
                    mpi.send(w, 1, 8, Bytes::new()).await?;
                }
                1 => {
                    let posted = [mpi.irecv(w, 0, 7)?, mpi.irecv(w, 0, 7)?];
                    let list = if reversed {
                        [posted[1], posted[0]]
                    } else {
                        posted
                    };
                    let mut done = mpi.waitsome(&list).await?;
                    assert_eq!(done.len(), 2, "both messages were queued");
                    if reversed {
                        done.reverse();
                    }
                    *got.lock().unwrap() = done.into_iter().map(|(_, s, d)| (s, d)).collect();
                    mpi.recv(w, ANY_SOURCE, 8).await?;
                }
                _ => {
                    mpi.send(w, 0, 1, Bytes::new()).await?;
                    mpi.send(w, 0, 1, Bytes::new()).await?;
                }
            }
            Ok(())
        });
        // The turn token runs rank 2, then 0, then 1: both messages are
        // queued before rank 1 posts its receives.
        let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);
        let cfg = DampiConfig::default()
            .with_clock_mode(ClockMode::Lamport)
            .with_piggyback(pb);
        let result =
            DampiVerifier::with_config(sim, cfg).instrumented_run(&prog, &DecisionSet::self_run());
        assert!(
            result.outcome.succeeded(),
            "{pb:?} reversed={reversed}: {:?}",
            result.outcome.rank_errors
        );
        let clocks = result
            .epochs
            .iter()
            .filter(|e| e.rank == 1)
            .map(|e| e.clock)
            .collect();
        let seen = got.lock().unwrap().clone();
        (seen, clocks)
    }

    #[test]
    fn reverse_list_equals_posting_order_list() {
        for pb in [
            PiggybackMechanism::SeparateMessage,
            PiggybackMechanism::PayloadPacking,
        ] {
            let in_order = run(pb, false);
            let payloads: Vec<&[u8]> = in_order.0.iter().map(|(_, d)| &d[..]).collect();
            assert_eq!(payloads, [&b"first"[..], b"second"], "{pb:?}");
            // Rank 1 merged both stamps: its clock is rank 0's after two ticks.
            assert_eq!(in_order.1, [2], "{pb:?}");
            assert_eq!(run(pb, true), in_order, "{pb:?}");
        }
    }
}
