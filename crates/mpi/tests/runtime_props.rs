//! Property-based robustness tests of the threaded runtime: randomly
//! shaped (but deadlock-free by construction) programs must always
//! complete, conserve messages, and never false-deadlock.

use std::sync::Arc;

use dampi_mpi::envelope::codec;
use dampi_mpi::{
    run_native, AsyncFnProgram, Comm, MatchPolicy, Mpi, Result, SimConfig, ANY_SOURCE,
};
use proptest::prelude::*;

/// A random traffic matrix: `matrix[i][j]` messages from rank i to rank j.
/// Each rank sends all its messages, then receives its exact in-degree via
/// wildcard receives — no receive can outnumber available messages, so the
/// program is deadlock-free under any schedule.
fn traffic_program(
    matrix: Arc<Vec<Vec<usize>>>,
) -> AsyncFnProgram<impl AsyncFn(&mut dyn Mpi) -> Result<()> + Send + Sync> {
    AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
        let me = mpi.world_rank();
        let n = mpi.world_size();
        for (dst, &count) in matrix[me].iter().enumerate() {
            for k in 0..count {
                mpi.send(
                    Comm::WORLD,
                    dst as i32,
                    0,
                    codec::encode_u64s(&[me as u64, k as u64]),
                )
                .await?;
            }
        }
        let in_degree: usize = (0..n).map(|src| matrix[src][me]).sum();
        let mut received = vec![0usize; n];
        for _ in 0..in_degree {
            let (st, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 0).await?;
            let vals = codec::decode_u64s(&data);
            assert_eq!(vals[0] as usize, st.source, "status/payload source agree");
            received[st.source] += 1;
        }
        // Conservation: exactly the advertised per-source counts arrived.
        for (src, &got) in received.iter().enumerate() {
            assert_eq!(got, matrix[src][me], "from {src}: got {got}");
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any traffic matrix completes without deadlock under every policy.
    #[test]
    fn random_traffic_always_completes(
        n in 2usize..6,
        seed_rows in prop::collection::vec(prop::collection::vec(0usize..3, 6), 6),
        policy_sel in 0usize..3,
    ) {
        let policy = [
            MatchPolicy::ArrivalOrder,
            MatchPolicy::LowestRank,
            MatchPolicy::Seeded(1234),
        ][policy_sel];
        let matrix: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).map(|j| seed_rows[i][j]).collect())
            .collect();
        let prog = traffic_program(Arc::new(matrix));
        let out = run_native(&SimConfig::new(n).with_policy(policy), &prog);
        prop_assert!(out.succeeded(), "{:?}", out.fatal);
        prop_assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    }

    /// The same programs complete under full DAMPI instrumentation, and the
    /// wildcard count equals the total message count.
    #[test]
    fn random_traffic_completes_under_dampi(
        n in 2usize..5,
        seed_rows in prop::collection::vec(prop::collection::vec(0usize..2, 5), 5),
    ) {
        use dampi_core::{DampiConfig, DampiVerifier, DecisionSet};
        let matrix: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).map(|j| seed_rows[i][j]).collect())
            .collect();
        let total: usize = matrix.iter().flatten().sum();
        let prog = traffic_program(Arc::new(matrix));
        let v = DampiVerifier::with_config(
            SimConfig::new(n),
            DampiConfig::default().with_max_interleavings(1),
        );
        let run = v.instrumented_run(&prog, &DecisionSet::self_run());
        prop_assert!(run.outcome.succeeded(), "{:?}", run.outcome.fatal);
        prop_assert_eq!(run.stats.wildcards as usize, total);
    }

    /// One receive more than was sent: always a deadlock, never a hang.
    #[test]
    fn missing_message_always_detected(n in 2usize..5, extra_at in 0usize..5) {
        let extra_at = extra_at % n;
        let prog = AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
            let me = mpi.world_rank();
            let n = mpi.world_size();
            // Ring: everyone sends one message right.
            mpi.send(Comm::WORLD, ((me + 1) % n) as i32, 0, codec::encode_u64(1)).await?;
            let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0).await?;
            if me == extra_at {
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 0).await?; // never satisfied
            }
            Ok(())
        });
        let out = run_native(&SimConfig::new(n), &prog);
        prop_assert!(out.deadlocked(), "{:?}", out.fatal);
    }
}
