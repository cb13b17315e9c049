//! Property-based end-to-end tests of the verifier on randomly shaped
//! (but confluent) master/worker programs running on the real threaded
//! runtime.

use dampi_core::{DampiConfig, DampiVerifier, MixingBound};
use dampi_mpi::envelope::codec;
use dampi_mpi::{AsyncFnProgram, Comm, Mpi, SimConfig, ANY_SOURCE};
use proptest::prelude::*;

/// A master that receives `msgs_per_slave * slaves` messages via wildcard
/// receives; each slave sends `msgs_per_slave` tagged messages. Confluent:
/// every schedule reaches the same final state.
fn master_slave(
    slaves: usize,
    msgs_per_slave: usize,
) -> AsyncFnProgram<impl AsyncFn(&mut dyn Mpi) -> dampi_mpi::Result<()> + Send + Sync> {
    AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
        if mpi.world_rank() == 0 {
            let mut total = 0u64;
            for _ in 0..slaves * msgs_per_slave {
                let (_, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 1).await?;
                total += codec::decode_u64(&data);
            }
            // Order-independent checksum: catches data corruption under
            // any explored schedule.
            let expect: u64 = (1..=slaves as u64).sum::<u64>() * msgs_per_slave as u64;
            dampi_mpi::proc_api::user_assert(
                total == expect,
                format!("checksum {total} != {expect}"),
            )?;
        } else {
            for _ in 0..msgs_per_slave {
                mpi.send(
                    Comm::WORLD,
                    0,
                    1,
                    codec::encode_u64(mpi.world_rank() as u64),
                )
                .await?;
            }
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Completeness on confluent programs: every epoch's discovered match
    /// set contains every slave that still had messages in flight. The
    /// first epoch in particular must see all slaves.
    #[test]
    fn first_epoch_sees_every_slave(
        slaves in 2usize..4,
        msgs in 1usize..3,
    ) {
        let cfg = DampiConfig::default()
            .with_bound(MixingBound::K(0))
            .with_max_interleavings(500);
        let report = DampiVerifier::with_config(SimConfig::new(slaves + 1), cfg)
            .verify(&master_slave(slaves, msgs));
        prop_assert!(report.errors.is_empty(), "{}", report);
        let first = report.discovered.iter().next().expect("epochs exist");
        prop_assert_eq!(
            first.1.len(),
            slaves,
            "first epoch must discover all {} slaves: {:?}",
            slaves,
            first.1
        );
    }

    /// Soundness: every run under every explored schedule passes the
    /// order-independent checksum — no schedule corrupts message routing.
    #[test]
    fn all_explored_schedules_preserve_data(
        slaves in 2usize..4,
        msgs in 1usize..3,
    ) {
        let cfg = DampiConfig::default().with_max_interleavings(300);
        let report = DampiVerifier::with_config(SimConfig::new(slaves + 1), cfg)
            .verify(&master_slave(slaves, msgs));
        prop_assert!(
            report.errors.is_empty(),
            "schedule corrupted routing: {}",
            report
        );
        prop_assert!(report.interleavings >= 2, "non-determinism was explored");
    }

    /// Bounded runs are always a prefix-cost of unbounded runs, on the
    /// real runtime too.
    #[test]
    fn bounds_monotone_on_real_runtime(slaves in 2usize..4) {
        let run = |bound| {
            let cfg = DampiConfig::default()
                .with_bound(bound)
                .with_max_interleavings(2000);
            DampiVerifier::with_config(SimConfig::new(slaves + 1), cfg)
                .verify(&master_slave(slaves, 1))
                .interleavings
        };
        let k0 = run(MixingBound::K(0));
        let k1 = run(MixingBound::K(1));
        let full = run(MixingBound::Unbounded);
        prop_assert!(k0 <= k1 && k1 <= full, "{} {} {}", k0, k1, full);
    }
}
