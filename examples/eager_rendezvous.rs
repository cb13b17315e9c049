//! "Unsafe" MPI send patterns and the eager/rendezvous protocol switch.
//!
//! A program in which two ranks both `MPI_Send` before receiving is only
//! correct if the runtime buffers the messages (the eager protocol). Real
//! MPI implementations switch to a rendezvous protocol above an
//! eager-limit threshold — at which point the same program deadlocks on a
//! different cluster, a classic portability bug. The substrate models the
//! switch, and DAMPI reports the deadlock.
//!
//! Run with: `cargo run --example eager_rendezvous`

use dampi::core::verifier::DampiVerifier;
use dampi::mpi::envelope::codec;
use dampi::mpi::{run_native, AsyncFnProgram, Comm, Mpi, SimConfig};

fn head_to_head(
    words: usize,
) -> AsyncFnProgram<impl AsyncFn(&mut dyn Mpi) -> dampi::mpi::Result<()> + Send + Sync> {
    AsyncFnProgram(async move |mpi: &mut dyn Mpi| {
        let peer = (mpi.world_rank() ^ 1) as i32;
        // Both ranks send first — safe only with buffering.
        mpi.send(Comm::WORLD, peer, 0, codec::encode_u64s(&vec![7; words]))
            .await?;
        let _ = mpi.recv(Comm::WORLD, peer, 0).await?;
        Ok(())
    })
}

fn main() {
    println!("head-to-head sends of 1 KiB payloads:\n");

    // Development cluster: generous eager limit — everything buffered.
    let dev = SimConfig::new(2).with_eager_limit(Some(64 * 1024));
    let out = run_native(&dev, &head_to_head(128));
    println!(
        "  eager limit 64 KiB:  {}",
        if out.succeeded() {
            "completes (messages buffered)"
        } else {
            "deadlock"
        }
    );

    // Production cluster: small eager limit — the same program hangs.
    let prod = SimConfig::new(2).with_eager_limit(Some(512));
    let out = run_native(&prod, &head_to_head(128));
    println!(
        "  eager limit 512 B:   {}",
        if out.deadlocked() {
            "DEADLOCK (rendezvous: sends block)"
        } else {
            "completes"
        }
    );

    // And the verifier reports it with a diagnosis.
    let report = DampiVerifier::new(prod).verify(&head_to_head(128));
    println!("\nDAMPI on the production configuration:\n{report}");
    assert!(report.deadlocks() >= 1);
}
