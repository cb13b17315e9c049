//! Quickstart: verify the paper's Fig. 3 program and reproduce its bug.
//!
//! Three processes: P0 and P2 both send to P1; P1 receives with
//! `MPI_ANY_SOURCE` and crashes if it gets P2's value. A biased native
//! runtime always delivers P0 first, so plain testing never sees the bug —
//! DAMPI's guided replay forces the alternate match and catches it.
//!
//! Run with: `cargo run --example quickstart`

use dampi::core::verifier::DampiVerifier;
use dampi::mpi::envelope::codec;
use dampi::mpi::proc_api::user_assert;
use dampi::mpi::{AsyncFnProgram, Comm, MatchPolicy, Mpi, SimConfig, ANY_SOURCE};

fn report_verifier() -> DampiVerifier {
    DampiVerifier::new(SimConfig::new(3).with_policy(MatchPolicy::LowestRank))
}

fn main() {
    let program = AsyncFnProgram(async |mpi: &mut dyn Mpi| {
        match mpi.world_rank() {
            0 => {
                mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(22)).await?;
                mpi.barrier(Comm::WORLD).await?;
            }
            2 => {
                mpi.send(Comm::WORLD, 1, 22, codec::encode_u64(33)).await?;
                mpi.barrier(Comm::WORLD).await?;
            }
            _ => {
                mpi.barrier(Comm::WORLD).await?;
                let (st, data) = mpi.recv(Comm::WORLD, ANY_SOURCE, 22).await?;
                let x = codec::decode_u64(&data);
                println!("  [P1] received x={x} from P{}", st.source);
                user_assert(x != 33, "x == 33")?;
                let _ = mpi.recv(Comm::WORLD, ANY_SOURCE, 22).await?;
            }
        }
        Ok(())
    });

    // A biased runtime (always lowest sender rank) masks the bug natively.
    let sim = SimConfig::new(3).with_policy(MatchPolicy::LowestRank);

    println!("1) plain native run (what ordinary testing sees):");
    let native = dampi::mpi::run_native(&sim, &program);
    println!(
        "   -> {}\n",
        if native.succeeded() {
            "clean. The bug is masked by the runtime's match bias."
        } else {
            "failed (unexpected on this runtime)"
        }
    );

    println!("2) DAMPI verification (covers the space of matches):");
    let report = DampiVerifier::new(sim).verify(&program);
    println!("{report}");

    for err in &report.errors {
        let (minimal, _) = report_verifier().minimize_error(&program, err);
        println!("minimized reproduction schedule for `{}`:", err.error);
        for d in &minimal.decisions {
            println!(
                "   at rank {} epoch clock {}: force source {}",
                d.rank, d.clock, d.src
            );
        }
    }
    assert!(!report.errors.is_empty(), "DAMPI must find the x==33 bug");
}
