//! Calibration spans: one layer's public function timed in isolation,
//! many times, so that the traced run can say what a call into that layer
//! costs without any timer inside the crates.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dampi_clocks::{ClockMode, ClockStamp, LamportClock, LogicalClock, VectorClock};
use dampi_core::epoch::{EpochRecord, NdKind};
use dampi_core::shard::protocol::{self, FromWorker, SubtreeResult};
use dampi_core::{late, pb, DampiVerifier, DecisionSet};
use dampi_isp::IspVerifier;
use dampi_mpi::envelope::Envelope;
use dampi_mpi::matching::MatchEngine;
use dampi_mpi::{run_native, Comm, FnProgram, MatchPolicy, Mpi, SimConfig, ANY_SOURCE, ANY_TAG};
use dampi_workloads::matmul::{Matmul, MatmulParams};

use crate::trace::Tracer;
use crate::workloads::Rep;

/// How many spans a calibration records.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Spans recorded whatever they cost.
    pub min_spans: usize,
    /// Spans after which there is nothing more to learn (p99 needs 1000).
    pub max_spans: usize,
    /// Once `min_spans` are in, stop when this much time has gone.
    pub budget: Duration,
}

impl Effort {
    /// 200 to 1000 spans within half a second.
    pub const FULL: Self = Self {
        min_spans: 200,
        max_spans: 1000,
        budget: Duration::from_millis(500),
    };
    /// A handful: smoke tests only need the code path.
    pub const QUICK: Self = Self {
        min_spans: 3,
        max_spans: 3,
        budget: Duration::ZERO,
    };
}

/// Record spans called `name`, each covering `calls` calls of `f`.
fn calibrate<R>(t: &Tracer, name: &str, calls: u64, effort: Effort, mut f: impl FnMut() -> R) {
    let start = Instant::now();
    for done in 0..effort.max_spans {
        if done >= effort.min_spans && start.elapsed() >= effort.budget {
            break;
        }
        t.span_of(name, None, calls, |_| {
            for _ in 0..calls {
                black_box(f());
            }
        });
    }
}

/// Run-level calibrations on the workload's own program and world: thread
/// spawn+join, a native run, the tool layer's fixed and per-run cost, and
/// one run under ISP.
pub fn run_level(t: &Tracer, rep: &Rep<'_>, effort: Effort) {
    let empty = FnProgram(|_: &mut dyn Mpi| Ok(()));
    let dampi = DampiVerifier::new(rep.sim.clone());
    let isp = IspVerifier::new(rep.sim.clone());
    let free = DecisionSet::self_run();
    // Spawn+join is the one run-level number with a reported tail, and an
    // empty run is cheap: always take the 1000 spans p99 needs.
    let thorough = Effort {
        min_spans: effort.max_spans,
        ..effort
    };
    calibrate(t, "mpi.runtime.spawn_join", 1, thorough, || {
        run_native(&rep.sim, &empty)
    });
    calibrate(t, "core.tool.init", 1, effort, || {
        dampi.instrumented_run(&empty, &free)
    });
    // A whole program run can take 30 ms (ParMETIS np=16): a median needs
    // fewer of those than a tail does.
    let few = Effort {
        min_spans: effort.min_spans.min(30),
        ..effort
    };
    calibrate(t, "mpi.runtime.native_run", 1, few, || {
        run_native(&rep.sim, rep.program)
    });
    calibrate(t, "core.tool.self_run", 1, few, || {
        dampi.instrumented_run(rep.program, &free)
    });
    calibrate(t, "isp.run", 1, few, || {
        isp.instrumented_run(rep.program, &free)
    });
}

fn open_epoch(clock: u64) -> EpochRecord {
    EpochRecord {
        rank: 0,
        clock,
        stamp: ClockStamp::Lamport(clock),
        comm: Comm::WORLD,
        tag_spec: ANY_TAG,
        kind: NdKind::Recv,
        in_region: false,
        guided: false,
        matched_src: None,
        alternates: BTreeSet::new(),
    }
}

/// Calls per span for functions that take tens of nanoseconds.
const BATCH: u64 = 1000;

/// Function-level calibrations that do not depend on the workload: match
/// engine, clocks, piggyback codec, late-message analysis, shard framing.
pub fn function_level(t: &Tracer, effort: Effort) {
    // 64 messages queued at rank 0; each call delivers one more and posts a
    // wildcard receive that takes the lowest-ranked one, so the queue stays
    // 64 deep.
    let envelope = |src: usize| Envelope {
        src,
        dst: 0,
        tag: 1,
        payload: Bytes::from_static(b"x"),
        arrival_seq: 0,
        send_vt: 0.0,
        send_req: None,
    };
    let mut engine = MatchEngine::new(65);
    for src in 1..=64 {
        engine.deliver(envelope(src));
    }
    let mut next = 0;
    calibrate(t, "mpi.matching.deliver_post", BATCH, effort, || {
        next = next % 64 + 1;
        engine.deliver(envelope(next));
        engine.post(0, 1, ANY_SOURCE, ANY_TAG, MatchPolicy::LowestRank)
    });

    let mut lamport = LamportClock::new(0, 256);
    let lamport_stamp = ClockStamp::Lamport(123);
    calibrate(t, "clocks.lamport_merge", BATCH, effort, || {
        lamport.tick();
        lamport.merge(&lamport_stamp);
        LamportClock::compare(&lamport_stamp, &lamport.stamp())
    });
    let mut vector = VectorClock::new(0, 256);
    let mut peer = VectorClock::new(1, 256);
    peer.tick();
    let vector_stamp = peer.stamp();
    calibrate(t, "clocks.vector_merge_n256", BATCH / 10, effort, || {
        vector.tick();
        vector.merge(&vector_stamp);
        VectorClock::compare(&vector_stamp, &vector.stamp())
    });

    let payload = Bytes::from(vec![0u8; 256]);
    let stamp = ClockStamp::Lamport(42);
    calibrate(t, "core.pb.pack_unpack", BATCH, effort, || {
        let (stamp, used) = pb::decode_stamp(&pb::encode_stamp(&stamp));
        (pb::unpack(&pb::pack(&stamp, &payload)), used)
    });
    let stamp = ClockStamp::Vector(vec![7; 256]);
    calibrate(t, "core.pb.pack_unpack_vec256", BATCH / 10, effort, || {
        let (stamp, used) = pb::decode_stamp(&pb::encode_stamp(&stamp));
        (pb::unpack(&pb::pack(&stamp, &payload)), used)
    });

    // Eight open wildcard epochs; the incoming stamp is late for all.
    let mut epochs: Vec<EpochRecord> = (10..18).map(open_epoch).collect();
    let incoming = ClockStamp::Lamport(3);
    let mut src = 0;
    calibrate(t, "core.late.analyze", BATCH, effort, || {
        src = (src + 1) % 4;
        late::analyze_incoming(
            &mut epochs,
            ClockMode::Lamport,
            &incoming,
            src,
            1,
            Comm::WORLD,
            None,
        )
    });

    // What a shard worker ships for one real replay, framed and read back.
    let sim = SimConfig::new(4).with_policy(MatchPolicy::LowestRank);
    let run = DampiVerifier::new(sim).instrumented_run(
        &Matmul::new(MatmulParams::default()),
        &DecisionSet::self_run(),
    );
    let message = FromWorker::Result {
        sig: 1,
        result: Box::new(SubtreeResult {
            attempt_makespans: vec![run.outcome.makespan],
            outcome: run.outcome,
            epochs: run.epochs,
            stats: run.stats,
            divergences: 0,
            retries: 0,
        }),
    };
    let mut wire = Vec::new();
    calibrate(t, "core.shard.frame_roundtrip", 1, effort, || {
        wire.clear();
        protocol::send_msg(&mut wire, &message).expect("writing to a Vec cannot fail");
        protocol::recv_msg::<_, FromWorker>(&mut wire.as_slice())
            .expect("the frame just written reads back")
    });
}
