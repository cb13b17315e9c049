//! The supervisor ↔ worker wire protocol.
//!
//! Each message is one [`crate::frame`] frame (`[len][fnv1a][payload]`,
//! re-exported here) whose payload is JSON. JSON keeps the payload
//! debuggable (`xxd` a captured stream and read it); the frame's checksum
//! turns corruption into a *detected* failure — the supervisor treats a bad
//! frame as a dead worker and re-dispatches, it never trusts partial bytes.
//!
//! Floating-point fields (makespans, virtual times) survive the JSON trip
//! bit-exactly: Rust's `Display` for `f64` emits the shortest
//! round-trippable decimal and parsing is correctly rounded, which is what
//! lets a sharded campaign promise *byte*-identical reports and journals.

use std::io::{self, Read, Write};

pub use crate::frame::{
    checksum, read_frame, write_frame, write_frame_with_checksum, MAX_FRAME_LEN,
};

use dampi_mpi::program::RunOutcome;

use crate::decisions::DecisionSet;
use crate::epoch::{EpochRecord, ToolRunStats};
use crate::executor::AttemptReport;
use crate::scheduler::RunResult;

/// Protocol version, checked in the `Hello` handshake. Bumped on any
/// incompatible frame or message change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Messages the supervisor sends to a worker.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum ToWorker {
    /// Replay one schedule and return its [`SubtreeResult`].
    Job {
        /// The schedule's signature (echoed back in the result so the
        /// supervisor can pair frames without re-hashing).
        sig: u64,
        /// The schedule to replay.
        decisions: DecisionSet,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

/// Messages a worker sends to the supervisor.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum FromWorker {
    /// First message on the wire: identity and compatibility check.
    Hello {
        /// [`PROTOCOL_VERSION`] the worker speaks.
        protocol: u32,
        /// Digest of the worker's verification config; must equal the
        /// supervisor's or results would silently diverge.
        config_digest: u64,
        /// Worker process id (the host's own pid for in-process test
        /// workers).
        pid: u32,
    },
    /// Liveness beacon, sent every heartbeat interval — including while a
    /// replay is executing (the beacon thread is independent), so a long
    /// replay is distinguishable from a dead process.
    Heartbeat {
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// A completed job.
    Result {
        /// Signature of the job this result answers.
        sig: u64,
        /// Everything the replay produced. Boxed so the enum's common
        /// variants (heartbeats) stay small on the channel.
        result: Box<SubtreeResult>,
    },
}

/// A replay's complete product, shipped back to the supervisor. Carries
/// the same information [`crate::scheduler`]'s in-process workers hand the
/// coordinator: the final attempt's result plus the cost of every attempt,
/// so the deterministic commit path absorbs identical numbers either way.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SubtreeResult {
    /// Runtime outcome of the final attempt.
    pub outcome: RunOutcome,
    /// Epoch log of the final attempt.
    pub epochs: Vec<EpochRecord>,
    /// Tool stats of the final attempt.
    pub stats: ToolRunStats,
    /// Simulated makespan of each attempt, first to last (summed into
    /// `total_virtual_time` in attempt order — bit-exact parity).
    pub attempt_makespans: Vec<f64>,
    /// Guided-lookup misses summed over all attempts.
    pub divergences: u64,
    /// Re-executions after a divergence.
    pub retries: u64,
}

impl SubtreeResult {
    /// Rebuild the `#[serde(skip)]` lookup indices of every decision set
    /// that crossed the wire.
    pub(crate) fn rebuild_indices(&mut self) {
        // EpochRecords carry no DecisionSet; nothing to rebuild today.
        // Kept as the single chokepoint should the result ever grow one.
    }
}

/// Serialize and frame one message.
pub fn send_msg<W: Write, T: serde::Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let json = serde_json::to_string(msg).map_err(io::Error::other)?;
    write_frame(w, json.as_bytes())
}

/// Read and decode one message; `Ok(None)` on clean EOF.
pub fn recv_msg<R: Read, T: serde::Deserialize>(r: &mut R) -> io::Result<Option<T>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload)
        .map_err(|e| io::Error::other(format!("frame payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(io::Error::other)
}

/// [`SubtreeResult`] → the driver's attempt report shape.
impl From<SubtreeResult> for AttemptReport {
    fn from(mut r: SubtreeResult) -> Self {
        r.rebuild_indices();
        Self {
            res: RunResult {
                outcome: r.outcome,
                epochs: r.epochs,
                stats: r.stats,
            },
            attempt_makespans: r.attempt_makespans,
            divergences: r.divergences,
            retries: r.retries,
        }
    }
}

impl From<AttemptReport> for SubtreeResult {
    fn from(rep: AttemptReport) -> Self {
        Self {
            outcome: rep.res.outcome,
            epochs: rep.res.epochs,
            stats: rep.res.stats,
            attempt_makespans: rep.attempt_makespans,
            divergences: rep.divergences,
            retries: rep.retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_roundtrip() {
        let mut buf = Vec::new();
        send_msg(
            &mut buf,
            &ToWorker::Job {
                sig: 42,
                decisions: DecisionSet::self_run(),
            },
        )
        .unwrap();
        send_msg(&mut buf, &ToWorker::Shutdown).unwrap();
        send_msg(
            &mut buf,
            &FromWorker::Hello {
                protocol: PROTOCOL_VERSION,
                config_digest: 7,
                pid: 123,
            },
        )
        .unwrap();
        let mut r = &buf[..];
        match recv_msg::<_, ToWorker>(&mut r).unwrap().unwrap() {
            ToWorker::Job { sig, decisions } => {
                assert_eq!(sig, 42);
                assert!(decisions.is_self_run());
            }
            other => panic!("expected Job, got {other:?}"),
        }
        assert!(matches!(
            recv_msg::<_, ToWorker>(&mut r).unwrap().unwrap(),
            ToWorker::Shutdown
        ));
        match recv_msg::<_, FromWorker>(&mut r).unwrap().unwrap() {
            FromWorker::Hello {
                protocol,
                config_digest,
                pid,
            } => {
                assert_eq!((protocol, config_digest, pid), (PROTOCOL_VERSION, 7, 123));
            }
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    #[test]
    fn makespans_cross_the_wire_bit_exactly() {
        // Awkward values: subnormal-ish, repeating binary fractions, big.
        let ms = [0.1, 1.0 / 3.0, 6.02e23, 5e-324, 1.2345678901234567];
        let res = SubtreeResult {
            outcome: RunOutcome {
                rank_errors: vec![None],
                leaks: dampi_mpi::LeakReport::default(),
                fatal: None,
                per_rank_vt: ms.to_vec(),
                wall_elapsed: std::time::Duration::from_micros(17),
                makespan: ms[2],
                census: Default::default(),
            },
            epochs: vec![],
            stats: ToolRunStats::default(),
            attempt_makespans: ms.to_vec(),
            divergences: 0,
            retries: 0,
        };
        let mut buf = Vec::new();
        send_msg(
            &mut buf,
            &FromWorker::Result {
                sig: 1,
                result: Box::new(res),
            },
        )
        .unwrap();
        let mut r = &buf[..];
        let FromWorker::Result { result, .. } = recv_msg::<_, FromWorker>(&mut r).unwrap().unwrap()
        else {
            panic!("expected Result");
        };
        for (a, b) in ms.iter().zip(&result.attempt_makespans) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} must survive the wire");
        }
        assert_eq!(result.outcome.makespan.to_bits(), ms[2].to_bits());
    }
}
