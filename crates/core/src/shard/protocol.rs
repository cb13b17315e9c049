//! The supervisor ↔ worker wire protocol.
//!
//! Frames are length-prefixed and checksummed:
//!
//! ```text
//! [u32 len LE][u64 FNV-1a(payload) LE][len bytes of JSON payload]
//! ```
//!
//! JSON keeps the payload debuggable (`xxd` a captured stream and read
//! it); the checksum is what makes corruption a *detected* failure instead
//! of a parse error deep inside serde — the supervisor treats a bad frame
//! as a dead worker and re-dispatches, it never trusts partial bytes. The
//! length cap bounds allocation against a corrupted or adversarial length
//! word.
//!
//! Floating-point fields (makespans, virtual times) survive the JSON trip
//! bit-exactly: Rust's `Display` for `f64` emits the shortest
//! round-trippable decimal and parsing is correctly rounded, which is what
//! lets a sharded campaign promise *byte*-identical reports and journals.

use std::io::{self, Read, Write};

use dampi_mpi::program::RunOutcome;

use crate::decisions::DecisionSet;
use crate::epoch::{EpochRecord, ToolRunStats};
use crate::executor::AttemptReport;
use crate::scheduler::RunResult;

/// Protocol version, checked in the `Hello` handshake. Bumped on any
/// incompatible frame or message change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame's payload length (64 MiB). A legitimate subtree
/// result is orders of magnitude smaller; anything larger is corruption.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

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

/// FNV-1a over the payload — cheap, dependency-free, and plenty to catch
/// torn or bit-flipped frames (this is corruption *detection*, not
/// authentication; supervisor and workers share a trust domain).
#[must_use]
pub fn checksum(payload: &[u8]) -> u64 {
    dampi_mpi::fnv1a64(payload)
}

/// Write one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_frame_with_checksum(w, payload, checksum(payload))
}

/// Write one frame with an explicit checksum word — the fault-injection
/// hook behind [`dampi_mpi::fault::WorkerFaultKind::CorruptResult`].
pub fn write_frame_with_checksum<W: Write>(
    w: &mut W,
    payload: &[u8],
    checksum: u64,
) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::other(format!("frame payload of {} bytes", payload.len())))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&checksum.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean EOF *between* frames (the peer
/// closed); EOF mid-frame, an oversized length, or a checksum mismatch is
/// an error — the stream can no longer be trusted.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::other(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap (corrupt stream?)"
        )));
    }
    let mut sum_buf = [0u8; 8];
    r.read_exact(&mut sum_buf)?;
    let expect = u64::from_le_bytes(sum_buf);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let got = checksum(&payload);
    if got != expect {
        return Err(io::Error::other(format!(
            "frame checksum mismatch: header {expect:#018x}, payload {got:#018x}"
        )));
    }
    Ok(Some(payload))
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
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"subtree result bytes").unwrap();
        let flip = buf.len() - 3;
        buf[flip] ^= 0x40;
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn corrupt_checksum_word_is_detected() {
        let mut buf = Vec::new();
        write_frame_with_checksum(&mut buf, b"payload", 0xdead_beef).unwrap();
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"cut me off").unwrap();
        buf.truncate(buf.len() - 4);
        let mut r = &buf[..];
        assert!(
            read_frame(&mut r).is_err(),
            "mid-frame EOF must not be silent"
        );
    }

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
