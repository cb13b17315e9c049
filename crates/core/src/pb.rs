//! Piggyback wire format (paper §II-D).
//!
//! Clock stamps travel either as **separate messages** on a shadow
//! communicator (DAMPI's choice) or **packed into the payload** (the
//! ablation reference). Both use the same stamp codec: a `u64`-word frame
//! `[mode, nwords, words...]` that is self-describing, so a receiver can
//! split a packed message without out-of-band length information.

use bytes::{BufMut, Bytes};
use dampi_clocks::{ClockMode, ClockStamp};

const MODE_LAMPORT: u64 = 0;
const MODE_VECTOR: u64 = 1;

/// Bytes of a Lamport frame: mode, word count, the clock.
const LAMPORT_FRAME: usize = 24;

/// Append a stamp's wire frame to `b`.
fn put_stamp(b: &mut impl BufMut, stamp: &ClockStamp) {
    let (mode, words): (u64, &[u64]) = match stamp {
        ClockStamp::Lamport(v) => (MODE_LAMPORT, std::slice::from_ref(v)),
        ClockStamp::Vector(v) => (MODE_VECTOR, v.as_slice()),
    };
    b.put_u64_le(mode);
    b.put_u64_le(words.len() as u64);
    for w in words {
        b.put_u64_le(*w);
    }
}

/// Encode a stamp into its wire frame. A Lamport frame is built on the
/// stack and copied into its one allocation.
#[must_use]
pub fn encode_stamp(stamp: &ClockStamp) -> Bytes {
    if let ClockStamp::Lamport(v) = stamp {
        let mut frame = [0u8; LAMPORT_FRAME];
        for (at, word) in frame.chunks_exact_mut(8).zip([MODE_LAMPORT, 1, *v]) {
            at.copy_from_slice(&word.to_le_bytes());
        }
        return Bytes::copy_from_slice(&frame);
    }
    let mut b = Vec::with_capacity(stamp_len(stamp));
    put_stamp(&mut b, stamp);
    Bytes::from(b)
}

/// Length of a stamp's wire frame.
fn stamp_len(stamp: &ClockStamp) -> usize {
    match stamp {
        ClockStamp::Lamport(_) => LAMPORT_FRAME,
        ClockStamp::Vector(v) => 16 + 8 * v.len(),
    }
}

/// Decode a stamp frame; returns the stamp and the number of bytes
/// consumed. Panics on malformed frames (tool-internal traffic only). A
/// Lamport frame decodes without allocating; a vector one into its `Vec`.
#[must_use]
pub fn decode_stamp(data: &[u8]) -> (ClockStamp, usize) {
    assert!(data.len() >= 16, "stamp frame too short");
    let word = |off: usize| u64::from_le_bytes(data[off..off + 8].try_into().expect("8 bytes"));
    let mode = word(0);
    let nwords = word(8);
    // `nwords` is untrusted wire data: a corrupt frame can carry a count
    // whose byte length overflows `usize`. Checked arithmetic keeps the
    // failure on the intended "truncated" diagnostic instead of a wrapped
    // bound (release) or an arithmetic-overflow panic (debug).
    let end = usize::try_from(nwords)
        .ok()
        .and_then(|n| n.checked_mul(8))
        .and_then(|bytes| bytes.checked_add(16));
    let end = match end {
        Some(end) if data.len() >= end => end,
        _ => panic!("stamp frame truncated"),
    };
    let n = usize::try_from(nwords).expect("bounded by frame length");
    let stamp = match mode {
        MODE_LAMPORT => {
            assert_eq!(n, 1, "Lamport stamp must be one word");
            ClockStamp::Lamport(word(16))
        }
        MODE_VECTOR => ClockStamp::Vector(
            data[16..end]
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
                .collect(),
        ),
        other => panic!("unknown stamp mode {other}"),
    };
    (stamp, end)
}

/// Payload packing: prepend the stamp frame to the application payload.
#[must_use]
pub fn pack(stamp: &ClockStamp, payload: &Bytes) -> Bytes {
    let mut b = Vec::with_capacity(stamp_len(stamp) + payload.len());
    put_stamp(&mut b, stamp);
    b.extend_from_slice(payload);
    Bytes::from(b)
}

/// Split a packed message back into (stamp, application payload).
#[must_use]
pub fn unpack(data: &Bytes) -> (ClockStamp, Bytes) {
    let (stamp, consumed) = decode_stamp(data);
    (stamp, data.slice(consumed..))
}

/// Number of extra wire bytes the chosen stamp costs per message — the
/// quantity whose growth with world size makes vector clocks non-scalable
/// (§II-C).
#[must_use]
pub fn stamp_wire_bytes(mode: ClockMode, nprocs: usize) -> usize {
    match mode {
        ClockMode::Lamport => 16 + 8,
        ClockMode::Vector => 16 + 8 * nprocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lamport_stamp_roundtrip() {
        let s = ClockStamp::Lamport(42);
        let enc = encode_stamp(&s);
        let (dec, used) = decode_stamp(&enc);
        assert_eq!(dec, s);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn vector_stamp_roundtrip() {
        let s = ClockStamp::Vector(vec![1, 0, 99, u64::MAX]);
        let (dec, _) = decode_stamp(&encode_stamp(&s));
        assert_eq!(dec, s);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let s = ClockStamp::Vector(vec![7, 8]);
        let payload = Bytes::from_static(b"application data");
        let packed = pack(&s, &payload);
        let (dec, rest) = unpack(&packed);
        assert_eq!(dec, s);
        assert_eq!(&rest[..], b"application data");
    }

    #[test]
    fn pack_empty_payload() {
        let s = ClockStamp::Lamport(0);
        let (dec, rest) = unpack(&pack(&s, &Bytes::new()));
        assert_eq!(dec, s);
        assert!(rest.is_empty());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn truncated_frame_panics() {
        let _ = decode_stamp(&[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "stamp frame truncated")]
    fn huge_nwords_is_truncated_not_overflow() {
        // nwords = u64::MAX: `16 + n * 8` wraps in release and overflows
        // in debug; either way the failure must be the codec's own
        // "truncated" verdict, not an arithmetic artifact.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MODE_VECTOR.to_le_bytes());
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 32]);
        let _ = decode_stamp(&frame);
    }

    #[test]
    #[should_panic(expected = "stamp frame truncated")]
    fn wrapping_nwords_is_truncated_not_index_panic() {
        // A count crafted so `16 + n * 8` wraps to a small value in
        // release builds: the old guard passed and the word loop then hit
        // an index panic. usize::MAX/8 + 1 makes n*8 wrap to 8 exactly.
        let n = (usize::MAX / 8 + 1) as u64;
        let mut frame = Vec::new();
        frame.extend_from_slice(&MODE_VECTOR.to_le_bytes());
        frame.extend_from_slice(&n.to_le_bytes());
        frame.extend_from_slice(&[0u8; 64]);
        let _ = decode_stamp(&frame);
    }

    #[test]
    fn wire_cost_scales_with_mode() {
        assert_eq!(stamp_wire_bytes(ClockMode::Lamport, 1024), 24);
        assert_eq!(stamp_wire_bytes(ClockMode::Vector, 1024), 16 + 8192);
    }
}
