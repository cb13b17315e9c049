//! Checksummed frames, and append-only logs of them.
//!
//! A frame is length-prefixed and checksummed:
//!
//! ```text
//! [u32 len LE][u64 FNV-1a(payload) LE][len bytes of payload]
//! ```
//!
//! The checksum is what makes corruption a *detected* failure instead of a
//! parse error deep inside serde: nothing downstream ever trusts partial
//! bytes. The length cap bounds allocation against a corrupted or
//! adversarial length word. The shard wire protocol
//! ([`crate::shard::protocol`]) sends one frame per message over a pipe; the
//! replay cache ([`crate::cache`]) keeps one file of them per keyspace.
//!
//! # Logs
//!
//! A log is a file of frames back to back, only ever appended to, each with
//! one `O_APPEND` `write` of the whole frame — appends from several handles,
//! in one process or many, never interleave. Nothing is fsynced and nothing
//! is rewritten, so a reader must expect two kinds of damage and tells them
//! apart by position alone:
//!
//! * a frame whose length word is plausible (within the cap, and that many
//!   bytes are there) but whose checksum fails is *damaged*: [`scan_log`]
//!   reports it as not intact and carries on at the next frame;
//! * bytes at the tail that do not make a frame — a short header, an
//!   impossible length, fewer payload bytes than promised — are a *torn
//!   write*: the frames end where they begin, which is what [`scan_log`]
//!   returns. Nothing can follow them (there is no way to find the next
//!   header), so a writer cuts them off before it appends.
//!
//! A frame is addressed by the offset of its header. Reading one back
//! ([`read_frame_at`]) checks its length word and checksum again: an offset
//! is a hint about where to look, never a reason to believe what is there.
//! Positional reads are the Unix `pread`; this module does not build
//! elsewhere.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, Write};
use std::os::unix::fs::FileExt;

use dampi_mpi::{fnv1a64_extend, FNV1A64_EMPTY};

/// Upper bound on a frame's payload length (64 MiB). A legitimate subtree
/// result is orders of magnitude smaller; anything larger is corruption.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Bytes of length word and checksum word before a frame's payload.
pub const FRAME_HEADER_LEN: usize = 12;

/// Leading payload bytes [`scan_log`] hands over with each frame: room for a
/// record's key, so an index can be built without keeping any payload.
pub const LOG_HEAD_LEN: usize = 8;

/// Buffer [`scan_log`] streams a log through, whatever the log's size.
const SCAN_BUF_LEN: usize = 64 << 10;

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

// ---- logs -----------------------------------------------------------------

/// Split a header into its length and checksum words.
fn split_header(header: &[u8; FRAME_HEADER_LEN]) -> (u32, u64) {
    let (len, sum) = header.split_at(4);
    (
        u32::from_le_bytes(len.try_into().expect("4 of 12 bytes")),
        u64::from_le_bytes(sum.try_into().expect("8 of 12 bytes")),
    )
}

/// One whole frame met by [`scan_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFrame {
    /// Offset of the frame's header in the log.
    pub offset: u64,
    /// Payload length.
    pub len: u32,
    /// The payload's first [`LOG_HEAD_LEN`] bytes (zeros past a shorter one).
    pub head: [u8; LOG_HEAD_LEN],
    /// Whether the payload matched its checksum word.
    pub intact: bool,
}

/// Read `log` once from its start, through a fixed-size buffer, checking
/// every frame and reporting each whole one to `each`. Returns the offset at
/// which whole frames end: the log's length, or the start of a torn tail.
pub fn scan_log<R: Read>(log: R, mut each: impl FnMut(LogFrame)) -> io::Result<u64> {
    let mut r = BufReader::with_capacity(SCAN_BUF_LEN, log);
    let mut offset = 0u64;
    loop {
        let mut header = [0u8; FRAME_HEADER_LEN];
        match r.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(offset),
            Err(e) => return Err(e),
        }
        let (len, expect) = split_header(&header);
        if len > MAX_FRAME_LEN {
            return Ok(offset);
        }
        let mut head = [0u8; LOG_HEAD_LEN];
        let mut seen = 0usize;
        let mut sum = FNV1A64_EMPTY;
        while seen < len as usize {
            let buf = match r.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok(offset);
            }
            let n = buf.len().min(len as usize - seen);
            if seen < LOG_HEAD_LEN {
                let k = n.min(LOG_HEAD_LEN - seen);
                head[seen..seen + k].copy_from_slice(&buf[..k]);
            }
            sum = fnv1a64_extend(sum, &buf[..n]);
            r.consume(n);
            seen += n;
        }
        each(LogFrame {
            offset,
            len,
            head,
            intact: sum == expect,
        });
        offset += FRAME_HEADER_LEN as u64 + u64::from(len);
    }
}

/// Append one already-framed record to a log opened in append mode, with a
/// single `write` of all its bytes, and return the offset it landed at —
/// asked of the file afterwards, since other handles may have appended since
/// this one last looked. Callers sharing one `File` must not run two of
/// these at once: the file's cursor is the answer.
pub fn append_frame(mut log: &File, frame: &[u8]) -> io::Result<u64> {
    log.write_all(frame)?;
    let end = log.stream_position()?;
    end.checked_sub(frame.len() as u64)
        .ok_or_else(|| io::Error::other("log is shorter than the frame just appended to it"))
}

/// Read back the frame of `len` payload bytes whose header is at `offset`,
/// with one positional read. `Ok(None)` when what is there is not that
/// frame — another length word, or a payload that fails its checksum;
/// `Err` when the bytes could not be read at all.
pub fn read_frame_at(log: &File, offset: u64, len: u32) -> io::Result<Option<Vec<u8>>> {
    let mut frame = vec![0u8; FRAME_HEADER_LEN + len as usize];
    log.read_exact_at(&mut frame, offset)?;
    let (header, payload) = frame.split_at(FRAME_HEADER_LEN);
    let (found_len, expect) = split_header(header.try_into().expect("header length"));
    if found_len != len || checksum(payload) != expect {
        return Ok(None);
    }
    frame.drain(..FRAME_HEADER_LEN);
    Ok(Some(frame))
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

    fn scan(log: &[u8]) -> (Vec<LogFrame>, u64) {
        let mut frames = Vec::new();
        let end = scan_log(log, |f| frames.push(f)).unwrap();
        (frames, end)
    }

    /// Three frames: shorter than a head, larger than the scan buffer (so its
    /// checksum is taken across refills), and an ordinary one.
    fn three_frames() -> (Vec<u8>, [Vec<u8>; 3]) {
        let payloads = [
            b"tiny".to_vec(),
            (0..SCAN_BUF_LEN * 2 + 17)
                .map(|i| (i % 251) as u8)
                .collect(),
            b"0123456789 ordinary".to_vec(),
        ];
        let mut log = Vec::new();
        for p in &payloads {
            write_frame(&mut log, p).unwrap();
        }
        (log, payloads)
    }

    #[test]
    fn scan_reports_every_frame_with_its_place_and_head() {
        let (log, payloads) = three_frames();
        let (frames, end) = scan(&log);
        assert_eq!(end, log.len() as u64, "no torn tail");
        assert_eq!(frames.len(), 3);
        let mut offset = 0;
        for (f, p) in frames.iter().zip(&payloads) {
            assert_eq!(
                (f.offset, f.len as usize, f.intact),
                (offset, p.len(), true)
            );
            let k = p.len().min(LOG_HEAD_LEN);
            assert_eq!(f.head[..k], p[..k]);
            assert!(f.head[k..].iter().all(|b| *b == 0));
            offset += (FRAME_HEADER_LEN + p.len()) as u64;
        }
        assert_eq!(scan(&[]), (vec![], 0), "an empty log is a log");
    }

    #[test]
    fn scan_skips_a_damaged_frame_and_stops_at_a_torn_tail() {
        let (log, _) = three_frames();
        let (clean, _) = scan(&log);

        // One flipped payload byte in the middle frame: that frame alone is
        // not intact; the one after it is still found where it was.
        let mut damaged = log.clone();
        damaged[clean[1].offset as usize + FRAME_HEADER_LEN + SCAN_BUF_LEN + 5] ^= 1;
        let (frames, end) = scan(&damaged);
        assert_eq!(end, log.len() as u64);
        assert_eq!(
            frames.iter().map(|f| f.intact).collect::<Vec<_>>(),
            [true, false, true]
        );
        assert_eq!(frames[2], clean[2]);

        // Cut anywhere inside the last frame: the first two are reported, the
        // frames end where the last one began.
        let last = clean[2].offset as usize;
        for cut in last..log.len() {
            let (frames, end) = scan(&log[..cut]);
            assert_eq!(end, last as u64, "cut at {cut}");
            assert_eq!(frames, clean[..2], "cut at {cut}");
        }

        // An impossible length word is a torn tail too, however much follows.
        let mut garbage = log.clone();
        garbage[last..last + 4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(scan(&garbage), (clean[..2].to_vec(), last as u64));
    }

    #[test]
    fn appended_frames_read_back_from_where_they_landed() {
        let path =
            std::env::temp_dir().join(format!("dampi-frame-log-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let open = || {
            File::options()
                .read(true)
                .append(true)
                .create(true)
                .open(&path)
                .unwrap()
        };
        // Two handles on one file, appending in turn.
        let (a, b) = (open(), open());
        let mut placed = Vec::new();
        for (i, log) in [&a, &b, &a, &b].into_iter().enumerate() {
            let payload = format!("payload number {i}").into_bytes();
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload).unwrap();
            placed.push((append_frame(log, &frame).unwrap(), payload));
        }
        let mut scanned = Vec::new();
        scan_log(File::open(&path).unwrap(), |f| scanned.push(f.offset)).unwrap();
        assert_eq!(
            scanned,
            placed.iter().map(|(at, _)| *at).collect::<Vec<_>>(),
            "every append landed whole, in order, where it said"
        );
        for (at, payload) in &placed {
            let len = payload.len() as u32;
            assert_eq!(
                read_frame_at(&a, *at, len).unwrap().as_deref(),
                Some(&payload[..])
            );
            assert_eq!(
                read_frame_at(&a, *at, len + 1).ok().flatten(),
                None,
                "a wrong length is not that frame"
            );
        }
        assert_eq!(read_frame_at(&a, placed[0].0 + 1, 5).unwrap(), None);
        assert!(
            read_frame_at(&a, 1 << 30, 5).is_err(),
            "past the end is a failed read"
        );
        let _ = std::fs::remove_file(&path);
    }
}
