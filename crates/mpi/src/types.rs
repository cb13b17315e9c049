//! Basic MPI-flavored scalar types and wildcard constants.

/// Message tag. Like MPI, tags are small non-negative integers; the wildcard
/// [`ANY_TAG`] is negative.
pub type Tag = i32;

/// Wildcard source rank: matches a message from any source
/// (`MPI_ANY_SOURCE`). Receives posted with this source are the
/// *non-deterministic* operations whose outcomes DAMPI enumerates.
pub const ANY_SOURCE: i32 = -1;

/// Wildcard tag (`MPI_ANY_TAG`): matches a message with any tag.
pub const ANY_TAG: i32 = -1;

/// True if `spec` (a source argument) accepts world/comm rank `actual`.
#[must_use]
pub fn source_matches(spec: i32, actual: usize) -> bool {
    spec == ANY_SOURCE || spec == actual as i32
}

/// True if `spec` (a tag argument) accepts message tag `actual`.
#[must_use]
pub fn tag_matches(spec: Tag, actual: Tag) -> bool {
    spec == ANY_TAG || spec == actual
}

/// 64-bit FNV-1a: the tree's one content digest. Payload digests in traces,
/// frame checksums, replay-cache keyspaces, shard `Hello` config digests
/// and protocol-spec digests are all this function, and all of them are
/// persisted or compared across processes — its output must never change.
#[must_use]
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_EMPTY, bytes)
}

/// [`fnv1a64`] of no bytes: where a digest taken in pieces starts.
pub const FNV1A64_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// The digest of a prefix, carried over `bytes` more: the digest of the two
/// together. For input that is streamed rather than held.
#[must_use]
#[inline]
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_digests_are_pinned() {
        // The published FNV-1a test vectors, then a config-digest-shaped
        // string (fields joined by U+001F, as `dampi-cli` hashes them).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"dampi\x1fracers\x1f4"), 0xbc54_c712_bfec_fede);
        assert_eq!(
            fnv1a64_extend(fnv1a64(b"foo"), b"bar"),
            fnv1a64(b"foobar"),
            "a digest taken in pieces is the digest of the whole"
        );
    }

    #[test]
    fn wildcard_source_matches_everything() {
        assert!(source_matches(ANY_SOURCE, 0));
        assert!(source_matches(ANY_SOURCE, 1023));
    }

    #[test]
    fn named_source_matches_only_itself() {
        assert!(source_matches(3, 3));
        assert!(!source_matches(3, 4));
    }

    #[test]
    fn tag_wildcards() {
        assert!(tag_matches(ANY_TAG, 0));
        assert!(tag_matches(ANY_TAG, 99));
        assert!(tag_matches(7, 7));
        assert!(!tag_matches(7, 8));
    }
}
