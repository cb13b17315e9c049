//! An empty `Bytes` built empty holds no storage (every send completion
//! hands one back), yet it must behave exactly like a non-empty buffer
//! sliced down to nothing: equality, hashing, deref, `Debug`, slicing.
//! The vendored `bytes` crate is not a workspace member, so its contract is
//! checked here, in the crate that moves every payload.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bytes::{Bytes, BytesMut};

fn hash(b: &Bytes) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

/// Every way the workspace builds an empty buffer.
fn empties() -> Vec<(&'static str, Bytes)> {
    vec![
        ("new", Bytes::new()),
        ("default", Bytes::default()),
        ("from_static", Bytes::from_static(b"")),
        ("from Vec", Bytes::from(Vec::new())),
        ("from String", Bytes::from(String::new())),
        ("copy_from_slice", Bytes::copy_from_slice(&[])),
        ("frozen BytesMut", BytesMut::new().freeze()),
        ("slice of new", Bytes::new().slice(..)),
        ("sliced to empty", Bytes::from_static(b"payload").slice(7..)),
    ]
}

#[test]
fn every_empty_buffer_behaves_like_a_non_empty_one_sliced_to_nothing() {
    let sliced = Bytes::from(vec![1, 2, 3]).slice(1..1);
    for (how, e) in empties() {
        assert_eq!(e, sliced, "{how}: eq");
        assert_eq!(e, &[][..], "{how}: eq a slice");
        assert_eq!(e, Vec::<u8>::new(), "{how}: eq a Vec");
        assert_eq!(hash(&e), hash(&sliced), "{how}: hash");
        assert_eq!(&e[..], &sliced[..], "{how}: deref");
        assert_eq!(e.as_ref(), &[] as &[u8], "{how}: as_ref");
        assert_eq!((e.len(), e.is_empty()), (0, true), "{how}: len");
        assert_eq!(format!("{e:?}"), format!("{sliced:?}"), "{how}: Debug");
        assert_eq!(format!("{e:?}"), "b\"\"", "{how}: Debug");
        assert_eq!(e.slice(0..0), sliced, "{how}: slice");
        assert_eq!(e.clone(), e, "{how}: clone");
        assert_ne!(e, Bytes::from_static(b"x"), "{how}: ne");
    }
}

#[test]
#[should_panic(expected = "slice out of bounds: 0..1 of 0")]
fn slicing_past_an_empty_buffer_panics() {
    let _ = Bytes::new().slice(0..1);
}
