//! Heap allocations, counted rather than timed, and pinned as literals.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` on the calling thread (a thread-local counter, so the tests of
//! this binary may run side by side). What is counted:
//!
//! * decoding one replay-cache entry of the np=7 `matmul_ack` campaign (the
//!   `matmul_ack_warm` benchmark's program), the cache hit's per-commit
//!   decode;
//! * a whole warm `matmul_ack` campaign at `--jobs 1`, every commit a cache
//!   hit, which runs on the calling thread alone.
//!
//! Both campaigns run on the cooperative scheduler, so every count repeats
//! exactly. A perf change to these paths claims its count delta here first.
//! `cargo test --offline --test alloc_census -- --nocapture` prints them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dampi::core::cache::plan_digest;
use dampi::core::frame::{self, LOG_HEAD_LEN};
use dampi::core::shard::protocol::SubtreeResult;
use dampi::core::{DampiVerifier, ReplayCache};
use dampi::mpi::{MatchPolicy, SimConfig};
use dampi::workloads::matmul::{Matmul, MatmulParams};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The entry a cache frame holds after its schedule digest (the cache's
/// own type is private; this one has its fields, in its order). Decoded
/// to be counted, never read.
#[derive(serde::Deserialize)]
#[allow(dead_code)]
struct CacheEntry {
    version: u32,
    program: u64,
    plan: u64,
    schedule: u64,
    result: SubtreeResult,
}

/// A fresh directory for this process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dampi-alloc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `matmul_ack_warm` program, np=7 (6 slaves × 1 task: 720
/// interleavings), on the cooperative scheduler.
fn matmul_ack() -> (Matmul, SimConfig) {
    let program = Matmul::new(MatmulParams {
        rounds_per_slave: 1,
        ack_results: true,
        ..MatmulParams::default()
    });
    let sim = SimConfig::new(7)
        .with_policy(MatchPolicy::LowestRank)
        .with_deterministic(true);
    (program, sim)
}

/// A verifier over the cache in `dir`, opened afresh.
fn cached(dir: &Path, sim: &SimConfig) -> DampiVerifier {
    let cache = ReplayCache::open(dir, 1, plan_digest(None), false).expect("open cache");
    DampiVerifier::new(sim.clone()).with_cache(Arc::new(cache))
}

/// The JSON of every entry in the one keyspace under `dir`.
fn entries(dir: &Path) -> Vec<String> {
    let keyspace = std::fs::read_dir(dir).unwrap().next().unwrap().unwrap();
    let log = File::open(keyspace.path().join("entries")).unwrap();
    let mut frames = Vec::new();
    frame::scan_log(&log, |f| frames.push(f)).unwrap();
    frames
        .iter()
        .map(|f| {
            let payload = frame::read_frame_at(&log, f.offset, f.len)
                .unwrap()
                .unwrap();
            String::from_utf8(payload[LOG_HEAD_LEN..].to_vec()).unwrap()
        })
        .collect()
}

#[test]
fn a_matmul_ack_cache_hit_decodes_in_few_allocations() {
    let dir = scratch("decode");
    let (program, sim) = matmul_ack();
    let cold = cached(&dir, &sim).verify(&program);
    assert_eq!(cold.interleavings, 720);
    let entries = entries(&dir);
    assert_eq!(entries.len(), 720);
    let counts: Vec<u64> = entries
        .iter()
        .map(|json| allocations(|| serde_json::from_str::<CacheEntry>(json).unwrap()).1)
        .collect();
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    eprintln!(
        "decode one entry: {} allocations ({} bytes of JSON); over all 720: {min}..={max}",
        counts[0],
        entries[0].len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    // Through a `Content` tree, the decode made 167.
    assert_eq!((*min, *max), (14, 14), "allocations to decode one entry");
}

#[test]
fn a_warm_matmul_ack_campaign_allocates_little_per_commit() {
    let dir = scratch("warm");
    let (program, sim) = matmul_ack();
    let cold = cached(&dir, &sim).verify(&program);
    let verifier = cached(&dir, &sim);
    let (warm, n) = allocations(|| verifier.verify(&program));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.to_json(), cold.to_json());
    let commits = warm.interleavings;
    eprintln!(
        "warm campaign: {n} allocations over {commits} commits, {:.1} per commit",
        n as f64 / commits as f64
    );
    assert_eq!(commits, 720);
    // With the decode through a `Content` tree: 127 937 (177.7 per commit);
    // with a sorted copy of each commit's epoch references: 17 777.
    assert_eq!(n, 17_058, "allocations in a warm campaign of 720 commits");
}
