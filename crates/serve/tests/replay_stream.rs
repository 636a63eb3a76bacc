//! Journal replay streams its file, and the cache it fills holds
//! packed counters, not encodings: a server start that recovers a several-MiB
//! journal makes no heap allocation above a fixed bound, far below the
//! journal's size, recovers every record, and keeps a bounded number of
//! heap bytes per recovered entry.
//!
//! Replay reads the file one frame at a time through a fixed buffer
//! and folds each record into the cache, so what it holds is one
//! record plus the recovered state itself. A `#[global_allocator]`
//! notes the largest allocation any thread makes while the start runs,
//! and keeps the live heap bytes of every thread, so the heap the
//! start leaves behind — the stripes' LRUs and the journal writer's
//! state — is a count, not a timing. This file holds a single
//! `#[test]`, so no other test allocates in that window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

use oov_proto::frame_record;
use oov_serve::{journal, CacheLine, PersistOptions, ServeConfig, Server, SimResult};
use oov_stats::SimStats;

/// The largest single allocation the start may make: far below the
/// journal, above the recovered state's largest table.
const MAX_ALLOCATION: usize = 1 << 20;

/// The most heap bytes the start may leave live per recovered entry:
/// one LRU slot and its map entry, one journal-state entry, the result
/// they share, and a share of the server's fixed footprint. Keeping
/// each result as its counters packed into varints, about 40 bytes
/// for these records, retains 215 B per entry here, in debug and
/// release builds; the bound is that plus about 20%. Keeping the
/// counters as their 296-byte struct retained 471 B, and keeping the
/// encoded reply body, a shared `Arc<str>` of about 650 bytes,
/// retained 847–856 B.
const MAX_RETAINED_PER_ENTRY: isize = 260;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, noting the largest request made while armed
/// and the live heap bytes at all times.
struct Tracking;

fn note(size: usize) {
    LIVE.fetch_add(size as isize, Ordering::Relaxed);
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

fn release(size: usize) {
    LIVE.fetch_sub(size as isize, Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping neither allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        release(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oov_replay_{}_{name}", std::process::id()))
}

/// A simulated (uncached) result under a scattered key.
fn line(i: u64) -> CacheLine {
    CacheLine {
        key: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        machine_fp: i,
        result: SimResult {
            stats: SimStats {
                cycles: 1000 + i,
                committed: i,
                ..SimStats::new()
            },
            ideal_cycles: i / 2,
            faults_taken: 0,
            cached: false,
            shard: (i % 2) as usize,
        },
    }
}

/// Records in the journal the start replays.
const RECORDS: u64 = 8000;

#[test]
fn replay_streams_a_multi_mib_journal() {
    let path = tmp("state.wal");
    let snap = journal::snapshot_path(&path);
    let _ = std::fs::remove_file(&snap);
    let mut wal = Vec::new();
    for i in 0..RECORDS {
        frame_record(&journal::encode_record(&line(i)), &mut wal).expect("record fits a frame");
    }
    assert!(wal.len() > 4 << 20, "journal of only {} bytes", wal.len());
    std::fs::write(&path, &wal).expect("write journal");
    let journal_len = wal.len();
    drop(wal);

    let cfg = ServeConfig {
        persist: PersistOptions {
            journal: Some(path.clone()),
            journal_max_bytes: Some(1 << 40),
            ..PersistOptions::default()
        },
        ..ServeConfig::default()
    };
    LARGEST.store(0, Ordering::Relaxed);
    let live_before = LIVE.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let server = Server::start_cfg("127.0.0.1:0", 2, cfg).expect("start server");
    ARMED.store(false, Ordering::Relaxed);
    let largest = LARGEST.load(Ordering::Relaxed);
    let retained = LIVE.load(Ordering::Relaxed) - live_before;
    let recovered = server.snapshot().journal_recovered;
    server.stop();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&snap).ok();

    assert!(
        largest <= MAX_ALLOCATION,
        "replaying a {journal_len}-byte journal allocated {largest} bytes at once"
    );
    assert_eq!(recovered, RECORDS);
    let per_entry = retained / RECORDS as isize;
    println!("the start retained {retained} heap bytes, {per_entry} per recovered entry");
    assert!(
        per_entry <= MAX_RETAINED_PER_ENTRY,
        "the start retained {retained} heap bytes, {per_entry} per recovered entry"
    );
}
