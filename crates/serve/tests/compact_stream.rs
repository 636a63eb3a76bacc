//! Journal compaction streams its snapshot: compacting a state whose
//! snapshot is several MiB makes no heap allocation above a fixed
//! bound, and the snapshot holds exactly the key-sorted framing of
//! every record.
//!
//! The state comes from a journal file written here and replayed by a
//! server's startup; stopping the server compacts it. A
//! `#[global_allocator]` notes the largest allocation any thread makes
//! while the stop runs, since the compaction runs on the journal
//! writer's thread. This file holds a single `#[test]`, so no other
//! test allocates in that window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use oov_proto::frame_record;
use oov_serve::{journal, CacheLine, PersistOptions, ServeConfig, Server, SimResult};
use oov_stats::SimStats;

/// The largest single allocation the stop may make: far below the
/// snapshot, far above the compaction's 64 KiB framing buffer.
const MAX_ALLOCATION: usize = 1 << 20;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, noting the largest request made while armed.
struct Largest;

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping neither allocates nor unwinds.
unsafe impl GlobalAlloc for Largest {
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
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oov_compact_{}_{name}", std::process::id()))
}

/// A simulated (uncached) result under a scattered key, so the journal
/// order is not the key order.
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

/// Frames `lines` in order, as the journal and the snapshot frame them.
fn framed(lines: &[CacheLine]) -> Vec<u8> {
    let mut buf = Vec::new();
    for l in lines {
        frame_record(&journal::encode_record(l), &mut buf).expect("record fits a frame");
    }
    buf
}

#[test]
fn compaction_streams_a_multi_mib_snapshot() {
    let path = tmp("state.wal");
    let snap = journal::snapshot_path(&path);
    let _ = std::fs::remove_file(&snap);
    let mut lines: Vec<CacheLine> = (0..8000).map(line).collect();
    let wal = framed(&lines);
    assert!(wal.len() > 4 << 20, "state of only {} bytes", wal.len());
    std::fs::write(&path, &wal).expect("write journal");

    // The journal stays below its rotation threshold while the server
    // runs, so the stop's compaction is the only one.
    let cfg = ServeConfig {
        persist: PersistOptions {
            journal: Some(path.clone()),
            journal_max_bytes: Some(1 << 40),
            ..PersistOptions::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start_cfg("127.0.0.1:0", 2, cfg).expect("start server");
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    server.stop();
    ARMED.store(false, Ordering::Relaxed);
    let largest = LARGEST.load(Ordering::Relaxed);

    let snapshot = std::fs::read(&snap).expect("the stop wrote a snapshot");
    let journal_len = std::fs::metadata(&path).expect("journal").len();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&snap).ok();
    assert!(
        largest <= MAX_ALLOCATION,
        "compacting a {}-byte snapshot allocated {largest} bytes at once",
        snapshot.len()
    );
    lines.sort_by_key(|l| l.key);
    let expected = framed(&lines);
    assert_eq!(snapshot.len(), expected.len(), "snapshot size");
    assert!(
        snapshot == expected,
        "snapshot bytes differ from the key-sorted framing"
    );
    assert_eq!(journal_len, 0, "the compaction truncates the journal");
}
