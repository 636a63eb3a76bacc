//! Allocation gate of the typed request path: once its buffers are
//! warm, a cached `sim` round trip's codec work allocates nothing.
//!
//! These are the steps a hit costs outside the cache itself: the
//! client encodes its request into a reused line, the server decodes
//! the line, fingerprints the request, unpacks the stored counters
//! and writes the `result` reply from them, and the client decodes the
//! reply. None of them may build a `Json` tree or any other
//! heap value, which a counting `#[global_allocator]` checks in debug
//! and release builds alike. A count is deterministic, so unlike a
//! timing gate this one cannot flake.
//!
//! As in the root `tests/alloc_smoke.rs`, this file holds a single
//! `#[test]` and the allocator counts per thread (a const-initialised
//! thread-local with no destructor, safe to touch from inside the
//! allocator), so neither the harness's threads nor another test can
//! perturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use oov_isa::{CommitMode, MachineConfig, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_serve::{proto, Request, Response, SimRequest, SimResult};
use oov_stats::{SimStats, UnitState};

thread_local! {
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling
/// thread.
struct Counting;

fn count_one() {
    let _ = HEAP_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = HEAP_ALLOCS.with(Cell::get);
    let out = f();
    (HEAP_ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn a_warm_hit_round_trip_allocates_nothing() {
    // The default paper point, a late-commit point with a fault and a
    // deadline, and a reference machine: both machine encodings and
    // every optional field.
    let requests = [
        Request::Sim {
            req: SimRequest::ooo_default(Program::Trfd, Scale::Paper),
            deadline_ms: None,
        },
        Request::Sim {
            req: SimRequest {
                machine: MachineConfig::Ooo(OooConfig::default().with_commit(CommitMode::Late)),
                fault_at: Some(17),
                ..SimRequest::ooo_default(Program::Flo52, Scale::Smoke)
            },
            deadline_ms: Some(250),
        },
        Request::Sim {
            req: SimRequest {
                machine: MachineConfig::Ref(RefConfig::default()),
                ..SimRequest::ooo_default(Program::Tomcatv, Scale::Smoke)
            },
            deadline_ms: None,
        },
    ];
    let mut stats = SimStats {
        cycles: 123_456,
        committed: 99_999,
        mem_requests: 1_234,
        ..SimStats::new()
    };
    stats
        .breakdown
        .record(UnitState::new(true, false, true), 41);
    stats.stages.commit = 77;
    let served = SimResult {
        stats,
        ideal_cycles: 100_000,
        faults_taken: 1,
        cached: true,
        shard: 1,
    };
    // What the server's cache holds for that result: its packed
    // counters.
    let stored = proto::PackedRun::pack(&served.outcome());
    let result = Response::Result(served);
    let result_line = result.encode();

    // Warm the reused buffers: a line buffer as the client keeps one.
    let mut line = String::with_capacity(1024);
    for request in &requests {
        line.clear();
        request.encode_into(&mut line);
    }
    line.clear();
    result.encode_into(&mut line);

    for request in &requests {
        let Request::Sim { req, .. } = request else {
            unreachable!("sim requests only")
        };
        let (n, ()) = allocations(|| {
            line.clear();
            request.encode_into(&mut line);
        });
        assert_eq!(n, 0, "client encode allocated {n} times: {line}");
        assert_eq!(line, request.encode());

        let (n, decoded) = allocations(|| Request::decode(black_box(&line)));
        assert_eq!(n, 0, "server decode allocated {n} times: {line}");
        assert_eq!(decoded.as_ref(), Ok(request));

        let (n, fingerprint) = allocations(|| black_box(req).fingerprint());
        assert_eq!(n, 0, "fingerprint allocated {n} times");
        assert_eq!(
            fingerprint,
            oov_proto::fingerprint_bytes(req.to_json().encode().as_bytes())
        );
    }

    let (n, ()) = allocations(|| {
        line.clear();
        result.encode_into(&mut line);
    });
    assert_eq!(n, 0, "result encode allocated {n} times");
    assert_eq!(line, result_line);

    let (n, ()) = allocations(|| {
        line.clear();
        proto::write_reply(&mut line, None, true, 1, &black_box(&stored).unpack());
    });
    assert_eq!(n, 0, "server reply write allocated {n} times");
    assert_eq!(line, result_line);

    let (n, decoded) = allocations(|| Response::decode(black_box(&result_line)));
    assert_eq!(n, 0, "client result decode allocated {n} times");
    assert_eq!(decoded, Ok(result));
}
