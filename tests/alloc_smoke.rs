//! Allocation-count smoke check: the second and later replays of a
//! warm sweep iteration must be **seed-free and allocation-free**.
//!
//! Three counters back the assertion:
//!
//! - a counting `#[global_allocator]` (below) counts every heap
//!   allocation and reallocation this thread makes, in debug and
//!   release builds alike;
//! - [`oov::exec::page_allocations`] counts word-table growths in the
//!   functional layer (a cleared table keeps its capacity, so a warm
//!   replay counts none);
//! - [`oov::core::arena_constructions`] counts fresh simulator-storage
//!   builds (a warm [`SimArena`] recycle does not count).
//!
//! The last two are debug-only and read constant 0 in release builds,
//! where the allocator count alone carries the check.
//!
//! This file deliberately holds a single `#[test]`, and the allocator
//! counts per thread (a const-initialised thread-local with no
//! destructor, so it is safe to touch from inside the allocator):
//! neither the test harness's own threads nor another test can perturb
//! the count mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oov::core::{arena_constructions, OooSim, SimArena};
use oov::exec::{page_allocations, Machine};
use oov::isa::{CommitMode, LoadElimMode, OooConfig};
use oov::kernels::{Program, Scale};

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

/// Heap allocations (including reallocations) made by this thread so
/// far.
fn heap_allocations() -> u64 {
    HEAP_ALLOCS.with(Cell::get)
}

#[test]
fn warm_replay_allocates_nothing() {
    let prog = Program::Trfd.compile(Scale::Smoke);
    // Seed once: freezing the base image is the only seed work ever
    // performed for this program.
    let base = prog.base_image().clone();
    // The default machine; late commit with scalar and vector load
    // elimination (the stage-3 rename path); and the smallest vector
    // register file behind deep queues, which stalls rename.
    let grid = [
        OooConfig::default(),
        OooConfig::default()
            .with_commit(CommitMode::Late)
            .with_load_elim(LoadElimMode::SleVle),
        OooConfig::default()
            .with_phys_v_regs(9)
            .with_queue_slots(128),
    ];

    // A cold functional run faults the machine's written pages; its
    // first reset then moves them into the page pool, which is what
    // later runs fault from.
    let mut machine = Machine::from_base(&base);
    machine.run(&prog.trace);

    // Warm-up iteration, the same steps as the replay below: builds
    // the arena storage and grows the page pool, every queue and every
    // list to its steady state.
    let mut arena = SimArena::new();
    machine.reset_to_base(&base);
    let first = grid.map(|cfg| OooSim::new_in(cfg, &prog.trace, &mut arena).run_into(&mut arena));
    machine.run(&prog.trace);
    let warm_digest = machine.register_digest();

    // Second replay of the same sweep iteration: zero heap
    // allocations, zero seeding, zero page allocations, zero arena
    // constructions.
    let heap_before = heap_allocations();
    let pages_before = page_allocations();
    let arenas_before = arena_constructions();
    machine.reset_to_base(&base);
    let second = grid.map(|cfg| OooSim::new_in(cfg, &prog.trace, &mut arena).run_into(&mut arena));
    machine.run(&prog.trace);
    let heap = heap_allocations() - heap_before;
    assert_eq!(heap, 0, "warm replay made {heap} heap allocations");
    assert_eq!(
        page_allocations(),
        pages_before,
        "warm functional replay allocated pages"
    );
    assert_eq!(
        arena_constructions(),
        arenas_before,
        "warm simulator replay built fresh storage"
    );

    // And the warm replay is not just cheap but correct: identical
    // stats to the first iteration and to fresh construction, and the
    // machine reproduces its architectural state bit-for-bit.
    assert_eq!(machine.register_digest(), warm_digest);
    for ((cfg, a), b) in grid.iter().zip(&first).zip(&second) {
        assert_eq!(a.stats, b.stats, "replay diverged for {cfg:?}");
    }
    for (cfg, b) in grid.iter().zip(&second) {
        let fresh = OooSim::new(*cfg, &prog.trace).run();
        assert_eq!(
            fresh.stats, b.stats,
            "warm replay differs from fresh for {cfg:?}"
        );
    }
    assert!(
        second[2].stats.rename_stall_cycles > 0,
        "the small register file is meant to stall rename"
    );
}
