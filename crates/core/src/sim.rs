//! The OOOVA engine: machine state, the cycle driver, and the shared
//! timing/wakeup infrastructure. The pipeline stages themselves live
//! in [`crate::stages`] — one module per stage — and the module docs
//! there carry the stage-graph diagram and the "how a cycle executes"
//! walkthrough.
//!
//! Pipeline per paper §2.2 (Figure 1/2): in-order fetch (with BTB +
//! return stack) and decode/rename, four issue queues (A, S, V, M), a
//! three-stage in-order memory pipeline (Issue/RF → Range → Dependence)
//! followed by out-of-order memory issue under range-based
//! disambiguation, a 64-entry reorder buffer committing up to 4
//! instructions per cycle, and early/late commit modes (§5).
//! Dynamic load elimination (§6) runs at the Dependence stage, where the
//! modified pipeline (Figure 10) also renames vector registers.
//!
//! # Simulation engines
//!
//! [`Stepper::Naive`] advances `now` one cycle at a time and re-runs
//! every pipeline stage each cycle — slow, but trivially correct, and
//! kept as the parity oracle.
//!
//! [`Stepper::EventDriven`] (the default) is the stage-graph engine.
//! It is **bit-for-bit identical** in every [`SimStats`] counter, via
//! four mechanisms (what removing each costs perfbench `grid` is in
//! [`crate::stages`]):
//!
//! 1. **Active-stage masking** (−37% without it). The expensive issue scans
//!    run only when their activity bit or wake time fires (see
//!    [`crate::stages::Scheduler`]); they sleep whenever a failed scan
//!    proves nothing can issue before a known time or a cross-stage
//!    edge.
//! 2. **Cycle skipping on cached per-stage wakes.** A cycle in which
//!    no stage mutates state is *dead*: because every stage is a
//!    deterministic function of (state, `now`) and every `now`
//!    comparison is against an enumerable set of future times, the
//!    machine provably re-enters the same dead cycle until the
//!    earliest such time. Masking already keeps that time per stage:
//!    a sleeping issue stage's cached wake is never later than a
//!    fresh scan of its queue, and the remaining candidates (the ROB
//!    head, the front end) are O(1) to read. So the skip target is a
//!    minimum over a handful of cached values — no event heap, no
//!    queue rescan. Per-cycle stall counters (rename/queue/ROB) are
//!    replayed arithmetically for the skipped span.
//! 3. **Indexed wakeup** (−13% without it; −4 to −5% without its
//!    timed edges). Each queue entry counts its not-yet-produced sources
//!    ([`RobEntry::waiting_srcs`]); a per-`(RegClass, PhysReg)` waiter
//!    index decrements the count when the producer's
//!    [`OooSim::set_avail`] fires, and the decrement to zero lowers
//!    exactly that entry's issue stage's wake to the entry's ready
//!    time ([`OooSim::merge_entry_wake`]). Issue scans skip entries
//!    with a non-zero count. (The naive oracle polls `sources_ready`
//!    without the index, so the parity grid validates the index
//!    itself rather than sharing its bugs.)
//! 4. **Memory issue wakes only when an access can issue.** Late commit
//!    lets a store issue only from the ROB head, so a commit that moves
//!    the head onto a store in `WaitDisamb` merges that store's ready
//!    time ([`OooSim::merge_entry_wake`]) instead of arming a scan.
//!    While the address bus is busy only a scalar-cache hit can issue,
//!    so with no scalar load waiting (`sloads_waiting`) an untraced
//!    scan sleeps until `bus.free_at()` without walking queue M. Both
//!    rules cut one paper-scale `grid` pass from 6.47M memory-issue
//!    fires and 58.1M queue-M entry visits to 3.33M scans, 1.79M O(1)
//!    sleeps and 16.4M visits.
//!
//! The reorder buffer is a power-of-two ring indexed by sequence
//! number, so every `rob.get(seq)` of the wakeup and issue paths is
//! one range check and a mask.
//!
//! The issue queues are plain program-ordered vectors. Every entry is
//! also a ROB entry, so removing an issued one from the middle shifts
//! at most `min(queue_slots, rob_entries)` sequence numbers.

use std::any::Any;
use std::collections::VecDeque;

use oov_isa::{CommitMode, Instruction, LoadElimMode, OooConfig, RegClass, Trace};
use oov_mem::{AddressBus, ScalarCache, TrafficCounter};
use oov_stats::{OccupancyTracker, SimStats, StallKind};

use crate::btb::{Btb, ReturnStack};
use crate::budget::{AbortReason, RunAborted, RunBudget};
use crate::probe::Probe;
use crate::rename::{PhysReg, RenameUnit};
use crate::rob::{Rob, RobEntry};
use crate::stages::{Scheduler, StageId};
use crate::tags::TagUnit;
use crate::trace::TraceSink;

/// Simulation-engine selection for [`OooSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stepper {
    /// Advance one cycle at a time, re-polling every structure each
    /// cycle. Slow, but trivially correct — kept as the parity oracle.
    /// The oracle deliberately ignores the wakeup index when scanning
    /// queues (it polls pure `sources_ready`), so the parity tests
    /// validate the index rather than sharing its bugs.
    Naive,
    /// The stage-graph engine: active-stage masking on progress
    /// cycles, dead-cycle skipping on the cached per-stage wakes and
    /// the indexed wakeup path. Produces bit-identical [`SimStats`] to
    /// [`Stepper::Naive`].
    #[default]
    EventDriven,
}

pub(crate) const FETCH_BUF_DEPTH: usize = 8;
/// Commits per watchdog window before declaring deadlock.
const WATCHDOG_CYCLES: u64 = 2_000_000;

pub(crate) fn class_ix(c: RegClass) -> usize {
    match c {
        RegClass::A => 0,
        RegClass::S => 1,
        RegClass::V => 2,
        RegClass::Mask => 3,
    }
}

/// Timing state of the physical register files.
#[derive(Debug, Default)]
pub(crate) struct RegTiming {
    /// Cycle the first element is readable by a chained consumer.
    avail_first: [Vec<u64>; 4],
    /// Cycle the last element is written.
    avail_last: [Vec<u64>; 4],
    /// Whether the producing instruction has issued (times valid).
    produced: [Vec<bool>; 4],
    /// Dedicated per-register read port (V class only).
    pub(crate) read_port_free: Vec<u64>,
}

impl RegTiming {
    /// Reinitialises for register-file sizes `n`, reusing storage
    /// where the sizes are unchanged (arena reuse).
    fn reset(&mut self, n: [usize; 4]) {
        let per_class = self
            .avail_first
            .iter_mut()
            .zip(&mut self.avail_last)
            .zip(&mut self.produced)
            .zip(n);
        for (((first, last), produced), len) in per_class {
            first.clear();
            first.resize(len, 0);
            last.clear();
            last.resize(len, 0);
            produced.clear();
            produced.resize(len, false);
            // The initial architectural mappings (phys 0..8) hold
            // valid data.
            for b in produced.iter_mut().take(8) {
                *b = true;
            }
        }
        self.read_port_free.clear();
        self.read_port_free.resize(n[2], 0);
    }

    fn set_avail(&mut self, class: RegClass, phys: PhysReg, first: u64, last: u64) {
        let ci = class_ix(class);
        self.avail_first[ci][phys as usize] = first;
        self.avail_last[ci][phys as usize] = last;
        self.produced[ci][phys as usize] = true;
    }

    pub(crate) fn clear(&mut self, class: RegClass, phys: PhysReg) {
        self.produced[class_ix(class)][phys as usize] = false;
    }

    pub(crate) fn is_produced(&self, class: RegClass, phys: PhysReg) -> bool {
        self.produced[class_ix(class)][phys as usize]
    }

    pub(crate) fn first(&self, class: RegClass, phys: PhysReg) -> u64 {
        self.avail_first[class_ix(class)][phys as usize]
    }

    pub(crate) fn last(&self, class: RegClass, phys: PhysReg) -> u64 {
        self.avail_last[class_ix(class)][phys as usize]
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Aggregate counters.
    pub stats: SimStats,
    /// The trace's IDEAL lower bound (paper §4.2).
    pub ideal_cycles: u64,
    /// Precise traps taken during the run (§5 fault injection).
    pub faults_taken: u64,
    /// The filled lifecycle trace, when the run's probe was a
    /// [`TraceSink`] ([`OooSim::with_trace`]).
    pub trace: Option<TraceSink>,
}

/// The out-of-order vector architecture simulator.
#[derive(Debug)]
pub struct OooSim<'t> {
    pub(crate) cfg: OooConfig,
    pub(crate) trace: &'t Trace,
    pub(crate) now: u64,
    /// The machine's structures: everything a run heap-allocates,
    /// recycled whole through a [`SimArena`].
    pub(crate) st: Storage,
    pub(crate) stepper: Stepper,
    /// Set by any stage that mutates machine state this cycle; a cycle
    /// that ends with this still `false` is dead and skippable.
    pub(crate) progressed: bool,
    /// Per-cycle word of [`StageId`] bits, set by
    /// [`OooSim::progress`]; folded into the per-stage counters at
    /// cycle close.
    pub(crate) progress_word: u16,
    /// Stage-activity scheduler (consulted by the event engine only;
    /// maintained cheaply in both).
    pub(crate) sched: Scheduler,
    /// Wake accumulator for the currently-running issue stage: the
    /// scan notes each rejected entry's exact ready time as it walks,
    /// so a failed fire yields the stage's `next_wake` without a
    /// second queue pass.
    pub(crate) scan_wake: u64,
    /// Per-stage progress-cycle counters, indexed by [`StageId`]
    /// discriminant; folded into `stats.stages` when the run ends.
    pub(crate) stage_cycle_counts: [u64; 9],
    /// The three memory-pipe stage registers (ROB sequence numbers).
    pub(crate) stage: [Option<u64>; 3],
    pub(crate) fetch_idx: usize,
    /// Trace index of the unresolved mispredicted control transfer.
    pub(crate) fetch_blocked: Option<usize>,
    /// Cycle at which fetch resumes after the blocking branch resolves.
    pub(crate) fetch_resume_at: Option<u64>,
    pub(crate) fu1_free: u64,
    pub(crate) fu2_free: u64,
    pub(crate) bus: AddressBus,
    /// Scalar loads in `WaitDisamb`: the only accesses that can issue
    /// while the address bus is busy (on a scalar-cache hit).
    pub(crate) sloads_waiting: u32,
    pub(crate) traffic: TrafficCounter,
    pub(crate) committed: u64,
    pub(crate) max_complete: u64,
    pub(crate) stats: SimStats,
    /// Inject a precise trap at this trace index (late commit only).
    pub(crate) fault_at: Option<usize>,
    pub(crate) faults_taken: u64,
    /// The optional observer of every pipeline event (per run: not
    /// part of the arena storage, so attaching one never perturbs
    /// warm-replay reuse).
    pub(crate) probe: Option<Box<dyn Probe>>,
    /// Optional cooperative run budget (cycle cap / deadline / cancel
    /// flag). `None` — the default — keeps the run loop on the
    /// exact pre-budget path; see [`crate::budget`].
    pub(crate) budget: Option<Box<RunBudget>>,
}

#[cfg(debug_assertions)]
static ARENA_ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide count of fresh simulator-storage constructions — every
/// [`OooSim::new`] and every [`OooSim::new_in`] whose arena was empty.
/// Replays through a warm [`SimArena`] do not count. Debug
/// instrumentation for the allocation-free replay assertion — always 0
/// in release builds.
#[must_use]
pub fn arena_constructions() -> u64 {
    #[cfg(debug_assertions)]
    {
        ARENA_ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// The allocation footprint of one [`OooSim`]: ROB storage, the four
/// issue queues, the wakeup index, the memory-pipe FIFO,
/// BTB/tag/rename/timing tables, occupancy intervals — everything a
/// run heap-allocates. ROB entries hold their source lists inline, so
/// once every container has grown to a run's peak, a replay of the
/// same configs allocates nothing.
///
/// There is one way to build it: [`Storage::reset`] takes any storage,
/// empty or recycled, to the exact start-of-run state for a config.
/// A fresh simulator is a reset of `Storage::default()`.
#[derive(Debug, Default)]
pub(crate) struct Storage {
    pub(crate) rename: RenameUnit,
    pub(crate) rob: Rob,
    pub(crate) timing: RegTiming,
    pub(crate) tags: TagUnit,
    /// Wakeup index: per `(class, phys)`, sequence numbers of queue
    /// entries waiting for that register to be produced. Each list
    /// keeps its storage once emptied; a recycled arena may hold more
    /// lists than the register file has (the surplus stays empty).
    pub(crate) waiters: [Vec<Vec<u64>>; 4],
    /// The four issue queues (paper §2.2): ROB sequence numbers in
    /// program order, at most `queue_slots` each. A scan walks front
    /// to back and an issue `remove`s its entry.
    pub(crate) q_a: Vec<u64>,
    pub(crate) q_s: Vec<u64>,
    pub(crate) q_v: Vec<u64>,
    pub(crate) q_m: Vec<u64>,
    /// Queue-M entries (sequence numbers, dispatch order) not yet
    /// pulled into the memory pipe. The pipe admits strictly in
    /// dispatch order, so the front of this FIFO *is* the oldest
    /// `MemStage::None` entry — an O(1) replacement for scanning
    /// queue M at every pull.
    pub(crate) pipe_pending: VecDeque<u64>,
    pub(crate) fetch_buf: VecDeque<usize>,
    pub(crate) btb: Btb,
    pub(crate) ras: ReturnStack,
    /// Deferred BTB updates applied at branch resolution.
    pub(crate) btb_updates: Vec<(u64, u64, bool, u64)>,
    pub(crate) occ: OccupancyTracker,
    pub(crate) cache: Option<ScalarCache>,
    /// Eliminated scalar loads waiting for their provider's value:
    /// `(class, dst_phys, provider_class, provider_phys, min_time)`.
    pub(crate) pending_copies: Vec<(RegClass, PhysReg, RegClass, PhysReg, u64)>,
}

impl Storage {
    /// Builds storage for `cfg` from nothing (counted by
    /// [`arena_constructions`]).
    fn fresh(cfg: &OooConfig) -> Storage {
        #[cfg(debug_assertions)]
        ARENA_ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut st = Storage::default();
        st.reset(cfg);
        st
    }

    /// Reinitialises storage to the start-of-run state for `cfg`,
    /// reusing every allocation whose geometry is unchanged (the
    /// warm-sweep case: same config point replayed — zero
    /// allocations; a changed config resizes only what moved).
    fn reset(&mut self, cfg: &OooConfig) {
        self.rename.reset_to(
            cfg.phys_a_regs,
            cfg.phys_s_regs,
            cfg.phys_v_regs,
            cfg.phys_mask_regs,
        );
        let n = RegClass::ALL.map(|c| self.rename.table(c).n_phys());
        self.timing.reset(n);
        self.tags.reset_to(n[0], n[1], n[2]);
        // Waiter lists only grow: a register file that shrank keeps its
        // surplus (empty) lists, so a larger one later reuses them.
        for (ws, &len) in self.waiters.iter_mut().zip(&n) {
            for w in ws.iter_mut() {
                w.clear();
            }
            if ws.len() < len {
                ws.resize_with(len, Vec::new);
            }
        }
        self.rob.reset(cfg.rob_entries);
        self.q_a.clear();
        self.q_s.clear();
        self.q_v.clear();
        self.q_m.clear();
        self.pipe_pending.clear();
        self.fetch_buf.clear();
        self.btb.reset(cfg.btb_entries);
        self.ras.reset(cfg.ras_depth);
        self.btb_updates.clear();
        self.occ.clear();
        self.pending_copies.clear();
        self.cache = match cfg.scalar_cache {
            None => None,
            Some(c) => match self.cache.take() {
                Some(mut old) if old.geometry() == (c.size_bytes, c.line_bytes) => {
                    old.reset();
                    Some(old)
                }
                _ => Some(ScalarCache::new(c.size_bytes, c.line_bytes)),
            },
        };
    }
}

/// A reusable simulation arena: one allocation footprint shared by
/// successive [`OooSim`] runs, so sweep iterations and serve shards
/// stop paying a full construct-and-drop per config point.
///
/// ```
/// use oov_core::{OooSim, SimArena};
/// use oov_isa::{OooConfig, Trace};
///
/// let trace = Trace::new("empty");
/// let mut arena = SimArena::new();
/// for _ in 0..3 {
///     // First iteration builds the storage; later ones recycle it.
///     let sim = OooSim::new_in(OooConfig::default(), &trace, &mut arena);
///     let _stats = sim.run_into(&mut arena);
/// }
/// ```
///
/// The arena is engine-agnostic (the naive oracle and the stage-graph
/// engine run through the same storage). Fresh and recycled storage
/// go through the same reset — a fresh build is a reset of empty
/// storage — and the parity grid asserts bit-identical [`SimStats`]
/// between arena runs and fresh ones. A reset keeps and only ever
/// grows each container (a scalar cache of another geometry is the one
/// thing built anew), so after one pass over a set of configs a second
/// pass makes no heap allocation at all (`tests/alloc_smoke.rs` counts
/// them with a counting global allocator). [`arena_constructions`]
/// counts the fresh builds.
#[derive(Debug, Default)]
pub struct SimArena {
    storage: Option<Storage>,
}

impl SimArena {
    /// An empty arena: the first [`OooSim::new_in`] builds storage,
    /// every later one recycles it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recycled storage (reset for `cfg`) or builds fresh.
    /// Unboxed on purpose: the struct is a few hundred bytes of
    /// handles, so moving it in and out of the arena costs two plain
    /// memcpys per iteration — no heap traffic at all.
    fn prepare(&mut self, cfg: &OooConfig) -> Storage {
        match self.storage.take() {
            Some(mut st) => {
                st.reset(cfg);
                st
            }
            None => Storage::fresh(cfg),
        }
    }
}

impl<'t> OooSim<'t> {
    /// Builds a simulator for one run over `trace`.
    ///
    /// # Panics
    ///
    /// Panics with [`OooConfig::validate`]'s message if `cfg` breaks a
    /// bound.
    #[must_use]
    pub fn new(cfg: OooConfig, trace: &'t Trace) -> Self {
        Self::new_in(cfg, trace, &mut SimArena::new())
    }

    /// As [`OooSim::new`], but reusing `arena`'s allocation footprint
    /// (building it on the arena's first use). Pair with
    /// [`OooSim::run_into`] to hand the storage back for the next
    /// iteration.
    ///
    /// # Panics
    ///
    /// Panics with [`OooConfig::validate`]'s message if `cfg` breaks a
    /// bound.
    #[must_use]
    pub fn new_in(cfg: OooConfig, trace: &'t Trace, arena: &mut SimArena) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let storage = arena.prepare(&cfg);
        Self::assemble(cfg, trace, storage)
    }

    /// Wraps reset storage `st` with fresh per-run scalars.
    fn assemble(cfg: OooConfig, trace: &'t Trace, st: Storage) -> Self {
        OooSim {
            cfg,
            trace,
            now: 0,
            st,
            stepper: Stepper::default(),
            progressed: false,
            progress_word: 0,
            sched: Scheduler::new(),
            scan_wake: u64::MAX,
            stage_cycle_counts: [0; 9],
            stage: [None; 3],
            fetch_idx: 0,
            fetch_blocked: None,
            fetch_resume_at: None,
            fu1_free: 0,
            fu2_free: 0,
            bus: AddressBus::new(),
            sloads_waiting: 0,
            traffic: TrafficCounter::new(),
            committed: 0,
            max_complete: 0,
            stats: SimStats::new(),
            fault_at: None,
            faults_taken: 0,
            probe: None,
            budget: None,
        }
    }

    /// Selects the simulation engine (builder style). The default is
    /// [`Stepper::EventDriven`]; [`Stepper::Naive`] is the one-cycle-at-
    /// a-time oracle used by the parity tests.
    #[must_use]
    pub fn with_stepper(mut self, stepper: Stepper) -> Self {
        self.stepper = stepper;
        self
    }

    /// Attaches `probe` as the run's observer: it receives every
    /// pipeline event (see [`Probe`]) and cannot change the result.
    #[must_use]
    pub fn with_probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Attaches a pipeline lifecycle trace sink as the run's probe:
    /// per-instruction stage timestamps and stall attribution, returned
    /// (filled) in [`RunResult::trace`]. It records every instruction,
    /// so only use it on runs you intend to inspect.
    #[must_use]
    pub fn with_trace(self, sink: TraceSink) -> Self {
        self.with_probe(Box::new(sink))
    }

    /// Injects a precise trap: when the instruction at `trace_idx` first
    /// reaches the commit point, the pipeline squashes back to it and
    /// re-executes — exercising the paper's §5 recovery mechanism.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration uses late commit (precise traps
    /// require it).
    #[must_use]
    pub fn with_fault_at(mut self, trace_idx: usize) -> Self {
        assert!(
            self.cfg.commit == CommitMode::Late,
            "precise traps require the late-commit model"
        );
        self.fault_at = Some(trace_idx);
        self
    }

    /// Attaches a cooperative [`RunBudget`]. Runs with a budget should
    /// use [`OooSim::try_run`] / [`OooSim::try_run_into`]; the
    /// infallible `run` variants panic if a limit fires. An
    /// all-`None` budget is dropped here, keeping the run loop on the
    /// exact unbudgeted path.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = if budget.is_unlimited() {
            None
        } else {
            Some(Box::new(budget))
        };
        self
    }

    /// Runs to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if a [`RunBudget`] attached with [`OooSim::with_budget`]
    /// fires — use [`OooSim::try_run`] for budgeted runs.
    #[must_use]
    pub fn run(mut self) -> RunResult {
        self.run_inner()
            .unwrap_or_else(|a| panic!("unhandled budget abort: {a} (use try_run)"))
    }

    /// Runs to completion, then returns the simulator's allocation
    /// footprint to `arena` so the next [`OooSim::new_in`] reuses it —
    /// the warm-sweep path: one storage build per arena lifetime, zero
    /// per-iteration allocation thereafter.
    ///
    /// # Panics
    ///
    /// As [`OooSim::run`], panics on a budget abort — use
    /// [`OooSim::try_run_into`] for budgeted runs.
    #[must_use]
    pub fn run_into(mut self, arena: &mut SimArena) -> RunResult {
        let result = self.run_inner();
        arena.storage = Some(self.st);
        result.unwrap_or_else(|a| panic!("unhandled budget abort: {a} (use try_run_into)"))
    }

    /// As [`OooSim::run`], but a fired [`RunBudget`] limit surfaces as
    /// `Err(RunAborted)` instead of panicking.
    pub fn try_run(mut self) -> Result<RunResult, RunAborted> {
        self.run_inner()
    }

    /// As [`OooSim::run_into`], but budget-abortable. The storage goes
    /// back to `arena` **even when the run aborts** — mid-run state is
    /// safe to recycle because [`SimArena`] fully reinitialises it on
    /// the next use — so cancelled jobs cost the serve shards no
    /// allocations either.
    pub fn try_run_into(mut self, arena: &mut SimArena) -> Result<RunResult, RunAborted> {
        let result = self.run_inner();
        arena.storage = Some(self.st);
        result
    }

    /// Amortised budget poll — see [`crate::budget`] for the policy.
    /// `tick` is the countdown to the next expensive (wall-clock /
    /// cancel-flag) poll.
    #[inline]
    fn budget_exceeded(&self, tick: &mut u32) -> Option<AbortReason> {
        let b = self.budget.as_deref()?;
        if let Some(cap) = b.max_cycles {
            if self.now >= cap {
                return Some(AbortReason::CycleCapExceeded);
            }
        }
        *tick += 1;
        if *tick >= crate::budget::BUDGET_CHECK_INTERVAL {
            *tick = 0;
            if let Some(flag) = &b.cancel {
                if flag.load(std::sync::atomic::Ordering::Relaxed) {
                    return Some(AbortReason::Cancelled);
                }
            }
            if let Some(deadline) = b.deadline {
                if std::time::Instant::now() >= deadline {
                    return Some(AbortReason::DeadlineExpired);
                }
            }
        }
        None
    }

    #[cold]
    fn aborted(&self, reason: AbortReason) -> RunAborted {
        RunAborted {
            reason,
            committed: self.committed,
            cycles: self.now,
        }
    }

    fn run_inner(&mut self) -> Result<RunResult, RunAborted> {
        let total = self.trace.len() as u64;
        let mut last_commit_cycle = 0;
        let mut last_committed = 0;
        // Budget bookkeeping; it stays untouched (and the poll is one
        // never-taken branch) when no budget is attached. `tick`
        // starts saturated so an already-expired deadline or
        // already-set cancel flag aborts on the very first step.
        let mut budget_tick: u32 = crate::budget::BUDGET_CHECK_INTERVAL;
        let masked = self.stepper == Stepper::EventDriven;
        while self.committed < total {
            if self.budget.is_some() {
                if let Some(reason) = self.budget_exceeded(&mut budget_tick) {
                    return Err(self.aborted(reason));
                }
            }
            self.progressed = false;
            let stalls_before = (
                self.stats.rename_stall_cycles,
                self.stats.queue_stall_cycles,
                self.stats.rob_stall_cycles,
            );
            self.walk(masked);
            self.close_cycle();
            if !masked || self.progressed {
                self.now += 1;
            } else if let Some(t) = self.next_event_cached() {
                // Dead cycle: no stage mutated state, so cycles
                // `now+1..t` replay it exactly (every `now` comparison
                // in every stage flips no earlier than `t`). Stall
                // counters are the only per-cycle effect; replay them.
                debug_assert!(t > self.now);
                let skipped = t - self.now - 1;
                let d_rename = self.stats.rename_stall_cycles - stalls_before.0;
                let d_queue = self.stats.queue_stall_cycles - stalls_before.1;
                let d_rob = self.stats.rob_stall_cycles - stalls_before.2;
                self.stats.rename_stall_cycles += skipped * d_rename;
                self.stats.queue_stall_cycles += skipped * d_queue;
                self.stats.rob_stall_cycles += skipped * d_rob;
                self.now = t;
                // A skip can jump the clock arbitrarily far, so force
                // the next poll to include the expensive checks — this
                // is the "cheap check at cycle-skip boundaries" the
                // budget promises.
                if self.budget.is_some() {
                    budget_tick = crate::budget::BUDGET_CHECK_INTERVAL;
                }
            } else {
                panic!(
                    "OOOVA deadlock at cycle {}: no future event, committed {}/{}, rob len {}, head {:?}",
                    self.now,
                    self.committed,
                    total,
                    self.st.rob.len(),
                    self.st.rob.head().map(|e| (e.trace_idx, e.op, e.state, e.mem_stage))
                );
            }
            if self.committed != last_committed {
                last_committed = self.committed;
                last_commit_cycle = self.now;
            } else if self.now - last_commit_cycle > WATCHDOG_CYCLES {
                panic!(
                    "OOOVA deadlock at cycle {}: committed {}/{}, rob len {}, head {:?}",
                    self.now,
                    self.committed,
                    total,
                    self.st.rob.len(),
                    self.st
                        .rob
                        .head()
                        .map(|e| (e.trace_idx, e.op, e.state, e.mem_stage))
                );
            }
        }
        let cycles = self.now.max(self.max_complete + 1);
        let [writeback, commit, mem_pipe, issue_mem, issue_v, issue_a, issue_s, dispatch, fetch] =
            self.stage_cycle_counts;
        self.stats.stages = oov_stats::StageCycles {
            fetch,
            dispatch,
            issue_a,
            issue_s,
            issue_v,
            issue_mem,
            mem_pipe,
            writeback,
            commit,
        };
        self.stats.cycles = cycles;
        self.stats.committed = self.committed;
        self.stats.addr_bus_busy_cycles = self.bus.busy_cycles();
        self.stats.mem_requests = self.traffic.total();
        self.stats.load_requests = self.traffic.loads();
        self.stats.store_requests = self.traffic.stores();
        self.stats.spill_requests = self.traffic.spill_loads() + self.traffic.spill_stores();
        self.stats.breakdown = self.st.occ.take_breakdown(cycles);
        let trace = self.probe.take().and_then(|p| {
            let mut sink = (p as Box<dyn Any>).downcast::<TraceSink>().ok()?;
            sink.close(&self.stats);
            Some(*sink)
        });
        Ok(RunResult {
            stats: self.stats,
            ideal_cycles: self.trace.ideal_cycles(),
            faults_taken: self.faults_taken,
            trace,
        })
    }

    // ----- cycle drivers ----------------------------------------------

    /// One cycle's stage walk, downstream first. Every stage runs
    /// except, when `masked` (the stage-graph engine), the issue scans
    /// whose activity bit is clear and whose wake has not come.
    fn walk(&mut self, masked: bool) {
        self.apply_btb_updates();
        self.resolve_pending_copies();
        self.commit();
        self.advance_mem_pipe();
        self.run_issue_stage(StageId::IssueMem, masked);
        self.run_issue_stage(StageId::IssueVector, masked);
        self.run_issue_stage(StageId::IssueA, masked);
        self.run_issue_stage(StageId::IssueS, masked);
        self.dispatch();
        self.fetch();
    }

    /// Runs one issue stage (unless `masked` and it does not fire),
    /// then records the outcome: progress keeps it active; failure
    /// puts it to sleep until the wake the scan accumulated on the way
    /// (each rejected entry notes its exact ready time via
    /// [`OooSim::note_scan_wake`]), so a failed fire costs no second
    /// queue pass.
    fn run_issue_stage(&mut self, stage: StageId, masked: bool) {
        if masked && !self.sched.fires(stage, self.now) {
            return;
        }
        self.scan_wake = u64::MAX;
        match stage {
            StageId::IssueMem => self.issue_mem(),
            StageId::IssueVector => self.issue_vector(),
            StageId::IssueA => self.issue_scalar_queue(true),
            StageId::IssueS => self.issue_scalar_queue(false),
            _ => unreachable!("not a masked stage"),
        }
        let progressed = self.progress_word & stage.bit() != 0;
        let wake = if progressed { u64::MAX } else { self.scan_wake };
        self.sched.ran(stage, progressed, wake);
    }

    /// Notes a rejected entry's ready time into the running issue
    /// stage's wake accumulator. Times that have already passed carry
    /// no information (the rejection was a state condition, covered by
    /// edges) and are dropped.
    pub(crate) fn note_scan_wake(&mut self, t: u64) {
        if t > self.now && t < self.scan_wake {
            self.scan_wake = t;
        }
    }

    /// Reports to the probe that an issue scan rejected entry `seq`
    /// for `kind`.
    pub(crate) fn wait(&mut self, seq: u64, kind: StallKind) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.wait(seq, kind);
        }
    }

    /// Marks `stage` as having mutated machine state this cycle.
    pub(crate) fn progress(&mut self, stage: StageId) {
        self.progressed = true;
        self.progress_word |= stage.bit();
    }

    /// Folds the cycle's progress word into the per-stage counters
    /// (an index-addressed array here; named [`oov_stats::StageCycles`]
    /// fields at the end of the run).
    fn close_cycle(&mut self) {
        let mut w = self.progress_word;
        if w == 0 {
            return;
        }
        self.progress_word = 0;
        self.stats.progress_cycles += 1;
        while w != 0 {
            self.stage_cycle_counts[w.trailing_zeros() as usize] += 1;
            w &= w - 1;
        }
    }

    // ----- helpers ----------------------------------------------------

    pub(crate) fn elim_on(&self) -> bool {
        self.cfg.load_elim != LoadElimMode::Off
    }

    pub(crate) fn vle_on(&self) -> bool {
        matches!(
            self.cfg.load_elim,
            LoadElimMode::SleVle | LoadElimMode::SleVleSse
        )
    }

    pub(crate) fn sse_on(&self) -> bool {
        self.cfg.load_elim == LoadElimMode::SleVleSse
    }

    /// Does this instruction pass through the memory pipe?
    pub(crate) fn uses_mem_pipe(&self, inst: &Instruction) -> bool {
        if inst.op.is_mem() {
            return true;
        }
        // VLE pipeline: every instruction touching a vector register.
        self.vle_on() && self.touches_vector(inst)
    }

    fn touches_vector(&self, inst: &Instruction) -> bool {
        inst.op.is_vector()
            || inst.dst.map(|d| d.is_vector()).unwrap_or(false)
            || inst.sources().any(|s| s.is_vector())
    }

    /// Earliest cycle a source operand can feed this consumer, or `None`
    /// if its producer has not issued yet.
    pub(crate) fn src_ready_time(
        &self,
        class: RegClass,
        phys: PhysReg,
        chained: bool,
    ) -> Option<u64> {
        if !self.st.timing.is_produced(class, phys) {
            return None;
        }
        let t = if chained && !class.is_scalar() {
            self.st.timing.first(class, phys) + 1
        } else {
            self.st.timing.last(class, phys)
        };
        Some(t)
    }

    /// Readiness of all sources of an entry for vector-rate consumption.
    pub(crate) fn sources_ready(&self, e: &RobEntry, chained: bool) -> bool {
        for &(class, phys) in &e.srcs {
            match self.src_ready_time(class, phys, chained && !class.is_scalar()) {
                Some(t) if t <= self.now => {
                    // Vector reads also need the dedicated read port.
                    if class == RegClass::V
                        && chained
                        && self.st.timing.read_port_free[phys as usize] > self.now
                    {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// Marks a register produced and wakes every queue entry waiting on
    /// it (decrementing its outstanding-source count). All production
    /// sites go through here so the wakeup index stays exact.
    ///
    /// Scheduler edge: an entry whose outstanding-source count hits
    /// zero re-arms its queue's issue stage.
    pub(crate) fn set_avail(&mut self, class: RegClass, phys: PhysReg, first: u64, last: u64) {
        self.st.timing.set_avail(class, phys, first, last);
        let (ix, slot) = (class_ix(class), phys as usize);
        let mut woken = std::mem::take(&mut self.st.waiters[ix][slot]);
        // Squashed entries resolve to `None`; sequence numbers are
        // never reused, so a stale wake is simply dropped.
        woken.retain(|&seq| {
            self.st
                .rob
                .get_mut(seq)
                .map(|e| {
                    e.waiting_srcs = e.waiting_srcs.saturating_sub(1);
                    e.waiting_srcs == 0
                })
                .unwrap_or(false)
        });
        for &seq in &woken {
            self.merge_entry_wake(seq);
        }
        // Hand the emptied list back so the register's next waiter
        // reuses its storage.
        woken.clear();
        self.st.waiters[ix][slot] = woken;
    }

    /// Counts the entry's not-yet-produced sources and registers it in
    /// the wakeup index. Call once, after `srcs` is final (dispatch, or
    /// stage 3 for the VLE late-rename path). An entry dispatched with
    /// every source already produced arms its queue's issue stage.
    pub(crate) fn register_waits(&mut self, seq: u64) {
        let Some(e) = self.st.rob.get(seq) else {
            return;
        };
        let srcs = e.srcs;
        let mut waiting = 0u16;
        for &(class, phys) in &srcs {
            if !self.st.timing.is_produced(class, phys) {
                waiting += 1;
                self.st.waiters[class_ix(class)][phys as usize].push(seq);
            }
        }
        if let Some(e) = self.st.rob.get_mut(seq) {
            e.waiting_srcs = waiting;
        }
        if waiting == 0 {
            self.merge_entry_wake(seq);
        }
    }

    /// The timed half of a wakeup edge: computes the exact earliest
    /// cycle at which `seq` could pass its issue stage's time-based
    /// checks ([`OooSim::entry_ready_time`]) and lowers
    /// that stage's wake to it — instead of arming the stage for an
    /// immediate scan that would mostly fail. `u64::MAX` (an
    /// outstanding source, a pre-`WaitDisamb` memory entry) merges
    /// nothing: a later edge covers those.
    pub(crate) fn merge_entry_wake(&mut self, seq: u64) {
        let Some(e) = self.st.rob.get(seq) else {
            return;
        };
        let stage = match e.qkind {
            crate::rob::QueueKind::A => StageId::IssueA,
            crate::rob::QueueKind::S => StageId::IssueS,
            crate::rob::QueueKind::V => StageId::IssueVector,
            crate::rob::QueueKind::M => StageId::IssueMem,
        };
        let t = self.entry_ready_time(e);
        if t != u64::MAX {
            self.sched.merge_wake(stage, t);
        }
    }

    /// Earliest cycle `e` could pass its issue stage's time-based
    /// checks, exact at call time; `u64::MAX` when only a later edge
    /// can help. State conditions (disambiguation, the late-commit
    /// head rule) are not modelled here — a merged wake may therefore
    /// fire early and fail, which re-derives the stage's wake from the
    /// full scan.
    pub(crate) fn entry_ready_time(&self, e: &RobEntry) -> u64 {
        use oov_isa::{FuClass, MemKind, Opcode};
        match e.qkind {
            crate::rob::QueueKind::A | crate::rob::QueueKind::S => {
                let mut ready = 0u64;
                for &(class, phys) in &e.srcs {
                    if !self.st.timing.is_produced(class, phys) {
                        return u64::MAX;
                    }
                    ready = ready.max(self.st.timing.last(class, phys));
                }
                ready
            }
            crate::rob::QueueKind::V => {
                let mut ready = 0u64;
                for &(class, phys) in &e.srcs {
                    let Some(t) = self.src_ready_time(class, phys, !class.is_scalar()) else {
                        return u64::MAX;
                    };
                    ready = ready.max(t);
                    if class == RegClass::V {
                        ready = ready.max(self.st.timing.read_port_free[phys as usize]);
                    }
                }
                let fu = if e.op.fu_class() == FuClass::VecFu2Only {
                    self.fu2_free
                } else {
                    self.fu1_free.min(self.fu2_free)
                };
                ready.max(fu)
            }
            crate::rob::QueueKind::M => {
                if e.mem_stage != crate::rob::MemStage::WaitDisamb || e.waiting_srcs > 0 {
                    return u64::MAX;
                }
                let mut ready = 0u64;
                let mut bypasses_bus = false;
                if let Some(mem) = e.mem {
                    if mem.kind == MemKind::Indexed {
                        let idx_pos = usize::from(e.op == Opcode::VScatter);
                        if let Some(&(c, p)) = e.srcs.get(idx_pos) {
                            if !self.st.timing.is_produced(c, p) {
                                return u64::MAX;
                            }
                            ready = ready.max(self.st.timing.last(c, p) + 1);
                        }
                    }
                    bypasses_bus = e.op == Opcode::SLoad
                        && self
                            .st
                            .cache
                            .as_ref()
                            .map(|c| c.peek_load(mem.base))
                            .unwrap_or(false);
                }
                if e.is_store() {
                    if let Some(&(c, p)) = e.srcs.first() {
                        let Some(t) = self.src_ready_time(c, p, true) else {
                            return u64::MAX;
                        };
                        ready = ready.max(t);
                    }
                }
                if !bypasses_bus {
                    ready = ready.max(self.bus.free_at());
                }
                ready
            }
        }
    }

    /// Registers a `WaitDisamb` entry's *issue-checked* sources — a
    /// store's chained data register, a gather/scatter's index vector —
    /// in the wakeup index, so their production re-arms memory issue
    /// precisely (queue-M entries otherwise bypass the index: their
    /// readiness is checked per-operand at issue, not via
    /// `waiting_srcs`). Addressing operands are not registered; ranges
    /// come from the trace and gate nothing at issue.
    pub(crate) fn register_mem_waits(&mut self, seq: u64) {
        let Some(e) = self.st.rob.get(seq) else {
            return;
        };
        let mut checked: [Option<(RegClass, PhysReg)>; 2] = [None, None];
        if e.is_store() {
            checked[0] = e.srcs.first().copied();
        }
        if e.mem.map(|m| m.kind == oov_isa::MemKind::Indexed) == Some(true) {
            let idx_pos = usize::from(e.op == oov_isa::Opcode::VScatter);
            let idx = e.srcs.get(idx_pos).copied();
            if idx != checked[0] {
                checked[1] = idx;
            }
        }
        let mut waiting = 0u16;
        for (class, phys) in checked.into_iter().flatten() {
            if !self.st.timing.is_produced(class, phys) {
                waiting += 1;
                self.st.waiters[class_ix(class)][phys as usize].push(seq);
            }
        }
        if let Some(e) = self.st.rob.get_mut(seq) {
            e.waiting_srcs = waiting;
        }
    }

    /// Earliest future cycle at which any stage's behaviour can change,
    /// given that the cycle just simulated was dead (mutated nothing),
    /// computed by a full rescan of the machine state: the ROB head,
    /// the front end, and every issue-queue entry's
    /// [`OooSim::entry_ready_time`] (the single definition of
    /// per-entry readiness, shared with the fused in-scan accumulation
    /// and the wakeup-edge merge). Debug builds only: it is the
    /// reference the cached skip target is checked against.
    ///
    /// Every `now` comparison in the stage code reads one of the times
    /// enumerated here; everything else the stages consult is machine
    /// state, which by assumption only changes in progress cycles.
    /// A ready time is exact *at scan time*: reservations made later (a
    /// read port claimed by a store stream, an FU or the bus taken by
    /// another issue) only delay an entry — a spurious early wake,
    /// never a missed one. Entries gated on an unproduced source, a
    /// pre-`WaitDisamb` memory entry, disambiguation and the
    /// late-commit head rule are state conditions re-armed by edges;
    /// they resolve to `u64::MAX` and add nothing. Returns `None` when
    /// no future event exists (a provable deadlock).
    #[cfg(debug_assertions)]
    fn next_event_scan(&self) -> Option<u64> {
        let now = self.now;
        let mut best = u64::MAX;
        let mut add = |t: u64| {
            if t > now && t < best {
                best = t;
            }
        };
        self.commit_wake_scan(&mut add);
        self.frontend_wake_scan(&mut add);
        let st = &self.st;
        for q in [&st.q_a, &st.q_s, &st.q_v, &st.q_m] {
            for e in q.iter().filter_map(|&seq| st.rob.get(seq)) {
                add(self.entry_ready_time(e));
            }
        }
        (best != u64::MAX).then_some(best)
    }

    /// The dead-cycle skip target: the earliest future time any stage
    /// can change behaviour, read from the scheduler's cached
    /// per-stage wakes plus the O(1) ROB-head and front-end times.
    ///
    /// Reaching a dead cycle means every masked stage either fired
    /// this cycle and failed (recomputing its wake just now) or slept
    /// through it (its cached wake still valid — an edge would have
    /// armed it, making the cycle a progress cycle). Either way the
    /// cached wake is never *later* than a fresh scan of its queue, so
    /// no event can be skipped. It may be earlier, when a
    /// port/bus/FU reservation has since moved out: the woken cycle
    /// then fires that stage, fails, and re-derives its wake, costing
    /// one extra walk and no correctness. Returns `None` when no
    /// future event exists (a provable deadlock).
    ///
    /// Debug builds assert this never wakes later than the full
    /// per-stage rescan.
    fn next_event_cached(&self) -> Option<u64> {
        let now = self.now;
        let mut best = u64::MAX;
        let mut add = |t: u64| {
            if t > now && t < best {
                best = t;
            }
        };
        self.commit_wake_scan(&mut add);
        self.frontend_wake_scan(&mut add);
        for stage in [
            StageId::IssueMem,
            StageId::IssueVector,
            StageId::IssueA,
            StageId::IssueS,
        ] {
            debug_assert!(self.sched.is_asleep(stage), "armed stage in a dead cycle");
            add(self.sched.cached_wake(stage));
        }
        #[cfg(debug_assertions)]
        if let Some(fresh) = self.next_event_scan() {
            debug_assert!(
                best <= fresh,
                "cached next-event scan missed an event at cycle {now}: cached {best}, fresh {fresh}",
            );
        }
        (best != u64::MAX).then_some(best)
    }

    /// Consistency check used by tests: every physical register is
    /// accounted for between the map, the ROB and the free lists.
    #[must_use]
    pub fn check_conservation(&self) -> bool {
        for class in RegClass::ALL {
            let rob_refs: Vec<PhysReg> = self
                .st
                .rob
                .iter()
                .filter_map(|e| e.dst)
                .filter(|d| d.class == class)
                .map(|d| d.old)
                .collect();
            if !self.st.rename.table(class).check_conservation(&rob_refs) {
                return false;
            }
        }
        true
    }
}
