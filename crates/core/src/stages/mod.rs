//! The stage-graph execution core: one module per pipeline stage,
//! coordinated by an activity-driven [`Scheduler`].
//!
//! # The stage graph
//!
//! ```text
//!                 ┌────────┐   ┌──────────┐
//!  trace ───────▶ │ fetch  │──▶│ dispatch │────────────┐
//!                 └────────┘   └──────────┘            │ (rename + ROB alloc)
//!                      ▲            │                  ▼
//!        resume/mispr. │            │ route      ┌───────────┐
//!                      │            ▼            │    ROB    │
//!            ┌──────────────┬───────────┬────────┴───┬───────┴──────┐
//!            ▼              ▼           ▼            ▼              │
//!       ┌─────────┐   ┌─────────┐  ┌─────────┐  ┌─────────┐        │
//!       │ queue A │   │ queue S │  │ queue V │  │ queue M │        │
//!       └────┬────┘   └────┬────┘  └────┬────┘  └────┬────┘        │
//!            ▼              ▼           ▼            ▼              ▼
//!       [issue_a]      [issue_s]   [issue_v]   [mem_pipe S1→S2→S3] │
//!            │              │           │            │ (S3: tags,  │
//!            │   BTB upds   │           │            │  SLE/VLE)   │
//!            └──▶[writeback]◀───────────┘            ▼             │
//!                 (btb +                        [issue_mem]        │
//!                  copies)                    (disambiguation,     │
//!                                              address bus)        │
//!                                                    │             ▼
//!                                                    └────────▶[commit]
//! ```
//!
//! # How a cycle executes
//!
//! Both engines walk the stages in a fixed order (writeback, commit,
//! mem-pipe, issue×4, dispatch, fetch — downstream first, so an
//! instruction never traverses two stages in one cycle). Writeback,
//! commit, the memory pipe, dispatch and fetch run on every walked
//! cycle in both engines: each is O(1) or close to it when it has
//! nothing to do. The naive oracle ([`crate::Stepper::Naive`]) also
//! runs the four issue scans and walks **every** cycle; the
//! event-driven engine consults the [`Scheduler`] for the scans and
//! skips dead cycles:
//!
//! 1. **Masked issue stages.** The four issue scans — the expensive,
//!    O(queue) work — each carry an activity bit and a `next_wake`
//!    time. A scan runs iff its bit is set or its wake has come. A
//!    scan that progresses stays active; one that fails goes to sleep,
//!    taking as its `next_wake` the earliest ready time the failed
//!    scan saw among the entries it rejected. Cross-stage *edges*
//!    re-arm sleeping stages when state (not time) unblocks them. A
//!    dispatch, a wakeup-index decrement or a memory entry reaching
//!    `WaitDisamb` that leaves an entry with no outstanding sources
//!    lowers its queue's wake to the entry's exact ready time (a
//!    *timed* edge; queue-M entries register exactly the
//!    store-data/gather-index sources memory issue checks). A
//!    Dependence-stage exit that removes a disambiguation participant
//!    arms memory issue. Under late commit, a commit that moves the ROB
//!    head onto a store already in `WaitDisamb` lowers memory issue's
//!    wake to that store's ready time (the head rule gates stores
//!    only, and no other entry's issue depends on the head). Memory
//!    issue also sleeps without a scan while the address bus is busy
//!    and no scalar load waits (only a scalar-cache hit can issue
//!    then), waking when the bus frees.
//! 2. **Idle path.** A cycle in which no stage progresses is *dead*;
//!    the engine jumps `now` to the earliest of the masked stages'
//!    cached wakes and the ROB-head and front-end times (fetch resume
//!    and pending BTB updates), replaying per-cycle stall
//!    counters arithmetically. Dead-cycle skipping and masking are two
//!    modes of one mechanism: the wake a failed issue scan caches is
//!    exactly that stage's share of the next-event time, so the same
//!    state decides both "which scans can run this cycle" and "when is
//!    the next cycle worth running at all". No event heap is needed:
//!    only a state change can make a sleeping stage's cached wake
//!    late, every such change arms the stage through an edge, and the
//!    mutation behind the edge makes the cycle a progress cycle, not a
//!    dead one. Debug builds cross-check every skip target against a
//!    full rescan of the queues.
//!
//! What each mechanism buys was measured by removing it alone and
//! running perfbench `grid` (the 1550-point exhibit grid on 2 threads,
//! 10 pairs, 2-vCPU host); the figure is the median per-pair change
//! in points/s. Masking the issue scans (against running all four on
//! every walked cycle): −37%. The indexed wakeup (against arming every
//! issue stage on each register production): −13%. The timed edges
//! (against a plain arm): −4 to −5%, which is inside the run-to-run
//! spread. Adding, together, the rule that memory issue wakes only
//! when an access can issue (the late-commit head edge and the
//! bus-busy sleep), the sequence-indexed ROB ring and shift-and-mask
//! scalar-cache indexing: +25.9%, ahead in 10 of 10 pairs. The other
//! five stages run ungated, the issue queues are plain vectors and
//! memory issue walks all of queue M because gating the stages,
//! tombstoning the queues and stopping at the first entry still in
//! the memory pipe each measured flat there.
//!
//! The live-state lookups (see [`crate::sim`]) were each removed alone
//! and timed by thread CPU time over single-threaded passes of the
//! same points, 30 interleaved rounds. Without the valid-tag lists a
//! pass takes +13% longer. Removing the bounded scalar-cache
//! invalidation (+1%) or the progress-word tally (−8%) measured inside
//! the noise. A rename free-register count, tried beside them,
//! measured −0.6% and was dropped.
//!
//! Soundness invariant: a scan left out of a cycle must be provably
//! unable to mutate machine state *or* stall counters that cycle. The
//! parity grid (10 kernels × commit × load-elim × pressure × swept
//! trap points) asserts the result: bit-identical [`oov_stats::SimStats`]
//! against the naive oracle.
//!
//! # Lifecycle tracing and stall attribution
//!
//! The stages emit one event stream into one optional observer slot,
//! `OooSim::probe` (a [`crate::Probe`]; a single dormant `Option` branch
//! per event site when none is attached — `bench_trend` gates that they
//! stay free). Issue scans report each rejection through the one-line
//! `OooSim::wait` helper. The lifecycle [`crate::TraceSink`] is the
//! probe that records each instruction's fetch/dispatch/issue/
//! complete/commit timestamps for the Konata export, plus a stall
//! table keyed by [`oov_stats::StallKind`]. The mapping from stall
//! reason to trace annotation:
//!
//! | stage | stall reason | kind | annotation |
//! |---|---|---|---|
//! | dispatch, mem pipe S3 | ROB full / queue full / no phys reg | `RobFull` / `QueueFull` / `RenameStall` | `ROB` / `Q` / `REN` |
//! | any issue scan | source operands pending | `SourcesPending` | `SRC` |
//! | vector issue | both vector FUs busy | `FuBusy` | `FU` |
//! | memory issue | older store range unresolved | `MemDisambiguation` | `DIS` |
//! | memory issue | index vector not produced | `IndexVectorWait` | `IDX` |
//! | memory issue | store data not ready | `StoreDataWait` | `STD` |
//! | memory issue | late-commit head wait | `LateCommitHead` | `HEAD` |
//! | memory issue | address bus busy | `BusBusy` | `BUS` |
//!
//! The per-cycle family (first row) is not observed per cycle at all:
//! the sink copies the run's `SimStats` stall counters (dead-cycle
//! replay included) into those rows when the run ends, so no stage
//! counts a stall twice. Issue-side waits charge each instruction's
//! dispatch→issue gap to the *last* reason a scan rejected it,
//! resolved at commit. A traced event-engine scan names that reason
//! with the naive oracle's ordered checks (an entry its fused ready
//! time rejects falls through to them; untraced it is skipped at
//! once), so it names FU, bus and memory-side waits too, not only
//! `SourcesPending`. The split across kinds still differs — the event
//! engine runs fewer scans, so its last rejection is often an earlier
//! one — but the totals agree.

pub(crate) mod commit;
pub(crate) mod dispatch;
pub(crate) mod fetch;
pub(crate) mod issue_mem;
pub(crate) mod issue_scalar;
pub(crate) mod issue_vector;
pub(crate) mod mem_pipe;
pub(crate) mod writeback;

/// Identifies one pipeline stage. The discriminants index the
/// progress word and the per-stage counters in
/// [`oov_stats::StageCycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StageId {
    /// Deferred BTB updates + pending eliminated-load copies.
    Writeback = 0,
    /// Reorder-buffer commit (and precise-trap recovery).
    Commit = 1,
    /// The three-stage in-order memory pipe (Issue/RF → Range →
    /// Dependence).
    MemPipe = 2,
    /// Out-of-order memory issue under range disambiguation.
    IssueMem = 3,
    /// Vector-queue issue.
    IssueVector = 4,
    /// Address-queue issue.
    IssueA = 5,
    /// Scalar-queue issue.
    IssueS = 6,
    /// Decode/rename/ROB-allocate.
    Dispatch = 7,
    /// Instruction fetch (BTB + return-stack prediction).
    Fetch = 8,
}

impl StageId {
    /// This stage's bit in the per-cycle progress word.
    pub(crate) fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// Index of a masked stage in the scheduler's bit/wake arrays.
fn mask_ix(stage: StageId) -> usize {
    match stage {
        StageId::IssueMem => 0,
        StageId::IssueVector => 1,
        StageId::IssueA => 2,
        StageId::IssueS => 3,
        _ => unreachable!("only issue stages are masked"),
    }
}

/// Activity state for the four masked issue stages (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Activity bits for the four masked issue stages (by [`mask_ix`]).
    active: u8,
    /// Cached `next_wake` per masked stage; valid while the stage's
    /// activity bit is clear. `u64::MAX` means "edge-only": no future
    /// time can unblock the stage by itself.
    wake: [u64; 4],
}

impl Scheduler {
    /// Cold state: every masked stage armed (first failure computes
    /// its wake).
    pub(crate) fn new() -> Self {
        Scheduler {
            active: 0b1111,
            wake: [u64::MAX; 4],
        }
    }

    /// Does `stage` fire this cycle (activity bit set or wake due)?
    pub(crate) fn fires(&self, stage: StageId, now: u64) -> bool {
        let i = mask_ix(stage);
        self.active & (1 << i) != 0 || self.wake[i] <= now
    }

    /// Arms `stage` to run on the next cycle walk (cross-stage edge).
    pub(crate) fn arm(&mut self, stage: StageId) {
        self.active |= 1 << mask_ix(stage);
    }

    /// Lowers `stage`'s wake to `t` (a timed edge): the caller has
    /// computed an exact ready time for one entry, so the stage need
    /// not be armed for an immediate — probably futile — scan. The
    /// stage fires when the time comes (or earlier, if armed).
    pub(crate) fn merge_wake(&mut self, stage: StageId, t: u64) {
        let i = mask_ix(stage);
        self.wake[i] = self.wake[i].min(t);
    }

    /// `true` while `stage` is asleep (bit clear): its cached wake is
    /// the exact earliest time-based wake given current state, so the
    /// dead-cycle scan may use it instead of rescanning the queue.
    pub(crate) fn is_asleep(&self, stage: StageId) -> bool {
        self.active & (1 << mask_ix(stage)) == 0
    }

    /// The cached wake of a sleeping stage (`u64::MAX` = edge-only).
    pub(crate) fn cached_wake(&self, stage: StageId) -> u64 {
        self.wake[mask_ix(stage)]
    }

    /// Records the outcome of running a masked stage: progress keeps
    /// it active for the next cycle, failure puts it to sleep until
    /// `wake` (or an edge re-arms it).
    pub(crate) fn ran(&mut self, stage: StageId, progressed: bool, wake: u64) {
        let i = mask_ix(stage);
        if progressed {
            self.active |= 1 << i;
            self.wake[i] = u64::MAX;
        } else {
            self.active &= !(1 << i);
            self.wake[i] = wake;
        }
    }

    /// Conservative reset after a precise-trap squash: the queues were
    /// cleared and rebuilt state bears no relation to the cached
    /// wakes, so re-arm everything.
    pub(crate) fn reset_after_squash(&mut self) {
        *self = Scheduler::new();
    }
}
