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
//! instruction never traverses two stages in one cycle). The naive
//! oracle ([`crate::Stepper::Naive`]) runs **every** stage **every**
//! cycle; the event-driven engine consults the [`Scheduler`]:
//!
//! 1. **Cheap-predicate stages** (writeback, commit, mem-pipe,
//!    dispatch, fetch) run iff an exact O(1) predicate holds — e.g.
//!    dispatch runs iff the fetch buffer is non-empty, the memory pipe
//!    iff a stage register is occupied or an un-piped entry waits in
//!    queue M. The predicates are exact for *both* mutation and stall
//!    counting, so a skipped stage provably would have been a no-op.
//! 2. **Masked stages** (the four issue scans — the expensive,
//!    O(queue) work) each carry an activity bit and a `next_wake`
//!    time. The per-cycle active set is the bitwise OR of the activity
//!    word and the fired wake times. A masked stage that runs and
//!    progresses stays active; one that runs and fails goes to sleep,
//!    taking as its `next_wake` the earliest ready time the failed
//!    scan saw among the entries it rejected. Cross-stage *edges* re-arm
//!    sleeping stages when state (not time) unblocks them: a dispatch
//!    or wakeup-index decrement that leaves an entry with no
//!    outstanding sources wakes its queue's stage (queue-M entries
//!    register exactly the store-data/gather-index sources memory
//!    issue checks), a Dependence-stage exit that adds or removes a
//!    disambiguation participant wakes memory issue, and a late-commit
//!    pop wakes memory issue.
//! 3. **Idle path.** A cycle in which no stage progresses is *dead*;
//!    the engine jumps `now` to the earliest of the masked stages'
//!    cached wakes and the O(1) ROB-head and front-end times,
//!    replaying per-cycle stall counters arithmetically. Dead-cycle
//!    skipping and active-stage masking are two modes of one
//!    mechanism: the wake a failed issue scan caches is exactly that
//!    stage's share of the next-event time, so the same state decides
//!    both "which stages can run this cycle" and "when is the next
//!    cycle worth running at all". No event heap is needed: only a
//!    state change can make a sleeping stage's cached wake late, every
//!    such change arms the stage through an edge, and the mutation
//!    behind the edge makes the cycle a progress cycle, not a dead
//!    one. Debug builds cross-check every skip target against a full
//!    rescan of the queues.
//!
//! Soundness invariant: a stage left out of a cycle must be provably
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
//! counts a stall twice. Issue-side waits
//! charge each instruction's dispatch→issue gap to the *last* reason a
//! scan rejected it, resolved at commit; the split is engine-dependent
//! (the event engine runs fewer scans) but the totals agree.

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

/// Activity state for the masked stages plus the cheap-predicate
/// bookkeeping the exact predicates need (see the module docs).
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Activity bits for the four masked issue stages (by [`mask_ix`]).
    active: u8,
    /// Cached `next_wake` per masked stage; valid while the stage's
    /// activity bit is clear. `u64::MAX` means "edge-only": no future
    /// time can unblock the stage by itself.
    wake: [u64; 4],
    /// Earliest pending deferred-BTB-update time (`u64::MAX` if none).
    pub(crate) btb_wake: u64,
}

impl Scheduler {
    /// Cold state: every masked stage armed (first failure computes
    /// its wake), no pending BTB updates, empty queue-M bookkeeping.
    pub(crate) fn new() -> Self {
        Scheduler {
            active: 0b1111,
            wake: [u64::MAX; 4],
            btb_wake: u64::MAX,
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
    /// wakes, so re-arm everything. Pending BTB updates survive a
    /// squash, so `btb_wake` is preserved.
    pub(crate) fn reset_after_squash(&mut self) {
        self.active = 0b1111;
        self.wake = [u64::MAX; 4];
    }
}
