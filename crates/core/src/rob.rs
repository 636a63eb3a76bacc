//! The reorder buffer.
//!
//! Paper §2.2: *"When instructions are accepted into the decode stage, a
//! slot in the reorder buffer is also allocated. Instructions enter and
//! exit the reorder buffer in strict program order. ... Note that the
//! reorder buffer only holds a few bits to identify instructions and
//! register names; it never holds register values."*

use std::collections::VecDeque;
use std::ops::Deref;

use oov_isa::{BranchInfo, MemRef, Opcode, RegClass, MAX_SRCS};

use crate::rename::PhysReg;

/// A fixed-capacity operand list held inline in its ROB entry: at most
/// [`MAX_SRCS`] items, the same bound an [`oov_isa::Instruction`]
/// carries. It is `Copy`, so renaming, waking and issuing an entry copy
/// its operands instead of touching the heap. Dereferences to the
/// slice of the pushed items, in push order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcList<T> {
    items: [T; MAX_SRCS],
    len: u8,
}

impl<T: Copy + Default> SrcList<T> {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        SrcList {
            items: [T::default(); MAX_SRCS],
            len: 0,
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_SRCS`] items.
    pub fn push(&mut self, item: T) {
        let len = usize::from(self.len);
        assert!(len < MAX_SRCS, "operand list overflow");
        self.items[len] = item;
        self.len += 1;
    }

    /// Empties the list.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy + Default> Default for SrcList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Deref for SrcList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<'a, T> IntoIterator for &'a SrcList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Destination bookkeeping of one ROB entry: enough to commit (release
/// the old mapping) or squash (restore it).
#[derive(Debug, Clone, Copy)]
pub struct DstInfo {
    /// Register class.
    pub class: RegClass,
    /// Architectural register number.
    pub arch: u8,
    /// Physical register now mapped.
    pub new: PhysReg,
    /// Previous mapping, released at commit.
    pub old: PhysReg,
}

/// Which issue queue an entry waits in. Stored on the entry so the
/// stage-graph scheduler can wake exactly the queue's issue stage when
/// a wakeup-index decrement makes the entry runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Address queue.
    A,
    /// Scalar queue.
    S,
    /// Vector queue.
    V,
    /// Memory queue (feeds the three-stage memory pipe).
    M,
}

/// Progress of an instruction through the memory pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemStage {
    /// Not a memory-pipe instruction (or not yet entered).
    None,
    /// Issue/RF stage.
    S1,
    /// Range stage (address range computation).
    S2,
    /// Dependence stage (disambiguation + late vector rename).
    S3,
    /// Past the pipe, waiting to issue requests out of order.
    WaitDisamb,
    /// Requests issued (or load eliminated).
    Done,
}

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Waiting in an issue queue (or the memory pipe).
    Waiting,
    /// Execution started (vector first element flowing).
    Issued,
}

/// One reorder-buffer entry: identifiers, register names and progress
/// flags, with no heap storage of its own (the operand lists are inline
/// [`SrcList`]s).
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global sequence number (program order).
    pub seq: u64,
    /// Index into the trace.
    pub trace_idx: usize,
    /// Opcode.
    pub op: Opcode,
    /// Vector length.
    pub vl: u16,
    /// Spill marker (traffic accounting).
    pub is_spill: bool,
    /// Memory reference, if any.
    pub mem: Option<MemRef>,
    /// Branch outcome, if any.
    pub branch: Option<BranchInfo>,
    /// Static PC.
    pub pc: u64,
    /// Renamed sources `(class, phys)`; vector sources may be deferred
    /// under the VLE pipeline, in which case they appear in
    /// `deferred_srcs` until stage 3.
    pub srcs: SrcList<(RegClass, PhysReg)>,
    /// Architectural vector sources awaiting late rename (VLE mode).
    pub deferred_srcs: SrcList<u8>,
    /// Destination bookkeeping (populated at rename, or stage 3 for
    /// vector destinations under VLE).
    pub dst: Option<DstInfo>,
    /// Architectural vector destination awaiting late rename (VLE mode).
    pub deferred_dst: Option<u8>,
    /// Execution state.
    pub state: EntryState,
    /// Cycle execution started (valid once `state == Issued`).
    pub issue_time: u64,
    /// Scheduled completion cycle (valid once `state == Issued`).
    pub complete_time: u64,
    /// Memory-pipe progress.
    pub mem_stage: MemStage,
    /// Load satisfied by dynamic load elimination.
    pub eliminated: bool,
    /// Fetch-time misprediction flag (front end stalled on this branch).
    pub mispredicted: bool,
    /// Sources whose producer has not issued yet (wakeup index; the
    /// issue scans skip the entry while this is non-zero).
    pub waiting_srcs: u16,
    /// Queue the entry currently waits in (updated when the VLE pipe
    /// moves a vector compute from the M to the V queue).
    pub qkind: QueueKind,
}

impl RobEntry {
    /// `true` once execution has started.
    #[must_use]
    pub fn issued(&self) -> bool {
        self.state == EntryState::Issued
    }

    /// `true` if this entry writes memory.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.op.is_store()
    }

    /// Completes the late (stage-3) rename of the deferred vector
    /// sources: appends `resolved` — their physical registers, in
    /// `deferred_srcs` order — after the dispatch-time sources, and
    /// empties `deferred_srcs`.
    pub(crate) fn resolve_deferred(&mut self, resolved: &[(RegClass, PhysReg)]) {
        for &src in resolved {
            self.srcs.push(src);
        }
        self.deferred_srcs.clear();
    }
}

/// The reorder buffer: a bounded FIFO of in-flight instructions. Built
/// empty by `Default`; [`Rob::reset`] gives it its capacity.
#[derive(Debug, Default)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    next_seq: u64,
}

impl Rob {
    /// Empties the buffer, sets its capacity to `capacity` slots and
    /// rewinds sequence numbering for a new run. The deque is sized
    /// for a full buffer up front, and keeps its storage across resets
    /// (arena reuse).
    pub(crate) fn reset(&mut self, capacity: usize) {
        self.entries.clear();
        self.entries.reserve(capacity);
        self.capacity = capacity;
        self.next_seq = 0;
    }

    /// `true` if no slot is available.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Allocates an entry at the tail, assigning its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if full — callers must check [`Rob::is_full`] first.
    pub fn push(&mut self, mut entry: RobEntry) -> u64 {
        assert!(!self.is_full(), "ROB overflow");
        let seq = self.next_seq;
        self.next_seq += 1;
        entry.seq = seq;
        self.entries.push_back(entry);
        seq
    }

    /// The head (oldest) entry.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Sequence number of the head entry.
    #[must_use]
    pub fn head_seq(&self) -> Option<u64> {
        self.entries.front().map(|e| e.seq)
    }

    /// Removes and returns the head entry (commit).
    pub fn pop(&mut self) -> Option<RobEntry> {
        self.entries.pop_front()
    }

    /// Removes and returns the tail entry (squash walk).
    pub fn pop_tail(&mut self) -> Option<RobEntry> {
        self.entries.pop_back()
    }

    /// Looks up an entry by sequence number.
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        let head = self.head_seq()?;
        let off = seq.checked_sub(head)? as usize;
        self.entries.get(off)
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let head = self.head_seq()?;
        let off = seq.checked_sub(head)? as usize;
        self.entries.get_mut(off)
    }

    /// Iterates entries in program order.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rob(capacity: usize) -> Rob {
        let mut r = Rob::default();
        r.reset(capacity);
        r
    }

    fn entry(trace_idx: usize) -> RobEntry {
        RobEntry {
            seq: 0,
            trace_idx,
            op: Opcode::SAdd,
            vl: 1,
            is_spill: false,
            mem: None,
            branch: None,
            pc: 0,
            srcs: SrcList::new(),
            deferred_srcs: SrcList::new(),
            dst: None,
            deferred_dst: None,
            state: EntryState::Waiting,
            issue_time: 0,
            complete_time: 0,
            mem_stage: MemStage::None,
            eliminated: false,
            mispredicted: false,
            waiting_srcs: 0,
            qkind: QueueKind::S,
        }
    }

    #[test]
    fn fifo_order_and_sequence_numbers() {
        let mut r = rob(4);
        let s0 = r.push(entry(10));
        let s1 = r.push(entry(11));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(r.head().unwrap().trace_idx, 10);
        assert_eq!(r.pop().unwrap().seq, 0);
        assert_eq!(r.head_seq(), Some(1));
    }

    #[test]
    fn src_list_push_clear_and_order() {
        let mut l: SrcList<(RegClass, PhysReg)> = SrcList::new();
        assert!(l.is_empty());
        l.push((RegClass::S, 7));
        l.push((RegClass::V, 3));
        l.push((RegClass::A, 1));
        assert_eq!(&*l, &[(RegClass::S, 7), (RegClass::V, 3), (RegClass::A, 1)]);
        assert_eq!(l.first(), Some(&(RegClass::S, 7)));
        assert_eq!(l.get(2), Some(&(RegClass::A, 1)));
        assert_eq!(l.get(3), None, "only pushed items are visible");
        let copy = l;
        l.clear();
        assert!(l.is_empty());
        assert_eq!(copy.len(), 3, "a copy is independent of the original");
        l.push((RegClass::Mask, 2));
        assert_eq!(&*l, &[(RegClass::Mask, 2)]);
    }

    #[test]
    fn src_list_holds_max_srcs() {
        let mut l: SrcList<u8> = SrcList::new();
        for i in 0..MAX_SRCS as u8 {
            l.push(i);
        }
        assert_eq!(l.len(), MAX_SRCS);
        assert!(l.iter().copied().eq(0..MAX_SRCS as u8));
    }

    #[test]
    #[should_panic(expected = "operand list overflow")]
    fn src_list_push_past_capacity_panics() {
        let mut l: SrcList<u8> = SrcList::new();
        for i in 0..=MAX_SRCS as u8 {
            l.push(i);
        }
    }

    #[test]
    fn late_rename_appends_deferred_sources_in_order() {
        // Under VLE a queue-M entry renames its scalar and mask
        // operands at dispatch and defers its vector operands.
        let mut e = entry(0);
        e.srcs.push((RegClass::A, 4));
        e.srcs.push((RegClass::Mask, 1));
        e.deferred_srcs.push(5);
        e.deferred_srcs.push(2);
        // Stage 3 resolves the deferred names against the current map
        // (arch r -> phys 10 + r here) in `deferred_srcs` order.
        let mut resolved: SrcList<(RegClass, PhysReg)> = SrcList::new();
        for &arch in &e.deferred_srcs {
            resolved.push((RegClass::V, 10 + PhysReg::from(arch)));
        }
        e.resolve_deferred(&resolved);
        // Dispatch-time operands first, then the deferred ones.
        assert_eq!(
            &*e.srcs,
            &[
                (RegClass::A, 4),
                (RegClass::Mask, 1),
                (RegClass::V, 15),
                (RegClass::V, 12)
            ]
        );
        assert!(e.deferred_srcs.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut r = rob(2);
        r.push(entry(0));
        r.push(entry(1));
        assert!(r.is_full());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut r = rob(1);
        r.push(entry(0));
        r.push(entry(1));
    }

    #[test]
    fn lookup_by_seq_after_commits() {
        let mut r = rob(8);
        for i in 0..5 {
            r.push(entry(i));
        }
        r.pop();
        r.pop();
        assert_eq!(r.get(2).unwrap().trace_idx, 2);
        assert_eq!(r.get(4).unwrap().trace_idx, 4);
        assert!(r.get(1).is_none(), "committed entries are gone");
        r.get_mut(3).unwrap().state = EntryState::Issued;
        assert!(r.get(3).unwrap().issued());
    }

    #[test]
    fn squash_walk_from_tail() {
        let mut r = rob(8);
        for i in 0..4 {
            r.push(entry(i));
        }
        assert_eq!(r.pop_tail().unwrap().trace_idx, 3);
        assert_eq!(r.pop_tail().unwrap().trace_idx, 2);
        assert_eq!(r.len(), 2);
        // Sequence numbers keep increasing even after a squash.
        let s = r.push(entry(9));
        assert_eq!(s, 4);
    }
}
