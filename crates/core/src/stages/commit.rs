//! Commit stage: in-order retirement from the reorder buffer, up to
//! `commit_width` instructions per cycle, plus precise-trap recovery
//! (paper §5).
//!
//! It runs on every walked cycle: checking an empty ROB or a
//! not-yet-ready head is O(1), and so is finding the time at which the
//! head can next become ready (its entry in the dead-cycle skip
//! target).

use oov_isa::CommitMode;

use crate::rob::MemStage;
use crate::sim::OooSim;
use crate::stages::StageId;

impl OooSim<'_> {
    pub(crate) fn ready_to_commit(&self, e: &crate::rob::RobEntry) -> bool {
        if !e.issued() {
            return false;
        }
        if e.eliminated {
            // Complete when the provider's data is fully available.
            if let Some(d) = e.dst {
                return self.st.timing.is_produced(d.class, d.new)
                    && self.st.timing.last(d.class, d.new) <= self.now;
            }
            return true;
        }
        match self.cfg.commit {
            CommitMode::Early => {
                // Vector instructions release state once execution begins.
                if e.op.is_vector() || e.is_store() {
                    true
                } else {
                    e.complete_time <= self.now
                }
            }
            CommitMode::Late => e.complete_time <= self.now,
        }
    }

    /// Future times at which the ROB head's commit-gating conditions
    /// can flip: its completion, or — for an eliminated head — its
    /// provider's full availability. Only the head gates progress.
    pub(crate) fn commit_wake_scan(&self, add: &mut impl FnMut(u64)) {
        if let Some(h) = self.st.rob.head() {
            if h.eliminated {
                if let Some(d) = h.dst {
                    if self.st.timing.is_produced(d.class, d.new) {
                        add(self.st.timing.last(d.class, d.new));
                    }
                }
            } else if h.issued() {
                add(h.complete_time);
            }
        }
    }

    pub(crate) fn commit(&mut self) {
        let mut popped = false;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.st.rob.head() else {
                break;
            };
            if let (Some(fault_idx), true) = (self.fault_at, head.issued()) {
                if head.trace_idx == fault_idx && self.ready_to_commit(head) {
                    self.take_fault();
                    return;
                }
            }
            if !self.ready_to_commit(head) {
                break;
            }
            let e = self.st.rob.pop().expect("head vanished");
            if let Some(p) = self.probe.as_deref_mut() {
                p.commit(e.seq, e.trace_idx, e.issue_time, e.complete_time, self.now);
            }
            if let Some(d) = e.dst {
                self.st.rename.table_mut(d.class).release(d.old);
            }
            self.committed += 1;
            self.progress(StageId::Commit);
            popped = true;
        }
        // Late commit lets a store issue only from the ROB head, a state
        // condition memory issue cannot see coming. The head rule gates
        // nothing else, so when the head moves only a new head that is a
        // store already in `WaitDisamb` can become issuable: lower memory
        // issue's wake to its exact ready time. A store that reaches
        // `WaitDisamb` later merges its own wake at stage-3 exit.
        if popped && self.cfg.commit == CommitMode::Late {
            if let Some(h) = self.st.rob.head() {
                if h.is_store() && h.mem_stage == MemStage::WaitDisamb {
                    self.merge_entry_wake(h.seq);
                }
            }
        }
    }

    /// Precise-trap recovery (paper §5): squash everything from the tail
    /// back to and including the faulting instruction, restoring rename
    /// state, then restart fetch at the fault point.
    pub(crate) fn take_fault(&mut self) {
        let fault_idx = self.fault_at.take().expect("no fault pending");
        self.faults_taken += 1;
        self.progress(StageId::Commit);
        while let Some(e) = self.st.rob.pop_tail() {
            if let Some(p) = self.probe.as_deref_mut() {
                p.squash(e.seq, self.now);
            }
            if let Some(d) = e.dst {
                self.st
                    .rename
                    .table_mut(d.class)
                    .rollback_alloc(d.arch, d.new, d.old);
            }
            let done = e.trace_idx == fault_idx;
            if done {
                break;
            }
        }
        self.st.q_a.clear();
        self.st.q_s.clear();
        self.st.q_v.clear();
        self.st.q_m.clear();
        self.stage = [None; 3];
        self.st.pipe_pending.clear();
        self.st.fetch_buf.clear();
        if let Some(p) = self.probe.as_deref_mut() {
            p.squash_frontend();
        }
        self.fetch_blocked = None;
        self.fetch_resume_at = None;
        self.st.pending_copies.clear();
        self.sloads_waiting = 0;
        // Conservative: forget all register memory tags.
        self.st.tags.clear();
        self.fetch_idx = fault_idx;
        self.sched.reset_after_squash();
    }
}
