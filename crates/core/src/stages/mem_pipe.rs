//! The three-stage in-order memory pipe: Issue/RF → Range →
//! Dependence (paper §2.2, and Figure 10 for the modified pipeline
//! that renames vector registers at the Dependence stage under VLE).
//!
//! Stage 3 (Dependence) is where dynamic load elimination lives:
//! memory tags are maintained in program order, scalar loads probe for
//! a providing register (SLE), vector loads probe before allocating a
//! destination (VLE), and redundant stores are elided (SSE). Entries
//! that survive move to `WaitDisamb`, where out-of-order memory issue
//! picks them up.
//!
//! Scheduler bookkeeping: admission into the pipe pops
//! `OooSim::pipe_pending` (the dispatch-order FIFO whose front is
//! always the oldest un-piped entry, making the pull O(1));
//! eliminations that remove a queue-M entry arm memory issue (the
//! removal can unblock younger disambiguation candidates); and every
//! entry reaching `WaitDisamb` registers its issue-checked sources
//! via `OooSim::register_mem_waits` — so a store's data or a gather's
//! index being produced re-arms memory issue through the wakeup index
//! — and merges its exact ready time into the stage's wake.

use oov_isa::{MemKind, Opcode, RegClass};

use crate::rename::PhysReg;
use crate::rob::{DstInfo, EntryState, MemStage, QueueKind, SrcList};
use crate::sim::OooSim;
use crate::stages::StageId;
use crate::tags::Tag;

/// Outcome of the stage-3 vector rename.
#[derive(Debug, PartialEq, Eq)]
enum Stage3Rename {
    Renamed,
    Eliminated,
    Stalled,
}

impl OooSim<'_> {
    pub(crate) fn advance_mem_pipe(&mut self) {
        // Stage 3 → out.
        if let Some(seq) = self.stage[2] {
            if self.stage3_exit(seq) {
                self.stage[2] = None;
                self.progress(StageId::MemPipe);
            }
        }
        // Stage 2 → 3 (range computed here; nothing blocks).
        if self.stage[2].is_none() {
            if let Some(seq) = self.stage[1].take() {
                if let Some(e) = self.st.rob.get_mut(seq) {
                    e.mem_stage = MemStage::S3;
                }
                self.stage[2] = Some(seq);
                self.progress(StageId::MemPipe);
            }
        }
        // Stage 1 → 2.
        if self.stage[1].is_none() {
            if let Some(seq) = self.stage[0].take() {
                if let Some(e) = self.st.rob.get_mut(seq) {
                    e.mem_stage = MemStage::S2;
                }
                self.stage[1] = Some(seq);
                self.progress(StageId::MemPipe);
            }
        }
        // Queue head (not yet in the pipe) → stage 1. Admission is in
        // dispatch order, so the pending FIFO's front is the
        // candidate.
        if self.stage[0].is_none() {
            if let Some(&seq) = self.st.pipe_pending.front() {
                debug_assert_eq!(
                    self.st.rob.get(seq).map(|e| e.mem_stage),
                    Some(MemStage::None),
                    "pipe-pending entry not awaiting admission"
                );
                if let Some(e) = self.st.rob.get_mut(seq) {
                    e.mem_stage = MemStage::S1;
                }
                self.stage[0] = Some(seq);
                self.st.pipe_pending.pop_front();
                self.progress(StageId::MemPipe);
            }
        }
    }

    /// Takes `seq`, which leaves the Dependence stage without issuing
    /// from queue M, out of that queue.
    fn leave_queue_m(&mut self, seq: u64) {
        if let Some(pos) = self.st.q_m.iter().position(|&s| s == seq) {
            self.st.q_m.remove(pos);
        }
    }

    /// Processes an entry leaving the Dependence stage. Returns `false`
    /// if it must stall in stage 3 this cycle.
    fn stage3_exit(&mut self, seq: u64) -> bool {
        let Some(e) = self.st.rob.get(seq) else {
            return true; // squashed
        };
        let is_mem = e.op.is_mem();
        let is_vec_compute = !is_mem;
        let needs_rename = !e.deferred_srcs.is_empty() || e.deferred_dst.is_some();

        if needs_rename {
            // Late vector rename (VLE pipeline, paper Figure 10).
            let elim = self.try_vector_eliminate(seq);
            if elim == Stage3Rename::Stalled {
                self.stats.rename_stall_cycles += 1;
                return false;
            }
            if elim == Stage3Rename::Eliminated {
                // Entry fully handled; leaves the M queue. Its removal
                // can unblock younger disambiguation candidates.
                self.leave_queue_m(seq);
                self.sched.arm(StageId::IssueMem);
                return true;
            }
        }
        if is_vec_compute {
            // Vector compute under VLE: move to the V queue.
            if self.st.q_v.len() >= self.cfg.queue_slots {
                self.stats.queue_stall_cycles += 1;
                return false;
            }
            if let Some(e) = self.st.rob.get_mut(seq) {
                e.mem_stage = MemStage::Done;
                e.qkind = QueueKind::V;
            }
            self.leave_queue_m(seq);
            self.st.q_v.push(seq);
            self.register_waits(seq);
            return true;
        }
        // Memory instruction: tag bookkeeping in program order.
        if self.elim_on() {
            if self.try_scalar_eliminate(seq) {
                self.leave_queue_m(seq);
                self.sched.arm(StageId::IssueMem);
                return true;
            }
            if self.sse_on() && self.try_store_eliminate(seq) {
                self.leave_queue_m(seq);
                self.sched.arm(StageId::IssueMem);
                return true;
            }
            self.stage3_tag_update(seq);
        }
        if let Some(e) = self.st.rob.get_mut(seq) {
            e.mem_stage = MemStage::WaitDisamb;
        }
        // A new disambiguation candidate: register its issue-checked
        // sources (their production re-arms memory issue) and lower
        // the stage's wake to the entry's exact ready time.
        self.register_mem_waits(seq);
        self.merge_entry_wake(seq);
        true
    }

    /// Tag maintenance for a (non-eliminated) memory instruction at the
    /// Dependence stage: loads tag their destination, stores invalidate
    /// overlapping tags and tag their data register.
    fn stage3_tag_update(&mut self, seq: u64) {
        let Some(e) = self.st.rob.get(seq) else {
            return;
        };
        let Some(mem) = e.mem else { return };
        let tag = Tag::from_mem(&mem, if e.op.is_vector() { e.vl } else { 1 });
        if e.op.is_load() {
            if let Some(d) = e.dst {
                if d.class != RegClass::Mask {
                    // Indexed gathers cover a range, not an exact shape;
                    // never tag them (no exact match is possible anyway).
                    if mem.kind != MemKind::Indexed {
                        self.st.tags.table_mut(d.class).set(d.new, tag);
                        if let Some(p) = self.probe.as_deref_mut() {
                            p.holds(d.class, d.new, e.trace_idx);
                        }
                    }
                }
            }
        } else {
            self.st.tags.store_invalidate(mem.range_lo, mem.range_hi);
            if mem.kind != MemKind::Indexed {
                if let Some(&(class, phys)) = e.srcs.first() {
                    if class != RegClass::Mask {
                        self.st.tags.table_mut(class).set(phys, tag);
                        if let Some(p) = self.probe.as_deref_mut() {
                            p.store_tag(class, phys, e.trace_idx);
                        }
                    }
                }
            }
        }
    }

    /// Redundant (silent) store elimination — the extension the paper
    /// leaves as future work. If the data register's tag shows it
    /// mirrors *exactly* the bytes the store would write, memory already
    /// holds the data and the store is elided. Sound because tags are
    /// invalidated whenever the mirrored memory is overwritten or the
    /// register reallocated; the lock-step checker verifies every
    /// elision against real values.
    fn try_store_eliminate(&mut self, seq: u64) -> bool {
        let Some(e) = self.st.rob.get(seq) else {
            return false;
        };
        if !e.is_store() || e.eliminated {
            return false;
        }
        let Some(mem) = e.mem else { return false };
        if mem.kind == MemKind::Indexed {
            return false;
        }
        let Some(&(class, phys)) = e.srcs.first() else {
            return false;
        };
        if class == RegClass::Mask {
            return false;
        }
        let vl = if e.op.is_vector() { e.vl } else { 1 };
        let probe = Tag::from_mem(&mem, vl);
        if self.st.tags.table(class).get(phys) != Some(probe) {
            return false;
        }
        let now = self.now;
        let trace_idx = e.trace_idx;
        let entry = self.st.rob.get_mut(seq).expect("entry vanished");
        entry.eliminated = true;
        entry.state = EntryState::Issued;
        entry.issue_time = now;
        entry.complete_time = now + 1;
        entry.mem_stage = MemStage::Done;
        self.stats.eliminated_stores += 1;
        self.stats.eliminated_store_words += u64::from(vl);
        if let Some(p) = self.probe.as_deref_mut() {
            p.store_elim(trace_idx, class, phys);
        }
        true
    }

    /// Attempts scalar load elimination (SLE). Returns `true` if the
    /// load was satisfied by a register copy.
    fn try_scalar_eliminate(&mut self, seq: u64) -> bool {
        let Some(e) = self.st.rob.get(seq) else {
            return false;
        };
        if e.op != Opcode::SLoad || e.eliminated {
            return false;
        }
        let Some(mem) = e.mem else { return false };
        let Some(d) = e.dst else { return false };
        let probe = Tag::from_mem(&mem, 1);
        let Some(provider) = self.st.tags.table(d.class).find_match(&probe) else {
            return false;
        };
        if provider == d.new {
            return false;
        }
        let now = self.now;
        let (trace_idx, is_spill) = (e.trace_idx, e.is_spill);
        // The value is copied between physical registers; the rename
        // table is untouched (paper §6.1).
        if self.st.timing.is_produced(d.class, provider) {
            let t = self.st.timing.last(d.class, provider).max(now) + 1;
            self.set_avail(d.class, d.new, t, t);
            self.max_complete = self.max_complete.max(t);
        } else {
            self.st
                .pending_copies
                .push((d.class, d.new, d.class, provider, now));
        }
        self.st.tags.table_mut(d.class).set(d.new, probe);
        let entry = self.st.rob.get_mut(seq).expect("entry vanished");
        entry.eliminated = true;
        entry.state = EntryState::Issued;
        entry.issue_time = now;
        entry.complete_time = now + 1;
        entry.mem_stage = MemStage::Done;
        self.stats.eliminated_scalar_loads += 1;
        let _ = is_spill;
        if let Some(p) = self.probe.as_deref_mut() {
            p.scalar_elim(trace_idx, d.class, provider);
            p.holds(d.class, d.new, trace_idx);
        }
        true
    }

    /// Outcome of the stage-3 vector rename.
    fn try_vector_eliminate(&mut self, seq: u64) -> Stage3Rename {
        let Some(e) = self.st.rob.get(seq) else {
            return Stage3Rename::Renamed;
        };
        // Resolve deferred sources against the current map (before a
        // destination allocation can move it).
        let ddst = e.deferred_dst;
        let op = e.op;
        let vl = e.vl;
        let mem = e.mem;
        let trace_idx = e.trace_idx;
        let mut resolved: SrcList<(RegClass, PhysReg)> = SrcList::new();
        for &arch in &e.deferred_srcs {
            resolved.push((RegClass::V, self.st.rename.table(RegClass::V).lookup(arch)));
        }
        // Vector load elimination: probe before allocating.
        if let Some(arch) = ddst {
            let probe_hit = if self.vle_on() && op == Opcode::VLoad {
                mem.filter(|m| m.kind != MemKind::Indexed).and_then(|m| {
                    let probe = Tag::from_mem(&m, vl);
                    self.st.tags.table(RegClass::V).find_match(&probe)
                })
            } else {
                None
            };
            if let Some(provider) = probe_hit {
                self.progress(StageId::MemPipe);
                let (new, old) = self.st.rename.table_mut(RegClass::V).alias(arch, provider);
                let entry = self.st.rob.get_mut(seq).expect("entry vanished");
                entry.resolve_deferred(&resolved);
                entry.deferred_dst = None;
                entry.dst = Some(DstInfo {
                    class: RegClass::V,
                    arch,
                    new,
                    old,
                });
                entry.eliminated = true;
                entry.state = EntryState::Issued;
                entry.issue_time = self.now;
                entry.complete_time = self.now + 1;
                entry.mem_stage = MemStage::Done;
                self.stats.eliminated_vector_loads += 1;
                self.stats.eliminated_vector_words += u64::from(vl);
                if let Some(p) = self.probe.as_deref_mut() {
                    p.vector_elim(trace_idx, provider);
                }
                return Stage3Rename::Eliminated;
            }
            // Ordinary allocation. From here on the entry is mutated, so
            // the cycle counts as progress even if stage 3 then stalls
            // on a full V queue.
            let Some((new, old)) = self.st.rename.table_mut(RegClass::V).alloc(arch) else {
                return Stage3Rename::Stalled;
            };
            self.progress(StageId::MemPipe);
            self.st.tags.table_mut(RegClass::V).invalidate_reg(new);
            self.st.timing.clear(RegClass::V, new);
            let entry = self.st.rob.get_mut(seq).expect("entry vanished");
            entry.resolve_deferred(&resolved);
            entry.deferred_dst = None;
            entry.dst = Some(DstInfo {
                class: RegClass::V,
                arch,
                new,
                old,
            });
            if let Some(p) = self.probe.as_deref_mut() {
                p.holds(RegClass::V, new, trace_idx);
            }
            return Stage3Rename::Renamed;
        }
        let entry = self.st.rob.get_mut(seq).expect("entry vanished");
        entry.resolve_deferred(&resolved);
        self.progress(StageId::MemPipe);
        Stage3Rename::Renamed
    }
}
