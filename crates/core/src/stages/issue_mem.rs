//! Out-of-order memory issue under range-based disambiguation
//! (paper §2.2): `WaitDisamb` entries issue their element streams over
//! the shared address bus once no earlier, unissued, overlapping
//! access blocks them — with indexed accesses gated on their index
//! vector, stores on chained data (and, under late commit, on reaching
//! the ROB head), and scalar loads able to bypass the bus on a cache
//! hit.
//!
//! It is a masked stage: it sleeps whenever a failed scan proves
//! nothing can issue, waking at the earliest ready time the failed scan
//! saw or on one of the state edges the module docs of
//! [`crate::stages`] enumerate. The cost is the walk over queue M, not
//! the disambiguation check. Counted over one paper-scale pass of
//! perfbench's 1500 OOOVA `grid` points, the stage issues 2.45M
//! accesses; the walks visit 16.4M queue-M entries in 3.33M scans and
//! compare 7.2M range pairs. Two rules keep it from waking in vain:
//! it sleeps until the bus frees whenever the bus is busy and no scalar
//! load waits (1.79M such O(1) fires), and a late-commit head move
//! wakes it only for a store that became the head. Without them the
//! same pass fires the stage 6.47M times (3.65M of them with the bus
//! busy) and visits 58.1M entries.
//!
//! Only `WaitDisamb` entries are candidates. The memory pipe admits
//! queue-M entries in queue order, so the candidates form a prefix of
//! the queue, but both engines walk the whole queue and skip the rest:
//! stopping at the first non-candidate measured flat (see
//! [`crate::stages`]).

use oov_isa::{CommitMode, MemKind, Opcode, RegClass};
use oov_stats::StallKind;

use crate::rob::{EntryState, MemStage};
use crate::sim::OooSim;
use crate::stages::StageId;

impl OooSim<'_> {
    pub(crate) fn issue_mem(&mut self) {
        // Bus-busy sleep (untraced event engine only): while the bus is
        // busy only a scalar-cache hit can issue, so with no scalar load
        // waiting nothing can until the bus frees. Every other entry's
        // ready time includes `bus.free_at()`, so that wake is never
        // later than a full scan's. A traced scan walks on, so the
        // ordered checks still name each entry's stall.
        if self.stepper == crate::Stepper::EventDriven
            && self.probe.is_none()
            && self.sloads_waiting == 0
            && !self.bus.is_free(self.now)
        {
            self.note_scan_wake(self.bus.free_at());
            return;
        }
        'outer: for pos in 0..self.st.q_m.len() {
            let seq = self.st.q_m[pos];
            let Some(e) = self.st.rob.get(seq) else {
                continue;
            };
            if e.mem_stage != MemStage::WaitDisamb {
                // Entries before stage 3 (and vector computes in the VLE
                // pipe) cannot issue.
                continue;
            }
            // Wakeup index + fused wake accumulation (event engine
            // only): `entry_ready_time` is `u64::MAX` while a
            // registered data/index source is unproduced (an edge
            // wake), else the exact time the index, data-chaining and
            // bus checks below pass. A time-blocked entry notes that
            // time and skips the disambiguation walk; traced, it falls
            // through instead, so the ordered checks name the reason.
            // The naive oracle performs the full checks so parity
            // validates both.
            if self.stepper == crate::Stepper::EventDriven {
                let t = self.entry_ready_time(e);
                if t > self.now {
                    self.note_scan_wake(t);
                    if self.probe.is_none() {
                        continue;
                    }
                }
            }
            let Some(e) = self.st.rob.get(seq) else {
                continue;
            };
            let mem = e.mem.expect("memory entry without memref");
            let is_store = e.is_store();
            // Disambiguation: check every earlier, unissued memory entry.
            for ppos in 0..pos {
                let Some(p) = self.st.rob.get(self.st.q_m[ppos]) else {
                    continue;
                };
                if p.mem_stage == MemStage::Done {
                    continue;
                }
                if !p.op.is_mem() {
                    continue; // vector compute in the VLE pipe
                }
                let both_loads = p.op.is_load() && !is_store;
                if both_loads {
                    continue;
                }
                match p.mem {
                    Some(pm) if pm.ranges_overlap(&mem) => {
                        self.wait(seq, StallKind::MemDisambiguation);
                        continue 'outer;
                    }
                    // Range not yet known (still in early stages): since
                    // ours is known and theirs is not, be conservative.
                    None => {
                        self.wait(seq, StallKind::MemDisambiguation);
                        continue 'outer;
                    }
                    _ => {}
                }
            }
            // Indexed accesses need their index vector fully available.
            if mem.kind == MemKind::Indexed {
                let idx_pos = if e.op == Opcode::VScatter { 1 } else { 0 };
                let Some(&(c, p)) = e.srcs.get(idx_pos) else {
                    continue;
                };
                if !self.st.timing.is_produced(c, p) || self.st.timing.last(c, p) + 1 > self.now {
                    self.wait(seq, StallKind::IndexVectorWait);
                    continue;
                }
            }
            if is_store {
                // Data must chain into the store unit.
                let Some(&(c, p)) = e.srcs.first() else {
                    continue;
                };
                match self.src_ready_time(c, p, true) {
                    Some(t) if t <= self.now => {}
                    _ => {
                        self.wait(seq, StallKind::StoreDataWait);
                        continue;
                    }
                }
                // Late commit: stores execute only at the ROB head.
                if self.cfg.commit == CommitMode::Late && self.st.rob.head_seq() != Some(seq) {
                    self.wait(seq, StallKind::LateCommitHead);
                    continue;
                }
            }
            // Scalar-cache hits bypass the shared address bus; everything
            // else must wait for it.
            let cache_hit = e.op == Opcode::SLoad
                && self
                    .st
                    .cache
                    .as_ref()
                    .map(|c| c.peek_load(mem.base))
                    .unwrap_or(false);
            if !cache_hit && !self.bus.is_free(self.now) {
                self.wait(seq, StallKind::BusBusy);
                continue;
            }
            self.do_issue_mem(seq, cache_hit, pos);
            return;
        }
    }

    /// `q_pos` is the entry's position in `q_m`.
    fn do_issue_mem(&mut self, seq: u64, cache_hit: bool, q_pos: usize) {
        let e = self.st.rob.get(seq).expect("entry vanished");
        let vl = if e.op.is_vector() { e.vl } else { 1 };
        let is_load = e.op.is_load();
        let is_vector = e.op.is_vector();
        let is_spill = e.is_spill;
        let dst = e.dst;
        let op = e.op;
        let mem = e.mem;
        if op == Opcode::SLoad {
            self.sloads_waiting -= 1;
        }
        let data_src = if e.is_store() {
            e.srcs.first().copied()
        } else {
            None
        };
        let latency = u64::from(self.cfg.lat.memory);
        // Cache maintenance (timing-only).
        if let (Some(cache), Some(m)) = (&mut self.st.cache, &mem) {
            match op {
                Opcode::SLoad => {
                    let hit = cache.access_load(m.base);
                    debug_assert_eq!(hit, cache_hit, "peek/access divergence");
                    if hit {
                        let hit_lat = u64::from(
                            self.cfg
                                .scalar_cache
                                .expect("cache without config")
                                .hit_latency,
                        );
                        let done = self.now + hit_lat;
                        if let Some(d) = dst {
                            self.set_avail(d.class, d.new, done, done);
                        }
                        self.max_complete = self.max_complete.max(done);
                        let entry = self.st.rob.get_mut(seq).expect("entry vanished");
                        entry.state = EntryState::Issued;
                        entry.issue_time = self.now;
                        entry.complete_time = done;
                        entry.mem_stage = MemStage::Done;
                        self.st.q_m.remove(q_pos);
                        self.progress(StageId::IssueMem);
                        return;
                    }
                }
                Opcode::SStore => {
                    cache.access_store(m.base);
                }
                _ => {
                    cache.invalidate_range(m.range_lo, m.range_hi);
                }
            }
        }
        let grant = self.bus.reserve(self.now, u64::from(vl));
        debug_assert_eq!(grant.start, self.now);
        self.st
            .occ
            .busy(oov_stats::VectorUnit::Mem, grant.start, grant.last);
        if is_load {
            self.traffic.record_load(u64::from(vl), is_spill, is_vector);
        } else {
            self.traffic
                .record_store(u64::from(vl), is_spill, is_vector);
        }
        let complete = if is_load {
            let first = grant.start + latency;
            let last = grant.last + latency;
            if let Some(d) = dst {
                self.set_avail(d.class, d.new, first, last);
            }
            last
        } else {
            // Store data streams from its register: occupy the read port.
            if let Some((c, p)) = data_src {
                if c == RegClass::V {
                    self.st.timing.read_port_free[p as usize] = grant.last + 1;
                }
            }
            grant.last
        };
        self.max_complete = self.max_complete.max(complete);
        let entry = self.st.rob.get_mut(seq).expect("entry vanished");
        entry.state = EntryState::Issued;
        entry.issue_time = grant.start;
        entry.complete_time = complete;
        entry.mem_stage = MemStage::Done;
        self.st.q_m.remove(q_pos);
        self.progress(StageId::IssueMem);
    }
}
