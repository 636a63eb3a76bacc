//! Decode/rename/dispatch: pulls one instruction per cycle from the
//! fetch buffer, renames its registers (deferring vector operands to
//! the Dependence stage under VLE), allocates a reorder-buffer slot
//! and routes the entry to its issue queue. Stalls — and their
//! per-cycle counters — happen here when the ROB, the target queue or
//! the rename free list is exhausted.

use oov_isa::{ArchReg, InstRecord, Opcode, RegClass};

use crate::rob::{DstInfo, EntryState, MemStage, QueueKind, RobEntry, SrcList};
use crate::sim::OooSim;
use crate::stages::StageId;

impl OooSim<'_> {
    pub(crate) fn route_queue(&self, rec: &InstRecord) -> QueueKind {
        if self.uses_mem_pipe(rec) {
            return QueueKind::M;
        }
        if rec.op().is_vector() {
            return QueueKind::V;
        }
        match rec.op() {
            Opcode::SAddA | Opcode::SetVl | Opcode::SetVs => QueueKind::A,
            Opcode::SLui if matches!(rec.dst(), Some(ArchReg::A(_))) => QueueKind::A,
            _ => QueueKind::S,
        }
    }

    pub(crate) fn queue_of(&mut self, kind: QueueKind) -> &mut Vec<u64> {
        match kind {
            QueueKind::A => &mut self.st.q_a,
            QueueKind::S => &mut self.st.q_s,
            QueueKind::V => &mut self.st.q_v,
            QueueKind::M => &mut self.st.q_m,
        }
    }

    pub(crate) fn dispatch(&mut self) {
        if self.fetch_buffered == 0 {
            return;
        }
        let idx = self.fetch_idx - self.fetch_buffered;
        let trace = self.trace;
        let rec = &trace.records()[idx];
        if self.st.rob.is_full() {
            self.stats.rob_stall_cycles += 1;
            return;
        }
        let kind = self.route_queue(rec);
        if self.queue_of(kind).len() >= self.cfg.queue_slots {
            self.stats.queue_stall_cycles += 1;
            return;
        }
        let defer_vector = kind == QueueKind::M && self.vle_on();
        // Rename sources.
        let mut srcs = SrcList::new();
        let mut deferred_srcs = SrcList::new();
        for s in rec.sources() {
            let class = s.class();
            if defer_vector && class == RegClass::V {
                deferred_srcs.push(s.index());
            } else {
                srcs.push((class, self.st.rename.table(class).lookup(s.index())));
            }
        }
        // Rename destination.
        let mut dst: Option<DstInfo> = None;
        let mut deferred_dst: Option<u8> = None;
        if let Some(d) = rec.dst() {
            let class = d.class();
            if defer_vector && class == RegClass::V {
                deferred_dst = Some(d.index());
            } else {
                if !self.st.rename.table(class).can_alloc() {
                    self.stats.rename_stall_cycles += 1;
                    return;
                }
                let (new, old) = self
                    .st
                    .rename
                    .table_mut(class)
                    .alloc(d.index())
                    .expect("can_alloc lied");
                if class != RegClass::Mask && self.elim_on() {
                    self.st.tags.table_mut(class).invalidate_reg(new);
                }
                self.st.timing.clear(class, new);
                dst = Some(DstInfo {
                    class,
                    arch: d.index(),
                    new,
                    old,
                });
            }
        }
        let mispredicted = self.fetch_blocked == Some(idx);
        let entry = RobEntry {
            seq: 0,
            trace_idx: idx,
            op: rec.op(),
            vl: rec.vl(),
            is_spill: rec.is_spill(),
            mem: trace.mem(rec),
            branch: trace.branch(rec),
            pc: rec.pc(),
            srcs,
            deferred_srcs,
            dst,
            deferred_dst,
            state: EntryState::Waiting,
            issue_time: 0,
            complete_time: 0,
            mem_stage: MemStage::None,
            eliminated: false,
            mispredicted,
            waiting_srcs: 0,
            qkind: kind,
        };
        let seq = self.st.rob.push(entry);
        if let Some(p) = self.probe.as_deref_mut() {
            let dst = dst.map(|d| (d.class, d.new));
            p.dispatch(seq, idx, rec.op(), rec.vl(), dst, self.now);
        }
        self.queue_of(kind).push(seq);
        // M-queue entries are tracked by the memory pipe, not the
        // source-wakeup index (their readiness checks are per-operand at
        // issue); everything else registers its outstanding sources.
        if kind == QueueKind::M {
            self.st.pipe_pending.push_back(seq);
        } else {
            self.register_waits(seq);
        }
        self.fetch_buffered -= 1;
        if rec.op() == Opcode::Branch {
            self.stats.branches += 1;
        }
        self.progress(StageId::Dispatch);
    }
}
