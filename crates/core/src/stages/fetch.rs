//! Instruction fetch: fills the fetch buffer in trace order, predicts
//! control transfers through the BTB and return stack, and stalls on a
//! misprediction until the resolving issue schedules the resume time.
//! O(1) per cycle, so it runs unconditionally in every engine.

use oov_isa::Opcode;

use crate::sim::{OooSim, FETCH_BUF_DEPTH};
use crate::stages::StageId;

impl OooSim<'_> {
    /// Future times the front end is waiting on: a misprediction
    /// resume and pending deferred BTB updates.
    pub(crate) fn frontend_wake_scan(&self, add: &mut impl FnMut(u64)) {
        if let Some(t) = self.fetch_resume_at {
            add(t);
        }
        for &(t, _, _, _) in &self.st.btb_updates {
            add(t);
        }
    }

    pub(crate) fn fetch(&mut self) {
        if let Some(t) = self.fetch_resume_at {
            if t <= self.now {
                self.fetch_blocked = None;
                self.fetch_resume_at = None;
                self.progress(StageId::Fetch);
            }
        }
        if self.fetch_blocked.is_some() {
            return;
        }
        if self.fetch_buffered >= FETCH_BUF_DEPTH || self.fetch_idx >= self.trace.len() {
            return;
        }
        let idx = self.fetch_idx;
        let trace = self.trace;
        let rec = &trace.records()[idx];
        self.fetch_idx += 1;
        if rec.op().is_control() {
            let actual = trace.branch(rec).expect("control without outcome");
            let mispredict = match rec.op() {
                Opcode::Branch => {
                    let (pred_taken, pred_target) = self.st.btb.predict(rec.pc());
                    pred_taken != actual.taken
                        || (actual.taken && pred_target != Some(actual.target))
                }
                Opcode::Jump | Opcode::Call => {
                    if rec.op() == Opcode::Call {
                        self.st.ras.push(rec.pc() + 4);
                    }
                    let (_, pred_target) = self.st.btb.predict(rec.pc());
                    pred_target != Some(actual.target)
                }
                Opcode::Ret => self.st.ras.pop() != Some(actual.target),
                _ => unreachable!(),
            };
            if mispredict {
                self.stats.mispredicts += 1;
                self.fetch_blocked = Some(idx);
            }
        }
        self.fetch_buffered += 1;
        if let Some(p) = self.probe.as_deref_mut() {
            p.fetch(idx, self.now);
        }
        self.progress(StageId::Fetch);
    }
}
