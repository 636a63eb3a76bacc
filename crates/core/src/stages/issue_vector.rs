//! Vector-queue issue: out-of-order selection of one ready vector
//! instruction per cycle onto FU1 or FU2 (divides and square roots are
//! FU2-only), with chained source consumption, dedicated per-register
//! read ports, and reductions draining the full vector before their
//! scalar result lands.

use oov_isa::{FuClass, RegClass};
use oov_stats::StallKind;

use crate::rob::EntryState;
use crate::sim::OooSim;
use crate::stages::StageId;

impl OooSim<'_> {
    pub(crate) fn issue_vector(&mut self) {
        let lat = self.cfg.lat;
        for pos in 0..self.st.q_v.len() {
            let seq = self.st.q_v[pos];
            let Some(e) = self.st.rob.get(seq) else {
                continue;
            };
            // The event engine proves most rejections with the wakeup
            // index and `entry_ready_time` (chained sources, read
            // ports and both FUs folded into one time, so `t <= now` is
            // exactly "`sources_ready` and an FU is free"), noting a
            // time-blocked entry's ready time into the stage's wake.
            // Traced, a time-blocked entry falls through to the naive
            // oracle's ordered checks so they name the reason. The
            // naive oracle always polls, so the parity tests
            // cross-check index and accumulator alike.
            let mut known_ready = false;
            if self.stepper == crate::Stepper::EventDriven {
                if e.waiting_srcs > 0 {
                    self.wait(seq, StallKind::SourcesPending);
                    continue;
                }
                let t = self.entry_ready_time(e);
                known_ready = t <= self.now;
                if !known_ready {
                    self.note_scan_wake(t);
                    if self.probe.is_none() {
                        continue;
                    }
                }
            }
            let Some(e) = self.st.rob.get(seq) else {
                continue;
            };
            if !known_ready && !self.sources_ready(e, true) {
                self.wait(seq, StallKind::SourcesPending);
                continue;
            }
            let fu2_only = e.op.fu_class() == FuClass::VecFu2Only;
            let use_fu2 = if fu2_only {
                if self.fu2_free > self.now {
                    self.wait(seq, StallKind::FuBusy);
                    continue;
                }
                true
            } else if self.fu1_free <= self.now {
                false
            } else if self.fu2_free <= self.now {
                true
            } else {
                self.wait(seq, StallKind::FuBusy);
                continue;
            };
            // Issue.
            let vl = u64::from(e.vl);
            let leff = u64::from(lat.first_result(e.op));
            let srcs = e.srcs;
            let dst = e.dst;
            let now = self.now;
            let busy_until = now + vl.max(1);
            if use_fu2 {
                self.fu2_free = busy_until;
                self.st
                    .occ
                    .busy(oov_stats::VectorUnit::Fu2, now, busy_until - 1);
            } else {
                self.fu1_free = busy_until;
                self.st
                    .occ
                    .busy(oov_stats::VectorUnit::Fu1, now, busy_until - 1);
            }
            for &(c, p) in &srcs {
                if c == RegClass::V {
                    self.st.timing.read_port_free[p as usize] = busy_until;
                }
            }
            let complete = if let Some(d) = dst {
                let (first, last) = if d.class.is_scalar() {
                    // Reductions deliver after draining the vector.
                    let done = now + leff + vl;
                    (done, done)
                } else {
                    (now + leff, now + leff + vl - 1)
                };
                self.set_avail(d.class, d.new, first, last);
                last
            } else {
                now + leff + vl - 1
            };
            self.max_complete = self.max_complete.max(complete);
            let entry = self.st.rob.get_mut(seq).expect("entry vanished");
            entry.state = EntryState::Issued;
            entry.issue_time = now;
            entry.complete_time = complete;
            self.st.q_v.remove(pos);
            self.progress(StageId::IssueVector);
            return;
        }
    }
}
