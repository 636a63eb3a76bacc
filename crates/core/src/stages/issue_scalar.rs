//! Scalar issue: the A (address) and S (scalar) queues, each issuing
//! one ready instruction per cycle out of order. Scalar consumption is
//! non-chained (a consumer waits for its producer's last write) and
//! there is no structural hazard beyond the queues themselves, so the
//! two queues share one implementation parameterised by queue.
//!
//! Resolved control transfers schedule their deferred BTB update here
//! and, on a misprediction, the fetch-resume time.

use oov_stats::StallKind;

use crate::rob::EntryState;
use crate::sim::OooSim;
use crate::stages::StageId;

impl OooSim<'_> {
    pub(crate) fn issue_scalar_queue(&mut self, a_queue: bool) {
        let qlen = if a_queue {
            self.st.q_a.len()
        } else {
            self.st.q_s.len()
        };
        for pos in 0..qlen {
            let seq = if a_queue {
                self.st.q_a[pos]
            } else {
                self.st.q_s[pos]
            };
            let Some(e) = self.st.rob.get(seq) else {
                continue;
            };
            if self.stepper == crate::Stepper::EventDriven {
                // Wakeup index + fused wake accumulation: entries with
                // an outstanding producer are edge-woken; a time-blocked
                // entry notes its exact ready time (max over source
                // `last` times — equivalent to `sources_ready`) into
                // the stage's wake. The naive oracle polls
                // `sources_ready` unconditionally so the parity tests
                // cross-check both the index and the accumulator.
                if e.waiting_srcs > 0 {
                    self.wait(seq, StallKind::SourcesPending);
                    continue;
                }
                let t = self.entry_ready_time(e);
                if t > self.now {
                    self.note_scan_wake(t);
                    self.wait(seq, StallKind::SourcesPending);
                    continue;
                }
            } else if !self.sources_ready(e, false) {
                self.wait(seq, StallKind::SourcesPending);
                continue;
            }
            let Some(e) = self.st.rob.get(seq) else {
                continue;
            };
            let exec = u64::from(self.cfg.lat.exec(e.op));
            let now = self.now;
            let complete = now + exec;
            let dst = e.dst;
            let (is_control, pc, branch, mispredicted) =
                (e.op.is_control(), e.pc, e.branch, e.mispredicted);
            if let Some(d) = dst {
                self.set_avail(d.class, d.new, complete, complete);
            }
            self.max_complete = self.max_complete.max(complete);
            let entry = self.st.rob.get_mut(seq).expect("entry vanished");
            entry.state = EntryState::Issued;
            entry.issue_time = now;
            entry.complete_time = complete;
            if is_control {
                if let Some(b) = branch {
                    self.st.btb_updates.push((complete, pc, b.taken, b.target));
                }
                if mispredicted {
                    let resume = complete + u64::from(self.cfg.lat.mispredict_penalty);
                    self.fetch_resume_at = Some(resume);
                }
            }
            if a_queue {
                self.st.q_a.remove(pos);
                self.progress(StageId::IssueA);
            } else {
                self.st.q_s.remove(pos);
                self.progress(StageId::IssueS);
            }
            return;
        }
    }
}
