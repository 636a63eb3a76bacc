//! Writeback phase: deferred BTB updates and pending eliminated-load
//! copies.
//!
//! Two small, unordered pools of delayed effects resolve here:
//!
//! * **BTB updates** — a resolved control transfer updates the branch
//!   target buffer at its completion time, not at issue
//!   ([`crate::OooSim::apply_btb_updates`]). The pending times also feed
//!   the dead-cycle skip target (`OooSim::frontend_wake_scan`).
//! * **Eliminated-load copies** — a scalar load eliminated against a
//!   provider that had not yet produced its value waits here for the
//!   provider, then completes as a register-to-register copy
//!   ([`crate::OooSim::resolve_pending_copies`]). The pool is almost
//!   always empty.
//!
//! Both sweeps run on every walked cycle in both engines: an empty pool
//! costs a length check, a pending one a walk over a few entries.

use crate::sim::OooSim;
use crate::stages::StageId;

impl OooSim<'_> {
    /// Applies every deferred BTB update whose time has come.
    pub(crate) fn apply_btb_updates(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.st.btb_updates.len() {
            if self.st.btb_updates[i].0 <= now {
                let (_, pc, taken, target) = self.st.btb_updates.swap_remove(i);
                self.st.btb.update(pc, taken, target);
                self.progress(StageId::Writeback);
            } else {
                i += 1;
            }
        }
    }

    /// Completes eliminated scalar loads whose provider has produced.
    pub(crate) fn resolve_pending_copies(&mut self) {
        let mut i = 0;
        while i < self.st.pending_copies.len() {
            let (dc, dp, pc_, pp, min_t) = self.st.pending_copies[i];
            if self.st.timing.is_produced(pc_, pp) {
                let t = self.st.timing.last(pc_, pp).max(min_t) + 1;
                self.set_avail(dc, dp, t, t);
                self.max_complete = self.max_complete.max(t);
                self.st.pending_copies.swap_remove(i);
                self.progress(StageId::Writeback);
            } else {
                i += 1;
            }
        }
    }
}
