//! Cooperative run budgets: cycle caps, deadlines and cancellation
//! for [`OooSim`](crate::OooSim) runs.
//!
//! A simulation is pure compute — once launched it never blocks — so
//! the only way to stop a runaway or no-longer-wanted run is for the
//! engine itself to check. A [`RunBudget`] threads those limits in:
//! the engine polls the cheap limit (the simulated-cycle cap) every
//! step and amortises the expensive ones (wall-clock deadline, the
//! shared cancel flag) to every [`BUDGET_CHECK_INTERVAL`] steps and
//! every cycle-skip boundary. A run with no budget attached pays
//! nothing — the default path is bit-identical to the pre-budget
//! engine, which is what keeps the naive/event parity grid honest.
//!
//! The serve daemon is the consumer: a request whose `deadline_ms`
//! expires mid-simulation aborts with
//! [`AbortReason::DeadlineExpired`] instead of completing uselessly,
//! shutdown flips one [`AtomicBool`] to cancel every in-flight job,
//! and a hard per-job cycle cap contains pathological configs.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Engine steps between wall-clock / cancel-flag polls. An engine step
/// is a handful of queue walks at most, so this amortises the
/// `Instant::now()` syscall and the shared-cache-line load to noise
/// while still bounding reaction latency to a few thousand steps.
pub const BUDGET_CHECK_INTERVAL: u32 = 1024;

/// Limits on one simulation run, all optional; the default is
/// unlimited (and costs nothing — see the module docs).
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    /// Hard cap on the simulated-cycle clock; crossing it aborts with
    /// [`AbortReason::CycleCapExceeded`].
    pub max_cycles: Option<u64>,
    /// Wall-clock deadline; polled amortised, so the abort lands
    /// within [`BUDGET_CHECK_INTERVAL`] steps of expiry.
    pub deadline: Option<Instant>,
    /// Shared cancel flag (e.g. flipped by a server's shutdown path);
    /// polled amortised like `deadline`.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RunBudget {
    /// No limits at all — equivalent to not attaching a budget.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when every limit is absent (the engine drops such a budget
    /// at attach time, keeping the hot loop branch-free).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_cycles.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// Sets the simulated-cycle cap.
    #[must_use]
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = Some(cycles);
        self
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a shared cancel flag.
    #[must_use]
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }
}

/// Which budget limit stopped a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The shared cancel flag was set.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The simulated-cycle clock crossed `max_cycles`.
    CycleCapExceeded,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AbortReason::Cancelled => "cancelled",
            AbortReason::DeadlineExpired => "deadline expired",
            AbortReason::CycleCapExceeded => "cycle cap exceeded",
        })
    }
}

/// A budgeted run that stopped before committing its whole trace.
/// Carries enough progress state to log usefully; the simulator's
/// storage has still been returned to the arena by
/// [`OooSim::try_run_into`](crate::OooSim::try_run_into), so an abort
/// costs no allocations on the next run either.
#[derive(Clone, Debug)]
pub struct RunAborted {
    /// Which limit fired.
    pub reason: AbortReason,
    /// Instructions committed before the abort.
    pub committed: u64,
    /// Simulated cycle at the abort.
    pub cycles: u64,
}

impl std::fmt::Display for RunAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run aborted ({}) at cycle {} with {} instructions committed",
            self.reason, self.cycles, self.committed
        )
    }
}

impl std::error::Error for RunAborted {}
