//! Deterministic server-side fault injection — the `--chaos` mode.
//!
//! Every fault decision is a pure function of a seed and a sequence
//! number (SplitMix64, the same generator the property suites use), so
//! a chaos run is a *plan*, not a dice roll: tests replay the exact
//! decision function to predict which job panics, which response is
//! delayed and which connection is dropped, and CI failures reproduce
//! from the seed alone.
//!
//! Faults come in two layers:
//!
//! * **worker faults** ([`ChaosConfig::job_fault`]) keyed by
//!   `(worker, k)` where `k` counts jobs a pool-worker incarnation has
//!   dequeued: an injected panic caught by the job-level
//!   `catch_unwind` (answered as a structured error), a *hard* panic
//!   raised outside the catch region (kills the worker thread, so the
//!   supervisor's respawn path runs), or a service delay;
//! * **connection faults** ([`ChaosConfig::drop_connection`]) keyed by
//!   `(connection id, request index)`: the server abruptly closes the
//!   socket after reading a request, exercising client retry and
//!   reconnect paths.

use std::time::Duration;

/// SplitMix64 — one decorrelation step over a combined key.
#[must_use]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the chaos plan injects into one worker job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFault {
    /// No fault: the job executes normally.
    None,
    /// Panic inside the job `catch_unwind` region: the client sees a
    /// structured error, the worker keeps serving.
    Panic,
    /// Panic outside the catch region: the worker thread dies and the
    /// supervisor respawns it (`shard.<n>.respawns`).
    HardPanic,
    /// Sleep this long before servicing the job (tail-latency and
    /// deadline pressure).
    Delay(Duration),
}

/// A deterministic fault-injection plan. All rates are per-mille
/// (0–1000); bands are disjoint, carved from one roll in the order
/// hard panic → panic → delay, so `hard_panic_permille +
/// panic_permille + delay_permille` must stay ≤ 1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Root seed of the plan; every decision mixes it in.
    pub seed: u64,
    /// Rate of caught (soft) worker panics.
    pub panic_permille: u16,
    /// Rate of worker-killing (hard) panics.
    pub hard_panic_permille: u16,
    /// Rate of delayed jobs.
    pub delay_permille: u16,
    /// How long a delayed job sleeps.
    pub delay_ms: u64,
    /// Rate of server-side connection drops, per request read.
    pub drop_permille: u16,
}

impl ChaosConfig {
    /// The preset behind `serve --chaos`: enough
    /// injected failure to exercise every recovery path in a short
    /// run without drowning it (≈3% soft panics, ≈0.3% worker kills,
    /// ≈3% delayed jobs, ≈1% dropped connections).
    #[must_use]
    pub fn light(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_permille: 30,
            hard_panic_permille: 3,
            delay_permille: 30,
            delay_ms: 10,
            drop_permille: 10,
        }
    }

    /// The fault injected into the `k`-th job dequeued by this
    /// incarnation of pool worker `worker`. Pure: the same `(seed,
    /// worker, k)` always decides the same fault, which the chaos
    /// tests rely on to predict outcomes.
    #[must_use]
    pub fn job_fault(&self, worker: usize, k: u64) -> JobFault {
        let roll = splitmix(self.seed ^ ((worker as u64) << 48) ^ k) % 1000;
        let hard = u64::from(self.hard_panic_permille);
        let soft = hard + u64::from(self.panic_permille);
        let delay = soft + u64::from(self.delay_permille);
        if roll < hard {
            JobFault::HardPanic
        } else if roll < soft {
            JobFault::Panic
        } else if roll < delay {
            JobFault::Delay(Duration::from_millis(self.delay_ms))
        } else {
            JobFault::None
        }
    }

    /// Whether the server drops connection `conn` after reading its
    /// `k`-th request (before any response is written).
    #[must_use]
    pub fn drop_connection(&self, conn: u64, k: u64) -> bool {
        // A distinct stream from the job rolls: mix in a constant tag.
        let roll = splitmix(self.seed ^ 0xD80F_C0DE ^ (conn << 32) ^ k) % 1000;
        roll < u64::from(self.drop_permille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_band_partitioned() {
        let cfg = ChaosConfig {
            seed: 42,
            panic_permille: 200,
            hard_panic_permille: 50,
            delay_permille: 100,
            delay_ms: 5,
            drop_permille: 100,
        };
        let mut counts = [0usize; 4];
        for k in 0..10_000 {
            let a = cfg.job_fault(1, k);
            assert_eq!(a, cfg.job_fault(1, k), "same key, same fault");
            counts[match a {
                JobFault::None => 0,
                JobFault::Panic => 1,
                JobFault::HardPanic => 2,
                JobFault::Delay(_) => 3,
            }] += 1;
        }
        // Rates land near the configured per-milles (±50% slack: this
        // checks band wiring, not PRNG quality).
        assert!((1000..3000).contains(&counts[1]), "panics: {counts:?}");
        assert!((250..750).contains(&counts[2]), "hard: {counts:?}");
        assert!((500..1500).contains(&counts[3]), "delays: {counts:?}");
        // Different shards see different plans.
        let differs = (0..100).any(|k| cfg.job_fault(0, k) != cfg.job_fault(1, k));
        assert!(differs, "shard index must decorrelate the plan");
        // Connection drops are a distinct, deterministic stream.
        let drops = (0..10_000).filter(|&k| cfg.drop_connection(7, k)).count();
        assert_eq!(
            cfg.drop_connection(7, 3),
            cfg.drop_connection(7, 3),
            "drop decision must be stable"
        );
        assert!((500..1500).contains(&drops), "drops: {drops}");
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let cfg = ChaosConfig {
            seed: 7,
            panic_permille: 0,
            hard_panic_permille: 0,
            delay_permille: 0,
            delay_ms: 0,
            drop_permille: 0,
        };
        for k in 0..1000 {
            assert_eq!(cfg.job_fault(0, k), JobFault::None);
            assert!(!cfg.drop_connection(0, k));
        }
    }
}
