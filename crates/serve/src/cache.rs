//! Suite memoisation: one `Suite::compile` per scale, ever.
//!
//! Compiling the ten-kernel suite is the single most expensive step of
//! answering a cold request (tens of milliseconds at paper scale —
//! dwarfing a cached simulation), so the server holds one lazily
//! compiled [`Suite`] per [`Scale`] for the life of the process.
//! `OnceLock` gives exactly-once semantics under concurrency: when
//! several workers race on a cold scale, one compiles while the rest
//! block, and the compile counter can never exceed one per scale —
//! which `loadgen` proves over the wire via [`SuiteCache::requests`]
//! vs [`SuiteCache::compiles`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use oov_bench::Suite;
use oov_kernels::Scale;

/// Lazily-populated, per-scale suite cache.
#[derive(Default)]
pub struct SuiteCache {
    smoke: OnceLock<Arc<Suite>>,
    paper: OnceLock<Arc<Suite>>,
    requests: AtomicU64,
    compiles_smoke: AtomicU64,
    compiles_paper: AtomicU64,
}

impl SuiteCache {
    /// A cache with both scales cold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled suite for `scale`, compiling it on first use.
    #[must_use]
    pub fn get(&self, scale: Scale) -> Arc<Suite> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (slot, compiles) = match scale {
            Scale::Smoke => (&self.smoke, &self.compiles_smoke),
            Scale::Paper => (&self.paper, &self.compiles_paper),
        };
        Arc::clone(slot.get_or_init(|| {
            compiles.fetch_add(1, Ordering::Relaxed);
            Arc::new(Suite::compile(scale))
        }))
    }

    /// Total lookups (cache hits included).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// `(smoke, paper)` compile counts — each at most 1 by
    /// construction.
    #[must_use]
    pub fn compiles(&self) -> (u64, u64) {
        (
            self.compiles_smoke.load(Ordering::Relaxed),
            self.compiles_paper.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_once_per_scale_under_concurrency() {
        let cache = SuiteCache::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let suite = cache.get(Scale::Smoke);
                    assert_eq!(suite.iter().count(), 10);
                });
            }
        });
        assert_eq!(cache.requests(), 8);
        assert_eq!(cache.compiles(), (1, 0));
        // The two scales get distinct suites.
        let smoke = cache.get(Scale::Smoke);
        let a = smoke.iter().next().unwrap().1.trace.len();
        drop(smoke);
        // (Compiling paper here would be slow; the per-scale slots are
        // exercised structurally by the counters instead.)
        assert!(a > 0);
    }
}
