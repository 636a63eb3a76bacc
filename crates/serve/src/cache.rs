//! Suite memoisation: one `Suite::compile` per scale, ever.
//!
//! Compiling the ten-kernel suite is the single most expensive step of
//! answering a cold request (tens of milliseconds at paper scale —
//! dwarfing a cached simulation), so the server holds one lazily
//! compiled [`Suite`] per [`Scale`] for the life of the process.
//! `OnceLock` gives exactly-once semantics under concurrency: when
//! several workers race on a cold scale, one compiles while the rest
//! block, and the compile counter can never exceed one per scale.
//! The counters live in the server's registry (`cache.suite_requests`
//! counts lookups, hits included; `cache.suite_compiles_{smoke,paper}`
//! stay at most 1), so `metrics` and `stats` both report them.

use std::sync::{Arc, OnceLock};

use oov_bench::Suite;
use oov_kernels::Scale;
use oov_obs::{Counter, Registry};

/// Lazily-populated, per-scale suite cache.
pub struct SuiteCache {
    smoke: OnceLock<Arc<Suite>>,
    paper: OnceLock<Arc<Suite>>,
    requests: Arc<Counter>,
    compiles_smoke: Arc<Counter>,
    compiles_paper: Arc<Counter>,
}

impl SuiteCache {
    /// A cache with both scales cold, counting into `metrics`.
    #[must_use]
    pub fn new(metrics: &Registry) -> Self {
        SuiteCache {
            smoke: OnceLock::new(),
            paper: OnceLock::new(),
            requests: metrics.counter("cache.suite_requests"),
            compiles_smoke: metrics.counter("cache.suite_compiles_smoke"),
            compiles_paper: metrics.counter("cache.suite_compiles_paper"),
        }
    }

    /// The compiled suite for `scale`, compiling it on first use.
    #[must_use]
    pub fn get(&self, scale: Scale) -> Arc<Suite> {
        self.requests.inc();
        let (slot, compiles) = match scale {
            Scale::Smoke => (&self.smoke, &self.compiles_smoke),
            Scale::Paper => (&self.paper, &self.compiles_paper),
        };
        Arc::clone(slot.get_or_init(|| {
            compiles.inc();
            Arc::new(Suite::compile(scale))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_once_per_scale_under_concurrency() {
        let metrics = Registry::new();
        let cache = SuiteCache::new(&metrics);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let suite = cache.get(Scale::Smoke);
                    assert_eq!(suite.iter().count(), 10);
                });
            }
        });
        assert_eq!(metrics.counter("cache.suite_requests").get(), 8);
        assert_eq!(metrics.counter("cache.suite_compiles_smoke").get(), 1);
        assert_eq!(metrics.counter("cache.suite_compiles_paper").get(), 0);
        let smoke = cache.get(Scale::Smoke);
        let a = smoke.iter().next().unwrap().1.trace.len();
        drop(smoke);
        assert_eq!(metrics.counter("cache.suite_requests").get(), 9);
        // (Compiling paper here would be slow; its slot is exercised
        // structurally by the counter instead.)
        assert!(a > 0);
    }
}
