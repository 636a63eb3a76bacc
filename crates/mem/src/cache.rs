//! Optional direct-mapped scalar data cache.
//!
//! The paper observes that data caches "have not been put into widespread
//! use in vector processors (except to cache scalar data)". The default
//! machine configurations run without a cache — matching the paper's
//! memory model — but the ablation benches use this component to quantify
//! what a scalar cache would change.

/// A direct-mapped, write-through, no-write-allocate cache for scalar
/// (8-byte) accesses. Timing-only: it tracks tags, never data.
#[derive(Debug, Clone)]
pub struct ScalarCache {
    line_bytes: u64,
    tags: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
}

impl ScalarCache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two and
    /// `size_bytes >= line_bytes`.
    #[must_use]
    pub fn new(size_bytes: u64, line_bytes: u64) -> Self {
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(size_bytes >= line_bytes, "cache smaller than one line");
        let lines = (size_bytes / line_bytes) as usize;
        ScalarCache {
            line_bytes,
            tags: vec![None; lines],
            hits: 0,
            misses: 0,
        }
    }

    /// `(size_bytes, line_bytes)` this cache was built with.
    #[must_use]
    pub fn geometry(&self) -> (u64, u64) {
        (self.tags.len() as u64 * self.line_bytes, self.line_bytes)
    }

    /// Empties the cache and zeroes its counters, keeping the tag
    /// storage (arena reuse).
    pub fn reset(&mut self) {
        self.tags.fill(None);
        self.hits = 0;
        self.misses = 0;
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let idx = (line as usize) % self.tags.len();
        (idx, line)
    }

    /// Performs a scalar load lookup: returns `true` on hit, allocating
    /// the line on miss.
    pub fn access_load(&mut self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        if self.tags[idx] == Some(tag) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            self.tags[idx] = Some(tag);
            false
        }
    }

    /// Non-destructive hit test (no allocation, no counters) — used by
    /// issue logic that must know whether a load needs the bus before
    /// committing to issue it.
    #[must_use]
    pub fn peek_load(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        self.tags[idx] == Some(tag)
    }

    /// Performs a scalar store (write-through, no-write-allocate,
    /// invalidate-on-hit): a hit line is dropped so the next load of the
    /// written location re-fetches from memory. Returns `true` if a line
    /// was invalidated.
    ///
    /// Invalidate-on-hit keeps spill-slot reloads expensive (they always
    /// follow a store to the same slot), matching the premise of the
    /// paper's dynamic load elimination study.
    pub fn access_store(&mut self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        if self.tags[idx] == Some(tag) {
            self.tags[idx] = None;
            true
        } else {
            false
        }
    }

    /// Invalidates every line overlapping the byte range `[lo, hi]` —
    /// used when vector stores write memory under the cache.
    pub fn invalidate_range(&mut self, lo: u64, hi: u64) {
        let first = lo / self.line_bytes;
        let last = hi / self.line_bytes;
        // A direct-mapped cache has at most `tags.len()` distinct lines;
        // wide ranges degenerate to a full flush.
        if last - first + 1 >= self.tags.len() as u64 {
            self.tags.fill(None);
            return;
        }
        for line in first..=last {
            let idx = (line as usize) % self.tags.len();
            if self.tags[idx] == Some(line) {
                self.tags[idx] = None;
            }
        }
    }

    /// Hits observed so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = ScalarCache::new(1024, 32);
        assert!(!c.access_load(0x100));
        assert!(c.access_load(0x100));
        assert!(c.access_load(0x108), "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = ScalarCache::new(64, 32); // 2 lines
        assert!(!c.access_load(0));
        assert!(!c.access_load(64)); // maps to index 0 again
        assert!(!c.access_load(0), "evicted by the conflicting access");
    }

    #[test]
    fn range_invalidation() {
        let mut c = ScalarCache::new(1024, 32);
        c.access_load(0x100);
        c.invalidate_range(0x100, 0x11f);
        assert!(!c.access_load(0x100));
    }

    #[test]
    fn wide_invalidation_flushes() {
        let mut c = ScalarCache::new(64, 32);
        c.access_load(0);
        c.access_load(32);
        c.invalidate_range(0, 1 << 20);
        assert!(!c.access_load(0));
        assert!(!c.access_load(32));
    }

    #[test]
    fn store_does_not_allocate() {
        let mut c = ScalarCache::new(1024, 32);
        assert!(!c.access_store(0x200));
        assert!(!c.access_load(0x200), "store must not have allocated");
    }

    #[test]
    fn store_invalidates_hit_line() {
        let mut c = ScalarCache::new(1024, 32);
        c.access_load(0x300); // allocate
        assert!(c.access_load(0x300));
        assert!(c.access_store(0x300), "store hits and invalidates");
        assert!(!c.access_load(0x300), "reload after store must miss");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = ScalarCache::new(1000, 32);
    }
}
