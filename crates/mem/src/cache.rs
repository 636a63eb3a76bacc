//! Optional direct-mapped scalar data cache.
//!
//! The paper observes that data caches "have not been put into widespread
//! use in vector processors (except to cache scalar data)". The default
//! machine configurations run without a cache — matching the paper's
//! memory model — but the ablation benches use this component to quantify
//! what a scalar cache would change.
//!
//! Every vector access invalidates the lines its range overlaps. The
//! cache keeps the lowest and highest line number it has allocated
//! since it was last emptied, and a range invalidation walks only the
//! part of the range inside those bounds: a vector stream over arrays
//! the scalar accesses never touch visits no line at all.

/// A direct-mapped, write-through, no-write-allocate cache for scalar
/// (8-byte) accesses. Timing-only: it tracks tags, never data.
#[derive(Debug, Clone)]
pub struct ScalarCache {
    /// `log2(line_bytes)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `lines - 1`: a line's index is `line & index_mask`.
    index_mask: u64,
    tags: Vec<Option<u64>>,
    /// Lowest and highest line number allocated since the cache was
    /// last emptied (`lo_line > hi_line` when none was): every valid
    /// line lies between them.
    lo_line: u64,
    hi_line: u64,
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
            line_shift: line_bytes.trailing_zeros(),
            index_mask: lines as u64 - 1,
            tags: vec![None; lines],
            lo_line: u64::MAX,
            hi_line: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// `(size_bytes, line_bytes)` this cache was built with.
    #[must_use]
    pub fn geometry(&self) -> (u64, u64) {
        let line_bytes = 1 << self.line_shift;
        (self.tags.len() as u64 * line_bytes, line_bytes)
    }

    /// Empties the cache and zeroes its counters, keeping the tag
    /// storage (arena reuse).
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
    }

    /// Drops every line.
    fn flush(&mut self) {
        self.tags.fill(None);
        self.lo_line = u64::MAX;
        self.hi_line = 0;
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.index_mask) as usize, line)
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
            self.lo_line = self.lo_line.min(tag);
            self.hi_line = self.hi_line.max(tag);
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
        let first = lo >> self.line_shift;
        let last = hi >> self.line_shift;
        // A direct-mapped cache has at most `tags.len()` distinct lines;
        // wide ranges degenerate to a full flush. The flush also drops
        // the valid lines outside the range, so it is decided on the
        // whole range, before the walk is clamped to the allocated lines.
        if last - first + 1 >= self.tags.len() as u64 {
            self.flush();
            return;
        }
        for line in first.max(self.lo_line)..=last.min(self.hi_line) {
            let idx = (line & self.index_mask) as usize;
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

    #[test]
    fn wide_invalidation_drops_lines_outside_the_range() {
        let mut c = ScalarCache::new(1024, 32); // 32 lines
        c.access_load(0x100);
        c.access_load(0x120);
        // 32 lines from 0x2000: the range lies wholly above both
        // allocated lines, but it is as wide as the cache, so it
        // flushes both.
        c.invalidate_range(0x2000, 0x2000 + 32 * 32 - 1);
        assert!(!c.peek_load(0x100));
        assert!(!c.peek_load(0x120));
        // One line narrower: a plain walk that leaves both lines.
        c.access_load(0x100);
        c.access_load(0x120);
        c.invalidate_range(0x2000, 0x2000 + 31 * 32 - 1);
        assert!(c.peek_load(0x100));
        assert!(c.peek_load(0x120));
    }

    /// Range invalidation that looks up every line of the range. The
    /// oracle for the walk clamped to the allocated lines.
    fn linear_invalidate_range(c: &mut ScalarCache, lo: u64, hi: u64) {
        let first = lo >> c.line_shift;
        let last = hi >> c.line_shift;
        if last - first + 1 >= c.tags.len() as u64 {
            c.tags.fill(None);
            return;
        }
        for line in first..=last {
            let idx = (line & c.index_mask) as usize;
            if c.tags[idx] == Some(line) {
                c.tags[idx] = None;
            }
        }
    }

    /// SplitMix64 (same constants as the workspace harness).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Seeded random loads, stores, range invalidations (narrow ones,
    /// ones that straddle the allocated bounds, and ones wide enough to
    /// flush) and resets drive the bounded cache and the linear oracle
    /// side by side: every answer and, after every step, every line
    /// and counter must agree.
    #[test]
    fn bounded_invalidation_matches_the_linear_oracle() {
        for seed in 0..24u64 {
            let mut rng = 0xcac4u64 << 48 | seed;
            let lines = 1u64 << (1 + splitmix(&mut rng) % 6);
            let line_bytes = 8u64 << (splitmix(&mut rng) % 3);
            let mut c = ScalarCache::new(lines * line_bytes, line_bytes);
            let mut oracle = c.clone();
            // Two clusters far apart, so the bounds span a hole.
            let addr = |rng: &mut u64| {
                [0x1000u64, 0x40_0000][(splitmix(rng) % 2) as usize] + splitmix(rng) % 0x400
            };
            for step in 0..800 {
                let a = addr(&mut rng);
                let ctx = format!("seed {seed} step {step}");
                match splitmix(&mut rng) % 10 {
                    0..=3 => assert_eq!(c.access_load(a), oracle.access_load(a), "{ctx}: load"),
                    4 | 5 => assert_eq!(c.access_store(a), oracle.access_store(a), "{ctx}: store"),
                    6..=8 => {
                        let span = match splitmix(&mut rng) % 3 {
                            0 => splitmix(&mut rng) % (2 * line_bytes),
                            1 => splitmix(&mut rng) % 0x40_0000,
                            _ => lines * line_bytes - 1 + splitmix(&mut rng) % 64,
                        };
                        c.invalidate_range(a, a + span);
                        linear_invalidate_range(&mut oracle, a, a + span);
                    }
                    _ => {
                        c.reset();
                        oracle.reset();
                    }
                }
                assert_eq!(c.tags, oracle.tags, "{ctx}: lines");
                assert_eq!(
                    (c.hits(), c.misses()),
                    (oracle.hits(), oracle.misses()),
                    "{ctx}"
                );
            }
        }
    }
}
