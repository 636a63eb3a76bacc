//! Sparse word-addressed memory image.
//!
//! A [`MemImage`] maps word addresses (`addr >> 3`) to values in a
//! `HashMap`. It may sit over a shared, immutable [`BaseImage`] (a
//! compiled program's seeded `mem_init`, built in `oov-vcc`): loads
//! check the image's own map first and fall through to the base,
//! stores always land in the own map, so the base is never written and
//! sibling images never see each other's stores. [`MemImage::reset_to_base`] only clears the
//! own map, which keeps its capacity, so a warm replay does no seeding
//! and no allocation.
//!
//! All addresses are byte addresses; accesses are 8-byte aligned words
//! (the study's access granularity — paper §6.1 tags carry `sz`, which
//! is always 8 here), and `addr` is rounded down to a word boundary.
//! Uninitialised words read as zero. A word is *written* once some
//! store targeted it, even a store of zero; [`MemImage::len`],
//! [`MemImage::iter`] and `==` observe the written set, counting a base
//! word the image shadows once. Strided and indexed accesses are plain
//! per-element loops in element order with wrapping address
//! arithmetic, so duplicate scatter addresses keep last-writer-wins.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oov_vcc::{BaseImage, WordMap};

static TABLE_GROWTHS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of word-table growths: each time an image's own
/// word map reallocates to a larger capacity. A cleared map keeps its
/// capacity, so a warm replay of the same workload counts none. Debug
/// instrumentation for the allocation-free replay assertion — always 0
/// in release builds.
#[must_use]
pub fn page_allocations() -> u64 {
    TABLE_GROWTHS.load(Ordering::Relaxed)
}

/// A sparse memory image of 64-bit words, optionally over a shared
/// [`BaseImage`]. See the module docs.
#[derive(Clone, Default)]
pub struct MemImage {
    /// Words this image stored, by word address.
    own: WordMap,
    /// The seed reads fall through to.
    base: Option<Arc<BaseImage>>,
}

impl fmt::Debug for MemImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemImage")
            .field("words", &self.len())
            .field("base_words", &self.base_len())
            .finish()
    }
}

impl PartialEq for MemImage {
    /// Equality on the *written* state: both images have written
    /// exactly the same set of words, with equal values.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .all(|(a, v)| other.is_written(a) && other.load(a) == v)
    }
}

impl Eq for MemImage {}

impl MemImage {
    /// An empty image (all zeros).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An image that reads `base` until it stores over it.
    #[must_use]
    pub fn fork(base: &Arc<BaseImage>) -> Self {
        MemImage {
            base: Some(Arc::clone(base)),
            ..Self::default()
        }
    }

    /// Rewinds this image to a fresh fork of `base`. The own map is
    /// cleared, not freed, so replaying the same workload again stores
    /// into the capacity the last run grew.
    pub fn reset_to_base(&mut self, base: &Arc<BaseImage>) {
        self.own.clear();
        self.base = Some(Arc::clone(base));
    }

    fn base_word(&self, word: u64) -> Option<u64> {
        self.base.as_deref()?.words().get(&word).copied()
    }

    fn base_len(&self) -> usize {
        self.base.as_deref().map_or(0, BaseImage::len)
    }

    /// Reads the word at byte address `addr` (rounded down to 8 bytes).
    #[must_use]
    pub fn load(&self, addr: u64) -> u64 {
        let word = addr >> 3;
        match self.own.get(&word) {
            Some(&v) => v,
            None => self.base_word(word).unwrap_or(0),
        }
    }

    /// Writes the word at byte address `addr` (rounded down to 8 bytes).
    pub fn store(&mut self, addr: u64, value: u64) {
        let capacity = self.own.capacity();
        self.own.insert(addr >> 3, value);
        if cfg!(debug_assertions) && self.own.capacity() != capacity {
            TABLE_GROWTHS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `true` if some store targeted the word at `addr` (even a zero),
    /// in this image or in its base.
    #[must_use]
    pub fn is_written(&self, addr: u64) -> bool {
        let word = addr >> 3;
        self.own.contains_key(&word) || self.base_word(word).is_some()
    }

    /// Reads `out.len()` words at byte stride `stride` from `base`:
    /// `out[i] = load(base + stride·i)`.
    pub fn load_strided(&self, base: u64, stride: i64, out: &mut [u64]) {
        let mut addr = base;
        for o in out {
            *o = self.load(addr);
            addr = addr.wrapping_add_signed(stride);
        }
    }

    /// Writes `vals` at byte stride `stride` from `base`:
    /// `store(base + stride·i, vals[i])`, in element order.
    pub fn store_strided(&mut self, base: u64, stride: i64, vals: &[u64]) {
        let mut addr = base;
        for &v in vals {
            self.store(addr, v);
            addr = addr.wrapping_add_signed(stride);
        }
    }

    /// Gather: `out[i] = load(base + idx[i])`, in element order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` and `out` differ in length.
    pub fn load_indexed(&self, base: u64, idx: &[u64], out: &mut [u64]) {
        assert_eq!(idx.len(), out.len(), "gather index/output length mismatch");
        for (o, &off) in out.iter_mut().zip(idx) {
            *o = self.load(base.wrapping_add(off));
        }
    }

    /// Scatter: `store(base + idx[i], vals[i])`, in element order
    /// (duplicate addresses keep last-writer-wins semantics).
    ///
    /// # Panics
    ///
    /// Panics if `idx` and `vals` differ in length.
    pub fn store_indexed(&mut self, base: u64, idx: &[u64], vals: &[u64]) {
        assert_eq!(idx.len(), vals.len(), "scatter index/value length mismatch");
        for (&off, &v) in idx.iter().zip(vals) {
            self.store(base.wrapping_add(off), v);
        }
    }

    /// Stores `(base address, words)` runs (a compiled program's
    /// `mem_init`) in order, word `i` of a run at `base + 8 * i`.
    pub fn seed(&mut self, runs: &[(u64, Vec<u64>)]) {
        for (base, run) in runs {
            for (i, &v) in (0..).zip(run) {
                self.store(base + 8 * i, v);
            }
        }
    }

    /// Number of words ever written, a shadowed base word counted once.
    /// Walks the stored words, so stores stay a single map insert.
    #[must_use]
    pub fn len(&self) -> usize {
        let shadowed = self
            .own
            .keys()
            .filter(|&&w| self.base_word(w).is_some())
            .count();
        self.own.len() + self.base_len() - shadowed
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(address, value)` over all written words, unordered —
    /// the image's own words first, then every base word it has not
    /// shadowed.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let fall_through = self
            .base
            .iter()
            .flat_map(|b| b.words())
            .filter(|(w, _)| !self.own.contains_key(w));
        self.own
            .iter()
            .chain(fall_through)
            .map(|(&w, &v)| (w << 3, v))
    }

    /// `true` if the written (non-zero-default) state of `self` and
    /// `other` is observationally equal: every word written in either
    /// image reads the same in both.
    #[must_use]
    pub fn same_contents(&self, other: &MemImage) -> bool {
        self.iter().all(|(a, v)| other.load(a) == v) && other.iter().all(|(a, v)| self.load(a) == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reads_zero() {
        let m = MemImage::new();
        assert_eq!(m.load(0x1234), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn store_then_load() {
        let mut m = MemImage::new();
        m.store(0x1000, 42);
        assert_eq!(m.load(0x1000), 42);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unaligned_access_rounds_down() {
        let mut m = MemImage::new();
        m.store(0x1003, 9);
        assert_eq!(m.load(0x1000), 9);
        assert_eq!(m.load(0x1007), 9);
        assert_eq!(m.load(0x1008), 0);
    }

    #[test]
    fn same_contents_ignores_explicit_zeros() {
        let mut a = MemImage::new();
        let mut b = MemImage::new();
        a.store(0x10, 0); // explicit zero equals missing word
        assert!(a.same_contents(&b));
        b.store(0x20, 5);
        assert!(!a.same_contents(&b));
        a.store(0x20, 5);
        assert!(a.same_contents(&b));
    }

    #[test]
    fn strided_negative_matches_elementwise() {
        let mut m = MemImage::new();
        let vals = [111u64, 222, 333];
        m.store_strided(0x3000, -8, &vals);
        assert_eq!(m.load(0x3000), 111);
        assert_eq!(m.load(0x2ff8), 222);
        assert_eq!(m.load(0x2ff0), 333);
        let mut out = [0u64; 3];
        m.load_strided(0x3000, -8, &mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn strided_wide_stride_uses_element_path() {
        let mut m = MemImage::new();
        m.store_strided(0x100, 4096 + 8, &[7, 8, 9]);
        assert_eq!(m.load(0x100), 7);
        assert_eq!(m.load(0x100 + 4104), 8);
        assert_eq!(m.load(0x100 + 2 * 4104), 9);
        let mut out = [0u64; 3];
        m.load_strided(0x100, 4096 + 8, &mut out);
        assert_eq!(out, [7, 8, 9]);
    }

    #[test]
    fn strided_run_wrapping_the_address_space_matches_elementwise() {
        // Up from the top of the address space, and down from the
        // bottom: both runs wrap past 2^64.
        for (start, stride) in [(u64::MAX - 15, 8i64), (0x10, -8)] {
            let vals: Vec<u64> = (1..=6).collect();
            let mut strided = MemImage::new();
            strided.store_strided(start, stride, &vals);
            let mut elementwise = MemImage::new();
            for (i, &v) in vals.iter().enumerate() {
                elementwise.store(start.wrapping_add_signed(stride * i as i64), v);
            }
            assert_eq!(strided, elementwise, "start {start:#x} stride {stride}");
            assert_eq!(strided.len(), vals.len());
            let mut out = [0u64; 6];
            strided.load_strided(start, stride, &mut out);
            assert_eq!(out[..], vals[..]);
        }
    }

    #[test]
    fn indexed_round_trip_and_duplicate_order() {
        let mut m = MemImage::new();
        m.store_indexed(0x1000, &[0, 0x20, 0], &[1, 2, 3]);
        // Duplicate address 0x1000: last writer (element 2) wins.
        assert_eq!(m.load(0x1000), 3);
        assert_eq!(m.load(0x1020), 2);
        let mut out = [0u64; 2];
        m.load_indexed(0x1000, &[0x20, 0], &mut out);
        assert_eq!(out, [2, 3]);
    }

    #[test]
    fn seed_matches_per_pair_stores() {
        let runs = vec![
            (0x2000, (0..600u64).map(|i| i * 3).collect()),
            (0x9_0000, vec![77]),
            (0x2000, vec![88]), // a later run's word at the same address wins
        ];
        let mut m = MemImage::new();
        m.seed(&runs);
        let mut reference = MemImage::new();
        for (base, words) in &runs {
            for (i, &v) in (0..).zip(words) {
                reference.store(base + 8 * i, v);
            }
        }
        assert_eq!(m, reference);
        assert_eq!(m.len(), 601);
        assert_eq!(m.load(0x2000), 88);
        assert_eq!(m.load(0x2000 + 8 * 599), 599 * 3);
        let base = BaseImage::seeded(&runs);
        assert_eq!(MemImage::fork(&Arc::new(base)), reference);
    }

    #[test]
    fn eq_requires_same_written_set() {
        let mut a = MemImage::new();
        let mut b = MemImage::new();
        a.store(0x10, 0);
        // `a` wrote an explicit zero; `b` wrote nothing. Observational
        // reads agree (same_contents) but the written sets differ.
        assert!(a.same_contents(&b));
        assert_ne!(a, b);
        b.store(0x10, 0);
        assert_eq!(a, b);
    }

    // ------------------------------------------------------------------
    // Images over a shared base.
    // ------------------------------------------------------------------

    /// SplitMix64 (same constants as the workspace harness).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn seeded_base() -> Arc<BaseImage> {
        Arc::new(BaseImage::seeded(&[
            (0x1000, vec![11, 22]),
            (0xff8, vec![33]),
            (0x9_0000, vec![44]),
        ]))
    }

    #[test]
    fn fork_reads_fall_through_without_storing() {
        let base = seeded_base();
        let f = MemImage::fork(&base);
        assert_eq!(f.load(0x1000), 11);
        assert_eq!(f.load(0x9_0000), 44);
        assert_eq!(f.load(0x5000), 0, "unwritten reads stay zero");
        assert!(f.is_written(0x1008));
        assert!(!f.is_written(0x5000));
        assert_eq!(f.len(), base.len());
        assert!(f.own.is_empty(), "reads must not store");
    }

    #[test]
    fn fork_store_shadows_one_word_and_leaves_base_untouched() {
        let base = seeded_base();
        let mut f = MemImage::fork(&base);
        f.store(0x1000, 99);
        assert_eq!(f.load(0x1000), 99);
        assert_eq!(f.load(0x1008), 22, "neighbours still fall through");
        assert_eq!(f.own.len(), 1, "exactly one word stored");
        // Base immutability: the base and a sibling fork still see the
        // original value.
        assert_eq!(base.words()[&(0x1000 >> 3)], 11);
        let sibling = MemImage::fork(&base);
        assert_eq!(sibling.load(0x1000), 11);
        // Overwriting a base word does not change len; writing a fresh
        // word does.
        assert_eq!(f.len(), base.len());
        f.store(0x1010, 7);
        assert_eq!(f.len(), base.len() + 1);
    }

    #[test]
    fn sibling_forks_are_isolated() {
        let base = seeded_base();
        let mut a = MemImage::fork(&base);
        let mut b = MemImage::fork(&base);
        a.store(0x1000, 100);
        b.store(0x1000, 200);
        assert_eq!(a.load(0x1000), 100);
        assert_eq!(b.load(0x1000), 200);
        b.store(0x2000, 5);
        assert_eq!(a.load(0x2000), 0);
    }

    #[test]
    fn fork_matches_reseeded_image_observationally() {
        let runs = [(0x3000, (0..700u64).map(|i| i * 7).collect())];
        let base = Arc::new(BaseImage::seeded(&runs));
        let mut fork = MemImage::fork(&base);
        let mut flat = MemImage::new();
        flat.seed(&runs);
        assert_eq!(fork, flat);
        assert!(fork.same_contents(&flat) && flat.same_contents(&fork));
        // Divergence breaks both, symmetrically.
        fork.store(0x3000, u64::MAX);
        assert_ne!(fork, flat);
        assert!(!fork.same_contents(&flat));
        flat.store(0x3000, u64::MAX);
        assert_eq!(fork, flat);
        // A reset forgets the divergence.
        fork.reset_to_base(&base);
        assert_eq!(fork.load(0x3000), 0);
        assert_eq!(fork.len(), 700);
    }

    /// Addresses cluster around a few small regions, sometimes
    /// unaligned, so stores often land on seeded words and on each
    /// other.
    fn rand_addr(rng: &mut u64) -> u64 {
        let region = [0x0, 0xf00, 0x7ff8, 0x1234_5000][(splitmix(rng) % 4) as usize];
        region + (splitmix(rng) % 0x220) * 8 + (splitmix(rng) % 3)
    }

    /// Random traffic builds a base; a fork then takes more random
    /// traffic and must match a flat image seeded with the same runs
    /// that took the same stores, while the base stays unchanged.
    #[test]
    fn model_based_fork_against_reference() {
        for seed in 0..16u64 {
            let mut rng = 0xc0u64 << 56 | seed;
            let runs: Vec<(u64, Vec<u64>)> = (0..120)
                .map(|_| (rand_addr(&mut rng), vec![splitmix(&mut rng) % 50]))
                .collect();
            let base = Arc::new(BaseImage::seeded(&runs));
            let mut flat = MemImage::new();
            flat.seed(&runs);
            let base_snapshot = flat.clone();
            let mut fork = MemImage::fork(&base);
            for step in 0..200 {
                let addr = rand_addr(&mut rng);
                match splitmix(&mut rng) % 4 {
                    0 => {
                        let v = splitmix(&mut rng) % 50;
                        fork.store(addr, v);
                        flat.store(addr, v);
                    }
                    1 => {
                        let n = (splitmix(&mut rng) % 96) as usize + 1;
                        let stride = [8i64, -8, 24][(splitmix(&mut rng) % 3) as usize];
                        let vals: Vec<u64> = (0..n).map(|_| splitmix(&mut rng) % 50).collect();
                        fork.store_strided(addr, stride, &vals);
                        flat.store_strided(addr, stride, &vals);
                    }
                    2 => assert_eq!(
                        fork.load(addr),
                        flat.load(addr),
                        "seed {seed} step {step}: load({addr:#x})"
                    ),
                    _ => assert_eq!(
                        fork.is_written(addr),
                        flat.is_written(addr),
                        "seed {seed} step {step}: is_written({addr:#x})"
                    ),
                }
                assert_eq!(fork.len(), flat.len(), "seed {seed} step {step}: len");
                assert_eq!(fork, flat, "seed {seed} step {step}: eq");
            }
            let mut got: Vec<(u64, u64)> = fork.iter().collect();
            let mut want: Vec<(u64, u64)> = flat.iter().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}: iter");
            // The base never moved.
            assert_eq!(
                MemImage::fork(&base),
                base_snapshot,
                "seed {seed}: base mutated"
            );
        }
    }
}
