//! Register memory tags for dynamic load elimination (paper §6).
//!
//! *"A tag is associated with each physical register (A, S and V). This
//! tag indicates the memory locations currently being held by the
//! register. For vector registers, the tag is a 6-tuple
//! (@1, @2, vl, vs, sz, v)."*
//!
//! Loads fill the tag of their destination; stores tag the register they
//! store from and (conservatively) invalidate every overlapping tag; a
//! later load whose tag *exactly* matches an existing one is redundant
//! and can be satisfied by a rename-table update (vectors) or a register
//! copy (scalars).
//!
//! Each class keeps only its valid tags in a dense list, with a
//! per-register slot index, so a load's probe and a store's
//! invalidation walk the live tags and never the invalid slots. Over
//! one paper-scale pass of perfbench `grid` (1500 OOOVA points) the
//! register-indexed table examined 38.7M slots in 1.57M probes and
//! 32.8M in store invalidations; 17.9M and 4.1M of them held a valid
//! tag, and those are all the valid list visits.

use oov_isa::{MemRef, RegClass};

use crate::rename::PhysReg;

/// A register memory tag: the byte range `[lo, hi]` the register's value
/// mirrors, plus the access shape that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// First byte covered.
    pub lo: u64,
    /// Last byte covered (inclusive).
    pub hi: u64,
    /// Vector length of the access (1 for scalars).
    pub vl: u16,
    /// Element stride in bytes (0 for scalars).
    pub stride: i64,
    /// Access granularity in bytes.
    pub sz: u8,
}

impl Tag {
    /// Builds the tag describing a memory access.
    #[must_use]
    pub fn from_mem(mem: &MemRef, vl: u16) -> Self {
        Tag {
            lo: mem.range_lo,
            hi: mem.range_hi,
            vl,
            stride: mem.stride,
            sz: mem.granularity,
        }
    }

    /// Conservative overlap test against a byte range.
    #[must_use]
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.lo <= hi && lo <= self.hi
    }
}

/// Marks a register with no valid tag in [`TagTable::pos`].
const NO_TAG: u32 = u32::MAX;

/// Tag storage for one register class. The valid tags sit in a dense,
/// unordered list (`tags[i]` is the tag of `regs[i]`), and `pos` maps
/// each register to its slot there, so setting or dropping one tag is
/// O(1) and a probe or a store walks only the valid tags.
#[derive(Debug, Clone, Default)]
pub struct TagTable {
    tags: Vec<Tag>,
    regs: Vec<PhysReg>,
    /// Per physical register: its index in `tags`, or [`NO_TAG`].
    pos: Vec<u32>,
}

impl TagTable {
    /// Sets the tag of `reg` (a load completed into it, or it was the
    /// data source of a store).
    pub fn set(&mut self, reg: PhysReg, tag: Tag) {
        match self.pos[reg as usize] {
            NO_TAG => {
                self.pos[reg as usize] = self.tags.len() as u32;
                self.tags.push(tag);
                self.regs.push(reg);
            }
            i => self.tags[i as usize] = tag,
        }
    }

    /// The current tag of `reg`, if valid.
    #[must_use]
    pub fn get(&self, reg: PhysReg) -> Option<Tag> {
        match self.pos[reg as usize] {
            NO_TAG => None,
            i => Some(self.tags[i as usize]),
        }
    }

    /// Invalidates the tag of `reg` (the register was reallocated and no
    /// longer mirrors memory).
    pub fn invalidate_reg(&mut self, reg: PhysReg) {
        let i = self.pos[reg as usize];
        if i != NO_TAG {
            self.remove_at(i as usize);
        }
    }

    /// Drops the valid tag in slot `i`, moving the last one into it.
    fn remove_at(&mut self, i: usize) {
        self.pos[self.regs[i] as usize] = NO_TAG;
        self.tags.swap_remove(i);
        self.regs.swap_remove(i);
        if let Some(&moved) = self.regs.get(i) {
            self.pos[moved as usize] = i as u32;
        }
    }

    /// Invalidates every tag overlapping `[lo, hi]` (a store wrote that
    /// range). Returns how many tags were invalidated.
    pub fn invalidate_range(&mut self, lo: u64, hi: u64) -> usize {
        let mut n = 0;
        let mut i = 0;
        while i < self.tags.len() {
            if self.tags[i].overlaps(lo, hi) {
                self.remove_at(i);
                n += 1;
            } else {
                i += 1;
            }
        }
        n
    }

    /// Finds the lowest-numbered physical register whose tag exactly
    /// matches `probe` (paper §6.1: "an exact match requires all tag
    /// fields to be identical"). Several registers can hold one tag —
    /// an eliminated scalar load tags its destination with its
    /// provider's — so the whole valid list is walked.
    #[must_use]
    pub fn find_match(&self, probe: &Tag) -> Option<PhysReg> {
        let mut best: Option<PhysReg> = None;
        for (tag, &reg) in self.tags.iter().zip(&self.regs) {
            if tag == probe && best.is_none_or(|b| reg < b) {
                best = Some(reg);
            }
        }
        best
    }

    /// Invalidates everything (used on pipeline squashes).
    pub fn clear(&mut self) {
        for &reg in &self.regs {
            self.pos[reg as usize] = NO_TAG;
        }
        self.tags.clear();
        self.regs.clear();
    }

    /// Sizes the table for `n_phys` registers with every tag invalid,
    /// reusing storage (arena reuse).
    pub(crate) fn reset(&mut self, n_phys: usize) {
        self.tags.clear();
        self.regs.clear();
        self.pos.clear();
        self.pos.resize(n_phys, NO_TAG);
    }
}

/// Tags for the three taggable classes (A, S, V — masks are never
/// memory-resident).
#[derive(Debug, Clone, Default)]
pub struct TagUnit {
    a: TagTable,
    s: TagTable,
    v: TagTable,
}

impl TagUnit {
    /// The table for `class`.
    ///
    /// # Panics
    ///
    /// Panics for the mask class, which is never tagged.
    #[must_use]
    pub fn table(&self, class: RegClass) -> &TagTable {
        match class {
            RegClass::A => &self.a,
            RegClass::S => &self.s,
            RegClass::V => &self.v,
            RegClass::Mask => panic!("mask registers carry no memory tags"),
        }
    }

    /// Mutable table for `class`.
    pub fn table_mut(&mut self, class: RegClass) -> &mut TagTable {
        match class {
            RegClass::A => &mut self.a,
            RegClass::S => &mut self.s,
            RegClass::V => &mut self.v,
            RegClass::Mask => panic!("mask registers carry no memory tags"),
        }
    }

    /// A store to `[lo, hi]` invalidates overlapping tags in *all*
    /// classes ("scalar store addresses still need to be compared against
    /// vector register tags and vector stores ... against scalar tags").
    pub fn store_invalidate(&mut self, lo: u64, hi: u64) -> usize {
        self.a.invalidate_range(lo, hi)
            + self.s.invalidate_range(lo, hi)
            + self.v.invalidate_range(lo, hi)
    }

    /// Clears every tag (squash recovery).
    pub fn clear(&mut self) {
        self.a.clear();
        self.s.clear();
        self.v.clear();
    }

    /// Sizes the tables to the physical register files with every tag
    /// invalid (arena reuse).
    pub(crate) fn reset_to(&mut self, phys_a: usize, phys_s: usize, phys_v: usize) {
        self.a.reset(phys_a);
        self.s.reset(phys_s);
        self.v.reset(phys_v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_isa::MemRef;

    fn table(n_phys: usize) -> TagTable {
        let mut t = TagTable::default();
        t.reset(n_phys);
        t
    }

    fn unit(n_phys: usize) -> TagUnit {
        let mut u = TagUnit::default();
        u.reset_to(n_phys, n_phys, n_phys);
        u
    }

    fn vtag(base: u64, stride: i64, vl: u16) -> Tag {
        Tag::from_mem(&MemRef::strided(base, stride, vl), vl)
    }

    #[test]
    fn exact_match_requires_all_fields() {
        let a = vtag(0x1000, 8, 64);
        let mut t = table(4);
        t.set(1, a);
        assert_eq!(t.find_match(&vtag(0x1000, 8, 64)), Some(1));
        assert_eq!(t.find_match(&vtag(0x1000, 8, 32)), None, "different vl");
        assert_eq!(
            t.find_match(&vtag(0x1000, 16, 64)),
            None,
            "different stride"
        );
        assert_eq!(t.find_match(&vtag(0x1008, 8, 64)), None, "different base");
    }

    #[test]
    fn find_match_and_invalidate() {
        let mut t = table(16);
        t.set(5, vtag(0x1000, 8, 64));
        assert_eq!(t.find_match(&vtag(0x1000, 8, 64)), Some(5));
        // A store into the middle of the range kills the tag.
        assert_eq!(t.invalidate_range(0x1100, 0x1107), 1);
        assert_eq!(t.find_match(&vtag(0x1000, 8, 64)), None);
    }

    #[test]
    fn disjoint_store_preserves_tags() {
        let mut t = table(16);
        t.set(3, vtag(0x1000, 8, 16)); // [0x1000, 0x107f]
        assert_eq!(t.invalidate_range(0x2000, 0x2007), 0);
        assert!(t.find_match(&vtag(0x1000, 8, 16)).is_some());
    }

    #[test]
    fn strided_tag_overlap_is_conservative() {
        // Stride-16 tag covers [0x1000, 0x1000+15*16+7]; a store at
        // 0x1008 (an address the access never touched) still invalidates:
        // "this invalidation may be done conservatively".
        let mut t = table(8);
        t.set(0, vtag(0x1000, 16, 16));
        assert_eq!(t.invalidate_range(0x1008, 0x100f), 1);
    }

    #[test]
    fn reallocation_invalidates() {
        let mut t = table(8);
        t.set(2, vtag(0x4000, 8, 8));
        t.invalidate_reg(2);
        assert_eq!(t.get(2), None);
        assert!(t.tags.is_empty() && t.regs.is_empty());
    }

    #[test]
    fn store_invalidate_crosses_classes() {
        let mut u = unit(8);
        let scalar_tag = Tag::from_mem(&MemRef::scalar(0x1010), 1);
        u.table_mut(RegClass::S).set(1, scalar_tag);
        u.table_mut(RegClass::V).set(2, vtag(0x1000, 8, 64));
        // A vector store overlapping both kills both.
        assert_eq!(u.store_invalidate(0x1000, 0x10ff), 2);
    }

    #[test]
    #[should_panic(expected = "no memory tags")]
    fn mask_class_rejected() {
        let u = unit(8);
        let _ = u.table(RegClass::Mask);
    }

    #[test]
    fn duplicate_tags_resolve_to_the_lowest_register() {
        let mut t = table(16);
        let tag = vtag(0x2000, 8, 32);
        for reg in [9, 4, 12] {
            t.set(reg, tag);
        }
        assert_eq!(t.find_match(&tag), Some(4));
        t.invalidate_reg(4);
        assert_eq!(t.find_match(&tag), Some(9));
        t.set(2, tag);
        assert_eq!(t.find_match(&tag), Some(2));
    }

    /// A register-indexed table: one slot per register, every probe
    /// and store walking all of them. The oracle for the valid lists.
    #[derive(Debug, Clone, Default)]
    struct LinearTagTable {
        tags: Vec<Option<Tag>>,
    }

    impl LinearTagTable {
        fn new(n_phys: usize) -> Self {
            LinearTagTable {
                tags: vec![None; n_phys],
            }
        }

        fn invalidate_range(&mut self, lo: u64, hi: u64) -> usize {
            let mut n = 0;
            for t in &mut self.tags {
                if t.map(|tag| tag.overlaps(lo, hi)).unwrap_or(false) {
                    *t = None;
                    n += 1;
                }
            }
            n
        }

        fn find_match(&self, probe: &Tag) -> Option<PhysReg> {
            self.tags
                .iter()
                .position(|t| t.as_ref() == Some(probe))
                .map(|i| i as PhysReg)
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

    /// Seeded random traffic over the three classes drives the valid
    /// lists and the linear oracle side by side; every answer and, after
    /// every step, every register's tag must agree. Tags come from a
    /// small pool, so duplicates (where the lowest register must win)
    /// and overlapping store ranges are common.
    #[test]
    fn valid_lists_match_the_linear_oracle() {
        const CLASSES: [RegClass; 3] = [RegClass::A, RegClass::S, RegClass::V];
        for seed in 0..24u64 {
            let mut rng = 0x7a95u64 << 48 | seed;
            let n_phys = 9 + (splitmix(&mut rng) % 56) as usize;
            let mut u = unit(n_phys);
            let mut oracle = [(); 3].map(|()| LinearTagTable::new(n_phys));
            let pool: Vec<Tag> = (0..12)
                .map(|_| {
                    let base = 0x1000 + (splitmix(&mut rng) % 64) * 8;
                    if splitmix(&mut rng).is_multiple_of(2) {
                        Tag::from_mem(&MemRef::scalar(base), 1)
                    } else {
                        let vl = [4u16, 16, 64][(splitmix(&mut rng) % 3) as usize];
                        vtag(base, [8i64, 16, -8][(splitmix(&mut rng) % 3) as usize], vl)
                    }
                })
                .collect();
            for step in 0..600 {
                let ci = (splitmix(&mut rng) % 3) as usize;
                let class = CLASSES[ci];
                let reg = (splitmix(&mut rng) % n_phys as u64) as PhysReg;
                let tag = pool[(splitmix(&mut rng) % pool.len() as u64) as usize];
                let lo = 0x1000 + (splitmix(&mut rng) % 0x300);
                let hi = lo + (splitmix(&mut rng) % 0x80);
                let ctx = format!("seed {seed} step {step}");
                match splitmix(&mut rng) % 16 {
                    0..=5 => {
                        u.table_mut(class).set(reg, tag);
                        oracle[ci].tags[reg as usize] = Some(tag);
                    }
                    6 | 7 => {
                        u.table_mut(class).invalidate_reg(reg);
                        oracle[ci].tags[reg as usize] = None;
                    }
                    8 => assert_eq!(
                        u.table_mut(class).invalidate_range(lo, hi),
                        oracle[ci].invalidate_range(lo, hi),
                        "{ctx}: invalidate_range"
                    ),
                    9..=12 => assert_eq!(
                        u.table(class).find_match(&tag),
                        oracle[ci].find_match(&tag),
                        "{ctx}: find_match"
                    ),
                    13 | 14 => {
                        let want: usize =
                            oracle.iter_mut().map(|o| o.invalidate_range(lo, hi)).sum();
                        assert_eq!(u.store_invalidate(lo, hi), want, "{ctx}: store_invalidate");
                    }
                    _ => {
                        u.clear();
                        for o in &mut oracle {
                            o.tags.fill(None);
                        }
                    }
                }
                for (ci, o) in oracle.iter().enumerate() {
                    let t = u.table(CLASSES[ci]);
                    for (reg, want) in o.tags.iter().enumerate() {
                        assert_eq!(t.get(reg as PhysReg), *want, "{ctx}: class {ci} p{reg}");
                    }
                    assert_eq!(
                        t.tags.len(),
                        o.tags.iter().flatten().count(),
                        "{ctx}: valid count"
                    );
                }
            }
        }
    }
}
