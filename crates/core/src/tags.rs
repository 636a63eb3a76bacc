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

    /// Exact-match test (paper §6.1: "an exact match requires all tag
    /// fields to be identical").
    #[must_use]
    pub fn matches(&self, other: &Tag) -> bool {
        self == other
    }

    /// Conservative overlap test against a byte range.
    #[must_use]
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.lo <= hi && lo <= self.hi
    }
}

/// Tag storage for one register class.
#[derive(Debug, Clone, Default)]
pub struct TagTable {
    tags: Vec<Option<Tag>>,
}

impl TagTable {
    /// Sets the tag of `reg` (a load completed into it, or it was the
    /// data source of a store).
    pub fn set(&mut self, reg: PhysReg, tag: Tag) {
        self.tags[reg as usize] = Some(tag);
    }

    /// The current tag of `reg`, if valid.
    #[must_use]
    pub fn get(&self, reg: PhysReg) -> Option<Tag> {
        self.tags[reg as usize]
    }

    /// Invalidates the tag of `reg` (the register was reallocated and no
    /// longer mirrors memory).
    pub fn invalidate_reg(&mut self, reg: PhysReg) {
        self.tags[reg as usize] = None;
    }

    /// Invalidates every tag overlapping `[lo, hi]` (a store wrote that
    /// range). Returns how many tags were invalidated.
    pub fn invalidate_range(&mut self, lo: u64, hi: u64) -> usize {
        let mut n = 0;
        for t in &mut self.tags {
            if t.map(|tag| tag.overlaps(lo, hi)).unwrap_or(false) {
                *t = None;
                n += 1;
            }
        }
        n
    }

    /// Finds a physical register whose tag exactly matches `probe`.
    #[must_use]
    pub fn find_match(&self, probe: &Tag) -> Option<PhysReg> {
        self.tags
            .iter()
            .position(|t| t.map(|tag| tag.matches(probe)).unwrap_or(false))
            .map(|i| i as PhysReg)
    }

    /// Invalidates everything (used on pipeline squashes).
    pub fn clear(&mut self) {
        self.tags.fill(None);
    }

    /// Sizes the table for `n_phys` registers with every tag invalid,
    /// reusing storage when the size is unchanged (arena reuse).
    pub(crate) fn reset(&mut self, n_phys: usize) {
        self.tags.clear();
        self.tags.resize(n_phys, None);
    }

    /// Number of valid tags.
    #[cfg(test)]
    fn valid_count(&self) -> usize {
        self.tags.iter().filter(|t| t.is_some()).count()
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
        assert!(a.matches(&vtag(0x1000, 8, 64)));
        assert!(!a.matches(&vtag(0x1000, 8, 32)), "different vl");
        assert!(!a.matches(&vtag(0x1000, 16, 64)), "different stride");
        assert!(!a.matches(&vtag(0x1008, 8, 64)), "different base");
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
        assert_eq!(t.valid_count(), 0);
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
}
