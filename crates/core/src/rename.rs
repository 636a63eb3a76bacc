//! Register renaming: mapping tables, free lists and reference counts.
//!
//! Paper §2.2: *"At the rename stage, a mapping table translates each
//! virtual register into a physical register. There are 4 independent
//! mapping tables ... Each mapping table has its own associated list of
//! free registers."*
//!
//! Reference counts extend the paper's scheme for dynamic load
//! elimination (§6): a vector load that matches a register tag makes a
//! *second* architectural register point at the same physical register
//! ("the destination register of the vector load is renamed to the
//! physical register it matches"), so a physical register returns to the
//! free list only when its last mapping is released.

use oov_isa::RegClass;

use crate::sim::class_ix;

/// A physical register number within one class.
pub type PhysReg = u16;

/// Rename state of one register class.
#[derive(Debug, Clone)]
pub struct RenameTable {
    class: RegClass,
    /// Architectural → physical.
    map: Vec<PhysReg>,
    /// LIFO of candidate free registers (may contain stale entries; a
    /// register is actually free iff `refcount == 0`).
    free: Vec<PhysReg>,
    refcount: Vec<u16>,
    n_phys: usize,
}

impl RenameTable {
    /// A table for `class` with no registers yet; [`RenameTable::reinit`]
    /// sizes it.
    fn empty(class: RegClass) -> Self {
        RenameTable {
            class,
            map: Vec::new(),
            free: Vec::new(),
            refcount: Vec::new(),
            n_phys: 0,
        }
    }

    /// The table for `class` with `n_phys` physical registers, built as
    /// the simulator builds it.
    #[cfg(test)]
    fn new(class: RegClass, n_phys: usize) -> Self {
        let mut t = Self::empty(class);
        t.reinit(n_phys);
        t
    }

    /// Reinitialises the table for `n_phys` physical registers: the
    /// architectural registers map to physicals `0..n_arch` and the
    /// rest are free. Reuses the table's storage (arena reuse: a size
    /// this table has held before allocates nothing). `n_phys` is above
    /// the architectural count (`OooConfig::validate` holds the bound).
    pub(crate) fn reinit(&mut self, n_phys: usize) {
        let n_arch = usize::from(self.class.arch_count());
        self.n_phys = n_phys;
        self.map.clear();
        self.map.extend(0..n_arch as PhysReg);
        self.refcount.clear();
        self.refcount.resize(n_phys, 0);
        for r in &mut self.refcount[..n_arch] {
            *r = 1;
        }
        self.free.clear();
        self.free
            .extend(((n_arch as PhysReg)..(n_phys as PhysReg)).rev());
    }

    /// Total physical registers.
    #[must_use]
    pub fn n_phys(&self) -> usize {
        self.n_phys
    }

    /// Current physical register of an architectural register.
    #[must_use]
    pub fn lookup(&self, arch: u8) -> PhysReg {
        self.map[usize::from(arch)]
    }

    /// `true` if a destination allocation would succeed.
    #[must_use]
    pub fn can_alloc(&self) -> bool {
        self.free.iter().any(|&p| self.refcount[p as usize] == 0)
    }

    /// Number of actually free physical registers.
    #[cfg(test)]
    fn free_count(&self) -> usize {
        let mut seen = vec![false; self.n_phys];
        self.free
            .iter()
            .filter(|&&p| {
                let fresh = self.refcount[p as usize] == 0 && !seen[p as usize];
                seen[p as usize] = true;
                fresh
            })
            .count()
    }

    /// Allocates a new physical register for a write to `arch`.
    /// Returns `(new_phys, old_phys)`; the old mapping must be released
    /// via [`RenameTable::release`] when the instruction commits, or
    /// undone via [`RenameTable::rollback_alloc`] on a squash.
    pub fn alloc(&mut self, arch: u8) -> Option<(PhysReg, PhysReg)> {
        let new = loop {
            let p = self.free.pop()?;
            if self.refcount[p as usize] == 0 {
                break p;
            }
            // Stale entry (resurrected by a tag match); drop it.
        };
        let old = self.map[usize::from(arch)];
        self.map[usize::from(arch)] = new;
        self.refcount[new as usize] = 1;
        Some((new, old))
    }

    /// Points `arch` at an *existing* physical register (dynamic load
    /// elimination): increments its reference count, resurrecting it from
    /// the free list if needed. Returns `(phys, old_phys)`.
    pub fn alias(&mut self, arch: u8, phys: PhysReg) -> (PhysReg, PhysReg) {
        assert!((phys as usize) < self.n_phys, "bogus physical register");
        let old = self.map[usize::from(arch)];
        self.map[usize::from(arch)] = phys;
        self.refcount[phys as usize] += 1;
        (phys, old)
    }

    /// Releases one reference to `phys` (an old mapping leaving the ROB
    /// at commit). When the last reference drops, the register returns to
    /// the free list.
    pub fn release(&mut self, phys: PhysReg) {
        let rc = &mut self.refcount[phys as usize];
        assert!(*rc > 0, "double release of p{phys}");
        *rc -= 1;
        if *rc == 0 {
            self.free.push(phys);
        }
    }

    /// Undoes an [`RenameTable::alloc`] or [`RenameTable::alias`] during
    /// a squash: restores `arch → old_phys` and drops the reference the
    /// allocation took on `new_phys`.
    pub fn rollback_alloc(&mut self, arch: u8, new_phys: PhysReg, old_phys: PhysReg) {
        debug_assert_eq!(
            self.map[usize::from(arch)],
            new_phys,
            "rollback out of order"
        );
        self.map[usize::from(arch)] = old_phys;
        self.release(new_phys);
    }

    /// Consistency check: every physical register is accounted for —
    /// reference counts match the mapping table (plus any outstanding ROB
    /// references given in `rob_refs`), and exactly the zero-refcount
    /// registers are obtainable from the free list.
    #[must_use]
    pub fn check_conservation(&self, rob_refs: &[PhysReg]) -> bool {
        let mut expect = vec![0u16; self.n_phys];
        for &p in &self.map {
            expect[p as usize] += 1;
        }
        for &p in rob_refs {
            expect[p as usize] += 1;
        }
        if expect != self.refcount {
            return false;
        }
        // Every zero-refcount register must appear in the free list.
        (0..self.n_phys as PhysReg)
            .filter(|&p| self.refcount[p as usize] == 0)
            .all(|p| self.free.contains(&p))
    }
}

/// The four rename tables of the OOOVA, indexed by
/// [`crate::sim::class_ix`]. Built empty by `Default`;
/// [`RenameUnit::reset_to`] sizes them.
#[derive(Debug, Clone)]
pub struct RenameUnit {
    tables: [RenameTable; 4],
}

impl Default for RenameUnit {
    fn default() -> Self {
        RenameUnit {
            tables: RegClass::ALL.map(RenameTable::empty),
        }
    }
}

impl RenameUnit {
    /// The table for `class`.
    #[must_use]
    pub fn table(&self, class: RegClass) -> &RenameTable {
        &self.tables[class_ix(class)]
    }

    /// Mutable table for `class`.
    pub fn table_mut(&mut self, class: RegClass) -> &mut RenameTable {
        &mut self.tables[class_ix(class)]
    }

    /// Resets the unit to the start-of-run state for the given
    /// physical counts (mask tables get 9 or more, the minimum
    /// workable size), reusing each table's storage.
    pub(crate) fn reset_to(&mut self, phys_a: usize, phys_s: usize, phys_v: usize, phys_m: usize) {
        for (t, n) in self
            .tables
            .iter_mut()
            .zip([phys_a, phys_s, phys_v, phys_m.max(9)])
        {
            t.reinit(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_mapping_is_identity() {
        let t = RenameTable::new(RegClass::V, 16);
        for a in 0..8 {
            assert_eq!(t.lookup(a), PhysReg::from(a));
        }
        assert_eq!(t.free_count(), 8);
    }

    #[test]
    fn alloc_release_cycle() {
        let mut t = RenameTable::new(RegClass::V, 9);
        let (new, old) = t.alloc(3).unwrap();
        assert_eq!(old, 3);
        assert_eq!(t.lookup(3), new);
        assert!(!t.can_alloc(), "9 phys, 8 mapped + 1 pending old");
        t.release(old); // commit
        assert!(t.can_alloc());
        let (new2, old2) = t.alloc(3).unwrap();
        assert_eq!(old2, new);
        assert_eq!(new2, old, "freed register is reused");
    }

    #[test]
    fn rollback_restores_mapping() {
        let mut t = RenameTable::new(RegClass::V, 12);
        let before = t.lookup(2);
        let (new, old) = t.alloc(2).unwrap();
        t.rollback_alloc(2, new, old);
        assert_eq!(t.lookup(2), before);
        assert!(t.check_conservation(&[]));
    }

    #[test]
    fn alias_shares_a_physical_register() {
        let mut t = RenameTable::new(RegClass::V, 16);
        let p = t.lookup(0);
        let (shared, old5) = t.alias(5, p);
        assert_eq!(shared, p);
        assert_eq!(t.lookup(5), p);
        assert_eq!(t.lookup(0), p);
        // Commit of the aliasing instruction releases arch 5's previous
        // mapping; `p` now carries two references (arch 0 and arch 5).
        t.release(old5);
        assert!(t.check_conservation(&[]));
        // Overwriting arch 5 drops one reference; `p` must stay live
        // because arch 0 still maps to it.
        let (_, old) = t.alloc(5).unwrap();
        assert_eq!(old, p);
        t.release(old);
        assert_eq!(t.lookup(0), p);
        assert!(t.check_conservation(&[]));
    }

    #[test]
    fn resurrection_from_free_list() {
        let mut t = RenameTable::new(RegClass::V, 12);
        let (new, old) = t.alloc(1).unwrap();
        t.release(old); // old now free
                        // A tag match resurrects `old` for arch 6.
        let (p, prev6) = t.alias(6, old);
        assert_eq!(p, old);
        // The stale free-list entry must not be handed out again.
        let mut allocated = vec![new];
        while let Some((n, _)) = t.alloc(0) {
            assert!(!allocated.contains(&n), "p{n} double-allocated");
            assert_ne!(n, old, "resurrected register re-allocated");
            allocated.push(n);
            assert!(allocated.len() <= 12, "allocated more registers than exist");
        }
        t.release(prev6);
    }

    #[test]
    fn conservation_detects_leaks() {
        let mut t = RenameTable::new(RegClass::S, 10);
        assert!(t.check_conservation(&[]));
        let (_, old) = t.alloc(0).unwrap();
        // Old mapping is held by the "ROB".
        assert!(t.check_conservation(&[old]));
        assert!(!t.check_conservation(&[]), "old reference unaccounted");
        t.release(old);
        assert!(t.check_conservation(&[]));
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut t = RenameTable::new(RegClass::S, 10);
        let (_, old) = t.alloc(0).unwrap();
        t.release(old);
        t.release(old);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut t = RenameTable::new(RegClass::Mask, 9);
        assert!(t.alloc(0).is_some());
        assert!(t.alloc(1).is_none(), "free list exhausted");
    }

    #[test]
    fn rename_unit_routes_classes() {
        let mut u = RenameUnit::default();
        u.reset_to(64, 64, 16, 8);
        assert_eq!(u.table(RegClass::V).n_phys(), 16);
        assert_eq!(u.table(RegClass::A).n_phys(), 64);
        // Mask tables are bumped to the minimum workable size.
        assert!(u.table(RegClass::Mask).n_phys() >= 9);
        for class in RegClass::ALL {
            assert_eq!(u.table(class).class, class);
        }
    }
}
