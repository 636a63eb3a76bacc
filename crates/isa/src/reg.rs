//! Architectural registers of the reference (Convex C3400-like) ISA.

use std::fmt;

/// Number of architectural address (`A`) registers.
pub const NUM_A_REGS: u8 = 8;
/// Number of architectural scalar (`S`) registers.
pub const NUM_S_REGS: u8 = 8;
/// Number of architectural vector (`V`) registers.
pub const NUM_V_REGS: u8 = 8;
/// Number of architectural vector-mask registers.
pub const NUM_MASK_REGS: u8 = 8;
/// Maximum vector length: each vector register holds 128 × 64-bit elements.
pub const MAX_VL: u16 = 128;

/// The four architectural register classes of the machine.
///
/// The out-of-order implementation keeps one rename map and one free list
/// per class (paper §2.2: "There are 4 independent mapping tables, one for
/// each type of register: A, S, V and mask registers").
///
/// The default, [`RegClass::A`], carries no meaning: it only fills the
/// unused slots of fixed-capacity operand lists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// Address registers (scalar unit).
    #[default]
    A,
    /// Scalar data registers (scalar unit).
    S,
    /// Vector registers (128 × 64-bit elements).
    V,
    /// Vector mask registers.
    Mask,
}

impl RegClass {
    /// All register classes, in a stable order.
    pub const ALL: [RegClass; 4] = [RegClass::A, RegClass::S, RegClass::V, RegClass::Mask];

    /// Number of *architectural* registers in this class.
    #[must_use]
    pub fn arch_count(self) -> u8 {
        match self {
            RegClass::A => NUM_A_REGS,
            RegClass::S => NUM_S_REGS,
            RegClass::V => NUM_V_REGS,
            RegClass::Mask => NUM_MASK_REGS,
        }
    }

    /// `true` for the classes handled by the scalar unit (`A` and `S`).
    #[must_use]
    pub fn is_scalar(self) -> bool {
        matches!(self, RegClass::A | RegClass::S)
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegClass::A => "A",
            RegClass::S => "S",
            RegClass::V => "V",
            RegClass::Mask => "VM",
        };
        f.write_str(s)
    }
}

/// One architectural register: a class plus an index within the class.
///
/// # Example
///
/// ```
/// use oov_isa::{ArchReg, RegClass};
///
/// let r = ArchReg::V(3);
/// assert_eq!(r.class(), RegClass::V);
/// assert_eq!(r.index(), 3);
/// assert_eq!(r.to_string(), "V3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArchReg {
    /// An address register `A0..A7`.
    A(u8),
    /// A scalar register `S0..S7`.
    S(u8),
    /// A vector register `V0..V7`.
    V(u8),
    /// A vector-mask register `VM0..VM7`.
    Mask(u8),
}

impl ArchReg {
    /// The class this register belongs to.
    #[must_use]
    pub fn class(self) -> RegClass {
        match self {
            ArchReg::A(_) => RegClass::A,
            ArchReg::S(_) => RegClass::S,
            ArchReg::V(_) => RegClass::V,
            ArchReg::Mask(_) => RegClass::Mask,
        }
    }

    /// The index within the class (e.g. the `3` of `V3`).
    #[must_use]
    pub fn index(self) -> u8 {
        match self {
            ArchReg::A(i) | ArchReg::S(i) | ArchReg::V(i) | ArchReg::Mask(i) => i,
        }
    }

    /// Builds a register from a class and index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the class.
    #[must_use]
    pub fn new(class: RegClass, index: u8) -> Self {
        assert!(
            index < class.arch_count(),
            "register index {index} out of range for class {class}"
        );
        match class {
            RegClass::A => ArchReg::A(index),
            RegClass::S => ArchReg::S(index),
            RegClass::V => ArchReg::V(index),
            RegClass::Mask => ArchReg::Mask(index),
        }
    }

    /// `true` if this is a vector (`V`) register.
    #[must_use]
    pub fn is_vector(self) -> bool {
        matches!(self, ArchReg::V(_))
    }

    /// Validity check: index in range for the class.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.index() < self.class().arch_count()
    }

    /// A dense index over all architectural registers (for table lookups).
    ///
    /// The order is `A0..A7, S0..S7, V0..V7, VM0..VM7`.
    #[must_use]
    pub fn dense_index(self) -> usize {
        match self {
            ArchReg::A(i) => i as usize,
            ArchReg::S(i) => NUM_A_REGS as usize + i as usize,
            ArchReg::V(i) => (NUM_A_REGS + NUM_S_REGS) as usize + i as usize,
            ArchReg::Mask(i) => (NUM_A_REGS + NUM_S_REGS + NUM_V_REGS) as usize + i as usize,
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class(), self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts() {
        assert_eq!(RegClass::A.arch_count(), 8);
        assert_eq!(RegClass::S.arch_count(), 8);
        assert_eq!(RegClass::V.arch_count(), 8);
        assert_eq!(RegClass::Mask.arch_count(), 8);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ArchReg::A(0).to_string(), "A0");
        assert_eq!(ArchReg::S(7).to_string(), "S7");
        assert_eq!(ArchReg::V(5).to_string(), "V5");
        assert_eq!(ArchReg::Mask(1).to_string(), "VM1");
    }

    #[test]
    fn round_trip_class_index() {
        for class in RegClass::ALL {
            for i in 0..class.arch_count() {
                let r = ArchReg::new(class, i);
                assert_eq!(r.class(), class);
                assert_eq!(r.index(), i);
                assert!(r.is_valid());
            }
        }
    }

    #[test]
    fn dense_index_is_dense_and_unique() {
        let mut seen = [false; 32];
        for class in RegClass::ALL {
            for i in 0..class.arch_count() {
                let d = ArchReg::new(class, i).dense_index();
                assert!(d < 32);
                assert!(!seen[d], "dense index {d} duplicated");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        let _ = ArchReg::new(RegClass::V, 8);
    }

    #[test]
    fn scalar_classes() {
        assert!(RegClass::A.is_scalar());
        assert!(RegClass::S.is_scalar());
        assert!(!RegClass::V.is_scalar());
        assert!(!RegClass::Mask.is_scalar());
        assert!(ArchReg::V(0).is_vector());
        assert!(!ArchReg::S(0).is_vector());
    }
}
