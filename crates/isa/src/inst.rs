//! Dynamic (traced) instructions.
//!
//! [`Instruction`] is the value type of one traced instruction: the
//! `oov-vcc` backend builds and pushes them, and the functional oracles
//! read them back decoded with [`crate::Trace::get`]. A
//! [`crate::Trace`] does not store `Instruction`s: it packs each into a
//! 24-byte [`crate::InstRecord`] with its [`MemRef`], [`BranchInfo`]
//! and nonzero immediate in side words, which is what the timing
//! engines read.

use std::fmt;

use crate::{ArchReg, Opcode, MAX_VL};

/// Kind of memory access performed by a memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Scalar 8-byte access.
    Scalar,
    /// Constant-stride vector access (stride in bytes, may be negative).
    Strided,
    /// Indexed vector access (gather/scatter).
    Indexed,
}

/// Memory reference attached to a load or store instruction.
///
/// Traces are generated by the `oov-vcc` backend, which knows the concrete
/// addresses, so indexed accesses carry their precomputed min/max range —
/// exactly the information the OOOVA's *Range* pipeline stage produces
/// (paper §2.2: Range Start = base, Range End = base + (VL−1)·VS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Kind of access.
    pub kind: MemKind,
    /// Address of element 0, in bytes.
    pub base: u64,
    /// Stride between consecutive elements, in bytes (8 for unit stride).
    pub stride: i64,
    /// Access granularity in bytes (always 8 in this study).
    pub granularity: u8,
    /// Inclusive lowest byte address potentially touched.
    pub range_lo: u64,
    /// Inclusive highest byte address potentially touched.
    pub range_hi: u64,
}

impl MemRef {
    /// Builds a scalar 8-byte reference at `addr`.
    #[must_use]
    pub fn scalar(addr: u64) -> Self {
        MemRef {
            kind: MemKind::Scalar,
            base: addr,
            stride: 0,
            granularity: 8,
            range_lo: addr,
            range_hi: addr + 7,
        }
    }

    /// Builds a strided vector reference: `vl` elements of 8 bytes starting
    /// at `base` with byte stride `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `vl` is zero or exceeds [`MAX_VL`].
    #[must_use]
    pub fn strided(base: u64, stride: i64, vl: u16) -> Self {
        assert!(vl > 0 && vl <= MAX_VL, "vector length {vl} out of range");
        let last = base.wrapping_add_signed(stride * (i64::from(vl) - 1));
        let (lo, hi) = if last < base {
            (last, base)
        } else {
            (base, last)
        };
        MemRef {
            kind: MemKind::Strided,
            base,
            stride,
            granularity: 8,
            range_lo: lo,
            range_hi: hi + 7,
        }
    }

    /// Builds an indexed (gather/scatter) reference covering the byte range
    /// `[lo, hi]` with element 0 nominally at `base`.
    #[must_use]
    pub fn indexed(base: u64, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "indexed range is inverted");
        MemRef {
            kind: MemKind::Indexed,
            base,
            stride: 0,
            granularity: 8,
            range_lo: lo,
            range_hi: hi + 7,
        }
    }

    /// `true` if the byte ranges of `self` and `other` overlap.
    ///
    /// This is the conservative test the OOOVA *Dependence* stage performs:
    /// two accesses conflict if their `[Range Start, Range End]` intervals
    /// intersect, even if the actual element addresses are disjoint.
    #[must_use]
    pub fn ranges_overlap(&self, other: &MemRef) -> bool {
        self.range_lo <= other.range_hi && other.range_lo <= self.range_hi
    }

    /// Byte address of element `i` for a strided access.
    #[must_use]
    pub fn element_addr(&self, i: u16) -> u64 {
        self.base.wrapping_add_signed(self.stride * i64::from(i))
    }
}

/// Branch metadata: the traced outcome of a control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Whether the branch was taken in the trace.
    pub taken: bool,
    /// The address control flowed to.
    pub target: u64,
}

/// Maximum number of register sources an instruction can carry
/// (e.g. scatter: data vector + base address + index vector + mask).
pub const MAX_SRCS: usize = 4;

/// One dynamic instruction of a trace.
///
/// The trace-driven methodology of the paper means an `Instruction` carries
/// its *dynamic* context: the vector length and stride in effect, the
/// concrete memory addresses, and the branch outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// Opcode.
    pub op: Opcode,
    /// Destination register, if any.
    pub dst: Option<ArchReg>,
    /// Source registers (`None`-padded).
    pub srcs: [Option<ArchReg>; MAX_SRCS],
    /// Vector length in effect (1 for scalar instructions).
    pub vl: u16,
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
    /// Branch outcome for control transfers.
    pub branch: Option<BranchInfo>,
    /// `true` if this instruction is register-spill traffic inserted by the
    /// register allocator (the paper's Table 3 accounts these separately).
    pub is_spill: bool,
    /// Static program counter (instruction address) this dynamic instance
    /// was fetched from. Used by branch prediction structures.
    pub pc: u64,
    /// Immediate operand (constant for `SLui`, displacement for address
    /// arithmetic). Zero when unused.
    pub imm: i64,
}

impl Instruction {
    /// Builds a scalar computation instruction.
    #[must_use]
    pub fn scalar(op: Opcode, dst: ArchReg, srcs: &[ArchReg]) -> Self {
        Self::build(op, Some(dst), srcs, 1, None, None)
    }

    /// Builds a vector computation instruction with vector length `vl`.
    #[must_use]
    pub fn vector(op: Opcode, dst: ArchReg, srcs: &[ArchReg], vl: u16) -> Self {
        assert!(op.is_vector(), "{op} is not a vector opcode");
        Self::build(op, Some(dst), srcs, vl, None, None)
    }

    /// Builds a load instruction (scalar or vector based on `op`).
    #[must_use]
    pub fn load(op: Opcode, dst: ArchReg, addr_srcs: &[ArchReg], mem: MemRef, vl: u16) -> Self {
        assert!(op.is_load(), "{op} is not a load");
        Self::build(op, Some(dst), addr_srcs, vl, Some(mem), None)
    }

    /// Builds a store instruction. `srcs[0]` must be the data register.
    #[must_use]
    pub fn store(op: Opcode, srcs: &[ArchReg], mem: MemRef, vl: u16) -> Self {
        assert!(op.is_store(), "{op} is not a store");
        Self::build(op, None, srcs, vl, Some(mem), None)
    }

    /// Builds a control-transfer instruction.
    #[must_use]
    pub fn control(op: Opcode, srcs: &[ArchReg], info: BranchInfo) -> Self {
        assert!(op.is_control(), "{op} is not a control transfer");
        Self::build(op, None, srcs, 1, None, Some(info))
    }

    fn build(
        op: Opcode,
        dst: Option<ArchReg>,
        srcs: &[ArchReg],
        vl: u16,
        mem: Option<MemRef>,
        branch: Option<BranchInfo>,
    ) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "too many sources for {op}");
        assert!(
            (1..=MAX_VL).contains(&vl),
            "vector length {vl} out of range"
        );
        let mut s = [None; MAX_SRCS];
        for (slot, &r) in s.iter_mut().zip(srcs) {
            *slot = Some(r);
        }
        Instruction {
            op,
            dst,
            srcs: s,
            vl,
            mem,
            branch,
            is_spill: false,
            pc: 0,
            imm: 0,
        }
    }

    /// Marks this instruction as spill code (builder style).
    #[must_use]
    pub fn spill(mut self) -> Self {
        self.is_spill = true;
        self
    }

    /// Sets the static PC (builder style).
    #[must_use]
    pub fn at(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }

    /// Sets the immediate operand (builder style).
    #[must_use]
    pub fn with_imm(mut self, imm: i64) -> Self {
        self.imm = imm;
        self
    }

    /// Iterator over the actual (non-`None`) sources.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Number of element operations this instruction performs
    /// (`vl` for vector instructions, 1 otherwise).
    #[must_use]
    pub fn ops(&self) -> u64 {
        if self.op.is_vector() {
            u64::from(self.vl)
        } else {
            1
        }
    }

    /// Number of 8-byte words this instruction moves to/from memory.
    #[must_use]
    pub fn words_moved(&self) -> u64 {
        if self.op.is_mem() {
            self.ops()
        } else {
            0
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        for s in self.sources() {
            write!(f, " {s}")?;
        }
        if self.op.is_vector() {
            write!(f, " [vl={}]", self.vl)?;
        }
        if let Some(m) = self.mem {
            write!(f, " @{:#x}+{}", m.base, m.stride)?;
        }
        if self.is_spill {
            write!(f, " ;spill")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_range_positive() {
        let m = MemRef::strided(0x1000, 8, 4);
        assert_eq!(m.range_lo, 0x1000);
        assert_eq!(m.range_hi, 0x1000 + 3 * 8 + 7);
        assert_eq!(m.element_addr(0), 0x1000);
        assert_eq!(m.element_addr(3), 0x1018);
    }

    #[test]
    fn strided_range_negative_stride() {
        let m = MemRef::strided(0x1000, -16, 3);
        assert_eq!(m.range_lo, 0x1000 - 32);
        assert_eq!(m.range_hi, 0x1000 + 7);
        assert_eq!(m.element_addr(2), 0x1000 - 32);
    }

    #[test]
    fn overlap_is_symmetric_and_correct() {
        let a = MemRef::strided(0x1000, 8, 16); // [0x1000, 0x107f]
        let b = MemRef::strided(0x1080, 8, 16); // [0x1080, 0x10ff]
        assert!(!a.ranges_overlap(&b));
        assert!(!b.ranges_overlap(&a));
        let c = MemRef::strided(0x1078, 8, 2); // [0x1078, 0x1087]
        assert!(a.ranges_overlap(&c));
        assert!(c.ranges_overlap(&a));
        assert!(b.ranges_overlap(&c));
    }

    #[test]
    fn scalar_memref_is_8_bytes() {
        let m = MemRef::scalar(0x42);
        assert_eq!(m.range_hi - m.range_lo + 1, 8);
    }

    #[test]
    fn display_contains_mnemonic_and_regs() {
        let i = Instruction::vector(
            Opcode::VAdd,
            ArchReg::V(2),
            &[ArchReg::V(0), ArchReg::V(1)],
            64,
        );
        let s = i.to_string();
        assert!(s.contains("vadd"));
        assert!(s.contains("V2"));
        assert!(s.contains("vl=64"));
    }

    #[test]
    fn ops_and_words() {
        let v = Instruction::vector(Opcode::VMul, ArchReg::V(1), &[ArchReg::V(0)], 100);
        assert_eq!(v.ops(), 100);
        assert_eq!(v.words_moved(), 0);
        let m = MemRef::strided(0, 8, 100);
        let l = Instruction::load(Opcode::VLoad, ArchReg::V(0), &[ArchReg::A(0)], m, 100);
        assert_eq!(l.words_moved(), 100);
        let s = Instruction::scalar(Opcode::SAdd, ArchReg::S(0), &[ArchReg::S(1)]);
        assert_eq!(s.ops(), 1);
    }

    #[test]
    #[should_panic(expected = "not a vector opcode")]
    fn vector_ctor_rejects_scalar_op() {
        let _ = Instruction::vector(Opcode::SAdd, ArchReg::V(0), &[], 8);
    }

    #[test]
    fn spill_builder() {
        let m = MemRef::strided(0, 8, 8);
        let i = Instruction::load(Opcode::VLoad, ArchReg::V(0), &[], m, 8).spill();
        assert!(i.is_spill);
    }
}
