//! Virtual-register kernel IR.
//!
//! Kernels are written against an unlimited supply of virtual registers;
//! the register allocator later maps them onto the 8 architectural
//! registers of each class, inserting spill code exactly the way the
//! Convex compiler had to. This is how the reproduction obtains *real*
//! spill traffic (paper Table 3) instead of faking it.

use std::fmt;
use std::sync::Arc;

use oov_isa::{Opcode, MAX_VL};

/// A virtual register: class plus an unbounded index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VirtReg {
    /// Address-class virtual.
    A(u32),
    /// Scalar-class virtual.
    S(u32),
    /// Vector-class virtual.
    V(u32),
    /// Mask-class virtual.
    M(u32),
}

impl VirtReg {
    /// The architectural class this virtual will be allocated in.
    #[must_use]
    pub fn class(self) -> oov_isa::RegClass {
        match self {
            VirtReg::A(_) => oov_isa::RegClass::A,
            VirtReg::S(_) => oov_isa::RegClass::S,
            VirtReg::V(_) => oov_isa::RegClass::V,
            VirtReg::M(_) => oov_isa::RegClass::Mask,
        }
    }
}

impl fmt::Display for VirtReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VirtReg::A(i) => write!(f, "a{i}"),
            VirtReg::S(i) => write!(f, "s{i}"),
            VirtReg::V(i) => write!(f, "v{i}"),
            VirtReg::M(i) => write!(f, "m{i}"),
        }
    }
}

/// A handle to a data array placed in the kernel's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayHandle {
    /// Byte address of the first word.
    pub base: u64,
    /// Size in 8-byte words.
    pub words: u64,
}

/// Address expression of a memory access: the concrete byte address is
/// `base + outer_iter * outer_advance + iter * iter_advance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrExpr {
    /// Byte address at iteration 0.
    pub base: u64,
    /// Bytes advanced per inner-loop iteration.
    pub iter_advance: i64,
    /// Bytes advanced per outer-loop iteration.
    pub outer_advance: i64,
    /// Stride between elements, in bytes.
    pub stride_bytes: i64,
    /// For indexed accesses: the width in bytes of the region the indices
    /// may touch (range = `[addr, addr + span]`).
    pub indexed_span: Option<u64>,
}

impl AddrExpr {
    /// Concrete byte address of element 0 at the given iteration numbers.
    #[must_use]
    pub fn at(&self, outer_iter: u64, iter: u64) -> u64 {
        self.base
            .wrapping_add_signed(self.outer_advance.wrapping_mul(outer_iter as i64))
            .wrapping_add_signed(self.iter_advance.wrapping_mul(iter as i64))
    }
}

/// One IR instruction over virtual registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KInst {
    /// Opcode (same repertoire as the traced ISA).
    pub op: Opcode,
    /// Destination virtual, if any.
    pub dst: Option<VirtReg>,
    /// Source virtuals.
    pub srcs: Vec<VirtReg>,
    /// Immediate operand.
    pub imm: i64,
    /// Vector length (1 for scalar ops).
    pub vl: u16,
    /// Memory address expression for loads/stores.
    pub addr: Option<AddrExpr>,
}

impl KInst {
    /// `true` if this instruction reads or writes memory.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.op.is_mem()
    }
}

/// A loop segment: `body` executed `trips` times, optionally repeated
/// `outer_trips` times with addresses advanced by each access's
/// `outer_advance` (a strip-mined 2-D sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSeg {
    /// Inner trip count.
    pub trips: u32,
    /// Outer trip count (1 = plain loop).
    pub outer_trips: u32,
    /// Straight-line body.
    pub body: Vec<KInst>,
    /// Virtual registers carried across the backedge (live-in and
    /// live-out of every iteration): accumulators, reused constants.
    pub carried: Vec<VirtReg>,
}

/// One initialised array: `words` 8-byte words from byte address
/// `base`, word `i` holding `value(i)`. The values are not stored: a
/// generator is pure, so [`crate::BaseImage::seeded`] and the executor's
/// seeding evaluate it only when a functional check builds an image,
/// and a timing run never pays for them.
#[derive(Clone)]
pub struct InitRun {
    /// Byte address of word 0.
    pub base: u64,
    /// Number of words.
    pub words: u64,
    value: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
}

impl InitRun {
    /// The run of `words` words from `base` whose word `i` is `value(i)`.
    pub fn new(base: u64, words: u64, value: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Self {
        InitRun {
            base,
            words,
            value: Arc::new(value),
        }
    }

    /// Every word as `(byte address, value)`, in word order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.words).map(|i| (self.base + 8 * i, (self.value)(i)))
    }
}

impl fmt::Debug for InitRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InitRun")
            .field("base", &self.base)
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

/// A kernel: named program, address space, and a list of loop segments
/// executed in order. Virtual registers do not flow between segments.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    name: String,
    segments: Vec<LoopSeg>,
    next_virt: u32,
    next_addr: u64,
    /// Initial memory contents the golden executor should install
    /// before running: one run per initialised array, in allocation
    /// order.
    pub mem_init: Vec<InitRun>,
}

/// Lowest address used for data arrays.
pub const ARRAY_SPACE_BASE: u64 = 0x0001_0000;
/// Spill slots are placed at and above this address; the data space must
/// stay below so correctness checks can ignore spill memory.
pub const SPILL_SPACE_BASE: u64 = 0x4000_0000;

impl Kernel {
    /// Creates an empty kernel.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Kernel {
            name: name.into(),
            segments: Vec::new(),
            next_virt: 0,
            next_addr: ARRAY_SPACE_BASE,
            mem_init: Vec::new(),
        }
    }

    /// The kernel's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop segments in execution order.
    #[must_use]
    pub fn segments(&self) -> &[LoopSeg] {
        &self.segments
    }

    /// Allocates a data array of `words` 8-byte words, 64-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if the array space would collide with the spill space.
    pub fn array(&mut self, words: u64) -> ArrayHandle {
        let base = self.next_addr;
        self.next_addr = (self.next_addr + words * 8 + 63) & !63;
        assert!(
            self.next_addr < SPILL_SPACE_BASE,
            "kernel data space exhausted"
        );
        ArrayHandle { base, words }
    }

    /// Allocates a data array whose word `i` initially holds `f(i)`.
    /// `f` must be pure: it is evaluated each time an initial image is
    /// built, never when the kernel is compiled.
    pub fn array_init(
        &mut self,
        words: u64,
        f: impl Fn(u64) -> u64 + Send + Sync + 'static,
    ) -> ArrayHandle {
        let h = self.array(words);
        self.mem_init.push(InitRun::new(h.base, words, f));
        h
    }

    fn fresh(&mut self) -> u32 {
        let n = self.next_virt;
        self.next_virt += 1;
        n
    }

    /// Opens a loop builder for a segment run `trips` times.
    pub fn loop_build(&mut self, trips: u32) -> LoopBuilder<'_> {
        self.loop_build_2d(trips, 1)
    }

    /// Opens a loop builder for a 2-D sweep: inner `trips`, outer
    /// `outer_trips` (addresses advance by each access's outer advance).
    pub fn loop_build_2d(&mut self, trips: u32, outer_trips: u32) -> LoopBuilder<'_> {
        assert!(trips >= 1 && outer_trips >= 1, "trip counts must be >= 1");
        LoopBuilder {
            kernel: self,
            seg: LoopSeg {
                trips,
                outer_trips,
                body: Vec::new(),
                carried: Vec::new(),
            },
        }
    }
}

/// Builder for one loop segment. Finish with [`LoopBuilder::finish`].
///
/// Register-producing methods return fresh virtual registers (SSA-like
/// within the body); `*_into` variants overwrite an existing virtual,
/// which is how loop-carried accumulators are expressed.
#[derive(Debug)]
pub struct LoopBuilder<'k> {
    kernel: &'k mut Kernel,
    seg: LoopSeg,
}

impl LoopBuilder<'_> {
    fn push(&mut self, inst: KInst) {
        if let Some(a) = &inst.addr {
            if inst.op.is_vector() && a.indexed_span.is_none() {
                // Sanity: strided vector accesses must stay inside the
                // data space for the configured trip counts.
                debug_assert!(a.base >= ARRAY_SPACE_BASE);
            }
        }
        self.seg.body.push(inst);
    }

    /// Declares a fresh vector virtual and marks it loop-carried.
    pub fn carried_v(&mut self) -> VirtReg {
        let v = VirtReg::V(self.kernel.fresh());
        self.seg.carried.push(v);
        v
    }

    /// Strided vector load of `vl` elements from `arr` starting at word
    /// `offset_words`, element stride `stride_elems`, advancing
    /// `advance_words` words per iteration (and `outer_advance_words` per
    /// outer iteration).
    pub fn vload(
        &mut self,
        arr: ArrayHandle,
        offset_words: u64,
        stride_elems: i64,
        vl: u16,
        advance_words: i64,
        outer_advance_words: i64,
    ) -> VirtReg {
        let dst = VirtReg::V(self.kernel.fresh());
        self.vload_into(
            dst,
            arr,
            offset_words,
            stride_elems,
            vl,
            advance_words,
            outer_advance_words,
        );
        dst
    }

    /// As [`LoopBuilder::vload`], into an existing virtual.
    #[allow(clippy::too_many_arguments)]
    pub fn vload_into(
        &mut self,
        dst: VirtReg,
        arr: ArrayHandle,
        offset_words: u64,
        stride_elems: i64,
        vl: u16,
        advance_words: i64,
        outer_advance_words: i64,
    ) {
        assert!((1..=MAX_VL).contains(&vl));
        self.push(KInst {
            op: Opcode::VLoad,
            dst: Some(dst),
            srcs: vec![],
            imm: 0,
            vl,
            addr: Some(AddrExpr {
                base: arr.base + offset_words * 8,
                iter_advance: advance_words * 8,
                outer_advance: outer_advance_words * 8,
                stride_bytes: stride_elems * 8,
                indexed_span: None,
            }),
        });
    }

    /// Strided vector store of `vl` elements.
    #[allow(clippy::too_many_arguments)]
    pub fn vstore(
        &mut self,
        data: VirtReg,
        arr: ArrayHandle,
        offset_words: u64,
        stride_elems: i64,
        vl: u16,
        advance_words: i64,
        outer_advance_words: i64,
    ) {
        assert!((1..=MAX_VL).contains(&vl));
        self.push(KInst {
            op: Opcode::VStore,
            dst: None,
            srcs: vec![data],
            imm: 0,
            vl,
            addr: Some(AddrExpr {
                base: arr.base + offset_words * 8,
                iter_advance: advance_words * 8,
                outer_advance: outer_advance_words * 8,
                stride_bytes: stride_elems * 8,
                indexed_span: None,
            }),
        });
    }

    /// Gather: load `vl` elements at `arr[offset] + index[i]` byte
    /// offsets, where indices may reach `span_words * 8` bytes.
    pub fn vgather(
        &mut self,
        index: VirtReg,
        arr: ArrayHandle,
        offset_words: u64,
        span_words: u64,
        vl: u16,
    ) -> VirtReg {
        let dst = VirtReg::V(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::VGather,
            dst: Some(dst),
            srcs: vec![index],
            imm: 0,
            vl,
            addr: Some(AddrExpr {
                base: arr.base + offset_words * 8,
                iter_advance: 0,
                outer_advance: 0,
                stride_bytes: 0,
                indexed_span: Some(span_words * 8),
            }),
        });
        dst
    }

    /// Scatter: store `data[i]` to `arr[offset] + index[i]` byte offsets.
    pub fn vscatter(
        &mut self,
        data: VirtReg,
        index: VirtReg,
        arr: ArrayHandle,
        offset_words: u64,
        span_words: u64,
        vl: u16,
    ) {
        self.push(KInst {
            op: Opcode::VScatter,
            dst: None,
            srcs: vec![data, index],
            imm: 0,
            vl,
            addr: Some(AddrExpr {
                base: arr.base + offset_words * 8,
                iter_advance: 0,
                outer_advance: 0,
                stride_bytes: 0,
                indexed_span: Some(span_words * 8),
            }),
        });
    }

    /// Scalar load from `arr[offset]`, advancing per iteration.
    pub fn sload(&mut self, arr: ArrayHandle, offset_words: u64, advance_words: i64) -> VirtReg {
        let dst = VirtReg::S(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::SLoad,
            dst: Some(dst),
            srcs: vec![],
            imm: 0,
            vl: 1,
            addr: Some(AddrExpr {
                base: arr.base + offset_words * 8,
                iter_advance: advance_words * 8,
                outer_advance: 0,
                stride_bytes: 0,
                indexed_span: None,
            }),
        });
        dst
    }

    /// Scalar store to `arr[offset]`, advancing per iteration.
    pub fn sstore(
        &mut self,
        data: VirtReg,
        arr: ArrayHandle,
        offset_words: u64,
        advance_words: i64,
    ) {
        self.push(KInst {
            op: Opcode::SStore,
            dst: None,
            srcs: vec![data],
            imm: 0,
            vl: 1,
            addr: Some(AddrExpr {
                base: arr.base + offset_words * 8,
                iter_advance: advance_words * 8,
                outer_advance: 0,
                stride_bytes: 0,
                indexed_span: None,
            }),
        });
    }

    fn vec_binop(&mut self, op: Opcode, a: VirtReg, b: VirtReg, vl: u16) -> VirtReg {
        let dst = VirtReg::V(self.kernel.fresh());
        self.vec_binop_into(op, dst, a, b, vl);
        dst
    }

    fn vec_binop_into(&mut self, op: Opcode, dst: VirtReg, a: VirtReg, b: VirtReg, vl: u16) {
        assert!((1..=MAX_VL).contains(&vl));
        self.push(KInst {
            op,
            dst: Some(dst),
            srcs: vec![a, b],
            imm: 0,
            vl,
            addr: None,
        });
    }

    /// Vector add (FU1/FU2).
    pub fn vadd(&mut self, a: VirtReg, b: VirtReg, vl: u16) -> VirtReg {
        self.vec_binop(Opcode::VAdd, a, b, vl)
    }

    /// Vector add into an existing virtual (accumulation).
    pub fn vadd_into(&mut self, dst: VirtReg, a: VirtReg, b: VirtReg, vl: u16) {
        self.vec_binop_into(Opcode::VAdd, dst, a, b, vl);
    }

    /// Vector multiply (FU2 only).
    pub fn vmul(&mut self, a: VirtReg, b: VirtReg, vl: u16) -> VirtReg {
        self.vec_binop(Opcode::VMul, a, b, vl)
    }

    /// Vector divide (FU2 only).
    pub fn vdiv(&mut self, a: VirtReg, b: VirtReg, vl: u16) -> VirtReg {
        self.vec_binop(Opcode::VDiv, a, b, vl)
    }

    /// Vector square root (FU2 only).
    pub fn vsqrt(&mut self, a: VirtReg, vl: u16) -> VirtReg {
        let dst = VirtReg::V(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::VSqrt,
            dst: Some(dst),
            srcs: vec![a],
            imm: 0,
            vl,
            addr: None,
        });
        dst
    }

    /// Vector logical op (FU1/FU2).
    pub fn vlogic(&mut self, a: VirtReg, b: VirtReg, vl: u16) -> VirtReg {
        self.vec_binop(Opcode::VLogic, a, b, vl)
    }

    /// Vector shift (FU1/FU2).
    pub fn vshift(&mut self, a: VirtReg, b: VirtReg, vl: u16) -> VirtReg {
        self.vec_binop(Opcode::VShift, a, b, vl)
    }

    /// Vector compare producing a mask.
    pub fn vcmp(&mut self, a: VirtReg, b: VirtReg, vl: u16) -> VirtReg {
        let dst = VirtReg::M(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::VCmp,
            dst: Some(dst),
            srcs: vec![a, b],
            imm: 0,
            vl,
            addr: None,
        });
        dst
    }

    /// Vector merge under mask.
    pub fn vmerge(&mut self, a: VirtReg, b: VirtReg, mask: VirtReg, vl: u16) -> VirtReg {
        let dst = VirtReg::V(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::VMerge,
            dst: Some(dst),
            srcs: vec![a, b, mask],
            imm: 0,
            vl,
            addr: None,
        });
        dst
    }

    /// Sum-reduction of a vector into a fresh scalar.
    pub fn vreduce(&mut self, a: VirtReg, vl: u16) -> VirtReg {
        let dst = VirtReg::S(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::VReduce,
            dst: Some(dst),
            srcs: vec![a],
            imm: 0,
            vl,
            addr: None,
        });
        dst
    }

    /// Loads a constant into a fresh scalar virtual.
    pub fn slui(&mut self, imm: i64) -> VirtReg {
        let dst = VirtReg::S(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::SLui,
            dst: Some(dst),
            srcs: vec![],
            imm,
            vl: 1,
            addr: None,
        });
        dst
    }

    /// Scalar add of two scalar virtuals.
    pub fn sadd(&mut self, a: VirtReg, b: VirtReg) -> VirtReg {
        let dst = VirtReg::S(self.kernel.fresh());
        self.sadd_into(dst, a, b);
        dst
    }

    /// Scalar add into an existing virtual.
    pub fn sadd_into(&mut self, dst: VirtReg, a: VirtReg, b: VirtReg) {
        self.push(KInst {
            op: Opcode::SAdd,
            dst: Some(dst),
            srcs: vec![a, b],
            imm: 0,
            vl: 1,
            addr: None,
        });
    }

    /// Scalar multiply.
    pub fn smul(&mut self, a: VirtReg, b: VirtReg) -> VirtReg {
        let dst = VirtReg::S(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::SMul,
            dst: Some(dst),
            srcs: vec![a, b],
            imm: 0,
            vl: 1,
            addr: None,
        });
        dst
    }

    /// Vector-scalar multiply: `dst[i] = a[i] * s` (scalar operand).
    pub fn vmul_s(&mut self, a: VirtReg, s: VirtReg, vl: u16) -> VirtReg {
        let dst = VirtReg::V(self.kernel.fresh());
        self.push(KInst {
            op: Opcode::VMul,
            dst: Some(dst),
            srcs: vec![a, s],
            imm: 0,
            vl,
            addr: None,
        });
        dst
    }

    /// Seals the loop and appends it to the kernel.
    pub fn finish(self) {
        let LoopBuilder { kernel, seg } = self;
        assert!(!seg.body.is_empty(), "empty loop body");
        kernel.segments.push(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_do_not_overlap() {
        let mut k = Kernel::new("t");
        let a = k.array(100);
        let b = k.array(100);
        assert!(a.base + a.words * 8 <= b.base);
        assert!(a.base >= ARRAY_SPACE_BASE);
    }

    #[test]
    fn array_init_records_contents() {
        let mut k = Kernel::new("t");
        let a = k.array_init(4, |i| i * 2);
        let [run] = &k.mem_init[..] else {
            panic!("one array, one run: {:?}", k.mem_init);
        };
        assert_eq!((run.base, run.words), (a.base, 4));
        let words: Vec<(u64, u64)> = run.iter().collect();
        assert_eq!(
            words,
            [
                (a.base, 0),
                (a.base + 8, 2),
                (a.base + 16, 4),
                (a.base + 24, 6)
            ]
        );
    }

    #[test]
    fn addr_expr_advances() {
        let e = AddrExpr {
            base: 0x1000,
            iter_advance: 64,
            outer_advance: 1024,
            stride_bytes: 8,
            indexed_span: None,
        };
        assert_eq!(e.at(0, 0), 0x1000);
        assert_eq!(e.at(0, 3), 0x10c0);
        assert_eq!(e.at(2, 1), 0x1000 + 2048 + 64);
    }

    #[test]
    fn builder_creates_fresh_virtuals() {
        let mut k = Kernel::new("t");
        let arr = k.array(1024);
        let mut b = k.loop_build(4);
        let x = b.vload(arr, 0, 1, 64, 64, 0);
        let y = b.vload(arr, 512, 1, 64, 64, 0);
        assert_ne!(x, y);
        let z = b.vadd(x, y, 64);
        b.vstore(z, arr, 0, 1, 64, 64, 0);
        b.finish();
        assert_eq!(k.segments().len(), 1);
        assert_eq!(k.segments()[0].body.len(), 4);
        assert_eq!(k.segments()[0].trips, 4);
    }

    #[test]
    fn carried_registers_recorded() {
        let mut k = Kernel::new("t");
        let arr = k.array(1024);
        let mut b = k.loop_build(4);
        let acc = b.carried_v();
        let x = b.vload(arr, 0, 1, 64, 64, 0);
        b.vadd_into(acc, acc, x, 64);
        b.finish();
        assert_eq!(k.segments()[0].carried, vec![acc]);
    }

    #[test]
    #[should_panic(expected = "empty loop body")]
    fn empty_loop_rejected() {
        let mut k = Kernel::new("t");
        k.loop_build(1).finish();
    }

    #[test]
    fn virt_display_and_class() {
        assert_eq!(VirtReg::V(3).to_string(), "v3");
        assert_eq!(VirtReg::M(0).class(), oov_isa::RegClass::Mask);
    }
}
