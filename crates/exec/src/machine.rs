//! The architectural machine: register state plus memory image, with a
//! deterministic functional semantics for every opcode.
//!
//! # Batched execution
//!
//! [`Machine::execute`] moves whole `vl`-element groups per call: vector
//! memory operations go through the [`MemImage`] element-group calls
//! (`load_strided`/`store_strided`/`load_indexed`/`store_indexed`) and
//! the vector ALU/compare/merge loops run over slices with one tight
//! loop per opcode. No opcode allocates: operands are snapshotted into
//! fixed stack buffers.
//!
//! **Aliasing.** Snapshotting is what makes `dst == src` forms well
//! defined — every operand (including gather indices) is read in full
//! before the destination register or memory is written, so e.g.
//! `vadd v0, v0, v0` and a gather whose index register is its own
//! destination behave as if operands were latched at issue.

use std::sync::Arc;

use oov_isa::{ArchReg, Instruction, MemKind, MemRef, Opcode, Trace, MAX_VL};

use oov_vcc::BaseImage;

use crate::MemImage;

const VLEN: usize = MAX_VL as usize;

/// Architectural register and memory state, with an `execute` step.
///
/// Operand conventions (shared with `oov-vcc` lowering):
///
/// * binary ops: `dst = srcs[0] ⊕ srcs[1]`, with a missing second source
///   replaced by the immediate;
/// * `VStore`: `srcs[0]` is the data register;
/// * `VGather`: `srcs[0]` is the index vector; element addresses are
///   `mem.base + V[index][i]`;
/// * `VScatter`: `srcs[0]` is the data vector, `srcs[1]` the index vector;
/// * `VMerge`: `srcs[0]`/`srcs[1]` are the two inputs, `srcs[2]` the mask.
#[derive(Debug, Clone)]
pub struct Machine {
    a: [u64; 8],
    s: [u64; 8],
    v: Vec<[u64; VLEN]>,
    masks: [u128; 8],
    mem: MemImage,
}

impl Default for Machine {
    fn default() -> Self {
        Machine {
            a: [0; 8],
            s: [0; 8],
            v: vec![[0; VLEN]; 8],
            masks: [0; 8],
            mem: MemImage::new(),
        }
    }
}

/// Index of a vector register, with the panic message the accessors
/// share.
fn vreg(r: ArchReg) -> usize {
    match r {
        ArchReg::V(i) => i as usize,
        _ => panic!("{r} is not a vector register"),
    }
}

impl Machine {
    /// A machine with zeroed registers and empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A machine with zeroed registers whose memory reads through
    /// `base` ([`MemImage::fork`]) — the replay entry point: no
    /// seeding, and only stored words are held per machine.
    #[must_use]
    pub fn from_base(base: &Arc<BaseImage>) -> Self {
        Machine {
            mem: MemImage::fork(base),
            ..Self::default()
        }
    }

    /// Rewinds the machine for the next replay: registers zeroed,
    /// memory re-forked from `base` with the previous run's stores
    /// cleared in place ([`MemImage::reset_to_base`]), so warm replays
    /// perform no seeding and no allocation.
    pub fn reset_to_base(&mut self, base: &Arc<BaseImage>) {
        self.a.fill(0);
        self.s.fill(0);
        for v in &mut self.v {
            v.fill(0);
        }
        self.masks.fill(0);
        self.mem.reset_to_base(base);
    }

    /// Read-only view of memory.
    #[must_use]
    pub fn memory(&self) -> &MemImage {
        &self.mem
    }

    /// Mutable view of memory (for initialising workloads).
    #[must_use]
    pub fn memory_mut(&mut self) -> &mut MemImage {
        &mut self.mem
    }

    /// Value of a scalar (`A` or `S`) register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a scalar register.
    #[must_use]
    pub fn scalar(&self, r: ArchReg) -> u64 {
        match r {
            ArchReg::A(i) => self.a[i as usize],
            ArchReg::S(i) => self.s[i as usize],
            _ => panic!("{r} is not a scalar register"),
        }
    }

    /// Sets a scalar register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a scalar register.
    pub fn set_scalar(&mut self, r: ArchReg, v: u64) {
        match r {
            ArchReg::A(i) => self.a[i as usize] = v,
            ArchReg::S(i) => self.s[i as usize] = v,
            _ => panic!("{r} is not a scalar register"),
        }
    }

    /// Full contents of a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a vector register.
    #[must_use]
    pub fn vector(&self, r: ArchReg) -> &[u64; VLEN] {
        &self.v[vreg(r)]
    }

    /// The first `vl` elements of a vector register.
    #[must_use]
    pub fn vector_prefix(&self, r: ArchReg, vl: u16) -> &[u64] {
        &self.vector(r)[..vl as usize]
    }

    /// Sets element `i` of a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a vector register or `i` is out of range.
    pub fn set_vector_element(&mut self, r: ArchReg, i: u16, v: u64) {
        self.v[vreg(r)][i as usize] = v;
    }

    /// Contents of a mask register as a bit set (bit *i* = element *i*).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a mask register.
    #[must_use]
    pub fn mask(&self, r: ArchReg) -> u128 {
        match r {
            ArchReg::Mask(i) => self.masks[i as usize],
            _ => panic!("{r} is not a mask register"),
        }
    }

    fn read(&self, r: ArchReg) -> u64 {
        self.scalar(r)
    }

    fn src(&self, inst: &Instruction, n: usize) -> Option<ArchReg> {
        inst.srcs.get(n).copied().flatten()
    }

    /// Scalar operand `n`, falling back to the immediate when absent.
    fn scalar_operand(&self, inst: &Instruction, n: usize) -> u64 {
        match self.src(inst, n) {
            Some(r) => self.read(r),
            None => inst.imm as u64,
        }
    }

    /// Snapshots the second operand of a vector op into `out`: a vector
    /// register's prefix, a scalar register broadcast (vector-scalar
    /// forms), or the immediate when absent.
    fn fill_vector_operand(&self, inst: &Instruction, n: usize, out: &mut [u64]) {
        match self.src(inst, n) {
            Some(r @ ArchReg::V(_)) => out.copy_from_slice(&self.vector(r)[..out.len()]),
            Some(r @ (ArchReg::A(_) | ArchReg::S(_))) => out.fill(self.read(r)),
            Some(other) => panic!("{other} cannot be a vector operand"),
            None => out.fill(inst.imm as u64),
        }
    }

    /// The index register of an indexed memory access (gather/scatter),
    /// with the shared panic for non-indexed opcodes.
    fn indexed_src(&self, inst: &Instruction) -> ArchReg {
        match inst.op {
            Opcode::VGather => self.src(inst, 0),
            Opcode::VScatter => self.src(inst, 1),
            _ => panic!("{} is not indexed", inst.op),
        }
        .expect("indexed access needs an index register")
    }

    /// Appends the concrete element addresses a memory instruction
    /// touches, in element order, to `out` (which is cleared first).
    /// Allocation-free when `out` has capacity.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a memory instruction.
    pub fn element_addresses_into(&self, inst: &Instruction, out: &mut Vec<u64>) {
        out.clear();
        let m = inst.mem.expect("not a memory instruction");
        match m.kind {
            MemKind::Scalar => out.push(m.base),
            MemKind::Strided => out.extend((0..inst.vl).map(|i| m.element_addr(i))),
            MemKind::Indexed => {
                let idx = self.vector(self.indexed_src(inst));
                out.extend(
                    idx[..inst.vl as usize]
                        .iter()
                        .map(|&o| m.base.wrapping_add(o)),
                );
            }
        }
    }

    /// The concrete element addresses a memory instruction touches, in
    /// element order. Used both for execution-order checks and by tests
    /// that check the Range stage is conservative.
    #[must_use]
    pub fn element_addresses(&self, inst: &Instruction) -> Vec<u64> {
        let mut out = Vec::with_capacity(inst.vl as usize);
        self.element_addresses_into(inst, &mut out);
        out
    }

    /// Vector load: the whole element group in one memory call.
    fn vector_load(&mut self, inst: &Instruction, m: MemRef, vl: usize) {
        let d = vreg(inst.dst.expect("vector load needs dst"));
        match m.kind {
            MemKind::Scalar => {
                let v = self.mem.load(m.base);
                self.v[d][0] = v;
            }
            MemKind::Strided => self
                .mem
                .load_strided(m.base, m.stride, &mut self.v[d][..vl]),
            MemKind::Indexed => {
                // Snapshot the indices: the destination may be the
                // index register.
                let mut idx = [0u64; VLEN];
                idx[..vl].copy_from_slice(&self.vector(self.indexed_src(inst))[..vl]);
                self.mem
                    .load_indexed(m.base, &idx[..vl], &mut self.v[d][..vl]);
            }
        }
    }

    /// Vector store: the whole element group in one memory call.
    fn vector_store(&mut self, inst: &Instruction, m: MemRef, vl: usize) {
        let data = vreg(self.src(inst, 0).expect("vector store needs data"));
        match m.kind {
            MemKind::Scalar => {
                let v = self.v[data][0];
                self.mem.store(m.base, v);
            }
            MemKind::Strided => {
                let (mem, v) = (&mut self.mem, &self.v);
                mem.store_strided(m.base, m.stride, &v[data][..vl]);
            }
            MemKind::Indexed => {
                let idx = vreg(self.indexed_src(inst));
                let (mem, v) = (&mut self.mem, &self.v);
                mem.store_indexed(m.base, &v[idx][..vl], &v[data][..vl]);
            }
        }
    }

    /// Executes one instruction, updating registers and memory.
    ///
    /// # Panics
    ///
    /// Panics on malformed instructions (e.g. a vector op missing its
    /// sources), which indicates a bug in the trace generator.
    pub fn execute(&mut self, inst: &Instruction) {
        use Opcode::*;
        let vl = inst.vl as usize;
        match inst.op {
            SAddA | SAdd => {
                let v = self
                    .scalar_operand(inst, 0)
                    .wrapping_add(self.scalar_operand(inst, 1))
                    .wrapping_add_signed(if self.src(inst, 1).is_some() {
                        inst.imm
                    } else {
                        0
                    });
                self.set_scalar(inst.dst.expect("scalar op needs dst"), v);
            }
            SMul => {
                let v = self
                    .scalar_operand(inst, 0)
                    .wrapping_mul(self.scalar_operand(inst, 1).max(1));
                self.set_scalar(inst.dst.expect("scalar op needs dst"), v);
            }
            SDiv => {
                let v = self.scalar_operand(inst, 0) / self.scalar_operand(inst, 1).max(1);
                self.set_scalar(inst.dst.expect("scalar op needs dst"), v);
            }
            SMove => {
                let v = self.scalar_operand(inst, 0);
                self.set_scalar(inst.dst.expect("scalar op needs dst"), v);
            }
            SLui => {
                self.set_scalar(inst.dst.expect("lui needs dst"), inst.imm as u64);
            }
            SetVl | SetVs | Branch | Jump | Call | Ret => {
                // Control state is carried per-instruction in the trace.
            }
            SLoad => {
                let addr = inst.mem.expect("load needs memref").base;
                let v = self.mem.load(addr);
                self.set_scalar(inst.dst.expect("load needs dst"), v);
            }
            SStore => {
                let addr = inst.mem.expect("store needs memref").base;
                let v = self.scalar_operand(inst, 0);
                self.mem.store(addr, v);
            }
            VLoad | VGather => {
                let m = inst.mem.expect("not a memory instruction");
                self.vector_load(inst, m, vl);
            }
            VStore | VScatter => {
                let m = inst.mem.expect("not a memory instruction");
                self.vector_store(inst, m, vl);
            }
            VAdd | VMul | VDiv | VLogic | VShift => {
                let a = self.src(inst, 0).expect("vector op needs src");
                let mut av = [0u64; VLEN];
                av[..vl].copy_from_slice(&self.vector(a)[..vl]);
                let mut bv = [0u64; VLEN];
                self.fill_vector_operand(inst, 1, &mut bv[..vl]);
                let d = vreg(inst.dst.expect("vector op needs dst"));
                let dst = &mut self.v[d][..vl];
                let lanes = dst.iter_mut().zip(av[..vl].iter().zip(&bv[..vl]));
                // One tight loop per opcode so each autovectorizes.
                match inst.op {
                    VAdd => lanes.for_each(|(d, (&x, &y))| *d = x.wrapping_add(y)),
                    VMul => lanes.for_each(|(d, (&x, &y))| *d = x.wrapping_mul(y.max(1))),
                    VDiv => lanes.for_each(|(d, (&x, &y))| *d = x / y.max(1)),
                    VLogic => lanes.for_each(|(d, (&x, &y))| *d = x ^ y),
                    VShift => lanes.for_each(|(d, (&x, &y))| *d = x.rotate_left(1) ^ y),
                    _ => unreachable!(),
                }
            }
            VSqrt => {
                let a = self.src(inst, 0).expect("vsqrt needs src");
                let mut av = [0u64; VLEN];
                av[..vl].copy_from_slice(&self.vector(a)[..vl]);
                let d = vreg(inst.dst.expect("vsqrt needs dst"));
                for (dst, &x) in self.v[d][..vl].iter_mut().zip(&av[..vl]) {
                    *dst = x.isqrt();
                }
            }
            VCmp => {
                let a = self.src(inst, 0).expect("vcmp needs src");
                let mut av = [0u64; VLEN];
                av[..vl].copy_from_slice(&self.vector(a)[..vl]);
                let mut bv = [0u64; VLEN];
                self.fill_vector_operand(inst, 1, &mut bv[..vl]);
                let mut m = 0u128;
                for i in 0..vl {
                    if av[i] > bv[i] {
                        m |= 1 << i;
                    }
                }
                match inst.dst.expect("vcmp needs mask dst") {
                    ArchReg::Mask(i) => self.masks[i as usize] = m,
                    other => panic!("vcmp destination {other} is not a mask"),
                }
            }
            VMerge => {
                let a = self.src(inst, 0).expect("vmerge needs src a");
                let b = self.src(inst, 1).expect("vmerge needs src b");
                let mreg = self.src(inst, 2).expect("vmerge needs mask");
                let mut av = [0u64; VLEN];
                av[..vl].copy_from_slice(&self.vector(a)[..vl]);
                let mut bv = [0u64; VLEN];
                bv[..vl].copy_from_slice(&self.vector(b)[..vl]);
                let m = self.mask(mreg);
                let d = vreg(inst.dst.expect("vmerge needs dst"));
                for (i, dst) in self.v[d][..vl].iter_mut().enumerate() {
                    *dst = if m & (1 << i) != 0 { av[i] } else { bv[i] };
                }
            }
            VReduce => {
                let a = self.src(inst, 0).expect("vreduce needs src");
                let sum = self
                    .vector_prefix(a, inst.vl)
                    .iter()
                    .fold(0u64, |acc, &x| acc.wrapping_add(x));
                self.set_scalar(inst.dst.expect("vreduce needs scalar dst"), sum);
            }
            VMaskOp => {
                let a = self.src(inst, 0).expect("vmaskop needs src");
                let b = self.src(inst, 1).unwrap_or(a);
                let m = self.mask(a) ^ self.mask(b);
                match inst.dst.expect("vmaskop needs mask dst") {
                    ArchReg::Mask(i) => self.masks[i as usize] = m,
                    other => panic!("vmaskop destination {other} is not a mask"),
                }
            }
        }
    }

    /// Executes a whole trace in program order.
    pub fn run(&mut self, trace: &Trace) {
        for inst in trace.iter() {
            self.execute(&inst);
        }
    }

    /// A digest of the architectural register state, for equivalence
    /// checks between two executions (ignores memory; compare images with
    /// [`MemImage::same_contents`]).
    #[must_use]
    pub fn register_digest(&self) -> u64 {
        // FNV-1a over the full register state.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for &x in &self.a {
            eat(x);
        }
        for &x in &self.s {
            eat(x);
        }
        for v in &self.v {
            for &x in v.iter() {
                eat(x);
            }
        }
        for &m in &self.masks {
            eat(m as u64);
            eat((m >> 64) as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_isa::MemRef;

    fn vadd(dst: u8, a: u8, b: u8, vl: u16) -> Instruction {
        Instruction::vector(
            Opcode::VAdd,
            ArchReg::V(dst),
            &[ArchReg::V(a), ArchReg::V(b)],
            vl,
        )
    }

    #[test]
    fn scalar_arith() {
        let mut m = Machine::new();
        m.set_scalar(ArchReg::S(0), 5);
        m.set_scalar(ArchReg::S(1), 7);
        m.execute(&Instruction::scalar(
            Opcode::SAdd,
            ArchReg::S(2),
            &[ArchReg::S(0), ArchReg::S(1)],
        ));
        assert_eq!(m.scalar(ArchReg::S(2)), 12);
        m.execute(&Instruction::scalar(Opcode::SLui, ArchReg::A(0), &[]).with_imm(0x1000));
        assert_eq!(m.scalar(ArchReg::A(0)), 0x1000);
    }

    #[test]
    fn vector_add_only_touches_vl_prefix() {
        let mut m = Machine::new();
        for i in 0..128 {
            m.set_vector_element(ArchReg::V(0), i, 1);
            m.set_vector_element(ArchReg::V(1), i, 2);
            m.set_vector_element(ArchReg::V(2), i, 99);
        }
        m.execute(&vadd(2, 0, 1, 64));
        assert_eq!(m.vector(ArchReg::V(2))[0], 3);
        assert_eq!(m.vector(ArchReg::V(2))[63], 3);
        assert_eq!(m.vector(ArchReg::V(2))[64], 99, "beyond VL unchanged");
    }

    #[test]
    fn vector_op_aliasing_dst_is_latched() {
        // dst == src must behave as if operands were read first.
        let mut m = Machine::new();
        for i in 0..8 {
            m.set_vector_element(ArchReg::V(0), i, u64::from(i) + 1);
        }
        m.execute(&vadd(0, 0, 0, 8));
        for i in 0..8u64 {
            assert_eq!(m.vector(ArchReg::V(0))[i as usize], 2 * (i + 1));
        }
    }

    #[test]
    fn vload_vstore_round_trip() {
        let mut m = Machine::new();
        for i in 0..16u64 {
            m.memory_mut().store(0x1000 + i * 8, i * 10);
        }
        let ld = Instruction::load(
            Opcode::VLoad,
            ArchReg::V(0),
            &[],
            MemRef::strided(0x1000, 8, 16),
            16,
        );
        m.execute(&ld);
        assert_eq!(m.vector(ArchReg::V(0))[5], 50);
        let st = Instruction::store(
            Opcode::VStore,
            &[ArchReg::V(0)],
            MemRef::strided(0x2000, 8, 16),
            16,
        );
        m.execute(&st);
        assert_eq!(m.memory().load(0x2000 + 9 * 8), 90);
    }

    #[test]
    fn strided_negative_store() {
        let mut m = Machine::new();
        m.set_vector_element(ArchReg::V(1), 0, 111);
        m.set_vector_element(ArchReg::V(1), 1, 222);
        let st = Instruction::store(
            Opcode::VStore,
            &[ArchReg::V(1)],
            MemRef::strided(0x3000, -8, 2),
            2,
        );
        m.execute(&st);
        assert_eq!(m.memory().load(0x3000), 111);
        assert_eq!(m.memory().load(0x2ff8), 222);
    }

    #[test]
    fn gather_uses_index_register() {
        let mut m = Machine::new();
        m.memory_mut().store(0x1000, 7);
        m.memory_mut().store(0x1010, 9);
        m.set_vector_element(ArchReg::V(3), 0, 0x10); // byte offsets
        m.set_vector_element(ArchReg::V(3), 1, 0x0);
        let g = Instruction::load(
            Opcode::VGather,
            ArchReg::V(0),
            &[ArchReg::V(3)],
            MemRef::indexed(0x1000, 0x1000, 0x1010),
            2,
        );
        m.execute(&g);
        assert_eq!(m.vector(ArchReg::V(0))[0], 9);
        assert_eq!(m.vector(ArchReg::V(0))[1], 7);
    }

    #[test]
    fn gather_into_its_own_index_register() {
        // The index operand must be snapshotted before dst is written.
        let mut m = Machine::new();
        m.memory_mut().store(0x1000, 40);
        m.memory_mut().store(0x1008, 50);
        m.set_vector_element(ArchReg::V(0), 0, 8);
        m.set_vector_element(ArchReg::V(0), 1, 0);
        let g = Instruction::load(
            Opcode::VGather,
            ArchReg::V(0),
            &[ArchReg::V(0)],
            MemRef::indexed(0x1000, 0x1000, 0x1008),
            2,
        );
        m.execute(&g);
        assert_eq!(m.vector(ArchReg::V(0))[0], 50);
        assert_eq!(m.vector(ArchReg::V(0))[1], 40);
    }

    #[test]
    fn scatter_writes_indexed() {
        let mut m = Machine::new();
        m.set_vector_element(ArchReg::V(0), 0, 5);
        m.set_vector_element(ArchReg::V(0), 1, 6);
        m.set_vector_element(ArchReg::V(1), 0, 0);
        m.set_vector_element(ArchReg::V(1), 1, 0x20);
        let s = Instruction::store(
            Opcode::VScatter,
            &[ArchReg::V(0), ArchReg::V(1)],
            MemRef::indexed(0x4000, 0x4000, 0x4020),
            2,
        );
        m.execute(&s);
        assert_eq!(m.memory().load(0x4000), 5);
        assert_eq!(m.memory().load(0x4020), 6);
    }

    #[test]
    fn cmp_and_merge() {
        let mut m = Machine::new();
        for i in 0..4 {
            m.set_vector_element(ArchReg::V(0), i, u64::from(i) * 10); // 0,10,20,30
            m.set_vector_element(ArchReg::V(1), i, 15);
            m.set_vector_element(ArchReg::V(2), i, 1000 + u64::from(i));
        }
        m.execute(&Instruction::vector(
            Opcode::VCmp,
            ArchReg::Mask(0),
            &[ArchReg::V(0), ArchReg::V(1)],
            4,
        ));
        assert_eq!(m.mask(ArchReg::Mask(0)), 0b1100);
        m.execute(&Instruction::vector(
            Opcode::VMerge,
            ArchReg::V(3),
            &[ArchReg::V(0), ArchReg::V(2), ArchReg::Mask(0)],
            4,
        ));
        assert_eq!(m.vector(ArchReg::V(3))[0], 1000);
        assert_eq!(m.vector(ArchReg::V(3))[3], 30);
    }

    #[test]
    fn reduce_sums_prefix() {
        let mut m = Machine::new();
        for i in 0..8 {
            m.set_vector_element(ArchReg::V(0), i, 2);
        }
        m.execute(&Instruction::vector(
            Opcode::VReduce,
            ArchReg::S(3),
            &[ArchReg::V(0)],
            8,
        ));
        assert_eq!(m.scalar(ArchReg::S(3)), 16);
    }

    #[test]
    fn vector_scalar_broadcast() {
        let mut m = Machine::new();
        m.set_scalar(ArchReg::S(0), 100);
        for i in 0..4 {
            m.set_vector_element(ArchReg::V(0), i, u64::from(i));
        }
        m.execute(&Instruction::vector(
            Opcode::VMul,
            ArchReg::V(1),
            &[ArchReg::V(0), ArchReg::S(0)],
            4,
        ));
        assert_eq!(m.vector(ArchReg::V(1))[3], 300);
    }

    #[test]
    fn digest_changes_with_state() {
        let mut m = Machine::new();
        let d0 = m.register_digest();
        m.set_scalar(ArchReg::S(0), 1);
        assert_ne!(m.register_digest(), d0);
    }

    #[test]
    fn deterministic_replay() {
        let mut t = Trace::new("replay");
        t.push(Instruction::scalar(Opcode::SLui, ArchReg::A(0), &[]).with_imm(0x100));
        t.push(Instruction::load(
            Opcode::VLoad,
            ArchReg::V(0),
            &[ArchReg::A(0)],
            MemRef::strided(0x100, 8, 8),
            8,
        ));
        t.push(vadd(1, 0, 0, 8));
        t.push(Instruction::store(
            Opcode::VStore,
            &[ArchReg::V(1)],
            MemRef::strided(0x800, 8, 8),
            8,
        ));
        let mut m1 = Machine::new();
        let mut m2 = Machine::new();
        for i in 0..8u64 {
            m1.memory_mut().store(0x100 + 8 * i, i);
            m2.memory_mut().store(0x100 + 8 * i, i);
        }
        m1.run(&t);
        m2.run(&t);
        assert_eq!(m1.register_digest(), m2.register_digest());
        assert!(m1.memory().same_contents(m2.memory()));
        assert_eq!(m1.memory().load(0x800 + 8 * 3), 6);
    }
}
