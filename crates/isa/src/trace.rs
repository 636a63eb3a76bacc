//! Dynamic instruction traces and their summary statistics.
//!
//! # Storage
//!
//! A [`Trace`] keeps one fixed-size [`InstRecord`] per instruction, 24
//! bytes: the pc, one index into the trace's side words, the vector
//! length, the opcode, a flag byte, the destination and four source
//! registers packed one byte each (`class << 3 | index`, `0xff` for
//! none) and a memory reference's granularity. The wide, sparse
//! operands live in the side words, in this order when present: a
//! [`MemRef`] (base, stride, range start, range end; its kind sits in
//! the flags), a branch target (the outcome is a flag) and a nonzero
//! immediate. An instruction with none of them takes no side word.
//!
//! In the paper suite, 43% of the 40,768 instructions carry a memory
//! reference, 3% a branch and 11% a nonzero immediate, so the suite
//! takes 1,588,104 bytes (1.51 MiB), 38.95 per instruction, against
//! 3.42 MiB as 88-byte [`Instruction`]s.
//!
//! The timing engines read records in place: `oov-core`'s fetch and
//! dispatch and `oov-ref` index [`Trace::records`] and call the
//! side-word readers [`Trace::mem`] and [`Trace::branch`]. The
//! functional oracles (`oov-exec`'s machine and load-elimination
//! checker) and tests decode a whole [`Instruction`] with
//! [`Trace::get`] or [`Trace::iter`]. The engines do not decode: with
//! fetch, dispatch and `oov-ref` each calling [`Trace::get`] once per
//! instruction instead, single-threaded passes over the `grid` points
//! ran slower in 12 of 12 alternations, by 11% in the median (2-vCPU
//! x86-64 Xeon host).

use std::fmt;

use crate::{ArchReg, BranchInfo, FuClass, Instruction, MemKind, MemRef, Opcode, MAX_SRCS};

/// Summary statistics of a trace — the raw material of the paper's Table 2
/// (operation counts) and Table 3 (spill traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Scalar instructions (everything that is not a vector instruction).
    pub scalar_insts: u64,
    /// Vector instructions.
    pub vector_insts: u64,
    /// Element operations performed by vector instructions.
    pub vector_ops: u64,
    /// Words moved by vector loads.
    pub vload_words: u64,
    /// Words moved by vector loads marked as spill code.
    pub vload_spill_words: u64,
    /// Words moved by vector stores.
    pub vstore_words: u64,
    /// Words moved by vector stores marked as spill code.
    pub vstore_spill_words: u64,
    /// Scalar loads.
    pub sload_count: u64,
    /// Scalar loads marked as spill code.
    pub sload_spill_count: u64,
    /// Scalar stores.
    pub sstore_count: u64,
    /// Scalar stores marked as spill code.
    pub sstore_spill_count: u64,
    /// Conditional branches.
    pub branches: u64,
}

impl TraceStats {
    /// Accumulates one instruction into the statistics.
    pub fn record(&mut self, inst: &Instruction) {
        if inst.op.is_vector() {
            self.vector_insts += 1;
            self.vector_ops += inst.ops();
        } else {
            self.scalar_insts += 1;
        }
        match inst.op {
            Opcode::VLoad | Opcode::VGather => {
                self.vload_words += inst.words_moved();
                if inst.is_spill {
                    self.vload_spill_words += inst.words_moved();
                }
            }
            Opcode::VStore | Opcode::VScatter => {
                self.vstore_words += inst.words_moved();
                if inst.is_spill {
                    self.vstore_spill_words += inst.words_moved();
                }
            }
            Opcode::SLoad => {
                self.sload_count += 1;
                if inst.is_spill {
                    self.sload_spill_count += 1;
                }
            }
            Opcode::SStore => {
                self.sstore_count += 1;
                if inst.is_spill {
                    self.sstore_spill_count += 1;
                }
            }
            Opcode::Branch => self.branches += 1,
            _ => {}
        }
    }

    /// Total instructions.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.scalar_insts + self.vector_insts
    }

    /// Percentage of vectorization, as defined under the paper's Table 2:
    /// vector operations divided by (scalar instructions + vector
    /// operations).
    #[must_use]
    pub fn vectorization_pct(&self) -> f64 {
        let denom = self.scalar_insts + self.vector_ops;
        if denom == 0 {
            return 0.0;
        }
        100.0 * self.vector_ops as f64 / denom as f64
    }

    /// Average vector length: vector operations / vector instructions.
    #[must_use]
    pub fn avg_vl(&self) -> f64 {
        if self.vector_insts == 0 {
            return 0.0;
        }
        self.vector_ops as f64 / self.vector_insts as f64
    }

    /// Total words of memory traffic (vector words + scalar accesses).
    #[must_use]
    pub fn total_traffic_words(&self) -> u64 {
        self.vload_words + self.vstore_words + self.sload_count + self.sstore_count
    }

    /// Fraction of the memory traffic that is spill traffic.
    #[must_use]
    pub fn spill_traffic_fraction(&self) -> f64 {
        let total = self.total_traffic_words();
        if total == 0 {
            return 0.0;
        }
        let spill = self.vload_spill_words
            + self.vstore_spill_words
            + self.sload_spill_count
            + self.sstore_spill_count;
        spill as f64 / total as f64
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insts ({} scalar, {} vector), {} vector ops, {:.1}% vectorized, avg VL {:.0}",
            self.total_insts(),
            self.scalar_insts,
            self.vector_insts,
            self.vector_ops,
            self.vectorization_pct(),
            self.avg_vl()
        )
    }
}

/// No register in a packed register slot of an [`InstRecord`].
const NO_REG: u8 = 0xff;

/// [`InstRecord`] flag: register-spill traffic.
const SPILL: u8 = 1;
/// [`InstRecord`] flag: a memory reference sits in the side words.
const MEM: u8 = 1 << 1;
/// [`InstRecord`] flag: a branch target sits in the side words.
const BRANCH: u8 = 1 << 2;
/// [`InstRecord`] flag: the traced branch was taken.
const TAKEN: u8 = 1 << 3;
/// [`InstRecord`] flag: a nonzero immediate sits in the side words.
const IMM: u8 = 1 << 4;
/// [`InstRecord`] flags: the memory reference's [`MemKind`], two bits.
const KIND_SHIFT: u32 = 5;

/// Side words a memory reference takes: base, stride, range start and
/// range end (its kind and granularity live in the record).
const MEM_WORDS: usize = 4;

/// One register name in a byte: `class << 3 | index`, or [`NO_REG`].
fn pack_reg(r: Option<ArchReg>) -> u8 {
    r.map_or(NO_REG, |r| {
        assert!(r.is_valid(), "register {r} out of range for a trace");
        (r.class() as u8) << 3 | r.index()
    })
}

#[inline]
fn unpack_reg(b: u8) -> Option<ArchReg> {
    let i = b & 7;
    Some(match b >> 3 {
        0 => ArchReg::A(i),
        1 => ArchReg::S(i),
        2 => ArchReg::V(i),
        3 => ArchReg::Mask(i),
        _ => return None,
    })
}

/// One instruction as a [`Trace`] stores it: a fixed-size record of
/// the fields every instruction has, plus the position of its memory
/// reference, branch target and immediate in the trace's side words.
/// The engines read its memory reference and branch outcome through
/// [`Trace::mem`] and [`Trace::branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstRecord {
    pc: u64,
    side: u32,
    vl: u16,
    op: Opcode,
    flags: u8,
    /// The destination, then the four source slots.
    regs: [u8; 1 + MAX_SRCS],
    /// The memory reference's granularity (0 without one).
    granularity: u8,
}

const _: () = assert!(std::mem::size_of::<InstRecord>() == 24);

// The readers the engines call per instruction are `#[inline]`: they
// cross a crate boundary, and without the hint single-threaded passes
// over the `grid` points ran about 5% slower than with it.
impl InstRecord {
    /// Opcode.
    #[must_use]
    #[inline]
    pub fn op(&self) -> Opcode {
        self.op
    }

    /// Vector length in effect (1 for scalar instructions).
    #[must_use]
    #[inline]
    pub fn vl(&self) -> u16 {
        self.vl
    }

    /// Static program counter.
    #[must_use]
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// `true` for register-spill traffic.
    #[must_use]
    #[inline]
    pub fn is_spill(&self) -> bool {
        self.flags & SPILL != 0
    }

    /// Destination register, if any.
    #[must_use]
    #[inline]
    pub fn dst(&self) -> Option<ArchReg> {
        unpack_reg(self.regs[0])
    }

    /// Iterator over the actual (non-`None`) sources, in slot order.
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.regs[1..].iter().filter_map(|&b| unpack_reg(b))
    }

    #[inline]
    fn mem_words(&self) -> usize {
        if self.flags & MEM != 0 {
            MEM_WORDS
        } else {
            0
        }
    }

    fn branch_words(&self) -> usize {
        usize::from(self.flags & BRANCH != 0)
    }
}

/// Per-unit element work of a trace, accumulated as it is pushed: the
/// inputs to [`Trace::unit_work`].
#[derive(Debug, Clone, Copy, Default)]
struct UnitWork {
    mem: u64,
    fu2_only: u64,
    fu_total: u64,
}

impl UnitWork {
    fn record(&mut self, inst: &Instruction) {
        match inst.op.fu_class() {
            FuClass::Mem => self.mem += inst.ops(),
            FuClass::VecFu2Only => {
                self.fu2_only += inst.ops();
                self.fu_total += inst.ops();
            }
            FuClass::VecAny => self.fu_total += inst.ops(),
            FuClass::Scalar => {}
        }
    }
}

/// A dynamic instruction stream for one program, plus its statistics.
///
/// Traces play the role of the Dixie-generated traces of the paper: the
/// simulators consume them instruction by instruction. Each instruction
/// is stored as an [`InstRecord`] plus its side words: the engines read
/// records in place, and [`Trace::get`] / [`Trace::iter`] decode whole
/// [`Instruction`]s.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    name: String,
    records: Vec<InstRecord>,
    /// Memory references, branch targets and nonzero immediates, in
    /// that order within an instruction, at its record's `side` index.
    side: Vec<u64>,
    stats: TraceStats,
    work: UnitWork,
}

impl Trace {
    /// Creates an empty trace for program `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            ..Trace::default()
        }
    }

    /// The program name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an instruction, updating the statistics.
    ///
    /// # Panics
    ///
    /// Panics if a register is out of range for its class, or if the
    /// side words outgrow a `u32` index.
    pub fn push(&mut self, inst: Instruction) {
        self.stats.record(&inst);
        self.work.record(&inst);
        let side = u32::try_from(self.side.len()).expect("trace side words overflow a u32 index");
        let mut flags = if inst.is_spill { SPILL } else { 0 };
        let mut granularity = 0;
        if let Some(m) = inst.mem {
            flags |= MEM | (m.kind as u8) << KIND_SHIFT;
            granularity = m.granularity;
            self.side
                .extend([m.base, m.stride as u64, m.range_lo, m.range_hi]);
        }
        if let Some(b) = inst.branch {
            flags |= BRANCH | if b.taken { TAKEN } else { 0 };
            self.side.push(b.target);
        }
        if inst.imm != 0 {
            flags |= IMM;
            self.side.push(inst.imm as u64);
        }
        let mut regs = [NO_REG; 1 + MAX_SRCS];
        for (slot, r) in regs
            .iter_mut()
            .zip(std::iter::once(inst.dst).chain(inst.srcs))
        {
            *slot = pack_reg(r);
        }
        self.records.push(InstRecord {
            pc: inst.pc,
            side,
            vl: inst.vl,
            op: inst.op,
            flags,
            regs,
            granularity,
        });
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Every instruction's record, in trace order.
    #[must_use]
    #[inline]
    pub fn records(&self) -> &[InstRecord] {
        &self.records
    }

    /// The memory reference of a load or store record.
    #[must_use]
    #[inline]
    pub fn mem(&self, r: &InstRecord) -> Option<MemRef> {
        if r.flags & MEM == 0 {
            return None;
        }
        let w = &self.side[r.side as usize..][..MEM_WORDS];
        let kind = match r.flags >> KIND_SHIFT & 3 {
            0 => MemKind::Scalar,
            1 => MemKind::Strided,
            _ => MemKind::Indexed,
        };
        Some(MemRef {
            kind,
            base: w[0],
            stride: w[1] as i64,
            granularity: r.granularity,
            range_lo: w[2],
            range_hi: w[3],
        })
    }

    /// The traced outcome of a control-transfer record.
    #[must_use]
    #[inline]
    pub fn branch(&self, r: &InstRecord) -> Option<BranchInfo> {
        (r.flags & BRANCH != 0).then(|| BranchInfo {
            taken: r.flags & TAKEN != 0,
            target: self.side[r.side as usize + r.mem_words()],
        })
    }

    /// The immediate operand of a record (zero when unused).
    fn imm(&self, r: &InstRecord) -> i64 {
        if r.flags & IMM == 0 {
            return 0;
        }
        self.side[r.side as usize + r.mem_words() + r.branch_words()] as i64
    }

    /// Instruction `i`, decoded from its record and side words.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> Instruction {
        self.decode(&self.records[i])
    }

    fn decode(&self, r: &InstRecord) -> Instruction {
        let mut srcs = [None; MAX_SRCS];
        for (s, &b) in srcs.iter_mut().zip(&r.regs[1..]) {
            *s = unpack_reg(b);
        }
        Instruction {
            op: r.op,
            dst: r.dst(),
            srcs,
            vl: r.vl,
            mem: self.mem(r),
            branch: self.branch(r),
            is_spill: r.is_spill(),
            pc: r.pc,
            imm: self.imm(r),
        }
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the trace holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterator over the decoded instructions.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Instruction> + '_ {
        self.records.iter().map(|r| self.decode(r))
    }

    /// Total busy cycles each vector unit class would need, ignoring all
    /// dependences — the inputs to the paper's IDEAL bound (§4.2): MEM
    /// work, FU2-only work (mul/div/sqrt) and total FU work. Accumulated
    /// as instructions are pushed, so O(1).
    ///
    /// Returns `(mem_cycles, fu2_only_cycles, total_fu_cycles)` counting
    /// one cycle per element.
    #[must_use]
    pub fn unit_work(&self) -> (u64, u64, u64) {
        let w = self.work;
        (w.mem, w.fu2_only, w.fu_total)
    }

    /// The paper's IDEAL cycle count: execution limited only by the most
    /// saturated vector resource (§4.2). The two FUs can split the
    /// FU-any work, but FU2-only work cannot migrate.
    #[must_use]
    pub fn ideal_cycles(&self) -> u64 {
        let (mem, fu2_only, fu_total) = self.unit_work();
        let balanced = fu_total.div_ceil(2);
        mem.max(fu2_only).max(balanced).max(1)
    }
}

impl FromIterator<Instruction> for Trace {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        let mut t = Trace::new("anonymous");
        t.extend(iter);
        t
    }
}

impl Extend<Instruction> for Trace {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        for i in iter {
            self.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, MemRef};

    fn sample_trace() -> Trace {
        let mut t = Trace::new("t");
        let m = MemRef::strided(0x1000, 8, 64);
        t.push(Instruction::load(
            Opcode::VLoad,
            ArchReg::V(0),
            &[ArchReg::A(0)],
            m,
            64,
        ));
        t.push(Instruction::vector(
            Opcode::VMul,
            ArchReg::V(1),
            &[ArchReg::V(0)],
            64,
        ));
        t.push(Instruction::scalar(
            Opcode::SAdd,
            ArchReg::S(0),
            &[ArchReg::S(1)],
        ));
        t.push(
            Instruction::store(
                Opcode::VStore,
                &[ArchReg::V(1), ArchReg::A(1)],
                MemRef::strided(0x8000, 8, 64),
                64,
            )
            .spill(),
        );
        t
    }

    #[test]
    fn stats_accumulate() {
        let t = sample_trace();
        let s = t.stats();
        assert_eq!(s.scalar_insts, 1);
        assert_eq!(s.vector_insts, 3);
        assert_eq!(s.vector_ops, 3 * 64);
        assert_eq!(s.vload_words, 64);
        assert_eq!(s.vstore_words, 64);
        assert_eq!(s.vstore_spill_words, 64);
        assert_eq!(s.vload_spill_words, 0);
    }

    #[test]
    fn vectorization_formula_matches_paper() {
        // Table 2 footnote: %vect = vector ops / (scalar insts + vector ops).
        let t = sample_trace();
        let s = t.stats();
        let expect = 100.0 * 192.0 / (1.0 + 192.0);
        assert!((s.vectorization_pct() - expect).abs() < 1e-9);
        assert!((s.avg_vl() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn unit_work_partition() {
        let t = sample_trace();
        let (mem, fu2, fu_total) = t.unit_work();
        assert_eq!(mem, 128); // load + store
        assert_eq!(fu2, 64); // the multiply
        assert_eq!(fu_total, 64);
    }

    #[test]
    fn ideal_is_max_of_unit_bounds() {
        let t = sample_trace();
        // mem=128, fu2_only=64, balanced=32 → ideal = 128.
        assert_eq!(t.ideal_cycles(), 128);
    }

    #[test]
    fn ideal_respects_fu2_only_work() {
        let mut t = Trace::new("mul-heavy");
        for _ in 0..4 {
            t.push(Instruction::vector(
                Opcode::VMul,
                ArchReg::V(1),
                &[ArchReg::V(0)],
                128,
            ));
        }
        // All work is FU2-only: balancing over two units must not apply.
        assert_eq!(t.ideal_cycles(), 512);
    }

    #[test]
    fn collect_and_extend() {
        let t = sample_trace();
        let t2: Trace = t.iter().collect();
        assert_eq!(t2.len(), t.len());
        assert_eq!(t2.stats(), t.stats());
        let mut t3 = Trace::new("x");
        t3.extend(t.iter());
        assert_eq!(t3.stats().vector_ops, t.stats().vector_ops);
    }

    #[test]
    fn spill_fraction() {
        let t = sample_trace();
        // 64 spill words out of 128 total words + 0 scalar accesses.
        assert!((t.stats().spill_traffic_fraction() - 0.5).abs() < 1e-9);
    }

    /// SplitMix64, the workspace's dependency-free PRNG.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One of `extremes`, or a random word, with equal odds.
    fn pick(state: &mut u64, extremes: &[u64]) -> u64 {
        let r = splitmix(state);
        if r & 1 == 0 {
            extremes[(r >> 1) as usize % extremes.len()]
        } else {
            splitmix(state)
        }
    }

    fn random_reg(state: &mut u64) -> Option<ArchReg> {
        let r = splitmix(state);
        (r & 3 != 0).then(|| {
            let class = crate::RegClass::ALL[(r >> 2) as usize % 4];
            ArchReg::new(class, (r >> 4) as u8 % class.arch_count())
        })
    }

    /// Instruction `i` of a random stream: opcodes in turn, so every
    /// class appears, and memory references, branch outcomes and
    /// immediates present or absent independently of the opcode.
    fn random_inst(state: &mut u64, i: usize) -> Instruction {
        let mut srcs = [None; MAX_SRCS];
        for s in &mut srcs {
            *s = random_reg(state);
        }
        let r = splitmix(state);
        let mem = (r & 1 != 0).then(|| MemRef {
            kind: [MemKind::Scalar, MemKind::Strided, MemKind::Indexed][(r >> 8) as usize % 3],
            base: pick(state, &[0, 8, u64::MAX]),
            stride: pick(
                state,
                &[0, 8, (-8i64) as u64, i64::MIN as u64, i64::MAX as u64],
            ) as i64,
            granularity: (r >> 16) as u8,
            range_lo: pick(state, &[0, u64::MAX]),
            range_hi: pick(state, &[0, u64::MAX]),
        });
        let branch = (r & 2 != 0).then(|| BranchInfo {
            taken: r & 4 != 0,
            target: pick(state, &[0, 4, u64::MAX]),
        });
        let imm = if r & 8 != 0 {
            pick(state, &[1, u64::MAX, i64::MIN as u64, i64::MAX as u64]) as i64
        } else {
            0
        };
        Instruction {
            op: Opcode::ALL[i % Opcode::ALL.len()],
            dst: random_reg(state),
            srcs,
            vl: pick(
                state,
                &[0, 1, u64::from(crate::MAX_VL), u64::from(u16::MAX)],
            ) as u16,
            mem,
            branch,
            is_spill: r & 16 != 0,
            pc: pick(state, &[0, 0x1000, u64::MAX]),
            imm,
        }
    }

    #[test]
    fn random_streams_round_trip_field_for_field() {
        for seed in [1, 2, 42, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            let mut state = seed;
            let insts: Vec<Instruction> = (0..2000).map(|i| random_inst(&mut state, i)).collect();
            let t: Trace = insts.iter().copied().collect();
            assert_eq!(t.len(), insts.len());
            for (i, want) in insts.iter().enumerate() {
                assert_eq!(&t.get(i), want, "seed {seed:#x}, instruction {i}");
                let r = &t.records()[i];
                assert_eq!(
                    (r.op(), r.vl(), r.pc(), r.is_spill(), r.dst()),
                    (want.op, want.vl, want.pc, want.is_spill, want.dst),
                );
                assert!(r.sources().eq(want.sources()));
                assert_eq!(t.mem(r), want.mem);
                assert_eq!(t.branch(r), want.branch);
                assert_eq!(t.imm(r), want.imm);
            }
            assert!(t.iter().eq(insts.iter().copied()), "seed {seed:#x}");
            assert_eq!(t.iter().len(), insts.len());
            assert_eq!(stored_bytes(&t), layout_bytes(&t), "seed {seed:#x}");
        }
    }

    #[test]
    fn unit_work_accumulates_what_a_walk_finds() {
        let mut state = 7;
        let t: Trace = (0..500).map(|i| random_inst(&mut state, i)).collect();
        let (mut mem, mut fu2_only, mut fu_total) = (0, 0, 0);
        for i in t.iter() {
            match i.op.fu_class() {
                FuClass::Mem => mem += i.ops(),
                FuClass::VecFu2Only => {
                    fu2_only += i.ops();
                    fu_total += i.ops();
                }
                FuClass::VecAny => fu_total += i.ops(),
                FuClass::Scalar => {}
            }
        }
        assert_eq!(t.unit_work(), (mem, fu2_only, fu_total));
        assert!(mem > 0 && fu2_only > 0 && fu_total > fu2_only);
    }

    /// Bytes the records and side words take.
    fn stored_bytes(t: &Trace) -> usize {
        std::mem::size_of_val(t.records.as_slice()) + std::mem::size_of_val(t.side.as_slice())
    }

    /// Bytes the layout should take for `t`'s decoded instructions: a
    /// 24-byte record each, four side words per memory reference and
    /// one per branch target and nonzero immediate. `oov-kernels` sizes
    /// the paper suite with the same sum.
    fn layout_bytes(t: &Trace) -> usize {
        t.iter()
            .map(|i| {
                let words = 4 * usize::from(i.mem.is_some())
                    + usize::from(i.branch.is_some())
                    + usize::from(i.imm != 0);
                24 + 8 * words
            })
            .sum()
    }

    #[test]
    fn a_record_is_24_bytes_and_side_words_hold_only_what_is_present() {
        let t = sample_trace();
        // Two vector memory references of four words each; no branch,
        // no immediate.
        assert_eq!(stored_bytes(&t), 4 * 24 + 2 * 4 * 8);
        assert_eq!(layout_bytes(&t), stored_bytes(&t));
    }
}
