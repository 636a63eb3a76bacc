//! Lowering: allocated template code → dynamic instruction trace.
//!
//! Expands each loop segment over its (outer × inner) iteration space,
//! instantiating concrete addresses, inserting `SetVl`/`SetVs` control
//! instructions the way strip-mined Convex code does, and emitting the
//! loop-control scalar overhead (counter increment + backward branch) on
//! the reserved registers `A7` (counter) and `A6` (limit).
//!
//! Static PCs are stable across iterations so that the OOOVA's branch
//! target buffer sees the same loop branch every time.
//!
//! The [`CompiledProgram`] carries the kernel's initial memory as its
//! `InitRun`s, unevaluated: no word value exists until a functional
//! check asks for [`CompiledProgram::base_image`]. A paper-scale suite
//! holds about 804K initial words (6.4 MB as values) that no timing run
//! reads.

use std::sync::{Arc, OnceLock};

use oov_isa::{ArchReg, BranchInfo, Instruction, MemRef, Opcode, RegClass, Trace};

use crate::image::BaseImage;
use crate::ir::{AddrExpr, InitRun, Kernel};
use crate::regalloc::{allocate_segment, AllocatedSegment, SlotAllocator, SpillSummary, TInst};

/// Loop counter register reserved by the lowerer.
pub const LOOP_COUNTER: ArchReg = ArchReg::A(7);
/// Loop limit register reserved by the lowerer.
pub const LOOP_LIMIT: ArchReg = ArchReg::A(6);

/// One lowering step: either a template instruction or a control marker.
#[derive(Debug, Clone)]
enum Step {
    /// Set the vector-length register.
    SetVl(u16),
    /// Set the vector-stride register (element stride).
    SetVs(i64),
    /// A body instruction.
    Body(TInst),
    /// Increment the loop counter.
    CounterAdd,
    /// The backward branch; `trips` decides taken/not-taken per iteration.
    BackBranch,
}

fn mem_ref_for(t: &TInst, addr: &AddrExpr, outer: u64, iter: u64) -> MemRef {
    let base = addr.at(outer, iter);
    match t.op {
        Opcode::SLoad | Opcode::SStore => MemRef::scalar(base),
        Opcode::VGather | Opcode::VScatter => {
            let span = addr.indexed_span.expect("indexed access without span");
            MemRef::indexed(base, base, base + span)
        }
        _ => MemRef::strided(base, addr.stride_bytes, t.vl),
    }
}

fn instantiate(t: &TInst, outer: u64, iter: u64, pc: u64) -> Instruction {
    let mut inst = match (t.op.is_load(), t.op.is_store()) {
        (true, _) => {
            let mem = mem_ref_for(t, t.addr.as_ref().expect("load without addr"), outer, iter);
            Instruction::load(t.op, t.dst.expect("load without dst"), &t.srcs, mem, t.vl)
        }
        (_, true) => {
            let mem = mem_ref_for(t, t.addr.as_ref().expect("store without addr"), outer, iter);
            Instruction::store(t.op, &t.srcs, mem, t.vl)
        }
        _ => {
            if t.op.is_vector() {
                Instruction::vector(t.op, t.dst.expect("vector op without dst"), &t.srcs, t.vl)
            } else {
                match t.dst {
                    Some(d) => Instruction::scalar(t.op, d, &t.srcs),
                    None => Instruction {
                        op: t.op,
                        dst: None,
                        srcs: [None; 4],
                        vl: 1,
                        mem: None,
                        branch: None,
                        is_spill: false,
                        pc: 0,
                        imm: 0,
                    },
                }
            }
        }
    };
    inst.imm = t.imm;
    inst.pc = pc;
    if t.is_spill {
        inst.is_spill = true;
    }
    inst
}

/// Builds the per-iteration step sequence for one segment: `SetVl`/`SetVs`
/// bookkeeping, the body, and the loop control.
fn iteration_steps(body: &[TInst]) -> Vec<Step> {
    let mut steps = Vec::with_capacity(body.len() + 8);
    let mut cur_vl: Option<u16> = None;
    let mut cur_vs: Option<i64> = None;
    for t in body {
        if t.op.is_vector() {
            if cur_vl != Some(t.vl) {
                steps.push(Step::SetVl(t.vl));
                cur_vl = Some(t.vl);
            }
            if t.op.is_mem() {
                if let Some(a) = &t.addr {
                    if a.indexed_span.is_none() {
                        let vs = a.stride_bytes / 8;
                        if cur_vs != Some(vs) {
                            steps.push(Step::SetVs(vs));
                            cur_vs = Some(vs);
                        }
                    }
                }
            }
        }
        steps.push(Step::Body(t.clone()));
    }
    steps.push(Step::CounterAdd);
    steps.push(Step::BackBranch);
    steps
}

/// Zero-initialisation of the pinned (carried) registers: `x ^ x` for
/// vectors and masks, `lui 0` for scalars.
fn zero_init(pinned: &[ArchReg], pc: &mut u64, trace: &mut Trace) {
    for &r in pinned {
        let inst = match r.class() {
            RegClass::V => Instruction::vector(Opcode::VLogic, r, &[r, r], 128),
            RegClass::Mask => Instruction::vector(Opcode::VMaskOp, r, &[r, r], 128),
            _ => Instruction::scalar(Opcode::SLui, r, &[]),
        };
        trace.push(inst.at(*pc));
        *pc += 4;
    }
}

/// Lowers already-scheduled, allocated segments, producing the dynamic
/// trace.
pub(crate) fn lower_segments(
    name: &str,
    segments: &[crate::ir::LoopSeg],
    allocated: &[AllocatedSegment],
) -> (Trace, SpillSummary) {
    let mut trace = Trace::new(name);
    let mut spill = SpillSummary::default();
    let mut pc: u64 = 0x1000;
    for (seg, alloc) in segments.iter().zip(allocated) {
        spill.merge(&alloc.summary);
        let steps = iteration_steps(&alloc.body);
        // Fixed PCs: prologue, then one slot per step.
        for outer in 0..u64::from(seg.outer_trips) {
            let mut ppc = pc;
            // Prologue: counter = 0, limit = trips, zero the carried regs.
            trace.push(
                Instruction::scalar(Opcode::SLui, LOOP_COUNTER, &[])
                    .with_imm(0)
                    .at(ppc),
            );
            ppc += 4;
            trace.push(
                Instruction::scalar(Opcode::SLui, LOOP_LIMIT, &[])
                    .with_imm(i64::from(seg.trips))
                    .at(ppc),
            );
            ppc += 4;
            zero_init(&alloc.pinned, &mut ppc, &mut trace);
            let loop_top = ppc;
            for iter in 0..u64::from(seg.trips) {
                let mut ipc = loop_top;
                for step in &steps {
                    match step {
                        Step::SetVl(vl) => {
                            trace.push(Instruction {
                                op: Opcode::SetVl,
                                dst: None,
                                srcs: [None; 4],
                                vl: 1,
                                mem: None,
                                branch: None,
                                is_spill: false,
                                pc: ipc,
                                imm: i64::from(*vl),
                            });
                        }
                        Step::SetVs(vs) => {
                            trace.push(Instruction {
                                op: Opcode::SetVs,
                                dst: None,
                                srcs: [None; 4],
                                vl: 1,
                                mem: None,
                                branch: None,
                                is_spill: false,
                                pc: ipc,
                                imm: *vs,
                            });
                        }
                        Step::Body(t) => {
                            trace.push(instantiate(t, outer, iter, ipc));
                        }
                        Step::CounterAdd => {
                            trace.push(
                                Instruction::scalar(Opcode::SAddA, LOOP_COUNTER, &[LOOP_COUNTER])
                                    .with_imm(1)
                                    .at(ipc),
                            );
                        }
                        Step::BackBranch => {
                            let taken = iter + 1 < u64::from(seg.trips);
                            trace.push(
                                Instruction::control(
                                    Opcode::Branch,
                                    &[LOOP_COUNTER, LOOP_LIMIT],
                                    BranchInfo {
                                        taken,
                                        target: if taken { loop_top } else { ipc + 4 },
                                    },
                                )
                                .at(ipc),
                            );
                        }
                    }
                    ipc += 4;
                }
                if iter + 1 == u64::from(seg.trips) {
                    ppc = ipc;
                }
            }
            pc = ppc + 16; // gap between outer iterations / segments
        }
        pc += 64;
    }
    (trace, spill)
}

/// A fully compiled program: the dynamic trace plus everything needed to
/// execute and check it.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Program name (the kernel's name).
    pub name: String,
    /// The dynamic instruction trace the simulators consume.
    pub trace: Trace,
    /// Initial memory contents for functional execution: the
    /// kernel's [`crate::Kernel::mem_init`] runs, whose generators are
    /// evaluated only when [`CompiledProgram::base_image`] builds the
    /// image.
    pub mem_init: Vec<InitRun>,
    /// Spill code inserted by the register allocator.
    pub spill: SpillSummary,
    /// The seeded base image, built once on first use and shared by
    /// every machine made from this program.
    base: OnceLock<Arc<BaseImage>>,
}

impl CompiledProgram {
    /// The program's initial-memory image. `mem_init` is evaluated
    /// on the first call and exactly once per program (cached behind a
    /// `OnceLock`); every functional run (`oov_exec::Machine::from_base`)
    /// reads through this shared base instead of re-seeding. Timing
    /// runs never call it, so they never hold the image.
    #[must_use]
    pub fn base_image(&self) -> &Arc<BaseImage> {
        self.base
            .get_or_init(|| Arc::new(BaseImage::seeded(&self.mem_init)))
    }
}

/// Compilation pipeline options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Run the list scheduler before allocation (on by default; the
    /// ablation bench turns it off).
    pub schedule: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { schedule: true }
    }
}

/// Compiles a kernel: schedule → allocate → lower.
#[must_use]
pub fn compile_with(kernel: &Kernel, opts: &CompileOptions) -> CompiledProgram {
    let mut segments: Vec<crate::ir::LoopSeg> = kernel.segments().to_vec();
    if opts.schedule {
        for seg in &mut segments {
            crate::sched::schedule_segment(seg);
        }
    }
    let mut slots = SlotAllocator::new();
    let allocated: Vec<AllocatedSegment> = segments
        .iter()
        .map(|seg| allocate_segment(seg, &mut slots))
        .collect();
    let (trace, spill) = lower_segments(kernel.name(), &segments, &allocated);
    CompiledProgram {
        name: kernel.name().to_owned(),
        trace,
        mem_init: kernel.mem_init.clone(),
        spill,
        base: OnceLock::new(),
    }
}

/// Compiles with default options.
#[must_use]
pub fn compile(kernel: &Kernel) -> CompiledProgram {
    compile_with(kernel, &CompileOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Kernel;
    use oov_isa::Opcode;

    fn two_vl_kernel() -> Kernel {
        let mut k = Kernel::new("twovl");
        let a = k.array_init(4096, |i| i);
        let out = k.array(4096);
        let mut b = k.loop_build(3);
        let x = b.vload(a, 0, 1, 64, 64, 0);
        let y = b.vload(a, 1024, 2, 32, 32, 0); // different vl AND stride
        b.vstore(x, out, 0, 1, 64, 64, 0);
        b.vstore(y, out, 2048, 2, 32, 32, 0);
        b.finish();
        k
    }

    #[test]
    fn setvl_emitted_on_length_changes() {
        let prog = compile(&two_vl_kernel());
        let setvls: Vec<i64> = prog
            .trace
            .iter()
            .filter(|i| i.op == Opcode::SetVl)
            .map(|i| i.imm)
            .collect();
        // Each iteration switches lengths at least once: 3 iterations,
        // >= 2 SetVl each.
        assert!(setvls.len() >= 6, "too few SetVl: {}", setvls.len());
        assert!(setvls.contains(&64) && setvls.contains(&32));
    }

    #[test]
    fn setvs_emitted_on_stride_changes() {
        let prog = compile(&two_vl_kernel());
        let strides: Vec<i64> = prog
            .trace
            .iter()
            .filter(|i| i.op == Opcode::SetVs)
            .map(|i| i.imm)
            .collect();
        assert!(strides.contains(&1) && strides.contains(&2));
    }

    #[test]
    fn loop_pcs_are_stable_across_iterations() {
        // The BTB relies on a given static instruction having the same
        // PC every dynamic instance.
        let prog = compile(&two_vl_kernel());
        let mut by_branch: Vec<u64> = prog
            .trace
            .iter()
            .filter(|i| i.op == Opcode::Branch)
            .map(|i| i.pc)
            .collect();
        by_branch.dedup();
        assert_eq!(by_branch.len(), 1, "loop branch must keep one PC");
        // And the taken branch targets the loop top every time.
        let targets: Vec<u64> = prog
            .trace
            .iter()
            .filter_map(|i| i.branch.filter(|b| b.taken).map(|b| b.target))
            .collect();
        assert!(targets.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn spill_flag_survives_lowering() {
        // High-pressure body: spill instructions in the trace must carry
        // the is_spill marker for Table 3 accounting.
        let mut k = Kernel::new("spill");
        let a = k.array_init(64 * 1024, |i| i);
        let out = k.array(64 * 1024);
        let mut b = k.loop_build(2);
        let loads: Vec<_> = (0..12).map(|i| b.vload(a, i * 512, 1, 64, 64, 0)).collect();
        for j in 0..6u64 {
            let mut acc = loads[j as usize];
            for i in 1..12 {
                acc = b.vadd(acc, loads[(j as usize + i) % 12], 64);
            }
            b.vstore(acc, out, j * 4096, 1, 64, 64, 0);
        }
        b.finish();
        let prog = compile(&k);
        assert!(prog.trace.iter().any(|i| i.is_spill));
        assert!(prog.spill.vloads > 0);
    }

    #[test]
    fn zero_init_precedes_carried_use() {
        let mut k = Kernel::new("carried");
        let a = k.array_init(4096, |i| i);
        let out = k.array(4096);
        let mut b = k.loop_build(2);
        let acc = b.carried_v();
        let x = b.vload(a, 0, 1, 64, 64, 0);
        b.vadd_into(acc, acc, x, 64);
        b.vstore(acc, out, 0, 1, 64, 64, 0);
        b.finish();
        let prog = compile(&k);
        // The first instruction writing the pinned register must be the
        // zero-init (VLogic reg^reg), before any read of it.
        let first_write = prog
            .trace
            .iter()
            .position(|i| i.dst.map(|d| d.is_vector()).unwrap_or(false))
            .unwrap();
        assert_eq!(prog.trace.get(first_write).op, Opcode::VLogic);
    }
}
