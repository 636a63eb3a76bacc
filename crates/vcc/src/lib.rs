//! Compiler substrate of the reproduction: kernel IR → scheduled,
//! register-allocated, lowered instruction traces.
//!
//! The paper compiled the Perfect Club / Specfp92 benchmarks with the
//! Convex compiler and traced them with Dixie on real hardware. This
//! crate replaces that toolchain:
//!
//! 1. [`Kernel`] — loop-oriented IR over unlimited virtual registers
//!    (built by `oov-kernels`);
//! 2. list scheduling — the stand-in for the Convex compiler's
//!    conflict-avoiding instruction scheduler;
//! 3. register allocation onto the 8 architectural registers per class,
//!    generating **real spill code** — the traffic the paper's Table 3
//!    reports and §6's dynamic load elimination removes;
//! 4. lowering (see [`compile`]) — expansion over the iteration space
//!    into a dynamic [`oov_isa::Trace`] with concrete addresses,
//!    `SetVl`/`SetVs` bookkeeping, loop-control scalars and branches.
//!
//! Correctness is checked against two independent golden models: the
//! virtual-register interpreter ([`IrInterp`]) and the architectural
//! executor (`oov-exec`) running the lowered trace.
//!
//! # Example
//!
//! ```
//! use oov_vcc::{compile, Kernel};
//!
//! let mut k = Kernel::new("daxpy");
//! let x = k.array_init(256, |i| i);
//! let y = k.array_init(256, |i| 2 * i);
//! let mut b = k.loop_build(2);
//! let a = b.slui(3);
//! let xv = b.vload(x, 0, 1, 128, 128, 0);
//! let yv = b.vload(y, 0, 1, 128, 128, 0);
//! let ax = b.vmul_s(xv, a, 128);
//! let r = b.vadd(ax, yv, 128);
//! b.vstore(r, y, 0, 1, 128, 128, 0);
//! b.finish();
//!
//! let prog = compile(&k);
//! assert!(prog.trace.stats().vector_insts > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interp;
pub mod ir;
mod lower;
mod regalloc;
mod sched;

pub use interp::IrInterp;
pub use ir::{
    AddrExpr, ArrayHandle, KInst, Kernel, LoopBuilder, LoopSeg, VirtReg, ARRAY_SPACE_BASE,
    SPILL_SPACE_BASE,
};
pub use lower::{compile, compile_with, CompileOptions, CompiledProgram, LOOP_COUNTER, LOOP_LIMIT};
pub use regalloc::SpillSummary;

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end golden check: the IR interpreter and the architectural
    /// executor running the compiled trace must agree on the data space.
    fn check_golden(k: &Kernel) -> CompiledProgram {
        let prog = compile(k);
        let want = IrInterp::run_kernel(k);
        let mut m = prog.fresh_machine();
        m.run(&prog.trace);
        for (addr, val) in want.iter() {
            if addr < SPILL_SPACE_BASE {
                assert_eq!(
                    m.memory().load(addr),
                    val,
                    "mismatch at {addr:#x} in {}",
                    prog.name
                );
            }
        }
        for (addr, val) in m.memory().iter() {
            if addr < SPILL_SPACE_BASE {
                assert_eq!(want.load(addr), val, "extra write at {addr:#x}");
            }
        }
        prog
    }

    #[test]
    fn golden_simple_streaming() {
        let mut k = Kernel::new("stream");
        let a = k.array_init(1024, |i| i * 3);
        let out = k.array(1024);
        let mut b = k.loop_build(8);
        let x = b.vload(a, 0, 1, 128, 128, 0);
        let y = b.vmul(x, x, 128);
        b.vstore(y, out, 0, 1, 128, 128, 0);
        b.finish();
        check_golden(&k);
    }

    /// Builds a kernel whose 12 loaded vectors are all live across the
    /// whole body (each output combines every input), so no instruction
    /// schedule can avoid exceeding the 8 vector registers.
    fn all_live_pressure_kernel() -> Kernel {
        let mut k = Kernel::new("spilly");
        let a = k.array_init(16 * 1024, |i| i ^ 0x5555);
        let out = k.array(16 * 1024);
        let mut b = k.loop_build(4);
        let loads: Vec<_> = (0..12).map(|i| b.vload(a, i * 512, 1, 64, 64, 0)).collect();
        for j in 0..6u64 {
            let mut acc = loads[j as usize];
            for i in 1..12 {
                acc = b.vadd(acc, loads[(j as usize + i) % 12], 64);
            }
            b.vstore(acc, out, j * 512, 1, 64, 64, 0);
        }
        b.finish();
        k
    }

    #[test]
    fn golden_high_pressure_with_spills() {
        let k = all_live_pressure_kernel();
        let prog = check_golden(&k);
        assert!(
            prog.spill.vloads > 0,
            "high pressure must generate vector spill reloads"
        );
    }

    #[test]
    fn golden_computed_pressure_spill_stores() {
        let mut k = Kernel::new("spillstore");
        let a = k.array_init(8 * 1024, |i| i + 7);
        let out = k.array(8 * 1024);
        let mut b = k.loop_build(3);
        let base = b.vload(a, 0, 1, 64, 64, 0);
        // 11 *computed* (non-rematerialisable) vectors, all live across
        // every output so scheduling cannot shrink the pressure.
        let computed: Vec<_> = (0..11)
            .map(|i| {
                let s = b.slui(i + 1);
                b.vmul_s(base, s, 64)
            })
            .collect();
        for j in 0..4u64 {
            let mut acc = computed[j as usize];
            for i in 1..11 {
                acc = b.vadd(acc, computed[(j as usize + i) % 11], 64);
            }
            b.vstore(acc, out, j * 512, 1, 64, 64, 0);
        }
        b.finish();
        let prog = check_golden(&k);
        assert!(prog.spill.vstores > 0);
    }

    #[test]
    fn golden_masks_and_reductions() {
        let mut k = Kernel::new("masks");
        let a = k.array_init(512, |i| i % 97);
        let b_arr = k.array_init(512, |i| 50 + (i % 3));
        let out = k.array(512);
        let sums = k.array(64);
        let mut b = k.loop_build(4);
        let x = b.vload(a, 0, 1, 128, 128, 0);
        let y = b.vload(b_arr, 0, 1, 128, 128, 0);
        let m = b.vcmp(x, y, 128);
        let sel = b.vmerge(x, y, m, 128);
        b.vstore(sel, out, 0, 1, 128, 128, 0);
        let s = b.vreduce(sel, 128);
        b.sstore(s, sums, 0, 1);
        b.finish();
        check_golden(&k);
    }

    #[test]
    fn golden_gather_scatter() {
        let mut k = Kernel::new("gs");
        // Index array: byte offsets, a permutation of 0..64 words.
        let idx = k.array_init(64, |i| (63 - i) * 8);
        let data = k.array_init(128, |i| 1000 + i);
        let out = k.array(128);
        let mut b = k.loop_build(2);
        let iv = b.vload(idx, 0, 1, 64, 0, 0);
        let g = b.vgather(iv, data, 0, 64, 64);
        b.vscatter(g, iv, out, 0, 64, 64);
        b.finish();
        check_golden(&k);
    }

    #[test]
    fn golden_outer_loops() {
        let mut k = Kernel::new("outer");
        let a = k.array_init(4096, |i| i);
        let out = k.array(4096);
        let mut b = k.loop_build_2d(4, 3);
        let x = b.vload(a, 0, 1, 64, 64, 256);
        let y = b.vadd(x, x, 64);
        b.vstore(y, out, 0, 1, 64, 64, 256);
        b.finish();
        check_golden(&k);
    }

    #[test]
    fn golden_scalar_spills() {
        let mut k = Kernel::new("scalars");
        let a = k.array_init(1024, |i| i);
        let out = k.array(64);
        let mut b = k.loop_build(4);
        // 12 live scalar values force S-class spills.
        let scalars: Vec<_> = (0..12).map(|i| b.sload(a, i * 16, 1)).collect();
        let mut acc = scalars[11];
        for &s in scalars.iter().rev().skip(1) {
            acc = b.sadd(acc, s);
        }
        b.sstore(acc, out, 0, 1);
        b.finish();
        let prog = check_golden(&k);
        assert!(prog.spill.sloads > 0, "scalar pressure must spill");
    }

    #[test]
    fn trace_is_nonempty_and_has_branches() {
        let mut k = Kernel::new("b");
        let a = k.array_init(512, |i| i);
        let mut b = k.loop_build(5);
        let x = b.vload(a, 0, 1, 64, 64, 0);
        b.vstore(x, a, 0, 1, 64, 64, 0);
        b.finish();
        let prog = compile(&k);
        assert_eq!(prog.trace.stats().branches, 5);
        // Loop branch: taken 4 times, not taken once.
        let taken: Vec<bool> = prog
            .trace
            .iter()
            .filter_map(|i| i.branch.map(|b| b.taken))
            .collect();
        assert_eq!(taken, vec![true, true, true, true, false]);
    }

    #[test]
    fn unscheduled_compile_also_golden() {
        let mut k = Kernel::new("nosched");
        let a = k.array_init(2048, |i| 5 * i);
        let out = k.array(2048);
        let mut b = k.loop_build(3);
        let x = b.vload(a, 0, 1, 128, 128, 0);
        let y = b.vload(a, 1024, 1, 128, 128, 0);
        let z = b.vmul(x, y, 128);
        let w = b.vadd(z, x, 128);
        b.vstore(w, out, 0, 1, 128, 128, 0);
        b.finish();
        let opts = CompileOptions { schedule: false };
        let prog = compile_with(&k, &opts);
        let want = IrInterp::run_kernel(&k);
        let mut m = prog.fresh_machine();
        m.run(&prog.trace);
        assert!(want
            .iter()
            .filter(|(a, _)| *a < SPILL_SPACE_BASE)
            .all(|(a, v)| m.memory().load(a) == v));
    }

    #[test]
    fn spill_loads_marked_in_trace_stats() {
        let prog = compile(&all_live_pressure_kernel());
        assert!(prog.trace.stats().vload_spill_words > 0);
    }
}
