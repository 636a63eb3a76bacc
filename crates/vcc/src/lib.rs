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
//! The compiled program also carries its seeded initial memory
//! ([`BaseImage`]). Correctness is checked in the test oracle crate
//! `oov-exec`, which depends on this one: its IR interpreter runs the
//! kernel before allocation, its architectural executor runs the
//! lowered trace over the [`BaseImage`], and the two must leave the
//! same data space.
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

mod image;
pub mod ir;
mod lower;
mod regalloc;
mod sched;

pub use image::{BaseImage, WordHasher, WordMap};
pub use ir::{
    AddrExpr, ArrayHandle, InitRun, KInst, Kernel, LoopBuilder, LoopSeg, VirtReg, ARRAY_SPACE_BASE,
    SPILL_SPACE_BASE,
};
pub use lower::{compile, compile_with, CompileOptions, CompiledProgram, LOOP_COUNTER, LOOP_LIMIT};
pub use regalloc::SpillSummary;

#[cfg(test)]
mod tests {
    use super::*;

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
}
