//! The test oracle of the reproduction. The paper's simulators are
//! *timing* models that never carry data values, so register allocation
//! (`oov-vcc`), renaming and load elimination (`oov-core`) are checked
//! in tests against this crate: the architectural executor
//! ([`Machine`]), the IR interpreter ([`IrInterp`]), the golden check
//! that compares the two ([`golden_mismatch`]) and the lock-step
//! load-elimination [`Checker`], an `oov_core::Probe`. It depends on
//! `oov-vcc` and `oov-core`, never the other way round, and no
//! production path links it.
//!
//! Memory is a sparse word map ([`MemImage`]) over a compiled program's
//! shared seed (`oov_vcc::BaseImage`); a warm replay
//! ([`Machine::reset_to_base`]) seeds and allocates nothing
//! ([`page_allocations`] stays flat). All operations are defined over `u64` with wrapping arithmetic, which is
//! sufficient for dataflow-equivalence checking (the experiments never
//! depend on floating-point rounding).
//!
//! # Example
//!
//! ```
//! use oov_exec::Machine;
//! use oov_isa::{ArchReg, Instruction, MemRef, Opcode};
//!
//! let mut m = Machine::new();
//! m.memory_mut().store(0x1000, 7);
//! let load = Instruction::load(
//!     Opcode::SLoad, ArchReg::S(1), &[], MemRef::scalar(0x1000), 1);
//! m.execute(&load);
//! assert_eq!(m.scalar(ArchReg::S(1)), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod interp;
mod machine;
mod memory;

pub use checker::Checker;
pub use interp::IrInterp;
pub use machine::Machine;
pub use memory::{page_allocations, MemImage};

use oov_vcc::{CompiledProgram, Kernel, SPILL_SPACE_BASE};

/// The golden check: runs `prog`'s trace on a [`Machine`] over its
/// seeded image and `kernel` on the [`IrInterp`], and returns the first
/// data-space word (below [`SPILL_SPACE_BASE`]) where they disagree, as
/// `(address, IR value, machine value)`. Both directions are checked: a
/// word either side wrote must read the same in the other. `None`
/// means the compiled program is correct.
#[must_use]
pub fn golden_mismatch(kernel: &Kernel, prog: &CompiledProgram) -> Option<(u64, u64, u64)> {
    let want = IrInterp::run_kernel(kernel);
    let mut m = Machine::from_base(prog.base_image());
    m.run(&prog.trace);
    let got = m.memory();
    let mismatch = (want.iter().chain(got.iter()))
        .filter(|&(addr, _)| addr < SPILL_SPACE_BASE)
        .map(|(addr, _)| (addr, want.load(addr), got.load(addr)))
        .find(|&(_, w, g)| w != g);
    mismatch
}
