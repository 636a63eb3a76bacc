//! Architectural (functional) executor — the test oracle of the
//! reproduction.
//!
//! The paper's simulators are *timing* models: they never carry data
//! values. Correctness of register allocation (`oov-vcc`), register
//! renaming and dynamic load elimination (`oov-core`) is instead checked
//! in tests against this executor, which runs the same
//! [`oov_isa::Trace`] with real 64-bit values. No production path links
//! it: the simulation server, the sweeps and every exhibit simulate the
//! trace alone.
//!
//! Memory is a sparse word map ([`MemImage`]) over an optional shared
//! seed: [`BaseImage::seeded`] builds a program's initial memory once,
//! behind an `Arc`, and [`MemImage::fork`] / [`Machine::from_base`] read
//! through it while holding only the words they store. A warm replay
//! ([`Machine::reset_to_base`]) clears those words in place, so it seeds
//! nothing and allocates nothing (the debug-only [`page_allocations`]
//! counter of word-table growths stays flat).
//!
//! All operations are defined over `u64` with wrapping arithmetic, which is
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

mod machine;
mod memory;

pub use machine::Machine;
pub use memory::{page_allocations, BaseImage, MemImage};
