//! ISA model for the reproduction of *Out-of-Order Vector Architectures*
//! (Espasa, Valero, Smith — MICRO-30, 1997).
//!
//! This crate defines everything the simulators, the compiler substrate and
//! the benchmark suite share:
//!
//! * [`ArchReg`] / [`RegClass`] — the architectural register file of the
//!   Convex C3400-like reference machine (8 × A, 8 × S, 8 × V, 8 × mask).
//! * [`Opcode`] — the instruction repertoire, with its functional-unit
//!   class ([`FuClass`]) and latency class ([`LatClass`]).
//! * [`Instruction`] / [`MemRef`] — one dynamic (traced) instruction.
//! * [`Trace`] — a dynamic instruction stream plus per-program statistics
//!   (the raw material for Table 2 of the paper), stored as one 24-byte
//!   [`InstRecord`] per instruction with the sparse operands in side
//!   words.
//! * [`LatencyModel`] — the reconstruction of the paper's Table 1.
//! * [`RefConfig`] / [`OooConfig`] — machine parameter blocks for the two
//!   simulated implementations.
//!
//! # Example
//!
//! ```
//! use oov_isa::{ArchReg, Instruction, Opcode, Trace};
//!
//! let mut trace = Trace::new("example");
//! trace.push(
//!     Instruction::vector(Opcode::VAdd, ArchReg::V(2), &[ArchReg::V(0), ArchReg::V(1)], 128)
//! );
//! assert_eq!(trace.stats().vector_insts, 1);
//! assert_eq!(trace.stats().vector_ops, 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod inst;
mod latency;
mod opcode;
mod reg;
mod trace;

pub use config::{
    CommitMode, LoadElimMode, MachineConfig, MachineKind, OooConfig, RefConfig, ScalarCacheCfg,
};
pub use inst::{BranchInfo, Instruction, MemKind, MemRef, MAX_SRCS};
pub use latency::LatencyModel;
pub use opcode::{FuClass, LatClass, Opcode};
pub use reg::{ArchReg, RegClass, MAX_VL, NUM_A_REGS, NUM_MASK_REGS, NUM_S_REGS, NUM_V_REGS};
pub use trace::{InstRecord, Trace, TraceStats};
