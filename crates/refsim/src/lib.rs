//! Cycle-level simulator of the **reference architecture**: the in-order
//! Convex C3400-like vector machine of paper §2.1.
//!
//! The machine:
//!
//! * a scalar unit issuing at most one instruction per cycle, in order;
//! * two fully-pipelined vector computation units — FU2 (general purpose)
//!   and FU1 (everything except multiply/divide/square root) — and one
//!   memory unit behind a single address port;
//! * 8 vector registers of 128 × 64-bit elements, paired into 4 banks of
//!   2 read + 1 write port (issue stalls on port conflicts);
//! * chaining from functional units to functional units and to the store
//!   unit, but **not** from memory loads to functional units;
//! * no register renaming: writers drain all readers of the destination
//!   register before issuing (vector register conflicts).
//!
//! Because issue is strictly in order, execution times can be computed
//! analytically in one pass over the trace — no cycle loop is needed —
//! which makes the reference baseline essentially free to simulate.
//!
//! # Example
//!
//! ```
//! use oov_isa::{ArchReg, Instruction, MemRef, Opcode, RefConfig, Trace};
//! use oov_ref::RefSim;
//!
//! let mut t = Trace::new("tiny");
//! let m = MemRef::strided(0x1000, 8, 64);
//! t.push(Instruction::load(Opcode::VLoad, ArchReg::V(0), &[], m, 64));
//! t.push(Instruction::vector(Opcode::VAdd, ArchReg::V(1), &[ArchReg::V(0)], 64));
//!
//! let stats = RefSim::new(RefConfig::default()).run(&t);
//! assert!(stats.cycles > 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sim;

pub use sim::RefSim;
