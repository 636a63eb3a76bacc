//! # oov — Out-of-Order Vector Architectures
//!
//! A full reproduction of *"Out-of-Order Vector Architectures"*
//! (R. Espasa, M. Valero, J. E. Smith — MICRO-30, 1997) as a Rust
//! workspace. This facade crate re-exports every component:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `oov-isa` | registers, opcodes, traces, latencies, machine configs |
//! | [`exec`] | `oov-exec` | the test oracle: architectural executor, IR interpreter, load-elimination checker, golden check |
//! | [`vcc`] | `oov-vcc` | kernel IR → scheduling → register allocation → trace |
//! | [`kernels`] | `oov-kernels` | the ten benchmark models + random workloads |
//! | [`mem`] | `oov-mem` | address bus, traffic accounting, scalar cache |
//! | [`refsim`] | `oov-ref` | in-order Convex C3400-like reference simulator |
//! | [`core`] | `oov-core` | the OOOVA: rename, queues, ROB, disambiguation, load elimination |
//! | [`stats`] | `oov-stats` | cycle-state breakdowns, counters, tables, charts |
//! | [`proto`] | `oov-proto` | dep-free JSON + fingerprints for bench artifacts and the wire protocol |
//! | [`obs`] | `oov-obs` | counters, gauges, mergeable histograms behind a named registry |
//!
//! The simulation server (`oov-serve`, with its `serve` and `client`
//! binaries) sits on top of the harness crate `oov-bench`;
//! both are workspace members rather than facade modules.
//!
//! # Quickstart
//!
//! ```
//! use oov::core::OooSim;
//! use oov::isa::{OooConfig, RefConfig};
//! use oov::kernels::daxpy;
//! use oov::refsim::RefSim;
//! use oov::vcc::compile;
//!
//! let program = compile(&daxpy(8, 128));
//! let base = RefSim::new(RefConfig::default()).run(&program.trace);
//! let ooo = OooSim::new(OooConfig::default(), &program.trace).run();
//! assert!(ooo.stats.cycles <= base.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oov_core as core;
pub use oov_exec as exec;
pub use oov_isa as isa;
pub use oov_kernels as kernels;
pub use oov_mem as mem;
pub use oov_obs as obs;
pub use oov_proto as proto;
pub use oov_ref as refsim;
pub use oov_stats as stats;
pub use oov_vcc as vcc;
