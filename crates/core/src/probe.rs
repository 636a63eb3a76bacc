//! The one observer slot. A [`Probe`] attached with
//! [`crate::OooSim::with_probe`] receives every pipeline event the
//! stages emit, in simulation order: the lifecycle [`crate::TraceSink`]
//! is one probe, the load-elimination checker in `oov-exec` another.
//! Events carry plain values (trace indices, ROB sequence numbers,
//! physical-register indices, cycles), so a probe cannot reach machine
//! state and a probed run gives bit-identical `SimStats`. Unprobed,
//! each event site is one untaken `Option` branch.

use std::any::Any;
use std::fmt::Debug;

use oov_isa::{Opcode, RegClass};
use oov_stats::StallKind;

/// Receiver of the OOOVA's pipeline events; every method defaults to
/// a no-op. Physical registers are indices into their class's file.
#[allow(unused_variables)]
pub trait Probe: Any + Debug {
    /// Instruction `trace_idx` entered the fetch buffer.
    fn fetch(&mut self, trace_idx: usize, now: u64) {}

    /// Instruction `trace_idx` was renamed into ROB slot `seq`. `dst`
    /// is its renamed destination, unless a vector destination is
    /// renamed later at the Dependence stage (a [`Probe::holds`]).
    fn dispatch(
        &mut self,
        seq: u64,
        trace_idx: usize,
        op: Opcode,
        vl: u16,
        dst: Option<(RegClass, u16)>,
        now: u64,
    ) {
    }

    /// An issue scan rejected ROB entry `seq` for `kind`.
    fn wait(&mut self, seq: u64, kind: StallKind) {}

    /// `phys` now holds (or will hold) instruction `trace_idx`'s value:
    /// a late vector rename, a load tag, or an eliminated scalar load's
    /// copy target.
    fn holds(&mut self, class: RegClass, phys: u16, trace_idx: usize) {}

    /// Store `trace_idx` tagged its data register `phys`.
    fn store_tag(&mut self, class: RegClass, phys: u16, trace_idx: usize) {}

    /// Vector load `trace_idx` was eliminated onto V register `provider`.
    fn vector_elim(&mut self, trace_idx: usize, provider: u16) {}

    /// Scalar load `trace_idx` was eliminated by a copy from `provider`.
    fn scalar_elim(&mut self, trace_idx: usize, class: RegClass, provider: u16) {}

    /// Store `trace_idx`, whose data is in `phys`, was elided as silent.
    fn store_elim(&mut self, trace_idx: usize, class: RegClass, phys: u16) {}

    /// ROB entry `seq` (instruction `trace_idx`) retired.
    fn commit(&mut self, seq: u64, trace_idx: usize, issue: u64, complete: u64, now: u64) {}

    /// Precise-trap recovery flushed ROB entry `seq`.
    fn squash(&mut self, seq: u64, now: u64) {}

    /// Precise-trap recovery emptied the fetch buffer.
    fn squash_frontend(&mut self) {}
}
