//! Functional-unit latencies — the reconstruction of the paper's Table 1.
//!
//! The scanned Table 1 is partially illegible; the values below are
//! reconstructed from the legible entries ("write x-bar … 2", "34/9",
//! "(*) 0 in OOOVA, 1 in REF") and the C3400-family literature; the
//! field docs of [`LatencyModel`] give each value's meaning. All units
//! are fully pipelined.

use crate::{LatClass, Opcode};

/// Latency parameters (in cycles) of the simulated machines.
///
/// A vector instruction started at cycle *t₀* reads source element *i* at
/// *t₀ + i* through the read crossbar and writes result element *i* at
/// *t₀ + first_result_latency + i*; the unit is occupied for
/// `startup + vl` cycles.
///
/// # Example
///
/// ```
/// use oov_isa::{LatencyModel, Opcode};
///
/// let lat = LatencyModel::default();
/// assert!(lat.first_result(Opcode::VDiv) > lat.first_result(Opcode::VAdd));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyModel {
    /// Read-crossbar traversal (register file → functional unit).
    pub read_xbar: u32,
    /// Write-crossbar traversal (functional unit → register file).
    pub write_xbar: u32,
    /// Vector startup overhead before the first element enters the pipe
    /// (1 on the reference machine, 0 on the OOOVA — the `(*)` note of
    /// Table 1).
    pub vstartup: u32,
    /// Scalar add/logic/shift/compare execution latency.
    pub scalar_simple: u32,
    /// Vector add/logic/shift/compare pipeline depth.
    pub vector_simple: u32,
    /// Multiply pipeline depth (scalar and vector).
    pub mul: u32,
    /// Divide / square-root latency (scalar and vector).
    pub div_sqrt: u32,
    /// Main memory latency: cycles from the address issuing on the bus to
    /// the first datum returning (paper default: 50; varied in §4.3).
    pub memory: u32,
    /// Branch resolution latency on the scalar unit.
    pub branch: u32,
    /// Front-end refill penalty after a mispredicted branch.
    pub mispredict_penalty: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            read_xbar: 1,
            write_xbar: 2,
            vstartup: 1, // reference machine; `ooo()` sets 0
            scalar_simple: 2,
            vector_simple: 4,
            mul: 9,
            div_sqrt: 34,
            memory: 50,
            branch: 1,
            mispredict_penalty: 4,
        }
    }
}

impl LatencyModel {
    /// Latency model for the reference (in-order) machine.
    #[must_use]
    pub fn reference() -> Self {
        Self::default()
    }

    /// Latency model for the OOOVA: identical except the vector startup
    /// is absorbed by the decoupled issue queues (Table 1 note `(*)`).
    #[must_use]
    pub fn ooo() -> Self {
        LatencyModel {
            vstartup: 0,
            ..Self::default()
        }
    }

    /// Sets the main-memory latency (builder style).
    #[must_use]
    pub fn with_memory_latency(mut self, cycles: u32) -> Self {
        self.memory = cycles;
        self
    }

    /// Raw execution latency of the opcode's latency class, excluding
    /// crossbar traversal and memory.
    #[must_use]
    pub fn exec(&self, op: Opcode) -> u32 {
        match op.lat_class() {
            LatClass::Simple => {
                if op.is_vector() {
                    self.vector_simple
                } else {
                    self.scalar_simple
                }
            }
            LatClass::Mul => self.mul,
            LatClass::DivSqrt => self.div_sqrt,
            LatClass::Mem => self.memory,
            LatClass::Branch => self.branch,
        }
    }

    /// Cycles from an instruction starting execution to its *first* result
    /// element being architecturally visible (readable by a chained
    /// consumer): crossbar in, execute, crossbar out.
    ///
    /// For loads this is the full memory latency (the address still has to
    /// traverse no crossbar; data returns straight into the register file).
    #[must_use]
    pub fn first_result(&self, op: Opcode) -> u32 {
        if op.is_mem() {
            self.memory
        } else if op.is_vector() {
            self.read_xbar + self.exec(op) + self.write_xbar
        } else {
            self.exec(op)
        }
    }

    /// Cycles a vector unit is occupied by one instruction of length `vl`.
    #[must_use]
    pub fn occupancy(&self, vl: u16) -> u64 {
        u64::from(self.vstartup) + u64::from(vl)
    }
}

// A defaulting record: a request names only the latencies it changes,
// and an absent one comes from the enclosing machine's table.
oov_proto::json_record!(
    LatencyModel,
    "latency model",
    defaulting,
    [
        read_xbar,
        write_xbar,
        vstartup,
        scalar_simple,
        vector_simple,
        mul,
        div_sqrt,
        memory,
        branch,
        mispredict_penalty,
    ]
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_design_doc() {
        let l = LatencyModel::default();
        assert_eq!(l.read_xbar, 1);
        assert_eq!(l.write_xbar, 2);
        assert_eq!(l.vstartup, 1);
        assert_eq!(l.mul, 9);
        assert_eq!(l.div_sqrt, 34);
        assert_eq!(l.memory, 50);
    }

    #[test]
    fn ooo_removes_startup_only() {
        let r = LatencyModel::reference();
        let o = LatencyModel::ooo();
        assert_eq!(o.vstartup, 0);
        assert_eq!(
            LatencyModel {
                vstartup: r.vstartup,
                ..o
            },
            r
        );
    }

    #[test]
    fn first_result_ordering() {
        let l = LatencyModel::default();
        assert!(l.first_result(Opcode::VAdd) < l.first_result(Opcode::VMul));
        assert!(l.first_result(Opcode::VMul) < l.first_result(Opcode::VDiv));
        assert_eq!(l.first_result(Opcode::VLoad), 50);
        assert_eq!(l.first_result(Opcode::SAdd), 2);
    }

    #[test]
    fn occupancy_includes_startup() {
        let r = LatencyModel::reference();
        let o = LatencyModel::ooo();
        assert_eq!(r.occupancy(128), 129);
        assert_eq!(o.occupancy(128), 128);
    }

    #[test]
    fn json_round_trip() {
        let l = LatencyModel::ooo().with_memory_latency(100);
        let v = l.to_json();
        assert_eq!(LatencyModel::from_json(&v).unwrap(), l);
        assert!(LatencyModel::from_json(&oov_proto::Json::Null).is_err());
    }

    #[test]
    fn memory_latency_override() {
        let l = LatencyModel::ooo().with_memory_latency(100);
        assert_eq!(l.first_result(Opcode::VLoad), 100);
        assert_eq!(l.exec(Opcode::SLoad), 100);
    }
}
