//! Aggregate simulation counters shared by both simulators.

use std::fmt;

use crate::{StageCycles, StateBreakdown};

/// Counters produced by one simulation run.
///
/// Every experiment in the paper reduces to some combination of these:
/// cycles (speedups), the state breakdown (Figures 3/7), memory-port
/// occupancy (Figures 4/6) and memory traffic (Table 3, Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Total execution cycles.
    pub cycles: u64,
    /// Dynamic instructions completed (committed, for the OOOVA).
    pub committed: u64,
    /// Per-cycle vector-unit occupancy breakdown.
    pub breakdown: StateBreakdown,
    /// Cycles the address bus was carrying a request.
    pub addr_bus_busy_cycles: u64,
    /// Total requests sent over the address bus (one per element).
    pub mem_requests: u64,
    /// Requests that were loads.
    pub load_requests: u64,
    /// Requests that were stores.
    pub store_requests: u64,
    /// Requests attributable to register-spill code.
    pub spill_requests: u64,
    /// Scalar loads satisfied by SLE (no memory access performed).
    pub eliminated_scalar_loads: u64,
    /// Vector load *instructions* satisfied by VLE.
    pub eliminated_vector_loads: u64,
    /// Words of vector-load traffic avoided by VLE.
    pub eliminated_vector_words: u64,
    /// Store instructions elided as redundant (silent-store extension).
    pub eliminated_stores: u64,
    /// Words of store traffic avoided by the silent-store extension.
    pub eliminated_store_words: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Cycles the decode/rename stage stalled for a free physical register.
    pub rename_stall_cycles: u64,
    /// Cycles decode stalled because the target issue queue was full.
    pub queue_stall_cycles: u64,
    /// Cycles decode stalled because the reorder buffer was full.
    pub rob_stall_cycles: u64,
    /// Cycles in which at least one pipeline stage mutated machine
    /// state. `cycles - progress_cycles` is the dead time the
    /// event-driven engine skips outright; the per-stage split is in
    /// [`SimStats::stages`]. Engine-invariant (see [`StageCycles`]).
    pub progress_cycles: u64,
    /// Per-stage progress-cycle counts.
    pub stages: StageCycles,
}

impl SimStats {
    /// Fresh, zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Percentage of cycles the address bus (memory port) was idle —
    /// Figure 4 / Figure 6 of the paper.
    #[must_use]
    pub fn mem_port_idle_pct(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let idle = self.cycles.saturating_sub(self.addr_bus_busy_cycles);
        100.0 * idle as f64 / self.cycles as f64
    }

    /// Branch misprediction rate in percent.
    #[must_use]
    pub fn mispredict_pct(&self) -> f64 {
        if self.branches == 0 {
            return 0.0;
        }
        100.0 * self.mispredicts as f64 / self.branches as f64
    }

    /// Traffic-reduction ratio relative to `baseline` (paper §6.4):
    /// baseline requests divided by this run's requests.
    ///
    /// # Panics
    ///
    /// Panics if this run performed no memory requests.
    #[must_use]
    pub fn traffic_reduction_vs(&self, baseline: &SimStats) -> f64 {
        assert!(self.mem_requests > 0, "no memory requests recorded");
        baseline.mem_requests as f64 / self.mem_requests as f64
    }
}

// Counters first, then the breakdown and the per-stage counts: the
// wire order `oov-serve` results and the journal carry, and the order
// of the packed varints its result cache holds.
oov_proto::json_record!(
    SimStats,
    "sim stats",
    packed,
    [
        cycles,
        committed,
        addr_bus_busy_cycles,
        mem_requests,
        load_requests,
        store_requests,
        spill_requests,
        eliminated_scalar_loads,
        eliminated_vector_loads,
        eliminated_vector_words,
        eliminated_stores,
        eliminated_store_words,
        branches,
        mispredicts,
        rename_stall_cycles,
        queue_stall_cycles,
        rob_stall_cycles,
        progress_cycles,
        breakdown,
        stages,
    ]
);

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} insts, mem idle {:.1}%, {} mem requests",
            self.cycles,
            self.committed,
            self.mem_port_idle_pct(),
            self.mem_requests
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_pct() {
        let s = SimStats {
            cycles: 200,
            addr_bus_busy_cycles: 50,
            ..SimStats::new()
        };
        assert!((s.mem_port_idle_pct() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn idle_pct_zero_cycles_is_zero() {
        assert_eq!(SimStats::new().mem_port_idle_pct(), 0.0);
    }

    #[test]
    fn traffic_reduction() {
        let base = SimStats {
            mem_requests: 1000,
            ..SimStats::new()
        };
        let slim = SimStats {
            mem_requests: 800,
            ..SimStats::new()
        };
        assert!((slim.traffic_reduction_vs(&base) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn mispredict_rate() {
        let s = SimStats {
            branches: 50,
            mispredicts: 5,
            ..SimStats::new()
        };
        assert!((s.mispredict_pct() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!SimStats::new().to_string().is_empty());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut s = SimStats {
            cycles: 123_456_789,
            committed: 42,
            addr_bus_busy_cycles: 7,
            mem_requests: 1000,
            load_requests: 600,
            store_requests: 400,
            spill_requests: 50,
            eliminated_scalar_loads: 3,
            eliminated_vector_loads: 2,
            eliminated_vector_words: 256,
            eliminated_stores: 1,
            eliminated_store_words: 128,
            branches: 99,
            mispredicts: 9,
            rename_stall_cycles: 11,
            queue_stall_cycles: 22,
            rob_stall_cycles: 33,
            progress_cycles: 44,
            ..SimStats::new()
        };
        s.breakdown
            .record(crate::UnitState::new(true, false, true), 17);
        s.stages.dispatch = 40;
        s.stages.issue_mem = 4;
        let v = s.to_json();
        assert_eq!(SimStats::from_json(&v).unwrap(), s);
        // Textual round trip too (the wire carries it as one line).
        let reparsed = oov_proto::Json::parse(&v.to_string()).unwrap();
        assert_eq!(SimStats::from_json(&reparsed).unwrap(), s);
    }

    #[test]
    fn packed_round_trip_is_exact_and_within_the_bound() {
        use oov_proto::{PackedField, Packer, Unpacker, MAX_VARINT_BYTES};

        let mut s = SimStats {
            cycles: u64::MAX,
            committed: 127,
            mem_requests: 128,
            progress_cycles: (1 << 53) + 1,
            ..SimStats::new()
        };
        s.breakdown
            .record(crate::UnitState::new(false, true, true), u64::MAX);
        s.stages.commit = 300;
        let mut buf = [0; SimStats::MAX_BYTES];
        let mut out = Packer::new(&mut buf);
        s.pack(&mut out);
        let mut input = Unpacker::new(out.bytes());
        assert_eq!(SimStats::unpack(&mut input), s);
        assert_eq!(input.end(), Ok(()));
        // The bound is a full varint per number of the JSON encoding.
        fn leaves(v: &oov_proto::Json) -> usize {
            match v {
                oov_proto::Json::Obj(pairs) => pairs.iter().map(|(_, v)| leaves(v)).sum(),
                oov_proto::Json::Arr(items) => items.iter().map(leaves).sum(),
                _ => 1,
            }
        }
        assert_eq!(SimStats::MAX_BYTES, leaves(&s.to_json()) * MAX_VARINT_BYTES);
    }

    #[test]
    fn from_json_rejects_missing_counter() {
        let mut v = SimStats::new().to_json();
        if let oov_proto::Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "mem_requests");
        }
        let err = SimStats::from_json(&v).unwrap_err();
        assert!(err.contains("mem_requests"), "{err}");
    }
}
