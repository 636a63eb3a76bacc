//! Per-stage activity counters for the stage-graph execution core.
//!
//! Each counter is the number of **progress cycles** in which the named
//! pipeline stage mutated machine state. Dead cycles (no stage
//! progressed) count nowhere, which is what makes these counters
//! engine-invariant: the event-driven scheduler skips dead cycles and
//! masks off provably-inert stages, but every cycle in which a stage
//! *would* progress is simulated by both engines — so the naive oracle
//! and the stage-graph engine must agree bit-for-bit, and the parity
//! grid asserts they do.

/// Progress-cycle counts per pipeline stage.
///
/// `fetch + dispatch` is the front end; `writeback` covers the
/// deferred-BTB-update and pending-copy resolution phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCycles {
    /// Cycles the fetch stage advanced (filled the fetch buffer or
    /// cleared a resolved misprediction).
    pub fetch: u64,
    /// Cycles decode/rename dispatched an instruction.
    pub dispatch: u64,
    /// Cycles the A (address) queue issued.
    pub issue_a: u64,
    /// Cycles the S (scalar) queue issued.
    pub issue_s: u64,
    /// Cycles the V (vector) queue issued.
    pub issue_v: u64,
    /// Cycles the memory queue issued a request stream.
    pub issue_mem: u64,
    /// Cycles the three-stage memory pipe moved an entry (including
    /// Dependence-stage eliminations and late vector renames).
    pub mem_pipe: u64,
    /// Cycles the writeback phase applied a deferred BTB update or
    /// resolved a pending eliminated-load copy.
    pub writeback: u64,
    /// Cycles the reorder buffer committed (or took a precise trap).
    pub commit: u64,
}

impl StageCycles {
    /// Total stage-progress events (a cycle in which three stages
    /// progressed contributes three).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fetch
            + self.dispatch
            + self.issue_a
            + self.issue_s
            + self.issue_v
            + self.issue_mem
            + self.mem_pipe
            + self.writeback
            + self.commit
    }
}

oov_proto::json_record!(
    StageCycles,
    "stage cycles",
    packed,
    [fetch, dispatch, issue_a, issue_s, issue_v, issue_mem, mem_pipe, writeback, commit]
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_is_exact() {
        let s = StageCycles {
            fetch: 1,
            dispatch: 2,
            issue_a: 3,
            issue_s: 4,
            issue_v: 5,
            issue_mem: 6,
            mem_pipe: 7,
            writeback: 8,
            commit: 9,
        };
        let v = s.to_json();
        assert_eq!(StageCycles::from_json(&v).unwrap(), s);
        let reparsed = oov_proto::Json::parse(&v.to_string()).unwrap();
        assert_eq!(StageCycles::from_json(&reparsed).unwrap(), s);
        assert_eq!(s.total(), 45);
    }

    #[test]
    fn from_json_rejects_missing_stage() {
        let mut v = StageCycles::default().to_json();
        if let oov_proto::Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "issue_mem");
        }
        let err = StageCycles::from_json(&v).unwrap_err();
        assert!(err.contains("issue_mem"), "{err}");
    }
}
