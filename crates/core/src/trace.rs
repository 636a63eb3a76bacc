//! Pipeline lifecycle tracing: a [`TraceSink`] is the [`Probe`] that
//! records, per instruction of one [`crate::OooSim`] run, the cycle it
//! passed each stage (fetch, dispatch, issue, completion, commit) and
//! the stall reason attributed to each wait, exported as
//! [Konata](https://github.com/shioyadan/Konata)-format text and as an
//! aggregated [`StallTable`].
//!
//! The sink only observes events, so a traced run produces
//! bit-identical `SimStats` to an untraced one, under either engine.
//! With no probe attached each event site is a single `Option` branch
//! — zero allocations, no measurable slowdown (the bench trend gate
//! `--max-trace-overhead-ratio` enforces this against the committed
//! baseline).
//!
//! Stall attribution comes in two flavours (see
//! [`oov_stats::StallKind`]): the per-cycle front-end rows (ROB full,
//! queue full, rename) are the run's own `SimStats` stall counters,
//! copied in when the run ends, while issue-side waits charge the
//! dispatch→issue duration to the last reason an issue scan rejected
//! the entry.

use std::collections::VecDeque;

use oov_isa::{Opcode, RegClass};
use oov_stats::{SimStats, StallKind, StallTable};

use crate::probe::Probe;

/// Per-instruction stage timestamps, indexed by ROB sequence number.
/// A squashed record (precise-trap recovery) keeps the stamps it
/// earned; `commit` then holds the squash cycle.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Position in the dynamic trace.
    pub trace_idx: usize,
    /// Opcode, for labels.
    pub op: Opcode,
    /// Vector length at dispatch.
    pub vl: u16,
    /// Cycle the instruction entered the fetch buffer.
    pub fetch: u64,
    /// Cycle it was renamed and allocated a ROB slot.
    pub dispatch: u64,
    /// Cycle it issued (began execution).
    pub issue: u64,
    /// Cycle its last result landed.
    pub complete: u64,
    /// Cycle it retired — or, for a squashed record, was flushed.
    pub commit: u64,
    /// Last reason an issue scan rejected it before it issued.
    pub wait: Option<StallKind>,
    /// `true` once retired.
    pub committed: bool,
    /// `true` if flushed by precise-trap recovery.
    pub squashed: bool,
}

/// Collects the lifecycle of every instruction of one simulation run.
/// Attach with [`crate::OooSim::with_trace`]; the filled sink comes
/// back in [`crate::RunResult::trace`].
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    /// One record per ROB sequence number, in allocation order.
    /// Squashed instructions keep their record; their re-fetched
    /// incarnations get fresh sequence numbers.
    records: Vec<TraceRecord>,
    /// Fetch stamps of instructions in the fetch buffer, dispatch
    /// (FIFO) order: `(trace_idx, cycle)`.
    pending_fetch: VecDeque<(usize, u64)>,
    /// The run's per-cycle front-end stall counters, copied from its
    /// `SimStats` when it ends.
    cycle_stalls: StallTable,
}

impl TraceSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Takes the run's ROB, queue and rename stall rows from `stats`.
    pub(crate) fn close(&mut self, stats: &SimStats) {
        self.cycle_stalls = StallTable::new();
        self.cycle_stalls
            .record(StallKind::RobFull, stats.rob_stall_cycles);
        self.cycle_stalls
            .record(StallKind::QueueFull, stats.queue_stall_cycles);
        self.cycle_stalls
            .record(StallKind::RenameStall, stats.rename_stall_cycles);
    }

    // ----- accessors -------------------------------------------------

    /// Every record, in ROB-allocation (sequence) order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of committed records — equals `SimStats::committed`.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.records.iter().filter(|r| r.committed).count() as u64
    }

    /// Cycle of the last retirement; zero if nothing committed.
    #[must_use]
    pub fn last_commit_cycle(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.committed)
            .map(|r| r.commit)
            .max()
            .unwrap_or(0)
    }

    /// The aggregated stall-attribution table: per-cycle front-end
    /// stalls (exactly the `SimStats` stall counters) plus each
    /// committed instruction's dispatch→issue wait charged to the last
    /// reason an issue scan rejected it ([`StallKind::SourcesPending`]
    /// when no scan ever reported one).
    #[must_use]
    pub fn stall_table(&self) -> StallTable {
        let mut t = self.cycle_stalls.clone();
        for r in self.records.iter().filter(|r| r.committed) {
            let wait = r.issue.saturating_sub(r.dispatch);
            if wait > 0 {
                t.record(r.wait.unwrap_or(StallKind::SourcesPending), wait);
            }
        }
        t
    }

    // ----- Konata export ---------------------------------------------

    /// Renders the trace as Konata ("Kanata 0004") text. Stages: `F`
    /// fetch→dispatch, `Ds` dispatch→issue (annotated with the
    /// attributed stall reason), `X` issue→retire, with a `Wb` marker
    /// at completion when it lands before retirement. Squashed
    /// instructions flush (`R … 1`) at the squash cycle.
    #[must_use]
    pub fn to_konata(&self) -> String {
        // (cycle, insn id, rank within the insn's same-cycle lines).
        let mut events: Vec<(u64, u64, u8, String)> = Vec::new();
        for (id, r) in self.records.iter().enumerate() {
            let id = id as u64;
            events.push((r.fetch, id, 0, format!("I\t{id}\t{}\t0", r.trace_idx)));
            let wait = r
                .wait
                .map(|k| format!(" [{}]", k.annotation()))
                .unwrap_or_default();
            events.push((
                r.fetch,
                id,
                1,
                format!("L\t{id}\t0\t{}: {:?} vl={}{wait}", r.trace_idx, r.op, r.vl),
            ));
            events.push((r.fetch, id, 2, format!("S\t{id}\t0\tF")));
            events.push((r.dispatch, id, 2, format!("S\t{id}\t0\tDs")));
            if r.committed {
                events.push((r.issue, id, 2, format!("S\t{id}\t0\tX")));
                if r.complete > r.issue && r.complete <= r.commit {
                    events.push((r.complete, id, 2, format!("S\t{id}\t0\tWb")));
                }
                events.push((r.commit, id, 3, format!("R\t{id}\t{id}\t0")));
            } else if r.squashed {
                events.push((r.commit, id, 3, format!("R\t{id}\t{id}\t1")));
            }
        }
        events.sort_by_key(|e| (e.0, e.1, e.2));
        let mut out = String::from("Kanata\t0004\n");
        let mut cycle = events.first().map(|e| e.0).unwrap_or(0);
        out.push_str(&format!("C=\t{cycle}\n"));
        for (c, _, _, line) in events {
            if c > cycle {
                out.push_str(&format!("C\t{}\n", c - cycle));
                cycle = c;
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Writes [`TraceSink::to_konata`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_konata(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_konata())
    }
}

impl Probe for TraceSink {
    fn fetch(&mut self, trace_idx: usize, now: u64) {
        self.pending_fetch.push_back((trace_idx, now));
    }

    fn dispatch(
        &mut self,
        seq: u64,
        trace_idx: usize,
        op: Opcode,
        vl: u16,
        _dst: Option<(RegClass, u16)>,
        now: u64,
    ) {
        let fetch = match self.pending_fetch.pop_front() {
            Some((idx, cycle)) => {
                debug_assert_eq!(idx, trace_idx, "fetch stamps out of order");
                cycle
            }
            None => now,
        };
        debug_assert_eq!(self.records.len() as u64, seq, "non-contiguous seq");
        self.records.push(TraceRecord {
            trace_idx,
            op,
            vl,
            fetch,
            dispatch: now,
            issue: 0,
            complete: 0,
            commit: 0,
            wait: None,
            committed: false,
            squashed: false,
        });
    }

    fn wait(&mut self, seq: u64, kind: StallKind) {
        if let Some(r) = self.records.get_mut(seq as usize) {
            r.wait = Some(kind);
        }
    }

    fn commit(&mut self, seq: u64, _trace_idx: usize, issue: u64, complete: u64, now: u64) {
        if let Some(r) = self.records.get_mut(seq as usize) {
            r.issue = issue;
            r.complete = complete;
            r.commit = now;
            r.committed = true;
        }
    }

    fn squash(&mut self, seq: u64, now: u64) {
        if let Some(r) = self.records.get_mut(seq as usize) {
            r.commit = now;
            r.squashed = true;
        }
    }

    fn squash_frontend(&mut self) {
        self.pending_fetch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_with_one(commit: bool) -> TraceSink {
        let mut s = TraceSink::new();
        s.fetch(0, 1);
        s.dispatch(0, 0, Opcode::SAdd, 1, None, 2);
        s.wait(0, StallKind::BusBusy);
        if commit {
            s.commit(0, 0, 5, 7, 9);
        } else {
            s.squash(0, 9);
            s.squash_frontend();
        }
        s
    }

    #[test]
    fn lifecycle_stamps_land_in_the_record() {
        let s = sink_with_one(true);
        let r = &s.records()[0];
        assert_eq!(
            (r.fetch, r.dispatch, r.issue, r.complete, r.commit),
            (1, 2, 5, 7, 9)
        );
        assert!(r.committed && !r.squashed);
        assert_eq!(s.committed(), 1);
        assert_eq!(s.last_commit_cycle(), 9);
        // 3 cycles dispatch→issue, charged to the last observed reason.
        assert_eq!(s.stall_table().get(StallKind::BusBusy), 3);
    }

    #[test]
    fn squash_flushes_without_counting_as_commit() {
        let s = sink_with_one(false);
        let r = &s.records()[0];
        assert!(r.squashed && !r.committed);
        assert_eq!(s.committed(), 0);
        assert!(s.stall_table().get(StallKind::BusBusy) == 0);
        let k = s.to_konata();
        assert!(k.contains("R\t0\t0\t1"), "flush retire missing:\n{k}");
    }

    #[test]
    fn konata_output_is_well_formed() {
        let s = sink_with_one(true);
        let k = s.to_konata();
        let mut lines = k.lines();
        assert_eq!(lines.next(), Some("Kanata\t0004"));
        assert_eq!(lines.next(), Some("C=\t1"));
        assert!(k.contains("S\t0\t0\tF"));
        assert!(k.contains("S\t0\t0\tDs"));
        assert!(k.contains("S\t0\t0\tX"));
        assert!(k.contains("R\t0\t0\t0"));
        assert!(k.contains("[BUS]"));
        // Cycle advances are strictly positive.
        for line in k.lines().filter(|l| l.starts_with("C\t")) {
            let n: u64 = line[2..].parse().expect("numeric delta");
            assert!(n > 0);
        }
    }

    #[test]
    fn close_copies_the_stall_counters() {
        let mut s = sink_with_one(true);
        let stats = SimStats {
            rob_stall_cycles: 3,
            queue_stall_cycles: 2,
            rename_stall_cycles: 4,
            ..SimStats::new()
        };
        s.close(&stats);
        let t = s.stall_table();
        assert_eq!(t.get(StallKind::RobFull), 3);
        assert_eq!(t.get(StallKind::QueueFull), 2);
        assert_eq!(t.get(StallKind::RenameStall), 4);
        assert_eq!(t.get(StallKind::BusBusy), 3, "issue waits stay");
    }
}
