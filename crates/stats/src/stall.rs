//! Stall-reason attribution for the pipeline lifecycle trace: a small
//! closed set of reasons an instruction (or the front end) can wait,
//! and an aggregation table rendered in the harness's [`Table`] style.
//!
//! Two families share the table, both measured in cycles:
//!
//! * **Per-cycle front-end stalls** ([`StallKind::RobFull`],
//!   [`StallKind::QueueFull`], [`StallKind::RenameStall`]) are the
//!   simulator's own per-cycle stall counters, copied from `SimStats`
//!   when the run ends, so they match it in either engine.
//! * **Issue-side waits** (everything else) are attributed when an
//!   instruction finally issues: the dispatch→issue duration is
//!   charged to the *last* reason an issue scan rejected it. The two
//!   engines scan at different times (the event engine sleeps through
//!   provably dead spans), so the split across issue-side reasons can
//!   differ between engines even though total wait cycles — like every
//!   `SimStats` counter — are bit-identical.

use crate::render::Table;

/// Why an instruction (or the front end) could not make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Dispatch blocked: reorder buffer full.
    RobFull,
    /// Dispatch (or the VLE pipe's stage-3 exit) blocked: target issue
    /// queue full.
    QueueFull,
    /// Dispatch (or the VLE late rename) blocked: no free physical
    /// register.
    RenameStall,
    /// An issue scan rejected the entry because an operand (or its
    /// chaining/structural time) was not ready.
    SourcesPending,
    /// Vector issue rejected the entry: no usable functional unit.
    FuBusy,
    /// Memory issue rejected the entry: an earlier overlapping (or
    /// unresolved) access blocks it.
    MemDisambiguation,
    /// An indexed access waits for its index vector.
    IndexVectorWait,
    /// A store waits for its data to chain in.
    StoreDataWait,
    /// Late commit: a store waits to reach the ROB head.
    LateCommitHead,
    /// The shared address bus is busy.
    BusBusy,
}

impl StallKind {
    /// Every kind, in table order.
    pub const ALL: [StallKind; 10] = [
        StallKind::RobFull,
        StallKind::QueueFull,
        StallKind::RenameStall,
        StallKind::SourcesPending,
        StallKind::FuBusy,
        StallKind::MemDisambiguation,
        StallKind::IndexVectorWait,
        StallKind::StoreDataWait,
        StallKind::LateCommitHead,
        StallKind::BusBusy,
    ];

    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable table/JSON name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallKind::RobFull => "rob-full",
            StallKind::QueueFull => "queue-full",
            StallKind::RenameStall => "rename",
            StallKind::SourcesPending => "sources-pending",
            StallKind::FuBusy => "fu-busy",
            StallKind::MemDisambiguation => "mem-disambiguation",
            StallKind::IndexVectorWait => "index-vector-wait",
            StallKind::StoreDataWait => "store-data-wait",
            StallKind::LateCommitHead => "late-commit-head",
            StallKind::BusBusy => "bus-busy",
        }
    }

    /// Short annotation used in Konata trace labels.
    #[must_use]
    pub fn annotation(self) -> &'static str {
        match self {
            StallKind::RobFull => "ROB",
            StallKind::QueueFull => "Q",
            StallKind::RenameStall => "REN",
            StallKind::SourcesPending => "SRC",
            StallKind::FuBusy => "FU",
            StallKind::MemDisambiguation => "DIS",
            StallKind::IndexVectorWait => "IDX",
            StallKind::StoreDataWait => "STD",
            StallKind::LateCommitHead => "HEAD",
            StallKind::BusBusy => "BUS",
        }
    }

    fn ix(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregated cycles attributed per [`StallKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallTable {
    counts: [u64; StallKind::COUNT],
}

impl StallTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        StallTable::default()
    }

    /// Attributes `cycles` to `kind`.
    pub fn record(&mut self, kind: StallKind, cycles: u64) {
        self.counts[kind.ix()] += cycles;
    }

    /// Cycles attributed to `kind` so far.
    #[must_use]
    pub fn get(&self, kind: StallKind) -> u64 {
        self.counts[kind.ix()]
    }

    /// Sum over all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` if nothing has been attributed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Folds another table into this one.
    pub fn merge_from(&mut self, other: &StallTable) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Renders the non-zero rows as a `reason / cycles / share` table,
    /// largest first.
    #[must_use]
    pub fn render(&self) -> Table {
        let mut t = Table::new(&["stall reason", "cycles", "share"]);
        let total = self.total();
        let mut rows: Vec<(StallKind, u64)> = StallKind::ALL
            .iter()
            .map(|&k| (k, self.get(k)))
            .filter(|&(_, c)| c > 0)
            .collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        for (kind, cycles) in rows {
            t.row_owned(vec![
                kind.name().to_string(),
                cycles.to_string(),
                format!("{:5.1}%", cycles as f64 * 100.0 / total as f64),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_get_total() {
        let mut t = StallTable::new();
        assert!(t.is_empty());
        t.record(StallKind::RobFull, 10);
        t.record(StallKind::BusBusy, 5);
        t.record(StallKind::RobFull, 2);
        assert_eq!(t.get(StallKind::RobFull), 12);
        assert_eq!(t.get(StallKind::BusBusy), 5);
        assert_eq!(t.get(StallKind::FuBusy), 0);
        assert_eq!(t.total(), 17);
    }

    #[test]
    fn merge_adds() {
        let mut a = StallTable::new();
        let mut b = StallTable::new();
        a.record(StallKind::QueueFull, 3);
        b.record(StallKind::QueueFull, 4);
        b.record(StallKind::SourcesPending, 1);
        a.merge_from(&b);
        assert_eq!(a.get(StallKind::QueueFull), 7);
        assert_eq!(a.get(StallKind::SourcesPending), 1);
    }

    #[test]
    fn render_sorts_and_shares() {
        let mut t = StallTable::new();
        t.record(StallKind::MemDisambiguation, 75);
        t.record(StallKind::RenameStall, 25);
        let s = t.render().to_string();
        let dis = s.find("mem-disambiguation").unwrap();
        let ren = s.find("rename").unwrap();
        assert!(dis < ren, "largest first");
        assert!(s.contains("75.0%"));
        assert!(s.contains("25.0%"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = StallKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StallKind::COUNT);
    }
}
