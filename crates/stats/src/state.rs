//! The 8-state vector-unit occupancy model of the paper (§4.1).
//!
//! *"The machine state can be represented with a 3-tuple that captures the
//! individual state of each of the three units at a given point in time."*

use std::fmt;
use std::ops::{Add, AddAssign};

use oov_proto::{
    Decoded, Json, JsonField, PackedField, Packer, ParseError, Parser, Sink, Unpacker,
};

/// Occupancy of the three vector units `(FU2, FU1, MEM)` in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitState {
    /// FU2 (the general-purpose vector unit) is busy.
    pub fu2: bool,
    /// FU1 (the restricted vector unit) is busy.
    pub fu1: bool,
    /// The memory unit is busy.
    pub mem: bool,
}

impl UnitState {
    /// All eight states, ordered from all-idle to all-busy as the paper's
    /// figure legends list them.
    pub const ALL: [UnitState; 8] = [
        UnitState::new(false, false, false),
        UnitState::new(false, false, true),
        UnitState::new(false, true, false),
        UnitState::new(false, true, true),
        UnitState::new(true, false, false),
        UnitState::new(true, false, true),
        UnitState::new(true, true, false),
        UnitState::new(true, true, true),
    ];

    /// Builds a state from the three unit-busy flags.
    #[must_use]
    pub const fn new(fu2: bool, fu1: bool, mem: bool) -> Self {
        UnitState { fu2, fu1, mem }
    }

    /// Dense index 0..8 (bit 2 = FU2, bit 1 = FU1, bit 0 = MEM).
    #[must_use]
    pub const fn index(self) -> usize {
        ((self.fu2 as usize) << 2) | ((self.fu1 as usize) << 1) | (self.mem as usize)
    }

    /// Inverse of [`UnitState::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        assert!(i < 8, "state index {i} out of range");
        UnitState::new(i & 4 != 0, i & 2 != 0, i & 1 != 0)
    }

    /// `true` if every unit is idle — the `( , , )` state whose growth
    /// with memory latency the paper highlights in Figure 3.
    #[must_use]
    pub const fn all_idle(self) -> bool {
        !self.fu2 && !self.fu1 && !self.mem
    }

    /// `true` if every unit is busy — peak utilisation.
    #[must_use]
    pub const fn all_busy(self) -> bool {
        self.fu2 && self.fu1 && self.mem
    }
}

impl fmt::Display for UnitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{},{},{}>",
            if self.fu2 { "FU2" } else { "   " },
            if self.fu1 { "FU1" } else { "   " },
            if self.mem { "MEM" } else { "   " },
        )
    }
}

/// Cycle counts accumulated per [`UnitState`] — the data behind the
/// paper's Figures 3 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateBreakdown {
    cycles: [u64; 8],
}

impl StateBreakdown {
    /// An empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` cycles spent in `state`.
    pub fn record(&mut self, state: UnitState, n: u64) {
        self.cycles[state.index()] += n;
    }

    /// Cycles recorded for `state`.
    #[must_use]
    pub fn get(&self, state: UnitState) -> u64 {
        self.cycles[state.index()]
    }

    /// Total cycles across all states.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Cycles in which the memory unit was idle — the quantity the paper
    /// plots in Figure 4: *"The sum of cycles corresponding to states where
    /// the MEM unit is idle"*.
    #[must_use]
    pub fn mem_idle_cycles(&self) -> u64 {
        UnitState::ALL
            .iter()
            .filter(|s| !s.mem)
            .map(|s| self.get(*s))
            .sum()
    }

    /// Fraction of total cycles with the memory unit idle, in percent.
    #[must_use]
    pub fn mem_idle_pct(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.mem_idle_cycles() as f64 / total as f64
    }

    /// Fraction of cycles at peak floating-point speed — states
    /// `<FU2,FU1,MEM>` and `<FU2,FU1, >` (paper §4.1), in percent.
    #[must_use]
    pub fn peak_fp_pct(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let peak = self.get(UnitState::new(true, true, true))
            + self.get(UnitState::new(true, true, false));
        100.0 * peak as f64 / total as f64
    }

    /// Iterates `(state, cycles)` pairs in the canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (UnitState, u64)> + '_ {
        UnitState::ALL.iter().map(move |s| (*s, self.get(*s)))
    }
}

/// An 8-element array of cycle counts in dense-index order (see
/// [`UnitState::index`]).
impl JsonField for StateBreakdown {
    fn to_field(&self) -> Json {
        Json::Arr(self.cycles.iter().map(|&c| c.into()).collect())
    }

    fn write_field<S: Sink>(&self, out: &mut S) {
        out.put("[");
        for (i, c) in self.cycles.iter().enumerate() {
            if i > 0 {
                out.put(", ");
            }
            c.write_field(out);
        }
        out.put("]");
    }

    fn from_value(v: &Json) -> Decoded<Self> {
        let Some(items) = v.as_arr() else {
            return Self::checked(None);
        };
        let mut entries = Entries::default();
        for item in items {
            entries.push(item.as_u64());
        }
        Self::checked(Some(entries))
    }

    fn read_field(p: &mut Parser<'_>) -> Result<Decoded<Self>, ParseError> {
        let mut entries = Entries::default();
        let is_array = p.array(|p| {
            entries.push(p.u64()?);
            Ok(())
        })?;
        Ok(Self::checked(is_array.then_some(entries)))
    }
}

/// The eight counts in dense-index order.
impl PackedField for StateBreakdown {
    const MAX_BYTES: usize = 8 * u64::MAX_BYTES;

    fn pack(&self, out: &mut Packer<'_>) {
        for c in &self.cycles {
            c.pack(out);
        }
    }

    fn unpack(input: &mut Unpacker<'_>) -> Self {
        let mut cycles = [0; 8];
        for c in &mut cycles {
            *c = input.u64();
        }
        StateBreakdown { cycles }
    }
}

/// An array's entries as either decoder counts them: how many, the
/// first eight, and the index of the first that is not a count.
#[derive(Default)]
struct Entries {
    len: usize,
    cycles: [u64; 8],
    first_bad: Option<usize>,
}

impl Entries {
    fn push(&mut self, count: Option<u64>) {
        match count {
            Some(n) if self.len < 8 => self.cycles[self.len] = n,
            None if self.first_bad.is_none() => self.first_bad = Some(self.len),
            _ => {}
        }
        self.len += 1;
    }
}

impl StateBreakdown {
    /// The validation sequence of both decoders, over the entries of
    /// the value if it is an array.
    fn checked(entries: Option<Entries>) -> Decoded<Self> {
        let entries = entries.ok_or_else(|| "state breakdown: expected an array".to_string())?;
        if entries.len != 8 {
            return Err(Some(format!(
                "state breakdown: expected 8 entries, got {}",
                entries.len
            )));
        }
        if let Some(i) = entries.first_bad {
            return Err(Some(format!("state breakdown: entry {i} is not a count")));
        }
        Ok(StateBreakdown {
            cycles: entries.cycles,
        })
    }
}

impl Add for StateBreakdown {
    type Output = StateBreakdown;

    fn add(mut self, rhs: StateBreakdown) -> StateBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for StateBreakdown {
    fn add_assign(&mut self, rhs: StateBreakdown) {
        for i in 0..8 {
            self.cycles[i] += rhs.cycles[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for i in 0..8 {
            assert_eq!(UnitState::from_index(i).index(), i);
        }
    }

    #[test]
    fn all_lists_each_state_once() {
        let mut seen = [false; 8];
        for s in UnitState::ALL {
            assert!(!seen[s.index()]);
            seen[s.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            UnitState::new(true, true, true).to_string(),
            "<FU2,FU1,MEM>"
        );
        assert_eq!(
            UnitState::new(false, false, false).to_string(),
            "<   ,   ,   >"
        );
        assert_eq!(
            UnitState::new(false, true, true).to_string(),
            "<   ,FU1,MEM>"
        );
    }

    #[test]
    fn mem_idle_counts_four_states() {
        let mut b = StateBreakdown::new();
        for s in UnitState::ALL {
            b.record(s, 10);
        }
        assert_eq!(b.total(), 80);
        assert_eq!(b.mem_idle_cycles(), 40);
        assert!((b.mem_idle_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn peak_fp_states() {
        let mut b = StateBreakdown::new();
        b.record(UnitState::new(true, true, true), 30);
        b.record(UnitState::new(true, true, false), 10);
        b.record(UnitState::new(false, false, false), 60);
        assert!((b.peak_fp_pct() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn breakdowns_add() {
        let mut a = StateBreakdown::new();
        a.record(UnitState::new(true, false, false), 5);
        let mut b = StateBreakdown::new();
        b.record(UnitState::new(true, false, false), 7);
        b.record(UnitState::new(false, false, true), 3);
        let c = a + b;
        assert_eq!(c.get(UnitState::new(true, false, false)), 12);
        assert_eq!(c.get(UnitState::new(false, false, true)), 3);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn idle_and_busy_predicates() {
        assert!(UnitState::new(false, false, false).all_idle());
        assert!(UnitState::new(true, true, true).all_busy());
        assert!(!UnitState::new(true, false, false).all_idle());
        assert!(!UnitState::new(true, true, false).all_busy());
    }
}
