//! Joint occupancy tracking: turns per-unit busy intervals into the
//! paper's 8-state cycle breakdown.

use crate::{StateBreakdown, UnitState};

/// The three vector units tracked by the breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorUnit {
    /// The general-purpose computation unit.
    Fu2,
    /// The restricted computation unit.
    Fu1,
    /// The memory unit (address port).
    Mem,
}

/// Accumulates busy intervals per unit, then sweeps them into a
/// [`StateBreakdown`] giving the joint `(FU2, FU1, MEM)` occupancy of
/// every cycle.
///
/// The sweep works in the tracker's own storage: each unit's intervals
/// are sorted and merged in place, then the three sorted lists are
/// walked with one cursor each. It allocates nothing.
///
/// # Example
///
/// ```
/// use oov_stats::{OccupancyTracker, UnitState, VectorUnit};
///
/// let mut t = OccupancyTracker::new();
/// t.busy(VectorUnit::Fu2, 0, 9);   // cycles 0..=9
/// t.busy(VectorUnit::Mem, 5, 14);  // cycles 5..=14
/// let b = t.into_breakdown(20);
/// assert_eq!(b.get(UnitState::new(true, false, false)), 5);  // 0..=4
/// assert_eq!(b.get(UnitState::new(true, false, true)), 5);   // 5..=9
/// assert_eq!(b.get(UnitState::new(false, false, true)), 5);  // 10..=14
/// assert_eq!(b.get(UnitState::new(false, false, false)), 5); // 15..=19
/// ```
#[derive(Debug, Clone, Default)]
pub struct OccupancyTracker {
    /// `(start, end_inclusive)` intervals per unit: unordered as
    /// recorded, sorted and disjoint after [`OccupancyTracker::merge`].
    intervals: [Vec<(u64, u64)>; 3],
}

fn unit_index(u: VectorUnit) -> usize {
    match u {
        VectorUnit::Fu2 => 0,
        VectorUnit::Fu1 => 1,
        VectorUnit::Mem => 2,
    }
}

/// Sorts `v` and merges its overlapping and adjacent intervals in
/// place, leaving sorted intervals with a gap of at least one cycle
/// between neighbours.
fn merge_in_place(v: &mut Vec<(u64, u64)>) {
    v.sort_unstable();
    let mut w = 0;
    for r in 1..v.len() {
        let (s, e) = v[r];
        if s <= v[w].1 + 1 {
            v[w].1 = v[w].1.max(e);
        } else {
            w += 1;
            v[w] = (s, e);
        }
    }
    v.truncate(w + 1);
}

impl OccupancyTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `unit` was busy during the inclusive cycle range
    /// `[start, end]`. Intervals may overlap; they are merged later.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn busy(&mut self, unit: VectorUnit, start: u64, end: u64) {
        assert!(end >= start, "inverted interval [{start}, {end}]");
        self.intervals[unit_index(unit)].push((start, end));
    }

    /// Sorts and merges every unit's intervals in place.
    fn merge(&mut self) {
        for iv in &mut self.intervals {
            merge_in_place(iv);
        }
    }

    /// Total busy cycles of one unit (after merging overlaps).
    pub fn busy_cycles(&mut self, unit: VectorUnit) -> u64 {
        let iv = &mut self.intervals[unit_index(unit)];
        merge_in_place(iv);
        iv.iter().map(|(s, e)| e - s + 1).sum()
    }

    /// Empties the tracker for reuse, keeping the interval storage.
    pub fn clear(&mut self) {
        for iv in &mut self.intervals {
            iv.clear();
        }
    }

    /// As [`OccupancyTracker::into_breakdown`], but leaves the tracker
    /// empty and reusable: the intervals are swept into the breakdown
    /// and cleared in place (their storage is retained for the next
    /// run — the arena-reuse path).
    pub fn take_breakdown(&mut self, total_cycles: u64) -> StateBreakdown {
        let b = self.sweep(total_cycles);
        self.clear();
        b
    }

    /// Sweeps all intervals into the joint 8-state breakdown over
    /// `total_cycles` cycles (cycles `0..total_cycles`). Busy intervals
    /// beyond the total are clipped.
    #[must_use]
    pub fn into_breakdown(mut self, total_cycles: u64) -> StateBreakdown {
        self.sweep(total_cycles)
    }

    /// Merges in place, then walks the three sorted lists together:
    /// between two consecutive interval boundaries the joint state is
    /// constant, so each span is recorded once.
    fn sweep(&mut self, total_cycles: u64) -> StateBreakdown {
        self.merge();
        let mut breakdown = StateBreakdown::new();
        let mut next = [0usize; 3];
        let mut t = 0u64;
        while t < total_cycles {
            // Each unit's state at `t`, and the cycle it next changes.
            let mut busy = [false; 3];
            let mut change = total_cycles;
            for (u, iv) in self.intervals.iter().enumerate() {
                while next[u] < iv.len() && iv[next[u]].1 < t {
                    next[u] += 1;
                }
                if let Some(&(s, e)) = iv.get(next[u]) {
                    if s <= t {
                        busy[u] = true;
                        change = change.min(e + 1);
                    } else {
                        change = change.min(s);
                    }
                }
            }
            breakdown.record(UnitState::new(busy[0], busy[1], busy[2]), change - t);
            t = change;
        }
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_all_idle() {
        let b = OccupancyTracker::new().into_breakdown(100);
        assert_eq!(b.get(UnitState::new(false, false, false)), 100);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn overlapping_intervals_merge() {
        let mut t = OccupancyTracker::new();
        t.busy(VectorUnit::Fu1, 0, 10);
        t.busy(VectorUnit::Fu1, 5, 20);
        assert_eq!(t.busy_cycles(VectorUnit::Fu1), 21);
        let b = t.into_breakdown(30);
        assert_eq!(b.get(UnitState::new(false, true, false)), 21);
        assert_eq!(b.get(UnitState::new(false, false, false)), 9);
    }

    #[test]
    fn joint_states_partition_time() {
        let mut t = OccupancyTracker::new();
        t.busy(VectorUnit::Fu2, 0, 4);
        t.busy(VectorUnit::Fu1, 2, 6);
        t.busy(VectorUnit::Mem, 4, 8);
        let b = t.into_breakdown(10);
        assert_eq!(b.total(), 10);
        assert_eq!(b.get(UnitState::new(true, false, false)), 2); // 0,1
        assert_eq!(b.get(UnitState::new(true, true, false)), 2); // 2,3
        assert_eq!(b.get(UnitState::new(true, true, true)), 1); // 4
        assert_eq!(b.get(UnitState::new(false, true, true)), 2); // 5,6
        assert_eq!(b.get(UnitState::new(false, false, true)), 2); // 7,8
        assert_eq!(b.get(UnitState::new(false, false, false)), 1); // 9
    }

    #[test]
    fn clipping_beyond_total() {
        let mut t = OccupancyTracker::new();
        t.busy(VectorUnit::Mem, 5, 1000);
        t.busy(VectorUnit::Fu2, 2000, 3000);
        let b = t.into_breakdown(10);
        assert_eq!(b.total(), 10);
        assert_eq!(b.get(UnitState::new(false, false, true)), 5);
    }

    #[test]
    fn adjacent_intervals_coalesce() {
        let mut t = OccupancyTracker::new();
        t.busy(VectorUnit::Mem, 0, 4);
        t.busy(VectorUnit::Mem, 5, 9);
        assert_eq!(t.busy_cycles(VectorUnit::Mem), 10);
    }

    /// splitmix64: a small seeded generator for the randomised checks.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const UNITS: [VectorUnit; 3] = [VectorUnit::Fu2, VectorUnit::Fu1, VectorUnit::Mem];

    /// The definition, one cycle at a time: a unit is busy in cycle `c`
    /// if any of its intervals covers `c`.
    fn brute_force(sets: &[Vec<(u64, u64)>; 3], total_cycles: u64) -> StateBreakdown {
        let covers = |u: usize, c: u64| sets[u].iter().any(|&(s, e)| s <= c && c <= e);
        let mut b = StateBreakdown::new();
        for c in 0..total_cycles {
            b.record(UnitState::new(covers(0, c), covers(1, c), covers(2, c)), 1);
        }
        b
    }

    /// Random intervals for one unit, built to hit the sweep's edge
    /// cases: overlaps, exact adjacency, single cycles, duplicates and
    /// intervals past the end. A unit is empty one time in five.
    fn random_intervals(rng: &mut Rng, total_cycles: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = Vec::new();
        if rng.below(5) == 0 {
            return v;
        }
        for _ in 0..rng.below(12) {
            let shape = rng.below(6);
            let iv = match (shape, v.last().copied()) {
                // Exactly adjacent to the previous interval.
                (0, Some((_, e))) => (e + 1, e + 1 + rng.below(8)),
                // Overlapping the previous interval.
                (1, Some((s, e))) => {
                    let start = s + rng.below(e - s + 1);
                    (start, start + rng.below(10))
                }
                // A duplicate.
                (2, Some(prev)) => prev,
                // A single cycle.
                (3, _) => {
                    let c = rng.below(total_cycles + 8);
                    (c, c)
                }
                // Starting at or past the end.
                (4, _) => {
                    let start = total_cycles + rng.below(4);
                    (start, start + rng.below(20))
                }
                _ => {
                    let start = rng.below(total_cycles + 4);
                    (start, start + rng.below(total_cycles / 2 + 2))
                }
            };
            v.push(iv);
        }
        v
    }

    #[test]
    fn in_place_sweep_matches_per_cycle_reference() {
        let mut rng = Rng(0x0cc0_5eed);
        for case in 0..1500 {
            let total_cycles = rng.below(120);
            let sets: [Vec<(u64, u64)>; 3] =
                std::array::from_fn(|_| random_intervals(&mut rng, total_cycles));
            let mut t = OccupancyTracker::new();
            for (u, set) in UNITS.iter().zip(&sets) {
                for &(s, e) in set {
                    t.busy(*u, s, e);
                }
            }
            let want = brute_force(&sets, total_cycles);
            for (u, set) in UNITS.iter().zip(&sets) {
                let mut cycles: Vec<u64> = set.iter().flat_map(|&(s, e)| s..=e).collect();
                cycles.sort_unstable();
                cycles.dedup();
                assert_eq!(t.busy_cycles(*u), cycles.len() as u64, "case {case}, {u:?}");
            }
            // A busy_cycles merge leaves a tracker that sweeps the same.
            let reused = t.clone().into_breakdown(total_cycles);
            let got = t.take_breakdown(total_cycles);
            assert_eq!(got, want, "case {case}: {sets:?} over {total_cycles}");
            assert_eq!(reused, want, "case {case}");
            assert_eq!(got.total(), total_cycles, "case {case}");
        }
    }

    #[test]
    fn take_breakdown_empties_but_keeps_capacity() {
        let mut t = OccupancyTracker::new();
        for i in 0..64 {
            t.busy(VectorUnit::Fu2, i * 3, i * 3 + 1);
            t.busy(VectorUnit::Fu1, i, i + 5);
            t.busy(VectorUnit::Mem, 2 * i, 2 * i);
        }
        let caps: Vec<usize> = t.intervals.iter().map(Vec::capacity).collect();
        assert!(caps.iter().all(|&c| c >= 64));
        let _ = t.take_breakdown(500);
        assert!(t.intervals.iter().all(Vec::is_empty));
        let after: Vec<usize> = t.intervals.iter().map(Vec::capacity).collect();
        assert_eq!(after, caps, "the sweep kept every unit's storage");
        assert_eq!(
            t.take_breakdown(10)
                .get(UnitState::new(false, false, false)),
            10,
            "an emptied tracker is all idle"
        );
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_rejected() {
        let mut t = OccupancyTracker::new();
        t.busy(VectorUnit::Fu1, 5, 4);
    }
}
