//! Issue-queue storage: an ordered multiset of ROB sequence numbers
//! with tombstoned O(1)-amortised removal.
//!
//! The issue loops remove entries from the middle of a queue (an entry
//! issues out of order while older entries keep waiting). A
//! `VecDeque::retain` pays O(n) moves per removal; a [`SlotQueue`]
//! instead overwrites the slot with a tombstone and compacts only when
//! tombstones outnumber live entries, so program order is preserved
//! while removal stays cheap.

/// Sentinel marking a removed slot.
const TOMB: u64 = u64::MAX;

/// An insertion-ordered queue of sequence numbers with tombstone
/// removal.
#[derive(Debug, Default)]
pub(crate) struct SlotQueue {
    slots: Vec<u64>,
    /// Index of the first possibly-live slot (leading tombstones are
    /// trimmed eagerly so scans stay short).
    head: usize,
    live: usize,
}

impl SlotQueue {
    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live entries remain.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Appends a sequence number at the tail.
    pub(crate) fn push_back(&mut self, seq: u64) {
        debug_assert_ne!(seq, TOMB, "sequence number collides with tombstone");
        self.slots.push(seq);
        self.live += 1;
    }

    /// Number of raw slots (live + interior tombstones). Raw indices
    /// `0..raw_len()` enumerate entries in program order via
    /// [`SlotQueue::raw_get`].
    pub(crate) fn raw_len(&self) -> usize {
        self.slots.len() - self.head
    }

    /// The sequence number at raw position `pos`, or `None` for a
    /// tombstone.
    pub(crate) fn raw_get(&self, pos: usize) -> Option<u64> {
        match self.slots[self.head + pos] {
            TOMB => None,
            seq => Some(seq),
        }
    }

    /// Iterates live sequence numbers in insertion order (for the
    /// debug-build wake rescans and the tests).
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots[self.head..]
            .iter()
            .copied()
            .filter(|&s| s != TOMB)
    }

    /// Removes one occurrence of `seq` by scanning for it. Returns
    /// `true` if found. Callers that already hold the entry's raw
    /// position should use [`SlotQueue::remove_at`] instead.
    pub(crate) fn remove(&mut self, seq: u64) -> bool {
        let Some(off) = self.slots[self.head..].iter().position(|&s| s == seq) else {
            return false;
        };
        self.slots[self.head + off] = TOMB;
        self.live -= 1;
        self.reclaim();
        true
    }

    /// Removes the live entry at raw position `pos` in O(1) (plus
    /// amortised compaction). Raw positions are invalidated by any
    /// mutation, so call this with the position just obtained from the
    /// scan that selected the entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `pos` addresses a tombstone.
    pub(crate) fn remove_at(&mut self, pos: usize) {
        let i = self.head + pos;
        debug_assert_ne!(self.slots[i], TOMB, "remove_at on a tombstone");
        self.slots[i] = TOMB;
        self.live -= 1;
        self.reclaim();
    }

    /// Post-removal housekeeping: trim leading tombstones, reset empty
    /// storage, compact when interior tombstones dominate.
    fn reclaim(&mut self) {
        while self.head < self.slots.len() && self.slots[self.head] == TOMB {
            self.head += 1;
        }
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        } else if self.slots.len() - self.head > 2 * self.live.max(8) {
            self.slots.retain(|&s| s != TOMB);
            self.head = 0;
        }
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_iter_order() {
        let mut q = SlotQueue::default();
        for s in [3u64, 1, 4, 1, 5] {
            q.push_back(s);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn remove_preserves_order_and_raw_indexing() {
        let mut q = SlotQueue::default();
        for s in 0u64..6 {
            q.push_back(s);
        }
        assert!(q.remove(2));
        assert!(q.remove(4));
        assert!(!q.remove(9));
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![0, 1, 3, 5]);
        let via_raw: Vec<u64> = (0..q.raw_len()).filter_map(|p| q.raw_get(p)).collect();
        assert_eq!(via_raw, vec![0, 1, 3, 5]);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn removes_only_one_occurrence() {
        let mut q = SlotQueue::default();
        q.push_back(7);
        q.push_back(7);
        assert!(q.remove(7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn head_trim_and_compaction_keep_live_entries() {
        let mut q = SlotQueue::default();
        for s in 0u64..64 {
            q.push_back(s);
        }
        // Remove everything except the last entry, front to back.
        for s in 0u64..63 {
            assert!(q.remove(s));
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![63]);
        assert!(q.raw_len() <= 2, "tombstones not reclaimed");
        q.push_back(100);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![63, 100]);
    }

    #[test]
    fn remove_at_matches_remove() {
        let mut a = SlotQueue::default();
        let mut b = SlotQueue::default();
        for s in 10u64..20 {
            a.push_back(s);
            b.push_back(s);
        }
        // Remove 14 via scan on one queue, via its raw position on the
        // other; the queues must stay identical.
        assert!(a.remove(14));
        let pos = (0..b.raw_len())
            .find(|&p| b.raw_get(p) == Some(14))
            .unwrap();
        b.remove_at(pos);
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn clear_empties() {
        let mut q = SlotQueue::default();
        q.push_back(1);
        q.remove(1);
        q.push_back(2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.raw_len(), 0);
    }

    #[test]
    fn drain_to_empty_resets_storage() {
        let mut q = SlotQueue::default();
        q.push_back(5);
        q.push_back(6);
        assert!(q.remove(6));
        assert!(q.remove(5));
        assert!(q.is_empty());
        assert_eq!(q.raw_len(), 0);
    }

    // ----- seed-loop property harness ---------------------------------
    //
    // The container ships no proptest, so — like `tests/properties.rs`
    // at the workspace root — these drive random operation sequences
    // from a fixed span of SplitMix64 seeds against a `Vec` reference
    // model. A failing seed is its own reproducer.

    /// SplitMix64 step (same constants as the workspace harness).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    const SEEDS: [u64; 16] = [
        0, 1, 2, 3, 5, 8, 42, 137, 777, 1234, 2718, 3141, 4242, 5555, 7919, 9973,
    ];

    /// Asserts every observable view of `q` matches the model: live
    /// count, iteration order and raw-position enumeration.
    fn check_against_model(q: &SlotQueue, model: &[u64]) {
        assert_eq!(q.len(), model.len());
        assert_eq!(q.is_empty(), model.is_empty());
        assert_eq!(q.iter().collect::<Vec<_>>(), model);
        let via_raw: Vec<u64> = (0..q.raw_len()).filter_map(|p| q.raw_get(p)).collect();
        assert_eq!(via_raw, model, "raw enumeration diverged from iter");
    }

    /// The compaction bound documented on `reclaim`: right after a
    /// removal, live slots are never outnumbered 2:1 by storage beyond
    /// the fixed slack. (Pushes between removals can exceed it; only
    /// removals reclaim.)
    fn check_compaction_bound(q: &SlotQueue, context: &str) {
        assert!(
            q.raw_len() <= 2 * q.len().max(8),
            "{context}: tombstones not compacted: {} raw slots for {} live",
            q.raw_len(),
            q.len()
        );
    }

    /// Random interleavings of push / scan-remove / positional-remove /
    /// clear against the reference model: program order, tombstone
    /// compaction and storage reset (wraparound to a fresh vector after
    /// a full drain) hold on every seed.
    #[test]
    fn random_op_sequences_match_reference_model() {
        for seed in SEEDS {
            let mut rng = seed;
            let mut q = SlotQueue::default();
            let mut model: Vec<u64> = Vec::new();
            let mut next_seq = 0u64;
            for _ in 0..400 {
                match splitmix(&mut rng) % 10 {
                    // Push-heavy mix keeps the queue populated.
                    0..=4 => {
                        q.push_back(next_seq);
                        model.push(next_seq);
                        next_seq += 1;
                    }
                    5 | 6 => {
                        // Remove a random live entry by scan.
                        if !model.is_empty() {
                            let ix = (splitmix(&mut rng) % model.len() as u64) as usize;
                            let victim = model.remove(ix);
                            assert!(q.remove(victim), "seed {seed}: remove({victim}) failed");
                        } else {
                            assert!(!q.remove(99_999));
                        }
                        check_compaction_bound(&q, "after remove");
                    }
                    7 | 8 => {
                        // Remove a random live entry by raw position,
                        // as the issue scans do.
                        if !model.is_empty() {
                            let target_ix = (splitmix(&mut rng) % model.len() as u64) as usize;
                            let victim = model.remove(target_ix);
                            let pos = (0..q.raw_len())
                                .find(|&p| q.raw_get(p) == Some(victim))
                                .expect("live entry has a raw position");
                            q.remove_at(pos);
                        }
                        check_compaction_bound(&q, "after remove_at");
                    }
                    _ => {
                        // Occasional full clear (the trap-squash path).
                        if splitmix(&mut rng).is_multiple_of(8) {
                            q.clear();
                            model.clear();
                        }
                    }
                }
                check_against_model(&q, &model);
            }
        }
    }

    /// FIFO drain order survives arbitrary interior removals: whatever
    /// was not removed comes out in insertion order, and a fully
    /// drained queue resets its storage (head wraps back to 0) so
    /// reuse starts compact on every seed.
    #[test]
    fn drain_order_and_wraparound_after_full_drain() {
        for seed in SEEDS {
            let mut rng = seed;
            let mut q = SlotQueue::default();
            for round in 0..4u64 {
                let n = 16 + (splitmix(&mut rng) % 48);
                let base = round * 1_000;
                let mut expect: Vec<u64> = (base..base + n).collect();
                for s in &expect {
                    q.push_back(*s);
                }
                // Poke holes from random positions first.
                for _ in 0..n / 3 {
                    let ix = (splitmix(&mut rng) % expect.len() as u64) as usize;
                    let victim = expect.remove(ix);
                    assert!(q.remove(victim));
                }
                // Then drain front-to-back; order must be insertion
                // order of the survivors.
                for &want in &expect {
                    let head = q.iter().next().expect("queue drained early");
                    assert_eq!(head, want, "seed {seed}: drain order diverged");
                    q.remove_at(
                        (0..q.raw_len())
                            .find(|&p| q.raw_get(p).is_some())
                            .expect("live head has a position"),
                    );
                }
                // Fully drained: storage must reset, not accumulate
                // tombstones across rounds.
                assert!(q.is_empty());
                assert_eq!(q.raw_len(), 0, "seed {seed}: storage not reset after drain");
            }
        }
    }

    /// Compaction is bounded under a sliding-window workload (push at
    /// the tail, remove near the head — the steady state of an issue
    /// queue): raw storage stays within the documented 2× live + slack
    /// bound on every step of every seed.
    #[test]
    fn sliding_window_keeps_storage_bounded() {
        for seed in SEEDS {
            let mut rng = seed;
            let mut q = SlotQueue::default();
            let mut model: Vec<u64> = Vec::new();
            for step in 0..600u64 {
                q.push_back(step);
                model.push(step);
                // Keep roughly 16 live entries (a paper-default queue).
                while model.len() > 16 {
                    // Remove from the front half — mostly the head,
                    // sometimes an interior entry.
                    let ix = (splitmix(&mut rng) % (model.len() as u64 / 2).max(1)) as usize;
                    let victim = model.remove(ix);
                    assert!(q.remove(victim));
                    check_compaction_bound(&q, &format!("seed {seed} step {step}"));
                }
            }
            check_against_model(&q, &model);
        }
    }
}
