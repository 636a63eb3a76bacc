//! Front-end prediction structures: branch target buffer and return
//! stack.
//!
//! Paper §2.2: *"The machine has a 64 entry BTB, where each entry has a
//! 2-bit saturating counter for predicting the outcome of branches.
//! Also, an 8-deep return stack is used to predict call/return
//! sequences."*

/// One BTB entry: tag, target and a 2-bit saturating counter.
#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: u64,
    target: u64,
    counter: u8,
}

/// Direct-mapped branch target buffer with 2-bit counters. Built
/// empty by `Default`; [`Btb::reset`] gives it its entries.
#[derive(Debug, Clone, Default)]
pub struct Btb {
    entries: Vec<Option<BtbEntry>>,
}

impl Btb {
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.entries.len()
    }

    /// Empties the BTB and sizes it to `n` entries (power of two
    /// recommended; paper uses 64), reusing its storage (arena reuse).
    pub(crate) fn reset(&mut self, n: usize) {
        self.entries.clear();
        self.entries.resize(n, None);
    }

    /// Predicts a conditional branch at `pc`: `(taken, target)`.
    /// A missing entry predicts not-taken.
    #[must_use]
    pub fn predict(&self, pc: u64) -> (bool, Option<u64>) {
        match &self.entries[self.index(pc)] {
            Some(e) if e.tag == pc => (e.counter >= 2, Some(e.target)),
            _ => (false, None),
        }
    }

    /// Updates the entry after resolution.
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) {
        let idx = self.index(pc);
        let e = self.entries[idx].get_or_insert(BtbEntry {
            tag: pc,
            target,
            counter: if taken { 2 } else { 1 },
        });
        if e.tag != pc {
            // Conflict miss: replace.
            *e = BtbEntry {
                tag: pc,
                target,
                counter: if taken { 2 } else { 1 },
            };
            return;
        }
        e.target = target;
        e.counter = if taken {
            (e.counter + 1).min(3)
        } else {
            e.counter.saturating_sub(1)
        };
    }
}

/// Fixed-depth return-address stack. Overflow discards the oldest entry;
/// underflow predicts nothing (a guaranteed mispredict).
#[derive(Debug, Clone, Default)]
pub struct ReturnStack {
    depth: usize,
    stack: Vec<u64>,
}

impl ReturnStack {
    /// Empties the stack and sets its depth (paper: 8; at least 1).
    pub(crate) fn reset(&mut self, depth: usize) {
        self.stack.clear();
        self.depth = depth.max(1);
    }

    /// Pushes a return address (on `call`).
    pub fn push(&mut self, addr: u64) {
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return address (on `ret`).
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb(n: usize) -> Btb {
        let mut b = Btb::default();
        b.reset(n);
        b
    }

    #[test]
    fn cold_btb_predicts_not_taken() {
        let b = btb(64);
        assert_eq!(b.predict(0x1000), (false, None));
    }

    #[test]
    fn counter_saturates_and_hysteresis_works() {
        let mut b = btb(64);
        let pc = 0x2000;
        b.update(pc, true, 0x1000); // counter 2
        assert_eq!(b.predict(pc), (true, Some(0x1000)));
        b.update(pc, true, 0x1000); // 3
        b.update(pc, false, 0x1000); // 2 — still predicts taken
        assert!(b.predict(pc).0);
        b.update(pc, false, 0x1000); // 1
        assert!(!b.predict(pc).0);
    }

    #[test]
    fn loop_branch_mispredicts_twice_per_loop() {
        // Classic result: a loop of N iterations with a warm BTB
        // mispredicts only on exit.
        let mut b = btb(64);
        let pc = 0x3000;
        // Warm up.
        for _ in 0..4 {
            b.update(pc, true, 0x2f00);
        }
        let mut mispredicts = 0;
        for iter in 0..10 {
            let actual = iter != 9;
            let (pred, _) = b.predict(pc);
            if pred != actual {
                mispredicts += 1;
            }
            b.update(pc, actual, 0x2f00);
        }
        assert_eq!(mispredicts, 1);
    }

    #[test]
    fn conflicting_pcs_evict() {
        let mut b = btb(1);
        b.update(0x1000, true, 0xa);
        b.update(0x2000, true, 0xb);
        assert_eq!(b.predict(0x1000), (false, None), "evicted");
        assert_eq!(b.predict(0x2000), (true, Some(0xb)));
    }

    #[test]
    fn return_stack_lifo_and_overflow() {
        let mut r = ReturnStack::default();
        r.reset(2);
        r.push(1);
        r.push(2);
        r.push(3); // discards 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
