//! Value-level verification of dynamic load elimination.
//!
//! The OOOVA is a timing model — it never carries data. To prove that the
//! tag mechanism of §6 is *correct* (an eliminated load really would have
//! fetched exactly the bytes already sitting in the matched physical
//! register), this checker runs the architectural executor in lock-step
//! with the dispatch stage (program order) and records, per physical
//! register, the values it holds. Every elimination is then checked
//! against what the load would actually have read.
//!
//! Attach it to a run as its probe,
//! `OooSim::with_probe(Box::new(Checker::new(..)))`; intended for tests
//! (it stores vector values per in-flight instruction). Every check is
//! an assertion, so an incorrect elimination panics the run.

use std::collections::HashMap;

use oov_core::Probe;
use oov_isa::{Opcode, RegClass, Trace};

use crate::Machine;

/// Lock-step architectural checker of dynamic load elimination.
#[derive(Debug)]
pub struct Checker {
    machine: Machine,
    /// The run's trace (a probe outlives any borrow, so a copy of the
    /// compact records), decoded one instruction at a time.
    trace: Trace,
    executed: Vec<bool>,
    /// Result values of in-flight instructions (dst values, or data
    /// values for stores), keyed by trace index.
    recorded: HashMap<usize, Vec<u64>>,
    /// Memory contents of a store's target range *before* the store
    /// executed, keyed by trace index (for silent-store verification).
    pre_store: HashMap<usize, Vec<u64>>,
    /// Values currently associated with each physical register.
    phys_values: HashMap<(RegClass, u16), Vec<u64>>,
    /// Scratch buffer for element-address computation (reused so the
    /// per-dispatch path allocates only what it must retain).
    addr_buf: Vec<u64>,
}

impl Checker {
    /// A checker for a run over `trace`, executing it on `machine`:
    /// [`Machine::new`] for empty memory, or [`Machine::from_base`]
    /// over a compiled program's seeded image.
    #[must_use]
    pub fn new(trace: &Trace, machine: Machine) -> Self {
        Checker {
            machine,
            trace: trace.clone(),
            executed: vec![false; trace.len()],
            recorded: HashMap::new(),
            pre_store: HashMap::new(),
            phys_values: HashMap::new(),
            addr_buf: Vec::new(),
        }
    }

    /// Executes instruction `idx` architecturally (once: a re-dispatch
    /// after a precise trap is skipped) and records its result.
    fn execute(&mut self, idx: usize) {
        if self.executed[idx] {
            return; // re-dispatch after a precise trap
        }
        let inst = self.trace.get(idx);
        if inst.op.is_store() {
            // Snapshot the target range before the store runs, so a
            // silent-store elision can be proven genuinely silent.
            let mut addrs = std::mem::take(&mut self.addr_buf);
            self.machine.element_addresses_into(&inst, &mut addrs);
            let pre: Vec<u64> = addrs
                .iter()
                .map(|&a| self.machine.memory().load(a))
                .collect();
            self.addr_buf = addrs;
            self.pre_store.insert(idx, pre);
        }
        self.machine.execute(&inst);
        self.executed[idx] = true;
        let values: Option<Vec<u64>> = if let Some(d) = inst.dst {
            match d.class() {
                RegClass::V => Some(self.machine.vector_prefix(d, inst.vl).to_vec()),
                RegClass::A | RegClass::S => Some(vec![self.machine.scalar(d)]),
                RegClass::Mask => None,
            }
        } else if inst.op.is_store() {
            // Record the stored data for store-tag checking.
            inst.srcs[0].map(|data| match data.class() {
                RegClass::V => self.machine.vector_prefix(data, inst.vl).to_vec(),
                _ => vec![self.machine.scalar(data)],
            })
        } else {
            None
        };
        if let Some(v) = values {
            self.recorded.insert(idx, v);
        }
    }
}

impl Probe for Checker {
    fn dispatch(
        &mut self,
        _seq: u64,
        trace_idx: usize,
        _op: Opcode,
        _vl: u16,
        dst: Option<(RegClass, u16)>,
        _now: u64,
    ) {
        self.execute(trace_idx);
        if let Some((class, phys)) = dst {
            self.holds(class, phys, trace_idx);
        }
    }

    /// `phys` will hold instruction `idx`'s result.
    fn holds(&mut self, class: RegClass, phys: u16, idx: usize) {
        if let Some(v) = self.recorded.get(&idx) {
            self.phys_values.insert((class, phys), v.clone());
        }
    }

    /// A store tagged its data register: the register's known values must
    /// equal the data the store wrote.
    fn store_tag(&mut self, class: RegClass, phys: u16, idx: usize) {
        let Some(stored) = self.recorded.get(&idx) else {
            return;
        };
        if let Some(held) = self.phys_values.get(&(class, phys)) {
            assert_eq!(
                held, stored,
                "store at trace[{idx}]: {class} p{phys} holds different data than was stored"
            );
        } else {
            self.phys_values.insert((class, phys), stored.clone());
        }
    }

    /// A vector load was eliminated: the provider register must hold
    /// exactly what the load would have fetched.
    fn vector_elim(&mut self, load_idx: usize, provider: u16) {
        let want = self
            .recorded
            .get(&load_idx)
            .expect("eliminated load was never executed architecturally");
        let held = self
            .phys_values
            .get(&(RegClass::V, provider))
            .unwrap_or_else(|| {
                panic!("VLE matched V p{provider} whose contents were never recorded")
            });
        assert_eq!(
            held, want,
            "VLE incorrect at trace[{load_idx}]: provider p{provider} holds stale data"
        );
    }

    /// A scalar load was eliminated via a register copy.
    fn scalar_elim(&mut self, load_idx: usize, class: RegClass, provider: u16) {
        let want = self
            .recorded
            .get(&load_idx)
            .expect("eliminated scalar load was never executed");
        let held = self.phys_values.get(&(class, provider)).unwrap_or_else(|| {
            panic!("SLE matched {class} p{provider} whose contents were never recorded")
        });
        assert_eq!(
            held, want,
            "SLE incorrect at trace[{load_idx}]: provider p{provider} holds stale data"
        );
    }

    /// A store was elided as redundant: the bytes it would have written
    /// must equal what memory already held.
    fn store_elim(&mut self, idx: usize, class: RegClass, phys: u16) {
        let data = self
            .recorded
            .get(&idx)
            .expect("eliminated store was never executed");
        let pre = self
            .pre_store
            .get(&idx)
            .expect("eliminated store has no pre-image");
        assert_eq!(
            pre, data,
            "silent-store elimination at trace[{idx}] was not silent"
        );
        if let Some(held) = self.phys_values.get(&(class, phys)) {
            assert_eq!(held, data, "store data register holds unexpected values");
        }
    }

    /// Commit: the instruction's recorded result is no longer needed
    /// under that key (physical-register values persist).
    fn commit(&mut self, _seq: u64, idx: usize, _issue: u64, _complete: u64, _now: u64) {
        self.recorded.remove(&idx);
        self.pre_store.remove(&idx);
    }
}
