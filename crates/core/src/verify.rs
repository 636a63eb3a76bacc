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
//! Enabled via [`crate::OooSim::with_checker`]; intended for tests (it
//! stores vector values per in-flight instruction).

use std::collections::HashMap;
use std::sync::Arc;

use oov_exec::{BaseImage, Machine};
use oov_isa::{RegClass, Trace};

use crate::rename::PhysReg;
use crate::sim::class_ix;

/// Lock-step architectural checker.
#[derive(Debug)]
pub(crate) struct Checker {
    machine: Machine,
    insts: Vec<oov_isa::Instruction>,
    executed: Vec<bool>,
    /// Result values of in-flight instructions (dst values, or data
    /// values for stores), keyed by trace index.
    recorded: HashMap<usize, Vec<u64>>,
    /// Memory contents of a store's target range *before* the store
    /// executed, keyed by trace index (for silent-store verification).
    pre_store: HashMap<usize, Vec<u64>>,
    /// Values currently associated with each physical register.
    phys_values: HashMap<(usize, PhysReg), Vec<u64>>,
    /// Scratch buffer for element-address computation (reused so the
    /// per-dispatch path allocates only what it must retain).
    addr_buf: Vec<u64>,
}

impl Checker {
    pub(crate) fn new(trace: &Trace) -> Self {
        Checker {
            machine: Machine::new(),
            insts: trace.instructions().to_vec(),
            executed: vec![false; trace.len()],
            recorded: HashMap::new(),
            pre_store: HashMap::new(),
            phys_values: HashMap::new(),
            addr_buf: Vec::new(),
        }
    }

    /// Installs initial memory as a view over a compiled program's
    /// shared base image — no seed work per run.
    pub(crate) fn seed_base(&mut self, base: &Arc<BaseImage>) {
        self.machine.reset_to_base(base);
    }

    /// Called at dispatch, in program order: execute architecturally and
    /// record the instruction's result.
    pub(crate) fn on_dispatch(&mut self, idx: usize) {
        if self.executed[idx] {
            return; // re-dispatch after a precise trap
        }
        let inst = self.insts[idx];
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

    /// A destination was renamed to `phys`: that register will hold the
    /// instruction's result.
    pub(crate) fn on_dst_renamed(&mut self, idx: usize, class: RegClass, phys: PhysReg) {
        if let Some(v) = self.recorded.get(&idx) {
            self.phys_values.insert((class_ix(class), phys), v.clone());
        }
    }

    /// A load tagged its destination register: nothing to record beyond
    /// what `on_dst_renamed` already did, but assert the mapping exists.
    pub(crate) fn on_tag_set(&mut self, class: RegClass, phys: PhysReg, idx: usize) {
        if let Some(v) = self.recorded.get(&idx) {
            self.phys_values.insert((class_ix(class), phys), v.clone());
        }
    }

    /// A store tagged its data register: the register's known values must
    /// equal the data the store wrote.
    pub(crate) fn on_store_tag(&mut self, class: RegClass, phys: PhysReg, idx: usize) {
        let Some(stored) = self.recorded.get(&idx) else {
            return;
        };
        if let Some(held) = self.phys_values.get(&(class_ix(class), phys)) {
            assert_eq!(
                held, stored,
                "store at trace[{idx}]: {class} p{phys} holds different data than was stored"
            );
        } else {
            self.phys_values
                .insert((class_ix(class), phys), stored.clone());
        }
    }

    /// A vector load was eliminated: the provider register must hold
    /// exactly what the load would have fetched.
    pub(crate) fn on_vector_elimination(&mut self, load_idx: usize, provider: PhysReg) {
        let want = self
            .recorded
            .get(&load_idx)
            .expect("eliminated load was never executed architecturally");
        let held = self
            .phys_values
            .get(&(class_ix(RegClass::V), provider))
            .unwrap_or_else(|| {
                panic!("VLE matched V p{provider} whose contents were never recorded")
            });
        assert_eq!(
            held, want,
            "VLE incorrect at trace[{load_idx}]: provider p{provider} holds stale data"
        );
    }

    /// A scalar load was eliminated via a register copy.
    pub(crate) fn on_scalar_elimination(
        &mut self,
        load_idx: usize,
        class: RegClass,
        provider: PhysReg,
    ) {
        let want = self
            .recorded
            .get(&load_idx)
            .expect("eliminated scalar load was never executed");
        let held = self
            .phys_values
            .get(&(class_ix(class), provider))
            .unwrap_or_else(|| {
                panic!("SLE matched {class} p{provider} whose contents were never recorded")
            });
        assert_eq!(
            held, want,
            "SLE incorrect at trace[{load_idx}]: provider p{provider} holds stale data"
        );
    }

    /// A store was elided as redundant: the bytes it would have written
    /// must equal what memory already held.
    pub(crate) fn on_store_elimination(&mut self, idx: usize, class: RegClass, phys: PhysReg) {
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
        if let Some(held) = self.phys_values.get(&(class_ix(class), phys)) {
            assert_eq!(held, data, "store data register holds unexpected values");
        }
    }

    /// Commit: the instruction's recorded result is no longer needed
    /// under that key (physical-register values persist).
    pub(crate) fn on_commit(&mut self, idx: usize) {
        self.recorded.remove(&idx);
        self.pre_store.remove(&idx);
    }

    /// Precise-trap squash: in-flight records stay (the same instructions
    /// will re-dispatch; architectural re-execution is skipped).
    pub(crate) fn on_squash(&mut self) {}
}
