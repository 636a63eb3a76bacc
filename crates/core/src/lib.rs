//! **OOOVA** — the out-of-order, register-renaming vector architecture of
//! *Out-of-Order Vector Architectures* (Espasa, Valero, Smith; MICRO-30,
//! 1997). This crate is the paper's primary contribution, built on the
//! substrate crates:
//!
//! * R10000-style renaming with four independent map tables and free
//!   lists, extended with reference counts so dynamic load elimination
//!   can alias two architectural registers to one physical register;
//! * four 16-entry issue queues (A, S, V, M) with out-of-order issue;
//! * a 64-entry reorder buffer committing up to 4 instructions/cycle,
//!   with the paper's **early** (aggressive) and **late** (precise-trap)
//!   commit models — see [`oov_isa::CommitMode`];
//! * a three-stage in-order memory pipeline (Issue/RF → Range →
//!   Dependence) followed by out-of-order memory issue under range-based
//!   disambiguation;
//! * a 64-entry BTB with 2-bit counters and an 8-deep return stack;
//! * dynamic load elimination (SLE / SLE+VLE) driven by per-physical-
//!   register memory tags, including the modified pipeline that renames
//!   vector registers at the Dependence stage (paper Figure 10);
//! * precise-trap injection and recovery ([`OooSim::with_fault_at`]).
//!
//! These structures are private to the crate. They live in one storage
//! value with one way to build it: a reset for the run's
//! configuration. [`OooSim::new`] resets empty storage, and
//! [`OooSim::new_in`] resets the storage a [`SimArena`] recycled from
//! an earlier run, so sweeps and serve shards replay without
//! allocating. The public surface is the simulator, the arena,
//! [`RunResult`], [`Stepper`], the [`budget`] types, and the one
//! observer slot: the [`Probe`] trait ([`OooSim::with_probe`]) and its
//! lifecycle [`TraceSink`]. The value checker is a probe in the test
//! oracle `oov-exec`, which this crate does not link.
//!
//! # Example
//!
//! ```
//! use oov_core::OooSim;
//! use oov_isa::{ArchReg, Instruction, MemRef, Opcode, OooConfig, Trace};
//!
//! let mut t = Trace::new("tiny");
//! let m = MemRef::strided(0x1000, 8, 64);
//! t.push(Instruction::load(Opcode::VLoad, ArchReg::V(0), &[], m, 64));
//! t.push(Instruction::vector(Opcode::VAdd, ArchReg::V(1), &[ArchReg::V(0)], 64));
//!
//! let result = OooSim::new(OooConfig::default(), &t).run();
//! assert!(result.stats.cycles > 0);
//! assert!(result.ideal_cycles <= result.stats.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
pub mod budget;
mod probe;
mod rename;
mod rob;
mod sim;
mod stages;
mod tags;
mod trace;

pub use budget::{AbortReason, RunAborted, RunBudget};
pub use probe::Probe;
pub use sim::{arena_constructions, OooSim, RunResult, SimArena, Stepper};
pub use trace::{TraceRecord, TraceSink};

#[cfg(test)]
mod tests {
    use super::*;
    use oov_isa::{
        ArchReg, BranchInfo, CommitMode, Instruction, LoadElimMode, MemRef, OooConfig, Opcode,
        Trace,
    };
    use oov_stats::SimStats;

    fn vload(dst: u8, base: u64, vl: u16) -> Instruction {
        Instruction::load(
            Opcode::VLoad,
            ArchReg::V(dst),
            &[],
            MemRef::strided(base, 8, vl),
            vl,
        )
    }

    fn vstore(src: u8, base: u64, vl: u16) -> Instruction {
        Instruction::store(
            Opcode::VStore,
            &[ArchReg::V(src)],
            MemRef::strided(base, 8, vl),
            vl,
        )
    }

    fn vadd(dst: u8, a: u8, b: u8, vl: u16) -> Instruction {
        Instruction::vector(
            Opcode::VAdd,
            ArchReg::V(dst),
            &[ArchReg::V(a), ArchReg::V(b)],
            vl,
        )
    }

    fn trace(insts: Vec<Instruction>) -> Trace {
        let mut t = Trace::new("t");
        t.extend(insts);
        t
    }

    fn run(insts: Vec<Instruction>, cfg: OooConfig) -> RunResult {
        OooSim::new(cfg, &trace(insts)).run()
    }

    #[test]
    fn empty_machine_handles_single_instruction() {
        let r = run(vec![vload(0, 0x1000, 64)], OooConfig::default());
        assert_eq!(r.stats.committed, 1);
        assert!(r.stats.cycles >= 50 + 64);
    }

    #[test]
    fn chaining_overlaps_load_and_add() {
        // OOOVA chains loads into functional units: the dependent add
        // starts once the first element lands, not after the last.
        let r = run(
            vec![vload(0, 0x1000, 128), vadd(1, 0, 0, 128)],
            OooConfig::default(),
        );
        // Load: ~5 (front end) + 128 addr + 50 latency; add chains ~1
        // cycle behind the element stream + pipeline depth.
        assert!(
            r.stats.cycles < 64 + 50 + 128 + 40,
            "no chaining? {} cycles",
            r.stats.cycles
        );
    }

    #[test]
    fn renaming_removes_waw_stalls() {
        // Four independent loads all writing V0: with renaming they
        // pipeline back-to-back on the address bus.
        let insts: Vec<Instruction> = (0..4).map(|i| vload(0, 0x1000 + i * 0x4000, 128)).collect();
        let r = run(insts, OooConfig::default());
        // 4 × 128 address cycles back-to-back plus latency tail.
        assert!(
            r.stats.cycles < 4 * 128 + 50 + 60,
            "WAW stalled: {}",
            r.stats.cycles
        );
        assert!(r.stats.mem_port_idle_pct() < 35.0);
    }

    #[test]
    fn rename_stalls_when_physical_registers_run_out() {
        // Loads interleaved with FU2-bound divide chains: with only 9
        // physical registers, dispatch serialises behind commit and the
        // memory port cannot run ahead.
        let mk = || {
            let mut v = Vec::new();
            for i in 0..8u64 {
                v.push(vload(0, 0x1000 + i * 0x4000, 128));
                v.push(Instruction::vector(
                    Opcode::VDiv,
                    ArchReg::V(1),
                    &[ArchReg::V(0)],
                    128,
                ));
                v.push(Instruction::vector(
                    Opcode::VDiv,
                    ArchReg::V(2),
                    &[ArchReg::V(1)],
                    128,
                ));
            }
            v
        };
        let nine = run(mk(), OooConfig::default().with_phys_v_regs(9));
        let many = run(mk(), OooConfig::default().with_phys_v_regs(32));
        assert!(nine.stats.rename_stall_cycles > 0);
        assert!(nine.stats.cycles >= many.stats.cycles);
        assert!(
            nine.stats.mem_port_idle_pct() >= many.stats.mem_port_idle_pct(),
            "more registers should keep the port at least as busy"
        );
    }

    #[test]
    fn disambiguation_lets_disjoint_load_pass_store() {
        // A short load feeds a divide whose result is stored; the store's
        // data arrives long after the bus is free. A disjoint long load
        // can use the idle bus meanwhile; an overlapping one cannot.
        let mk = |load3_base: u64| {
            vec![
                vload(1, 0x1000, 8), // quick: bus free early
                Instruction::vector(Opcode::VDiv, ArchReg::V(2), &[ArchReg::V(1)], 8),
                vstore(2, 0x20000, 128), // waits on the divide's data
                vload(3, load3_base, 128),
            ]
        };
        let disjoint = run(mk(0x40000), OooConfig::default());
        let blocked = run(mk(0x20000), OooConfig::default());
        assert!(
            disjoint.stats.cycles < blocked.stats.cycles,
            "disjoint {} vs overlapping {}",
            disjoint.stats.cycles,
            blocked.stats.cycles
        );
    }

    #[test]
    fn overlapping_store_load_is_ordered() {
        // RAW through memory: the load must not issue before the store.
        let insts = vec![
            vload(1, 0x1000, 64),
            vstore(1, 0x8000, 64),
            vload(2, 0x8000, 64),
        ];
        let r = run(insts, OooConfig::default());
        assert_eq!(r.stats.committed, 3);
        // Store waits for load data (~50+64), then load 2.
        assert!(r.stats.cycles > 64 + 50 + 64);
    }

    #[test]
    fn late_commit_store_at_head_slows_dependent_chains() {
        // The paper's trfd/dyfesm pathology: store feeds a later load to
        // the same address across "iterations".
        let mk = || {
            let mut v = Vec::new();
            for i in 0..6 {
                let base = 0x8000;
                v.push(vload(1, 0x1000 + i * 0x2000, 64));
                v.push(vadd(2, 1, 1, 64));
                v.push(vstore(2, base, 64));
                v.push(vload(3, base, 64));
                v.push(vadd(4, 3, 3, 64));
            }
            v
        };
        let early = run(mk(), OooConfig::default().with_commit(CommitMode::Early));
        let late = run(mk(), OooConfig::default().with_commit(CommitMode::Late));
        assert!(
            late.stats.cycles > early.stats.cycles,
            "late {} should exceed early {}",
            late.stats.cycles,
            early.stats.cycles
        );
    }

    fn sload(dst: u8, addr: u64) -> Instruction {
        Instruction::load(Opcode::SLoad, ArchReg::S(dst), &[], MemRef::scalar(addr), 1)
    }

    /// Runs `insts` on the untraced stage-graph engine and on the naive
    /// oracle, asserts bit-identical stats, and returns them with the
    /// oracle's lifecycle records in trace order (tracing never changes
    /// the oracle's schedule).
    fn both_engines(insts: Vec<Instruction>, cfg: OooConfig) -> (SimStats, Vec<TraceRecord>) {
        let t = trace(insts);
        let event = OooSim::new(cfg, &t).run().stats;
        let naive = OooSim::new(cfg, &t)
            .with_stepper(Stepper::Naive)
            .with_trace(TraceSink::new())
            .run();
        assert_eq!(event, naive.stats, "engines diverge");
        let records = naive.trace.expect("traced run").records().to_vec();
        (event, records)
    }

    #[test]
    fn late_commit_store_becomes_head_behind_a_long_vector_load() {
        // Each store has ready data and a disjoint range, and the bus is
        // long free when an older long-latency instruction commits and
        // the store becomes the ROB head: only the head move lets it
        // issue.
        let insts = vec![
            vload(1, 0x1000, 128),
            vstore(5, 0x40000, 8),
            Instruction::vector(Opcode::VDiv, ArchReg::V(7), &[ArchReg::V(1)], 128),
            vstore(6, 0x50000, 8),
            vload(2, 0x80000, 8),
        ];
        let cfg = OooConfig::default().with_commit(CommitMode::Late);
        let (stats, r) = both_engines(insts, cfg);
        assert_eq!(stats.committed, 5);
        assert!(
            r[1].issue >= r[0].commit,
            "store issued before the head moved"
        );
        assert!(
            r[3].issue >= r[2].commit,
            "store issued before the head moved"
        );
        assert!(
            r[4].issue < r[1].issue,
            "the disjoint load passes the stores"
        );
    }

    #[test]
    fn scalar_cache_hit_issues_while_a_vector_load_holds_the_bus() {
        // The first load allocates the line; the third hits it while the
        // long vector load still occupies the address bus.
        let insts = vec![sload(1, 0x2000), vload(1, 0x10000, 128), sload(2, 0x2008)];
        let cfg = OooConfig::default();
        assert!(cfg.scalar_cache.is_some());
        let (stats, r) = both_engines(insts, cfg);
        assert_eq!(stats.load_requests, 1 + 128, "the hit bypasses the bus");
        assert!(
            r[2].issue > r[1].issue && r[2].issue < r[1].issue + 128,
            "hit at {} outside the bus window {}..{}",
            r[2].issue,
            r[1].issue,
            r[1].issue + 128
        );
    }

    #[test]
    fn memory_queue_without_scalar_loads_waits_for_the_bus() {
        // Vector accesses only: while the bus is busy nothing can issue,
        // and each waiting access takes the bus the cycle it frees.
        let insts = vec![
            vload(1, 0x1000, 128),
            vload(2, 0x10000, 64),
            vstore(3, 0x20000, 32),
            vload(4, 0x30000, 16),
        ];
        for commit in [CommitMode::Early, CommitMode::Late] {
            let cfg = OooConfig::default().with_commit(commit);
            let (stats, r) = both_engines(insts.clone(), cfg);
            assert_eq!(stats.committed, 4);
            if commit == CommitMode::Early {
                assert_eq!(r[1].issue, r[0].issue + 128);
                assert_eq!(r[2].issue, r[1].issue + 64);
                assert_eq!(r[3].issue, r[2].issue + 32);
            }
        }
    }

    #[test]
    fn loop_branches_predicted_after_warmup() {
        // A 20-iteration loop: cold BTB mispredicts at most a couple of
        // times, then the exit mispredicts once.
        let mut insts = Vec::new();
        for i in 0..20 {
            insts.push(vload(0, 0x1000 + i * 0x400, 64).at(0x100));
            insts.push(
                Instruction::control(
                    Opcode::Branch,
                    &[ArchReg::A(7)],
                    BranchInfo {
                        taken: i != 19,
                        target: 0x100,
                    },
                )
                .at(0x104),
            );
        }
        let r = run(insts, OooConfig::default());
        assert_eq!(r.stats.branches, 20);
        assert!(
            r.stats.mispredicts <= 3,
            "too many mispredicts: {}",
            r.stats.mispredicts
        );
    }

    #[test]
    fn queue_depth_128_accepted() {
        let insts: Vec<Instruction> = (0..40).map(|i| vload(0, 0x1000 + i * 0x4000, 32)).collect();
        let q16 = run(insts.clone(), OooConfig::default());
        let q128 = run(insts, OooConfig::default().with_queue_slots(128));
        assert!(q128.stats.cycles <= q16.stats.cycles);
    }

    #[test]
    fn ideal_bound_is_a_lower_bound() {
        let insts = vec![
            vload(0, 0x1000, 128),
            vload(1, 0x2000, 128),
            vadd(2, 0, 1, 128),
            vstore(2, 0x40000, 128),
        ];
        let r = run(insts, OooConfig::default());
        assert!(r.ideal_cycles <= r.stats.cycles);
        assert_eq!(r.ideal_cycles, 3 * 128); // memory-bound: 3 mem ops
    }

    #[test]
    fn vle_reduces_traffic() {
        let mk = |n: u64| {
            let mut v = Vec::new();
            for i in 0..n {
                v.push(vload(1, 0x1000, 128)); // same address every time
                v.push(vadd(2, 1, 1, 128));
                v.push(vstore(2, 0x40000 + i * 0x1000, 128));
            }
            v
        };
        let base_cfg = OooConfig::default().with_commit(CommitMode::Late);
        let vle_cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
        let base = run(mk(8), base_cfg);
        let vle = run(mk(8), vle_cfg);
        assert!(vle.stats.mem_requests < base.stats.mem_requests);
        assert!(vle.stats.cycles <= base.stats.cycles);
    }

    #[test]
    fn precise_trap_recovers_and_completes() {
        let insts = vec![
            vload(0, 0x1000, 64),
            vadd(1, 0, 0, 64),
            vload(2, 0x3000, 64),
            vadd(3, 2, 0, 64),
            vstore(3, 0x8000, 64),
        ];
        let cfg = OooConfig::default().with_commit(CommitMode::Late);
        let t = trace(insts);
        let sim = OooSim::new(cfg, &t).with_fault_at(2);
        let r = sim.run();
        assert_eq!(
            r.stats.committed, 5,
            "all instructions commit after recovery"
        );
    }

    #[test]
    fn precise_trap_mid_pressure_completes() {
        let insts: Vec<Instruction> = (0..10)
            .map(|i| vload((i % 8) as u8, 0x1000 + i * 0x2000, 32))
            .collect();
        let cfg = OooConfig::default().with_commit(CommitMode::Late);
        let t = trace(insts);
        let sim = OooSim::new(cfg, &t).with_fault_at(5);
        let r = sim.run();
        assert_eq!(r.stats.committed, 10);
    }

    #[test]
    #[should_panic(expected = "late-commit")]
    fn fault_requires_late_commit() {
        let t = trace(vec![vload(0, 0x1000, 8)]);
        let _ = OooSim::new(OooConfig::default(), &t).with_fault_at(0);
    }

    #[test]
    #[should_panic(expected = "at least 9")]
    fn too_few_phys_regs_rejected() {
        let t = trace(vec![vload(0, 0x1000, 8)]);
        let _ = OooSim::new(OooConfig::default().with_phys_v_regs(8), &t);
    }

    #[test]
    fn construction_panics_with_the_validate_message() {
        // The first two used to simulate until the engine found no
        // future event and panicked with a deadlock.
        let t = trace(vec![vload(0, 0x1000, 8)]);
        let d = OooConfig::default();
        for cfg in [
            OooConfig {
                commit_width: 0,
                ..d
            },
            OooConfig {
                queue_slots: 0,
                ..d
            },
            OooConfig {
                rob_entries: 0,
                ..d
            },
            OooConfig {
                phys_v_regs: 4,
                ..d
            },
        ] {
            let expected = cfg.validate().unwrap_err();
            let panic = std::panic::catch_unwind(|| OooSim::new(cfg, &t).run())
                .expect_err("an invalid config must not build a simulator");
            assert_eq!(panic.downcast_ref::<String>(), Some(&expected));
        }
    }

    #[test]
    fn conservation_holds_before_run() {
        let t = trace(vec![vload(0, 0x1000, 8)]);
        let sim = OooSim::new(OooConfig::default(), &t);
        assert!(sim.check_conservation());
    }

    #[test]
    fn latency_tolerance_much_better_than_growth() {
        // Streaming loads: raising memory latency from 1 to 100 should
        // cost far less than 99 extra cycles per load.
        let insts: Vec<Instruction> = (0..16)
            .map(|i| vload(0, 0x1000 + i * 0x4000, 128))
            .collect();
        let lat1 = run(insts.clone(), OooConfig::default().with_memory_latency(1));
        let lat100 = run(insts, OooConfig::default().with_memory_latency(100));
        let growth = lat100.stats.cycles as f64 / lat1.stats.cycles as f64;
        assert!(growth < 1.15, "latency not tolerated: growth {growth}");
    }

    #[test]
    fn breakdown_total_matches_cycles() {
        let r = run(
            vec![
                vload(0, 0x1000, 64),
                vadd(1, 0, 0, 64),
                vstore(1, 0x9000, 64),
            ],
            OooConfig::default(),
        );
        assert_eq!(r.stats.breakdown.total(), r.stats.cycles);
    }

    /// A dependent-chain trace long enough that budget limits fire
    /// mid-run under every stepper.
    fn chain_trace(n: usize) -> Trace {
        let mut insts = vec![vload(0, 0x1000, 64)];
        for _ in 0..n {
            insts.push(vadd(1, 0, 0, 64));
            insts.push(vadd(0, 1, 1, 64));
        }
        trace(insts)
    }

    #[test]
    fn budget_cycle_cap_aborts_midway() {
        let t = chain_trace(64);
        let full = OooSim::new(OooConfig::default(), &t).run();
        let cap = full.stats.cycles / 2;
        for stepper in [Stepper::Naive, Stepper::EventDriven] {
            let err = OooSim::new(OooConfig::default(), &t)
                .with_stepper(stepper)
                .with_budget(RunBudget::unlimited().with_max_cycles(cap))
                .try_run()
                .unwrap_err();
            assert_eq!(err.reason, AbortReason::CycleCapExceeded);
            assert!(err.cycles >= cap && err.cycles <= full.stats.cycles);
            assert!(err.committed < t.len() as u64, "{err}");
        }
    }

    #[test]
    fn budget_cancel_flag_and_deadline_abort() {
        let t = chain_trace(64);
        // An already-set cancel flag and an already-expired deadline
        // both abort on the very first step (tick starts saturated).
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let err = OooSim::new(OooConfig::default(), &t)
            .with_budget(RunBudget::unlimited().with_cancel(flag))
            .try_run()
            .unwrap_err();
        assert_eq!(err.reason, AbortReason::Cancelled);
        assert_eq!(err.committed, 0);

        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = OooSim::new(OooConfig::default(), &t)
            .with_budget(RunBudget::unlimited().with_deadline(past))
            .try_run()
            .unwrap_err();
        assert_eq!(err.reason, AbortReason::DeadlineExpired);
    }

    #[test]
    fn generous_budget_is_bit_identical_and_unlimited_is_free() {
        let t = chain_trace(16);
        for stepper in [Stepper::Naive, Stepper::EventDriven] {
            let plain = OooSim::new(OooConfig::default(), &t)
                .with_stepper(stepper)
                .run();
            let budgeted = OooSim::new(OooConfig::default(), &t)
                .with_stepper(stepper)
                .with_budget(RunBudget::unlimited().with_max_cycles(u64::MAX))
                .try_run()
                .unwrap();
            assert_eq!(plain.stats, budgeted.stats);
        }
        // An all-None budget is dropped at attach time.
        let sim = OooSim::new(OooConfig::default(), &t).with_budget(RunBudget::unlimited());
        assert!(sim.budget.is_none());
    }

    #[test]
    fn aborted_run_recycles_arena_storage() {
        let t = chain_trace(64);
        let mut arena = SimArena::new();
        let err = OooSim::new_in(OooConfig::default(), &t, &mut arena)
            .with_budget(RunBudget::unlimited().with_max_cycles(5))
            .try_run_into(&mut arena)
            .unwrap_err();
        assert_eq!(err.reason, AbortReason::CycleCapExceeded);
        // The aborted run's (mid-run, dirty) storage went back to the
        // arena; a recycled rerun completes with bit-clean state.
        let full = OooSim::new_in(OooConfig::default(), &t, &mut arena).run_into(&mut arena);
        assert_eq!(full.stats.committed, t.len() as u64);
        assert_eq!(
            full.stats,
            OooSim::new(OooConfig::default(), &t).run().stats
        );
    }
}
