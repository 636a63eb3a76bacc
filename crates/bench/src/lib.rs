//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation, and hosts the run helpers shared with
//! `oov-serve`.
//!
//! Each `figure*` / `table*` function in [`experiments`] renders one
//! exhibit from live simulation, and [`experiments::EXHIBITS`] names
//! them all. The `all` binary prints every exhibit, or the ones named
//! on its command line, to stdout. Run with `--release`:
//!
//! ```text
//! cargo run -p oov-bench --release --bin all
//! cargo run -p oov-bench --release --bin all -- figure5 table1
//! ```
//!
//! The crate's other two binaries are `simulate` (one ad-hoc run of any
//! program on either machine) and `bench_trend` (the engine-bench
//! regression gate).
//!
//! The compiled [`Suite`], the [`ref_run`]/[`ooo_run`]/[`machine_run`]
//! helpers and the JSON bench artifacts (via [`oov_proto::Json`]) live
//! here rather than in the binaries so the long-lived simulation
//! server reuses exactly the code paths the experiments are validated
//! against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use oov_core::{OooSim, RunAborted, RunBudget, SimArena, Stepper};
use oov_isa::{CommitMode, LoadElimMode, MachineConfig, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_ref::RefSim;
use oov_stats::SimStats;
use oov_vcc::CompiledProgram;

/// The compiled benchmark suite, built once and shared by experiments.
pub struct Suite {
    scale: Scale,
    programs: Vec<(Program, CompiledProgram)>,
}

impl Suite {
    /// Compiles all ten programs at the given scale, one worker thread
    /// per program. Sweeps, serve misses and every exhibit simulate the
    /// compiled trace alone; only functional checks seed memory, on
    /// first use of `CompiledProgram::base_image`.
    #[must_use]
    pub fn compile(scale: Scale) -> Self {
        let programs = std::thread::scope(|s| {
            let handles: Vec<_> = Program::ALL
                .iter()
                .map(|&p| s.spawn(move || (p, p.compile(scale))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("suite compile worker panicked"))
                .collect()
        });
        Suite { scale, programs }
    }

    /// Iterates `(program, compiled)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Program, &CompiledProgram)> {
        self.programs.iter().map(|(p, c)| (*p, c))
    }

    /// The compiled form of one program.
    #[must_use]
    pub fn get(&self, program: Program) -> &CompiledProgram {
        self.programs
            .iter()
            .find(|(p, _)| *p == program)
            .map(|(_, c)| c)
            .expect("Suite::compile builds every program")
    }

    /// Runs `f` over every program concurrently (one scoped thread per
    /// program) and returns the results in suite order. The experiment
    /// functions use this so each figure's kernel × config grid
    /// simulates in parallel.
    pub fn par_map<T, F>(&self, f: F) -> Vec<(Program, T)>
    where
        T: Send,
        F: Fn(Program, &CompiledProgram) -> T + Sync,
    {
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = self
                .programs
                .iter()
                .map(|(p, c)| s.spawn(move || (*p, f(*p, c))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment worker panicked"))
                .collect()
        })
    }
}

/// Result of one simulation request — what the wire protocol carries
/// back and the experiment helpers consume.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Aggregate counters.
    pub stats: SimStats,
    /// The trace's IDEAL lower bound (paper §4.2).
    pub ideal_cycles: u64,
    /// Precise traps taken (OOOVA late-commit fault injection only).
    pub faults_taken: u64,
}

/// The OOOVA point a command line names, checked before anything
/// compiles or connects: the `simulate` and `client` binaries both
/// build their machine here. `commit: None` means early commit, or
/// late when load elimination is on.
///
/// # Errors
///
/// [`OooConfig::validate`]'s message for a point the simulator would
/// reject, an explicit early commit with load elimination included.
pub fn ooo_config_from_flags(
    regs: usize,
    queues: usize,
    latency: u32,
    commit: Option<CommitMode>,
    elim: LoadElimMode,
) -> Result<OooConfig, String> {
    let mut cfg = OooConfig::default()
        .with_phys_v_regs(regs)
        .with_queue_slots(queues)
        .with_memory_latency(latency)
        .with_load_elim(elim);
    if let Some(mode) = commit {
        cfg = cfg.with_commit(mode);
    }
    cfg.validate().map(|()| cfg)
}

/// Runs the reference (in-order) machine over a compiled program.
#[must_use]
pub fn ref_run(prog: &CompiledProgram, cfg: RefConfig) -> SimStats {
    RefSim::new(cfg).run(&prog.trace)
}

/// Runs the OOOVA over a compiled program with the default
/// (event-driven) stepper.
#[must_use]
pub fn ooo_run(prog: &CompiledProgram, cfg: OooConfig) -> SimStats {
    OooSim::new(cfg, &prog.trace).run().stats
}

/// As [`ooo_run`], but through a reusable [`SimArena`]: sweep loops
/// hold one arena and every iteration after the first reuses its
/// allocation footprint. Bit-identical to [`ooo_run`] (the parity grid
/// asserts it).
#[must_use]
pub fn ooo_run_in(prog: &CompiledProgram, cfg: OooConfig, arena: &mut SimArena) -> SimStats {
    OooSim::new_in(cfg, &prog.trace, arena)
        .run_into(arena)
        .stats
}

/// Runs either machine over a compiled program — the single entry
/// point `oov-serve` shards execute, so a served result is produced by
/// exactly the same code as a direct in-process run.
///
/// `stepper` and `fault_at` only apply to the OOOVA; the reference
/// machine is analytic/event-driven by construction and models no
/// precise traps, so both are ignored there. `fault_at` is likewise
/// ignored under the early-commit model (precise traps require late
/// commit). [`RunOutcome::faults_taken`] is the simulator's own
/// counter, so it reports what actually happened.
#[must_use]
pub fn machine_run(
    prog: &CompiledProgram,
    cfg: &MachineConfig,
    stepper: Stepper,
    fault_at: Option<usize>,
) -> RunOutcome {
    machine_run_in(prog, cfg, stepper, fault_at, &mut SimArena::new())
}

/// As [`machine_run`], but OOOVA runs go through a caller-held
/// [`SimArena`] — the serve shards each keep one, so a long-lived
/// worker reuses a single allocation footprint across every request it
/// executes. The reference machine ignores the arena.
#[must_use]
pub fn machine_run_in(
    prog: &CompiledProgram,
    cfg: &MachineConfig,
    stepper: Stepper,
    fault_at: Option<usize>,
    arena: &mut SimArena,
) -> RunOutcome {
    machine_run_budgeted(prog, cfg, stepper, fault_at, arena, RunBudget::unlimited())
        .unwrap_or_else(|a| unreachable!("unlimited budget aborted: {a}"))
}

/// As [`machine_run_in`], with a cooperative [`RunBudget`]: the OOOVA
/// engine polls the budget's cycle/deadline/cancel limits and
/// aborts with `Err(RunAborted)` when one fires — the serve path for
/// mid-simulation deadline expiry and shutdown cancellation. The
/// arena gets its storage back even on an abort. The reference
/// machine's analytic run is effectively instantaneous and ignores the
/// budget, like it ignores `stepper` and `fault_at`.
pub fn machine_run_budgeted(
    prog: &CompiledProgram,
    cfg: &MachineConfig,
    stepper: Stepper,
    fault_at: Option<usize>,
    arena: &mut SimArena,
    budget: RunBudget,
) -> Result<RunOutcome, RunAborted> {
    match cfg {
        MachineConfig::Ref(c) => Ok(RunOutcome {
            stats: ref_run(prog, *c),
            ideal_cycles: prog.trace.ideal_cycles(),
            faults_taken: 0,
        }),
        MachineConfig::Ooo(c) => {
            let mut sim = OooSim::new_in(*c, &prog.trace, arena)
                .with_stepper(stepper)
                .with_budget(budget);
            // Fault injection requires the late-commit model
            // (`with_fault_at` asserts it); anywhere else the fault
            // request is ignored, per this function's contract.
            if let Some(idx) = fault_at {
                if c.commit == oov_isa::CommitMode::Late {
                    sim = sim.with_fault_at(idx);
                }
            }
            let r = sim.try_run_into(arena)?;
            Ok(RunOutcome {
                stats: r.stats,
                ideal_cycles: r.ideal_cycles,
                faults_taken: r.faults_taken,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_run_matches_direct_simulation() {
        let prog = Program::Trfd.compile(Scale::Smoke);
        let cfg = OooConfig::default();
        let direct = OooSim::new(cfg, &prog.trace).run();
        let via = machine_run(&prog, &MachineConfig::Ooo(cfg), Stepper::EventDriven, None);
        assert_eq!(via.stats, direct.stats);
        assert_eq!(via.ideal_cycles, direct.ideal_cycles);
        assert_eq!(via.faults_taken, 0);

        let rcfg = RefConfig::default();
        let direct_ref = RefSim::new(rcfg).run(&prog.trace);
        let via_ref = machine_run(&prog, &MachineConfig::Ref(rcfg), Stepper::EventDriven, None);
        assert_eq!(via_ref.stats, direct_ref);
    }

    #[test]
    fn suite_get_returns_each_program() {
        let suite = Suite::compile(Scale::Smoke);
        for (p, c) in suite.iter() {
            assert_eq!(suite.get(p).trace.len(), c.trace.len());
        }
    }

    #[test]
    fn flags_resolve_commit_and_reject_panicking_points() {
        let point = |commit, elim| ooo_config_from_flags(16, 16, 50, commit, elim);
        assert_eq!(point(None, LoadElimMode::Off), Ok(OooConfig::default()));
        let elim = point(None, LoadElimMode::Sle).unwrap();
        assert_eq!(
            (elim.commit, elim.load_elim),
            (CommitMode::Late, LoadElimMode::Sle)
        );
        let late = point(Some(CommitMode::Late), LoadElimMode::Off).unwrap();
        assert_eq!(late.commit, CommitMode::Late);
        assert!(point(Some(CommitMode::Early), LoadElimMode::SleVle).is_err());
        assert!(ooo_config_from_flags(8, 16, 50, None, LoadElimMode::Off).is_err());
        assert!(ooo_config_from_flags(9, 0, 50, None, LoadElimMode::Off).is_err());
        assert!(ooo_config_from_flags(9, 1, 50, None, LoadElimMode::Off).is_ok());
        assert!(ooo_config_from_flags(65_535, 1, 50, None, LoadElimMode::Off).is_ok());
        assert!(ooo_config_from_flags(65_545, 1, 50, None, LoadElimMode::Off).is_err());
    }
}
