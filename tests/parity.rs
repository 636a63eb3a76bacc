//! Engine parity: the event-driven cycle-skipping engine must produce
//! **bit-identical** `SimStats` to the naive one-cycle-at-a-time oracle
//! across the whole kernel × commit-mode × load-elimination grid —
//! every table and figure of the paper reproduction depends on these
//! counters.
//!
//! Every grid point also runs a third time through a shared
//! [`SimArena`] (one arena per program, reused across every config in
//! the grid — naive oracle included on the pressure grid), asserting
//! that recycled simulator storage is indistinguishable from fresh
//! construction.

use oov::core::{OooSim, SimArena, Stepper};
use oov::isa::{CommitMode, LoadElimMode, OooConfig, ScalarCacheCfg};
use oov::kernels::{Program, Scale};

fn config_grid() -> Vec<(&'static str, OooConfig)> {
    // `with_load_elim` forces late commit (elimination needs precise
    // state), so the reachable commit × elimination grid is:
    vec![
        ("early", OooConfig::default().with_commit(CommitMode::Early)),
        ("late", OooConfig::default().with_commit(CommitMode::Late)),
        (
            "late+sle",
            OooConfig::default().with_load_elim(LoadElimMode::Sle),
        ),
        (
            "late+slevle",
            OooConfig::default().with_load_elim(LoadElimMode::SleVle),
        ),
        (
            "late+slevlesse",
            OooConfig::default().with_load_elim(LoadElimMode::SleVleSse),
        ),
    ]
}

#[test]
fn engine_parity_across_kernel_and_config_grid() {
    std::thread::scope(|s| {
        for p in Program::ALL {
            s.spawn(move || {
                let prog = p.compile(Scale::Smoke);
                let mut arena = SimArena::new();
                for (name, cfg) in config_grid() {
                    let naive = OooSim::new(cfg, &prog.trace)
                        .with_stepper(Stepper::Naive)
                        .run();
                    let event = OooSim::new(cfg, &prog.trace)
                        .with_stepper(Stepper::EventDriven)
                        .run();
                    assert_eq!(
                        naive.stats, event.stats,
                        "{p} [{name}]: SimStats diverged between engines"
                    );
                    assert_eq!(
                        naive.ideal_cycles, event.ideal_cycles,
                        "{p} [{name}]: ideal bound diverged"
                    );
                    let recycled = OooSim::new_in(cfg, &prog.trace, &mut arena)
                        .with_stepper(Stepper::EventDriven)
                        .run_into(&mut arena);
                    assert_eq!(
                        event.stats, recycled.stats,
                        "{p} [{name}]: arena-recycled run diverged from fresh construction"
                    );
                }
            });
        }
    });
}

#[test]
fn engine_parity_under_queue_and_register_pressure() {
    // Off-default structural parameters hit different stall paths
    // (rename stalls, queue stalls, ROB stalls) whose per-cycle counters
    // the event engine replays arithmetically over skipped spans. The
    // later variants change one arena-held geometry each (register
    // files grown then shrunk, ROB, BTB and return stack, scalar cache
    // dropped then rebuilt at another size), so every container of the
    // recycled storage is reset across a geometry change.
    let base = OooConfig::default();
    let variants = [
        ("r9", base.with_phys_v_regs(9)),
        ("q128", base.with_queue_slots(128)),
        ("lat100", base.with_memory_latency(100)),
        ("lat1", base.with_memory_latency(1)),
        ("r64", base.with_phys_v_regs(64)),
        ("r9-after-r64", base.with_phys_v_regs(9)),
        (
            "rob16",
            OooConfig {
                rob_entries: 16,
                ..base
            },
        ),
        (
            "btb16-ras2",
            OooConfig {
                btb_entries: 16,
                ras_depth: 2,
                ..base
            },
        ),
        (
            "no-cache",
            OooConfig {
                scalar_cache: None,
                ..base
            },
        ),
        (
            "cache4k-64",
            OooConfig {
                scalar_cache: Some(ScalarCacheCfg {
                    size_bytes: 4096,
                    line_bytes: 64,
                    ..ScalarCacheCfg::default()
                }),
                ..base
            },
        ),
        (
            "a12-s12",
            OooConfig {
                phys_a_regs: 12,
                phys_s_regs: 12,
                ..base
            },
        ),
    ];
    std::thread::scope(|s| {
        for p in [
            Program::Swm256,
            Program::Trfd,
            Program::Dyfesm,
            Program::Bdna,
        ] {
            let variants = &variants;
            s.spawn(move || {
                let prog = p.compile(Scale::Smoke);
                let mut arena = SimArena::new();
                for (name, cfg) in variants {
                    // The naive oracle runs through the shared arena —
                    // structural parameters change between variants, so
                    // this exercises the arena's resize path too.
                    let naive = OooSim::new_in(*cfg, &prog.trace, &mut arena)
                        .with_stepper(Stepper::Naive)
                        .run_into(&mut arena);
                    let event = OooSim::new(*cfg, &prog.trace).run();
                    assert_eq!(
                        naive.stats, event.stats,
                        "{p} [{name}]: SimStats diverged between engines"
                    );
                }
            });
        }
    });
}

#[test]
fn engine_parity_with_precise_traps_swept_over_fault_points() {
    // A single fault point only exercises one squash depth and one
    // pipeline occupancy at recovery time; sweeping a grid of fault
    // points (start-of-trace, interior points at several fractions,
    // and the final instruction) covers shallow and deep squashes,
    // recovery mid-vector and recovery at the drain. Each (program,
    // fault point) runs on its own scoped thread.
    std::thread::scope(|s| {
        for p in [Program::Flo52, Program::Trfd, Program::Dyfesm] {
            s.spawn(move || {
                let prog = p.compile(Scale::Smoke);
                let len = prog.trace.len();
                let mut fault_points: Vec<usize> = [
                    0,
                    1,
                    len / 8,
                    len / 3,
                    len / 2,
                    2 * len / 3,
                    7 * len / 8,
                    len - 1,
                ]
                .to_vec();
                fault_points.sort_unstable();
                fault_points.dedup();
                let cfg = OooConfig::default().with_commit(CommitMode::Late);
                let mut arena = SimArena::new();
                for fault_at in fault_points {
                    let naive = OooSim::new(cfg, &prog.trace)
                        .with_stepper(Stepper::Naive)
                        .with_fault_at(fault_at)
                        .run();
                    let event = OooSim::new_in(cfg, &prog.trace, &mut arena)
                        .with_fault_at(fault_at)
                        .run_into(&mut arena);
                    assert_eq!(
                        naive.stats, event.stats,
                        "{p}: trap recovery diverged at fault point {fault_at}/{len}"
                    );
                }
            });
        }
    });
}
