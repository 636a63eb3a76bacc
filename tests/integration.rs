//! Cross-crate integration tests: full pipeline (kernel → compile →
//! simulate) invariants over the whole benchmark suite.

use oov::core::OooSim;
use oov::exec::{Checker, Machine};
use oov::isa::{CommitMode, LoadElimMode, OooConfig, RefConfig};
use oov::kernels::{Program, Scale};
use oov::refsim::RefSim;

fn ref_cycles(prog: &oov::vcc::CompiledProgram, lat: u32) -> u64 {
    RefSim::new(RefConfig::default().with_memory_latency(lat))
        .run(&prog.trace)
        .cycles
}

#[test]
fn ooova_beats_reference_on_every_program() {
    for p in Program::ALL {
        let prog = p.compile(Scale::Smoke);
        let r = ref_cycles(&prog, 50);
        let o = OooSim::new(OooConfig::default(), &prog.trace).run();
        assert!(
            o.stats.cycles < r,
            "{p}: OOOVA {} not faster than REF {r}",
            o.stats.cycles
        );
        assert_eq!(
            o.stats.committed,
            prog.trace.len() as u64,
            "{p}: lost instructions"
        );
    }
}

#[test]
fn ideal_bound_holds_for_all_programs_and_configs() {
    for p in Program::ALL {
        let prog = p.compile(Scale::Smoke);
        for regs in [9usize, 16, 64] {
            let r = OooSim::new(OooConfig::default().with_phys_v_regs(regs), &prog.trace).run();
            // The IDEAL bound ignores the scalar cache (which removes bus
            // work), so allow it only that much slack.
            assert!(
                r.stats.cycles + r.stats.mem_requests >= r.ideal_cycles,
                "{p}@{regs}: {} cycles below ideal {}",
                r.stats.cycles,
                r.ideal_cycles
            );
        }
    }
}

#[test]
fn breakdown_accounts_every_cycle() {
    for p in [Program::Swm256, Program::Trfd, Program::Bdna] {
        let prog = p.compile(Scale::Smoke);
        let r = RefSim::new(RefConfig::default()).run(&prog.trace);
        assert_eq!(r.breakdown.total(), r.cycles, "{p}: REF breakdown");
        let o = OooSim::new(OooConfig::default(), &prog.trace).run();
        assert_eq!(
            o.stats.breakdown.total(),
            o.stats.cycles,
            "{p}: OOO breakdown"
        );
    }
}

#[test]
fn more_registers_never_hurt() {
    for p in Program::ALL {
        let prog = p.compile(Scale::Smoke);
        let mut prev: Option<u64> = None;
        for regs in [9usize, 12, 16, 32, 64] {
            let c = OooSim::new(OooConfig::default().with_phys_v_regs(regs), &prog.trace)
                .run()
                .stats
                .cycles;
            if let Some(prev) = prev {
                assert!(
                    c <= prev + prev / 50,
                    "{p}: {regs} registers slower ({c} vs {prev})"
                );
            }
            prev = Some(c);
        }
    }
}

#[test]
fn deeper_queues_never_hurt_much() {
    for p in [Program::Flo52, Program::Dyfesm] {
        let prog = p.compile(Scale::Smoke);
        let q16 = OooSim::new(OooConfig::default(), &prog.trace)
            .run()
            .stats
            .cycles;
        let q128 = OooSim::new(OooConfig::default().with_queue_slots(128), &prog.trace)
            .run()
            .stats
            .cycles;
        assert!(q128 <= q16 + q16 / 20, "{p}: q128 {q128} vs q16 {q16}");
    }
}

#[test]
fn late_commit_costs_cycles_but_never_correctness() {
    for p in Program::ALL {
        let prog = p.compile(Scale::Smoke);
        let early = OooSim::new(OooConfig::default(), &prog.trace).run().stats;
        let late = OooSim::new(
            OooConfig::default().with_commit(CommitMode::Late),
            &prog.trace,
        )
        .run()
        .stats;
        assert!(late.cycles >= early.cycles, "{p}: late faster than early?");
        assert_eq!(late.committed, early.committed);
    }
}

#[test]
fn load_elimination_reduces_traffic_and_is_value_correct() {
    // The value checker runs the architectural executor in lock-step and
    // asserts every eliminated load would have fetched exactly the bytes
    // in the matched register.
    for p in [Program::Trfd, Program::Dyfesm, Program::Bdna] {
        let prog = p.compile(Scale::Smoke);
        let base = OooSim::new(
            OooConfig::default().with_commit(CommitMode::Late),
            &prog.trace,
        )
        .run()
        .stats;
        let vle_cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
        let vle = OooSim::new(vle_cfg, &prog.trace)
            .with_probe(Box::new(Checker::new(
                &prog.trace,
                Machine::from_base(prog.base_image()),
            )))
            .run()
            .stats;
        assert!(
            vle.mem_requests <= base.mem_requests,
            "{p}: VLE increased traffic"
        );
        assert!(vle.cycles <= base.cycles, "{p}: VLE slowed execution");
        assert!(
            vle.eliminated_scalar_loads + vle.eliminated_vector_loads > 0,
            "{p}: nothing eliminated"
        );
    }
}

#[test]
fn sle_subset_of_slevle() {
    for p in [Program::Trfd, Program::Dyfesm] {
        let prog = p.compile(Scale::Smoke);
        let sle = OooSim::new(
            OooConfig::default().with_load_elim(LoadElimMode::Sle),
            &prog.trace,
        )
        .run()
        .stats;
        let both = OooSim::new(
            OooConfig::default().with_load_elim(LoadElimMode::SleVle),
            &prog.trace,
        )
        .run()
        .stats;
        assert_eq!(
            sle.eliminated_vector_loads, 0,
            "{p}: SLE must not touch vectors"
        );
        assert!(both.eliminated_vector_loads > 0, "{p}: VLE found nothing");
        assert!(both.cycles <= sle.cycles, "{p}: adding VLE slowed things");
    }
}

#[test]
fn precise_traps_recover_on_real_programs() {
    for p in [Program::Flo52, Program::Trfd] {
        let prog = p.compile(Scale::Smoke);
        let n = prog.trace.len();
        for frac in [4usize, 2] {
            let cfg = OooConfig::default().with_commit(CommitMode::Late);
            let sim = OooSim::new(cfg, &prog.trace).with_fault_at(n / frac);
            let r = sim.run();
            assert_eq!(
                r.stats.committed, n as u64,
                "{p}: fault at n/{frac} lost work"
            );
        }
    }
}

#[test]
fn latency_tolerance_shape() {
    // Paper §4.3: OOOVA degrades far less than REF as latency grows.
    for p in [Program::Flo52, Program::Dyfesm] {
        let prog = p.compile(Scale::Smoke);
        let r_grow = ref_cycles(&prog, 100) as f64 / ref_cycles(&prog, 1) as f64;
        let o1 = OooSim::new(OooConfig::default().with_memory_latency(1), &prog.trace)
            .run()
            .stats
            .cycles as f64;
        let o100 = OooSim::new(OooConfig::default().with_memory_latency(100), &prog.trace)
            .run()
            .stats
            .cycles as f64;
        let o_grow = o100 / o1;
        assert!(
            o_grow < r_grow,
            "{p}: OOOVA degraded more ({o_grow:.2}) than REF ({r_grow:.2})"
        );
    }
}

#[test]
fn spill_marked_traffic_flows_through_simulators() {
    let prog = Program::Bdna.compile(Scale::Smoke);
    let r = RefSim::new(RefConfig::default()).run(&prog.trace);
    assert!(r.spill_requests > 0, "bdna spills must reach the bus");
    let o = OooSim::new(OooConfig::default(), &prog.trace).run().stats;
    assert!(o.spill_requests > 0);
}
