//! Property-style tests over randomly generated kernels: the whole
//! stack (compiler → trace → both simulators → load elimination) must
//! uphold its invariants on arbitrary well-formed programs.
//!
//! The container ships no external crates, so instead of `proptest`
//! these drive [`oov::kernels::random_kernel`] over a fixed span of
//! seeds — fully deterministic, and a failing seed is its own
//! reproducer.

use oov::core::OooSim;
use oov::exec::{golden_mismatch, Checker, Machine};
use oov::isa::{CommitMode, LoadElimMode, OooConfig, RefConfig};
use oov::kernels::random_kernel;
use oov::refsim::RefSim;
use oov::vcc::compile;

/// Sixteen fixed seeds spread across the 0..10_000 space the old
/// proptest setup sampled from — deterministic, but not clustered at
/// the bottom of the generator's range.
const SEEDS: [u64; 16] = [
    0, 1, 2, 3, 5, 8, 42, 137, 777, 1234, 2718, 3141, 4242, 5555, 7919, 9973,
];

/// Register allocation + scheduling + lowering preserve program
/// semantics on arbitrary kernels.
#[test]
fn compilation_preserves_semantics() {
    for seed in SEEDS {
        let kernel = random_kernel(seed);
        let prog = compile(&kernel);
        assert_eq!(golden_mismatch(&kernel, &prog), None, "seed {seed}");
    }
}

/// Both simulators complete every instruction, account every cycle, and
/// the OOOVA never loses to its own IDEAL bound.
#[test]
fn simulators_uphold_accounting_invariants() {
    for seed in SEEDS {
        let prog = compile(&random_kernel(seed));
        let r = RefSim::new(RefConfig::default()).run(&prog.trace);
        assert_eq!(r.committed, prog.trace.len() as u64, "seed {seed}");
        assert_eq!(r.breakdown.total(), r.cycles, "seed {seed}");

        let o = OooSim::new(OooConfig::default(), &prog.trace).run();
        assert_eq!(o.stats.committed, prog.trace.len() as u64, "seed {seed}");
        assert_eq!(o.stats.breakdown.total(), o.stats.cycles, "seed {seed}");
        // The scalar cache can remove bus work the IDEAL bound counts.
        assert!(
            o.stats.cycles + o.stats.mem_requests >= o.ideal_cycles,
            "seed {seed}: below ideal"
        );
    }
}

/// Dynamic load elimination never changes architectural results: the
/// lock-step value checker panics on any bad elimination, and traffic
/// never increases.
#[test]
fn load_elimination_is_sound() {
    for seed in SEEDS {
        let prog = compile(&random_kernel(seed));
        let base = OooSim::new(
            OooConfig::default().with_commit(CommitMode::Late),
            &prog.trace,
        )
        .run()
        .stats;
        let vle = OooSim::new(
            OooConfig::default().with_load_elim(LoadElimMode::SleVle),
            &prog.trace,
        )
        .with_probe(Box::new(Checker::new(
            &prog.trace,
            Machine::from_base(prog.base_image()),
        )))
        .run()
        .stats;
        assert!(vle.mem_requests <= base.mem_requests, "seed {seed}");
        assert_eq!(vle.committed, base.committed, "seed {seed}");
    }
}

/// Precise-trap recovery commits every instruction exactly once.
#[test]
fn precise_traps_never_lose_instructions() {
    for seed in SEEDS {
        let prog = compile(&random_kernel(seed));
        for frac in [2usize, 5] {
            let fault_at = prog.trace.len() / frac;
            let cfg = OooConfig::default().with_commit(CommitMode::Late);
            let r = OooSim::new(cfg, &prog.trace).with_fault_at(fault_at).run();
            assert_eq!(
                r.stats.committed,
                prog.trace.len() as u64,
                "seed {seed}, fault at 1/{frac}"
            );
        }
    }
}

/// The trace executor is deterministic: two runs leave identical memory
/// and registers.
#[test]
fn execution_is_deterministic() {
    for seed in SEEDS {
        let prog = compile(&random_kernel(seed));
        let run = || {
            let mut m = Machine::new();
            m.memory_mut().seed(&prog.mem_init);
            m.run(&prog.trace);
            m
        };
        let a = run();
        let b = run();
        assert_eq!(a.register_digest(), b.register_digest(), "seed {seed}");
        assert!(a.memory().same_contents(b.memory()), "seed {seed}");
    }
}

/// Range disambiguation is conservative: any two accesses whose
/// concrete element addresses collide also have overlapping ranges.
#[test]
fn ranges_cover_element_addresses() {
    for seed in SEEDS {
        let prog = compile(&random_kernel(seed));
        let mut m = Machine::new();
        m.memory_mut().seed(&prog.mem_init);
        let insts: Vec<_> = prog.trace.iter().cloned().collect();
        for inst in &insts {
            if let Some(mem) = inst.mem {
                for a in m.element_addresses(inst) {
                    assert!(
                        a >= mem.range_lo && a + 7 <= mem.range_hi + 7,
                        "seed {seed}: element {:#x} outside range [{:#x},{:#x}]",
                        a,
                        mem.range_lo,
                        mem.range_hi
                    );
                }
            }
            m.execute(inst);
        }
    }
}
