//! Observer differential floor: seeded random kernels, each on a seeded
//! random machine, must give bit-identical `SimStats` five ways —
//! the naive oracle, the event engine, the event engine on storage a
//! [`SimArena`] recycled from the previous point's (other) geometry,
//! the event engine with a [`TraceSink`] attached, and the event engine
//! with the lock-step load-elimination [`Checker`] attached (which also
//! panics on any incorrect elimination).
//!
//! The fixed-kernel parity grid (`tests/parity.rs`) cannot reach most
//! of this space: random register files, queue depths, ROB sizes and
//! latencies put the stall and wake paths under shapes no paper
//! configuration hits, and every observer must stay a pure
//! observation on all of them.

use oov::core::{OooSim, RunResult, SimArena, Stepper, TraceSink};
use oov::exec::{Checker, Machine};
use oov::isa::{CommitMode, LoadElimMode, OooConfig};
use oov::kernels::random_kernel;
use oov::vcc::compile;

/// SplitMix64: the config generator's own stream, independent of the
/// kernel generator's.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

const ELIM_MODES: [LoadElimMode; 4] = [
    LoadElimMode::Off,
    LoadElimMode::Sle,
    LoadElimMode::SleVle,
    LoadElimMode::SleVleSse,
];

/// A random machine point: physical V registers 9–64, queue slots
/// 8–128, ROB 16–128, memory latency 1–150, either commit mode, any
/// elimination mode (which forces late commit), scalar cache on or off.
fn random_config(rng: &mut Rng) -> OooConfig {
    let commit = if rng.coin() {
        CommitMode::Late
    } else {
        CommitMode::Early
    };
    let elim = ELIM_MODES[rng.range(0, 3) as usize];
    let cfg = OooConfig {
        rob_entries: rng.range(16, 128) as usize,
        scalar_cache: if rng.coin() {
            OooConfig::default().scalar_cache
        } else {
            None
        },
        ..OooConfig::default()
    };
    cfg.with_phys_v_regs(rng.range(9, 64) as usize)
        .with_queue_slots(rng.range(8, 128) as usize)
        .with_memory_latency(rng.range(1, 150) as u32)
        .with_commit(commit)
        .with_load_elim(elim)
}

#[test]
fn observers_and_engines_agree_on_random_kernels_and_machines() {
    let mut arena = SimArena::new();
    for seed in 0..12u64 {
        let prog = compile(&random_kernel(seed));
        let mut rng = Rng(seed ^ 0xD1FF_E4E7);
        let cfg = random_config(&mut rng);
        // A precise trap somewhere in the trace, on half the late-commit
        // points.
        let fault = (cfg.commit == CommitMode::Late && rng.coin())
            .then(|| rng.range(0, prog.trace.len() as u64 - 1) as usize);
        let sim = || {
            let s = OooSim::new(cfg, &prog.trace);
            match fault {
                Some(i) => s.with_fault_at(i),
                None => s,
            }
        };
        let point = format!("seed {seed} {cfg:?} fault {fault:?}");

        let naive = sim().with_stepper(Stepper::Naive).run();
        let event = sim().run();
        let recycled = {
            let s = OooSim::new_in(cfg, &prog.trace, &mut arena);
            match fault {
                Some(i) => s.with_fault_at(i),
                None => s,
            }
        }
        .run_into(&mut arena);
        let traced = sim().with_trace(TraceSink::new()).run();
        let checked = sim()
            .with_probe(Box::new(Checker::new(
                &prog.trace,
                Machine::from_base(prog.base_image()),
            )))
            .run();

        let runs: [(&str, &RunResult); 4] = [
            ("event", &event),
            ("recycled", &recycled),
            ("traced", &traced),
            ("checked", &checked),
        ];
        for (name, r) in runs {
            assert_eq!(naive.stats, r.stats, "{point}: naive vs {name}");
            assert_eq!(naive.faults_taken, r.faults_taken, "{point}: {name}");
        }
        assert_eq!(
            naive.stats.committed,
            prog.trace.len() as u64,
            "{point}: lost instructions"
        );
        let sink = traced.trace.expect("the sink comes back");
        assert_eq!(sink.committed(), traced.stats.committed, "{point}");
    }
}
