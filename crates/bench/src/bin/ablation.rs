//! Ablation studies of the modelled mechanisms — reference-machine
//! chaining, register-file banking and the scalar cache; OOOVA queue,
//! ROB and cache sizing; compiler list scheduling — showing what each
//! contributes to the cycle counts.
//!
//! ```text
//! cargo run -p oov-bench --release --bin ablation
//! ```

use oov_core::OooSim;
use oov_isa::{OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_ref::RefSim;
use oov_stats::Table;
use oov_vcc::{compile_with, CompileOptions};

fn main() {
    let programs = [
        Program::Swm256,
        Program::Flo52,
        Program::Trfd,
        Program::Bdna,
    ];

    println!("== Reference-machine mechanisms (cycles, latency 50) ==");
    let mut t = Table::new(&[
        "program",
        "baseline",
        "no FU chaining",
        "+load chaining",
        "unbanked RF",
        "no scalar cache",
    ]);
    for p in programs {
        let prog = p.compile(Scale::Paper);
        let run = |cfg: RefConfig| RefSim::new(cfg).run(&prog.trace).cycles.to_string();
        t.row_owned(vec![
            p.name().into(),
            run(RefConfig::default()),
            run(RefConfig {
                chain_fu: false,
                ..RefConfig::default()
            }),
            run(RefConfig {
                chain_loads: true,
                ..RefConfig::default()
            }),
            run(RefConfig {
                banked_ports: false,
                ..RefConfig::default()
            }),
            run(RefConfig {
                scalar_cache: None,
                ..RefConfig::default()
            }),
        ]);
    }
    println!("{t}");

    println!("== OOOVA structures (cycles, latency 50, 16 registers) ==");
    let mut t = Table::new(&[
        "program",
        "baseline",
        "queues=4",
        "queues=128",
        "no scalar cache",
        "rob=16",
    ]);
    for p in programs {
        let prog = p.compile(Scale::Paper);
        let run = |cfg: OooConfig| OooSim::new(cfg, &prog.trace).run().stats.cycles.to_string();
        t.row_owned(vec![
            p.name().into(),
            run(OooConfig::default()),
            run(OooConfig::default().with_queue_slots(4)),
            run(OooConfig::default().with_queue_slots(128)),
            run(OooConfig {
                scalar_cache: None,
                ..OooConfig::default()
            }),
            run(OooConfig {
                rob_entries: 16,
                ..OooConfig::default()
            }),
        ]);
    }
    println!("{t}");

    println!("== Compiler scheduling (REF cycles with/without list scheduling) ==");
    let mut t = Table::new(&["program", "scheduled", "unscheduled", "penalty"]);
    for p in programs {
        let kernel = p.kernel(Scale::Paper);
        let sched = compile_with(&kernel, &CompileOptions::default());
        let unsched = compile_with(
            &kernel,
            &CompileOptions {
                schedule: false,
                ..CompileOptions::default()
            },
        );
        let a = RefSim::new(RefConfig::default()).run(&sched.trace).cycles;
        let b = RefSim::new(RefConfig::default()).run(&unsched.trace).cycles;
        t.row_owned(vec![
            p.name().into(),
            a.to_string(),
            b.to_string(),
            format!("{:+.1}%", 100.0 * (b as f64 / a as f64 - 1.0)),
        ]);
    }
    println!("{t}");
}
