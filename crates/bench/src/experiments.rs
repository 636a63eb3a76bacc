//! One function per paper exhibit, plus two studies beyond the paper.
//!
//! Every function takes the compiled [`Suite`] and returns the rendered
//! exhibit as text (tables and ASCII charts). [`EXHIBITS`] names them
//! all; the `all` binary prints every entry, or the ones named on its
//! command line (`all figure5 stage_occupancy`), in table order.

use oov_core::SimArena;
use oov_isa::{CommitMode, LatencyModel, LoadElimMode, OooConfig, RefConfig};
use oov_kernels::Program;
use oov_stats::{BarChart, SimStats, Table};
use oov_vcc::{compile_with, CompileOptions};

use crate::{ooo_run, ooo_run_in, Suite};

/// An exhibit's key (its name on the `all` command line), its heading
/// and the function that renders it.
pub type Exhibit = (&'static str, &'static str, fn(&Suite) -> String);

/// Every exhibit: the paper's tables and figures in evaluation order,
/// the per-stage occupancy report, then the ablation and extension
/// studies.
pub const EXHIBITS: [Exhibit; 16] = [
    ("table1", "Table 1 — machine parameters", |_| table1()),
    ("table2", "Table 2 — operation counts", table2),
    (
        "figure3",
        "Figure 3 — REF cycle breakdown vs latency",
        figure3,
    ),
    ("figure4", "Figure 4 — REF memory-port idle", figure4),
    ("figure5", "Figure 5 — OOOVA speedup vs registers", figure5),
    ("figure6", "Figure 6 — port idle REF vs OOOVA", figure6),
    ("figure7", "Figure 7 — breakdown REF vs OOOVA", figure7),
    ("figure8", "Figure 8 — latency tolerance", figure8),
    ("figure9", "Figure 9 — early vs late commit", figure9),
    ("table3", "Table 3 — spill traffic", table3),
    ("figure11", "Figure 11 — SLE speedup", figure11),
    ("figure12", "Figure 12 — SLE+VLE speedup", figure12),
    ("figure13", "Figure 13 — traffic reduction", figure13),
    (
        "stage_occupancy",
        "Stage occupancy — per-stage progress",
        stage_occupancy,
    ),
    ("ablation", "Ablation — mechanism contributions", ablation),
    (
        "extension",
        "Extension — silent-store elimination",
        extension,
    ),
];

/// Memory latencies swept by Figures 3 and 4.
pub const REF_LATENCIES: [u32; 4] = [1, 20, 70, 100];
/// Physical-register sweep of Figures 5 and 9 (the paper plots 9–64;
/// 12 appears in the text discussion).
pub const REG_SWEEP: [usize; 5] = [9, 12, 16, 32, 64];
/// Default memory latency (paper §2.2).
pub const DEFAULT_LATENCY: u32 = 50;

fn ref_run(prog: &oov_vcc::CompiledProgram, latency: u32) -> SimStats {
    crate::ref_run(prog, RefConfig::default().with_memory_latency(latency))
}

fn base_cfg() -> OooConfig {
    OooConfig::default().with_memory_latency(DEFAULT_LATENCY)
}

/// Table 1: functional-unit latencies of both machines.
#[must_use]
pub fn table1() -> String {
    let r = LatencyModel::reference();
    let o = LatencyModel::ooo();
    let mut t = Table::new(&["parameter", "REF", "OOOVA"]);
    let row = |t: &mut Table, name: &str, a: u32, b: u32| {
        t.row_owned(vec![name.into(), a.to_string(), b.to_string()]);
    };
    row(&mut t, "read crossbar", r.read_xbar, o.read_xbar);
    row(&mut t, "write crossbar", r.write_xbar, o.write_xbar);
    row(&mut t, "vector startup (*)", r.vstartup, o.vstartup);
    row(
        &mut t,
        "scalar add/logic/shift",
        r.scalar_simple,
        o.scalar_simple,
    );
    row(
        &mut t,
        "vector add/logic/shift",
        r.vector_simple,
        o.vector_simple,
    );
    row(&mut t, "multiply", r.mul, o.mul);
    row(&mut t, "divide / sqrt", r.div_sqrt, o.div_sqrt);
    row(&mut t, "branch", r.branch, o.branch);
    row(
        &mut t,
        "mispredict penalty",
        r.mispredict_penalty,
        o.mispredict_penalty,
    );
    row(&mut t, "memory (default)", r.memory, o.memory);
    format!(
        "Table 1: functional unit latencies (cycles)\n{t}\
         (*) 0 in OOOVA, 1 in REF — as in the paper's footnote.\n"
    )
}

/// Table 2: per-program operation counts.
#[must_use]
pub fn table2(suite: &Suite) -> String {
    let mut t = Table::new(&[
        "program", "suite", "scalar", "vector", "vec ops", "%vect", "avg VL",
    ]);
    for (p, prog) in suite.iter() {
        let s = prog.trace.stats();
        t.row_owned(vec![
            p.name().into(),
            p.suite().into(),
            s.scalar_insts.to_string(),
            s.vector_insts.to_string(),
            s.vector_ops.to_string(),
            format!("{:.1}", s.vectorization_pct()),
            format!("{:.0}", s.avg_vl()),
        ]);
    }
    format!("Table 2: basic operation counts (dynamic, this reproduction's scale)\n{t}")
}

/// Figure 3: REF execution-state breakdown across memory latencies.
#[must_use]
pub fn figure3(suite: &Suite) -> String {
    let mut out = String::from(
        "Figure 3: reference-architecture cycle breakdown by (FU2,FU1,MEM) occupancy\n",
    );
    let per_program = suite.par_map(|_, prog| {
        REF_LATENCIES
            .iter()
            .map(|&l| ref_run(prog, l))
            .collect::<Vec<SimStats>>()
    });
    for (p, runs) in per_program {
        out.push_str(&format!("\n{}:\n", p.name()));
        let mut t = Table::new(&["state", "lat 1", "lat 20", "lat 70", "lat 100"]);
        for state in oov_stats::UnitState::ALL {
            t.row_owned(
                std::iter::once(state.to_string())
                    .chain(runs.iter().map(|r| r.breakdown.get(state).to_string()))
                    .collect(),
            );
        }
        t.row_owned(
            std::iter::once("total".to_string())
                .chain(runs.iter().map(|r| r.cycles.to_string()))
                .collect(),
        );
        out.push_str(&t.to_string());
    }
    out
}

/// Figure 4: percentage of cycles the memory port is idle on REF.
#[must_use]
pub fn figure4(suite: &Suite) -> String {
    let mut t = Table::new(&["program", "lat 1", "lat 20", "lat 70", "lat 100"]);
    for (p, cells) in suite.par_map(|_, prog| {
        REF_LATENCIES
            .iter()
            .map(|&l| format!("{:.1}%", ref_run(prog, l).mem_port_idle_pct()))
            .collect::<Vec<String>>()
    }) {
        t.row_owned(std::iter::once(p.name().to_string()).chain(cells).collect());
    }
    format!("Figure 4: memory-port idle cycles on the reference architecture\n{t}")
}

/// Figure 5: OOOVA speedup over REF vs physical vector registers, for
/// 16- and 128-entry queues, with the IDEAL bound.
#[must_use]
pub fn figure5(suite: &Suite) -> String {
    let mut header = vec!["program".to_string()];
    for r in REG_SWEEP {
        header.push(format!("q16 r{r}"));
    }
    for r in REG_SWEEP {
        header.push(format!("q128 r{r}"));
    }
    header.push("IDEAL".into());
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (_, cells) in suite.par_map(|p, prog| {
        let refc = ref_run(prog, DEFAULT_LATENCY).cycles;
        let mut cells = vec![p.name().to_string()];
        let mut arena = SimArena::new();
        for qs in [16usize, 128] {
            for regs in REG_SWEEP {
                let cfg = base_cfg().with_phys_v_regs(regs).with_queue_slots(qs);
                let c = ooo_run_in(prog, cfg, &mut arena).cycles;
                cells.push(format!("{:.2}", refc as f64 / c as f64));
            }
        }
        cells.push(format!(
            "{:.2}",
            refc as f64 / prog.trace.ideal_cycles() as f64
        ));
        cells
    }) {
        t.row_owned(cells);
    }
    format!("Figure 5: OOOVA speedup over REF (latency 50) vs physical vector registers\n{t}")
}

/// Figure 6: memory-port idle cycles, REF vs OOOVA (16 registers).
#[must_use]
pub fn figure6(suite: &Suite) -> String {
    let mut chart = BarChart::new(
        "Figure 6: % idle memory-port cycles (latency 50, 16 physical V registers)",
        40,
    );
    let mut t = Table::new(&["program", "REF", "OOOVA"]);
    for (p, (r, o)) in
        suite.par_map(|_, prog| (ref_run(prog, DEFAULT_LATENCY), ooo_run(prog, base_cfg())))
    {
        t.row_owned(vec![
            p.name().into(),
            format!("{:.1}%", r.mem_port_idle_pct()),
            format!("{:.1}%", o.mem_port_idle_pct()),
        ]);
        chart.bar(format!("{} REF", p.name()), r.mem_port_idle_pct());
        chart.bar(format!("{} OOO", p.name()), o.mem_port_idle_pct());
    }
    format!("{t}\n{chart}")
}

/// Figure 7: cycle breakdown, REF vs OOOVA (16 registers, latency 50).
#[must_use]
pub fn figure7(suite: &Suite) -> String {
    let mut out =
        String::from("Figure 7: cycle breakdown REF vs OOOVA (16 registers, latency 50)\n");
    for (p, (r, o)) in
        suite.par_map(|_, prog| (ref_run(prog, DEFAULT_LATENCY), ooo_run(prog, base_cfg())))
    {
        let mut t = Table::new(&["state", "REF", "OOOVA"]);
        for state in oov_stats::UnitState::ALL {
            t.row_owned(vec![
                state.to_string(),
                r.breakdown.get(state).to_string(),
                o.breakdown.get(state).to_string(),
            ]);
        }
        t.row_owned(vec![
            "total".into(),
            r.cycles.to_string(),
            o.cycles.to_string(),
        ]);
        out.push_str(&format!("\n{}:\n{t}", p.name()));
    }
    out
}

/// Figure 8: execution time vs main-memory latency.
#[must_use]
pub fn figure8(suite: &Suite) -> String {
    let lats = [1u32, 50, 100];
    let mut t = Table::new(&[
        "program",
        "REF@1",
        "REF@50",
        "REF@100",
        "OOO@1",
        "OOO@50",
        "OOO@100",
        "IDEAL",
        "OOO deg 1→100",
    ]);
    for (_, row) in suite.par_map(|p, prog| {
        let refs: Vec<u64> = lats.iter().map(|&l| ref_run(prog, l).cycles).collect();
        let mut arena = SimArena::new();
        let ooos: Vec<u64> = lats
            .iter()
            .map(|&l| {
                ooo_run_in(
                    prog,
                    OooConfig::default().with_memory_latency(l),
                    &mut arena,
                )
                .cycles
            })
            .collect();
        let deg = 100.0 * (ooos[2] as f64 / ooos[0] as f64 - 1.0);
        vec![
            p.name().into(),
            refs[0].to_string(),
            refs[1].to_string(),
            refs[2].to_string(),
            ooos[0].to_string(),
            ooos[1].to_string(),
            ooos[2].to_string(),
            prog.trace.ideal_cycles().to_string(),
            format!("{deg:.1}%"),
        ]
    }) {
        t.row_owned(row);
    }
    format!("Figure 8: execution cycles vs main-memory latency (16 registers)\n{t}")
}

/// Figure 9: early vs late commit speedups over REF.
#[must_use]
pub fn figure9(suite: &Suite) -> String {
    let mut header = vec!["program".to_string()];
    for r in REG_SWEEP {
        header.push(format!("early r{r}"));
    }
    for r in REG_SWEEP {
        header.push(format!("late r{r}"));
    }
    header.push("late deg @16".into());
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (_, cells) in suite.par_map(|p, prog| {
        let refc = ref_run(prog, DEFAULT_LATENCY).cycles;
        let mut cells = vec![p.name().to_string()];
        let mut arena = SimArena::new();
        let mut early16 = 0u64;
        let mut late16 = 0u64;
        for mode in [CommitMode::Early, CommitMode::Late] {
            for regs in REG_SWEEP {
                let cfg = base_cfg().with_phys_v_regs(regs).with_commit(mode);
                let c = ooo_run_in(prog, cfg, &mut arena).cycles;
                if regs == 16 {
                    match mode {
                        CommitMode::Early => early16 = c,
                        CommitMode::Late => late16 = c,
                    }
                }
                cells.push(format!("{:.2}", refc as f64 / c as f64));
            }
        }
        cells.push(format!(
            "{:.1}%",
            100.0 * (late16 as f64 / early16 as f64 - 1.0)
        ));
        cells
    }) {
        t.row_owned(cells);
    }
    format!("Figure 9: early vs late commit — speedup over REF (latency 50)\n{t}")
}

/// Table 3: vector memory operations vs spill operations.
#[must_use]
pub fn table3(suite: &Suite) -> String {
    let mut t = Table::new(&[
        "program",
        "vload words",
        "vload spill",
        "%",
        "vstore words",
        "vstore spill",
        "%",
        "scalar spills",
    ]);
    for (p, prog) in suite.iter() {
        let s = prog.trace.stats();
        let pct = |a: u64, b: u64| {
            if b == 0 {
                "0.0".to_string()
            } else {
                format!("{:.1}", 100.0 * a as f64 / b as f64)
            }
        };
        t.row_owned(vec![
            p.name().into(),
            s.vload_words.to_string(),
            s.vload_spill_words.to_string(),
            pct(s.vload_spill_words, s.vload_words),
            s.vstore_words.to_string(),
            s.vstore_spill_words.to_string(),
            pct(s.vstore_spill_words, s.vstore_words),
            (s.sload_spill_count + s.sstore_spill_count).to_string(),
        ]);
    }
    format!("Table 3: vector memory operations and spill traffic (words moved)\n{t}")
}

/// Shared machinery for Figures 11 and 12.
fn elim_speedups(suite: &Suite, mode: LoadElimMode, title: &str) -> String {
    let regs = [16usize, 32, 64];
    let mut header = vec!["program".to_string()];
    for r in regs {
        header.push(format!("r{r}"));
    }
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (_, cells) in suite.par_map(|p, prog| {
        let mut cells = vec![p.name().to_string()];
        let mut arena = SimArena::new();
        for r in regs {
            let base = base_cfg().with_phys_v_regs(r).with_commit(CommitMode::Late);
            let elim = base_cfg().with_phys_v_regs(r).with_load_elim(mode);
            let bc = ooo_run_in(prog, base, &mut arena).cycles;
            let ec = ooo_run_in(prog, elim, &mut arena).cycles;
            cells.push(format!("{:.2}", bc as f64 / ec as f64));
        }
        cells
    }) {
        t.row_owned(cells);
    }
    format!("{title}\n{t}")
}

/// Figure 11: SLE speedup over the late-commit OOOVA.
#[must_use]
pub fn figure11(suite: &Suite) -> String {
    elim_speedups(
        suite,
        LoadElimMode::Sle,
        "Figure 11: scalar load elimination (SLE) speedup over late-commit OOOVA",
    )
}

/// Figure 12: SLE+VLE speedup over the late-commit OOOVA.
#[must_use]
pub fn figure12(suite: &Suite) -> String {
    elim_speedups(
        suite,
        LoadElimMode::SleVle,
        "Figure 12: SLE+VLE speedup over late-commit OOOVA",
    )
}

/// Figure 13: memory-traffic reduction under load elimination (32 regs).
#[must_use]
pub fn figure13(suite: &Suite) -> String {
    let mut t = Table::new(&["program", "SLE", "SLE+VLE"]);
    for (_, cells) in suite.par_map(|p, prog| {
        let base = base_cfg()
            .with_phys_v_regs(32)
            .with_commit(CommitMode::Late);
        let breq = ooo_run(prog, base).mem_requests;
        let mut cells = vec![p.name().to_string()];
        let mut arena = SimArena::new();
        for mode in [LoadElimMode::Sle, LoadElimMode::SleVle] {
            let cfg = base_cfg().with_phys_v_regs(32).with_load_elim(mode);
            let req = ooo_run_in(prog, cfg, &mut arena).mem_requests;
            cells.push(format!(
                "{:.1}% fewer requests",
                100.0 * (1.0 - req as f64 / breq as f64)
            ));
        }
        cells
    }) {
        t.row_owned(cells);
    }
    format!("Figure 13: address-bus traffic reduction at 32 physical registers\n{t}")
}

/// Per-stage occupancy: for every kernel, the share of progress cycles
/// each pipeline stage was active in (from the engine-invariant
/// [`SimStats::stages`] counters the stage-graph core collects), plus
/// how much of the total cycle count made progress at all. This is the
/// report-side rendering of the scheduler's whole premise: the columns
/// show which scans dominate a kernel (issue-heavy dyfesm/trfd versus
/// memory-pipe-heavy long-vector codes) and the `progress%` column
/// shows how much dead time the event engine skips.
#[must_use]
pub fn stage_occupancy(suite: &Suite) -> String {
    let mut t = Table::new(&[
        "program",
        "fetch",
        "disp",
        "iss A",
        "iss S",
        "iss V",
        "iss M",
        "mpipe",
        "wb",
        "commit",
        "pcycles",
        "progress%",
    ]);
    for (p, s) in suite.par_map(|_, prog| ooo_run(prog, base_cfg())) {
        let pct = |c: u64| format!("{:.1}", 100.0 * c as f64 / s.progress_cycles.max(1) as f64);
        let st = s.stages;
        t.row_owned(vec![
            p.name().into(),
            pct(st.fetch),
            pct(st.dispatch),
            pct(st.issue_a),
            pct(st.issue_s),
            pct(st.issue_v),
            pct(st.issue_mem),
            pct(st.mem_pipe),
            pct(st.writeback),
            pct(st.commit),
            s.progress_cycles.to_string(),
            format!(
                "{:.1}",
                100.0 * s.progress_cycles as f64 / s.cycles.max(1) as f64
            ),
        ]);
    }
    format!(
        "Stage occupancy: % of progress cycles each stage was active \
         (16 registers, latency 50)\n{t}"
    )
}

/// Ablation studies of the modelled mechanisms — reference-machine
/// chaining, register-file banking and the scalar cache; OOOVA queue,
/// ROB and cache sizing; compiler list scheduling — showing what each
/// contributes to the cycle counts of four programs.
#[must_use]
pub fn ablation(suite: &Suite) -> String {
    let programs = [
        Program::Swm256,
        Program::Flo52,
        Program::Trfd,
        Program::Bdna,
    ];

    let mut reference = Table::new(&[
        "program",
        "baseline",
        "no FU chaining",
        "+load chaining",
        "unbanked RF",
        "no scalar cache",
    ]);
    for p in programs {
        let run = |cfg: RefConfig| crate::ref_run(suite.get(p), cfg).cycles.to_string();
        reference.row_owned(vec![
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

    let mut ooo = Table::new(&[
        "program",
        "baseline",
        "queues=4",
        "queues=128",
        "no scalar cache",
        "rob=16",
    ]);
    for p in programs {
        let run = |cfg: OooConfig| ooo_run(suite.get(p), cfg).cycles.to_string();
        ooo.row_owned(vec![
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

    // The suite holds the list-scheduled compile; only the unscheduled
    // one is built here.
    let mut sched = Table::new(&["program", "scheduled", "unscheduled", "penalty"]);
    for p in programs {
        let unscheduled = compile_with(&p.kernel(suite.scale), &CompileOptions { schedule: false });
        let a = crate::ref_run(suite.get(p), RefConfig::default()).cycles;
        let b = crate::ref_run(&unscheduled, RefConfig::default()).cycles;
        sched.row_owned(vec![
            p.name().into(),
            a.to_string(),
            b.to_string(),
            format!("{:+.1}%", 100.0 * (b as f64 / a as f64 - 1.0)),
        ]);
    }

    format!(
        "== Reference-machine mechanisms (cycles, latency 50) ==\n{reference}\n\
         == OOOVA structures (cycles, latency 50, 16 registers) ==\n{ooo}\n\
         == Compiler scheduling (REF cycles with/without list scheduling) ==\n{sched}"
    )
}

/// Extension study: redundant (silent) store elimination — the future
/// work the paper sketches in §6 ("Relaxing compatibility could lead to
/// removing some spill stores, but we have not yet pursued this
/// approach"). Compares the late-commit OOOVA, SLE+VLE, and
/// SLE+VLE+SSE.
#[must_use]
pub fn extension(suite: &Suite) -> String {
    let mut t = Table::new(&[
        "program",
        "base requests",
        "SLE+VLE",
        "SLE+VLE+SSE",
        "stores elided (words)",
        "extra speedup",
    ]);
    for (p, [base, vle, sse]) in suite.par_map(|_, prog| {
        let mut arena = SimArena::new();
        [
            OooConfig::default().with_commit(CommitMode::Late),
            OooConfig::default().with_load_elim(LoadElimMode::SleVle),
            OooConfig::default().with_load_elim(LoadElimMode::SleVleSse),
        ]
        .map(|cfg| ooo_run_in(prog, cfg, &mut arena))
    }) {
        t.row_owned(vec![
            p.name().into(),
            base.mem_requests.to_string(),
            vle.mem_requests.to_string(),
            sse.mem_requests.to_string(),
            format!("{} ({})", sse.eliminated_stores, sse.eliminated_store_words),
            format!("{:.3}x", vle.cycles as f64 / sse.cycles as f64),
        ]);
    }
    format!(
        "Silent-store extension on top of SLE+VLE (latency 50, 16 registers)\n{t}\n\
         Every elision is value-verified in the test suite: the store's data\n\
         must equal the bytes memory already holds at its exact target range."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_kernels::Scale;

    #[test]
    fn exhibit_keys_are_unique() {
        for (i, (key, ..)) in EXHIBITS.iter().enumerate() {
            assert!(
                EXHIBITS[..i].iter().all(|(k, ..)| k != key),
                "duplicate exhibit key {key}"
            );
        }
    }

    #[test]
    fn every_exhibit_renders() {
        let suite = Suite::compile(Scale::Smoke);
        let rendered: Vec<(&str, String)> = EXHIBITS
            .iter()
            .map(|(key, _, render)| (*key, render(&suite)))
            .collect();
        for (key, body) in &rendered {
            assert!(!body.trim().is_empty(), "{key} rendered nothing");
        }
        let get = |key: &str| &rendered.iter().find(|(k, _)| *k == key).unwrap().1;

        assert!(get("table1").contains("memory (default)"));
        assert!(get("table1").contains("50"));
        for key in ["table2", "figure5", "stage_occupancy", "extension"] {
            for p in Program::ALL {
                assert!(get(key).contains(p.name()), "{key} misses {p}");
            }
        }
        assert!(get("figure4").contains('%'));
        assert!(get("figure13").contains("fewer requests"));
        assert!(get("stage_occupancy").contains("progress%"));
        assert!(get("ablation").contains("Compiler scheduling"));
    }
}
