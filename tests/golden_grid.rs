//! The golden exhibit grid: smoke-scale `SimStats` of every machine
//! point the paper's exhibits simulate, pinned in `golden_grid.json`.
//!
//! The parity grid and the differential floor compare the two engines
//! with each other, so a timing change both engines share passes them.
//! This test compares both machines with what they produced when the
//! file was blessed. Each cell is one kernel on one machine point; it
//! lists the exhibits that read it and a digest: FNV-1a over the
//! cell's `SimStats::to_json().encode()` bytes, so a drift in the
//! stats codec fails here too. When cells move, the failure names each
//! one, its exhibits and the counters that changed.
//!
//! A deliberate timing-model change re-blesses the file with
//!
//! ```text
//! cargo test --test golden_grid -- --ignored bless
//! ```
//!
//! and lists the moved cells in CHANGES.md.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use oov::core::{SimArena, Stepper};
use oov::isa::{CommitMode, LoadElimMode, MachineConfig, OooConfig, RefConfig};
use oov::kernels::{Program, Scale};
use oov::proto::{fingerprint_bytes, Json};
use oov::vcc::{compile_with, CompileOptions};
use oov_bench::experiments::{DEFAULT_LATENCY, REF_LATENCIES, REG_SWEEP};
use oov_bench::{machine_run_in, Suite};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_grid.json");

/// The kernels the `ablation` exhibit simulates.
const ABLATION: [Program; 4] = [
    Program::Swm256,
    Program::Flo52,
    Program::Trfd,
    Program::Bdna,
];

/// One grid cell: a kernel on a machine point, and who reads it.
struct Cell {
    program: Program,
    /// `false` for the ablation's unscheduled compile.
    scheduled: bool,
    machine: MachineConfig,
    exhibits: Vec<&'static str>,
}

impl Cell {
    /// The cell's name in the file: the kernel and the parameters the
    /// exhibits vary.
    fn key(&self) -> String {
        let mut key = format!("{} ", self.program.name());
        match &self.machine {
            MachineConfig::Ref(c) => {
                let _ = write!(key, "ref lat{}", c.lat.memory);
                for (off, name) in [
                    (!c.chain_fu, "no-fu-chaining"),
                    (c.chain_loads, "load-chaining"),
                    (!c.banked_ports, "unbanked"),
                    (c.scalar_cache.is_none(), "no-cache"),
                    (!self.scheduled, "unscheduled"),
                ] {
                    if off {
                        let _ = write!(key, " {name}");
                    }
                }
            }
            MachineConfig::Ooo(c) => {
                let _ = write!(
                    key,
                    "ooo r{} q{} lat{} {} {}",
                    c.phys_v_regs,
                    c.queue_slots,
                    c.lat.memory,
                    c.commit.name(),
                    c.load_elim.name()
                );
                if c.rob_entries != OooConfig::default().rob_entries {
                    let _ = write!(key, " rob{}", c.rob_entries);
                }
                if c.scalar_cache.is_none() {
                    key.push_str(" no-cache");
                }
            }
        }
        key
    }
}

/// Every machine point `oov_bench::experiments` simulates, as one cell
/// per distinct (kernel, compile, machine), each listing the exhibits
/// that read it. Mirrors the exhibit functions; a new exhibit point
/// belongs here too.
fn grid() -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    let mut read = |exhibit: &'static str, program: Program, scheduled: bool, machine| match cells
        .iter_mut()
        .find(|c| c.program == program && c.scheduled == scheduled && c.machine == machine)
    {
        Some(c) if c.exhibits.contains(&exhibit) => {}
        Some(c) => c.exhibits.push(exhibit),
        None => cells.push(Cell {
            program,
            scheduled,
            machine,
            exhibits: vec![exhibit],
        }),
    };
    let reference = |lat| MachineConfig::Ref(RefConfig::default().with_memory_latency(lat));
    let base = || OooConfig::default().with_memory_latency(DEFAULT_LATENCY);
    for p in Program::ALL {
        let mut ooo = |exhibit, cfg| read(exhibit, p, true, MachineConfig::Ooo(cfg));
        for regs in REG_SWEEP {
            for qs in [16, 128] {
                ooo(
                    "figure5",
                    base().with_phys_v_regs(regs).with_queue_slots(qs),
                );
            }
            for mode in [CommitMode::Early, CommitMode::Late] {
                ooo("figure9", base().with_phys_v_regs(regs).with_commit(mode));
            }
        }
        for exhibit in ["figure6", "figure7", "stage_occupancy"] {
            ooo(exhibit, base());
        }
        for lat in [1, 50, 100] {
            ooo("figure8", OooConfig::default().with_memory_latency(lat));
        }
        for (exhibit, mode) in [
            ("figure11", LoadElimMode::Sle),
            ("figure12", LoadElimMode::SleVle),
        ] {
            for regs in [16, 32, 64] {
                ooo(
                    exhibit,
                    base().with_phys_v_regs(regs).with_commit(CommitMode::Late),
                );
                ooo(exhibit, base().with_phys_v_regs(regs).with_load_elim(mode));
            }
        }
        ooo(
            "figure13",
            base().with_phys_v_regs(32).with_commit(CommitMode::Late),
        );
        for mode in [LoadElimMode::Sle, LoadElimMode::SleVle] {
            ooo("figure13", base().with_phys_v_regs(32).with_load_elim(mode));
        }
        ooo(
            "extension",
            OooConfig::default().with_commit(CommitMode::Late),
        );
        for mode in [LoadElimMode::SleVle, LoadElimMode::SleVleSse] {
            ooo("extension", OooConfig::default().with_load_elim(mode));
        }
        for lat in REF_LATENCIES {
            read("figure3", p, true, reference(lat));
            read("figure4", p, true, reference(lat));
        }
        for exhibit in ["figure5", "figure6", "figure7", "figure9"] {
            read(exhibit, p, true, reference(DEFAULT_LATENCY));
        }
        for lat in [1, 50, 100] {
            read("figure8", p, true, reference(lat));
        }
    }
    for p in ABLATION {
        let d = RefConfig::default();
        for cfg in [
            d,
            RefConfig {
                chain_fu: false,
                ..d
            },
            RefConfig {
                chain_loads: true,
                ..d
            },
            RefConfig {
                banked_ports: false,
                ..d
            },
            RefConfig {
                scalar_cache: None,
                ..d
            },
        ] {
            read("ablation", p, true, MachineConfig::Ref(cfg));
        }
        read("ablation", p, false, MachineConfig::Ref(d));
        let d = OooConfig::default();
        for cfg in [
            d,
            d.with_queue_slots(4),
            d.with_queue_slots(128),
            OooConfig {
                scalar_cache: None,
                ..d
            },
            OooConfig {
                rob_entries: 16,
                ..d
            },
        ] {
            read("ablation", p, true, MachineConfig::Ooo(cfg));
        }
    }
    cells
}

/// One simulated cell: its key, exhibits, machine fingerprint and the
/// encoded stats.
struct Fresh {
    key: String,
    exhibits: Vec<&'static str>,
    machine_fp: u64,
    stats: Json,
    encoded: String,
}

/// Simulates every cell of the grid, in grid order, one thread per
/// kernel.
fn simulate() -> Vec<Fresh> {
    let cells = grid();
    let keys: Vec<String> = cells.iter().map(Cell::key).collect();
    for (i, key) in keys.iter().enumerate() {
        assert!(!keys[..i].contains(key), "two grid cells share key {key}");
    }
    let suite = Suite::compile(Scale::Smoke);
    let per_program = suite.par_map(|p, prog| {
        let unscheduled = ABLATION
            .contains(&p)
            .then(|| compile_with(&p.kernel(Scale::Smoke), &CompileOptions { schedule: false }));
        let mut arena = SimArena::new();
        cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.program == p)
            .map(|(i, c)| {
                let compiled = if c.scheduled {
                    prog
                } else {
                    unscheduled.as_ref().expect("ablation kernel")
                };
                let run =
                    machine_run_in(compiled, &c.machine, Stepper::EventDriven, None, &mut arena);
                (i, run.stats.to_json())
            })
            .collect::<Vec<_>>()
    });
    let mut stats: Vec<Option<Json>> = vec![None; cells.len()];
    for (_, runs) in per_program {
        for (i, s) in runs {
            stats[i] = Some(s);
        }
    }
    cells
        .into_iter()
        .zip(keys)
        .zip(stats)
        .map(|((cell, key), stats)| {
            let stats = stats.expect("every cell simulated");
            Fresh {
                key,
                exhibits: cell.exhibits,
                machine_fp: cell.machine.fingerprint(),
                encoded: stats.encode(),
                stats,
            }
        })
        .collect()
}

fn hex(n: u64) -> String {
    format!("{n:016x}")
}

/// Counter-by-counter differences between two encoded `SimStats`
/// objects, nested counters named `stages.commit`, `breakdown[3]`.
fn changed_counters(path: &str, old: &Json, new: &Json, out: &mut Vec<String>) {
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (k, av) in a {
                let at = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match new.get(k) {
                    Some(bv) => changed_counters(&at, av, bv, out),
                    None => out.push(format!("{at} gone")),
                }
            }
            for (k, _) in b {
                if old.get(k).is_none() {
                    out.push(format!("{path}.{k} new"));
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) if a.len() == b.len() => {
            for (i, (av, bv)) in a.iter().zip(b).enumerate() {
                changed_counters(&format!("{path}[{i}]"), av, bv, out);
            }
        }
        _ if old != new => out.push(format!("{path} {old} -> {new}")),
        _ => {}
    }
}

#[test]
fn golden_grid_cells_are_unchanged() {
    let text = std::fs::read_to_string(GOLDEN).expect("read tests/golden_grid.json");
    let golden = Json::parse(&text).expect("golden grid parses");
    assert_eq!(golden.get("scale").and_then(Json::as_str), Some("smoke"));
    let mut pinned: BTreeMap<&str, &Json> = BTreeMap::new();
    for cell in golden.get("cells").and_then(Json::as_arr).expect("cells") {
        let key = cell.get("cell").and_then(Json::as_str).expect("cell key");
        assert!(pinned.insert(key, cell).is_none(), "{key} pinned twice");
    }

    let fresh = simulate();
    let mut problems = Vec::new();
    for f in &fresh {
        let Some(cell) = pinned.remove(f.key.as_str()) else {
            problems.push(format!("{}: not in the golden file", f.key));
            continue;
        };
        let field = |name| cell.get(name).and_then(Json::as_str).unwrap_or_default();
        let exhibits = f.exhibits.join(", ");
        let pinned_exhibits: Vec<&str> = cell
            .get("exhibits")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        if pinned_exhibits != f.exhibits {
            problems.push(format!(
                "{}: read by {exhibits}, pinned as read by {}",
                f.key,
                pinned_exhibits.join(", ")
            ));
        }
        if field("machine_fp") != hex(f.machine_fp) {
            problems.push(format!(
                "{} (read by {exhibits}): machine config encoding changed",
                f.key
            ));
        }
        if field("digest") != hex(fingerprint_bytes(f.encoded.as_bytes())) {
            let mut counters = Vec::new();
            changed_counters(
                "",
                cell.get("stats").unwrap_or(&Json::Null),
                &f.stats,
                &mut counters,
            );
            if counters.is_empty() {
                counters.push("same values, different bytes (stats codec drift)".into());
            }
            problems.push(format!(
                "{} (read by {exhibits}): {}",
                f.key,
                counters.join(", ")
            ));
        }
    }
    for key in pinned.keys() {
        problems.push(format!("{key}: pinned but no longer simulated"));
    }
    assert!(
        problems.is_empty(),
        "{} of {} golden grid cells moved:\n{}\n\
         A deliberate timing-model change re-blesses with \
         `cargo test --test golden_grid -- --ignored bless` and lists these cells in CHANGES.md.",
        problems.len(),
        fresh.len(),
        problems.join("\n")
    );
}

/// Rewrites `tests/golden_grid.json` from the current simulators: one
/// cell per line, in grid order.
#[test]
#[ignore = "rewrites tests/golden_grid.json; only for a deliberate timing-model change"]
fn bless() {
    let mut out = String::from("{\"scale\": \"smoke\", \"cells\": [\n");
    let fresh = simulate();
    for (i, f) in fresh.iter().enumerate() {
        let cell = Json::obj(vec![
            ("cell", f.key.as_str().into()),
            (
                "exhibits",
                Json::Arr(f.exhibits.iter().map(|&e| e.into()).collect()),
            ),
            ("machine_fp", hex(f.machine_fp).into()),
            (
                "digest",
                hex(fingerprint_bytes(f.encoded.as_bytes())).into(),
            ),
            ("stats", f.stats.clone()),
        ]);
        out.push_str(&cell.encode());
        out.push_str(if i + 1 < fresh.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    std::fs::write(GOLDEN, out).expect("write tests/golden_grid.json");
}
