//! Ad-hoc simulation driver: run any benchmark program on either
//! machine with any configuration from the command line.
//!
//! ```text
//! cargo run -p oov-bench --release --bin simulate -- \
//!     --program trfd --machine ooo --regs 32 --latency 100 \
//!     --commit late --elim sle+vle --queues 128
//! ```
//!
//! Flags (all optional except `--program`):
//!
//! * `--program <name>`  one of the ten benchmark names, or `all`
//! * `--machine <ref|ooo>`            default `ooo`
//! * `--regs <9..=65535>`             physical V registers, default 16
//! * `--queues <1..=65535>`           issue-queue slots, default 16
//! * `--latency <cycles>`             memory latency, default 50
//! * `--commit <early|late>`          default `early`, or `late` when
//!   `--elim` is set (elimination needs precise state, so an
//!   explicit `--commit early` with it is an error)
//! * `--elim <off|sle|sle+vle|sle+vle+sse>`  default `off`
//! * `--scale <smoke|paper>`          default `paper`
//! * `--breakdown`                    print the 8-state cycle breakdown
//! * `--trace <path>`                 write a pipeline lifecycle trace in
//!   Konata format (ooo machine only; open with the Konata viewer) and
//!   print the stall-attribution table. With `--program all` the program
//!   name is inserted before the extension.

use oov_bench::ooo_config_from_flags;
use oov_core::{OooSim, TraceSink};
use oov_isa::{CommitMode, LoadElimMode, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_ref::RefSim;
use oov_stats::SimStats;

struct Args {
    programs: Vec<Program>,
    /// `--machine ooo` (the default) rather than `ref`.
    ooo: bool,
    /// The OOOVA point (checked even for `--machine ref`).
    cfg: OooConfig,
    latency: u32,
    scale: Scale,
    breakdown: bool,
    trace: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        programs: vec![],
        ooo: true,
        cfg: OooConfig::default(),
        latency: 50,
        scale: Scale::Paper,
        breakdown: false,
        trace: None,
    };
    let (mut regs, mut queues, mut commit, mut elim) = (16, 16, None, LoadElimMode::Off);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--program" => {
                let v = value(&mut i)?;
                if v == "all" {
                    args.programs = Program::ALL.to_vec();
                } else {
                    args.programs.push(
                        Program::from_name(&v).ok_or_else(|| format!("unknown program {v}"))?,
                    );
                }
            }
            "--machine" => {
                args.ooo = match value(&mut i)?.as_str() {
                    "ooo" => true,
                    "ref" => false,
                    other => return Err(format!("unknown machine {other} (use ref|ooo)")),
                };
            }
            "--regs" => {
                regs = value(&mut i)?.parse().map_err(|e| format!("--regs: {e}"))?;
            }
            "--queues" => {
                queues = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--queues: {e}"))?;
            }
            "--latency" => {
                args.latency = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--latency: {e}"))?;
            }
            "--commit" => {
                let v = value(&mut i)?;
                commit = Some(
                    CommitMode::from_name(&v).ok_or_else(|| format!("unknown commit mode {v}"))?,
                );
            }
            "--elim" => {
                let v = value(&mut i)?;
                elim = LoadElimMode::from_name(&v)
                    .ok_or_else(|| format!("unknown elimination mode {v}"))?;
            }
            "--scale" => {
                let v = value(&mut i)?;
                args.scale = Scale::from_name(&v).ok_or_else(|| format!("unknown scale {v}"))?;
            }
            "--breakdown" => args.breakdown = true,
            "--trace" => args.trace = Some(value(&mut i)?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.programs.is_empty() {
        return Err("--program is required (a benchmark name, or `all`)".into());
    }
    if args.trace.is_some() && !args.ooo {
        return Err("--trace only applies to the ooo machine".into());
    }
    args.cfg = ooo_config_from_flags(regs, queues, args.latency, commit, elim)?;
    Ok(args)
}

/// `out.kanata` → `out.<program>.kanata` when tracing several programs.
fn trace_path(base: &std::path::Path, program: &str, many: bool) -> std::path::PathBuf {
    if !many {
        return base.to_path_buf();
    }
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base
        .extension()
        .and_then(|s| s.to_str())
        .unwrap_or("kanata");
    base.with_file_name(format!("{stem}.{program}.{ext}"))
}

fn report(name: &str, stats: &SimStats, ideal: u64, breakdown: bool) {
    println!("{name}: {stats}");
    println!(
        "  ideal {ideal} cycles ({:.2}x away), {} spill requests, \
         {} mispredicts / {} branches",
        stats.cycles as f64 / ideal as f64,
        stats.spill_requests,
        stats.mispredicts,
        stats.branches
    );
    if stats.eliminated_scalar_loads + stats.eliminated_vector_loads + stats.eliminated_stores > 0 {
        println!(
            "  eliminated: {} scalar loads, {} vector loads ({} words), {} stores ({} words)",
            stats.eliminated_scalar_loads,
            stats.eliminated_vector_loads,
            stats.eliminated_vector_words,
            stats.eliminated_stores,
            stats.eliminated_store_words
        );
    }
    if breakdown {
        for (state, cycles) in stats.breakdown.iter() {
            println!("  {state}  {cycles}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n(see the doc comment at the top of simulate.rs for usage)");
            std::process::exit(2);
        }
    };
    for p in &args.programs {
        let prog = p.compile(args.scale);
        let ideal = prog.trace.ideal_cycles();
        if args.ooo {
            let mut sim = OooSim::new(args.cfg, &prog.trace);
            if args.trace.is_some() {
                sim = sim.with_trace(TraceSink::new());
            }
            let r = sim.run();
            report(p.name(), &r.stats, ideal, args.breakdown);
            if let (Some(base), Some(sink)) = (&args.trace, &r.trace) {
                let path = trace_path(base, p.name(), args.programs.len() > 1);
                if let Err(e) = sink.write_konata(&path) {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
                println!(
                    "  trace: {} records -> {}",
                    sink.records().len(),
                    path.display()
                );
                let stalls = sink.stall_table();
                if !stalls.is_empty() {
                    print!("{}", stalls.render());
                }
            }
        } else {
            let cfg = RefConfig::default().with_memory_latency(args.latency);
            let stats = RefSim::new(cfg).run(&prog.trace);
            report(p.name(), &stats, ideal, args.breakdown);
        }
    }
}
