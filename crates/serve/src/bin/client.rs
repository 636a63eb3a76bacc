//! Command-line client for a running `oov-serve` daemon.
//!
//! ```text
//! client --addr 127.0.0.1:7540 ping
//! client --addr 127.0.0.1:7540 stats
//! client --addr 127.0.0.1:7540 metrics
//! client --addr 127.0.0.1:7540 sim --program trfd --regs 32 --latency 100 --commit late
//! client --addr 127.0.0.1:7540 sweep --program all --regs 9,12,16,32,64 --ref
//! client --addr 127.0.0.1:7540 shutdown
//! ```
//!
//! `metrics` fetches the server's full metrics registry and renders
//! counters and gauges as lines plus one latency table row per
//! histogram (count, mean and tail percentiles, in microseconds).
//! `stats` fetches the same registry and prints the fixed
//! [`StatsSnapshot`](oov_serve::StatsSnapshot) view of it, computed
//! here: the protocol has no `stats` message.
//!
//! `sim` prints one result; `sweep` fans a program × register grid out
//! in a single batched request and renders the same table shape as the
//! `oov-bench` figures (with `--ref`, cells are speedups over the
//! served reference machine; without it, raw OOOVA cycles).
//!
//! Shared flags (both `sim` and `sweep`), checked before connecting:
//!
//! * `--machine <ref|ooo>`            default `ooo` (`sim` only)
//! * `--regs <9..=65535[,n...]>`      physical V registers, default 16
//! * `--queues <1..=65535>`           issue-queue slots, default 16
//! * `--latency <cycles>`             memory latency, default 50
//! * `--commit <early|late>`          default `early`, or `late` when
//!   `--elim` is set (an explicit `--commit early` with it is an error)
//! * `--elim <off|sle|sle+vle|sle+vle+sse>`  default `off`
//! * `--scale <smoke|paper>`          default `paper`
//! * `--stepper <event|naive>`        default `event`
//! * `--fault-at <idx>`               inject a precise trap (`sim` only)
//! * `--deadline-ms <ms>`             server-enforced deadline: a job
//!   still queued when it expires answers `deadline exceeded` instead
//!   of simulating

use oov_bench::ooo_config_from_flags;
use oov_core::Stepper;
use oov_isa::{CommitMode, LoadElimMode, MachineConfig, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_obs::Histogram;
use oov_proto::Json;
use oov_serve::{Client, SimRequest};
use oov_stats::Table;

struct Args {
    addr: String,
    command: String,
    programs: Vec<Program>,
    /// `--machine ooo` (the default) rather than `ref`.
    ooo: bool,
    /// The OOOVA point for each `--regs` value, in order.
    configs: Vec<OooConfig>,
    latency: u32,
    scale: Scale,
    stepper: Stepper,
    fault_at: Option<usize>,
    deadline_ms: Option<u64>,
    with_ref: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7540".into(),
        command: String::new(),
        programs: vec![],
        ooo: true,
        configs: vec![],
        latency: 50,
        scale: Scale::Paper,
        stepper: Stepper::EventDriven,
        fault_at: None,
        deadline_ms: None,
        with_ref: false,
    };
    let (mut regs, mut queues, mut commit, mut elim) = (vec![16], 16, None, LoadElimMode::Off);
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
            "--addr" => args.addr = value(&mut i)?,
            "--program" | "--programs" => {
                let v = value(&mut i)?;
                for name in v.split(',') {
                    if name == "all" {
                        args.programs.extend(Program::ALL);
                    } else {
                        args.programs.push(
                            Program::from_name(name)
                                .ok_or_else(|| format!("unknown program {name}"))?,
                        );
                    }
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
                regs = value(&mut i)?
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("--regs: {e}")))
                    .collect::<Result<_, _>>()?;
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
            "--stepper" => {
                args.stepper = match value(&mut i)?.as_str() {
                    "event" => Stepper::EventDriven,
                    "naive" => Stepper::Naive,
                    other => return Err(format!("unknown stepper {other}")),
                };
            }
            "--fault-at" => {
                args.fault_at = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--fault-at: {e}"))?,
                );
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--ref" => args.with_ref = true,
            cmd if !cmd.starts_with("--") && args.command.is_empty() => {
                args.command = cmd.to_string();
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.command.is_empty() {
        return Err("missing command (ping|stats|metrics|sim|sweep|shutdown)".into());
    }
    args.configs = regs
        .into_iter()
        .map(|regs| ooo_config_from_flags(regs, queues, args.latency, commit, elim))
        .collect::<Result<_, _>>()?;
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut client = Client::connect(&args.addr)?;
    match args.command.as_str() {
        "ping" => {
            client.ping()?;
            println!("pong from {}", args.addr);
        }
        "stats" => {
            let s = client.stats()?;
            println!("requests:             {}", s.requests);
            println!("result cache hits:    {}", s.result_hits);
            println!("result cache misses:  {}", s.result_misses);
            println!("result evictions:     {}", s.result_evictions);
            println!("suite lookups:        {}", s.suite_requests);
            println!(
                "suite compiles:       smoke {}, paper {}",
                s.suite_compiles_smoke, s.suite_compiles_paper
            );
            println!("per-shard requests:   {:?}", s.per_shard_requests);
            println!(
                "shard balance:        {:.3} (min shard / mean; 1.0 = even)",
                s.shard_balance
            );
            println!(
                "health:               {} panics, {} respawns, {} sheds, {} deadline drops",
                s.panics, s.respawns, s.sheds, s.deadline_drops
            );
            println!(
                "cancellation:         {} jobs aborted mid-simulation",
                s.cancelled_jobs
            );
            println!(
                "persistence:          {} entries skipped at recovery, {} journal records \
                 ({} rotations, {} recovered at startup)",
                s.cache_load_skipped, s.journal_records, s.journal_rotations, s.journal_recovered
            );
            let dead: Vec<usize> = s
                .shards_alive
                .iter()
                .enumerate()
                .filter_map(|(ix, &alive)| (!alive).then_some(ix))
                .collect();
            if dead.is_empty() {
                println!("shards alive:         all {}", s.shards_alive.len());
            } else {
                println!("shards alive:         DEAD: {dead:?}");
            }
        }
        "metrics" => {
            let snap = client.metrics()?;
            let section = |name: &str| -> Vec<(String, Json)> {
                match snap.get(name) {
                    Some(Json::Obj(kv)) => kv.clone(),
                    _ => Vec::new(),
                }
            };
            for (name, v) in section("counters") {
                println!("{name:<32} {v}");
            }
            for (name, v) in section("gauges") {
                println!("{name:<32} {v}");
            }
            let hists = section("histograms");
            if !hists.is_empty() {
                let mut t = Table::new(&[
                    "histogram (µs)",
                    "count",
                    "mean",
                    "p50",
                    "p90",
                    "p99",
                    "p99.9",
                    "max",
                ]);
                let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
                for (name, j) in &hists {
                    let h = Histogram::from_json(j)?;
                    t.row_owned(vec![
                        name.clone(),
                        h.count().to_string(),
                        format!("{:.1}", h.mean() / 1e3),
                        us(h.percentile(50.0)),
                        us(h.percentile(90.0)),
                        us(h.percentile(99.0)),
                        us(h.percentile(99.9)),
                        us(h.max()),
                    ]);
                }
                println!("{t}");
            }
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server at {} is shutting down", args.addr);
        }
        "sim" => {
            let program = *args.programs.first().ok_or("sim: --program is required")?;
            let machine = if args.ooo {
                MachineConfig::Ooo(args.configs[0])
            } else {
                MachineConfig::Ref(RefConfig::default().with_memory_latency(args.latency))
            };
            let req = SimRequest {
                program,
                scale: args.scale,
                machine,
                stepper: args.stepper,
                fault_at: args.fault_at,
            };
            let r = client
                .sim_opts(&req, args.deadline_ms)
                .map_err(|e| e.to_string())?;
            println!(
                "{}: {} (shard {}, {})",
                program,
                r.stats,
                r.shard,
                if r.cached { "cache hit" } else { "simulated" }
            );
            println!(
                "  ideal {} cycles ({:.2}x away), {} faults taken",
                r.ideal_cycles,
                r.stats.cycles as f64 / r.ideal_cycles as f64,
                r.faults_taken
            );
        }
        "sweep" => {
            let programs = if args.programs.is_empty() {
                Program::ALL.to_vec()
            } else {
                args.programs.clone()
            };
            // One batched request: per program, optionally the REF
            // baseline, then one OOOVA point per register count.
            let mut points = Vec::new();
            for &p in &programs {
                if args.with_ref {
                    points.push(SimRequest {
                        program: p,
                        scale: args.scale,
                        machine: MachineConfig::Ref(
                            RefConfig::default().with_memory_latency(args.latency),
                        ),
                        stepper: args.stepper,
                        fault_at: None,
                    });
                }
                for &cfg in &args.configs {
                    points.push(SimRequest {
                        program: p,
                        scale: args.scale,
                        machine: MachineConfig::Ooo(cfg),
                        stepper: args.stepper,
                        fault_at: None,
                    });
                }
            }
            let mut results = Vec::with_capacity(points.len());
            let outcome = client.sweep(&points, args.deadline_ms, |_, r| results.push(r))?;
            if !outcome.errors.is_empty() {
                let (index, message) = &outcome.errors[0];
                return Err(format!(
                    "sweep: {} of {} rows failed (first: row {index}: {message})",
                    outcome.errors.len(),
                    points.len()
                ));
            }
            let count = outcome.completed;
            if count != points.len() {
                return Err(format!("sweep returned {count}/{} rows", points.len()));
            }
            let mut header = vec!["program".to_string()];
            for cfg in &args.configs {
                header.push(format!("r{}", cfg.phys_v_regs));
            }
            let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
            let per_program = usize::from(args.with_ref) + args.configs.len();
            for (pi, &p) in programs.iter().enumerate() {
                let rows = &results[pi * per_program..(pi + 1) * per_program];
                let mut cells = vec![p.name().to_string()];
                let (refc, ooo_rows) = if args.with_ref {
                    (Some(rows[0].stats.cycles), &rows[1..])
                } else {
                    (None, rows)
                };
                for r in ooo_rows {
                    match refc {
                        Some(base) => {
                            cells.push(format!("{:.2}", base as f64 / r.stats.cycles as f64));
                        }
                        None => cells.push(r.stats.cycles.to_string()),
                    }
                }
                t.row_owned(cells);
            }
            let what = if args.with_ref {
                "speedup over REF"
            } else {
                "OOOVA cycles"
            };
            println!(
                "Sweep ({what}; latency {}, queues {}, commit {}, elim {}):\n{t}",
                args.latency,
                args.configs[0].queue_slots,
                args.configs[0].commit.name(),
                args.configs[0].load_elim.name()
            );
            let cached = results.iter().filter(|r| r.cached).count();
            println!("{count} rows, {cached} served from cache");
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}\n(see the doc comment at the top of client.rs for usage)");
        std::process::exit(2);
    }
}
