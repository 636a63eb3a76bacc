//! Timed harness comparing the naive cycle stepper against the
//! event-driven engine over the full ten-kernel suite, and timing the
//! surrounding machinery (compiler, reference simulator, golden
//! executor). Emits `BENCH_oov.json` at the repository root so future
//! perf PRs have a baseline to beat (`bench_trend` compares CI smoke
//! runs against it).
//!
//! Two engine sections are timed: the paper-default configuration, and
//! `queue_slots = 128` (the paper's "OOOVA-128") — the configuration
//! where a per-dead-cycle queue rescan would be most expensive, so it
//! shows the cached per-stage wakes keep the dead path flat.
//!
//! The container carries no external crates, so this is a plain
//! `harness = false` bench built on `std::time::Instant`:
//!
//! ```text
//! cargo bench -p oov-bench --bench simulators             # paper scale
//! cargo bench -p oov-bench --bench simulators -- --smoke  # CI smoke run
//! ```
//! (`--bench simulators` matters when passing flags: a bare
//! `cargo bench -- --smoke` would forward `--smoke` to the default
//! libtest harness of every other target, which rejects it.)

use std::hint::black_box;
use std::time::Instant;

use oov_bench::Suite;
use oov_core::{OooSim, SimArena, Stepper};
use oov_exec::Machine;
use oov_isa::{OooConfig, RefConfig};
use oov_kernels::Scale;
use oov_proto::Json;
use oov_ref::RefSim;
use oov_vcc::BaseImage;

struct Row {
    name: &'static str,
    trace_len: usize,
    /// Element operations in the trace (`vl` per vector instruction,
    /// 1 otherwise) — the denominator of the functional-layer cost
    /// metric.
    elements: u64,
    cycles: u64,
    /// Cycles in which any stage progressed — the cycles the
    /// stage-graph engine must actually walk (dead cycles are
    /// skipped). Engine-invariant, so it normalises the progress-cycle
    /// cost columns across machines.
    progress_cycles: u64,
    naive_ms: f64,
    event_ms: f64,
    ref_ms: f64,
    /// Seed cost: building the base image from `mem_init` — paid once
    /// per program, never per replay.
    seed_ms: f64,
    /// Warm-replay functional execution: rewind the machine over the
    /// shared base (no seeding, no allocation) and run the full trace.
    exec_ms: f64,
    q128_naive_ms: f64,
    q128_event_ms: f64,
}

impl Row {
    /// Event-engine nanoseconds per progress cycle — the "cheaper
    /// progress cycles" metric the stage-graph refactor targets on
    /// scalar-heavy kernels (dyfesm-class workloads are ~30% progress
    /// cycles, so skipping alone cannot help them).
    fn event_ns_per_pcycle(&self) -> f64 {
        self.event_ms * 1e6 / self.progress_cycles.max(1) as f64
    }

    /// Same metric for the naive full walk (its per-cycle cost is flat
    /// across dead and progress cycles).
    fn naive_ns_per_cycle(&self) -> f64 {
        self.naive_ms * 1e6 / self.cycles.max(1) as f64
    }

    /// Functional-executor nanoseconds per element operation — the
    /// paged-memory/batched-execution metric (golden machine seed +
    /// full trace replay, divided by total element ops).
    fn exec_ns_per_element(&self) -> f64 {
        self.exec_ms * 1e6 / self.elements.max(1) as f64
    }
}

/// Best-of-`reps` wall time in milliseconds, plus the last result (so
/// callers can inspect it without paying for an extra run).
fn time_ms<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(black_box(f()));
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("reps must be > 0"))
}

/// Rounds to three decimals so the JSON artifact stays diff-friendly.
fn ms(v: f64) -> Json {
    Json::Num((v * 1e3).round() / 1e3)
}

fn ratio(num: f64, den: f64) -> Json {
    Json::Num(((num / den) * 100.0).round() / 100.0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (scale, scale_name, reps) = if smoke {
        (Scale::Smoke, "smoke", 3)
    } else {
        (Scale::Paper, "paper", 3)
    };
    eprintln!("compiling suite ({scale_name})...");
    let t0 = Instant::now();
    let suite = Suite::compile(scale);
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Timing runs sequentially on purpose: timing every kernel under
    // mutual CPU contention (as a `par_map` would) distorts the
    // baseline — only the suite *compile* above is parallel.
    let rows: Vec<Row> = suite
        .iter()
        .map(|(p, prog)| {
            let cfg = OooConfig::default();
            let q128 = OooConfig::default().with_queue_slots(128);
            // One arena per kernel: iteration 1 builds the storage,
            // every later rep (and config) replays allocation-free —
            // the same discipline the sweep loops and serve shards use.
            let mut arena = SimArena::new();
            let (naive_ms, naive) = time_ms(reps, || {
                OooSim::new_in(cfg, &prog.trace, &mut arena)
                    .with_stepper(Stepper::Naive)
                    .run_into(&mut arena)
            });
            let (event_ms, event) = time_ms(reps, || {
                OooSim::new_in(cfg, &prog.trace, &mut arena)
                    .with_stepper(Stepper::EventDriven)
                    .run_into(&mut arena)
            });
            let (q128_naive_ms, q_naive) = time_ms(reps, || {
                OooSim::new_in(q128, &prog.trace, &mut arena)
                    .with_stepper(Stepper::Naive)
                    .run_into(&mut arena)
            });
            let (q128_event_ms, q_event) = time_ms(reps, || {
                OooSim::new_in(q128, &prog.trace, &mut arena)
                    .with_stepper(Stepper::EventDriven)
                    .run_into(&mut arena)
            });
            let (ref_ms, _) = time_ms(reps, || RefSim::new(RefConfig::default()).run(&prog.trace));
            // The functional-layer rows are sub-millisecond, so timing
            // noise dominates at the engine rep count; more reps cost
            // nothing and give a stable best-of floor.
            let fn_reps = reps * 10;
            // Seed cost, isolated: building the program's base image,
            // which `CompiledProgram::base_image` pays once.
            let (seed_ms, _) = time_ms(fn_reps, || BaseImage::seeded(&prog.mem_init).len());
            // Warm replay: rewind the machine over the shared base and
            // run. The rewind clears the machine's own word map in
            // place, so a replay seeds nothing and allocates nothing.
            let base = prog.base_image();
            let mut machine = Machine::from_base(base);
            let (exec_ms, _) = time_ms(fn_reps, || {
                machine.reset_to_base(base);
                machine.run(&prog.trace);
                machine.register_digest()
            });
            assert_eq!(naive.stats, event.stats, "{}: engines diverged", p.name());
            assert_eq!(
                q_naive.stats,
                q_event.stats,
                "{}: engines diverged at q128",
                p.name()
            );
            Row {
                name: p.name(),
                trace_len: prog.trace.len(),
                elements: prog.trace.iter().map(|i| i.ops()).sum(),
                cycles: event.stats.cycles,
                progress_cycles: event.stats.progress_cycles,
                naive_ms,
                event_ms,
                ref_ms,
                seed_ms,
                exec_ms,
                q128_naive_ms,
                q128_event_ms,
            }
        })
        .collect();

    let total_naive: f64 = rows.iter().map(|r| r.naive_ms).sum();
    let total_event: f64 = rows.iter().map(|r| r.event_ms).sum();
    let total_q128_naive: f64 = rows.iter().map(|r| r.q128_naive_ms).sum();
    let total_q128_event: f64 = rows.iter().map(|r| r.q128_event_ms).sum();
    let speedup = total_naive / total_event;
    let q128_speedup = total_q128_naive / total_q128_event;

    println!(
        "{:<10} {:>9} {:>9} {:>12} {:>9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>11} {:>11} {:>8}",
        "kernel",
        "insts",
        "elems",
        "cycles",
        "pcycles",
        "naive ms",
        "event ms",
        "ref ms",
        "seed ms",
        "exec ms",
        "speedup",
        "nv ns/c",
        "ev ns/pc",
        "ex ns/el",
        "q128 nv ms",
        "q128 ev ms",
        "q128 x"
    );
    for r in &rows {
        println!(
            "{:<10} {:>9} {:>9} {:>12} {:>9} {:>11.2} {:>11.2} {:>9.3} {:>9.3} {:>9.3} {:>7.1}x {:>8.0} {:>8.0} {:>9.2} {:>11.2} {:>11.2} {:>7.1}x",
            r.name,
            r.trace_len,
            r.elements,
            r.cycles,
            r.progress_cycles,
            r.naive_ms,
            r.event_ms,
            r.ref_ms,
            r.seed_ms,
            r.exec_ms,
            r.naive_ms / r.event_ms,
            r.naive_ns_per_cycle(),
            r.event_ns_per_pcycle(),
            r.exec_ns_per_element(),
            r.q128_naive_ms,
            r.q128_event_ms,
            r.q128_naive_ms / r.q128_event_ms
        );
    }
    println!(
        "{:<10} {:>9} {:>12} {:>11.2} {:>11.2} {:>9} {:>9} {:>7.1}x {:>11.2} {:>11.2} {:>7.1}x",
        "total",
        "",
        "",
        total_naive,
        total_event,
        "",
        "",
        speedup,
        total_q128_naive,
        total_q128_event,
        q128_speedup
    );
    println!("suite compile: {compile_ms:.1} ms");

    let kernels: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", r.name.into()),
                ("trace_len", r.trace_len.into()),
                ("elements", r.elements.into()),
                ("cycles", r.cycles.into()),
                ("progress_cycles", r.progress_cycles.into()),
                ("naive_ms", ms(r.naive_ms)),
                ("event_ms", ms(r.event_ms)),
                ("ref_ms", ms(r.ref_ms)),
                ("seed_ms", ms(r.seed_ms)),
                ("exec_ms", ms(r.exec_ms)),
                ("speedup", ratio(r.naive_ms, r.event_ms)),
                ("naive_ns_per_cycle", ms(r.naive_ns_per_cycle())),
                ("event_ns_per_pcycle", ms(r.event_ns_per_pcycle())),
                ("exec_ns_per_element", ms(r.exec_ns_per_element())),
                ("q128_naive_ms", ms(r.q128_naive_ms)),
                ("q128_event_ms", ms(r.q128_event_ms)),
                ("q128_speedup", ratio(r.q128_naive_ms, r.q128_event_ms)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("bench", "oov_engines".into()),
        ("scale", scale_name.into()),
        ("suite_compile_ms", ms(compile_ms)),
        ("kernels", Json::Arr(kernels)),
        ("total_naive_ms", ms(total_naive)),
        ("total_event_ms", ms(total_event)),
        ("total_speedup", ratio(total_naive, total_event)),
        ("total_q128_naive_ms", ms(total_q128_naive)),
        ("total_q128_event_ms", ms(total_q128_event)),
        (
            "total_q128_speedup",
            ratio(total_q128_naive, total_q128_event),
        ),
    ]);

    // The committed baseline is the paper-scale run; smoke runs (CI)
    // write a separate file so they can never clobber it.
    let path = if smoke {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_oov_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_oov.json")
    };
    std::fs::write(path, doc.pretty()).expect("failed to write bench baseline");
    eprintln!("wrote {path}");
}
