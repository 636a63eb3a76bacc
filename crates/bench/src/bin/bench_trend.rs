//! Bench trend gate: compares a fresh engine-bench artifact against
//! the committed baseline and fails on per-kernel regressions.
//!
//! CI runs the smoke-scale bench and then:
//!
//! ```text
//! cargo run -p oov-bench --release --bin bench_trend -- \
//!     BENCH_oov_smoke.json BENCH_oov.json
//! ```
//!
//! The two artifacts generally differ in *scale* (CI smoke vs the
//! committed paper-scale baseline) and in *machine* (a CI runner vs
//! the box that produced the baseline), so absolute times are never
//! compared. Two machine-independent gates, each per kernel and
//! failing above `--max-ratio` (default 2.0):
//!
//! 1. **Cost shape.** Event-engine ms per thousand trace instructions,
//!    as a ratio to the baseline, *normalised by the median ratio
//!    across kernels* — a uniformly slower machine moves every
//!    kernel's ratio equally and cancels out, while one kernel
//!    regressing (a stage whose cached wake keeps firing early, a
//!    disambiguation blow-up) sticks out of the median.
//! 2. **Engine speedup.** The naive/event speedup measured *within*
//!    each artifact (same machine, same run). A fresh speedup below
//!    `baseline / max-ratio` means the event engine lost ground
//!    against the oracle regardless of hardware.
//!
//! The q128 section is gated the same way when both artifacts carry
//! it. Exit status 1 on any regression, so the CI step fails without
//! any shell glue.
//!
//! 3. **Engine-speedup floor.** Independent of the baseline, every
//!    kernel's *fresh* event/naive speedup (both sections) must stay
//!    at or above `--min-speedup` (default 1.5). The relative gate (2)
//!    tolerates a slide that happens to hit both artifacts; the floor
//!    is the absolute line under the engine's whole point.
//!
//! 4. **Functional layer.** The architectural executor is the test
//!    oracle (a sparse word map over a shared seed), so its cost
//!    bounds test time, not any production path. Its warm-replay
//!    `exec_ms` per thousand trace instructions, median-normalised
//!    exactly like the event cost but with its own machine factor, is
//!    gated per kernel at `--max-exec-ratio` (default 2.0). A warm
//!    replay reads through the program's seeded base image and only
//!    clears its own stored words, so `exec_ms` excludes the seed
//!    (reported separately as `seed_ms`, not gated) and cancels across
//!    scales like engine cost does.
//!
//! 5. **Trace-hook overhead.** The pipeline-tracing hooks compiled
//!    into the event engine must be free when no sink is attached
//!    (they are a single `Option` branch each). The same normalised
//!    per-kernel cost as gate 1 is re-checked against the much tighter
//!    `--max-trace-overhead-ratio` (default 1.05): any kernel whose
//!    cost drifts past 5% of the baseline — hook-heavy issue scans are
//!    the likely culprit — fails. Like gate 1 this is median-relative,
//!    so a perfectly uniform slowdown folds into the machine factor;
//!    on a same-machine, same-scale comparison the printed factor
//!    itself is the uniform component, which is how the committed
//!    baseline is validated locally.
//!
//! 6. **Suite compile.** `suite_compile_ms` per thousand suite
//!    instructions (one value per artifact, normalised by the exec
//!    machine factor) is gated at `--max-compile-ratio` (default
//!    8.0). The wide bound is structural: compiling a kernel is
//!    dominated by per-kernel fixed work (scheduling the same segment
//!    bodies, whose size does not scale with trip counts), so
//!    per-instruction normalisation inflates the smoke ratio by
//!    roughly the trace-length scale factor (~4–5×). The gate still
//!    catches an order-of-magnitude compile regression, which is what
//!    it is for.

use std::process::ExitCode;

use oov_proto::Json;

struct KernelCost {
    name: String,
    /// event_ms per 1000 trace instructions, default config.
    norm: f64,
    /// naive_ms / event_ms, default config.
    speedup: f64,
    /// Warm-replay exec_ms per 1000 trace instructions (the
    /// functional layer; the one-time seed cost is a separate
    /// `seed_ms` column and is not gated).
    exec_norm: f64,
    /// Dynamic trace length (for suite-level normalisation).
    trace_len: f64,
    /// Same pair for the queue_slots=128 section, when present.
    q128: Option<(f64, f64)>,
}

/// One parsed artifact: per-kernel costs plus the artifact-level
/// suite-compile cost (ms per 1000 suite trace instructions).
struct Artifact {
    kernels: Vec<KernelCost>,
    compile_norm: Option<f64>,
}

fn artifact(doc: &Json, path: &str) -> Result<Artifact, String> {
    let kernels = costs(doc, path)?;
    let total_insts: f64 = kernels.iter().map(|k| k.trace_len).sum();
    let compile_norm = doc
        .get("suite_compile_ms")
        .and_then(Json::as_f64)
        .filter(|&c| c > 0.0 && total_insts > 0.0)
        .map(|c| c / total_insts * 1e3);
    Ok(Artifact {
        kernels,
        compile_norm,
    })
}

fn costs(doc: &Json, path: &str) -> Result<Vec<KernelCost>, String> {
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `kernels` array"))?;
    kernels
        .iter()
        .map(|k| {
            let name = k
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: kernel without a name"))?
                .to_string();
            let num = |field: &str| {
                k.get(field)
                    .and_then(Json::as_f64)
                    .filter(|&n| n > 0.0)
                    .ok_or_else(|| format!("{path}: {name}: bad `{field}`"))
            };
            let trace_len = num("trace_len")?;
            let event_ms = num("event_ms")?;
            let naive_ms = num("naive_ms")?;
            let exec_ms = num("exec_ms")?;
            let q128 = match (
                k.get("q128_event_ms").and_then(Json::as_f64),
                k.get("q128_naive_ms").and_then(Json::as_f64),
            ) {
                (Some(e), Some(n)) if e > 0.0 && n > 0.0 => Some((e / trace_len * 1e3, n / e)),
                _ => None,
            };
            Ok(KernelCost {
                name,
                norm: event_ms / trace_len * 1e3,
                speedup: naive_ms / event_ms,
                exec_norm: exec_ms / trace_len * 1e3,
                trace_len,
                q128,
            })
        })
        .collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        1.0
    } else {
        v[v.len() / 2]
    }
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<Vec<String>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<&str> = Vec::new();
    let mut max_ratio = 2.0f64;
    let mut max_exec_ratio = 2.0f64;
    let mut max_compile_ratio = 8.0f64;
    let mut min_speedup = 1.5f64;
    let mut max_trace_overhead = 1.05f64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--max-ratio" => {
                i += 1;
                max_ratio = argv
                    .get(i)
                    .ok_or("missing value for --max-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-ratio: {e}"))?;
            }
            "--max-exec-ratio" => {
                i += 1;
                max_exec_ratio = argv
                    .get(i)
                    .ok_or("missing value for --max-exec-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-exec-ratio: {e}"))?;
            }
            "--max-compile-ratio" => {
                i += 1;
                max_compile_ratio = argv
                    .get(i)
                    .ok_or("missing value for --max-compile-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-compile-ratio: {e}"))?;
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = argv
                    .get(i)
                    .ok_or("missing value for --min-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-speedup: {e}"))?;
            }
            "--max-trace-overhead-ratio" => {
                i += 1;
                max_trace_overhead = argv
                    .get(i)
                    .ok_or("missing value for --max-trace-overhead-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-trace-overhead-ratio: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => files.push(file),
        }
        i += 1;
    }
    let [fresh_path, base_path] = files.as_slice() else {
        return Err("usage: bench_trend <fresh.json> <baseline.json> [--max-ratio N]".into());
    };
    let fresh_doc = artifact(&read(fresh_path)?, fresh_path)?;
    let base_doc = artifact(&read(base_path)?, base_path)?;
    let (fresh, base) = (&fresh_doc.kernels, &base_doc.kernels);

    // Median cost ratio across kernels = the machine/scale factor.
    let pairs: Vec<(&KernelCost, &KernelCost)> = fresh
        .iter()
        .filter_map(|f| base.iter().find(|b| b.name == f.name).map(|b| (f, b)))
        .collect();
    if pairs.is_empty() {
        return Err("no kernels in common between the two artifacts".into());
    }
    let machine_factor = median(pairs.iter().map(|(f, b)| f.norm / b.norm).collect());
    let q128_factor = median(
        pairs
            .iter()
            .filter_map(|(f, b)| Some(f.q128?.0 / b.q128?.0))
            .collect(),
    );
    let exec_factor = median(
        pairs
            .iter()
            .map(|(f, b)| f.exec_norm / b.exec_norm)
            .collect(),
    );

    println!(
        "machine/scale factor: {machine_factor:.3}x (q128 {q128_factor:.3}x, \
         exec {exec_factor:.3}x)"
    );
    println!(
        "{:<10} {:>10} {:>11} {:>10} {:>10} {:>11}   {:>10} {:>11}",
        "kernel",
        "cost",
        "speedup",
        "exec cost",
        "q128 cost",
        "q128 spdup",
        "base spdup",
        "q128 base"
    );
    let mut regressions = Vec::new();
    for (f, b) in &pairs {
        for (section, speedup) in
            std::iter::once(("default", f.speedup)).chain(f.q128.map(|(_, fs)| ("q128", fs)))
        {
            if speedup < min_speedup {
                regressions.push(format!(
                    "{} [{section}]: engine speedup {speedup:.2}x below the {min_speedup:.1}x floor",
                    f.name
                ));
            }
        }
        let exec_cost = f.exec_norm / b.exec_norm / exec_factor;
        if exec_cost > max_exec_ratio {
            regressions.push(format!(
                "{} [exec]: normalised cost regressed {exec_cost:.2}x (> {max_exec_ratio:.1}x)",
                f.name
            ));
        }
        let cost = f.norm / b.norm / machine_factor;
        if cost > max_trace_overhead {
            regressions.push(format!(
                "{} [default]: cost {cost:.3}x past the trace-hook overhead bound \
                 ({max_trace_overhead:.2}x) — dormant tracing must stay free",
                f.name
            ));
        }
        let mut check = |section: &str, metric: &str, ratio: f64| {
            if ratio > max_ratio {
                regressions.push(format!(
                    "{} [{section}]: {metric} regressed {ratio:.2}x (> {max_ratio:.1}x)",
                    f.name
                ));
            }
        };
        check("default", "normalised cost", cost);
        check("default", "engine speedup", b.speedup / f.speedup);
        let q128 = f.q128.zip(b.q128).map(|((fc, fs), (bc, bs))| {
            let qcost = fc / bc / q128_factor;
            check("q128", "normalised cost", qcost);
            check("q128", "engine speedup", bs / fs);
            (qcost, fs, bs)
        });
        match q128 {
            Some((qcost, fs, bs)) => println!(
                "{:<10} {:>9.2}x {:>10.1}x {:>9.2}x {:>9.2}x {:>10.1}x   {:>9.1}x {:>10.1}x",
                f.name, cost, f.speedup, exec_cost, qcost, fs, b.speedup, bs
            ),
            None => println!(
                "{:<10} {:>9.2}x {:>10.1}x {:>9.2}x   (no q128 section) {:>9.1}x",
                f.name, cost, f.speedup, exec_cost, b.speedup
            ),
        }
    }
    // Suite-compile gate: one value per artifact, normalised per suite
    // instruction and by the exec machine factor.
    if let (Some(fc), Some(bc)) = (fresh_doc.compile_norm, base_doc.compile_norm) {
        let ratio = fc / bc / exec_factor;
        println!("suite compile cost: {ratio:.2}x vs baseline (normalised)");
        if ratio > max_compile_ratio {
            regressions.push(format!(
                "suite_compile_ms regressed {ratio:.2}x (> {max_compile_ratio:.1}x)"
            ));
        }
    } else {
        println!("suite compile cost: not comparable (missing in an artifact)");
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    match run() {
        Ok(regressions) if regressions.is_empty() => {
            println!("bench trend: OK");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!("bench trend: {} regression(s):", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
