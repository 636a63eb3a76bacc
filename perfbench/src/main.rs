//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::serve::Mix;
use perfbench::{grid, serve, RunCfg};

const USAGE: &str =
    "usage: perfbench --workload <grid|serve-hit|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".perfbench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "grid" => grid::run(&cfg),
        "serve-hit" => serve::run(&cfg, Mix::Hit),
        "serve-mixed" => serve::run(&cfg, Mix::Mixed),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(out) => {
            for line in out.notes.iter().chain(&out.check_failures) {
                println!("{line}");
            }
            for m in &out.metrics {
                println!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", out.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
