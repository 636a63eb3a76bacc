//! The repository benchmark: seeded `grid`, `serve-hit` and
//! `serve-mixed` workloads driven through the public APIs of
//! `oov-bench`, `oov-serve` and `oov-proto`, with every output checked.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! records spans around the benchmark's own calls into each layer and
//! reports the per-layer metrics plus a latency ledger. See
//! `perfbench/README.md` for the workloads and what each metric should
//! move.

#![forbid(unsafe_code)]

pub mod gen;
pub mod grid;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use oov_proto::Json;

/// Load generator threads, connections and server shards: the
/// benchmark box has two cores.
pub const THREADS: usize = 2;

/// How one run is configured from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for journals and span dumps.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run produced: operation counts, the metrics, and
/// human-readable lines (tables, the ledger) printed before the
/// result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that did not return a verified result.
    pub failed: u64,
    /// Whole-run checks that failed (digests, cache accounting).
    pub check_failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Lines printed ahead of the result.
    pub notes: Vec<String>,
    /// The latency ledger of a traced serve run.
    pub ledger: Option<serve::Ledger>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed whole-run check.
    pub fn fail_check(&mut self, what: String) {
        self.check_failures.push(what);
    }

    /// Adds the end-to-end metrics every workload reports.
    pub fn end_to_end(&mut self, e: &EndToEnd) {
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("setup_s", e.setup_s, "s");
        self.metric("throughput_rps", e.throughput_rps, "1/s");
        self.metric("latency_p50_us", e.latency_p50_us.value, "us");
        self.metric("latency_p90_us", e.latency_p90_us.value, "us");
        self.metric("ops_ok_frac", ok, "ratio");
        self.metric("peak_rss_mb", e.peak_rss_mb, "MiB");
        self.notes.push(format!(
            "latency p50 {:.1} us, p90 {:.1} us over {} samples; {:.1} ops/s; set-up {:.3} s",
            e.latency_p50_us.value,
            e.latency_p90_us.value,
            e.latency_p50_us.count,
            e.throughput_rps,
            e.setup_s
        ));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![("value", Json::Num(m.value)), ("unit", m.unit.into())]),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.check_failures.is_empty()),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The end-to-end figures of one untraced measured window.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time over the run's repeated set-ups.
    pub setup_s: f64,
    /// Verified operations per second.
    pub throughput_rps: f64,
    /// Median operation latency.
    pub latency_p50_us: stats::Pct,
    /// 90th-percentile operation latency.
    pub latency_p90_us: stats::Pct,
    /// Peak resident set when the window closed, before the output
    /// checks allocate their own copies.
    pub peak_rss_mb: f64,
}

/// Runs `f` and times it.
///
/// # Errors
///
/// Whatever `f` returns.
pub fn timed<S>(f: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let t = std::time::Instant::now();
    let s = f()?;
    Ok((s, t.elapsed().as_secs_f64()))
}

/// `setup_s`: the median of `first_s` and `reps − 1` more timed
/// set-ups, each handed to `discard` off the clock. Called after the
/// measured window has closed and its peak resident set was read, so
/// the repeated set-ups steady the median without reaching the
/// window's memory figure.
///
/// # Errors
///
/// The first set-up failure.
pub fn setup_median<S>(
    first_s: f64,
    reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S),
) -> Result<f64, String> {
    let mut times = vec![first_s];
    for _ in 1..reps {
        let (s, t) = timed(&mut setup)?;
        times.push(t);
        discard(s);
    }
    Ok(stats::median(&times))
}
