//! `grid`: the paper's exhibit grid simulated in-process at paper
//! scale by two closed-loop threads, each holding one `SimArena`.
//! Almost all the time is in `oov-core`, a little in `oov-ref`, none in
//! serve or proto: this workload exposes engine changes and must not
//! move for server changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use oov_bench::{machine_run_in, RunOutcome, Suite};
use oov_core::{SimArena, Stepper};
use oov_isa::MachineConfig;
use oov_kernels::Scale;
use oov_serve::{SimRequest, SimResult};

use crate::gen::{grid_canonical, Rng};
use crate::layers::{self, sim_span, span, SimCounts};
use crate::stats::{median, peak_rss_mib, percentile};
use crate::trace::Tracer;
use crate::{serve, setup_median, timed, EndToEnd, Outcome, RunCfg, THREADS};

/// Digest of one pass over the grid, as recorded with this benchmark:
/// FNV-1a over every point's result hash (its `SimStats` JSON, IDEAL
/// bound and trap count) in canonical grid order, so it is the same for
/// every seed. A pass that digests differently computed a different
/// result somewhere: the timing model changed, or a change meant to be
/// engine-only was not. A deliberate timing-model change re-records it.
pub const GRID_DIGEST: u64 = 0x50ed_716e_82c1_bb84;

/// Set-ups per run; the median is `setup_s`.
const SETUP_REPS: usize = 11;

/// OOOVA points of the first pass re-run under `Stepper::Naive`.
const NAIVE_SAMPLE: usize = 16;

/// Grid points the traced run caches in its serve-layer probe.
const PROBE_POINTS: usize = 64;

/// Everything the timed loop needs, built before the clock starts.
struct Setup {
    suite: Suite,
    /// Canonical grid.
    points: Vec<SimRequest>,
    /// Seeded visiting order (indices into `points`).
    order: Vec<usize>,
    arenas: Vec<SimArena>,
}

fn setup(seed: u64) -> Setup {
    let suite = Suite::compile(Scale::Paper);
    let points = grid_canonical();
    let mut order: Vec<usize> = (0..points.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    // Size each arena on the first point so the timed loop starts warm.
    let first = &points[order[0]];
    let arenas = (0..THREADS)
        .map(|_| {
            let mut arena = SimArena::new();
            let _ = machine_run_in(
                suite.get(first.program),
                &first.machine,
                first.stepper,
                None,
                &mut arena,
            );
            arena
        })
        .collect();
    Setup {
        suite,
        points,
        order,
        arenas,
    }
}

/// One simulated point: its position in the endless seeded sequence,
/// host time, and a digest of its result. Only the first pass keeps
/// whole results, so memory does not grow with the run's length.
struct Run {
    seq: usize,
    ns: u64,
    hash: u64,
}

/// What one measured window produced.
struct Measured {
    /// Every point, sorted by sequence number; whole passes only.
    runs: Vec<Run>,
    /// First-pass results, indexed by sequence number.
    first: Vec<RunOutcome>,
    elapsed_s: f64,
}

impl Measured {
    fn lat_us(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.ns as f64 / 1e3).collect()
    }
}

/// FNV-1a over a result's canonical JSON, IDEAL bound and trap count.
fn outcome_hash(out: &RunOutcome) -> u64 {
    let text = format!(
        "{};{};{}",
        out.stats.to_json(),
        out.ideal_cycles,
        out.faults_taken
    );
    oov_proto::fingerprint_bytes(text.as_bytes())
}

/// Runs whole passes over the grid on two closed-loop threads until
/// `window` has elapsed, then finishes the pass in flight.
fn measure(s: &mut Setup, window: Duration, tracer: &mut Tracer) -> Measured {
    let n = s.points.len();
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    let deadline = start + window;
    let (points, order, suite) = (&s.points, &s.order, &s.suite);
    let mut runs = Vec::new();
    let mut first = Vec::new();
    let mut locals = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = s
            .arenas
            .iter_mut()
            .map(|arena| {
                let mut local = Tracer::new(tracer.epoch(), tracer.on());
                let (next, limit) = (&next, &limit);
                scope.spawn(move || {
                    let (mut runs, mut first) = (Vec::new(), Vec::new());
                    loop {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        if seq >= limit.load(Ordering::Relaxed) {
                            break;
                        }
                        let req = &points[order[seq % n]];
                        let t0 = Instant::now();
                        let out = machine_run_in(
                            suite.get(req.program),
                            &req.machine,
                            req.stepper,
                            req.fault_at,
                            arena,
                        );
                        let t1 = Instant::now();
                        local.record(sim_span(&req.machine), seq as u64, None, t0, t1);
                        runs.push(Run {
                            seq,
                            ns: u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX),
                            hash: outcome_hash(&out),
                        });
                        if seq < n {
                            first.push((seq, out));
                        }
                        if t1 >= deadline {
                            // Stop at the end of the pass holding the
                            // latest handed-out point; every earlier
                            // point is still run.
                            let hi = next.load(Ordering::Relaxed).saturating_sub(1);
                            limit.fetch_min((hi / n + 1) * n, Ordering::Relaxed);
                        }
                    }
                    (runs, first, local)
                })
            })
            .collect();
        for w in workers {
            let (r, f, t) = w.join().expect("grid worker panicked");
            runs.extend(r);
            first.extend(f);
            locals.push(t);
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    for t in locals {
        tracer.absorb(t);
    }
    runs.sort_by_key(|r| r.seq);
    first.sort_by_key(|f| f.0);
    Measured {
        runs,
        first: first.into_iter().map(|f| f.1).collect(),
        elapsed_s,
    }
}

/// Digest of one pass (`pass` holds exactly one run per grid point):
/// FNV-1a over the per-point hashes in canonical grid order.
fn pass_digest(s: &Setup, pass: &[Run]) -> u64 {
    let mut by_point = vec![0u64; s.points.len()];
    for r in pass {
        by_point[s.order[r.seq % s.points.len()]] = r.hash;
    }
    let bytes: Vec<u8> = by_point.iter().flat_map(|h| h.to_le_bytes()).collect();
    oov_proto::fingerprint_bytes(&bytes)
}

/// Checks every pass against the recorded digest and a seeded sample
/// of the first pass against the naive engine. Returns the number of
/// failed points.
fn check(s: &Setup, m: &Measured, seed: u64, out: &mut Outcome) -> u64 {
    let n = s.points.len();
    let mut failed = 0;
    for pass in m.runs.chunks(n) {
        let digest = pass_digest(s, pass);
        if digest != GRID_DIGEST {
            out.fail_check(format!(
                "grid pass {} digest {digest:#018x} != recorded {GRID_DIGEST:#018x}",
                pass[0].seq / n
            ));
            failed += pass.len() as u64;
        }
    }
    let mut sample: Vec<usize> = (0..n)
        .filter(|&seq| matches!(s.points[s.order[seq]].machine, MachineConfig::Ooo(_)))
        .collect();
    Rng::new(seed ^ 0x6e61_6976).shuffle(&mut sample);
    sample.truncate(NAIVE_SAMPLE);
    let naive_bad: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = sample
            .chunks(NAIVE_SAMPLE.div_ceil(THREADS))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut arena = SimArena::new();
                    chunk
                        .iter()
                        .filter(|&&seq| {
                            let req = &s.points[s.order[seq]];
                            let naive = machine_run_in(
                                s.suite.get(req.program),
                                &req.machine,
                                Stepper::Naive,
                                None,
                                &mut arena,
                            );
                            naive != m.first[seq]
                        })
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("naive check worker panicked"))
            .sum()
    });
    if naive_bad > 0 {
        out.fail_check(format!(
            "{naive_bad} of {NAIVE_SAMPLE} sampled points differ under Stepper::Naive"
        ));
    }
    failed + naive_bad
}

/// The grid workload.
///
/// # Errors
///
/// Set-up failures, or a failed serve-layer probe on a traced run.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let (mut s, first_setup_s) = timed(|| Ok(setup(cfg.seed)))?;
    let n = s.points.len();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), cfg.trace);
    let window = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let traced = measure(&mut s, window, &mut tracer);
    let peak_rss_mb = peak_rss_mib();
    if !cfg.trace {
        out.attempted = traced.runs.len() as u64;
        out.failed = check(&s, &traced, cfg.seed, &mut out);
        let lat = traced.lat_us();
        out.end_to_end(&EndToEnd {
            setup_s: setup_median(first_setup_s, SETUP_REPS, || Ok(setup(cfg.seed)), drop)?,
            throughput_rps: traced.runs.len() as f64 / traced.elapsed_s,
            latency_p50_us: percentile(&lat, 50.0),
            latency_p90_us: percentile(&lat, 90.0),
            peak_rss_mb,
        });
        return Ok(out);
    }

    // Traced run: the untraced half gives the overhead baseline.
    let plain = measure(&mut s, window, &mut Tracer::new(tracer.epoch(), false));
    out.attempted = (traced.runs.len() + plain.runs.len()) as u64;
    out.failed = check(&s, &traced, cfg.seed, &mut out) + check(&s, &plain, cfg.seed, &mut out);

    let mut per_pass = SimCounts::default();
    for (seq, r) in traced.first.iter().enumerate() {
        per_pass.add(&s.points[s.order[seq]].machine, &r.stats);
    }
    let passes = (traced.runs.len() / n) as u64;
    out.metric("kernels.compile_ms", layers::kernels_compile_ms(), "ms");
    per_pass.report(&mut out);
    layers::sim_host_metrics(&mut out, &tracer, per_pass.ooo_progress_cycles * passes);

    // The codec and journal costs these points would pay if served.
    let pairs: Vec<(SimRequest, SimResult)> = traced
        .first
        .iter()
        .enumerate()
        .map(|(seq, r)| {
            let result = SimResult {
                stats: r.stats,
                ideal_cycles: r.ideal_cycles,
                faults_taken: r.faults_taken,
                cached: false,
                shard: 0,
            };
            (s.points[s.order[seq]], result)
        })
        .collect();
    let sizes: Vec<(usize, usize)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (req, res))| layers::proto_replay(&mut tracer, i as u64, None, req, res))
        .collect();
    layers::proto_metrics(&mut out, &tracer, &sizes);
    layers::journal_replay(&mut tracer, &pairs);
    out.metric(
        "journal.encode_record_us",
        median(&tracer.durations_us(span::JOURNAL_ENCODE)),
        "us",
    );

    // No server runs on this workload: probe the serve layer with a
    // short hit loop over the first points of the grid's seeded order.
    let sample: Vec<SimRequest> = pairs.iter().take(PROBE_POINTS).map(|p| p.0).collect();
    serve::probe(&sample, cfg, &mut out, &mut tracer)?;

    let traced_p50 = percentile(&traced.lat_us(), 50.0).value;
    let plain_p50 = percentile(&plain.lat_us(), 50.0).value;
    out.metric("trace.overhead_us_p50", traced_p50 - plain_p50, "us");
    out.notes.push(format!(
        "grid: {} traced + {} untraced points; point latency p50 traced {traced_p50:.1} us, untraced {plain_p50:.1} us",
        traced.runs.len(),
        plain.runs.len()
    ));
    tracer
        .write(&cfg.out_dir.join(format!("spans-grid-seed{}.tsv", cfg.seed)))
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}
