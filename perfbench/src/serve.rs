//! `serve-hit` and `serve-mixed`: a 2-shard in-process server
//! (`Server::start_cfg`) driven over TCP by two closed-loop
//! connections.
//!
//! * `serve-hit` — no journal; both connections send `sim` requests
//!   drawn from a prefilled hot pool, so every answer is a cache hit.
//!   This is the request path alone (codec, fingerprint, the hop to a
//!   shard and back, TCP) with the engine idle.
//! * `serve-mixed` — write-ahead journal on; connection A sends
//!   back-to-back `sweep`s of never-seen points (simulate, cache,
//!   journal) while connection B sends `sim` hits from the hot pool,
//!   which wait in the shard FIFOs behind the misses.
//!
//! Both loops are closed: a connection sends its next request only
//! after the previous reply, so a stalled miss slows its own
//! connection instead of piling up requests the generator scheduled.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use oov_bench::Suite;
use oov_kernels::Scale;
use oov_proto::Json;
use oov_serve::{Client, ServeConfig, Server, ServerHandle, SimRequest, SimResult, StatsSnapshot};

use crate::gen::{hot_pool, MissStream, Rng};
use crate::layers::{self, span, SimCounts};
use crate::stats::{counter, median, peak_rss_mib, percentile, HistDelta, Pct};
use crate::trace::Tracer;
use crate::{setup_median, timed, EndToEnd, Outcome, RunCfg, THREADS};

/// Server shards.
const SHARDS: usize = 2;
/// Hot-pool size: points cached at set-up and hit during the run.
const POOL: usize = 200;
/// Points per `sweep` on `serve-mixed`.
const SWEEP_POINTS: usize = 32;
/// Set-ups per run; the median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Sweeps in the traced phase of `serve-mixed`: a fixed amount of
/// work, so the core counts repeat exactly for a seed.
const TRACED_SWEEPS: usize = 96;
/// Longest pause between connection B's hits on `serve-mixed`. Sent
/// back to back, B's hits bunch into the moments a shard sits idle
/// (between sweeps) and their tail flips with how long those moments
/// last; a seeded random pause spreads them over the sweep cycle.
const MIXED_THINK: Duration = Duration::from_millis(10);
/// Latency samples reserved per connection: more than a minute of
/// `serve-hit` traffic.
const LATENCY_CAPACITY: usize = 1 << 21;
/// On a traced run, every this-many-th request of a connection is
/// followed by a timed ping and a replay of its codec work: enough
/// samples, while perturbing the load little.
const TRACE_EVERY: u64 = 8;
/// Length of the serve-layer probe on workloads without a server.
const PROBE: Duration = Duration::from_millis(500);

/// Which traffic mix a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Two connections of pool hits.
    Hit,
    /// Sweeps of misses on one connection, pool hits on the other.
    Mixed,
}

/// A running server with its prefilled hot pool and the generator's
/// connections.
struct Rig {
    server: ServerHandle,
    pool: Vec<SimRequest>,
    /// The prefill's answer for each pool point.
    results: Vec<SimResult>,
    clients: Vec<Client>,
    journal_dir: Option<PathBuf>,
}

impl Rig {
    /// Starts the server, connects, and caches `pool` with one sweep.
    fn start(pool: Vec<SimRequest>, journal_dir: Option<PathBuf>) -> Result<Rig, String> {
        let mut cfg = ServeConfig::default();
        if let Some(dir) = &journal_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
            cfg.persist.journal = Some(dir.join("journal"));
        }
        let server = Server::start_cfg("127.0.0.1:0", SHARDS, cfg)
            .map_err(|e| format!("server start: {e}"))?;
        let mut clients = (0..THREADS)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut rows: Vec<Option<SimResult>> = vec![None; pool.len()];
        let sweep = clients[0].sweep(&pool, None, |i, r| rows[i] = Some(r))?;
        if let Some((i, e)) = sweep.errors.first() {
            return Err(format!("prefill row {i} failed: {e}"));
        }
        let results: Vec<SimResult> = rows
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("prefill returned too few rows")?;
        if results.iter().any(|r| r.cached) {
            return Err("prefill answered from the cache: the pool repeats a point".into());
        }
        Ok(Rig {
            server,
            pool,
            results,
            clients,
            journal_dir,
        })
    }

    fn stop(self) {
        drop(self.clients);
        self.server.stop();
        if let Some(dir) = self.journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn metrics(&mut self) -> Result<Json, String> {
        self.clients[0].metrics()
    }

    fn pairs(&self) -> Vec<(SimRequest, SimResult)> {
        self.pool
            .iter()
            .copied()
            .zip(self.results.iter().cloned())
            .collect()
    }
}

/// One connection's pool hits.
#[derive(Debug, Default)]
struct HitLog {
    /// Latencies as `f32` in a buffer reserved up front, so the log
    /// neither reallocates mid-run nor weighs much in `peak_rss_mb`.
    lat_us: Vec<f32>,
    attempted: u64,
    failed: u64,
    sizes: Vec<(usize, usize)>,
}

impl HitLog {
    fn lat_f64(&self) -> Vec<f64> {
        self.lat_us.iter().copied().map(f64::from).collect()
    }
}

/// Sends `sim` requests for random pool points until `stop()`, checking
/// every answer is a cache hit equal to the prefill's result. With
/// `think`, the connection pauses a seeded random time up to it
/// between a reply and its next request.
fn hit_loop(
    client: &mut Client,
    rig_pool: (&[SimRequest], &[SimResult]),
    rng: &mut Rng,
    think: Option<Duration>,
    stop: &dyn Fn() -> bool,
    tracer: &mut Tracer,
    conn: u64,
) -> HitLog {
    let (pool, results) = rig_pool;
    let mut log = HitLog {
        lat_us: Vec::with_capacity(LATENCY_CAPACITY),
        ..HitLog::default()
    };
    while !stop() {
        if let Some(max) = think {
            let us = u64::try_from(max.as_micros()).unwrap_or(u64::MAX);
            std::thread::sleep(Duration::from_micros(rng.next_u64() % (us + 1)));
        }
        let i = rng.below(pool.len());
        let req_id = (conn << 40) | log.attempted;
        let t0 = Instant::now();
        let answer = client.sim(&pool[i]);
        let t1 = Instant::now();
        log.attempted += 1;
        log.lat_us.push((t1 - t0).as_secs_f32() * 1e6);
        match answer {
            Ok(r)
                if r.cached
                    && r.stats == results[i].stats
                    && r.ideal_cycles == results[i].ideal_cycles
                    && r.faults_taken == results[i].faults_taken => {}
            Ok(_) => log.failed += 1,
            Err(_) => {
                log.failed += 1;
                if client.reconnect().is_err() {
                    break;
                }
            }
        }
        if tracer.on() {
            let root = tracer.record(span::REQUEST, req_id, None, t0, t1);
            tracer.record(span::CLIENT_SIM, req_id, root, t0, t1);
            if req_id.is_multiple_of(TRACE_EVERY) {
                // The transport floor under the same load, and the
                // codec work this round trip paid, replayed.
                let p0 = Instant::now();
                if client.ping().is_ok() {
                    tracer.record(span::PING, req_id, root, p0, Instant::now());
                }
                let sizes = layers::proto_replay(tracer, req_id, root, &pool[i], &results[i]);
                log.sizes.push(sizes);
            }
            tracer.close(root, Instant::now());
        }
    }
    log
}

/// Connection A's sweeps of never-seen points.
#[derive(Debug, Default)]
struct SweepLog {
    rows: Vec<(SimRequest, SimResult)>,
    attempted: u64,
    failed: u64,
}

/// Sends sweeps of fresh points until `deadline` or, when
/// `sweeps` is set, for exactly that many sweeps. Every row must be a
/// miss (`cached: false`).
fn sweep_loop(
    client: &mut Client,
    stream: &mut MissStream,
    deadline: Instant,
    sweeps: Option<usize>,
    tracer: &mut Tracer,
) -> SweepLog {
    let mut log = SweepLog::default();
    for n in 0.. {
        let more = match sweeps {
            Some(k) => n < k,
            None => Instant::now() < deadline,
        };
        if !more {
            break;
        }
        let points = stream.take(SWEEP_POINTS);
        let mut rows: Vec<Option<SimResult>> = vec![None; points.len()];
        let t0 = Instant::now();
        let answer = client.sweep(&points, None, |i, r| rows[i] = Some(r));
        tracer.record(span::CLIENT_SWEEP, n as u64, None, t0, Instant::now());
        log.attempted += points.len() as u64;
        if answer.is_err() {
            log.failed += points.len() as u64;
            if client.reconnect().is_err() {
                break;
            }
            continue;
        }
        for (p, r) in points.into_iter().zip(rows) {
            match r {
                Some(r) if !r.cached => log.rows.push((p, r)),
                _ => log.failed += 1,
            }
        }
    }
    log
}

/// Everything one measured phase produced.
struct Phase {
    hits: HitLog,
    sweeps: SweepLog,
    elapsed_s: f64,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

/// Drives one phase of `mix` traffic for `window` (or, on
/// `serve-mixed` with `sweeps` set, for that many sweeps).
fn run_phase(
    rig: &mut Rig,
    mix: Mix,
    stream: &mut MissStream,
    window: Duration,
    sweeps: Option<usize>,
    tracer: &mut Tracer,
    seed: u64,
) -> Phase {
    let before = rig.server.snapshot();
    let start = Instant::now();
    let deadline = start + window;
    let done = AtomicBool::new(false);
    let pool = (&rig.pool[..], &rig.results[..]);
    let (a, b) = rig.clients.split_at_mut(1);
    let (ca, cb) = (&mut a[0], &mut b[0]);
    let mut ta = Tracer::new(tracer.epoch(), tracer.on());
    let mut tb = Tracer::new(tracer.epoch(), tracer.on());
    let mut rng_a = Rng::new(seed ^ 0xa);
    let mut rng_b = Rng::new(seed ^ 0xb);
    let until_deadline = || Instant::now() >= deadline;
    let until_done = || done.load(Ordering::Acquire);
    let (hits, sweeps_log) = std::thread::scope(|s| {
        let first = s.spawn(|| match mix {
            Mix::Hit => (
                hit_loop(ca, pool, &mut rng_a, None, &until_deadline, &mut ta, 0),
                None,
            ),
            Mix::Mixed => {
                let log = sweep_loop(ca, stream, deadline, sweeps, &mut ta);
                done.store(true, Ordering::Release);
                (HitLog::default(), Some(log))
            }
        });
        let (stop, think): (&dyn Fn() -> bool, _) = match mix {
            Mix::Hit => (&until_deadline, None),
            Mix::Mixed => (&until_done, Some(MIXED_THINK)),
        };
        let second = hit_loop(cb, pool, &mut rng_b, think, stop, &mut tb, 1);
        let (first_hits, sweeps_log) = first.join().expect("generator thread panicked");
        let mut hits = second;
        hits.lat_us.extend(first_hits.lat_us);
        hits.sizes.extend(first_hits.sizes);
        hits.attempted += first_hits.attempted;
        hits.failed += first_hits.failed;
        (hits, sweeps_log.unwrap_or_default())
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    tracer.absorb(ta);
    tracer.absorb(tb);
    Phase {
        hits,
        sweeps: sweeps_log,
        elapsed_s,
        before,
        after: rig.server.snapshot(),
    }
}

/// Checks the server's own accounting against the traffic sent: every
/// `sim` was a hit, every sweep row a miss, and the suite compiled
/// once.
fn check_accounting(p: &Phase, out: &mut Outcome) {
    let hits = p.after.result_hits - p.before.result_hits;
    let misses = p.after.result_misses - p.before.result_misses;
    let want_hits = p.hits.attempted - p.hits.failed;
    let want_misses = p.sweeps.rows.len() as u64;
    if hits != want_hits || misses != want_misses {
        out.fail_check(format!(
            "server counted {hits} hits / {misses} misses, the generator saw {want_hits} / {want_misses}"
        ));
    }
    if p.after.suite_compiles_paper != 1 {
        out.fail_check(format!(
            "paper suite compiled {} times",
            p.after.suite_compiles_paper
        ));
    }
}

/// Re-simulates every distinct served result in-process.
fn verify(pairs: &[(SimRequest, SimResult)], tracer: &mut Tracer, out: &mut Outcome) -> u64 {
    let suite = Suite::compile(Scale::Paper);
    let bad = layers::verify_in_process(&suite, pairs, tracer);
    if bad > 0 {
        out.fail_check(format!(
            "{bad} of {} served results differ from in-process runs",
            pairs.len()
        ));
    }
    bad
}

/// Client-observed `sim` latency split into the parts one traced phase
/// measured, at p50: client encode + server decode + the server's
/// request time (itself dispatch and queue wait, shard service and
/// response encode) + client decode + the transport residual, which is
/// what is left of the traced latency — TCP and thread wake-ups. The
/// ping round trip under the same load is the independent check on
/// that residual.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Traced client latency p50: the parts add up to it.
    pub traced_us: f64,
    /// `Request::encode`.
    pub client_encode_us: f64,
    /// `Request::decode` (the server decodes before starting its timer).
    pub server_decode_us: f64,
    /// Server `request.sim.latency_ns`.
    pub request_us: f64,
    /// Request − shard service − response encode.
    pub dispatch_queue_us: f64,
    /// Merged shard `service_ns` (hits and, on `serve-mixed`, misses).
    pub service_us: f64,
    /// `Response::encode`.
    pub resp_encode_us: f64,
    /// `Response::decode`.
    pub client_decode_us: f64,
    /// `Client::ping` round trip under the same load.
    pub ping_us: f64,
    /// Server-side request samples.
    pub requests: u64,
    /// Untraced client latency p50 and its sample count.
    pub untraced: Pct,
    /// On `serve-mixed`: traced hit latency p90, and the dispatch +
    /// queue and shard service parts at p90.
    pub tail: Option<(Pct, f64, f64)>,
}

impl Ledger {
    /// What the measured parts leave of the traced latency: transport.
    #[must_use]
    pub fn transport_us(&self) -> f64 {
        self.traced_us
            - self.client_encode_us
            - self.server_decode_us
            - self.request_us
            - self.client_decode_us
    }

    /// Traced minus untraced client latency p50.
    #[must_use]
    pub fn overhead_us(&self) -> f64 {
        self.traced_us - self.untraced.value
    }

    /// Whether the measured parts leave a transport residual that the
    /// independently measured ping round trip accounts for: at least
    /// zero, and at most the round trip plus the tracing overhead and
    /// the server histogram's resolution (its p50 is a bucket floor up
    /// to 1/16 below the sample).
    #[must_use]
    pub fn balances(&self) -> bool {
        let t = self.transport_us();
        t >= 0.0 && t <= self.ping_us + self.overhead_us().abs() + self.request_us / 16.0
    }

    /// The ledger as printable lines.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let whole = self.traced_us;
        let row = |label: &str, us: f64, source: &str| {
            format!(
                "  {label:<24} {us:>10.1} us {:>6.1}%   {source}",
                100.0 * us / whole.max(f64::MIN_POSITIVE)
            )
        };
        let mut lines = vec![
            format!(
                "ledger p50: traced client sim latency {whole:.1} us; untraced {:.1} us over {} samples",
                self.untraced.value, self.untraced.count
            ),
            row("client encode", self.client_encode_us, "proto.req_encode_us"),
            row("server decode", self.server_decode_us, "proto.req_decode_us"),
            row(
                "server request",
                self.request_us,
                &format!("serve.request_us_p50 over {} requests", self.requests),
            ),
            row("  dispatch + queue", self.dispatch_queue_us, "serve.dispatch_queue_us_p50"),
            row("  shard service", self.service_us, "serve.service_us_p50"),
            row("  response encode", self.resp_encode_us, "proto.resp_encode_us"),
            row("client decode", self.client_decode_us, "proto.resp_decode_us"),
            row("transport residual", self.transport_us(), "traced latency - the parts above"),
            row("  ping round trip", self.ping_us, "serve.ping_rtt_us_p50, same load"),
            format!(
                "  tracing overhead (traced - untraced p50) {:.1} us; the transport residual {} the ping round trip within it",
                self.overhead_us(),
                if self.balances() { "fits" } else { "does NOT fit" }
            ),
        ];
        if let Some((p90, queue, service)) = self.tail {
            let held = [
                (
                    "client codec",
                    self.client_encode_us + self.client_decode_us,
                ),
                ("transport (ping)", self.ping_us),
                ("dispatch + queue", queue),
                ("shard service", service),
            ];
            lines.push(format!(
                "ledger p90: traced hit latency {:.1} us over {} samples",
                p90.value, p90.count
            ));
            let share = |us: f64| 100.0 * us / p90.value.max(f64::MIN_POSITIVE);
            for (label, us) in held {
                lines.push(format!("  {label:<24} {us:>10.1} us {:>6.1}%", share(us)));
            }
            let (top, us) = held
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("the tail has parts");
            lines.push(format!(
                "  {top} holds {:.0}% of hit latency p90",
                share(us)
            ));
        }
        lines
    }
}

/// Adds the serve, cache and journal metrics of one traced phase,
/// given registry snapshots `m` taken around it, and returns its
/// ledger (whole and overhead still unset).
fn serve_metrics(out: &mut Outcome, tracer: &Tracer, m: (&Json, &Json), p: &Phase) -> Ledger {
    let request = HistDelta::between(m.0, m.1, "request.sim.latency_ns");
    let service = HistDelta::between(m.0, m.1, "shard.*.service_ns");
    let spans = |name: &str| tracer.durations_us(name);
    let resp_encode = median(&spans(span::RESP_ENCODE));
    let (request_p50, request_p90) = (
        request.percentile(50.0) / 1e3,
        request.percentile(90.0) / 1e3,
    );
    let (service_p50, service_p90) = (
        service.percentile(50.0) / 1e3,
        service.percentile(90.0) / 1e3,
    );
    let client = spans(span::CLIENT_SIM);
    out.metric("serve.ping_rtt_us_p50", median(&spans(span::PING)), "us");
    out.metric("serve.request_us_p50", request_p50, "us");
    out.metric("serve.request_us_p90", request_p90, "us");
    out.metric("serve.service_us_p50", service_p50, "us");
    out.metric("serve.service_us_p90", service_p90, "us");
    out.metric(
        "serve.dispatch_queue_us_p50",
        request_p50 - service_p50 - resp_encode,
        "us",
    );
    out.metric(
        "serve.dispatch_queue_us_p90",
        request_p90 - service_p90 - resp_encode,
        "us",
    );
    out.metric(
        "serve.client_side_us_p50",
        percentile(&client, 50.0).value - request_p50,
        "us",
    );

    let hits = p.after.result_hits - p.before.result_hits;
    let misses = p.after.result_misses - p.before.result_misses;
    out.metric("cache.result_hits", hits as f64, "count");
    out.metric("cache.result_misses", misses as f64, "count");
    out.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric(
        "cache.suite_compiles",
        p.after.suite_compiles_paper as f64,
        "count",
    );
    for (name, unit) in [
        ("journal.appended_records", "count"),
        ("journal.appended_bytes", "bytes"),
        ("journal.rotations", "count"),
    ] {
        let delta = counter(m.1, name).saturating_sub(counter(m.0, name));
        out.metric(name, delta as f64, unit);
    }

    let mut l = Ledger {
        traced_us: percentile(&client, 50.0).value,
        client_encode_us: median(&spans(span::REQ_ENCODE)),
        server_decode_us: median(&spans(span::REQ_DECODE)),
        request_us: request_p50,
        dispatch_queue_us: request_p50 - service_p50 - resp_encode,
        service_us: service_p50,
        resp_encode_us: resp_encode,
        client_decode_us: median(&spans(span::RESP_DECODE)),
        ping_us: median(&spans(span::PING)),
        requests: request.count(),
        ..Ledger::default()
    };
    if p.sweeps.attempted > 0 {
        let tail = percentile(&client, 90.0);
        l.tail = Some((tail, request_p90 - service_p90 - resp_encode, service_p90));
    }
    l
}

/// Probes the serve layer for a workload that runs no server: caches
/// `points` in a fresh 2-shard server and times a short two-connection
/// hit loop over them, filling the serve, cache and journal metrics.
///
/// # Errors
///
/// Server start or transport failures.
pub fn probe(
    points: &[SimRequest],
    cfg: &RunCfg,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut rig = Rig::start(points.to_vec(), None)?;
    let before = rig.metrics()?;
    let mut stream = MissStream::new(cfg.seed, points);
    let mut probe = Tracer::new(tracer.epoch(), true);
    let phase = run_phase(
        &mut rig,
        Mix::Hit,
        &mut stream,
        PROBE,
        None,
        &mut probe,
        cfg.seed,
    );
    let after = rig.metrics()?;
    check_accounting(&phase, out);
    out.attempted += phase.hits.attempted;
    out.failed += phase.hits.failed;
    serve_metrics(out, &probe, (&before, &after), &phase);
    tracer.absorb(probe);
    rig.stop();
    Ok(())
}

/// A serve workload.
///
/// # Errors
///
/// Server start or transport failures during set-up.
pub fn run(cfg: &RunCfg, mix: Mix) -> Result<Outcome, String> {
    let journal_dir =
        (mix == Mix::Mixed).then(|| cfg.out_dir.join(format!("journal-{}", std::process::id())));
    let start_rig = || Rig::start(hot_pool(cfg.seed, POOL), journal_dir.clone());
    let (mut rig, first_setup_s) = timed(start_rig)?;
    let mut stream = MissStream::new(cfg.seed, &rig.pool);
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), cfg.trace);
    let window = Duration::from_secs_f64(cfg.seconds);

    if !cfg.trace {
        let p = run_phase(
            &mut rig,
            mix,
            &mut stream,
            window,
            None,
            &mut tracer,
            cfg.seed,
        );
        let peak_rss_mb = peak_rss_mib();
        check_accounting(&p, &mut out);
        let mut pairs = rig.pairs();
        pairs.extend(p.sweeps.rows.iter().cloned());
        rig.stop();
        let setup_s = setup_median(first_setup_s, SETUP_REPS, start_rig, Rig::stop)?;
        let bad = verify(&pairs, &mut tracer, &mut out);
        out.attempted = p.hits.attempted + p.sweeps.attempted;
        let transport_failed = p.hits.failed + p.sweeps.failed;
        out.failed = transport_failed + bad;
        let lat = p.hits.lat_f64();
        out.end_to_end(&EndToEnd {
            setup_s,
            throughput_rps: (out.attempted - transport_failed) as f64 / p.elapsed_s,
            latency_p50_us: percentile(&lat, 50.0),
            latency_p90_us: percentile(&lat, 90.0),
            peak_rss_mb,
        });
        if mix == Mix::Mixed {
            let rate = |n: usize| n as f64 / p.elapsed_s;
            out.notes.push(format!(
                "serve-mixed: {} sweep rows ({:.1}/s) beside {} hits ({:.1}/s)",
                p.sweeps.rows.len(),
                rate(p.sweeps.rows.len()),
                p.hits.attempted,
                rate(p.hits.lat_us.len())
            ));
        }
        return Ok(out);
    }

    // Traced run: a traced phase (a fixed number of sweeps on
    // serve-mixed), then an untraced phase of half the window that the
    // ledger and the tracing overhead are measured against.
    let before = rig.metrics()?;
    let traced = run_phase(
        &mut rig,
        mix,
        &mut stream,
        window / 2,
        (mix == Mix::Mixed).then_some(TRACED_SWEEPS),
        &mut tracer,
        cfg.seed,
    );
    let after = rig.metrics()?;
    let plain = run_phase(
        &mut rig,
        mix,
        &mut stream,
        window / 2,
        None,
        &mut Tracer::new(tracer.epoch(), false),
        cfg.seed ^ 0x706c_6169,
    );
    check_accounting(&traced, &mut out);
    check_accounting(&plain, &mut out);

    let mut pairs = rig.pairs();
    pairs.extend(traced.sweeps.rows.iter().cloned());
    pairs.extend(plain.sweeps.rows.iter().cloned());
    let mut verified = Tracer::new(tracer.epoch(), true);
    let bad = verify(&pairs, &mut verified, &mut out);
    out.attempted = [&traced, &plain]
        .iter()
        .map(|p| p.hits.attempted + p.sweeps.attempted)
        .sum();
    out.failed = [&traced, &plain]
        .iter()
        .map(|p| p.hits.failed + p.sweeps.failed)
        .sum::<u64>()
        + bad;

    out.metric("kernels.compile_ms", layers::kernels_compile_ms(), "ms");
    let mut counts = SimCounts::default();
    for (req, r) in &traced.sweeps.rows {
        counts.add(&req.machine, &r.stats);
    }
    counts.report(&mut out);
    let mut verified_counts = SimCounts::default();
    for (req, r) in &pairs {
        verified_counts.add(&req.machine, &r.stats);
    }
    layers::sim_host_metrics(&mut out, &verified, verified_counts.ooo_progress_cycles);
    layers::proto_metrics(&mut out, &tracer, &traced.hits.sizes);
    let journaled = match mix {
        Mix::Mixed => traced.sweeps.rows.clone(),
        Mix::Hit => rig.pairs(),
    };
    layers::journal_replay(&mut tracer, &journaled);
    out.metric(
        "journal.encode_record_us",
        median(&tracer.durations_us(span::JOURNAL_ENCODE)),
        "us",
    );
    let mut ledger = serve_metrics(&mut out, &tracer, (&before, &after), &traced);
    ledger.untraced = percentile(&plain.hits.lat_f64(), 50.0);
    out.metric("trace.overhead_us_p50", ledger.overhead_us(), "us");
    out.notes.extend(ledger.lines());
    out.ledger = Some(ledger);

    tracer.absorb(verified);
    let name = match mix {
        Mix::Hit => "serve-hit",
        Mix::Mixed => "serve-mixed",
    };
    tracer
        .write(
            &cfg.out_dir
                .join(format!("spans-{name}-seed{}.tsv", cfg.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    rig.stop();
    Ok(out)
}
