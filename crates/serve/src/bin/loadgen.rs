//! Load generator: K concurrent clients × M requests against a
//! running (or `--spawn`ed) `oov-serve` daemon. Emits
//! `BENCH_serve.json` with throughput, latency percentiles and the
//! server's cache counters — the artifact that proves suite
//! memoisation (one compile per scale) and, with `--verify`,
//! bit-identical parity between served and in-process results.
//!
//! Latencies are recorded into one shared [`oov_obs::Histogram`] — the
//! same bucket layout the server's own `request.sim.latency_ns`
//! histogram uses — so the emitted client-side percentiles (p50/p90/
//! p99/p99.9) and the fetched server-side ones line up within bucket
//! resolution plus wire round-trip cost; both land in the artifact.
//!
//! ```text
//! cargo run -p oov-serve --release --bin loadgen -- \
//!     --spawn --shards 4 --clients 8 --requests 64 --scale smoke --verify
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr <host:port>`   target server, default `127.0.0.1:7540`
//! * `--spawn`              start an in-process server on an ephemeral
//!   port instead (and shut it down at the end)
//! * `--shards <n>`         cache stripes (and pool workers) for
//!   `--spawn`, default 4
//! * `--clients <k>`        concurrent client connections, default 4
//! * `--requests <m>`       requests per client, default 50
//! * `--scale <smoke|paper>`  default `smoke`
//! * `--verify`             recompute every unique point in-process
//!   and assert the served `SimStats` are bit-identical
//! * `--cache-entries <n>`  per-cache-stripe LRU cap for
//!   `--spawn`ed servers (default: unbounded)
//! * `--chaos`              chaos run (implies `--spawn`): the server
//!   injects deterministic worker panics, worker kills, delays and
//!   connection drops; alongside the normal clients, mischief threads
//!   drive malformed frames, slowloris partial lines and mid-sweep
//!   disconnects, and shutdown is requested from several connections
//!   at once. Every client retries with backoff, a watchdog asserts
//!   zero hung clients, and the daemon must still answer
//!   `ping`/`stats` after the storm. Combine with `--verify` to also
//!   prove every answered request is bit-identical.
//! * `--chaos-seed <n>`     seed for the server's fault plan, default 1
//! * `--journal-file <path>` journal-overhead check (implies
//!   `--spawn`): after the normal phase, run the identical workload
//!   against a fresh server with the write-ahead journal enabled at
//!   `<path>`, and emit a `journal` section with both throughputs and
//!   their ratio — the artifact `bench_trend --serve-journal` gates
//!   (journaling must stay within 1.1× of off).
//! * `--assert-warm`        after the phase, assert the server missed
//!   zero times and compiled no suite — for driving an *external*,
//!   already-warm server (e.g. the CI kill-recovery step restarts a
//!   `serve --journal` daemon, after a SIGKILL and after a graceful
//!   stop, and proves every record recovered)
//! * `--out <path>`         artifact path, default `BENCH_serve.json`
//!   at the repository root

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use oov_isa::{CommitMode, LoadElimMode, MachineConfig, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_obs::Histogram;
use oov_proto::Json;
use oov_serve::{
    ChaosConfig, Client, Request, RetryPolicy, ServeConfig, Server, SimRequest, StatsSnapshot,
};

/// SplitMix64 step — deterministic per-client request ordering.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The unique request pool: every program × a spread of machine
/// configurations (including the reference machine), so the run
/// exercises every cache stripe, both machines and the result cache.
fn request_pool(scale: Scale) -> Vec<SimRequest> {
    let machines = [
        MachineConfig::Ooo(OooConfig::default()),
        MachineConfig::Ooo(OooConfig::default().with_queue_slots(128)),
        MachineConfig::Ooo(OooConfig::default().with_memory_latency(100)),
        MachineConfig::Ooo(OooConfig::default().with_commit(CommitMode::Late)),
        MachineConfig::Ooo(OooConfig::default().with_load_elim(LoadElimMode::SleVle)),
        MachineConfig::Ref(RefConfig::default()),
    ];
    Program::ALL
        .iter()
        .flat_map(|&program| {
            machines.iter().map(move |&machine| SimRequest {
                machine,
                ..SimRequest::ooo_default(program, scale)
            })
        })
        .collect()
}

fn us(v: f64) -> Json {
    Json::Num((v * 10.0).round() / 10.0)
}

/// Full percentile set in microseconds — the same `oov-obs` histogram
/// the server uses, so client- and server-side figures are directly
/// comparable (both quantised to the same log2 buckets).
fn latency_us(h: &Histogram) -> Json {
    let p = |p: f64| us(h.percentile(p) as f64 / 1e3);
    Json::obj(vec![
        ("mean", us(h.mean() / 1e3)),
        ("p50", p(50.0)),
        ("p90", p(90.0)),
        ("p99", p(99.0)),
        ("p999", p(99.9)),
        ("max", us(h.max() as f64 / 1e3)),
    ])
}

struct Args {
    addr: String,
    spawn: bool,
    shards: usize,
    clients: usize,
    requests: usize,
    scale: Scale,
    verify: bool,
    cache_entries: Option<usize>,
    chaos: bool,
    chaos_seed: u64,
    journal_file: Option<String>,
    assert_warm: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7540".into(),
        spawn: false,
        shards: 4,
        clients: 4,
        requests: 50,
        scale: Scale::Smoke,
        verify: false,
        cache_entries: None,
        chaos: false,
        chaos_seed: 1,
        journal_file: None,
        assert_warm: false,
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    let number = |i: &mut usize| -> Result<usize, String> {
        let flag = argv[*i].clone();
        value(i)?
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{flag} needs a positive integer"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i)?,
            "--spawn" => args.spawn = true,
            "--shards" => args.shards = number(&mut i)?,
            "--clients" => args.clients = number(&mut i)?,
            "--requests" => args.requests = number(&mut i)?,
            "--scale" => {
                let v = value(&mut i)?;
                args.scale = Scale::from_name(&v).ok_or_else(|| format!("unknown scale {v}"))?;
            }
            "--verify" => args.verify = true,
            "--cache-entries" => args.cache_entries = Some(number(&mut i)?),
            "--chaos" => {
                args.chaos = true;
                args.spawn = true;
            }
            "--chaos-seed" => {
                args.chaos_seed = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--chaos-seed: {e}"))?;
            }
            "--journal-file" => {
                args.journal_file = Some(value(&mut i)?);
                args.spawn = true;
            }
            "--assert-warm" => args.assert_warm = true,
            "--out" => args.out = value(&mut i)?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if args.journal_file.is_some() && args.chaos {
        return Err(
            "--journal-file is a clean A/B throughput comparison; it cannot be \
             combined with --chaos"
                .into(),
        );
    }
    Ok(args)
}

/// One complete load phase: K clients × M requests. Latencies land in
/// one shared nanosecond histogram (atomic, so every client thread
/// records into it directly).
struct Phase {
    latency: Histogram,
    wall_ms: f64,
    client_hits: usize,
    verified: usize,
    /// Retries performed across all clients (0 without faults).
    retries: u64,
    /// Requests that still failed after exhausting retries.
    failed: u64,
    stats: StatsSnapshot,
    /// The server's own `request.sim.latency_ns` histogram, for the
    /// client-vs-server comparison line (absent if the fetch fails).
    server_sim_latency: Option<Histogram>,
}

/// Every client hang-proofs its run with this budget; a chaos run
/// that exceeds it is a bug (a wedged client), not slowness.
const WATCHDOG_BUDGET: Duration = Duration::from_secs(180);

/// Chaos mischief: garbage and truncated frames must answer errors
/// (or close the connection) without wedging anything.
fn mischief_malformed(addr: &str, rounds: usize) {
    for _ in 0..rounds {
        let Ok(mut s) = TcpStream::connect(addr) else {
            continue;
        };
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let _ = s.write_all(
            b"this is not json\n{\"cmd\":\"bogus\"}\n{\"cmd\":\"sim\"}\n{\"cmd\":\"sweep\",\"points\":[]}\n",
        );
        let mut r = BufReader::new(s);
        let mut line = String::new();
        for _ in 0..4 {
            line.clear();
            if r.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
        }
    }
}

/// Chaos mischief: slowloris. One connection drips half a request and
/// abandons it (the server must time the partial line out, not hold it
/// forever); another drips a *complete* ping byte-by-byte and must
/// still be answered.
fn mischief_slowloris(addr: &str) {
    if let Ok(mut s) = TcpStream::connect(addr) {
        for b in br#"{"cmd":"pi"# {
            if s.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Dropped here with no newline: the partial line times out.
    }
    if let Ok(mut s) = TcpStream::connect(addr) {
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut sent = true;
        for b in b"{\"cmd\":\"ping\"}\n" {
            if s.write_all(&[*b]).is_err() {
                sent = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if sent {
            let mut line = String::new();
            let _ = BufReader::new(s).read_line(&mut line);
        }
    }
}

/// Chaos mischief: start a sweep, read one row, vanish. The server
/// must not leak the remaining rows' worth of anything.
fn mischief_midsweep(addr: &str, pool: &[SimRequest], rounds: usize) {
    for _ in 0..rounds {
        let Ok(mut s) = TcpStream::connect(addr) else {
            continue;
        };
        let req = Request::Sweep {
            points: pool.iter().take(8).copied().collect(),
            deadline_ms: None,
        };
        if writeln!(s, "{}", req.encode()).is_err() {
            continue;
        }
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut line = String::new();
        let _ = BufReader::new(s).read_line(&mut line);
        // Dropped mid-stream.
    }
}

/// Fetches stats + the server-side sim latency histogram, retrying
/// over fresh connections (a chaos server may drop the probe too).
fn probe_server(addr: &str) -> Result<(StatsSnapshot, Option<Histogram>), String> {
    let mut last = String::new();
    for _ in 0..5 {
        let attempt = Client::connect(addr).and_then(|mut probe| {
            let stats = probe.stats()?;
            let hist = probe.metrics().ok().and_then(|snap| {
                snap.get("histograms")
                    .and_then(|h| h.get("request.sim.latency_ns"))
                    .and_then(|j| Histogram::from_json(j).ok())
            });
            Ok((stats, hist))
        });
        match attempt {
            Ok(v) => return Ok(v),
            Err(e) => last = e,
        }
    }
    Err(format!("stats probe failed after retries: {last}"))
}

/// Drives the full client workload against `addr` and snapshots the
/// server counters afterwards. Deterministic: the per-client PRNG
/// seeds depend only on the client index, so two phases issue the
/// identical request sequence. Every request goes through
/// [`Client::sim_retry`]; with `--chaos`, mischief threads run
/// alongside and a watchdog guarantees the phase cannot hang.
fn drive(
    addr: &str,
    args: &Args,
    pool: &[SimRequest],
    expected: &[Option<oov_stats::SimStats>],
) -> Result<Phase, String> {
    println!(
        "driving {} clients x {} requests over {} unique points at {addr}...",
        args.clients,
        args.requests,
        pool.len()
    );
    let policy = RetryPolicy {
        // Chaos needs headroom: a request can be eaten by a dropped
        // connection, then shed, then land on a respawning worker.
        max_retries: if args.chaos { 8 } else { 4 },
        ..RetryPolicy::default()
    };
    let t0 = Instant::now();
    let latency = Histogram::new();
    let retries = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let per_client: Vec<(usize, usize)> = std::thread::scope(|s| {
        // Watchdog: if the clients (or mischief threads) wedge, fail
        // the whole run loudly instead of hanging CI.
        s.spawn(|| {
            let deadline = Instant::now() + WATCHDOG_BUDGET;
            while !done.load(Ordering::Acquire) {
                if Instant::now() > deadline {
                    eprintln!(
                        "loadgen: WATCHDOG: clients still running after \
                         {WATCHDOG_BUDGET:?}; a client is hung"
                    );
                    std::process::exit(3);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let mischief: Vec<_> = if args.chaos {
            vec![
                s.spawn(move || mischief_malformed(addr, 5)),
                s.spawn(move || mischief_slowloris(addr)),
                s.spawn(move || mischief_midsweep(addr, pool, 3)),
            ]
        } else {
            Vec::new()
        };
        let handles: Vec<_> = (0..args.clients)
            .map(|client_ix| {
                let (latency, retries, failed, policy) = (&latency, &retries, &failed, &policy);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("loadgen connect");
                    let mut rng = 0x5eed_0000u64 + client_ix as u64;
                    let mut jitter = 0x1357_9bdf ^ (client_ix as u64 + 1);
                    let mut hits = 0;
                    let mut verified = 0;
                    for _ in 0..args.requests {
                        let ix = (splitmix(&mut rng) % pool.len() as u64) as usize;
                        let req = &pool[ix];
                        let t = Instant::now();
                        let result = match client.sim_retry(req, None, policy, &mut jitter) {
                            Ok((result, tries)) => {
                                retries.fetch_add(u64::from(tries), Ordering::Relaxed);
                                result
                            }
                            Err(e) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                assert!(args.chaos, "sim request failed without chaos: {e}");
                                continue;
                            }
                        };
                        latency.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        hits += usize::from(result.cached);
                        if let Some(want) = &expected[ix] {
                            assert_eq!(
                                &result.stats, want,
                                "served stats diverged from in-process run for {:?}",
                                req.program
                            );
                            verified += 1;
                        }
                    }
                    (hits, verified)
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect();
        for m in mischief {
            m.join().expect("mischief thread panicked");
        }
        done.store(true, Ordering::Release);
        results
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (stats, server_sim_latency) = probe_server(addr)?;
    Ok(Phase {
        client_hits: per_client.iter().map(|(h, _)| h).sum(),
        verified: per_client.iter().map(|(_, v)| v).sum(),
        retries: retries.into_inner(),
        failed: failed.into_inner(),
        stats,
        latency,
        wall_ms,
        server_sim_latency,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let pool = request_pool(args.scale);
    // Expected outcomes for --verify: compile the suite once locally
    // and run every unique point through the same helper the server
    // workers use.
    let expected: Vec<Option<oov_stats::SimStats>> = if args.verify {
        println!("verify: computing {} in-process baselines...", pool.len());
        let suite = oov_bench::Suite::compile(args.scale);
        pool.iter()
            .map(|req| {
                Some(
                    oov_bench::machine_run(
                        suite.get(req.program),
                        &req.machine,
                        req.stepper,
                        req.fault_at,
                    )
                    .stats,
                )
            })
            .collect()
    } else {
        vec![None; pool.len()]
    };

    let server = if args.spawn {
        let cfg = ServeConfig {
            persist: oov_serve::PersistOptions {
                max_entries: args.cache_entries,
                ..oov_serve::PersistOptions::default()
            },
            chaos: args.chaos.then(|| ChaosConfig::light(args.chaos_seed)),
            ..ServeConfig::default()
        };
        let handle = Server::start_cfg("127.0.0.1:0", args.shards, cfg)
            .map_err(|e| format!("spawn server: {e}"))?;
        println!(
            "spawned in-process server on {}{}",
            handle.addr(),
            if args.chaos {
                " (CHAOS MODE: injecting faults on purpose)"
            } else {
                ""
            }
        );
        Some(handle)
    } else {
        None
    };
    let addr = server
        .as_ref()
        .map_or(args.addr.clone(), |h| h.addr().to_string());

    let phase = drive(&addr, &args, &pool, &expected)?;
    if args.assert_warm {
        // Driving an already-warm server (e.g. one restarted from its
        // journal after a SIGKILL): every request must be a cache hit.
        if phase.stats.result_misses > 0 {
            return Err(format!(
                "--assert-warm: server missed {} times (expected 0)",
                phase.stats.result_misses
            ));
        }
        if phase.stats.suite_compiles_smoke + phase.stats.suite_compiles_paper > 0 {
            return Err("--assert-warm: server compiled a suite (expected none)".into());
        }
        println!(
            "assert-warm: all {} requests served from cache, 0 suite compiles",
            phase.stats.requests
        );
    }
    if args.chaos {
        // The daemon must still be fully serving after the storm.
        let mut probe = Client::connect(addr.as_str())?;
        probe.ping()?;
        let after = probe.stats()?;
        let dead = after.shards_alive.iter().filter(|&&a| !a).count();
        if dead > 0 {
            return Err(format!("{dead} shards dead after the chaos run"));
        }
        println!(
            "chaos: daemon still serving; {} panics, {} respawns, {} sheds \
             survived ({} client retries, {} requests abandoned)",
            after.panics, after.respawns, after.sheds, phase.retries, phase.failed
        );
    }
    if let Some(handle) = server {
        if args.chaos {
            // Shutdown must be idempotent under racing requests: fire
            // it from several connections at once (any of them may
            // also be eaten by an injected connection drop).
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let addr = addr.as_str();
                    s.spawn(move || {
                        let _ = Client::connect(addr).and_then(|mut c| c.shutdown());
                    });
                }
            });
            // Make sure one shutdown actually landed (the concurrent
            // ones are best-effort under chaos drops).
            for _ in 0..10 {
                match Client::connect(addr.as_str()).and_then(|mut c| c.shutdown()) {
                    Ok(()) => break,
                    Err(_) => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        } else {
            Client::connect(addr.as_str())?.shutdown()?;
        }
        handle.join();
    }

    // Journal-overhead check: the identical (deterministic) workload
    // against a fresh server with the write-ahead journal on. The
    // journal batches and fsyncs on its own thread, off the job path,
    // so throughput must stay close to the journal-off phase — the
    // `bench_trend --serve-journal` gate holds the ratio under 1.1×.
    let journal_phase = if let Some(jfile) = &args.journal_file {
        let jpath = std::path::PathBuf::from(jfile);
        // Both phases start cold; drop any leftover journal state.
        std::fs::remove_file(&jpath).ok();
        std::fs::remove_file(oov_serve::journal::snapshot_path(&jpath)).ok();
        let cfg = ServeConfig {
            persist: oov_serve::PersistOptions {
                journal: Some(jpath),
                ..oov_serve::PersistOptions::default()
            },
            ..ServeConfig::default()
        };
        let handle = Server::start_cfg("127.0.0.1:0", args.shards, cfg)
            .map_err(|e| format!("spawn journaling server: {e}"))?;
        let jaddr = handle.addr().to_string();
        println!("journal check: fresh server on {jaddr} journaling to {jfile}...");
        let on = drive(&jaddr, &args, &pool, &expected)?;
        Client::connect(jaddr.as_str())?.shutdown()?;
        handle.join();
        if on.stats.journal_records == 0 {
            return Err("journal check failed: no records were journaled".into());
        }
        Some(on)
    } else {
        None
    };

    let Phase {
        latency,
        wall_ms,
        client_hits,
        verified,
        retries,
        failed,
        stats,
        server_sim_latency,
    } = phase;
    let total = latency.count() as usize;
    let throughput = total as f64 / (wall_ms / 1e3);
    println!(
        "{total} requests in {wall_ms:.1} ms = {throughput:.0} req/s \
         (p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, p99.9 {:.0} us)",
        latency.percentile(50.0) as f64 / 1e3,
        latency.percentile(90.0) as f64 / 1e3,
        latency.percentile(99.0) as f64 / 1e3,
        latency.percentile(99.9) as f64 / 1e3,
    );
    if let Some(server) = &server_sim_latency {
        // Client latency = server service time + wire round trip; both
        // sides use the same histogram buckets, so the figures line up
        // within bucket resolution plus transport cost.
        println!(
            "server-side sim latency: p50 {:.0} us, p99 {:.0} us over {} requests",
            server.percentile(50.0) as f64 / 1e3,
            server.percentile(99.0) as f64 / 1e3,
            server.count()
        );
    }
    println!(
        "cache: {} hits / {} misses (client saw {client_hits} cached); \
         suite compiles: smoke {}, paper {}; verified {verified}",
        stats.result_hits,
        stats.result_misses,
        stats.suite_compiles_smoke,
        stats.suite_compiles_paper
    );
    println!(
        "shards: {:?} requests (balance {:.3}; 1.0 = even)",
        stats.per_shard_requests, stats.shard_balance
    );
    println!(
        "health: {} panics, {} respawns, {} sheds, {} deadline drops, \
         {} cancelled mid-run; {retries} client retries, {failed} abandoned",
        stats.panics, stats.respawns, stats.sheds, stats.deadline_drops, stats.cancelled_jobs
    );
    let journal_section = journal_phase.map_or(Json::Null, |on| {
        let on_throughput = on.latency.count() as f64 / (on.wall_ms / 1e3);
        let ratio = if on_throughput > 0.0 {
            throughput / on_throughput
        } else {
            f64::INFINITY
        };
        println!(
            "journal: {on_throughput:.0} req/s journaling vs {throughput:.0} req/s off \
             (overhead ratio {ratio:.3}); {} records appended, {} rotations",
            on.stats.journal_records, on.stats.journal_rotations
        );
        Json::obj(vec![
            ("throughput_off_rps", us(throughput)),
            ("throughput_on_rps", us(on_throughput)),
            ("overhead_ratio", Json::Num((ratio * 1e3).round() / 1e3)),
            ("appended_records", on.stats.journal_records.into()),
            ("rotations", on.stats.journal_rotations.into()),
            ("wall_ms", us(on.wall_ms)),
        ])
    });

    let doc = Json::obj(vec![
        ("bench", "oov_serve".into()),
        ("scale", args.scale.name().into()),
        ("clients", args.clients.into()),
        ("requests_per_client", args.requests.into()),
        ("total_requests", total.into()),
        ("unique_points", pool.len().into()),
        ("wall_ms", us(wall_ms)),
        ("throughput_rps", us(throughput)),
        ("latency_us", latency_us(&latency)),
        (
            "server_sim_latency_us",
            server_sim_latency.as_ref().map_or(Json::Null, latency_us),
        ),
        (
            "cache",
            Json::obj(vec![
                ("result_hits", stats.result_hits.into()),
                ("result_misses", stats.result_misses.into()),
                (
                    "hit_rate",
                    Json::Num(if stats.requests > 0 {
                        ((stats.result_hits as f64 / stats.requests as f64) * 1e3).round() / 1e3
                    } else {
                        0.0
                    }),
                ),
                ("suite_requests", stats.suite_requests.into()),
                ("suite_compiles_smoke", stats.suite_compiles_smoke.into()),
                ("suite_compiles_paper", stats.suite_compiles_paper.into()),
            ]),
        ),
        (
            "per_shard_requests",
            Json::Arr(stats.per_shard_requests.iter().map(|&n| n.into()).collect()),
        ),
        (
            "shard_balance",
            Json::Num((stats.shard_balance * 1e3).round() / 1e3),
        ),
        (
            "health",
            Json::obj(vec![
                ("panics", stats.panics.into()),
                ("respawns", stats.respawns.into()),
                ("sheds", stats.sheds.into()),
                ("deadline_drops", stats.deadline_drops.into()),
                ("cancelled_jobs", stats.cancelled_jobs.into()),
                ("cache_load_skipped", stats.cache_load_skipped.into()),
                ("retries", retries.into()),
                ("failed", failed.into()),
            ]),
        ),
        ("journal", journal_section),
        ("chaos", args.chaos.into()),
        ("verified", verified.into()),
    ]);
    std::fs::write(&args.out, doc.pretty()).map_err(|e| format!("{}: {e}", args.out))?;
    println!("wrote {}", args.out);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}\n(see the doc comment at the top of loadgen.rs for usage)");
        std::process::exit(1);
    }
}
