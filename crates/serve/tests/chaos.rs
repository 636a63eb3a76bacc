//! Failure-path and chaos integration tests: injected panics answered
//! as structured errors while the worker keeps serving, worker-killing
//! panics survived by supervisor respawn, hits answered while the only
//! worker is stuck on a miss, concurrent misses of one point simulated
//! once (and recovered when their leader is killed), deadlines
//! enforced server-side, overload shed with retriable responses,
//! slowloris clients contained, and a full chaos storm (panics, kills,
//! delays, dropped connections, mischief clients) served correctly
//! under retry.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use oov_isa::{MachineConfig, OooConfig};
use oov_kernels::{Program, Scale};
use oov_serve::chaos::JobFault;
use oov_serve::{
    ChaosConfig, Client, Request, Response, RetryPolicy, ServeConfig, Server, SimError, SimRequest,
};

/// A pool of distinct smoke-scale points (distinct fingerprints, so a
/// single-shard server executes them as fresh jobs in order).
fn distinct_points(n: usize) -> Vec<SimRequest> {
    (0..n)
        .map(|i| SimRequest {
            machine: MachineConfig::Ooo(OooConfig::default().with_queue_slots(16 + i)),
            ..SimRequest::ooo_default(Program::ALL[i % Program::ALL.len()], Scale::Smoke)
        })
        .collect()
}

/// Finds a chaos seed whose single-shard plan starts with exactly the
/// given fault pattern — the tests *predict* the injection instead of
/// sampling it.
fn seed_with_plan(template: ChaosConfig, pattern: &[JobFault]) -> ChaosConfig {
    for seed in 0..1_000_000u64 {
        let cfg = ChaosConfig { seed, ..template };
        if pattern
            .iter()
            .enumerate()
            .all(|(k, want)| cfg.job_fault(0, k as u64) == *want)
        {
            return cfg;
        }
    }
    panic!("no seed matches the requested fault pattern");
}

#[test]
fn injected_panic_answers_error_and_shard_keeps_serving() {
    // Job 1 of shard 0 panics (inside catch_unwind); its neighbours
    // execute normally.
    let cfg = seed_with_plan(
        ChaosConfig {
            seed: 0,
            panic_permille: 500,
            hard_panic_permille: 0,
            delay_permille: 0,
            delay_ms: 0,
            drop_permille: 0,
        },
        &[JobFault::None, JobFault::Panic, JobFault::None],
    );
    let server = Server::start_cfg(
        "127.0.0.1:0",
        1,
        ServeConfig {
            chaos: Some(cfg),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let points = distinct_points(3);

    client.sim(&points[0]).expect("job 0 executes normally");
    let err = client
        .sim_opts(&points[1], None)
        .expect_err("job 1 must be answered as an injected panic");
    match err {
        SimError::Server(message) => {
            assert!(message.contains("panicked"), "unexpected error: {message}")
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // Same connection, same shard: still serving.
    client.sim(&points[2]).expect("job 2 executes normally");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.panics, 1, "one caught panic");
    assert_eq!(stats.respawns, 0, "the shard thread never died");
    assert_eq!(stats.shards_alive, vec![true]);
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn hard_panic_kills_the_shard_and_the_supervisor_respawns_it() {
    // Job 2 kills the shard thread outright (outside catch_unwind);
    // the respawned incarnation's plan restarts at k=0, so its first
    // two jobs are fault-free again.
    let cfg = seed_with_plan(
        ChaosConfig {
            seed: 0,
            panic_permille: 0,
            hard_panic_permille: 500,
            delay_permille: 0,
            delay_ms: 0,
            drop_permille: 0,
        },
        &[JobFault::None, JobFault::None, JobFault::HardPanic],
    );
    let server = Server::start_cfg(
        "127.0.0.1:0",
        1,
        ServeConfig {
            chaos: Some(cfg),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let points = distinct_points(3);

    client.sim(&points[0]).expect("job 0 executes normally");
    client.sim(&points[1]).expect("job 1 executes normally");
    let err = client
        .sim(&points[2])
        .expect_err("the dying shard's job is reported lost");
    assert!(err.contains("lost"), "unexpected error: {err}");
    // The respawned incarnation (its plan restarts at k=0, fault-free
    // for two jobs) serves a retry of the very job that died with the
    // old one, then a repeat of job 1 — a hit answered from the shared
    // cache, which does not die with a worker thread.
    client.sim(&points[2]).expect("retry lands on the respawn");
    client.sim(&points[1]).expect("job after the respawn");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.respawns, 1, "exactly one respawn");
    assert!(stats.panics >= 1, "the death was counted");
    assert_eq!(stats.shards_alive, vec![true], "the shard is back");
    client.shutdown().expect("shutdown");
    server.join();
}

/// Polls `probe` until it holds: a watermark wait on server
/// counters, bounded so a regression fails instead of hanging.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !probe() {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A gauge from a `metrics` snapshot.
fn gauge(client: &mut Client, name: &str) -> f64 {
    let snap = client.metrics().expect("metrics");
    match snap.get("gauges") {
        Some(oov_proto::Json::Obj(kv)) => kv
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("missing gauge {name}")),
        other => panic!("bad gauges section: {other:?}"),
    }
}

/// Single-stripe chaos plan whose first jobs follow `pattern`, with
/// no fault kind enabled that the pattern does not use.
fn plan(pattern: &[JobFault]) -> ChaosConfig {
    let needs = |f: fn(&JobFault) -> bool| if pattern.iter().any(f) { 300 } else { 0 };
    let delay_ms = pattern.iter().find_map(|f| match f {
        JobFault::Delay(d) => Some(d.as_millis() as u64),
        _ => None,
    });
    seed_with_plan(
        ChaosConfig {
            seed: 0,
            panic_permille: needs(|f| *f == JobFault::Panic),
            hard_panic_permille: needs(|f| *f == JobFault::HardPanic),
            delay_permille: needs(|f| matches!(f, JobFault::Delay(_))),
            delay_ms: delay_ms.unwrap_or(0),
            drop_permille: 0,
        },
        pattern,
    )
}

fn start_chaos(cfg: ChaosConfig) -> oov_serve::ServerHandle {
    Server::start_cfg(
        "127.0.0.1:0",
        1,
        ServeConfig {
            chaos: Some(cfg),
            ..ServeConfig::default()
        },
    )
    .expect("server start")
}

fn in_process(req: &SimRequest) -> oov_stats::SimStats {
    let suite = oov_bench::Suite::compile(req.scale);
    oov_bench::machine_run(
        suite.get(req.program),
        &req.machine,
        req.stepper,
        req.fault_at,
    )
    .stats
}

#[test]
fn a_hit_never_waits_behind_a_miss() {
    // One stripe, one worker. Job 0 (prefilling P) runs normally; job
    // 1 (the miss Q) holds the only worker for seconds.
    let delay = Duration::from_secs(3);
    let cfg = plan(&[JobFault::None, JobFault::Delay(delay)]);
    let server = start_chaos(cfg);
    let addr = server.addr();
    let points = distinct_points(2);
    let (p, q) = (points[0], points[1]);
    let mut b = Client::connect(addr).expect("connect");
    let prefill = b.sim(&p).expect("prefill P");
    assert!(!prefill.cached);

    let q_answered = AtomicBool::new(false);
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut a = Client::connect(addr).expect("connect");
            let r = a.sim(&q);
            q_answered.store(true, Ordering::SeqCst);
            r
        });
        // Watermark: the worker has dequeued Q (P's request plus Q's)
        // and now sleeps on it.
        wait_for("the worker to take Q", || {
            b.stats().expect("stats").requests >= 2
        });
        let t0 = Instant::now();
        let hit = b.sim(&p).expect("hit on P");
        let waited = t0.elapsed();
        assert!(
            !q_answered.load(Ordering::SeqCst),
            "the hit on P came back only after the miss Q ({waited:?})"
        );
        assert!(hit.cached, "P must be answered from the cache");
        assert_eq!(hit.stats, prefill.stats);
        assert!(waited < delay, "the hit waited {waited:?}");
        let q_result = a.join().expect("connection A").expect("Q simulates");
        assert!(!q_result.cached);
        assert_eq!(q_result.stats, in_process(&q));
    });

    let stats = b.stats().expect("stats");
    assert_eq!((stats.result_hits, stats.result_misses), (1, 2));
    b.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn concurrent_misses_of_one_point_simulate_once() {
    // Every client sends the same never-seen point at once; the leader
    // job sleeps long enough that the rest arrive while it is pending.
    const K: usize = 4;
    let cfg = plan(&[JobFault::Delay(Duration::from_millis(1500))]);
    let server = start_chaos(cfg);
    let addr = server.addr();
    let x = distinct_points(1)[0];
    let start = Barrier::new(K);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Client::connect(addr).expect("connect");
                    start.wait();
                    c.sim(&x).expect("sim")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let leaders = results.iter().filter(|r| !r.cached).count();
    assert_eq!(leaders, 1, "exactly one request simulates: {results:?}");
    let want = in_process(&x);
    for r in &results {
        assert_eq!(r.stats, want, "a collapsed miss diverged");
        assert_eq!(r.ideal_cycles, results[0].ideal_cycles);
        assert_eq!(r.faults_taken, results[0].faults_taken);
    }
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.result_misses, 1, "one simulation: {stats:?}");
    assert_eq!(stats.result_hits, K as u64 - 1, "the rest are hits");
    assert_eq!(stats.requests, stats.result_hits + stats.result_misses);
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn a_killed_leader_hands_its_waiters_back_and_strands_nothing() {
    // Job 0 (Z) holds the only worker while the leader for Y and two
    // waiters queue up behind it; job 1 (Y's leader) then kills the
    // worker outside catch_unwind. The respawned incarnation's plan
    // restarts at k=0, so the promoted waiter sleeps once more and
    // then simulates normally.
    let cfg = plan(&[JobFault::Delay(Duration::from_secs(1)), JobFault::HardPanic]);
    let server = start_chaos(cfg);
    let addr = server.addr();
    let points = distinct_points(2);
    let (z, y) = (points[0], points[1]);
    let mut probe = Client::connect(addr).expect("connect");
    std::thread::scope(|s| {
        let sim =
            |req: SimRequest| s.spawn(move || Client::connect(addr).expect("connect").sim(&req));
        let a = sim(z);
        wait_for("the worker to take Z", || {
            probe.stats().expect("stats").requests >= 1
        });
        let b = sim(y);
        wait_for("Y's leader to queue", || {
            gauge(&mut probe, "shard.0.queue_depth") >= 1.0
        });
        let waiters = [sim(y), sim(y)];
        // A, B, both waiters, and the probe's own `metrics` request.
        wait_for("the waiters to arrive", || {
            gauge(&mut probe, "server.inflight_requests") >= 5.0
        });

        a.join().expect("connection A").expect("Z simulates");
        let lost = b
            .join()
            .expect("connection B")
            .expect_err("the leader dies");
        assert!(lost.contains("lost"), "unexpected error: {lost}");
        let want = in_process(&y);
        let answers: Vec<_> = waiters
            .into_iter()
            .map(|w| {
                w.join()
                    .expect("waiter")
                    .expect("a waiter never inherits the error")
            })
            .collect();
        assert!(answers.iter().all(|r| r.stats == want));
        assert_eq!(
            answers.iter().filter(|r| !r.cached).count(),
            1,
            "one waiter became the new leader, the other waited on it"
        );
    });
    // No pending entry is stranded: the point is simply cached now.
    let again = probe.sim(&y).expect("Y after the kill");
    assert!(again.cached);
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.respawns, 1, "exactly one respawn");
    assert_eq!(stats.result_misses, 2, "Z, and Y once: {stats:?}");
    assert_eq!(stats.result_hits, 2, "the second waiter and the repeat");
    probe.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn expired_deadlines_answer_without_simulating() {
    let server = Server::start("127.0.0.1:0", 1).expect("server start");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let req = SimRequest::ooo_default(Program::Trfd, Scale::Smoke);

    // A zero deadline has always expired by the time the worker sees
    // the job.
    match client.sim_opts(&req, Some(0)) {
        Err(SimError::Deadline) => {}
        other => panic!("expected a deadline error, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.deadline_drops, 1);
    assert_eq!(stats.result_misses, 0, "the job must not be simulated");

    // A generous deadline passes untouched.
    client
        .sim_opts(&req, Some(60_000))
        .expect("deadline not yet expired");
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn overload_sheds_with_retriable_responses() {
    // Every job sleeps 300 ms (delay band = 1000‰), so a burst of
    // distinct points piles the single shard's queue past the cap.
    let chaos = ChaosConfig {
        seed: 1,
        panic_permille: 0,
        hard_panic_permille: 0,
        delay_permille: 1000,
        delay_ms: 300,
        drop_permille: 0,
    };
    let server = Server::start_cfg(
        "127.0.0.1:0",
        1,
        ServeConfig {
            max_queue_depth: Some(1),
            chaos: Some(chaos),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let points = distinct_points(8);

    std::thread::scope(|s| {
        let sweep_points = points.clone();
        let sweeper = s.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut rows = 0usize;
            let outcome = client
                .sweep(&sweep_points, None, |_, _| rows += 1)
                .expect("the sweep itself must not abort");
            (rows, outcome)
        });
        // While the worker sleeps on the sweep's first job, pin one
        // more admitted job in the queue from a connection that never
        // reads its reply...
        let mut probe = Client::connect(addr).expect("connect");
        wait_for("the worker to take the sweep's first job", || {
            probe.stats().expect("stats").requests >= 1
        });
        let mut pinner = TcpStream::connect(addr).expect("pinner connect");
        let pin = Request::Sim {
            req: points[6],
            deadline_ms: None,
        };
        writeln!(pinner, "{}", pin.encode()).expect("pin write");
        wait_for("a job to wait in the queue", || {
            gauge(&mut probe, "shard.0.queue_depth") >= 1.0
        });
        // ...so this `sim` meets a full queue and gets the retriable
        // overload response.
        match probe.sim_opts(&points[7], None) {
            Err(SimError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "hint must be positive");
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        drop(pinner);
        let (rows, outcome) = sweeper.join().expect("sweeper panicked");
        assert_eq!(
            rows + outcome.errors.len(),
            points.len(),
            "every row is answered exactly once"
        );
        assert!(
            !outcome.errors.is_empty(),
            "with depth cap 1 and 8 slow points, some rows must shed"
        );
        for (_, message) in &outcome.errors {
            assert!(
                message.contains("overloaded"),
                "unexpected row error: {message}"
            );
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stats.sheds > 0, "sheds must be counted: {stats:?}");
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn slowloris_client_neither_wedges_nor_blocks_shutdown() {
    let server = Server::start_cfg(
        "127.0.0.1:0",
        1,
        ServeConfig {
            drain_ms: 500,
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();

    // Hold half a request line open (no newline, never completed).
    let mut loris = TcpStream::connect(addr).expect("slowloris connect");
    loris.write_all(br#"{"cmd":"pi"#).expect("partial write");

    // The server keeps serving everyone else meanwhile.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping while slowloris holds a line");
    client
        .sim(&SimRequest::ooo_default(Program::Trfd, Scale::Smoke))
        .expect("sim while slowloris holds a line");

    // A complete ping dripped one byte at a time is answered: a line
    // that arrives in pieces is buffered, not dropped, even across a
    // mid-line pause longer than the server's 250 ms read poll.
    let mut dripper = TcpStream::connect(addr).expect("dripper connect");
    dripper.set_nodelay(true).ok();
    dripper.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let ping = format!("{}\n", Request::Ping.encode());
    for (i, byte) in ping.bytes().enumerate() {
        if i > 0 {
            let pause = if i == ping.len() / 2 { 300 } else { 10 };
            std::thread::sleep(Duration::from_millis(pause));
        }
        dripper.write_all(&[byte]).expect("drip write");
    }
    let mut line = String::new();
    BufReader::new(dripper)
        .read_line(&mut line)
        .expect("dripper read");
    assert_eq!(
        Response::decode(line.trim()).expect("decodes"),
        Response::Pong,
        "a byte-dripped ping must be answered"
    );

    // An oversized unterminated line is cut with an explicit error.
    let mut flooder = TcpStream::connect(addr).expect("flooder connect");
    flooder.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let garbage = vec![b'x'; (1 << 20) + 4096];
    flooder.write_all(&garbage).expect("flood write");
    let mut line = String::new();
    BufReader::new(flooder.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("flooder read");
    match Response::decode(line.trim()).expect("decodes") {
        Response::Error { message } => {
            assert!(message.contains("exceeds"), "unexpected error: {message}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // The same line with its newline, in one write, is cut too: the
    // cap holds on every read, not only once the peer pauses. The
    // server may close before the tail is sent, so the write's own
    // result is not the point; the reply is.
    let mut flooder = TcpStream::connect(addr).expect("flooder connect");
    flooder.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut oversized = vec![b'x'; (1 << 20) + 4096];
    oversized.push(b'\n');
    let _ = flooder.write_all(&oversized);
    let mut line = String::new();
    BufReader::new(flooder.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("flooder read");
    match Response::decode(line.trim()).expect("decodes") {
        Response::Error { message } => {
            assert!(message.contains("exceeds"), "unexpected error: {message}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // Shutdown completes promptly despite the still-open partial line:
    // connection threads poll the shutdown flag, so the slowloris
    // socket cannot pin the server past the drain budget.
    let t0 = Instant::now();
    client.shutdown().expect("shutdown");
    server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}; the slowloris connection blocked it",
        t0.elapsed()
    );
    drop(loris);
}

/// The storm: soft panics, shard kills, delays and dropped connections
/// all injected at once, with mischief clients (malformed frames and a
/// mid-sweep disconnect) running alongside. Every client retries with
/// backoff; every answered result must be bit-identical to an
/// in-process run; the daemon must still serve afterwards.
#[test]
fn chaos_storm_is_survived_with_correct_results() {
    let chaos = ChaosConfig {
        seed: 0x000C_4A05,
        panic_permille: 150,
        hard_panic_permille: 15,
        delay_permille: 50,
        delay_ms: 5,
        drop_permille: 30,
    };
    let server = Server::start_cfg(
        "127.0.0.1:0",
        2,
        ServeConfig {
            chaos: Some(chaos),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();

    let pool = distinct_points(6);
    let suite = oov_bench::Suite::compile(Scale::Smoke);
    let expected: Vec<_> = pool
        .iter()
        .map(|req| {
            oov_bench::machine_run(
                suite.get(req.program),
                &req.machine,
                req.stepper,
                req.fault_at,
            )
            .stats
        })
        .collect();

    let policy = RetryPolicy {
        max_retries: 10,
        ..RetryPolicy::default()
    };
    std::thread::scope(|s| {
        for client_ix in 0..4usize {
            let (pool, expected, policy) = (&pool, &expected, &policy);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut rng = 0xfeed ^ (client_ix as u64) << 8;
                for k in 0..40usize {
                    let ix = (client_ix + k) % pool.len();
                    let (result, _) = client
                        .sim_retry(&pool[ix], None, policy, &mut rng)
                        .expect("request failed after 10 retries");
                    assert_eq!(
                        result.stats, expected[ix],
                        "client {client_ix}: served stats diverged under chaos"
                    );
                }
            });
        }
        // Mischief: malformed frames on their own connection.
        s.spawn(move || {
            for _ in 0..5 {
                let Ok(mut sock) = TcpStream::connect(addr) else {
                    continue;
                };
                sock.set_read_timeout(Some(Duration::from_secs(5))).ok();
                let _ = sock.write_all(b"not json\n{\"cmd\":\"bogus\"}\n");
                let mut r = BufReader::new(sock);
                let mut line = String::new();
                let _ = r.read_line(&mut line);
            }
        });
        // Mischief: start a sweep, read one row, vanish.
        s.spawn(move || {
            let points = distinct_points(6);
            for _ in 0..3 {
                let Ok(mut sock) = TcpStream::connect(addr) else {
                    continue;
                };
                let req = Request::Sweep {
                    points: points.clone(),
                    deadline_ms: None,
                };
                if writeln!(sock, "{}", req.encode()).is_err() {
                    continue;
                }
                sock.set_read_timeout(Some(Duration::from_secs(5))).ok();
                let mut line = String::new();
                let _ = BufReader::new(sock).read_line(&mut line);
            }
        });
    });

    // The daemon is still fully serving, with every shard alive and
    // the health counters exported over the wire. The probe itself may
    // be hit by an injected connection drop, and a just-killed shard
    // may be mid-respawn (abandoned mischief-sweep jobs keep executing
    // for a moment), so the checks retry over fresh connections.
    let mut stats = None;
    let mut metrics = None;
    for round in 0..20 {
        let attempt = Client::connect(addr).and_then(|mut probe| {
            probe.ping()?;
            let s = probe.stats()?;
            let m = probe.metrics()?;
            Ok((s, m))
        });
        if let Ok((s, m)) = attempt {
            let all_alive = s.shards_alive.iter().all(|&a| a);
            stats = Some(s);
            metrics = Some(m);
            if all_alive {
                break;
            }
        }
        assert!(
            round < 19,
            "server not fully serving after the storm: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = stats.expect("no stats probe succeeded after the storm");
    assert_eq!(
        stats.shards_alive,
        vec![true, true],
        "dead shard: {stats:?}"
    );
    let counters = match metrics.expect("no metrics fetched").get("counters") {
        Some(oov_proto::Json::Obj(kv)) => kv.clone(),
        other => panic!("bad counters section: {other:?}"),
    };
    for key in ["shard.0.panics", "shard.0.respawns", "shard.0.sheds"] {
        assert!(
            counters.iter().any(|(n, _)| n == key),
            "missing health counter {key}"
        );
    }
    // Shutdown from three connections at once: the first caller wins
    // and every later one is answered `shutting_down` too. Each
    // connection is first proven served with a `ping` (a connection
    // the chaos plan drops is replaced), so all three are inside their
    // handler threads when the shutdowns race. An injected drop may
    // still eat a shutdown; keep asking until one lands.
    let racers: Vec<TcpStream> = (0..3)
        .map(|_| {
            (0..20)
                .find_map(|_| {
                    let mut sock = TcpStream::connect(addr).ok()?;
                    sock.set_read_timeout(Some(Duration::from_secs(10))).ok();
                    writeln!(sock, "{}", Request::Ping.encode()).ok()?;
                    let mut line = String::new();
                    BufReader::new(&sock).read_line(&mut line).ok()?;
                    (Response::decode(line.trim()).ok()? == Response::Pong).then_some(sock)
                })
                .expect("no connection answered a ping")
        })
        .collect();
    let start = Barrier::new(racers.len());
    let landed = std::thread::scope(|s| {
        let handles: Vec<_> = racers
            .into_iter()
            .map(|mut sock| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    // A dropped or already-closed connection may fail
                    // the write or read; only an answer is checked.
                    let _ = writeln!(sock, "{}", Request::Shutdown.encode());
                    let mut line = String::new();
                    let _ = BufReader::new(&sock).read_line(&mut line);
                    if line.is_empty() {
                        return false;
                    }
                    assert_eq!(
                        Response::decode(line.trim()).expect("decodes"),
                        Response::ShuttingDown,
                        "a concurrent shutdown was answered with something else"
                    );
                    true
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shutdown racer"))
            .filter(|&answered| answered)
            .count()
    });
    if landed == 0 {
        let retried = (0..20).any(|_| {
            let ok = Client::connect(addr).and_then(|mut c| c.shutdown()).is_ok();
            if !ok {
                std::thread::sleep(Duration::from_millis(50));
            }
            ok
        });
        assert!(retried, "no shutdown request landed");
    }
    server.join();
}
