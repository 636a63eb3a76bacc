//! Wire-protocol contract tests: exact encode/decode round trips for
//! every message variant, malformed-request rejection (direct and over
//! a live socket), an end-to-end integration test with concurrent
//! clients asserting served results are bit-identical to direct
//! in-process simulation, and raw-socket checks that every served
//! result line (miss, hit, single-flight waiter, sweep row, hit after a
//! journal restart) is the canonical encoding of what it decodes to.

use oov_core::{OooSim, Stepper};
use oov_isa::{CommitMode, LoadElimMode, MachineConfig, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_proto::Json;
use oov_ref::RefSim;
use oov_serve::{
    journal, Client, PersistOptions, Request, Response, ServeConfig, Server, SimRequest, SimResult,
    StatsSnapshot,
};
use oov_stats::SimStats;

fn sample_requests() -> Vec<SimRequest> {
    vec![
        SimRequest::ooo_default(Program::Trfd, Scale::Smoke),
        SimRequest {
            machine: MachineConfig::Ooo(
                OooConfig::default()
                    .with_queue_slots(128)
                    .with_phys_v_regs(32)
                    .with_memory_latency(100),
            ),
            stepper: Stepper::Naive,
            ..SimRequest::ooo_default(Program::Swm256, Scale::Paper)
        },
        SimRequest {
            machine: MachineConfig::Ooo(
                OooConfig::default().with_load_elim(LoadElimMode::SleVleSse),
            ),
            ..SimRequest::ooo_default(Program::Bdna, Scale::Smoke)
        },
        SimRequest {
            machine: MachineConfig::Ooo(OooConfig::default().with_commit(CommitMode::Late)),
            fault_at: Some(17),
            ..SimRequest::ooo_default(Program::Flo52, Scale::Smoke)
        },
        SimRequest {
            machine: MachineConfig::Ref(RefConfig {
                scalar_cache: None,
                ..RefConfig::default()
            }),
            ..SimRequest::ooo_default(Program::Tomcatv, Scale::Smoke)
        },
    ]
}

/// The three messages whose exact wire bytes are pinned below: large
/// counters, a sweep with a deadline and every escape class the writer
/// emits.
fn pinned_messages() -> (Response, Request, Response) {
    let mut stats = SimStats {
        cycles: 9_007_199_254_740_991,
        committed: 4_294_967_296,
        addr_bus_busy_cycles: 1_099_511_627_776,
        mem_requests: 123_456_789_012,
        load_requests: 98_765_432_109,
        store_requests: 24_691_356_903,
        spill_requests: 10_000_000_000,
        eliminated_scalar_loads: 65_535,
        eliminated_vector_loads: 4_095,
        eliminated_vector_words: 262_080,
        eliminated_stores: 1,
        eliminated_store_words: 128,
        branches: 999_999_999_999_999,
        mispredicts: 100_000_000_000_000,
        rename_stall_cycles: 31_337,
        queue_stall_cycles: 271_828,
        rob_stall_cycles: 314_159,
        progress_cycles: 2_251_799_813_685_248,
        ..SimStats::new()
    };
    stats.breakdown.record(
        oov_stats::UnitState::new(true, false, false),
        7_000_000_000_001,
    );
    stats
        .breakdown
        .record(oov_stats::UnitState::new(false, true, true), 42);
    stats
        .breakdown
        .record(oov_stats::UnitState::new(true, true, true), 1 << 50);
    stats.stages.fetch = 1_000_000_007;
    stats.stages.dispatch = 3;
    stats.stages.issue_v = 555_555_555_555;
    stats.stages.mem_pipe = 8_589_934_592;
    stats.stages.commit = 2_251_799_813_685_247;
    let result = Response::Result(SimResult {
        stats,
        ideal_cycles: 4_503_599_627_370_496,
        faults_taken: 17,
        cached: false,
        shard: 1,
    });
    let sweep = Request::Sweep {
        points: sample_requests(),
        deadline_ms: Some(86_400_000),
    };
    let error = Response::Error {
        message: "bad \"quoted\" C:\\path\nline two\u{1}\u{1b}\ttab\r é→".into(),
    };
    (result, sweep, error)
}

/// A sweep line in the full form: every point's canonical encoding
/// ([`SimRequest::write_json`], the bytes its fingerprint hashes), as
/// clients wrote sweeps before requests went compact.
fn full_sweep_line(points: &[SimRequest], deadline_ms: u64) -> String {
    let mut line = String::from(r#"{"type": "sweep", "points": ["#);
    for (i, point) in points.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        point.write_json(&mut line);
    }
    line + &format!(r#"], "deadline_ms": {deadline_ms}}}"#)
}

/// Exact wire bytes, recorded before the JSON writer was rewritten:
/// fingerprints hash these encodings and the journal stores them, so
/// the writer must keep reproducing them byte for byte. The full sweep
/// pin covers the canonical encoding of every point of
/// `sample_requests`; the compact pin is what the client sends for the
/// same sweep.
#[test]
fn wire_bytes_are_pinned() {
    let (result, sweep, error) = pinned_messages();
    let Request::Sweep {
        points,
        deadline_ms: Some(deadline_ms),
    } = &sweep
    else {
        unreachable!("the pinned sweep has a deadline")
    };
    let pins: [(String, &str); 4] = [
        (
            result.encode(),
            concat!(
                r#"{"type": "result", "cached": false, "shard": 1, "ideal_cycles": 4503599627370496, "faults_taken": 17"#,
                r#", "stats": {"cycles": 9007199254740991, "committed": 4294967296, "addr_bus_busy_cycles": 1099511627776, "mem_requests": 123456789012, "load_requests": 98765432109, "store_requests": 24691356903, "spill_requests": 10000000000, "eliminated_scalar_loads": 65535, "eliminated_vector_loads": 4095, "eliminated_vector_words": 262080, "eliminated_stores": 1, "eliminated_store_words": 128, "branches": 999999999999999, "mispredicts": 100000000000000, "rename_stall_cycles": 31337, "queue_stall_cycles": 271828, "rob_stall_cycles": 314159, "progress_cycles": 2251799813685248, "breakdown": [0, 0, 0, 42, 7000000000001, 0, 0, 1125899906842624], "stages": {"fetch": 1000000007, "dispatch": 3, "issue_a": 0, "issue_s": 0, "issue_v": 555555555555, "issue_mem": 0, "mem_pipe": 8589934592, "writeback": 0, "commit": 2251799813685247}}}"#,
            ),
        ),
        (
            sweep.encode(),
            concat!(
                r#"{"type": "sweep", "points": [{"program": "trfd", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {}}}, "#,
                r#"{"program": "swm256", "scale": "paper", "machine": {"machine": "ooo", "cfg": {"lat": {"memory": 100}, "phys_v_regs": 32, "queue_slots": 128}}, "stepper": "naive"}, "#,
                r#"{"program": "bdna", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {"commit": "late", "load_elim": "sle+vle+sse"}}}, "#,
                r#"{"program": "flo52", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {"commit": "late"}}, "fault_at": 17}, "#,
                r#"{"program": "tomcatv", "scale": "smoke", "machine": {"machine": "ref", "cfg": {"scalar_cache": null}}}], "deadline_ms": 86400000}"#,
            ),
        ),
        (
            full_sweep_line(points, *deadline_ms),
            concat!(
                r#"{"type": "sweep", "points": [{"program": "trfd", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {"lat": {"read_xbar": 1, "write_xbar": 2, "vstartup": 0, "scalar_simple": 2, "vector_simple": 4, "mul": 9, "div_sqrt": 34, "memory": 50, "branch": 1, "mispredict_penalty": 4}, "phys_v_regs": 16, "phys_a_regs": 64, "phys_s_regs": 64, "phys_mask_regs": 8, "queue_slots": 16, "rob_entries": 64, "commit_width": 4, "btb_entries": 64, "ras_depth": 8, "commit": "early", "load_elim": "off", "scalar_cache": {"size_bytes": 16384, "line_bytes": 32, "hit_latency": 2}}}, "stepper": "event", "fault_at": null"#,
                r#"}, {"program": "swm256", "scale": "paper", "machine": {"machine": "ooo", "cfg": {"lat": {"read_xbar": 1, "write_xbar": 2, "vstartup": 0, "scalar_simple": 2, "vector_simple": 4, "mul": 9, "div_sqrt": 34, "memory": 100, "branch": 1, "mispredict_penalty": 4}, "phys_v_regs": 32, "phys_a_regs": 64, "phys_s_regs": 64, "phys_mask_regs": 8, "queue_slots": 128, "rob_entries": 64, "commit_width": 4, "btb_entries": 64, "ras_depth": 8, "commit": "early", "load_elim": "off", "scalar_cache": {"size_bytes": 16384, "line_bytes": 32, "hit_latency": 2}}}, "stepper": "naive", "fault_at": null"#,
                r#"}, {"program": "bdna", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {"lat": {"read_xbar": 1, "write_xbar": 2, "vstartup": 0, "scalar_simple": 2, "vector_simple": 4, "mul": 9, "div_sqrt": 34, "memory": 50, "branch": 1, "mispredict_penalty": 4}, "phys_v_regs": 16, "phys_a_regs": 64, "phys_s_regs": 64, "phys_mask_regs": 8, "queue_slots": 16, "rob_entries": 64, "commit_width": 4, "btb_entries": 64, "ras_depth": 8, "commit": "late", "load_elim": "sle+vle+sse", "scalar_cache": {"size_bytes": 16384, "line_bytes": 32, "hit_latency": 2}}}, "stepper": "event", "fault_at": null"#,
                r#"}, {"program": "flo52", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {"lat": {"read_xbar": 1, "write_xbar": 2, "vstartup": 0, "scalar_simple": 2, "vector_simple": 4, "mul": 9, "div_sqrt": 34, "memory": 50, "branch": 1, "mispredict_penalty": 4}, "phys_v_regs": 16, "phys_a_regs": 64, "phys_s_regs": 64, "phys_mask_regs": 8, "queue_slots": 16, "rob_entries": 64, "commit_width": 4, "btb_entries": 64, "ras_depth": 8, "commit": "late", "load_elim": "off", "scalar_cache": {"size_bytes": 16384, "line_bytes": 32, "hit_latency": 2}}}, "stepper": "event", "fault_at": 17"#,
                r#"}, {"program": "tomcatv", "scale": "smoke", "machine": {"machine": "ref", "cfg": {"lat": {"read_xbar": 1, "write_xbar": 2, "vstartup": 1, "scalar_simple": 2, "vector_simple": 4, "mul": 9, "div_sqrt": 34, "memory": 50, "branch": 1, "mispredict_penalty": 4}, "banked_ports": true, "chain_fu": true, "chain_loads": false, "scalar_cache": null}}, "stepper": "event", "fault_at": null}], "deadline_ms": 86400000}"#,
            ),
        ),
        (
            error.encode(),
            r#"{"type": "error", "message": "bad \"quoted\" C:\\path\nline two\u0001\u001b\ttab\r é→"}"#,
        ),
    ];
    for (encoded, pinned) in pins {
        assert_eq!(encoded, pinned);
    }
}

#[test]
fn every_request_variant_round_trips() {
    let mut variants = vec![Request::Ping, Request::Metrics, Request::Shutdown];
    for req in sample_requests() {
        variants.push(Request::Sim {
            req,
            deadline_ms: None,
        });
    }
    variants.push(Request::Sim {
        req: SimRequest::ooo_default(Program::Trfd, Scale::Smoke),
        deadline_ms: Some(250),
    });
    variants.push(Request::Sweep {
        points: sample_requests(),
        deadline_ms: None,
    });
    variants.push(Request::Sweep {
        points: sample_requests(),
        deadline_ms: Some(10_000),
    });
    for v in variants {
        let line = v.encode();
        assert!(!line.contains('\n'), "encoding must be one line: {line}");
        assert_eq!(Request::decode(&line).unwrap(), v, "round trip of {line}");
    }
}

#[test]
fn every_response_variant_round_trips() {
    let mut stats = SimStats {
        cycles: 123_456,
        committed: 9_999,
        mem_requests: 1_234,
        rename_stall_cycles: 7,
        ..SimStats::new()
    };
    stats
        .breakdown
        .record(oov_stats::UnitState::new(true, true, false), 41);
    let result = SimResult {
        stats,
        ideal_cycles: 100_000,
        faults_taken: 1,
        cached: true,
        shard: 3,
    };
    let variants = vec![
        Response::Pong,
        Response::ShuttingDown,
        Response::Error {
            message: "bad \"quoted\" request\nwith a newline".into(),
        },
        Response::Result(result.clone()),
        Response::SweepRow { index: 4, result },
        Response::SweepRowError {
            index: 7,
            message: "job panicked on shard 1: chaos".into(),
        },
        Response::SweepDone { count: 12 },
        Response::Overloaded { retry_after_ms: 40 },
        Response::DeadlineExceeded,
        Response::Metrics {
            snapshot: {
                let reg = oov_obs::Registry::new();
                reg.counter("cache.result_hits").add(3);
                reg.gauge("server.inflight_requests").set(1);
                let h = reg.histogram("request.sim.latency_ns");
                h.record(1_234);
                h.record(987_654);
                reg.snapshot()
            },
        },
    ];
    for v in variants {
        let line = v.encode();
        assert!(!line.contains('\n'), "encoding must be one line: {line}");
        assert_eq!(Response::decode(&line).unwrap(), v, "round trip of {line}");
    }
}

#[test]
fn oversized_sweeps_are_rejected_at_decode_time() {
    use oov_serve::proto::MAX_SWEEP_POINTS;
    let at_cap = Request::Sweep {
        points: vec![SimRequest::ooo_default(Program::Trfd, Scale::Smoke); MAX_SWEEP_POINTS],
        deadline_ms: None,
    };
    assert!(
        Request::decode(&at_cap.encode()).is_ok(),
        "cap is inclusive"
    );
    let over = Request::Sweep {
        points: vec![SimRequest::ooo_default(Program::Trfd, Scale::Smoke); MAX_SWEEP_POINTS + 1],
        deadline_ms: None,
    };
    let err = Request::decode(&over.encode()).unwrap_err();
    assert!(
        err.contains("cap") && err.contains(&MAX_SWEEP_POINTS.to_string()),
        "error must name the cap: {err}"
    );
}

#[test]
fn malformed_requests_are_rejected() {
    for bad in [
        "",
        "not json at all",
        "{}",
        r#"{"type": "launch_missiles"}"#,
        // `stats` is a client-side view over `metrics`, not a message.
        r#"{"type": "stats"}"#,
        r#"{"type": "sim"}"#,
        r#"{"type": "sim", "program": "nope", "scale": "smoke"}"#,
        r#"{"type": "sim", "program": "trfd", "scale": "galactic"}"#,
        r#"{"type": "sweep", "points": []}"#,
        r#"{"type": "sweep", "points": [{"program": "trfd"}]}"#,
        // `deadline_ms` must be a non-negative integer when present.
        r#"{"type": "sim", "program": "trfd", "scale": "smoke", "stepper": "event",
            "machine": {"machine": "ref", "cfg": {}}, "deadline_ms": -5}"#,
        r#"{"type": "sim", "program": "trfd", "scale": "smoke", "stepper": "event",
            "machine": {"machine": "ref", "cfg": {}}, "deadline_ms": "soon"}"#,
        // Structurally valid JSON whose config violates machine bounds.
        r#"{"type": "sim", "program": "trfd", "scale": "smoke", "stepper": "event",
            "machine": {"machine": "ooo", "cfg": {"phys_v_regs": 4}}}"#,
    ] {
        assert!(
            Request::decode(bad.trim()).is_err(),
            "accepted malformed request {bad:?}"
        );
    }
}

/// Spawned-server integration: ≥4 concurrent clients, each mixing
/// sims and a sweep, every served result bit-identical to a direct
/// in-process simulation; plus malformed-line handling on a live
/// socket and the memoisation counters.
#[test]
fn concurrent_clients_get_bit_identical_results() {
    let server = Server::start("127.0.0.1:0", 3).expect("server start");
    let addr = server.addr();

    // Direct (in-process) baselines, one per point.
    let points = [
        (Program::Trfd, OooConfig::default()),
        (Program::Dyfesm, OooConfig::default().with_queue_slots(128)),
        (
            Program::Swm256,
            OooConfig::default().with_memory_latency(100),
        ),
        (
            Program::Bdna,
            OooConfig::default().with_load_elim(LoadElimMode::SleVle),
        ),
    ];
    let baselines: Vec<SimStats> = points
        .iter()
        .map(|&(p, cfg)| {
            let prog = p.compile(Scale::Smoke);
            OooSim::new(cfg, &prog.trace).run().stats
        })
        .collect();
    let ref_baseline = {
        let prog = Program::Tomcatv.compile(Scale::Smoke);
        RefSim::new(RefConfig::default()).run(&prog.trace)
    };

    std::thread::scope(|s| {
        for client_ix in 0..4 {
            let points = &points;
            let baselines = &baselines;
            let ref_baseline = &ref_baseline;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                // Each client walks the points from a different start.
                for k in 0..points.len() {
                    let ix = (client_ix + k) % points.len();
                    let (p, cfg) = points[ix];
                    let req = SimRequest {
                        machine: MachineConfig::Ooo(cfg),
                        ..SimRequest::ooo_default(p, Scale::Smoke)
                    };
                    let got = client.sim(&req).expect("sim");
                    assert_eq!(
                        got.stats, baselines[ix],
                        "client {client_ix}: served stats for {p} diverged"
                    );
                }
                // A sweep mixing both machines, rows in request order.
                let sweep: Vec<SimRequest> = points
                    .iter()
                    .map(|&(p, cfg)| SimRequest {
                        machine: MachineConfig::Ooo(cfg),
                        ..SimRequest::ooo_default(p, Scale::Smoke)
                    })
                    .chain(std::iter::once(SimRequest {
                        machine: MachineConfig::Ref(RefConfig::default()),
                        ..SimRequest::ooo_default(Program::Tomcatv, Scale::Smoke)
                    }))
                    .collect();
                let mut seen = Vec::new();
                let outcome = client
                    .sweep(&sweep, None, |index, result| seen.push((index, result)))
                    .expect("sweep");
                assert_eq!(outcome.errors, Vec::new(), "no row may fail");
                assert_eq!(outcome.completed, sweep.len());
                let indices: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
                assert_eq!(
                    indices,
                    (0..sweep.len()).collect::<Vec<_>>(),
                    "rows out of order"
                );
                for (i, result) in &seen[..points.len()] {
                    assert_eq!(&result.stats, &baselines[*i], "sweep row {i} diverged");
                }
                assert_eq!(
                    &seen[points.len()].1.stats,
                    ref_baseline,
                    "ref row diverged"
                );
            });
        }
    });

    // Malformed lines and unknown types get an error response and
    // leave the connection usable.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
        stream.set_nodelay(true).ok();
        writeln!(stream, "this is not a request").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::decode(line.trim()).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("malformed"), "unexpected error: {message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
        // `stats` is computed client-side from `metrics`; the server
        // knows no such message and says so.
        writeln!(stream, r#"{{"type": "stats"}}"#).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            Response::decode(line.trim()).unwrap(),
            Response::Error {
                message: "request: unknown type `stats`".into()
            }
        );
        writeln!(stream, "{}", Request::Ping.encode()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::decode(line.trim()).unwrap(), Response::Pong);
    }

    // Memoisation held: many requests, exactly one smoke-suite
    // compile; the unique (program × config) points simulated once
    // each and every repeat was a cache hit.
    let stats = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(
        stats.suite_compiles_smoke, 1,
        "suite compiled more than once"
    );
    assert_eq!(stats.suite_compiles_paper, 0);
    assert_eq!(stats.result_misses, 5, "expected one miss per unique point");
    assert!(
        stats.result_hits >= 4 * 9 - 5,
        "expected most requests to hit the cache: {stats:?}"
    );
    assert_eq!(stats.requests, stats.result_hits + stats.result_misses);

    // Client-driven shutdown terminates the server cleanly.
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join();
}

/// A config with an optional journal and per-stripe cap.
fn persist_cfg(journal: Option<&std::path::Path>, max_entries: Option<usize>) -> ServeConfig {
    ServeConfig {
        persist: PersistOptions {
            journal: journal.map(std::path::Path::to_path_buf),
            max_entries,
            ..PersistOptions::default()
        },
        ..ServeConfig::default()
    }
}

/// Cache persistence across a graceful restart: a server journals
/// every result and compacts at shutdown (the journal ends empty, the
/// snapshot holds everything); a fresh server on the same journal —
/// with a *different* shard count, so routing is recomputed — answers
/// the same requests as cache hits, bit-identical, without simulating
/// or compiling anything.
#[test]
fn result_caches_survive_a_restart() {
    let jpath = std::env::temp_dir().join(format!("oov_serve_cache_{}.wal", std::process::id()));
    let snap = journal::snapshot_path(&jpath);
    let _ = std::fs::remove_file(&jpath);
    let _ = std::fs::remove_file(&snap);
    let points = [
        SimRequest::ooo_default(Program::Trfd, Scale::Smoke),
        SimRequest::ooo_default(Program::Dyfesm, Scale::Smoke),
        SimRequest {
            machine: MachineConfig::Ooo(OooConfig::default().with_queue_slots(128)),
            ..SimRequest::ooo_default(Program::Swm256, Scale::Smoke)
        },
        SimRequest {
            machine: MachineConfig::Ref(RefConfig::default()),
            ..SimRequest::ooo_default(Program::Bdna, Scale::Smoke)
        },
    ];

    // Phase 1: cold server simulates everything, compacts at shutdown.
    let server =
        Server::start_cfg("127.0.0.1:0", 3, persist_cfg(Some(&jpath), None)).expect("server start");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let cold: Vec<SimResult> = points
        .iter()
        .map(|req| client.sim(req).expect("cold sim"))
        .collect();
    assert!(cold.iter().all(|r| !r.cached));
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join();
    assert_eq!(
        std::fs::metadata(&jpath).expect("journal exists").len(),
        0,
        "graceful shutdown must compact the journal away"
    );
    assert!(snap.exists(), "no snapshot written at shutdown");

    // Phase 2: warm server answers everything from the snapshot.
    let server = Server::start_cfg(
        "127.0.0.1:0",
        2, // different shard count: recovery must re-route
        persist_cfg(Some(&jpath), None),
    )
    .expect("warm server start");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    for (req, cold) in points.iter().zip(&cold) {
        let warm = client.sim(req).expect("warm sim");
        assert!(warm.cached, "warm server missed {:?}", req.program);
        assert_eq!(
            warm.stats, cold.stats,
            "cached stats not bit-identical after the JSON round trip"
        );
        assert_eq!(warm.ideal_cycles, cold.ideal_cycles);
        assert_eq!(warm.faults_taken, cold.faults_taken);
    }
    let stats = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.result_misses, 0, "warm server simulated something");
    assert_eq!(
        stats.suite_compiles_smoke + stats.suite_compiles_paper,
        0,
        "warm server compiled a suite"
    );
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join();
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
}

/// `stats` is a view over `metrics`: after a run with misses, hits and
/// an eviction, every `StatsSnapshot` field equals the registry value
/// (or the sum, or the balance ratio, of the per-stripe ones) that the
/// same server reports in `metrics`. The registry's gauges and latency
/// histograms decode and cover every request too.
#[test]
fn stats_is_a_view_over_metrics() {
    let jpath = std::env::temp_dir().join(format!("oov_serve_view_{}.wal", std::process::id()));
    let snap = journal::snapshot_path(&jpath);
    let _ = std::fs::remove_file(&jpath);
    let _ = std::fs::remove_file(&snap);
    // Two stripes of one entry each: four distinct points put at least
    // two in one stripe, so at least one is evicted.
    let server = Server::start_cfg("127.0.0.1:0", 2, persist_cfg(Some(&jpath), Some(1)))
        .expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let points = [
        Program::Trfd,
        Program::Dyfesm,
        Program::Nasa7,
        Program::Bdna,
    ]
    .map(|p| SimRequest::ooo_default(p, Scale::Smoke));
    for p in &points {
        assert!(!client.sim(p).expect("cold sim").cached);
    }
    // The last point is the newest entry of its stripe: a hit.
    assert!(client.sim(&points[3]).expect("warm sim").cached);
    // Wait on the journal's durable watermark, so nothing moves
    // between the two reads below.
    let t0 = std::time::Instant::now();
    while client.stats().expect("stats").journal_records < 4 {
        assert!(t0.elapsed().as_secs() < 10, "journal never caught up");
        std::thread::yield_now();
    }

    let stats = client.stats().expect("stats");
    let m = client.metrics().expect("metrics");
    let metric = |section: &str, name: &str| {
        m.get(section)
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metrics lacks {section} {name}"))
    };
    let counter = |name: &str| metric("counters", name) as u64;
    let shard = |name: &str| [0, 1].map(|n| counter(&format!("shard.{n}.{name}")));
    let sum = |name: &str| shard(name).iter().sum::<u64>();
    let requests = sum("requests");
    let min = shard("requests").into_iter().min().unwrap() as f64;
    // A struct literal without `..`: a new `StatsSnapshot` field fails
    // to compile here until this test covers it.
    let view = StatsSnapshot {
        requests,
        result_hits: counter("cache.result_hits"),
        result_misses: counter("cache.result_misses"),
        result_evictions: counter("cache.result_evictions"),
        suite_requests: counter("cache.suite_requests"),
        suite_compiles_smoke: counter("cache.suite_compiles_smoke"),
        suite_compiles_paper: counter("cache.suite_compiles_paper"),
        per_shard_requests: shard("requests").to_vec(),
        shard_balance: min / (requests as f64 / 2.0),
        panics: sum("panics"),
        respawns: sum("respawns"),
        sheds: sum("sheds"),
        deadline_drops: counter("server.deadline_drops"),
        cancelled_jobs: counter("server.cancelled_jobs"),
        cache_load_skipped: counter("cache.load_skipped"),
        journal_records: counter("journal.appended_records"),
        journal_rotations: counter("journal.rotations"),
        journal_recovered: counter("journal.recovered_records"),
        shards_alive: [0, 1]
            .map(|n| metric("gauges", &format!("shard.{n}.alive")) != 0.0)
            .to_vec(),
    };
    assert_eq!(stats, view);
    // The run really exercised what it claims to.
    assert_eq!((stats.result_misses, stats.result_hits), (4, 1));
    assert!(stats.result_evictions >= 1, "no eviction happened");
    assert_eq!((stats.suite_requests, stats.suite_compiles_smoke), (4, 1));

    // The `metrics` request itself is the only one in flight, and every
    // dispatched job has been drained.
    assert_eq!(metric("gauges", "server.inflight_requests"), 1.0);
    assert_eq!(
        metric("gauges", "shard.0.queue_depth") + metric("gauges", "shard.1.queue_depth"),
        0.0
    );
    let hist = |name: &str| {
        let j = m.get("histograms").and_then(|h| h.get(name));
        oov_obs::Histogram::from_json(j.expect("histogram")).expect("histogram decodes")
    };
    let sim_lat = hist("request.sim.latency_ns");
    assert_eq!(sim_lat.count(), 5);
    assert!(sim_lat.max() > 0, "sim requests take measurable time");
    assert!(sim_lat.percentile(50.0) <= sim_lat.percentile(99.0));
    assert!(sim_lat.percentile(99.0) <= sim_lat.max());
    let service: u64 = (0..2)
        .map(|s| hist(&format!("shard.{s}.service_ns")).count())
        .sum();
    assert_eq!(service, requests, "every job's service time lands");

    client.shutdown().expect("shutdown");
    server.join();
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
}

/// The `--cache-entries` LRU cap: with one shard bounded to two
/// entries, a third distinct request evicts the least-recently-used
/// result; warm entries keep answering as hits, and a re-request of
/// the evicted point is a fresh (but still bit-identical) miss.
#[test]
fn bounded_result_cache_evicts_lru_and_keeps_warm_hits() {
    // One shard, so every request shares the bounded cache.
    let server =
        Server::start_cfg("127.0.0.1:0", 1, persist_cfg(None, Some(2))).expect("server start");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    let reqs = [
        SimRequest::ooo_default(Program::Trfd, Scale::Smoke),
        SimRequest::ooo_default(Program::Dyfesm, Scale::Smoke),
        SimRequest::ooo_default(Program::Nasa7, Scale::Smoke),
    ];
    // Fill: A, B hit capacity; C evicts A (the LRU entry).
    let first: Vec<SimResult> = reqs
        .iter()
        .map(|r| client.sim(r).expect("cold sim"))
        .collect();
    assert!(first.iter().all(|r| !r.cached));

    // B is still resident (warm hit refreshes its stamp)...
    let b = client.sim(&reqs[1]).expect("warm sim");
    assert!(b.cached, "B should still be cached");
    assert_eq!(b.stats, first[1].stats);

    // ...so re-requesting A misses (it was evicted), recomputes
    // bit-identically, and evicts C (now the LRU entry, since B was
    // just touched).
    let a = client.sim(&reqs[0]).expect("re-sim of evicted point");
    assert!(!a.cached, "A should have been evicted");
    assert_eq!(a.stats, first[0].stats, "recomputed result diverged");

    // B survived both evictions.
    let b2 = client.sim(&reqs[1]).expect("warm sim");
    assert!(b2.cached, "B should have survived both evictions");

    let stats = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.result_misses, 4, "A, B, C cold + A recomputed");
    assert_eq!(stats.result_hits, 2, "two warm hits on B");
    assert_eq!(stats.result_evictions, 2, "A then C evicted");

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join();
}

/// One raw connection: requests go out as encoded lines, and responses
/// come back as the exact bytes the server wrote.
struct RawConn {
    writer: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        let writer = std::net::TcpStream::connect(addr).expect("raw connect");
        writer.set_nodelay(true).ok();
        let reader = std::io::BufReader::new(writer.try_clone().expect("clone stream"));
        RawConn { writer, reader }
    }

    fn send(&mut self, req: &Request) {
        self.send_line(&req.encode());
    }

    fn send_line(&mut self, line: &str) {
        use std::io::Write;
        writeln!(self.writer, "{line}").expect("send");
    }

    /// The next response line, without its newline.
    fn line(&mut self) -> String {
        use std::io::BufRead;
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read line");
        assert!(line.ends_with('\n'), "unterminated line {line:?}");
        line.pop();
        line
    }

    fn sim(&mut self, req: &SimRequest) -> String {
        self.send(&Request::Sim {
            req: *req,
            deadline_ms: None,
        });
        self.line()
    }
}

/// Asserts that `line` is a result reply (a sweep row when `index` is
/// set) whose bytes are the canonical encoding of what it decodes to,
/// both as a `Response` and as a plain JSON value, with the expected
/// `cached` flag and shard; returns the result.
fn canonical_result(line: &str, index: Option<usize>, cached: bool, shard: usize) -> SimResult {
    let resp = Response::decode(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    assert_eq!(resp.encode(), line, "served bytes are not canonical");
    // The reply header is the JSON writer's own layout too.
    assert_eq!(Json::parse(line).expect("parse").encode(), line);
    let (got_index, result) = match resp {
        Response::Result(r) => (None, r),
        Response::SweepRow { index, result } => (Some(index), result),
        other => panic!("expected a result, got {other:?}"),
    };
    assert_eq!(got_index, index);
    assert_eq!(result.cached, cached, "wrong `cached` in {line}");
    assert_eq!(result.shard, shard, "wrong shard in {line}");
    result
}

/// The line a hit on `shard` must be: the miss's line with only its
/// header changed, since both are encoded from the one stored result.
fn as_hit(miss_line: &str, shard: usize) -> String {
    let miss = Response::decode(miss_line).expect("decode miss");
    let Response::Result(result) = miss else {
        panic!("not a result: {miss_line}")
    };
    Response::Result(SimResult {
        cached: true,
        shard,
        ..result
    })
    .encode()
}

fn stripe_of(req: &SimRequest, stripes: u64) -> usize {
    (req.fingerprint() % stripes) as usize
}

/// A miss, a hit, and a sweep with a hit row and a miss row, read as
/// raw bytes: every line is canonical, and a hit is the miss's bytes
/// under a `cached: true` header.
#[test]
fn served_result_lines_are_canonical_bytes() {
    let server = Server::start("127.0.0.1:0", 2).expect("server start");
    let mut conn = RawConn::connect(server.addr());
    let x = SimRequest::ooo_default(Program::Trfd, Scale::Smoke);
    let y = SimRequest {
        machine: MachineConfig::Ref(RefConfig::default()),
        ..SimRequest::ooo_default(Program::Dyfesm, Scale::Smoke)
    };
    let (sx, sy) = (stripe_of(&x, 2), stripe_of(&y, 2));

    let miss = conn.sim(&x);
    let cold = canonical_result(&miss, None, false, sx);
    let hit = conn.sim(&x);
    let warm = canonical_result(&hit, None, true, sx);
    assert_eq!(hit, as_hit(&miss, sx));
    assert_eq!(
        (warm.stats, warm.ideal_cycles),
        (cold.stats, cold.ideal_cycles)
    );

    conn.send(&Request::Sweep {
        points: vec![x, y],
        deadline_ms: None,
    });
    let row_hit = canonical_result(&conn.line(), Some(0), true, sx);
    assert_eq!(row_hit.stats, cold.stats);
    canonical_result(&conn.line(), Some(1), false, sy);
    assert_eq!(
        Response::decode(&conn.line()).expect("sweep done"),
        Response::SweepDone { count: 2 }
    );
    // The miss row was cached on its way out: a `sim` of it hits.
    canonical_result(&conn.sim(&y), None, true, sy);

    server.stop();
}

/// Lines as an older client wrote them, every config field spelt out,
/// and the compact lines the client writes now name the same cache
/// entries: a compact `sim` after a full one, and a compact `sweep`
/// after a full one, are answered from the cache with the same results.
#[test]
fn full_and_compact_lines_share_cache_entries() {
    const FULL_SIM: &str = concat!(
        r#"{"type": "sim", "program": "swm256", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {"lat": {"read_xbar": 1, "write_xbar": 2, "#,
        r#""vstartup": 0, "scalar_simple": 2, "vector_simple": 4, "mul": 9, "div_sqrt": 34, "memory": 50, "branch": 1, "mispredict_penalty": 4}, "#,
        r#""phys_v_regs": 16, "phys_a_regs": 64, "phys_s_regs": 64, "phys_mask_regs": 8, "queue_slots": 16, "rob_entries": 64, "commit_width": 4, "#,
        r#""btb_entries": 64, "ras_depth": 8, "commit": "early", "load_elim": "off", "#,
        r#""scalar_cache": {"size_bytes": 16384, "line_bytes": 32, "hit_latency": 2}}}, "stepper": "event", "fault_at": null}"#,
    );
    assert_eq!(FULL_SIM.len(), 591);
    let x = SimRequest::ooo_default(Program::Swm256, Scale::Smoke);
    let compact = Request::Sim {
        req: x,
        deadline_ms: None,
    }
    .encode();
    assert!(compact.len() < 100, "{compact}");
    let server = Server::start("127.0.0.1:0", 2).expect("server start");
    let mut conn = RawConn::connect(server.addr());
    conn.send_line(FULL_SIM);
    let cold = canonical_result(&conn.line(), None, false, stripe_of(&x, 2));
    let warm = canonical_result(&conn.sim(&x), None, true, stripe_of(&x, 2));
    assert_eq!(
        warm,
        SimResult {
            cached: true,
            ..cold
        }
    );

    let points = [
        SimRequest {
            machine: MachineConfig::Ref(RefConfig::default().with_memory_latency(20)),
            ..SimRequest::ooo_default(Program::Trfd, Scale::Smoke)
        },
        SimRequest {
            machine: MachineConfig::Ooo(
                OooConfig::default()
                    .with_phys_v_regs(32)
                    .with_load_elim(LoadElimMode::SleVle),
            ),
            ..SimRequest::ooo_default(Program::Dyfesm, Scale::Smoke)
        },
    ];
    let mut sweep = |line: &str, cached: bool| -> Vec<SimResult> {
        conn.send_line(line);
        let rows = points
            .iter()
            .enumerate()
            .map(|(i, p)| canonical_result(&conn.line(), Some(i), cached, stripe_of(p, 2)))
            .collect();
        assert_eq!(
            Response::decode(&conn.line()),
            Ok(Response::SweepDone { count: 2 })
        );
        rows
    };
    let cold = sweep(&full_sweep_line(&points, 60_000), false);
    let compact = Request::Sweep {
        points: points.to_vec(),
        deadline_ms: Some(60_000),
    }
    .encode();
    let warm = sweep(&compact, true);
    for (cold, warm) in cold.into_iter().zip(warm) {
        assert_eq!(
            warm,
            SimResult {
                cached: true,
                ..cold
            }
        );
    }
    server.stop();
}

/// A request that waits on an in-flight simulation of its point (a
/// single-flight waiter) is answered with the leader's stored bytes
/// under a `cached: true` header.
#[test]
fn a_single_flight_waiter_gets_canonical_bytes() {
    // Every job sleeps before it simulates, so the waiter arrives
    // while its leader is pending.
    let chaos = oov_serve::ChaosConfig {
        seed: 0,
        panic_permille: 0,
        hard_panic_permille: 0,
        delay_permille: 1000,
        delay_ms: 750,
        drop_permille: 0,
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
    let x = SimRequest::ooo_default(Program::Bdna, Scale::Smoke);
    let shard = stripe_of(&x, 2);
    let mut probe = Client::connect(addr).expect("connect");
    let mut leader = RawConn::connect(addr);
    leader.send(&Request::Sim {
        req: x,
        deadline_ms: None,
    });
    // A worker has taken the leader's job and is sleeping on it.
    let t0 = std::time::Instant::now();
    while probe.stats().expect("stats").requests < 1 {
        assert!(t0.elapsed().as_secs() < 10, "no worker took the job");
        std::thread::yield_now();
    }
    let mut waiter = RawConn::connect(addr);
    waiter.send(&Request::Sim {
        req: x,
        deadline_ms: None,
    });
    // Leader, waiter and the probe's own `metrics` request in flight
    // at once: the waiter arrived before the leader was answered.
    let inflight = |probe: &mut Client| {
        let m = probe.metrics().expect("metrics");
        m.get("gauges")
            .and_then(|g| g.get("server.inflight_requests"))
            .and_then(Json::as_f64)
            .expect("inflight gauge")
    };
    while inflight(&mut probe) < 3.0 {
        assert!(t0.elapsed().as_secs() < 10, "the waiter never arrived");
        std::thread::yield_now();
    }
    let miss = leader.line();
    canonical_result(&miss, None, false, shard);
    let waited = waiter.line();
    canonical_result(&waited, None, true, shard);
    assert_eq!(waited, as_hit(&miss, shard));
    let stats = probe.stats().expect("stats");
    assert_eq!((stats.result_misses, stats.result_hits), (1, 1));

    // Once the point is ready, a `sim` for it is answered straight from
    // the lookup, with no reply channel, and counts as the waiter's hit
    // did: one hit and one request on the point's stripe, and one
    // service sample, within the request's own round trip.
    let before = probe.metrics().expect("metrics");
    let sent = std::time::Instant::now();
    waiter.send(&Request::Sim {
        req: x,
        deadline_ms: None,
    });
    assert_eq!(waiter.line(), waited);
    let round_trip = sent.elapsed().as_nanos() as u64;
    let after = probe.metrics().expect("metrics");
    let moved = |name: &str| {
        let counter = |m: &Json| {
            m.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("metrics lacks {name}"))
        };
        counter(&after) - counter(&before)
    };
    assert_eq!(moved("cache.result_hits"), 1);
    assert_eq!(moved("cache.result_misses"), 0);
    assert_eq!(moved(&format!("shard.{shard}.requests")), 1);
    let service = |m: &Json| {
        let j = m
            .get("histograms")
            .and_then(|h| h.get(&format!("shard.{shard}.service_ns")));
        oov_obs::Histogram::from_json(j.expect("histogram")).expect("histogram decodes")
    };
    let (was, now) = (service(&before), service(&after));
    assert_eq!(now.count() - was.count(), 1);
    assert!(
        now.sum() - was.sum() <= round_trip,
        "a hit's service outlasted its request"
    );
    server.stop();
}

/// A hit answered from a recovered journal carries bytes re-encoded
/// from the snapshot, on the stripe the new shard count maps it to,
/// and they equal the cold server's bytes under a hit header.
#[test]
fn a_hit_after_a_journal_restart_is_canonical() {
    let jpath = std::env::temp_dir().join(format!("oov_serve_bytes_{}.wal", std::process::id()));
    let snap = journal::snapshot_path(&jpath);
    let _ = std::fs::remove_file(&jpath);
    let _ = std::fs::remove_file(&snap);
    let points = [
        SimRequest::ooo_default(Program::Flo52, Scale::Smoke),
        SimRequest {
            machine: MachineConfig::Ooo(OooConfig::default().with_load_elim(LoadElimMode::SleVle)),
            ..SimRequest::ooo_default(Program::Nasa7, Scale::Smoke)
        },
    ];
    let server =
        Server::start_cfg("127.0.0.1:0", 2, persist_cfg(Some(&jpath), None)).expect("server start");
    let mut conn = RawConn::connect(server.addr());
    let cold: Vec<String> = points.iter().map(|p| conn.sim(p)).collect();
    for (p, line) in points.iter().zip(&cold) {
        canonical_result(line, None, false, stripe_of(p, 2));
    }
    drop(conn);
    server.stop();

    let server = Server::start_cfg("127.0.0.1:0", 3, persist_cfg(Some(&jpath), None))
        .expect("warm server start");
    let mut conn = RawConn::connect(server.addr());
    for (p, cold) in points.iter().zip(&cold) {
        let shard = stripe_of(p, 3);
        let warm = conn.sim(p);
        canonical_result(&warm, None, true, shard);
        assert_eq!(warm, as_hit(cold, shard));
    }
    drop(conn);
    server.stop();
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
}
