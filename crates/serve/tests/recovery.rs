//! Durability and cancellation integration tests: a SIGKILLed server
//! restarts warm from its write-ahead journal, arbitrary journal
//! corruption recovers exactly the intact-record prefix without ever
//! panicking or serving a corrupted result, a torn snapshot serves its
//! intact prefix warm, a capped restart keeps the newest entries, an
//! unreadable snapshot turns journaling off without touching either
//! file, and a `deadline_ms`
//! expiring *mid-simulation* aborts the run cooperatively instead of
//! completing it. Durability is awaited on the journal's watermark
//! (`journal_records`, counted after `sync_data`), never by sleeping.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use oov_core::Stepper;
use oov_isa::{MachineConfig, OooConfig};
use oov_kernels::{Program, Scale};
use oov_serve::{
    journal, CacheLine, Client, PersistOptions, ServeConfig, Server, ServerHandle, SimError,
    SimRequest, SimResult,
};
use oov_stats::SimStats;

/// A pool of distinct smoke-scale points (distinct fingerprints).
fn distinct_points(n: usize) -> Vec<SimRequest> {
    (0..n)
        .map(|i| SimRequest {
            machine: MachineConfig::Ooo(OooConfig::default().with_queue_slots(16 + i)),
            ..SimRequest::ooo_default(Program::ALL[i % Program::ALL.len()], Scale::Smoke)
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oov_recovery_{}_{name}", std::process::id()))
}

/// A real `serve` process (the compiled binary, not an in-process
/// server) — the only way to test recovery from an actual SIGKILL.
struct ServeProc {
    child: Child,
    addr: String,
    // Held open so the child's stdout writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

fn spawn_serve(args: &[&str]) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve binary");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read listen banner");
    // "oov-serve listening on 127.0.0.1:<port> (<n> shards)"
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();
    ServeProc {
        child,
        addr,
        _stdout: stdout,
    }
}

/// Polls `stats` until the journal's durable watermark reaches `n`.
fn await_journal_records(client: &mut Client, n: u64) {
    let t0 = Instant::now();
    while client.stats().expect("stats").journal_records < n {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "journal writer never made {n} records durable"
        );
        std::thread::yield_now();
    }
}

/// An in-process server journaling to `jpath`.
fn start_journaled(jpath: &Path, n_shards: usize) -> ServerHandle {
    Server::start_cfg(
        "127.0.0.1:0",
        n_shards,
        ServeConfig {
            persist: PersistOptions {
                journal: Some(jpath.to_path_buf()),
                ..PersistOptions::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("server start")
}

/// A made-up result for `point`: the cache serves what the journal
/// says, so these numbers must come back bit for bit.
fn made_up_line(point: &SimRequest, i: usize, cycles: u64) -> CacheLine {
    let mut stats = SimStats {
        cycles,
        committed: 4_294_967_296 + i as u64,
        branches: 999_999_999_999_999,
        ..SimStats::new()
    };
    stats
        .breakdown
        .record(oov_stats::UnitState::new(true, false, true), 1 << 50);
    CacheLine {
        key: point.fingerprint(),
        machine_fp: point.machine.fingerprint(),
        result: SimResult {
            stats,
            ideal_cycles: 4_503_599_627_370_496,
            faults_taken: i as u64,
            cached: false,
            shard: i,
        },
    }
}

/// `lines` as framed journal records, in order.
fn framed(lines: &[CacheLine]) -> Vec<u8> {
    let mut buf = Vec::new();
    for l in lines {
        oov_proto::frame_record(&journal::encode_record(l), &mut buf).expect("frame");
    }
    buf
}

/// Every line `journal::recover` hands out for `path`, and its summary.
fn replay(path: &Path) -> (Vec<CacheLine>, journal::Recovery) {
    let mut lines = Vec::new();
    let rec = journal::recover(path, |line| lines.push(line));
    (lines, rec)
}

/// Asserts `got` is `want`'s result, answered from the cache.
fn assert_served_warm(got: &SimResult, want: &CacheLine, n_shards: u64) {
    assert!(got.cached, "a recovered point was simulated");
    assert_eq!(got.shard, (want.key % n_shards) as usize);
    assert_eq!(
        (&got.stats, got.ideal_cycles, got.faults_taken),
        (
            &want.result.stats,
            want.result.ideal_cycles,
            want.result.faults_taken
        )
    );
}

#[test]
fn sigkilled_server_restarts_warm_from_the_journal() {
    let jpath = tmp("kill.wal");
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(journal::snapshot_path(&jpath)).ok();
    let journal_flag = jpath.to_str().expect("utf-8 temp path");

    let mut first = spawn_serve(&["--shards", "2", "--journal", journal_flag]);
    let points = distinct_points(6);
    let fresh: Vec<_> = {
        let mut client = Client::connect(first.addr.as_str()).expect("connect");
        let fresh = points
            .iter()
            .map(|p| client.sim(p).expect("fresh simulation"))
            .collect::<Vec<_>>();
        assert!(fresh.iter().all(|r| !r.cached), "first run must be a miss");
        // Every result was answered, so every journal append is at
        // least queued; wait on the durable watermark before pulling
        // the plug.
        await_journal_records(&mut client, points.len() as u64);
        fresh
    };
    // SIGKILL: no drop handlers, no compaction, no clean close — the
    // journal is all that survives.
    first.child.kill().expect("SIGKILL");
    first.child.wait().expect("reap");

    // Restart with a *different* shard count: recovered entries are
    // re-routed by fingerprint, so the warm cache must still line up.
    let mut second = spawn_serve(&["--shards", "3", "--journal", journal_flag]);
    let mut client = Client::connect(second.addr.as_str()).expect("reconnect");
    for (p, want) in points.iter().zip(&fresh) {
        let r = client.sim(p).expect("served after recovery");
        assert!(r.cached, "every fully-appended record must serve warm");
        assert_eq!(r.stats, want.stats, "a recovered result diverged");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.result_misses, 0, "no recomputation after recovery");
    assert_eq!(stats.journal_recovered, points.len() as u64);
    assert_eq!(
        stats.suite_compiles_smoke + stats.suite_compiles_paper,
        0,
        "a fully-warm restart must not recompile any suite"
    );
    client.shutdown().expect("shutdown");
    second.child.wait().expect("clean exit");
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(journal::snapshot_path(&jpath)).ok();
}

#[test]
fn corrupted_journal_recovers_exactly_the_intact_prefix() {
    let jpath = tmp("corrupt.wal");
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(journal::snapshot_path(&jpath)).ok();

    // Build a real journal through a live server.
    let server = start_journaled(&jpath, 2);
    let mut client = Client::connect(server.addr()).expect("connect");
    let points = distinct_points(8);
    for p in &points {
        client.sim(p).expect("simulate");
    }
    // Copy the journal once every record is durable and before the
    // shutdown, which compacts it into the snapshot.
    await_journal_records(&mut client, points.len() as u64);
    let pristine = std::fs::read(&jpath).expect("journal exists");
    client.shutdown().expect("shutdown");
    server.join();
    std::fs::write(&jpath, &pristine).expect("restore the journal copy");
    let (baseline_entries, baseline) = replay(&jpath);
    assert_eq!(baseline_entries.len(), points.len());
    assert_eq!(baseline.truncated_bytes, 0);
    // End offset of each record, from the frame layout itself.
    let mut ends = Vec::new();
    let mut off = 0usize;
    for e in &baseline_entries {
        off += oov_proto::FRAME_HEADER_BYTES + journal::encode_record(e).len();
        ends.push(off);
    }
    assert_eq!(off, pristine.len(), "records tile the journal exactly");

    // Deterministic xorshift over flip/truncate positions.
    let mut rng = 0x000C_4A05_u64;
    let mut next = |m: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % m as u64) as usize
    };
    for _ in 0..200 {
        // A single flipped bit: recovery must keep exactly the records
        // before the flipped one — its CRC (or frame) breaks, and
        // truncate-at-first-tear never resyncs past damage.
        let mut buf = pristine.clone();
        let byte = next(buf.len());
        buf[byte] ^= 1 << next(8);
        std::fs::write(&jpath, &buf).expect("write corrupted journal");
        let (entries, rec) = replay(&jpath);
        let intact = ends.iter().filter(|&&e| e <= byte).count();
        assert_eq!(entries.len(), intact, "flip at byte {byte}");
        assert_eq!(entries[..], baseline_entries[..intact]);
        assert_eq!(rec.skipped, 0, "a bit flip can never pass the CRC");

        // A truncated tail: exactly the fully-contained records.
        let cut = next(pristine.len() + 1);
        std::fs::write(&jpath, &pristine[..cut]).expect("write truncated journal");
        let (entries, _) = replay(&jpath);
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(entries.len(), intact, "cut at byte {cut}");
        assert_eq!(entries[..], baseline_entries[..intact]);
    }
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(journal::snapshot_path(&jpath)).ok();
}

/// State written in the on-disk format of earlier builds — snapshot
/// and journal records alike through `journal::encode_record` — is
/// recovered into stored counters and served warm, and the shutdown
/// compaction writes the recovered lines as framed records sorted by
/// key.
#[test]
fn journal_and_snapshot_in_the_existing_format_serve_warm() {
    let jpath = tmp("format.wal");
    let snap = journal::snapshot_path(&jpath);
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
    let points = distinct_points(4);
    let line = |i: usize, cycles: u64| made_up_line(&points[i], i, cycles);
    std::fs::write(&snap, framed(&[line(0, 100), line(1, 101), line(2, 102)]))
        .expect("write snapshot");
    // The journal tail overrides point 2 and adds point 3.
    let tail = [line(2, 9_007_199_254_740_991), line(3, 103)];
    std::fs::write(&jpath, framed(&tail)).expect("write journal");
    let mut want = vec![line(0, 100), line(1, 101), tail[0].clone(), tail[1].clone()];

    let server = start_journaled(&jpath, 2);
    let mut client = Client::connect(server.addr()).expect("connect");
    for (p, want) in points.iter().zip(&want) {
        let got = client.sim(p).expect("served after recovery");
        assert_served_warm(&got, want, 2);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.result_misses, 0);
    assert_eq!(stats.journal_recovered, tail.len() as u64);
    assert_eq!(stats.suite_compiles_smoke + stats.suite_compiles_paper, 0);
    client.shutdown().expect("shutdown");
    server.join();

    // The compaction framed the stored records, sorted by key, each
    // encoded from its recovered counters byte for byte.
    want.sort_by_key(|l| l.key);
    assert_eq!(
        std::fs::read(&snap).expect("compacted snapshot"),
        framed(&want)
    );
    assert_eq!(std::fs::metadata(&jpath).expect("journal").len(), 0);
    for path in [&jpath, &snap] {
        std::fs::remove_file(path).ok();
    }
}

/// Counters past 2^53 are exact end to end: a journal record holding
/// them is recovered and served warm with the exact values, written
/// back byte for byte by the shutdown compaction, and served warm again
/// from that snapshot.
#[test]
fn counters_past_2_53_are_journaled_recovered_and_served_exactly() {
    let jpath = tmp("exact.wal");
    let snap = journal::snapshot_path(&jpath);
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
    let point = distinct_points(1)[0];
    let mut line = made_up_line(&point, 0, (1 << 53) + 2);
    line.result.stats.mem_requests = u64::MAX;
    line.result.ideal_cycles = u64::MAX - 1;
    std::fs::write(&jpath, framed(std::slice::from_ref(&line))).expect("write journal");
    for start in ["from the journal", "from the snapshot"] {
        let server = start_journaled(&jpath, 2);
        let mut client = Client::connect(server.addr()).expect("connect");
        let got = client.sim(&point).expect("served after recovery");
        assert_served_warm(&got, &line, 2);
        assert_eq!(
            (got.stats.cycles, got.stats.mem_requests, got.ideal_cycles),
            ((1 << 53) + 2, u64::MAX, u64::MAX - 1),
            "{start}"
        );
        let stats = client.stats().expect("stats");
        assert_eq!((stats.result_misses, stats.cache_load_skipped), (0, 0));
        client.shutdown().expect("shutdown");
        server.join();
        assert_eq!(
            std::fs::read(&snap).expect("compacted snapshot"),
            framed(std::slice::from_ref(&line)),
            "{start}"
        );
    }
    for path in [&jpath, &snap] {
        std::fs::remove_file(path).ok();
    }
}

/// A snapshot cut mid-record serves its intact prefix warm, the journal
/// tail on top of it serves warm too, and only the cut records miss.
/// A snapshot in the retired `cache_dump` document format yields no
/// records and does not stop start-up.
#[test]
fn torn_snapshot_serves_its_intact_prefix() {
    let jpath = tmp("torn_snap.wal");
    let snap = journal::snapshot_path(&jpath);
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
    let points = distinct_points(10);
    let line = |i: usize, cycles: u64| made_up_line(&points[i], i, 1000 + cycles);
    // Points 0..8 in the snapshot, cut in the middle of record 4.
    let snap_lines: Vec<CacheLine> = (0..8).map(|i| line(i, i as u64)).collect();
    let bytes = framed(&snap_lines);
    let cut = framed(&snap_lines[..4]).len() + 20;
    std::fs::write(&snap, &bytes[..cut]).expect("write torn snapshot");
    // The tail overrides prefix point 1, restores cut point 6 and adds
    // point 8; point 9 is never stored.
    let tail = [line(1, 500), line(6, 600), line(8, 800)];
    std::fs::write(&jpath, framed(&tail)).expect("write journal");
    let want: Vec<Option<CacheLine>> = (0..10)
        .map(|i| match i {
            1 => Some(tail[0].clone()),
            6 => Some(tail[1].clone()),
            8 => Some(tail[2].clone()),
            0 | 2 | 3 => Some(snap_lines[i].clone()),
            _ => None,
        })
        .collect();

    let server = start_journaled(&jpath, 2);
    let mut client = Client::connect(server.addr()).expect("connect");
    for (i, (p, want)) in points.iter().zip(&want).enumerate() {
        let got = client.sim(p).expect("served");
        match want {
            Some(want) => assert_served_warm(&got, want, 2),
            None => assert!(!got.cached, "point {i} was never stored, yet served warm"),
        }
    }
    let stats = client.stats().expect("stats");
    // The cut records 4, 5 and 7, and the never-stored point 9.
    assert_eq!(stats.result_misses, 4);
    assert_eq!(stats.journal_recovered, tail.len() as u64);
    client.shutdown().expect("shutdown");
    server.join();
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();

    // The retired snapshot format: one JSON document holding the
    // entries. It is not a framed record, so it yields nothing.
    let entries: Vec<String> = snap_lines
        .iter()
        .map(|l| String::from_utf8(journal::encode_record(l)).expect("utf-8"))
        .collect();
    let legacy = format!(
        "{{\"type\": \"cache_dump\", \"version\": 1, \"entries\": [{}]}}\n",
        entries.join(", ")
    );
    std::fs::write(&snap, legacy).expect("write legacy snapshot");
    let (legacy_lines, rec) = replay(&snap);
    assert!(legacy_lines.is_empty(), "a legacy document yielded records");
    assert_eq!(rec.skipped, 0);
    std::fs::write(&jpath, framed(&tail)).expect("write journal");
    let server = start_journaled(&jpath, 2);
    let mut client = Client::connect(server.addr()).expect("connect");
    for (i, want) in [(1, &tail[0]), (6, &tail[1]), (8, &tail[2])] {
        let got = client.sim(&points[i]).expect("served");
        assert_served_warm(&got, want, 2);
    }
    let got = client.sim(&points[0]).expect("served");
    assert!(!got.cached, "a legacy snapshot entry was served");
    assert_eq!(client.stats().expect("stats").result_misses, 1);
    client.shutdown().expect("shutdown");
    server.join();
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
}

/// Under `--cache-entries`, recovery seeds each stripe in replay order,
/// so a restart keeps the last-journaled entries, not a random subset.
#[test]
fn capped_recovery_keeps_the_newest_entries() {
    let jpath = tmp("capped.wal");
    let snap = journal::snapshot_path(&jpath);
    std::fs::remove_file(&snap).ok();
    let points = distinct_points(12);
    let lines: Vec<CacheLine> = (0..points.len())
        .map(|i| made_up_line(&points[i], i, 1000 + i as u64))
        .collect();
    std::fs::write(&jpath, framed(&lines)).expect("write journal");

    let cfg = ServeConfig {
        persist: PersistOptions {
            journal: Some(jpath.clone()),
            max_entries: Some(4),
            ..PersistOptions::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start_cfg("127.0.0.1:0", 1, cfg).expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // The newest four first: each older point is simulated and
    // inserted, which evicts.
    for i in 8..12 {
        let got = client.sim(&points[i]).expect("served");
        assert_served_warm(&got, &lines[i], 1);
    }
    for (i, p) in points.iter().enumerate().take(8) {
        let got = client.sim(p).expect("served");
        assert!(
            !got.cached,
            "point {i} was evicted at recovery, yet served warm"
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.result_hits, stats.result_misses), (4, 8));
    assert_eq!(stats.journal_recovered, lines.len() as u64);
    client.shutdown().expect("shutdown");
    server.join();
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
}

/// A snapshot that opens but cannot be read is not a tear: the journal
/// tail still serves warm, and the server journals nothing for the run,
/// so neither file is truncated, appended to or compacted over.
#[test]
fn an_unreadable_snapshot_disables_journaling_and_leaves_the_files_alone() {
    let jpath = tmp("unreadable.wal");
    let snap = journal::snapshot_path(&jpath);
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_file(&snap).ok();
    // Opening a directory succeeds and reading it fails, even as root.
    std::fs::create_dir_all(&snap).expect("directory at the snapshot path");
    let points = distinct_points(3);
    let tail = [
        made_up_line(&points[0], 0, 100),
        made_up_line(&points[1], 1, 101),
    ];
    // A torn tail, which a journal the server writes to is cut back to.
    let mut bytes = framed(&tail);
    bytes.extend_from_slice(&[0xAB; 6]);
    std::fs::write(&jpath, &bytes).expect("write journal");

    let server = start_journaled(&jpath, 2);
    let mut client = Client::connect(server.addr()).expect("connect");
    for (p, want) in points.iter().zip(&tail) {
        let got = client.sim(p).expect("served after recovery");
        assert_served_warm(&got, want, 2);
    }
    assert!(!client.sim(&points[2]).expect("simulated").cached);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.journal_recovered, tail.len() as u64);
    assert_eq!(stats.journal_records, 0, "a miss was journaled");
    client.shutdown().expect("shutdown");
    server.join();

    assert_eq!(std::fs::read(&jpath).expect("journal"), bytes);
    assert!(snap.is_dir(), "the snapshot path was written over");
    std::fs::remove_file(&jpath).ok();
    std::fs::remove_dir(&snap).ok();
}

#[test]
fn deadline_expiring_mid_simulation_aborts_the_run() {
    let server = Server::start("127.0.0.1:0", 1).expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Warm the suite first so the deadlined request below spends its
    // whole wall-clock life *inside* the simulator, not compiling.
    client
        .sim(&SimRequest::ooo_default(Program::Trfd, Scale::Smoke))
        .expect("warm the suite");

    // Naive stepper + 60k-cycle memory latency: >100 ms of wall clock
    // even in release builds, so a 25 ms deadline is comfortably alive
    // when the run starts and expires long before it could finish.
    let slow = SimRequest {
        machine: MachineConfig::Ooo(OooConfig::default().with_memory_latency(60_000)),
        stepper: Stepper::Naive,
        ..SimRequest::ooo_default(Program::Trfd, Scale::Smoke)
    };
    match client.sim_opts(&slow, Some(25)) {
        Err(SimError::Deadline) => {}
        other => panic!("expected a mid-run deadline abort, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.deadline_drops, 1);
    assert_eq!(
        stats.cancelled_jobs, 1,
        "the abort must come from the run budget, not the queue check"
    );
    assert_eq!(
        stats.result_misses, 2,
        "the deadlined job must have *started* simulating"
    );

    // The same point, un-deadlined, completes.
    let r = client.sim(&slow).expect("completes without a deadline");
    assert!(r.stats.cycles > 1_000_000, "the slow config really is slow");
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn cycle_cap_contains_runaway_simulations() {
    let server = Server::start_cfg(
        "127.0.0.1:0",
        1,
        ServeConfig {
            max_sim_cycles: Some(100),
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Any real smoke run needs thousands of cycles; a 100-cycle cap
    // fires deterministically.
    let err = client
        .sim(&SimRequest::ooo_default(Program::Trfd, Scale::Smoke))
        .expect_err("must hit the cycle cap");
    assert!(
        err.contains("cycle cap exceeded"),
        "unexpected error: {err}"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cancelled_jobs, 1);
    client.shutdown().expect("shutdown");
    server.join();
}
