//! The `oov-serve` daemon.
//!
//! ```text
//! cargo run -p oov-serve --release --bin serve -- --addr 127.0.0.1:7540 --shards 4
//! ```
//!
//! Persistence is the write-ahead journal alone (`--journal`): every
//! result is appended as it lands, a graceful shutdown compacts the
//! journal into `<journal>.snapshot`, and a restart from the same
//! `--journal` path — after a clean stop or a SIGKILL — starts warm.
//!
//! Flags (all optional):
//!
//! * `--addr <host:port>`  bind address, default `127.0.0.1:7540`
//!   (port 0 picks an ephemeral port and prints it)
//! * `--shards <n>`        cache stripes, and pool workers, default
//!   `min(cores, 8)`
//! * `--cache-entries <n>` bound each cache stripe to `n`
//!   entries with LRU eviction (default: unbounded), so a
//!   long-running daemon cannot grow without limit
//! * `--journal <path>`    write-ahead journal: every cache insert is
//!   appended (checksummed, batched, fsynced) so a crash — SIGKILL,
//!   OOM, power loss — loses at most the final in-flight batch;
//!   startup replays `<path>.snapshot` plus the journal tail
//!   (truncating a torn tail), and graceful shutdown compacts into
//!   the snapshot, leaving the journal empty
//! * `--journal-max-bytes <n>` journal rotation threshold (default
//!   8 MiB): past it the writer snapshots the full state to
//!   `<journal>.snapshot` and truncates the journal
//! * `--max-sim-cycles <n>` hard simulated-cycle cap per job: a run
//!   that crosses it aborts with a structured error instead of
//!   simulating a pathological config forever (default: uncapped)
//! * `--max-queue-depth <n>` per-cache-stripe admission cap: a miss
//!   whose cache stripe already has `n` jobs queued is rejected
//!   with a retriable `overloaded` response instead of queueing
//!   without limit (default: unbounded)
//! * `--drain-ms <ms>`     graceful-drain budget at shutdown: in-flight
//!   sweeps may keep streaming this long before remaining rows are
//!   aborted (default 2000)
//! * `--chaos`             deterministic fault injection: worker
//!   panics (soft and worker-killing), service delays and connection
//!   drops, for exercising the recovery paths (never use in
//!   production)
//! * `--chaos-seed <n>`    seed for the `--chaos` fault plan,
//!   default 1 (the plan is a pure function of the seed, so a failing
//!   run reproduces from its seed alone)
//!
//! The process runs until a client sends a `shutdown` request (e.g.
//! `client --addr ... shutdown`) or it is killed.

use oov_serve::{ChaosConfig, ServeConfig, Server};

fn main() {
    let mut addr = "127.0.0.1:7540".to_string();
    let mut shards = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let mut cfg = ServeConfig::default();
    let mut chaos = false;
    let mut chaos_seed: u64 = 1;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, argv: &[String]| {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("error: missing value for {}", argv[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = value(&mut i, &argv),
            "--cache-entries" => {
                cfg.persist.max_entries = value(&mut i, &argv)
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .or_else(|| {
                        eprintln!("error: --cache-entries needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--journal" => cfg.persist.journal = Some(value(&mut i, &argv).into()),
            "--journal-max-bytes" => {
                cfg.persist.journal_max_bytes = value(&mut i, &argv)
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .or_else(|| {
                        eprintln!("error: --journal-max-bytes needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--max-sim-cycles" => {
                cfg.max_sim_cycles = value(&mut i, &argv)
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .or_else(|| {
                        eprintln!("error: --max-sim-cycles needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--max-queue-depth" => {
                cfg.max_queue_depth = value(&mut i, &argv)
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .or_else(|| {
                        eprintln!("error: --max-queue-depth needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--drain-ms" => {
                cfg.drain_ms = value(&mut i, &argv).parse().unwrap_or_else(|_| {
                    eprintln!("error: --drain-ms needs a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--chaos" => chaos = true,
            "--chaos-seed" => {
                chaos_seed = value(&mut i, &argv).parse().unwrap_or_else(|_| {
                    eprintln!("error: --chaos-seed needs a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--shards" => {
                shards = value(&mut i, &argv)
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --shards needs a positive integer");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("error: unknown flag {other} (see the doc comment in serve.rs)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if chaos {
        cfg.chaos = Some(ChaosConfig::light(chaos_seed));
        eprintln!("oov-serve: CHAOS MODE (seed {chaos_seed}) — injecting faults on purpose");
    }
    let handle = match Server::start_cfg(&addr, shards, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: failed to start server on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("oov-serve listening on {} ({shards} shards)", handle.addr());
    handle.join();
    println!("oov-serve stopped");
}
