//! Command-line contracts of the `client` binary: a bad machine point
//! exits 2 with a message before any connect attempt and without a
//! panic, and `stats` and `metrics` work against a live server.

use std::process::{Command, Output};

use oov_serve::{Client, Server};

fn client(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_client"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running client: {e}"))
}

/// An address nothing listens on: a port the OS just handed out and
/// that was closed again.
fn closed_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

#[test]
fn client_rejects_bad_machine_points_before_connecting() {
    let addr = closed_addr();
    let cases: [(&[&str], &str); 4] = [
        (&["--regs", "8"], "at least 9"),
        (&["--regs", "16,8"], "at least 9"),
        (&["--queues", "0"], "at least one slot"),
        (
            &["--commit", "early", "--elim", "sle"],
            "load elimination requires late commit",
        ),
    ];
    for command in ["sim", "sweep"] {
        for (flags, expected) in cases {
            let mut args = vec![
                "--addr",
                &addr,
                command,
                "--program",
                "trfd",
                "--scale",
                "smoke",
            ];
            args.extend_from_slice(flags);
            let out = client(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(expected), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(!stderr.contains("connect"), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}: {:?}", out.stdout);
        }
    }
}

#[test]
fn client_stats_and_metrics_read_a_live_server() {
    let server = Server::start("127.0.0.1:0", 1).expect("server start");
    let addr = server.addr().to_string();
    for command in ["stats", "metrics"] {
        let out = client(&["--addr", &addr, command]);
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        if command == "stats" {
            for line in ["result cache misses:  0", "shards alive:         all 1"] {
                assert!(stdout.contains(line), "{line:?} missing: {stdout}");
            }
        } else {
            assert!(stdout.contains("cache.result_misses"), "{stdout}");
        }
    }
    Client::connect(&addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join();
}
