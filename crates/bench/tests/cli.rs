//! Command-line contracts of the `all` and `simulate` binaries: bad
//! input exits 2 with a message, before any suite compile and without
//! a panic.

use std::process::{Command, Output};

use oov_bench::experiments::EXHIBITS;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"))
}

/// Asserts a clean usage error: exit code 2, stderr naming `expected`,
/// nothing on stdout and no panic.
fn assert_rejected(out: &Output, expected: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(expected), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
    stderr
}

#[test]
fn all_rejects_an_unknown_exhibit_and_lists_the_keys() {
    let out = run(env!("CARGO_BIN_EXE_all"), &["figure5", "nosuch"]);
    let stderr = assert_rejected(&out, "unknown exhibit nosuch");
    assert!(
        !stderr.contains("compiling"),
        "compiled before rejecting: {stderr}"
    );
    for (key, ..) in EXHIBITS {
        assert!(stderr.contains(key), "{key} not listed: {stderr}");
    }
}

#[test]
fn simulate_rejects_bad_configurations() {
    let cases: [(&[&str], &str); 5] = [
        (&["--regs", "4"], "at least 9"),
        (&["--queues", "0"], "at least one slot"),
        (&["--machine", "vliw"], "unknown machine vliw"),
        (
            &["--commit", "early", "--elim", "sle"],
            "load elimination requires late commit",
        ),
        (
            &["--elim", "sle+vle+sse", "--commit", "early"],
            "load elimination requires late commit",
        ),
    ];
    for (flags, expected) in cases {
        let args: Vec<&str> = ["--program", "trfd", "--scale", "smoke"]
            .into_iter()
            .chain(flags.iter().copied())
            .collect();
        let out = run(env!("CARGO_BIN_EXE_simulate"), &args);
        assert_rejected(&out, expected);
    }
}

#[test]
fn simulate_defaults_elimination_to_late_commit() {
    let out = run(
        env!("CARGO_BIN_EXE_simulate"),
        &["--program", "trfd", "--scale", "smoke", "--elim", "sle"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("eliminated:"));
}
