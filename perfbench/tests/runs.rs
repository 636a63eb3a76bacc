//! Short end-to-end runs of the benchmark itself.

use std::path::PathBuf;
use std::sync::Mutex;

use perfbench::serve::{self, Mix};
use perfbench::{Outcome, RunCfg};

/// The runs load both cores; running two at once would measure each
/// other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn cfg(seed: u64, seconds: f64) -> RunCfg {
    RunCfg {
        seed,
        seconds,
        trace: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{seed}")),
    }
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn ledger_balances_on_a_short_run() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let out = serve::run(&cfg(11, 2.0), Mix::Hit).expect("serve-hit runs");
    assert_eq!(out.failed, 0, "{:?}", out.check_failures);
    assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
    let ledger = out
        .ledger
        .clone()
        .expect("a traced serve run prints a ledger");
    for part in [
        ledger.client_encode_us,
        ledger.server_decode_us,
        ledger.request_us,
        ledger.service_us,
        ledger.resp_encode_us,
        ledger.client_decode_us,
        ledger.ping_us,
    ] {
        assert!(part > 0.0, "every part is measured: {ledger:?}");
    }
    assert!(ledger.untraced.count > 100, "{ledger:?}");
    let sum = ledger.client_encode_us
        + ledger.server_decode_us
        + ledger.request_us
        + ledger.client_decode_us
        + ledger.transport_us();
    assert!((sum - ledger.untraced.value - ledger.overhead_us()).abs() < 1e-6);
    assert!(ledger.balances(), "{}", ledger.lines().join("\n"));
    assert_eq!(metric(&out, "cache.hit_ratio"), 1.0);
}

#[test]
fn core_counts_repeat_exactly_for_a_seed() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let names = [
        "core.points",
        "core.minst",
        "core.sim_cycles",
        "core.progress_cycles",
        "refsim.points",
    ];
    let a = serve::run(&cfg(12, 1.0), Mix::Mixed).expect("serve-mixed runs");
    let b = serve::run(&cfg(12, 1.0), Mix::Mixed).expect("serve-mixed runs");
    assert!(a.check_failures.is_empty() && b.check_failures.is_empty());
    for name in names {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    assert!(metric(&a, "core.points") > 0.0);
    assert_eq!(metric(&a, "cache.suite_compiles"), 1.0);
}
