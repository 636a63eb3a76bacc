//! Runs every experiment and prints each exhibit to stdout, with each
//! exhibit's own wall time on stderr.
use std::time::Instant;

use oov_bench::{experiments as ex, Suite};
use oov_kernels::Scale;

/// An exhibit's heading and the function that renders it.
type Exhibit = (&'static str, fn(&Suite) -> String);

fn main() {
    let t0 = Instant::now();
    eprintln!("compiling benchmark suite...");
    let suite = Suite::compile(Scale::Paper);
    let sections: [Exhibit; 14] = [
        ("Table 1 — machine parameters", |_| ex::table1()),
        ("Table 2 — operation counts", ex::table2),
        ("Figure 3 — REF cycle breakdown vs latency", ex::figure3),
        ("Figure 4 — REF memory-port idle", ex::figure4),
        ("Figure 5 — OOOVA speedup vs registers", ex::figure5),
        ("Figure 6 — port idle REF vs OOOVA", ex::figure6),
        ("Figure 7 — breakdown REF vs OOOVA", ex::figure7),
        ("Figure 8 — latency tolerance", ex::figure8),
        ("Figure 9 — early vs late commit", ex::figure9),
        ("Table 3 — spill traffic", ex::table3),
        ("Figure 11 — SLE speedup", ex::figure11),
        ("Figure 12 — SLE+VLE speedup", ex::figure12),
        ("Figure 13 — traffic reduction", ex::figure13),
        ("Stage occupancy — per-stage progress", ex::stage_occupancy),
    ];
    for (name, render) in sections {
        let t = Instant::now();
        let body = render(&suite);
        eprintln!("done: {name} ({:.3}s)", t.elapsed().as_secs_f64());
        println!("==== {name} ====\n{body}\n");
    }
    eprintln!("total: {:.1}s", t0.elapsed().as_secs_f64());
}
