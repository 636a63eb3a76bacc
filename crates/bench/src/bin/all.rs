//! Runs every experiment and prints each exhibit to stdout.
use std::time::Instant;

use oov_bench::{experiments as ex, Suite};
use oov_kernels::Scale;

fn main() {
    let t0 = Instant::now();
    eprintln!("compiling benchmark suite...");
    let suite = Suite::compile(Scale::Paper);
    let sections: Vec<(&str, String)> = vec![
        ("Table 1 — machine parameters", ex::table1()),
        ("Table 2 — operation counts", ex::table2(&suite)),
        (
            "Figure 3 — REF cycle breakdown vs latency",
            ex::figure3(&suite),
        ),
        ("Figure 4 — REF memory-port idle", ex::figure4(&suite)),
        ("Figure 5 — OOOVA speedup vs registers", ex::figure5(&suite)),
        ("Figure 6 — port idle REF vs OOOVA", ex::figure6(&suite)),
        ("Figure 7 — breakdown REF vs OOOVA", ex::figure7(&suite)),
        ("Figure 8 — latency tolerance", ex::figure8(&suite)),
        ("Figure 9 — early vs late commit", ex::figure9(&suite)),
        ("Table 3 — spill traffic", ex::table3(&suite)),
        ("Figure 11 — SLE speedup", ex::figure11(&suite)),
        ("Figure 12 — SLE+VLE speedup", ex::figure12(&suite)),
        ("Figure 13 — traffic reduction", ex::figure13(&suite)),
        (
            "Stage occupancy — per-stage progress",
            ex::stage_occupancy(&suite),
        ),
    ];
    for (name, body) in &sections {
        eprintln!("done: {name} ({:.1}s)", t0.elapsed().as_secs_f64());
        println!("==== {name} ====\n{body}\n");
    }
    eprintln!("total: {:.1}s", t0.elapsed().as_secs_f64());
}
