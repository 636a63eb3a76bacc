//! Prints exhibits to stdout, with each exhibit's own wall time on
//! stderr: every entry of `experiments::EXHIBITS` by default, or just
//! the ones named, in table order.
//!
//! ```text
//! cargo run -p oov-bench --release --bin all
//! cargo run -p oov-bench --release --bin all -- figure5 table1
//! ```
use std::time::Instant;

use oov_bench::{experiments::EXHIBITS, Suite};
use oov_kernels::Scale;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names
        .iter()
        .find(|n| !EXHIBITS.iter().any(|(key, ..)| key == n))
    {
        let keys: Vec<&str> = EXHIBITS.iter().map(|(key, ..)| *key).collect();
        eprintln!(
            "error: unknown exhibit {bad}\nvalid exhibits: {}",
            keys.join(" ")
        );
        std::process::exit(2);
    }
    let t0 = Instant::now();
    eprintln!("compiling benchmark suite...");
    let suite = Suite::compile(Scale::Paper);
    for (_, heading, render) in EXHIBITS
        .iter()
        .filter(|(key, ..)| names.is_empty() || names.iter().any(|n| n == key))
    {
        let t = Instant::now();
        let body = render(&suite);
        eprintln!("done: {heading} ({:.3}s)", t.elapsed().as_secs_f64());
        println!("==== {heading} ====\n{body}\n");
    }
    eprintln!("total: {:.1}s", t0.elapsed().as_secs_f64());
}
