//! Quickstart: compile a DAXPY kernel and compare the in-order reference
//! machine against the out-of-order vector architecture.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use oov::core::OooSim;
use oov::exec::golden_mismatch;
use oov::isa::{OooConfig, RefConfig};
use oov::kernels::daxpy;
use oov::refsim::RefSim;
use oov::vcc::compile;

fn main() {
    // 1. Build and compile a kernel: y = a*x + y over 32 strips of 128.
    let kernel = daxpy(32, 128);
    let program = compile(&kernel);
    println!("compiled `{}`: {}", program.name, program.trace.stats());

    // 2. Check it against the golden models (IR interpreter vs the
    //    architectural executor running the lowered trace).
    let clean = golden_mismatch(&kernel, &program).is_none();
    println!("golden check: {}", if clean { "PASS" } else { "FAIL" });

    // 3. Simulate both machines at the paper's default 50-cycle memory.
    let reference = RefSim::new(RefConfig::default()).run(&program.trace);
    let ooo = OooSim::new(OooConfig::default(), &program.trace).run();

    println!("\nreference (in-order C3400-like):");
    println!("  {reference}");
    println!("out-of-order (OOOVA, 16 physical V registers):");
    println!("  {}", ooo.stats);
    println!("ideal bound: {} cycles", ooo.ideal_cycles);
    println!(
        "\nspeedup: {:.2}x (port idle {:.1}% -> {:.1}%)",
        reference.cycles as f64 / ooo.stats.cycles as f64,
        reference.mem_port_idle_pct(),
        ooo.stats.mem_port_idle_pct(),
    );
}
