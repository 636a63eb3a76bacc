//! Building your own workload with the kernel DSL, verifying it against
//! the golden models, and exercising precise traps (the paper's §5).
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use oov::core::OooSim;
use oov::exec::golden_mismatch;
use oov::isa::{CommitMode, OooConfig};
use oov::vcc::{compile, Kernel};

fn main() {
    // A 5-point stencil sweep: out[i] = (a[i-1] + a[i] + a[i+1]) * w + b[i].
    let mut k = Kernel::new("stencil5");
    let a = k.array_init(4 * 1024, |i| i * i % 1009);
    let b = k.array_init(4 * 1024, |i| 7 * i % 911);
    let out = k.array(4 * 1024);
    let vl = 96;

    let mut lp = k.loop_build(24);
    let w = lp.slui(3);
    let left = lp.vload(a, 0, 1, vl, i64::from(vl), 0);
    let mid = lp.vload(a, 1, 1, vl, i64::from(vl), 0);
    let right = lp.vload(a, 2, 1, vl, i64::from(vl), 0);
    let bv = lp.vload(b, 1, 1, vl, i64::from(vl), 0);
    let s1 = lp.vadd(left, mid, vl);
    let s2 = lp.vadd(s1, right, vl);
    let sw = lp.vmul_s(s2, w, vl);
    let r = lp.vadd(sw, bv, vl);
    lp.vstore(r, out, 1, 1, vl, i64::from(vl), 0);
    lp.finish();

    // Compile: list scheduling, register allocation (spills if needed),
    // lowering to a dynamic trace with loop control and SetVl/SetVs.
    let program = compile(&k);
    println!("compiled `{}`:", program.name);
    println!("  {}", program.trace.stats());
    println!(
        "  spill code: {} vector loads, {} vector stores, {} remats",
        program.spill.vloads, program.spill.vstores, program.spill.remat_loads
    );

    // Golden check: IR semantics == lowered-trace semantics.
    let ok = golden_mismatch(&k, &program).is_none();
    println!("  golden check: {}", if ok { "PASS" } else { "FAIL" });

    // Simulate with a precise trap injected mid-trace: the OOOVA squashes
    // back to the faulting instruction, restores the rename state from
    // the reorder buffer, and re-executes (paper §5).
    let fault_at = program.trace.len() / 2;
    let cfg = OooConfig::default().with_commit(CommitMode::Late);
    let sim = OooSim::new(cfg, &program.trace).with_fault_at(fault_at);
    let result = sim.run();
    println!(
        "\nprecise trap at instruction {fault_at}: recovered and committed \
         {}/{} instructions in {} cycles",
        result.stats.committed,
        program.trace.len(),
        result.stats.cycles
    );

    let clean = OooSim::new(cfg, &program.trace).run();
    println!(
        "trap-free run: {} cycles (trap overhead {:.1}%)",
        clean.stats.cycles,
        100.0 * (result.stats.cycles as f64 / clean.stats.cycles as f64 - 1.0)
    );
}
