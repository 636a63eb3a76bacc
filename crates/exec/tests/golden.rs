//! The golden check on the compiler: for hand-built kernels that
//! stress scheduling, spilling, masks, gathers and outer loops, for
//! every benchmark kernel and for random kernels, the lowered trace run
//! on the architectural executor must leave the same data space as the
//! IR interpreter.

use oov_exec::golden_mismatch;
use oov_kernels::{random_kernel, Program, Scale};
use oov_vcc::{compile, compile_with, CompileOptions, CompiledProgram, Kernel};

/// Compiles `k` and asserts it passes the golden check.
fn check_golden(k: &Kernel) -> CompiledProgram {
    let prog = compile(k);
    if let Some((addr, want, got)) = golden_mismatch(k, &prog) {
        panic!(
            "{}: mismatch at {addr:#x}: IR {want}, machine {got}",
            prog.name
        );
    }
    prog
}

#[test]
fn golden_simple_streaming() {
    let mut k = Kernel::new("stream");
    let a = k.array_init(1024, |i| i * 3);
    let out = k.array(1024);
    let mut b = k.loop_build(8);
    let x = b.vload(a, 0, 1, 128, 128, 0);
    let y = b.vmul(x, x, 128);
    b.vstore(y, out, 0, 1, 128, 128, 0);
    b.finish();
    check_golden(&k);
}

/// Builds a kernel whose 12 loaded vectors are all live across the
/// whole body (each output combines every input), so no instruction
/// schedule can avoid exceeding the 8 vector registers.
fn all_live_pressure_kernel() -> Kernel {
    let mut k = Kernel::new("spilly");
    let a = k.array_init(16 * 1024, |i| i ^ 0x5555);
    let out = k.array(16 * 1024);
    let mut b = k.loop_build(4);
    let loads: Vec<_> = (0..12).map(|i| b.vload(a, i * 512, 1, 64, 64, 0)).collect();
    for j in 0..6u64 {
        let mut acc = loads[j as usize];
        for i in 1..12 {
            acc = b.vadd(acc, loads[(j as usize + i) % 12], 64);
        }
        b.vstore(acc, out, j * 512, 1, 64, 64, 0);
    }
    b.finish();
    k
}

#[test]
fn golden_high_pressure_with_spills() {
    let k = all_live_pressure_kernel();
    let prog = check_golden(&k);
    assert!(
        prog.spill.vloads > 0,
        "high pressure must generate vector spill reloads"
    );
}

#[test]
fn golden_computed_pressure_spill_stores() {
    let mut k = Kernel::new("spillstore");
    let a = k.array_init(8 * 1024, |i| i + 7);
    let out = k.array(8 * 1024);
    let mut b = k.loop_build(3);
    let base = b.vload(a, 0, 1, 64, 64, 0);
    // 11 *computed* (non-rematerialisable) vectors, all live across
    // every output so scheduling cannot shrink the pressure.
    let computed: Vec<_> = (0..11)
        .map(|i| {
            let s = b.slui(i + 1);
            b.vmul_s(base, s, 64)
        })
        .collect();
    for j in 0..4u64 {
        let mut acc = computed[j as usize];
        for i in 1..11 {
            acc = b.vadd(acc, computed[(j as usize + i) % 11], 64);
        }
        b.vstore(acc, out, j * 512, 1, 64, 64, 0);
    }
    b.finish();
    let prog = check_golden(&k);
    assert!(prog.spill.vstores > 0);
}

#[test]
fn golden_masks_and_reductions() {
    let mut k = Kernel::new("masks");
    let a = k.array_init(512, |i| i % 97);
    let b_arr = k.array_init(512, |i| 50 + (i % 3));
    let out = k.array(512);
    let sums = k.array(64);
    let mut b = k.loop_build(4);
    let x = b.vload(a, 0, 1, 128, 128, 0);
    let y = b.vload(b_arr, 0, 1, 128, 128, 0);
    let m = b.vcmp(x, y, 128);
    let sel = b.vmerge(x, y, m, 128);
    b.vstore(sel, out, 0, 1, 128, 128, 0);
    let s = b.vreduce(sel, 128);
    b.sstore(s, sums, 0, 1);
    b.finish();
    check_golden(&k);
}

#[test]
fn golden_gather_scatter() {
    let mut k = Kernel::new("gs");
    // Index array: byte offsets, a permutation of 0..64 words.
    let idx = k.array_init(64, |i| (63 - i) * 8);
    let data = k.array_init(128, |i| 1000 + i);
    let out = k.array(128);
    let mut b = k.loop_build(2);
    let iv = b.vload(idx, 0, 1, 64, 0, 0);
    let g = b.vgather(iv, data, 0, 64, 64);
    b.vscatter(g, iv, out, 0, 64, 64);
    b.finish();
    check_golden(&k);
}

#[test]
fn golden_outer_loops() {
    let mut k = Kernel::new("outer");
    let a = k.array_init(4096, |i| i);
    let out = k.array(4096);
    let mut b = k.loop_build_2d(4, 3);
    let x = b.vload(a, 0, 1, 64, 64, 256);
    let y = b.vadd(x, x, 64);
    b.vstore(y, out, 0, 1, 64, 64, 256);
    b.finish();
    check_golden(&k);
}

#[test]
fn golden_scalar_spills() {
    let mut k = Kernel::new("scalars");
    let a = k.array_init(1024, |i| i);
    let out = k.array(64);
    let mut b = k.loop_build(4);
    // 12 live scalar values force S-class spills.
    let scalars: Vec<_> = (0..12).map(|i| b.sload(a, i * 16, 1)).collect();
    let mut acc = scalars[11];
    for &s in scalars.iter().rev().skip(1) {
        acc = b.sadd(acc, s);
    }
    b.sstore(acc, out, 0, 1);
    b.finish();
    let prog = check_golden(&k);
    assert!(prog.spill.sloads > 0, "scalar pressure must spill");
}

#[test]
fn unscheduled_compile_also_golden() {
    let mut k = Kernel::new("nosched");
    let a = k.array_init(2048, |i| 5 * i);
    let out = k.array(2048);
    let mut b = k.loop_build(3);
    let x = b.vload(a, 0, 1, 128, 128, 0);
    let y = b.vload(a, 1024, 1, 128, 128, 0);
    let z = b.vmul(x, y, 128);
    let w = b.vadd(z, x, 128);
    b.vstore(w, out, 0, 1, 128, 128, 0);
    b.finish();
    let opts = CompileOptions { schedule: false };
    let prog = compile_with(&k, &opts);
    assert_eq!(golden_mismatch(&k, &prog), None);
}

#[test]
fn spill_loads_marked_in_trace_stats() {
    let prog = compile(&all_live_pressure_kernel());
    assert!(prog.trace.stats().vload_spill_words > 0);
}

#[test]
fn all_programs_match_their_golden_model() {
    for p in Program::ALL {
        let k = p.kernel(Scale::Smoke);
        let prog = compile(&k);
        assert_eq!(golden_mismatch(&k, &prog), None, "{p}");
    }
}

#[test]
fn random_kernels_compile_and_match_golden() {
    for seed in 0..12 {
        let k = random_kernel(seed);
        let prog = compile(&k);
        assert_eq!(golden_mismatch(&k, &prog), None, "seed {seed}");
    }
}
