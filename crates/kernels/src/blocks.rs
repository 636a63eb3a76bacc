//! Reusable kernel fragments shared by the benchmark models.
//!
//! Each fragment reproduces one of the instruction-stream traits the
//! paper attributes to its programs: streaming stencils, register
//! pressure (vector and scalar), cross-iteration memory recurrences,
//! gather/scatter access, and reductions.

use oov_vcc::{ArrayHandle, Kernel, LoopBuilder, VirtReg};

/// Emits a streaming multi-array stencil body: loads `inputs`, combines
/// them pairwise (add/mul alternating), stores the result to `out`.
/// Returns the final value.
pub fn streaming_combine(
    b: &mut LoopBuilder<'_>,
    inputs: &[(ArrayHandle, u64)],
    out: (ArrayHandle, u64),
    vl: u16,
    advance: i64,
) -> VirtReg {
    assert!(!inputs.is_empty());
    let loaded: Vec<VirtReg> = inputs
        .iter()
        .map(|(arr, off)| b.vload(*arr, *off, 1, vl, advance, 0))
        .collect();
    let mut acc = loaded[0];
    for (i, &x) in loaded.iter().enumerate().skip(1) {
        acc = if i % 2 == 0 {
            b.vmul(acc, x, vl)
        } else {
            b.vadd(acc, x, vl)
        };
    }
    b.vstore(acc, out.0, out.1, 1, vl, advance, 0);
    acc
}

/// Emits a vector-pressure block: `n` values all live across every
/// output, guaranteeing spills for `n > 8` under any schedule.
/// `computed = true` derives the values arithmetically (forcing spill
/// *stores*); otherwise they come straight from loads (rematerialisable).
/// Output streams are pitched `pitch_words` apart so stores of different
/// streams never alias across iterations.
#[allow(clippy::too_many_arguments)]
pub fn pressure_block(
    b: &mut LoopBuilder<'_>,
    src: ArrayHandle,
    out: ArrayHandle,
    n: usize,
    outputs: usize,
    vl: u16,
    advance: i64,
    computed: bool,
    pitch_words: u64,
) {
    let values: Vec<VirtReg> = if computed {
        let base = b.vload(src, 0, 1, vl, advance, 0);
        (0..n)
            .map(|i| {
                let s = b.slui(i as i64 + 3);
                b.vmul_s(base, s, vl)
            })
            .collect()
    } else {
        (0..n)
            .map(|i| b.vload(src, i as u64 * u64::from(vl), 1, vl, advance, 0))
            .collect()
    };
    for j in 0..outputs {
        // Each output walks the value set with its own stride (coprime
        // to n), so no instruction schedule can interleave the chains
        // with short live ranges — the pressure is irreducible.
        let step = coprime_step(n, j);
        let mut acc = values[j % n];
        for k in 1..n {
            acc = b.vadd(acc, values[(j + k * step) % n], vl);
        }
        b.vstore(acc, out, j as u64 * pitch_words, 1, vl, advance, 0);
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A stride coprime to `n`, distinct per output index where possible.
fn coprime_step(n: usize, j: usize) -> usize {
    let mut step = (2 * j + 1) % n.max(1);
    if step == 0 {
        step = 1;
    }
    while gcd(step, n) != 1 {
        step = (step + 1) % n;
        if step == 0 {
            step = 1;
        }
    }
    step
}

/// Emits a scalar-pressure chain: `n` scalar loads all combined into one
/// value that scales a vector. For `n` beyond the 8 scalar registers
/// this forces scalar spill traffic on the critical path — the paper's
/// trfd/dyfesm trait that scalar load elimination (SLE) attacks.
pub fn scalar_pressure(
    b: &mut LoopBuilder<'_>,
    coeffs: ArrayHandle,
    n: usize,
    vec_in: VirtReg,
    vl: u16,
) -> VirtReg {
    let scalars: Vec<VirtReg> = (0..n).map(|i| b.sload(coeffs, i as u64 * 4, 1)).collect();
    // Two passes — ascending then descending — so scalar `i`'s live
    // range spans from its first use to its mirrored second use: all `n`
    // values are simultaneously live mid-chain under any schedule.
    let mut acc = scalars[0];
    for &s in scalars.iter().skip(1) {
        acc = b.sadd(acc, s);
    }
    for (j, &s) in scalars.iter().enumerate().rev() {
        acc = if j % 3 == 0 {
            b.smul(acc, s)
        } else {
            b.sadd(acc, s)
        };
    }
    b.vmul_s(vec_in, acc, vl)
}

/// Emits a serial scalar ALU chain of `len` operations (no memory
/// access): the index arithmetic and convergence bookkeeping that makes
/// up the bulk of a partially-vectorized program's scalar instruction
/// count. Consumes front-end bandwidth on both machines.
pub fn scalar_alu_chain(b: &mut LoopBuilder<'_>, len: usize) -> VirtReg {
    let mut acc = b.slui(7);
    let inc = b.slui(13);
    for j in 0..len {
        acc = if j % 4 == 3 {
            b.smul(acc, inc)
        } else {
            b.sadd(acc, inc)
        };
    }
    acc
}

/// Opens a cross-iteration memory recurrence: the fixed-address load
/// whose value should seed the iteration's computation. Paired with
/// [`recurrence_close`], which stores the result back to the same
/// address (advance 0), so iteration *i+1*'s load depends on iteration
/// *i*'s store through memory — the paper's trfd/dyfesm pathology under
/// late commit, and prime VLE fodder.
pub fn recurrence_open(b: &mut LoopBuilder<'_>, cell: ArrayHandle, vl: u16) -> VirtReg {
    b.vload(cell, 0, 1, vl, 0, 0)
}

/// Closes a memory recurrence: stores the iteration's result back to the
/// same fixed address. The paper's trfd analysis: *"the store is done as
/// soon as its input data is ready"* under early commit, but under late
/// commit it *"must wait until intervening instructions ... have
/// committed"*, delaying the next iteration's load.
pub fn recurrence_close(b: &mut LoopBuilder<'_>, cell: ArrayHandle, value: VirtReg, vl: u16) {
    b.vstore(value, cell, 0, 1, vl, 0, 0);
}

/// Opens a *scalar* cross-iteration recurrence: reloads the scalar
/// accumulator iteration i−1 spilled to `slot`. Because the closing
/// store invalidates the cache line, this load misses and travels to
/// main memory every iteration — the serialisation the paper's scalar
/// load elimination (SLE) removes, enabling "dynamic unrolling" of the
/// loop.
pub fn scalar_recurrence_open(b: &mut LoopBuilder<'_>, slot: ArrayHandle) -> VirtReg {
    b.sload(slot, 0, 0)
}

/// Closes the scalar recurrence: spills `value` back to the slot.
pub fn scalar_recurrence_close(b: &mut LoopBuilder<'_>, slot: ArrayHandle, value: VirtReg) {
    b.sstore(value, slot, 0, 0);
}

/// Emits a gather → compute → scatter body over an index permutation.
pub fn gather_compute_scatter(
    b: &mut LoopBuilder<'_>,
    index_arr: ArrayHandle,
    data: ArrayHandle,
    out: ArrayHandle,
    span_words: u64,
    vl: u16,
) {
    let idx = b.vload(index_arr, 0, 1, vl, 0, 0);
    let g = b.vgather(idx, data, 0, span_words, vl);
    let sq = b.vmul(g, g, vl);
    b.vscatter(sq, idx, out, 0, span_words, vl);
}

/// Emits a masked update: compare, merge, reduce — covers the mask
/// datapath and the reduction path.
pub fn masked_reduce(
    b: &mut LoopBuilder<'_>,
    a: ArrayHandle,
    threshold: ArrayHandle,
    out: ArrayHandle,
    sums: ArrayHandle,
    vl: u16,
    advance: i64,
) {
    let x = b.vload(a, 0, 1, vl, advance, 0);
    let t = b.vload(threshold, 0, 1, vl, 0, 0);
    let m = b.vcmp(x, t, vl);
    let sel = b.vmerge(x, t, m, vl);
    b.vstore(sel, out, 0, 1, vl, advance, 0);
    let s = b.vreduce(sel, vl);
    b.sstore(s, sums, 0, 1);
}

/// Seeds a kernel with the standard array set: returns
/// `(inputs, outputs)` of `n` arrays each, sized `words`, inputs
/// initialised with a deterministic pattern.
pub fn standard_arrays(
    k: &mut Kernel,
    n: usize,
    words: u64,
) -> (Vec<ArrayHandle>, Vec<ArrayHandle>) {
    let inputs = (0..n)
        .map(|i| k.array_init(words, move |w| (w * 37 + i as u64 * 1009) ^ 0x2545))
        .collect();
    let outputs = (0..n).map(|_| k.array(words)).collect();
    (inputs, outputs)
}
