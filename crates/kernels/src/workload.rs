//! Random well-formed kernel generation for property-based testing.
//!
//! Generated kernels exercise the full compile pipeline (scheduling,
//! allocation under random pressure, lowering) and both simulators, and
//! are checked against the golden models in `oov-exec`'s tests and the
//! workspace-level property tests.

use oov_vcc::{Kernel, VirtReg};

/// Minimal deterministic PRNG (SplitMix64) — the build is fully
/// self-contained, so no `rand` dependency.
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        Prng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in `lo..=hi`.
    fn range_incl(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Generates a random but well-formed kernel from `seed`.
///
/// The kernel has 1–3 loop segments of 4–40 instructions over 2–16
/// iterations, with register pressure ranging from trivial to
/// deliberately unsatisfiable-without-spills.
#[must_use]
pub fn random_kernel(seed: u64) -> Kernel {
    let mut rng = Prng::new(seed);
    let mut k = Kernel::new(format!("random-{seed}"));
    let n_arrays = rng.range_incl(2, 4) as usize;
    let arrays: Vec<_> = (0..n_arrays)
        .map(|i| {
            k.array_init(32 * 1024, move |w| {
                w.wrapping_mul(2 * i as u64 + 3) ^ 0xABCD
            })
        })
        .collect();
    let outs: Vec<_> = (0..n_arrays).map(|_| k.array(64 * 1024)).collect();
    let segments = rng.range_incl(1, 3) as usize;
    for _ in 0..segments {
        let trips = rng.range_incl(2, 16) as u32;
        let vl = *[8u16, 16, 24, 32, 64, 128].get(rng.below(6)).unwrap();
        let advance = i64::from(vl);
        let body_len = rng.range_incl(4, 40) as usize;
        let mut b = k.loop_build(trips);
        let mut vregs: Vec<VirtReg> = Vec::new();
        let mut sregs: Vec<VirtReg> = Vec::new();
        // Ensure at least one vector value exists.
        vregs.push(b.vload(arrays[0], 0, 1, vl, advance, 0));
        let mut out_stream = 0u64;
        for _ in 0..body_len {
            match rng.below(10) {
                0 | 1 => {
                    let arr = arrays[rng.below(arrays.len())];
                    let off = rng.range_incl(0, 7) * u64::from(vl);
                    vregs.push(b.vload(arr, off, 1, vl, advance, 0));
                }
                2 | 3 => {
                    let a = vregs[rng.below(vregs.len())];
                    let c = vregs[rng.below(vregs.len())];
                    vregs.push(b.vadd(a, c, vl));
                }
                4 => {
                    let a = vregs[rng.below(vregs.len())];
                    let c = vregs[rng.below(vregs.len())];
                    vregs.push(b.vmul(a, c, vl));
                }
                5 => {
                    let a = vregs[rng.below(vregs.len())];
                    let c = vregs[rng.below(vregs.len())];
                    vregs.push(b.vdiv(a, c, vl));
                }
                6 => {
                    let v = vregs[rng.below(vregs.len())];
                    let out = outs[rng.below(outs.len())];
                    // Pitch streams apart so stores never alias.
                    b.vstore(v, out, out_stream * 4096, 1, vl, advance, 0);
                    out_stream += 1;
                }
                7 => {
                    sregs.push(b.slui(rng.range_incl(1, 99) as i64));
                }
                8 => {
                    if let Some(&s) = sregs.last() {
                        let v = vregs[rng.below(vregs.len())];
                        vregs.push(b.vmul_s(v, s, vl));
                    } else {
                        sregs.push(b.slui(7));
                    }
                }
                _ => {
                    let v = vregs[rng.below(vregs.len())];
                    sregs.push(b.vreduce(v, vl));
                }
            }
        }
        // Always store something so the segment is observable.
        let v = vregs[rng.below(vregs.len())];
        b.vstore(v, outs[0], out_stream * 4096, 1, vl, advance, 0);
        b.finish();
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_vcc::compile;

    #[test]
    fn random_kernels_are_deterministic() {
        let a = compile(&random_kernel(42));
        let b = compile(&random_kernel(42));
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.trace.stats(), b.trace.stats());
    }
}
