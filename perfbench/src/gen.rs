//! Seeded workload inputs: the exhibit grid, the hot pool and the
//! never-seen miss stream. Every generator is a pure function of its
//! seed, and every list is unique by [`SimRequest::fingerprint`] — the
//! server's cache key — so a workload can never silently repeat a
//! point and turn a miss into a hit.

use std::collections::HashSet;

use oov_bench::experiments::{DEFAULT_LATENCY, REF_LATENCIES, REG_SWEEP};
use oov_core::Stepper;
use oov_isa::{CommitMode, LoadElimMode, MachineConfig, OooConfig, RefConfig};
use oov_kernels::{Program, Scale};
use oov_serve::SimRequest;

/// SplitMix64: small, seedable and good enough to shuffle inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is fixed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible for
    /// the small ranges used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Salts that give each generator its own stream from one `--seed`.
const POOL_SALT: u64 = 0x706f_6f6c;
const MISS_SALT: u64 = 0x6d69_7373;

/// One paper-scale request on the default engine.
#[must_use]
pub fn paper_req(program: Program, machine: MachineConfig) -> SimRequest {
    SimRequest {
        program,
        scale: Scale::Paper,
        machine,
        stepper: Stepper::EventDriven,
        fault_at: None,
    }
}

/// The paper's exhibit grid in canonical order: every kernel ×
/// `REG_SWEEP` × {`REF_LATENCIES`, `DEFAULT_LATENCY`} × queue slots
/// {16, 128} × {early, late} × {no elimination, SLE+VLE}, plus REF at
/// each latency, deduplicated by fingerprint. SLE+VLE forces late
/// commit, so the naive 2050-point product holds 1550 distinct points.
#[must_use]
pub fn grid_canonical() -> Vec<SimRequest> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut push = |req: SimRequest| {
        if seen.insert(req.fingerprint()) {
            out.push(req);
        }
    };
    for program in Program::ALL {
        for lat in REF_LATENCIES.into_iter().chain([DEFAULT_LATENCY]) {
            push(paper_req(
                program,
                MachineConfig::Ref(RefConfig::default().with_memory_latency(lat)),
            ));
            for regs in REG_SWEEP {
                for slots in [16, 128] {
                    for commit in [CommitMode::Early, CommitMode::Late] {
                        for elim in [LoadElimMode::Off, LoadElimMode::SleVle] {
                            let cfg = OooConfig::default()
                                .with_memory_latency(lat)
                                .with_phys_v_regs(regs)
                                .with_queue_slots(slots)
                                .with_commit(commit)
                                .with_load_elim(elim);
                            push(paper_req(program, MachineConfig::Ooo(cfg)));
                        }
                    }
                }
            }
        }
    }
    out
}

/// The exhibit grid in a seeded order.
#[must_use]
pub fn grid_points(seed: u64) -> Vec<SimRequest> {
    let mut points = grid_canonical();
    Rng::new(seed).shuffle(&mut points);
    points
}

/// `n` distinct grid points drawn by seed, with at least one REF point
/// so the reference machine is exercised on every serve workload.
#[must_use]
pub fn hot_pool(seed: u64, n: usize) -> Vec<SimRequest> {
    let mut points = grid_points(seed ^ POOL_SALT);
    let n = n.min(points.len());
    let is_ref = |r: &SimRequest| matches!(r.machine, MachineConfig::Ref(_));
    if !points[..n].iter().any(is_ref) {
        let at = points
            .iter()
            .position(is_ref)
            .expect("the grid holds REF points");
        points.swap(n - 1, at);
    }
    points.truncate(n);
    points
}

/// An endless stream of points the server has never seen, drawn from
/// axes wider than the grid's (registers 9–64, latency 1–150, queue
/// slots 8–128) so the supply cannot run dry within a run. About one
/// point in 16 is REF, like the grid's share.
#[derive(Debug)]
pub struct MissStream {
    rng: Rng,
    seen: HashSet<u64>,
}

impl MissStream {
    /// A stream fixed by `seed` that skips every fingerprint in
    /// `exclude` (the hot pool) and every point it already produced.
    #[must_use]
    pub fn new(seed: u64, exclude: &[SimRequest]) -> Self {
        MissStream {
            rng: Rng::new(seed ^ MISS_SALT),
            seen: exclude.iter().map(SimRequest::fingerprint).collect(),
        }
    }

    /// The next `n` never-seen points.
    pub fn take(&mut self, n: usize) -> Vec<SimRequest> {
        (0..n).map(|_| self.next_point()).collect()
    }

    fn next_point(&mut self) -> SimRequest {
        loop {
            let r = &mut self.rng;
            let program = Program::ALL[r.below(Program::ALL.len())];
            let lat = r.range(1, 150) as u32;
            let machine = if r.below(16) == 0 {
                MachineConfig::Ref(RefConfig::default().with_memory_latency(lat))
            } else {
                let base = OooConfig::default()
                    .with_memory_latency(lat)
                    .with_phys_v_regs(r.range(9, 64))
                    .with_queue_slots(r.range(8, 128));
                MachineConfig::Ooo(match r.below(3) {
                    0 => base.with_commit(CommitMode::Early),
                    1 => base.with_commit(CommitMode::Late),
                    _ => base.with_load_elim(LoadElimMode::SleVle),
                })
            };
            let req = paper_req(program, machine);
            if self.seen.insert(req.fingerprint()) {
                return req;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fps(v: &[SimRequest]) -> Vec<u64> {
        v.iter().map(SimRequest::fingerprint).collect()
    }

    #[test]
    fn grid_is_the_deduplicated_exhibit_product() {
        let grid = grid_canonical();
        assert_eq!(grid.len(), 1550);
        let refs = grid
            .iter()
            .filter(|r| matches!(r.machine, MachineConfig::Ref(_)))
            .count();
        assert_eq!(refs, 50);
    }

    #[test]
    fn grid_order_is_deterministic_per_seed() {
        assert_eq!(fps(&grid_points(7)), fps(&grid_points(7)));
        assert_ne!(fps(&grid_points(7)), fps(&grid_points(8)));
        let mut a = fps(&grid_points(7));
        let mut b = fps(&grid_canonical());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "a seed reorders the grid, it never changes it");
    }

    #[test]
    fn hot_pool_is_deterministic_unique_and_holds_ref() {
        for seed in 0..20 {
            let pool = hot_pool(seed, 200);
            assert_eq!(fps(&pool), fps(&hot_pool(seed, 200)));
            let unique: HashSet<u64> = fps(&pool).into_iter().collect();
            assert_eq!(unique.len(), 200);
            assert!(pool
                .iter()
                .any(|r| matches!(r.machine, MachineConfig::Ref(_))));
        }
        assert_ne!(fps(&hot_pool(1, 200)), fps(&hot_pool(2, 200)));
    }

    #[test]
    fn miss_stream_is_deterministic_and_never_repeats() {
        let pool = hot_pool(3, 200);
        let a = MissStream::new(3, &pool).take(3000);
        let b = MissStream::new(3, &pool).take(3000);
        assert_eq!(fps(&a), fps(&b));
        let mut seen: HashSet<u64> = fps(&pool).into_iter().collect();
        for fp in fps(&a) {
            assert!(seen.insert(fp), "miss stream repeated a point");
        }
        assert_ne!(fps(&a), fps(&MissStream::new(4, &pool).take(3000)));
    }
}
