//! The analytical in-order pipeline model.
//!
//! This simulator is *event-driven by construction*: because issue is
//! strictly in order, each instruction's issue cycle is the max of a
//! handful of resource-release times, so the model computes issue times
//! in one pass over the trace — it never steps a cycle loop and has no
//! dead cycles to skip (the counterpart of the OOOVA engine's
//! cycle-skipping stepper). The remaining hot-path cost is per-
//! instruction bookkeeping, which is kept allocation-free via
//! [`VSrcs`].

use oov_isa::{ArchReg, FuClass, InstRecord, Opcode, RefConfig, Trace};
use oov_mem::{AddressBus, ScalarCache, TrafficCounter};
use oov_stats::{OccupancyTracker, SimStats, VectorUnit};

/// Fixed-capacity buffer for an instruction's vector sources (at most
/// three), keeping the per-instruction hot path free of heap
/// allocation.
#[derive(Debug)]
struct VSrcs {
    regs: [ArchReg; 4],
    n: usize,
}

impl VSrcs {
    fn new() -> Self {
        VSrcs {
            regs: [ArchReg::V(0); 4],
            n: 0,
        }
    }

    fn push(&mut self, r: ArchReg) {
        self.regs[self.n] = r;
        self.n += 1;
    }

    fn slice(&self) -> &[ArchReg] {
        &self.regs[..self.n]
    }
}

/// Per-architectural-register timing state.
#[derive(Debug, Clone, Copy, Default)]
struct RegState {
    /// Cycle the first element becomes readable by a chained consumer.
    first_avail: u64,
    /// Cycle the last element has been written (full completion).
    last_avail: u64,
    /// Latest cycle any reader finishes streaming this register.
    readers_done: u64,
    /// The value was produced by a memory load (loads do not chain).
    from_load: bool,
}

/// The reference-machine simulator. Create one per run.
#[derive(Debug)]
pub struct RefSim {
    cfg: RefConfig,
    regs: [RegState; 32],
    fu1_free: u64,
    fu2_free: u64,
    mem_free: u64,
    /// Per V-register bank: two read ports and one write port.
    read_port_free: [[u64; 2]; 4],
    write_port_free: [u64; 4],
    bus: AddressBus,
    traffic: TrafficCounter,
    occ: OccupancyTracker,
    cache: Option<ScalarCache>,
    last_issue: u64,
    finish: u64,
}

impl RefSim {
    /// Builds a simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`RefConfig::validate`]'s message if `cfg` breaks a
    /// bound.
    #[must_use]
    pub fn new(cfg: RefConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        RefSim {
            cfg,
            regs: [RegState::default(); 32],
            fu1_free: 0,
            fu2_free: 0,
            mem_free: 0,
            read_port_free: [[0; 2]; 4],
            write_port_free: [0; 4],
            bus: AddressBus::new(),
            traffic: TrafficCounter::new(),
            occ: OccupancyTracker::new(),
            cache: cfg
                .scalar_cache
                .map(|c| ScalarCache::new(c.size_bytes, c.line_bytes)),
            last_issue: 0,
            finish: 0,
        }
    }

    /// Runs a whole trace and returns the statistics.
    #[must_use]
    pub fn run(mut self, trace: &Trace) -> SimStats {
        let mut branches = 0;
        for rec in trace.records() {
            self.issue(trace, rec);
            if rec.op() == Opcode::Branch {
                branches += 1;
            }
        }
        let cycles = self.finish.max(self.last_issue) + 1;
        let addr_busy = self.bus.busy_cycles();
        SimStats {
            cycles,
            committed: trace.len() as u64,
            breakdown: self.occ.into_breakdown(cycles),
            addr_bus_busy_cycles: addr_busy,
            mem_requests: self.traffic.total(),
            load_requests: self.traffic.loads(),
            store_requests: self.traffic.stores(),
            spill_requests: self.traffic.spill_loads() + self.traffic.spill_stores(),
            branches,
            ..SimStats::new()
        }
    }

    fn reg(&self, r: ArchReg) -> &RegState {
        &self.regs[r.dense_index()]
    }

    fn reg_mut(&mut self, r: ArchReg) -> &mut RegState {
        &mut self.regs[r.dense_index()]
    }

    /// Earliest cycle this instruction may start, given one source.
    fn src_ready(&self, src: ArchReg, consumer_is_scalar: bool) -> u64 {
        let st = self.reg(src);
        if consumer_is_scalar || src.class().is_scalar() {
            // Scalar values are consumed whole.
            return st.last_avail;
        }
        if st.from_load && !self.cfg.chain_loads {
            // Paper §2.1: no chaining from memory loads.
            return st.last_avail + 1;
        }
        if self.cfg.chain_fu {
            st.first_avail + 1
        } else {
            st.last_avail + 1
        }
    }

    /// Bank index of a vector register (pairs share a bank, §2.1).
    fn bank(r: ArchReg) -> usize {
        debug_assert!(r.is_vector());
        (r.index() / 2) as usize
    }

    /// Lower bound from banked read ports for the given vector sources.
    fn read_port_bound(&self, vsrcs: &[ArchReg]) -> u64 {
        if !self.cfg.banked_ports {
            return 0;
        }
        let mut bound = 0;
        for b in 0..4 {
            let n = vsrcs.iter().filter(|r| Self::bank(**r) == b).count();
            let ports = &self.read_port_free[b];
            bound = bound.max(match n {
                0 => 0,
                1 => ports[0].min(ports[1]),
                _ => ports[0].max(ports[1]),
            });
        }
        bound
    }

    /// Claims read ports for the vector sources at issue time `t0`.
    fn claim_read_ports(&mut self, vsrcs: &[ArchReg], t0: u64, vl: u16) {
        if !self.cfg.banked_ports {
            return;
        }
        let until = t0 + u64::from(vl);
        for &r in vsrcs {
            let b = Self::bank(r);
            let ports = &mut self.read_port_free[b];
            // Use the port that frees earliest.
            let i = if ports[0] <= ports[1] { 0 } else { 1 };
            ports[i] = until;
        }
    }

    fn issue(&mut self, trace: &Trace, rec: &InstRecord) {
        match rec.op().fu_class() {
            FuClass::Scalar => self.issue_scalar(trace, rec),
            FuClass::Mem => self.issue_mem(trace, rec),
            FuClass::VecAny | FuClass::VecFu2Only => self.issue_vector(rec),
        }
    }

    fn in_order(&mut self, lower: u64) -> u64 {
        let t0 = lower.max(self.last_issue + 1);
        self.last_issue = t0;
        t0
    }

    fn issue_scalar(&mut self, trace: &Trace, rec: &InstRecord) {
        let mut lower = 0;
        for s in rec.sources() {
            lower = lower.max(self.src_ready(s, true));
        }
        let t0 = self.in_order(lower);
        let lat = u64::from(self.cfg.lat.exec(rec.op()));
        if let Some(d) = rec.dst() {
            let st = self.reg_mut(d);
            st.first_avail = t0 + lat;
            st.last_avail = t0 + lat;
            st.from_load = false;
            st.readers_done = 0;
        }
        if rec.op().is_control() {
            // Taken branches refill the short in-order front end.
            if trace.branch(rec).is_some_and(|b| b.taken) {
                self.last_issue = t0 + 1;
            }
        }
        self.finish = self.finish.max(t0 + lat);
    }

    fn issue_vector(&mut self, rec: &InstRecord) {
        let vl = rec.vl();
        let lat = &self.cfg.lat;
        let leff = u64::from(lat.first_result(rec.op()));
        let occupancy = lat.occupancy(vl);

        let mut lower = 0;
        let mut vsrcs = VSrcs::new();
        for s in rec.sources() {
            lower = lower.max(self.src_ready(s, false));
            if s.is_vector() {
                vsrcs.push(s);
            }
        }
        // Structural: choose a functional unit.
        let use_fu2 = match rec.op().fu_class() {
            FuClass::VecFu2Only => true,
            _ => self.fu2_free < self.fu1_free,
        };
        lower = lower.max(if use_fu2 {
            self.fu2_free
        } else {
            self.fu1_free
        });
        // Register-file ports.
        lower = lower.max(self.read_port_bound(vsrcs.slice()));
        if let Some(d) = rec.dst() {
            // No renaming: drain readers and the previous writer.
            let st = self.reg(d);
            lower = lower.max(st.readers_done.max(st.last_avail) + 1);
            if d.is_vector() && self.cfg.banked_ports {
                let wfree = self.write_port_free[Self::bank(d)];
                lower = lower.max(wfree.saturating_sub(leff));
            }
        }
        let t0 = self.in_order(lower);

        self.claim_read_ports(vsrcs.slice(), t0, vl);
        for &s in vsrcs.slice() {
            let st = self.reg_mut(s);
            st.readers_done = st.readers_done.max(t0 + u64::from(vl) - 1);
        }
        let unit_free = t0 + occupancy;
        if use_fu2 {
            self.fu2_free = unit_free;
            self.occ.busy(VectorUnit::Fu2, t0, unit_free - 1);
        } else {
            self.fu1_free = unit_free;
            self.occ.busy(VectorUnit::Fu1, t0, unit_free - 1);
        }
        if let Some(d) = rec.dst() {
            let scalar_dst = d.class().is_scalar();
            let (first, last) = if scalar_dst {
                // Reductions deliver after draining the whole vector.
                let done = t0 + leff + u64::from(vl);
                (done, done)
            } else {
                (t0 + leff, t0 + leff + u64::from(vl) - 1)
            };
            if d.is_vector() && self.cfg.banked_ports {
                self.write_port_free[Self::bank(d)] = last + 1;
            }
            let st = self.reg_mut(d);
            st.first_avail = first;
            st.last_avail = last;
            st.from_load = false;
            st.readers_done = 0;
        }
        self.finish = self.finish.max(t0 + leff + u64::from(vl));
    }

    fn issue_mem(&mut self, trace: &Trace, rec: &InstRecord) {
        let vl = if rec.op().is_vector() { rec.vl() } else { 1 };
        let latency = u64::from(self.cfg.lat.memory);
        let is_load = rec.op().is_load();
        let is_vector = rec.op().is_vector();

        // Scalar-cache interaction: hits bypass the shared bus entirely;
        // scalar stores and vector accesses invalidate lines.
        if let (Some(cache), Some(mem)) = (&mut self.cache, trace.mem(rec)) {
            match rec.op() {
                Opcode::SLoad => {
                    if cache.access_load(mem.base) {
                        let hit_lat = u64::from(
                            self.cfg
                                .scalar_cache
                                .expect("cache without config")
                                .hit_latency,
                        );
                        let mut lower = 0;
                        for s in rec.sources() {
                            lower = lower.max(self.src_ready(s, true));
                        }
                        let t0 = self.in_order(lower);
                        if let Some(d) = rec.dst() {
                            let st = self.reg_mut(d);
                            st.first_avail = t0 + hit_lat;
                            st.last_avail = t0 + hit_lat;
                            st.from_load = false;
                            st.readers_done = 0;
                        }
                        self.finish = self.finish.max(t0 + hit_lat);
                        return;
                    }
                }
                Opcode::SStore => {
                    cache.access_store(mem.base);
                }
                _ => {
                    cache.invalidate_range(mem.range_lo, mem.range_hi);
                }
            }
        }

        let mut lower = self.mem_free;
        let mut vsrcs = VSrcs::new();
        for s in rec.sources() {
            // Store data chains; address operands are scalar.
            lower = lower.max(self.src_ready(s, !s.is_vector()));
            if s.is_vector() {
                vsrcs.push(s);
            }
        }
        lower = lower.max(self.read_port_bound(vsrcs.slice()));
        if let Some(d) = rec.dst() {
            let st = self.reg(d);
            lower = lower.max(st.readers_done.max(st.last_avail) + 1);
        }
        let t0 = self.in_order(lower);

        self.claim_read_ports(vsrcs.slice(), t0, vl);
        for &s in vsrcs.slice() {
            let st = self.reg_mut(s);
            st.readers_done = st.readers_done.max(t0 + u64::from(vl) - 1);
        }
        let grant = self.bus.reserve(t0, u64::from(vl));
        debug_assert_eq!(grant.start, t0, "memory unit serialises bus access");
        self.occ.busy(VectorUnit::Mem, grant.start, grant.last);
        if is_load {
            self.traffic
                .record_load(u64::from(vl), rec.is_spill(), is_vector);
        } else {
            self.traffic
                .record_store(u64::from(vl), rec.is_spill(), is_vector);
        }

        if is_load {
            let first = grant.start + latency;
            let last = grant.last + latency;
            if let Some(d) = rec.dst() {
                let st = self.reg_mut(d);
                st.first_avail = first;
                st.last_avail = last;
                st.from_load = true;
                st.readers_done = 0;
            }
            // The memory unit is occupied for the *address* phase only:
            // independent loads stream back-to-back and the data buses
            // return their elements in disjoint windows. Latency is
            // exposed only when a dependent instruction stalls issue
            // ("the first load instruction at the idle memory port
            // exposes the full memory latency", paper §1).
            self.mem_free = grant.last + 1;
            self.finish = self.finish.max(last);
        } else {
            self.mem_free = grant.last + 1;
            self.finish = self.finish.max(grant.last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_isa::{BranchInfo, Instruction, MemRef};

    fn vload(dst: u8, base: u64, vl: u16) -> Instruction {
        Instruction::load(
            Opcode::VLoad,
            ArchReg::V(dst),
            &[],
            MemRef::strided(base, 8, vl),
            vl,
        )
    }

    fn vadd(dst: u8, a: u8, b: u8, vl: u16) -> Instruction {
        Instruction::vector(
            Opcode::VAdd,
            ArchReg::V(dst),
            &[ArchReg::V(a), ArchReg::V(b)],
            vl,
        )
    }

    fn run(insts: Vec<Instruction>) -> SimStats {
        run_cfg(insts, RefConfig::default())
    }

    fn run_cfg(insts: Vec<Instruction>, cfg: RefConfig) -> SimStats {
        let mut t = Trace::new("t");
        t.extend(insts);
        RefSim::new(cfg).run(&t)
    }

    #[test]
    fn single_load_takes_latency_plus_stream() {
        let s = run(vec![vload(0, 0x1000, 64)]);
        // Issue at 0 (after in_order: 1), addresses 64 cycles, data
        // returns after 50: finish ≈ 1 + 50 + 63.
        assert!(s.cycles >= 64 + 50);
        assert!(s.cycles < 64 + 50 + 10);
        assert_eq!(s.mem_requests, 64);
    }

    #[test]
    fn dependent_add_waits_for_full_load_no_chaining() {
        let s1 = run(vec![vload(0, 0x1000, 64)]);
        let s2 = run(vec![vload(0, 0x1000, 64), vadd(1, 0, 0, 64)]);
        // The add must wait for the last element (no load chaining), then
        // stream 64 more elements.
        assert!(s2.cycles >= s1.cycles + 64);
    }

    #[test]
    fn load_chaining_knob_shortens_execution() {
        let insts = vec![vload(0, 0x1000, 128), vadd(1, 0, 0, 128)];
        let base = run_cfg(insts.clone(), RefConfig::default());
        let chained = run_cfg(
            insts,
            RefConfig {
                chain_loads: true,
                ..RefConfig::default()
            },
        );
        assert!(chained.cycles < base.cycles);
    }

    #[test]
    fn fu_chaining_overlaps_dependent_computes() {
        let insts = vec![
            vload(0, 0x1000, 128),
            vadd(1, 0, 0, 128),
            vadd(2, 1, 1, 128),
        ];
        let chained = run(insts.clone());
        let unchained = run_cfg(
            insts,
            RefConfig {
                chain_fu: false,
                ..RefConfig::default()
            },
        );
        assert!(chained.cycles < unchained.cycles);
    }

    #[test]
    fn mul_only_uses_fu2() {
        // Two independent multiplies serialise on FU2.
        let ld = vec![vload(0, 0x1000, 128), vload(1, 0x2000, 128)];
        let mut one = ld.clone();
        one.push(Instruction::vector(
            Opcode::VMul,
            ArchReg::V(2),
            &[ArchReg::V(0), ArchReg::V(1)],
            128,
        ));
        let mut two = one.clone();
        two.push(Instruction::vector(
            Opcode::VMul,
            ArchReg::V(3),
            &[ArchReg::V(0), ArchReg::V(1)],
            128,
        ));
        let s1 = run(one);
        let s2 = run(two);
        assert!(
            s2.cycles >= s1.cycles + 128,
            "second multiply must wait for FU2 ({} vs {})",
            s2.cycles,
            s1.cycles
        );
    }

    #[test]
    fn independent_add_and_mul_overlap_on_two_fus() {
        // Operands spread over banks 0 and 1 so that the multiply and the
        // add each use one read port per bank — no port conflicts, and
        // the two functional units can run concurrently.
        let ld = vec![vload(0, 0x1000, 128), vload(2, 0x2000, 128)];
        let mut both = ld.clone();
        both.push(Instruction::vector(
            Opcode::VMul,
            ArchReg::V(4),
            &[ArchReg::V(0), ArchReg::V(2)],
            128,
        ));
        both.push(vadd(6, 0, 2, 128));
        let mut only_mul = ld;
        only_mul.push(Instruction::vector(
            Opcode::VMul,
            ArchReg::V(4),
            &[ArchReg::V(0), ArchReg::V(2)],
            128,
        ));
        let s_both = run(both);
        let s_mul = run(only_mul);
        // The add runs on FU1 concurrently; total grows by much less
        // than a full 128-cycle streaming time.
        assert!(s_both.cycles < s_mul.cycles + 32);
    }

    #[test]
    fn bank_port_conflict_stalls_issue() {
        // V0 and V1 share a bank: three readers of that bank conflict.
        let setup = vec![vload(0, 0x1000, 128), vload(1, 0x2000, 128)];
        let mut conflict = setup.clone();
        // Both sources in bank 0 for both instructions: 4 port claims.
        conflict.push(vadd(2, 0, 1, 128));
        conflict.push(vadd(4, 0, 1, 128));
        let mut spread = setup;
        spread.push(vadd(2, 0, 1, 128));
        spread.push(vadd(4, 2, 2, 128)); // reads bank 1 instead
        let s_conflict = run(conflict);
        let s_spread = run(spread);
        assert!(s_conflict.cycles > s_spread.cycles);
    }

    #[test]
    fn war_hazard_drains_readers_before_rewrite() {
        let insts = vec![
            vload(0, 0x1000, 128),
            vadd(1, 0, 0, 128),
            // Rewrites V0 while the add is reading it: must wait.
            vload(0, 0x4000, 128),
        ];
        let s = run(insts);
        let baseline = run(vec![vload(0, 0x1000, 128), vadd(1, 0, 0, 128)]);
        assert!(s.cycles > baseline.cycles + 64);
    }

    #[test]
    fn stores_have_no_observed_latency() {
        let st = Instruction::store(
            Opcode::VStore,
            &[ArchReg::V(0)],
            MemRef::strided(0x8000, 8, 64),
            64,
        );
        let s = run(vec![st]);
        assert!(s.cycles < 70, "store completes with address streaming");
    }

    #[test]
    fn memory_port_idle_grows_with_latency() {
        let mk = || {
            vec![
                vload(0, 0x1000, 64),
                vadd(1, 0, 0, 64),
                vload(2, 0x3000, 64),
                vadd(3, 2, 2, 64),
            ]
        };
        let lat1 = run_cfg(mk(), RefConfig::default().with_memory_latency(1));
        let lat100 = run_cfg(mk(), RefConfig::default().with_memory_latency(100));
        assert!(lat100.mem_port_idle_pct() > lat1.mem_port_idle_pct());
        assert!(lat100.cycles > lat1.cycles);
    }

    #[test]
    fn breakdown_totals_match_cycles() {
        let s = run(vec![vload(0, 0x1000, 64), vadd(1, 0, 0, 64)]);
        assert_eq!(s.breakdown.total(), s.cycles);
    }

    #[test]
    fn branch_counted_and_taken_penalty_applied() {
        let br_taken = Instruction::control(
            Opcode::Branch,
            &[ArchReg::A(7)],
            BranchInfo {
                taken: true,
                target: 0,
            },
        );
        let br_not = Instruction::control(
            Opcode::Branch,
            &[ArchReg::A(7)],
            BranchInfo {
                taken: false,
                target: 0,
            },
        );
        let filler = Instruction::scalar(Opcode::SAdd, ArchReg::S(0), &[ArchReg::S(1)]);
        let t1 = run(vec![br_taken, filler]);
        let t2 = run(vec![br_not, filler]);
        assert_eq!(t1.branches, 1);
        assert!(t1.cycles > t2.cycles);
    }

    #[test]
    fn spill_traffic_tracked() {
        let spill_load = Instruction::load(
            Opcode::VLoad,
            ArchReg::V(0),
            &[],
            MemRef::strided(0x1000, 8, 32),
            32,
        )
        .spill();
        let s = run(vec![spill_load]);
        assert_eq!(s.spill_requests, 32);
    }
}
