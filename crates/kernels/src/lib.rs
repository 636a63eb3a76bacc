//! The benchmark suite: synthetic models of the ten Perfect Club /
//! Specfp92 programs the paper evaluates.
//!
//! The original study compiled these programs with the Convex compiler
//! and traced them on a C3480 with Dixie. Neither is available, so each
//! program is modelled as a [`oov_vcc::Kernel`] whose compiled trace
//! reproduces the paper's published characterisation: operation mix and
//! vector lengths (Table 2), spill traffic (Table 3), and the
//! per-program behaviours the text highlights (swm256's 128-long
//! vectors, bdna's enormous basic blocks, trfd/dyfesm's short vectors,
//! scalar pressure and cross-iteration memory recurrences, tomcatv's
//! scalar fraction). The substitution trades instruction-level
//! fidelity for the properties the paper's results depend on.
//!
//! # Example
//!
//! ```
//! use oov_kernels::{Program, Scale};
//!
//! let prog = Program::Trfd.compile(Scale::Smoke);
//! let s = prog.trace.stats();
//! assert!(s.vectorization_pct() > 70.0, "paper selected >=70% programs");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
mod programs;
mod workload;

pub use programs::daxpy;
pub use workload::random_kernel;

use oov_vcc::{compile, CompiledProgram, Kernel};

/// Trace-size scaling: `Smoke` for unit tests, `Paper` for the
/// experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Reduced trip counts for fast tests.
    Smoke,
    /// Full evaluation scale.
    #[default]
    Paper,
}

impl Scale {
    /// Wire/CLI name of the scale.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Paper => "paper",
        }
    }

    /// Parses a [`Scale::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Scale::Smoke),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Scales an inner trip count.
    #[must_use]
    pub fn trips(self, full: u32) -> u32 {
        match self {
            Scale::Smoke => (full / 6).max(2),
            Scale::Paper => full,
        }
    }

    /// Scales an outer trip count.
    #[must_use]
    pub fn outer(self, full: u32) -> u32 {
        match self {
            Scale::Smoke => full.min(2),
            Scale::Paper => full,
        }
    }
}

/// The ten benchmark programs of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Program {
    /// Shallow-water model (Specfp92).
    Swm256,
    /// Hydrodynamics (Specfp92).
    Hydro2d,
    /// Implicit finite-difference fluid solver (Perfect Club).
    Arc2d,
    /// Transonic flow / multigrid (Perfect Club).
    Flo52,
    /// NASA kernel collection (Specfp92).
    Nasa7,
    /// Lattice quantum chromodynamics (Specfp92).
    Su2cor,
    /// Mesh generation (Specfp92).
    Tomcatv,
    /// Molecular dynamics of DNA (Perfect Club).
    Bdna,
    /// Two-electron integral transformation (Perfect Club).
    Trfd,
    /// Structural dynamics finite elements (Perfect Club).
    Dyfesm,
}

impl Program {
    /// All programs, in the paper's Table 2 order.
    pub const ALL: [Program; 10] = [
        Program::Swm256,
        Program::Hydro2d,
        Program::Arc2d,
        Program::Flo52,
        Program::Nasa7,
        Program::Su2cor,
        Program::Tomcatv,
        Program::Bdna,
        Program::Trfd,
        Program::Dyfesm,
    ];

    /// The program's name as the paper spells it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Program::Swm256 => "swm256",
            Program::Hydro2d => "hydro2d",
            Program::Arc2d => "arc2d",
            Program::Flo52 => "flo52",
            Program::Nasa7 => "nasa7",
            Program::Su2cor => "su2cor",
            Program::Tomcatv => "tomcatv",
            Program::Bdna => "bdna",
            Program::Trfd => "trfd",
            Program::Dyfesm => "dyfesm",
        }
    }

    /// The benchmark suite the program belongs to (paper Table 2).
    #[must_use]
    pub fn suite(self) -> &'static str {
        match self {
            Program::Swm256
            | Program::Hydro2d
            | Program::Nasa7
            | Program::Su2cor
            | Program::Tomcatv => "Spec",
            _ => "Perfect",
        }
    }

    /// Builds the program's kernel IR at the given scale.
    #[must_use]
    pub fn kernel(self, scale: Scale) -> Kernel {
        match self {
            Program::Swm256 => programs::swm256(scale),
            Program::Hydro2d => programs::hydro2d(scale),
            Program::Arc2d => programs::arc2d(scale),
            Program::Flo52 => programs::flo52(scale),
            Program::Nasa7 => programs::nasa7(scale),
            Program::Su2cor => programs::su2cor(scale),
            Program::Tomcatv => programs::tomcatv(scale),
            Program::Bdna => programs::bdna(scale),
            Program::Trfd => programs::trfd(scale),
            Program::Dyfesm => programs::dyfesm(scale),
        }
    }

    /// Compiles the program to a dynamic trace.
    #[must_use]
    pub fn compile(self, scale: Scale) -> CompiledProgram {
        compile(&self.kernel(scale))
    }

    /// Parses a program from its name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Program> {
        Program::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_programs_compile_at_smoke_scale() {
        for p in Program::ALL {
            let prog = p.compile(Scale::Smoke);
            assert!(!prog.trace.is_empty(), "{p}: empty trace");
            assert!(prog.trace.stats().vector_insts > 0, "{p}: no vector code");
        }
    }

    #[test]
    fn vectorization_is_at_least_seventy_percent() {
        // Paper section 3.1: "we chose the 10 programs that achieve at
        // least 70% vectorization".
        for p in Program::ALL {
            let prog = p.compile(Scale::Smoke);
            let v = prog.trace.stats().vectorization_pct();
            assert!(v >= 70.0, "{p}: vectorization {v:.1}% below 70%");
        }
    }

    #[test]
    fn vector_length_profile_matches_paper() {
        let avg = |p: Program| p.compile(Scale::Smoke).trace.stats().avg_vl();
        // swm256 runs essentially full-length vectors.
        assert!(avg(Program::Swm256) > 115.0);
        // trfd/dyfesm/flo52 are the short-vector programs.
        assert!(avg(Program::Trfd) < 64.0);
        assert!(avg(Program::Dyfesm) < 48.0);
        assert!(avg(Program::Flo52) < 64.0);
    }

    #[test]
    fn spill_traffic_profile_matches_paper() {
        let spill = |p: Program| {
            p.compile(Scale::Smoke)
                .trace
                .stats()
                .spill_traffic_fraction()
        };
        // bdna is dominated by spill traffic (paper: 69 %).
        assert!(
            spill(Program::Bdna) > 0.40,
            "bdna spill {}",
            spill(Program::Bdna)
        );
        // trfd and dyfesm spill *scalar* state — the serialising
        // store→load recurrences that SLE attacks. Small in words moved,
        // large on the critical path.
        assert!(
            spill(Program::Trfd) > 0.005,
            "trfd spill {}",
            spill(Program::Trfd)
        );
        assert!(
            spill(Program::Dyfesm) > 0.005,
            "dyfesm spill {}",
            spill(Program::Dyfesm)
        );
    }

    #[test]
    fn bdna_has_huge_basic_blocks() {
        let prog = Program::Bdna.compile(Scale::Smoke);
        // Count vector instructions between branches.
        let mut run = 0u64;
        let mut max_run = 0u64;
        for i in prog.trace.iter() {
            if i.op.is_control() {
                max_run = max_run.max(run);
                run = 0;
            } else if i.op.is_vector() {
                run += 1;
            }
        }
        assert!(
            max_run > 150,
            "bdna basic blocks too small: {max_run} vector instructions"
        );
    }

    #[test]
    fn cross_iteration_recurrence_present_in_trfd_and_dyfesm() {
        for p in [Program::Trfd, Program::Dyfesm] {
            let prog = p.compile(Scale::Smoke);
            // Find a store whose exact range is later loaded again.
            let mut store_ranges = std::collections::HashSet::new();
            let mut found = false;
            for i in prog.trace.iter() {
                if let Some(m) = i.mem {
                    if i.op.is_store() && !i.is_spill {
                        store_ranges.insert((m.range_lo, m.range_hi));
                    } else if i.op.is_load()
                        && !i.is_spill
                        && store_ranges.contains(&(m.range_lo, m.range_hi))
                    {
                        found = true;
                        break;
                    }
                }
            }
            assert!(found, "{p}: no cross-iteration store->load recurrence");
        }
    }

    #[test]
    fn tomcatv_is_among_the_least_vectorized() {
        let v = |p: Program| p.compile(Scale::Smoke).trace.stats().vectorization_pct();
        let tom = v(Program::Tomcatv);
        for p in [Program::Swm256, Program::Hydro2d, Program::Arc2d] {
            assert!(tom < v(p), "tomcatv should be less vectorized than {p}");
        }
    }

    #[test]
    fn names_round_trip() {
        for p in Program::ALL {
            assert_eq!(Program::from_name(p.name()), Some(p));
        }
        assert_eq!(Program::from_name("nope"), None);
    }

    #[test]
    fn paper_scale_is_larger_than_smoke() {
        let s = Program::Flo52.compile(Scale::Smoke).trace.len();
        let p = Program::Flo52.compile(Scale::Paper).trace.len();
        assert!(p > 2 * s);
    }

    /// Pins every program's smoke-scale initial memory: its word count
    /// and an FNV-1a digest of its `(word address, value)` pairs in
    /// address order. A change to how `mem_init` is stored or seeded
    /// must leave every word where it was.
    #[test]
    fn initial_images_are_pinned() {
        const PINNED: [(&str, usize, u64); 10] = [
            ("swm256", 57_344, 0x7d06_2b6a_c01a_07fa),
            ("hydro2d", 98_304, 0x9ca6_da36_2686_1c64),
            ("arc2d", 114_688, 0xecfe_4b0d_7f20_d408),
            ("flo52", 49_152, 0x3aad_ff53_997b_7c1c),
            ("nasa7", 98_880, 0x4ce8_aae4_95aa_950b),
            ("su2cor", 82_000, 0xd754_954d_7b1d_ea35),
            ("tomcatv", 98_560, 0x5f9e_7c8e_06a3_ff3f),
            ("bdna", 131_072, 0xa2f1_2b39_1753_62dc),
            ("trfd", 33_104, 0x4eb9_df1a_c881_7ae9),
            ("dyfesm", 41_264, 0x7eac_4356_9367_c674),
        ];
        let got: Vec<(&str, usize, u64)> = Program::ALL
            .iter()
            .map(|p| {
                let prog = p.compile(Scale::Smoke);
                let mut words: Vec<(u64, u64)> = prog
                    .base_image()
                    .words()
                    .iter()
                    .map(|(&w, &v)| (w, v))
                    .collect();
                words.sort_unstable();
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in words
                    .iter()
                    .flat_map(|&(w, v)| w.to_le_bytes().into_iter().chain(v.to_le_bytes()))
                {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                (p.name(), words.len(), h)
            })
            .collect();
        assert_eq!(got, PINNED, "a program's initial memory moved");
    }

    /// One program's pinned trace: name, length, [`oov_vcc`]'s
    /// `TraceStats` fields in declaration order, `ideal_cycles` and
    /// the FNV-1a digest of every instruction.
    type TracePin = (&'static str, usize, [u64; 12], u64, u64);

    /// Pins every program's smoke-scale trace: its length, statistics,
    /// IDEAL bound and an FNV-1a digest over each instruction's fields
    /// (opcode mnemonic, registers, vector length, memory reference,
    /// branch outcome, spill mark, pc and immediate). A change to how a
    /// trace is stored must leave every instruction as it was.
    #[test]
    fn traces_are_pinned() {
        const PINNED: [TracePin; 10] = [
            (
                "swm256",
                470,
                [86, 384, 48_896, 20_352, 1_024, 4_544, 0, 0, 0, 0, 0, 20],
                24_896,
                0x10c3_a98e_cc16_05f6,
            ),
            (
                "hydro2d",
                372,
                [50, 322, 30_912, 11_520, 3_456, 3_264, 0, 0, 0, 4, 0, 10],
                14_788,
                0x8328_55fb_0f90_9f3c,
            ),
            (
                "arc2d",
                268,
                [34, 234, 26_208, 10_640, 3_360, 2_352, 0, 0, 0, 0, 0, 7],
                12_992,
                0x5c8a_72bd_b60f_3bc8,
            ),
            (
                "flo52",
                427,
                [90, 337, 10_784, 4_832, 320, 1_344, 0, 0, 0, 0, 0, 21],
                6_176,
                0xf463_134e_15b1_87cf,
            ),
            (
                "nasa7",
                333,
                [109, 224, 17_472, 4_832, 1_056, 1_888, 384, 24, 0, 0, 0, 13],
                6_744,
                0x73ee_fee5_b267_79b5,
            ),
            (
                "su2cor",
                304,
                [58, 246, 19_680, 7_440, 1_440, 3_280, 0, 0, 0, 8, 0, 11],
                10_728,
                0x3adb_5580_1e9d_2274,
            ),
            (
                "tomcatv",
                684,
                [484, 200, 20_800, 5_824, 832, 5_824, 832, 80, 40, 8, 0, 8],
                11_736,
                0x3a9f_9867_22a0_edcd,
            ),
            (
                "bdna",
                384,
                [28, 356, 22_784, 9_600, 7_552, 4_736, 3_712, 0, 0, 0, 0, 2],
                14_336,
                0xdb4b_b92e_94a4_8e9c,
            ),
            (
                "trfd",
                754,
                [504, 250, 9_360, 2_800, 0, 1_600, 0, 200, 80, 20, 0, 10],
                4_620,
                0x12dc_e368_7f0a_96f6,
            ),
            (
                "dyfesm",
                890,
                [566, 324, 8_592, 2_688, 0, 1_568, 0, 204, 72, 28, 0, 16],
                4_488,
                0x9fe7_6fab_b513_2800,
            ),
        ];
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let got: Vec<TracePin> = Program::ALL
            .iter()
            .map(|p| {
                let prog = p.compile(Scale::Smoke);
                let t = &prog.trace;
                let s = t.stats();
                let stats = [
                    s.scalar_insts,
                    s.vector_insts,
                    s.vector_ops,
                    s.vload_words,
                    s.vload_spill_words,
                    s.vstore_words,
                    s.vstore_spill_words,
                    s.sload_count,
                    s.sload_spill_count,
                    s.sstore_count,
                    s.sstore_spill_count,
                    s.branches,
                ];
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for i in t.iter() {
                    fnv(&mut h, i.op.to_string().as_bytes());
                    let regs = std::iter::once(i.dst).chain(i.srcs);
                    for r in regs {
                        fnv(&mut h, &[r.map_or(0xff, |r| r.dense_index() as u8)]);
                    }
                    fnv(&mut h, &i.vl.to_le_bytes());
                    match i.mem {
                        Some(m) => {
                            fnv(&mut h, &[1, m.kind as u8, m.granularity]);
                            for w in [m.base, m.stride as u64, m.range_lo, m.range_hi] {
                                fnv(&mut h, &w.to_le_bytes());
                            }
                        }
                        None => fnv(&mut h, &[0]),
                    }
                    match i.branch {
                        Some(b) => {
                            fnv(&mut h, &[1, u8::from(b.taken)]);
                            fnv(&mut h, &b.target.to_le_bytes());
                        }
                        None => fnv(&mut h, &[0]),
                    }
                    fnv(&mut h, &[u8::from(i.is_spill)]);
                    fnv(&mut h, &i.pc.to_le_bytes());
                    fnv(&mut h, &i.imm.to_le_bytes());
                }
                (p.name(), t.len(), stats, t.ideal_cycles(), h)
            })
            .collect();
        assert_eq!(got, PINNED, "a program's trace moved");
    }

    /// The paper suite's 40,768 instructions take at most 45 bytes each
    /// as compact records and side words (a whole `Instruction` is 88):
    /// a 24-byte record each, plus four 8-byte side words per memory
    /// reference and one per branch target and nonzero immediate
    /// (`oov-isa`'s tests check that a `Trace` stores exactly that).
    #[test]
    fn paper_suite_traces_take_at_most_45_bytes_per_instruction() {
        let (mut insts, mut bytes) = (0, 0);
        for p in Program::ALL {
            for i in p.compile(Scale::Paper).trace.iter() {
                let words = 4 * usize::from(i.mem.is_some())
                    + usize::from(i.branch.is_some())
                    + usize::from(i.imm != 0);
                insts += 1;
                bytes += 24 + 8 * words;
            }
        }
        assert_eq!(insts, 40_768);
        assert!(
            bytes <= 45 * insts,
            "{bytes} bytes for {insts} instructions"
        );
    }

    #[test]
    fn daxpy_compiles_and_runs() {
        let k = daxpy(4, 64);
        let prog = oov_vcc::compile(&k);
        assert_eq!(prog.trace.stats().branches, 4);
    }
}
