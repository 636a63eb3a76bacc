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
        // The initial memory is by far the kernel's largest part: move
        // it into the compiled program instead of cloning it.
        let mut kernel = self.kernel(scale);
        let mem_init = std::mem::take(&mut kernel.mem_init);
        let mut prog = compile(&kernel);
        prog.mem_init = mem_init;
        prog
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

    #[test]
    fn daxpy_compiles_and_runs() {
        let k = daxpy(4, 64);
        let prog = oov_vcc::compile(&k);
        assert_eq!(prog.trace.stats().branches, 4);
    }
}
