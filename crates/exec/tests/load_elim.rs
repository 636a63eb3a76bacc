//! Dynamic load elimination (paper §6) proven value-correct: each run
//! carries the lock-step [`Checker`] as its probe, which executes the
//! trace architecturally and panics on any elimination whose provider
//! register does not hold exactly what the load would have read (or a
//! store elision that was not silent).

use oov_core::{OooSim, RunResult};
use oov_exec::{Checker, Machine};
use oov_isa::{ArchReg, Instruction, LoadElimMode, MemRef, OooConfig, Opcode, Trace};

fn vload(dst: u8, base: u64, vl: u16) -> Instruction {
    Instruction::load(
        Opcode::VLoad,
        ArchReg::V(dst),
        &[],
        MemRef::strided(base, 8, vl),
        vl,
    )
}

fn vstore(src: u8, base: u64, vl: u16) -> Instruction {
    Instruction::store(
        Opcode::VStore,
        &[ArchReg::V(src)],
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

/// Runs `insts` on `cfg` with the checker attached, over empty memory.
fn checked_run(cfg: OooConfig, insts: Vec<Instruction>) -> RunResult {
    let mut t = Trace::new("t");
    t.extend(insts);
    let checker = Checker::new(&t, Machine::new());
    OooSim::new(cfg, &t).with_probe(Box::new(checker)).run()
}

#[test]
fn sle_eliminates_scalar_spill_reload() {
    let slot = 0x9000;
    let insts = vec![
        Instruction::scalar(Opcode::SLui, ArchReg::S(1), &[]).with_imm(42),
        Instruction::store(Opcode::SStore, &[ArchReg::S(1)], MemRef::scalar(slot), 1),
        Instruction::load(Opcode::SLoad, ArchReg::S(2), &[], MemRef::scalar(slot), 1),
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::Sle);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_scalar_loads, 1);
}

#[test]
fn vle_eliminates_vector_spill_reload() {
    let insts = vec![
        vload(1, 0x1000, 64),
        vstore(1, 0x9000, 64), // spill store
        vadd(1, 1, 1, 64),     // V1 overwritten
        vload(2, 0x9000, 64),  // spill reload: matches the store tag
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_vector_loads, 1);
    assert_eq!(r.stats.eliminated_vector_words, 64);
    // The eliminated load sent no requests.
    assert_eq!(r.stats.mem_requests, 64 + 64);
}

#[test]
fn vle_redundant_load_same_address() {
    // Two identical loads: the second is redundant.
    let insts = vec![vload(1, 0x1000, 64), vload(2, 0x1000, 64)];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_vector_loads, 1);
}

#[test]
fn vle_store_invalidates_tags() {
    // A store overlapping (but not exactly matching) the first
    // load's region kills its tag, and the store's own tag has a
    // different shape — so the reload must NOT be eliminated.
    let insts = vec![
        vload(1, 0x1000, 64),
        vload(3, 0x5000, 64),
        vstore(3, 0x1008, 64), // overlaps [0x1000, ...], shifted by 8
        vload(2, 0x1000, 64),  // no exact tag match remains
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_vector_loads, 0);
}

#[test]
fn vle_store_to_load_forwarding() {
    // A load of exactly the range a store just wrote matches the
    // store's data-register tag: store-to-load forwarding. The value
    // checker proves the forwarded data is what memory would return.
    let insts = vec![
        vload(1, 0x1000, 64),
        vstore(1, 0x20000, 64),
        vload(2, 0x20000, 64),
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_vector_loads, 1);
}

#[test]
fn vle_mismatched_shapes_not_eliminated() {
    // Same base, different vector length: tags must not match.
    let insts = vec![vload(1, 0x1000, 64), vload(2, 0x1000, 32)];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_vector_loads, 0);
}

#[test]
fn silent_store_eliminated() {
    // Load a range, then store the unmodified value straight back:
    // the store writes what memory already holds and is elided.
    let insts = vec![
        vload(1, 0x1000, 64),
        vstore(1, 0x1000, 64), // write-back, unchanged
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVleSse);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_stores, 1);
    assert_eq!(r.stats.eliminated_store_words, 64);
    assert_eq!(r.stats.mem_requests, 64, "only the load hit the bus");
}

#[test]
fn modified_value_store_not_eliminated() {
    let insts = vec![
        vload(1, 0x1000, 64),
        vadd(2, 1, 1, 64),     // modified
        vstore(2, 0x1000, 64), // must be performed
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVleSse);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_stores, 0);
    assert_eq!(r.stats.mem_requests, 128);
}

#[test]
fn store_to_different_address_not_eliminated() {
    // Same data, different location: the copy must be performed.
    let insts = vec![vload(1, 0x1000, 64), vstore(1, 0x9000, 64)];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVleSse);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_stores, 0);
}

#[test]
fn silent_store_after_intervening_clobber_not_eliminated() {
    // Another store overwrites the range in between: the write-back
    // is no longer silent and must execute.
    let insts = vec![
        vload(1, 0x1000, 64),
        vload(2, 0x5000, 64),
        vstore(2, 0x1000, 64), // clobber
        vstore(1, 0x1000, 64), // NOT silent any more
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVleSse);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_stores, 0);
}

#[test]
fn sse_mode_is_superset_of_slevle() {
    let insts = vec![
        vload(1, 0x1000, 64),
        vstore(1, 0x9000, 64),
        vload(2, 0x9000, 64),  // VLE forwarding still works
        vstore(2, 0x9000, 64), // and the write-back is silent
    ];
    let cfg = OooConfig::default().with_load_elim(LoadElimMode::SleVleSse);
    let r = checked_run(cfg, insts);
    assert_eq!(r.stats.eliminated_vector_loads, 1);
    assert_eq!(r.stats.eliminated_stores, 1);
}
