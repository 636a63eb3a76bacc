//! Dependence-aware list scheduling of loop bodies.
//!
//! The paper's reference machine relies on the Convex compiler to schedule
//! vector instructions ("The compiler is responsible for scheduling vector
//! instructions ... so that no port conflicts arise", §2.1). This module
//! plays that role: it reorders each straight-line loop body by a
//! latency-weighted critical-path priority while preserving all register
//! and memory dependences.

use std::collections::HashMap;

use oov_isa::LatencyModel;

use crate::ir::{KInst, LoopSeg, VirtReg};

/// Inclusive byte range an instruction may touch across *all* iterations
/// of its segment (conservative; used for memory-dependence edges).
#[must_use]
pub(crate) fn footprint(inst: &KInst, seg: &LoopSeg) -> Option<(u64, u64)> {
    let a = inst.addr.as_ref()?;
    let corners = [
        a.at(0, 0),
        a.at(0, u64::from(seg.trips.saturating_sub(1))),
        a.at(u64::from(seg.outer_trips.saturating_sub(1)), 0),
        a.at(
            u64::from(seg.outer_trips.saturating_sub(1)),
            u64::from(seg.trips.saturating_sub(1)),
        ),
    ];
    let base_lo = *corners.iter().min().unwrap();
    let base_hi = *corners.iter().max().unwrap();
    let (lo, hi) = if let Some(span) = a.indexed_span {
        (base_lo, base_hi + span)
    } else {
        let extent = a.stride_bytes * (i64::from(inst.vl) - 1);
        if extent >= 0 {
            (base_lo, base_hi.wrapping_add_signed(extent))
        } else {
            (base_lo.wrapping_add_signed(extent), base_hi)
        }
    };
    Some((lo, hi + 7))
}

fn ranges_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// Builds the dependence edges of a body: `edges[i]` lists the
/// instructions that must precede instruction `i`.
#[must_use]
pub(crate) fn dependence_preds(seg: &LoopSeg) -> Vec<Vec<usize>> {
    let body = &seg.body;
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); body.len()];
    let mut last_def: HashMap<VirtReg, usize> = HashMap::new();
    let mut last_uses: HashMap<VirtReg, Vec<usize>> = HashMap::new();
    let footprints: Vec<Option<(u64, u64)>> = body.iter().map(|i| footprint(i, seg)).collect();
    let mut mem_ops: Vec<usize> = Vec::new();

    for (i, inst) in body.iter().enumerate() {
        // RAW: each source depends on its last definition.
        for &s in &inst.srcs {
            if let Some(&d) = last_def.get(&s) {
                preds[i].push(d);
            }
            last_uses.entry(s).or_default().push(i);
        }
        if let Some(d) = inst.dst {
            // WAW with previous definition.
            if let Some(&p) = last_def.get(&d) {
                preds[i].push(p);
            }
            // WAR with previous uses.
            if let Some(users) = last_uses.get(&d) {
                preds[i].extend(users.iter().copied().filter(|&u| u != i));
            }
            last_def.insert(d, i);
            last_uses.insert(d, Vec::new());
        }
        // Memory dependences: a store orders against any overlapping
        // earlier access; a load orders against overlapping earlier stores.
        if inst.is_mem() {
            let fp = footprints[i].expect("memory op without address");
            for &j in &mem_ops {
                let other = &body[j];
                let both_loads = inst.op.is_load() && other.op.is_load();
                if both_loads {
                    continue;
                }
                if let Some(ofp) = footprints[j] {
                    if ranges_overlap(fp, ofp) {
                        preds[i].push(j);
                    }
                }
            }
            mem_ops.push(i);
        }
    }
    for p in &mut preds {
        p.sort_unstable();
        p.dedup();
    }
    preds
}

/// Reorders `seg.body` with greedy list scheduling: among ready
/// instructions, pick the one with the longest latency-weighted path to
/// the end of the body, weighted by the reference machine's latencies.
/// Returns the new order as indices into the original body.
#[must_use]
pub(crate) fn schedule_order(seg: &LoopSeg) -> Vec<usize> {
    let lat = LatencyModel::reference();
    let body = &seg.body;
    let preds = dependence_preds(seg);
    let n = body.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(i);
        }
    }
    // Critical-path priority, computed backwards.
    let mut prio: Vec<u64> = vec![0; n];
    for i in (0..n).rev() {
        let own = u64::from(lat.first_result(body[i].op)) + u64::from(body[i].vl);
        let best_succ = succs[i].iter().map(|&s| prio[s]).max().unwrap_or(0);
        prio[i] = own + best_succ;
    }
    let mut remaining_preds: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(pos) = ready
        .iter()
        .enumerate()
        // Highest priority; original order breaks ties for determinism.
        .max_by_key(|(_, &i)| (prio[i], std::cmp::Reverse(i)))
        .map(|(pos, _)| pos)
    {
        let i = ready.swap_remove(pos);
        order.push(i);
        for &s in &succs[i] {
            remaining_preds[s] -= 1;
            if remaining_preds[s] == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(order.len(), n, "dependence graph has a cycle");
    order
}

/// Schedules a segment in place.
pub fn schedule_segment(seg: &mut LoopSeg) {
    let order = schedule_order(seg);
    let mut new_body = Vec::with_capacity(seg.body.len());
    for &i in &order {
        new_body.push(seg.body[i].clone());
    }
    seg.body = new_body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Kernel;

    fn sample_seg() -> (Kernel, usize) {
        let mut k = Kernel::new("t");
        let arr = k.array(4096);
        let mut b = k.loop_build(4);
        let x = b.vload(arr, 0, 1, 64, 64, 0); // 0
        let y = b.vload(arr, 1024, 1, 64, 64, 0); // 1
        let z = b.vmul(x, y, 64); // 2: needs 0,1
        let w = b.vadd(z, x, 64); // 3: needs 2,0
        b.vstore(w, arr, 2048, 1, 64, 64, 0); // 4: needs 3
        b.finish();
        (k, 5)
    }

    #[test]
    fn raw_dependences_found() {
        let (k, _) = sample_seg();
        let preds = dependence_preds(&k.segments()[0]);
        assert!(preds[2].contains(&0) && preds[2].contains(&1));
        assert!(preds[3].contains(&2) && preds[3].contains(&0));
        assert!(preds[4].contains(&3));
    }

    #[test]
    fn loads_do_not_order_against_loads() {
        let (k, _) = sample_seg();
        let preds = dependence_preds(&k.segments()[0]);
        assert!(preds[1].is_empty(), "two loads are independent");
    }

    #[test]
    fn store_orders_against_overlapping_load() {
        let mut k = Kernel::new("t");
        let arr = k.array(4096);
        let mut b = k.loop_build(2);
        let x = b.vload(arr, 0, 1, 64, 64, 0); // 0
        b.vstore(x, arr, 0, 1, 64, 64, 0); // 1: same region
        b.finish();
        let preds = dependence_preds(&k.segments()[0]);
        assert!(preds[1].contains(&0));
    }

    #[test]
    fn disjoint_store_and_load_unordered() {
        let mut k = Kernel::new("t");
        let a1 = k.array(1024);
        let a2 = k.array(1024);
        let mut b = k.loop_build(2);
        let x = b.vload(a1, 0, 1, 64, 64, 0); // 0
        b.vstore(x, a2, 0, 1, 64, 64, 0); // 1: disjoint array
        let _y = b.vload(a1, 512, 1, 64, 0, 0); // 2: disjoint from store
        b.finish();
        let preds = dependence_preds(&k.segments()[0]);
        assert!(!preds[2].contains(&1));
    }

    #[test]
    fn schedule_is_a_valid_topological_order() {
        let (k, n) = sample_seg();
        let seg = &k.segments()[0];
        let order = schedule_order(seg);
        assert_eq!(order.len(), n);
        let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        for (i, ps) in dependence_preds(seg).iter().enumerate() {
            for &p in ps {
                assert!(pos[&p] < pos[&i], "dependence {p}->{i} violated");
            }
        }
    }

    #[test]
    fn waw_and_war_respected_for_accumulators() {
        let mut k = Kernel::new("t");
        let arr = k.array(4096);
        let mut b = k.loop_build(4);
        let acc = b.carried_v();
        let x = b.vload(arr, 0, 1, 64, 64, 0); // 0
        b.vadd_into(acc, acc, x, 64); // 1 (reads+writes acc)
        b.vadd_into(acc, acc, x, 64); // 2 (must follow 1: RAW+WAW+WAR)
        b.finish();
        let preds = dependence_preds(&k.segments()[0]);
        assert!(preds[2].contains(&1));
    }

    #[test]
    fn footprint_covers_all_iterations() {
        let mut k = Kernel::new("t");
        let arr = k.array(8192);
        let mut b = k.loop_build(10);
        b.vload(arr, 0, 1, 64, 64, 0);
        b.finish();
        let seg = &k.segments()[0];
        let fp = footprint(&seg.body[0], seg).unwrap();
        // 10 iterations advancing 64 words: last element at word 9*64+63.
        assert_eq!(fp.0, arr.base);
        assert_eq!(fp.1, arr.base + (9 * 64 + 63) * 8 + 7);
    }
}
