//! Pipeline lifecycle tracing: attaching a [`TraceSink`] must be a
//! pure observation — traced runs produce bit-identical `SimStats` to
//! untraced ones under both engines — and the trace itself must be
//! consistent with those stats (one committed record per committed
//! instruction, per-cycle stall attribution equal to the stall
//! counters) and export well-formed Konata text.

use oov::core::{OooSim, Stepper, TraceSink};
use oov::isa::{CommitMode, LoadElimMode, OooConfig};
use oov::kernels::{Program, Scale};
use oov::stats::StallKind;

fn configs() -> Vec<OooConfig> {
    vec![
        OooConfig::default().with_commit(CommitMode::Early),
        OooConfig::default().with_commit(CommitMode::Late),
        OooConfig::default().with_load_elim(LoadElimMode::SleVleSse),
    ]
}

#[test]
fn tracing_is_a_pure_observation_in_both_engines() {
    for p in Program::ALL {
        let prog = p.compile(Scale::Smoke);
        for cfg in configs() {
            for stepper in [Stepper::Naive, Stepper::EventDriven] {
                let plain = OooSim::new(cfg, &prog.trace).with_stepper(stepper).run();
                let traced = OooSim::new(cfg, &prog.trace)
                    .with_stepper(stepper)
                    .with_trace(TraceSink::new())
                    .run();
                assert_eq!(
                    plain.stats, traced.stats,
                    "{p}/{stepper:?}: tracing perturbed the simulation"
                );
                let sink = traced.trace.expect("sink comes back in the result");
                assert_eq!(
                    sink.committed(),
                    traced.stats.committed,
                    "{p}/{stepper:?}: committed record count"
                );
                assert!(
                    sink.last_commit_cycle() <= traced.stats.cycles,
                    "{p}/{stepper:?}: retirement after the end of time"
                );
                // Per-cycle stall attribution mirrors the SimStats
                // counters exactly — including the event engine's
                // dead-cycle replay.
                let t = sink.stall_table();
                assert_eq!(
                    t.get(StallKind::RobFull),
                    traced.stats.rob_stall_cycles,
                    "{p}/{stepper:?}: rob stall mirror"
                );
                assert_eq!(
                    t.get(StallKind::QueueFull),
                    traced.stats.queue_stall_cycles,
                    "{p}/{stepper:?}: queue stall mirror"
                );
                assert_eq!(
                    t.get(StallKind::RenameStall),
                    traced.stats.rename_stall_cycles,
                    "{p}/{stepper:?}: rename stall mirror"
                );
            }
        }
    }
}

/// The issue-side stall kinds: the reasons an issue scan rejects an
/// entry (the rest are per-cycle front-end stalls).
const ISSUE_SIDE: [StallKind; 7] = [
    StallKind::SourcesPending,
    StallKind::FuBusy,
    StallKind::MemDisambiguation,
    StallKind::IndexVectorWait,
    StallKind::StoreDataWait,
    StallKind::LateCommitHead,
    StallKind::BusBusy,
];

#[test]
fn event_engine_names_every_issue_stall_the_naive_engine_names() {
    // The engines scan at different times, so the cycles per reason
    // split differently, but a traced event-engine scan runs the same
    // ordered checks as the naive one: every reason the oracle charges
    // on this grid, the default engine charges too.
    let mut charged = [[0u64; ISSUE_SIDE.len()]; 2];
    for p in Program::ALL {
        let prog = p.compile(Scale::Smoke);
        for cfg in configs() {
            for (row, stepper) in charged
                .iter_mut()
                .zip([Stepper::Naive, Stepper::EventDriven])
            {
                let table = OooSim::new(cfg, &prog.trace)
                    .with_stepper(stepper)
                    .with_trace(TraceSink::new())
                    .run()
                    .trace
                    .expect("sink comes back in the result")
                    .stall_table();
                for (sum, kind) in row.iter_mut().zip(ISSUE_SIDE) {
                    *sum += table.get(kind);
                }
            }
        }
    }
    let [naive, event] = charged;
    for (i, kind) in ISSUE_SIDE.iter().enumerate() {
        assert!(
            naive[i] == 0 || event[i] > 0,
            "naive charges {kind} {} cycles, the event engine none \
             (naive {naive:?}, event {event:?} in {ISSUE_SIDE:?} order)",
            naive[i]
        );
    }
}

#[test]
fn konata_export_is_well_formed_and_matches_stats() {
    let prog = Program::Swm256.compile(Scale::Smoke);
    let r = OooSim::new(OooConfig::default(), &prog.trace)
        .with_trace(TraceSink::new())
        .run();
    let sink = r.trace.expect("sink present");
    let k = sink.to_konata();
    let mut lines = k.lines();
    assert_eq!(lines.next(), Some("Kanata\t0004"));
    assert!(lines.next().unwrap_or_default().starts_with("C=\t"));
    // Cycle deltas are strictly positive (monotone timeline) and every
    // committed instruction retires exactly once without a flush.
    let mut retires = 0u64;
    for line in k.lines().skip(2) {
        let mut f = line.split('\t');
        match f.next() {
            Some("C") => {
                let d: u64 = f.next().unwrap().parse().expect("numeric delta");
                assert!(d > 0, "non-positive cycle delta");
            }
            Some("R") => {
                let _id = f.next();
                let _retire_id = f.next();
                if f.next() == Some("0") {
                    retires += 1;
                }
            }
            Some("I" | "L" | "S") | None => {}
            Some(other) => panic!("unexpected Konata record {other:?} in {line:?}"),
        }
    }
    assert_eq!(retires, r.stats.committed, "one retire per commit");
    // Stage stamps are ordered within every committed record.
    for rec in sink.records().iter().filter(|r| r.committed) {
        assert!(rec.fetch <= rec.dispatch, "fetch after dispatch");
        assert!(rec.dispatch <= rec.issue, "dispatch after issue");
        assert!(rec.issue <= rec.commit, "issue after commit");
    }
}

#[test]
fn squashed_instructions_flush_in_the_trace() {
    let prog = Program::Swm256.compile(Scale::Smoke);
    let fault_idx = prog.trace.len() / 2;
    let r = OooSim::new(
        OooConfig::default().with_commit(CommitMode::Late),
        &prog.trace,
    )
    .with_fault_at(fault_idx)
    .with_trace(TraceSink::new())
    .run();
    assert_eq!(r.faults_taken, 1);
    let sink = r.trace.expect("sink present");
    let squashed = sink.records().iter().filter(|r| r.squashed).count();
    assert!(squashed > 0, "precise trap squashed nothing");
    // Re-fetched incarnations get fresh records, so commits still line up.
    assert_eq!(sink.committed(), r.stats.committed);
    let k = sink.to_konata();
    assert!(
        k.lines().any(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            f.first() == Some(&"R") && f.get(3) == Some(&"1")
        }),
        "no flush retire in Konata output"
    );
}
