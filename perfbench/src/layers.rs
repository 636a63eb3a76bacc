//! Calls into single layers, timed from the benchmark's own code: the
//! kernel compiler, in-process simulation (core and reference), the
//! wire codec and the journal record encoder. Every workload's traced
//! run uses these on its own inputs, so each per-layer metric is
//! measured on every workload.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use oov_bench::{machine_run_in, Suite};
use oov_core::SimArena;
use oov_isa::MachineConfig;
use oov_kernels::{Program, Scale};
use oov_serve::{journal, CacheLine, Request, Response, SimRequest, SimResult};

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Outcome, THREADS};

/// Span names, one per layer call.
pub mod span {
    /// `machine_run_in` on an OOOVA point.
    pub const CORE: &str = "core.machine_run";
    /// `machine_run_in` on a REF point.
    pub const REFSIM: &str = "refsim.machine_run";
    /// `Request::encode`.
    pub const REQ_ENCODE: &str = "proto.req_encode";
    /// `Request::decode`.
    pub const REQ_DECODE: &str = "proto.req_decode";
    /// `Response::encode`.
    pub const RESP_ENCODE: &str = "proto.resp_encode";
    /// `Response::decode`.
    pub const RESP_DECODE: &str = "proto.resp_decode";
    /// `SimRequest::fingerprint`.
    pub const FINGERPRINT: &str = "proto.fingerprint";
    /// `journal::encode_record`.
    pub const JOURNAL_ENCODE: &str = "journal.encode_record";
    /// `Client::sim`, as the client sees it.
    pub const CLIENT_SIM: &str = "serve.client_sim";
    /// `Client::sweep`.
    pub const CLIENT_SWEEP: &str = "serve.client_sweep";
    /// `Client::ping`.
    pub const PING: &str = "serve.ping";
    /// One generated request with its codec replays.
    pub const REQUEST: &str = "request";
}

/// The OOOVA/REF span name for a machine.
#[must_use]
pub fn sim_span(machine: &MachineConfig) -> &'static str {
    match machine {
        MachineConfig::Ooo(_) => span::CORE,
        MachineConfig::Ref(_) => span::REFSIM,
    }
}

/// Median over three passes of the summed per-program
/// `Program::compile(Scale::Paper)` + `base_image()` time, in ms.
#[must_use]
pub fn kernels_compile_ms() -> f64 {
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            Program::ALL
                .iter()
                .map(|p| {
                    let t = Instant::now();
                    let compiled = std::hint::black_box(p.compile(Scale::Paper));
                    let _ = std::hint::black_box(compiled.base_image());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .sum()
        })
        .collect();
    median(&passes)
}

/// Replays the codec work one `sim` round trip costs — client encode,
/// server decode, fingerprint, server encode, client decode — on a
/// real request/result pair, as spans under `parent`. Returns the
/// request and response line lengths.
pub fn proto_replay(
    tracer: &mut Tracer,
    req_id: u64,
    parent: Option<usize>,
    req: &SimRequest,
    result: &SimResult,
) -> (usize, usize) {
    let request = Request::Sim {
        req: *req,
        deadline_ms: None,
    };
    let line = tracer.span(span::REQ_ENCODE, req_id, parent, || request.encode());
    let decoded = tracer.span(span::REQ_DECODE, req_id, parent, || Request::decode(&line));
    std::hint::black_box(decoded.ok());
    let fp = tracer.span(span::FINGERPRINT, req_id, parent, || req.fingerprint());
    std::hint::black_box(fp);
    let response = Response::Result(result.clone());
    let resp_line = tracer.span(span::RESP_ENCODE, req_id, parent, || response.encode());
    let back = tracer.span(span::RESP_DECODE, req_id, parent, || {
        Response::decode(&resp_line)
    });
    std::hint::black_box(back.ok());
    (line.len(), resp_line.len())
}

/// Times `journal::encode_record` on each result as the cache line the
/// server would journal for it.
pub fn journal_replay(tracer: &mut Tracer, pairs: &[(SimRequest, SimResult)]) {
    for (i, (req, result)) in pairs.iter().enumerate() {
        let line = CacheLine {
            key: req.fingerprint(),
            machine_fp: req.machine.fingerprint(),
            result: result.clone(),
        };
        let bytes = tracer.span(span::JOURNAL_ENCODE, i as u64, None, || {
            journal::encode_record(&line)
        });
        std::hint::black_box(bytes);
    }
}

/// Re-simulates every served point in-process (two threads, one arena
/// each) and counts the results that are not bit-identical to the
/// served ones. Each call is a span when tracing.
pub fn verify_in_process(
    suite: &Suite,
    pairs: &[(SimRequest, SimResult)],
    tracer: &mut Tracer,
) -> u64 {
    let next = AtomicUsize::new(0);
    let (mismatches, spans) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let mut local = Tracer::new(tracer.epoch(), tracer.on());
                let next = &next;
                s.spawn(move || {
                    let mut arena = SimArena::new();
                    let mut bad = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((req, served)) = pairs.get(i) else {
                            break;
                        };
                        let out = local.span(sim_span(&req.machine), i as u64, None, || {
                            machine_run_in(
                                suite.get(req.program),
                                &req.machine,
                                req.stepper,
                                req.fault_at,
                                &mut arena,
                            )
                        });
                        if out.stats != served.stats
                            || out.ideal_cycles != served.ideal_cycles
                            || out.faults_taken != served.faults_taken
                        {
                            bad += 1;
                        }
                    }
                    (bad, local)
                })
            })
            .collect();
        let mut bad = 0;
        let mut spans = Vec::new();
        for w in workers {
            let (b, t) = w.join().expect("verification worker panicked");
            bad += b;
            spans.push(t);
        }
        (bad, spans)
    });
    for t in spans {
        tracer.absorb(t);
    }
    mismatches
}

/// Host-time figures of the core and reference layers from the spans
/// of `tracer`.
pub fn sim_host_metrics(out: &mut Outcome, tracer: &Tracer, ooo_progress_cycles: u64) {
    let core = tracer.durations_us(span::CORE);
    let core_ns: f64 = core.iter().sum::<f64>() * 1e3;
    out.metric("core.point_us_p50", percentile(&core, 50.0).value, "us");
    out.metric("core.point_us_p90", percentile(&core, 90.0).value, "us");
    out.metric(
        "core.ns_per_pcycle",
        if ooo_progress_cycles == 0 {
            0.0
        } else {
            core_ns / ooo_progress_cycles as f64
        },
        "ns",
    );
    let refsim = tracer.durations_us(span::REFSIM);
    out.metric("refsim.point_us_p50", percentile(&refsim, 50.0).value, "us");
}

/// Per-request codec costs and message sizes from the proto spans.
pub fn proto_metrics(out: &mut Outcome, tracer: &Tracer, sizes: &[(usize, usize)]) {
    for (metric, name) in [
        ("proto.req_encode_us", span::REQ_ENCODE),
        ("proto.req_decode_us", span::REQ_DECODE),
        ("proto.resp_encode_us", span::RESP_ENCODE),
        ("proto.resp_decode_us", span::RESP_DECODE),
        ("proto.fingerprint_us", span::FINGERPRINT),
    ] {
        out.metric(metric, median(&tracer.durations_us(name)), "us");
    }
    let req: Vec<f64> = sizes.iter().map(|s| s.0 as f64).collect();
    let resp: Vec<f64> = sizes.iter().map(|s| s.1 as f64).collect();
    out.metric("proto.req_bytes", median(&req), "bytes");
    out.metric("proto.resp_bytes", median(&resp), "bytes");
}

/// Counts of simulation work from results the run got back: OOOVA
/// points, their committed instructions (millions), simulated cycles
/// and progress cycles, plus the number of REF points.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// OOOVA points.
    pub ooo_points: u64,
    /// Committed OOOVA instructions.
    pub ooo_insts: u64,
    /// Simulated OOOVA cycles.
    pub ooo_cycles: u64,
    /// OOOVA cycles in which some stage made progress.
    pub ooo_progress_cycles: u64,
    /// REF points.
    pub ref_points: u64,
}

impl SimCounts {
    /// Folds in one result.
    pub fn add(&mut self, machine: &MachineConfig, stats: &oov_stats::SimStats) {
        match machine {
            MachineConfig::Ooo(_) => {
                self.ooo_points += 1;
                self.ooo_insts += stats.committed;
                self.ooo_cycles += stats.cycles;
                self.ooo_progress_cycles += stats.progress_cycles;
            }
            MachineConfig::Ref(_) => self.ref_points += 1,
        }
    }

    /// Adds the exact core and reference counts.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("core.points", self.ooo_points as f64, "count");
        out.metric("core.minst", self.ooo_insts as f64 / 1e6, "Minst");
        out.metric("core.sim_cycles", self.ooo_cycles as f64, "cycles");
        out.metric(
            "core.progress_cycles",
            self.ooo_progress_cycles as f64,
            "cycles",
        );
        out.metric("refsim.points", self.ref_points as f64, "count");
    }
}
