//! The wire protocol: newline-delimited JSON messages.
//!
//! Every message is one JSON object on one line, tagged by a `"type"`
//! field. Requests flow client → server, responses server → client.
//! The encodings are exact inverses ([`Request::decode`] ∘
//! [`Request::encode`] is the identity, same for [`Response`]), which
//! the wire tests assert for every variant, and [`SimStats`] crosses
//! the wire losslessly so served results can be compared bit-for-bit
//! with in-process simulation.
//!
//! # Compact requests
//!
//! [`Request::encode`] writes every `sim` line and sweep point in
//! compact form: a machine-config field equal to its value in the
//! machine's `Default` is left out, and so are `stepper` when it is
//! `event` and `fault_at` when it is null. `program`, `scale`,
//! `machine` and the machine's `cfg` object stay required. A cached
//! default-machine `sim` line is about 90 bytes instead of 590. Both
//! request decoders accept the compact and the full form alike (an
//! older client's lines decode as before) and fill a missing field
//! from the *enclosing* default: an OOOVA `cfg` without `lat` gets the
//! OOOVA's latency table, a REF one the reference table, and
//! `"cfg": {}` is the machine's `Default` (see `oov_isa::config`).
//! Only `"scalar_cache": null` turns the scalar cache off.
//!
//! A request key that names no field, at any level, is rejected with
//! ``{what}: unknown field `{key}` ``, so a misspelt field cannot silently
//! become its default. Responses, [`SimStats`] and journal records keep
//! the strict rule: a missing field is an error, and an unknown key is
//! skipped.
//!
//! [`SimRequest::fingerprint`] and [`SimRequest::to_json`] stay on the
//! full canonical encoding, every field written, whichever form a
//! request arrived in. So the result-cache keys, the journal and the
//! fingerprint pins are the same bytes as before compact requests.
//!
//! Server counters leave the daemon in one format only: the `metrics`
//! registry snapshot. There is no `stats` message; a [`StatsSnapshot`]
//! is computed client-side from `metrics` by
//! [`StatsSnapshot::from_metrics`].
//!
//! ```text
//! → {"type": "sim", "program": "trfd", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {"phys_v_regs": 32}}}
//! ← {"type": "result", "cached": false, "shard": 2, "ideal_cycles": 9156, "faults_taken": 0, "stats": {...}}
//! → {"type": "sweep", "points": [{"program": …}, {"program": …}]}
//! ← {"type": "sweep_row", "index": 0, ...}
//! ← {"type": "sweep_row", "index": 1, ...}
//! ← {"type": "sweep_done", "count": 2}
//! ```
//!
//! The hit path is typed end to end: no [`Json`] tree is built between
//! the socket and the cache key, or between a result line and the
//! client's [`SimResult`]. Encoders walk their fields straight into the
//! line (or, for [`SimRequest::fingerprint`], into the hash), and
//! [`Request::decode`] and [`Response::decode`] pull each field out of
//! the [`oov_proto::Parser`]; a `sim` request or a `result` line costs
//! no allocation either way. The tree decoders
//! ([`Request::decode_tree`], [`Response::decode_tree`]) stay as the
//! oracle: each message's fields are gathered by either decoder and
//! then checked by one validation sequence, so both accept the same
//! lines with the same values and reject the rest with the same text,
//! which `tests/decode_fuzz.rs` checks.
//!
//! A result reply is a short header that opens the object and names
//! the reply (`{"type": "result", ` or `{"type": "sweep_row", "index":
//! 3, `), then the result's fields. The server keeps a result as its
//! counters ([`RunOutcome`]), never as bytes, and encodes each reply
//! from them on the connection thread with [`write_reply`]: the one
//! result writer, which the journal's records and [`Response::encode`]
//! go through too, so the bytes cannot differ.

use std::borrow::Cow;
use std::hash::Hasher as _;

use oov_bench::RunOutcome;
use oov_core::Stepper;
use oov_isa::{CommitMode, MachineConfig};
use oov_kernels::{Program, Scale};
use oov_proto::{
    first_unknown_key, unknown_field, write_str, Decoded, Fnv1a, Json, JsonField, ParseError,
    Parser, Sink,
};
use oov_stats::SimStats;

/// Hard cap on the number of points in one `sweep` request, enforced
/// at decode time — before the server sizes its reorder buffer — so a
/// single network-supplied length cannot inflate server memory.
pub const MAX_SWEEP_POINTS: usize = 4096;

fn stepper_name(s: Stepper) -> &'static str {
    match s {
        Stepper::Naive => "naive",
        Stepper::EventDriven => "event",
    }
}

fn stepper_from_name(name: &str) -> Option<Stepper> {
    match name {
        "naive" => Some(Stepper::Naive),
        "event" => Some(Stepper::EventDriven),
        _ => None,
    }
}

/// A string field's first value: `None` while its key is unseen, and
/// `Some(None)` when the value is not a string.
type StrSlot<'a> = Option<Option<Cow<'a, str>>>;

/// The first value of `key` in `v`, as a [`StrSlot`].
fn tree_str<'a>(v: &'a Json, key: &str) -> StrSlot<'a> {
    v.get(key).map(|s| s.as_str().map(Cow::Borrowed))
}

/// One simulation request: which program, at which scale, on which
/// machine, with which engine, and an optional injected precise trap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRequest {
    /// Benchmark program to simulate.
    pub program: Program,
    /// Trace scale.
    pub scale: Scale,
    /// Machine configuration (either machine).
    pub machine: MachineConfig,
    /// Simulation engine (OOOVA only; ignored for the reference
    /// machine). An absent `stepper` key is `event`, the default.
    pub stepper: Stepper,
    /// Inject a precise trap at this trace index (OOOVA late-commit
    /// only). An absent `fault_at` key is `None`.
    pub fault_at: Option<usize>,
}

impl SimRequest {
    /// A default-machine OOOVA request — the common case.
    #[must_use]
    pub fn ooo_default(program: Program, scale: Scale) -> Self {
        SimRequest {
            program,
            scale,
            machine: MachineConfig::Ooo(oov_isa::OooConfig::default()),
            stepper: Stepper::EventDriven,
            fault_at: None,
        }
    }

    /// Writes the request body (without the `"type"` tag) in full: the
    /// canonical encoding the fingerprint hashes, the bytes of
    /// [`SimRequest::to_json`], with no tree.
    pub fn write_json<S: Sink>(&self, out: &mut S) {
        out.put("{\"program\": ");
        write_str(out, self.program.name());
        out.put(", \"scale\": ");
        write_str(out, self.scale.name());
        out.put(", \"machine\": ");
        self.machine.write_json(out);
        out.put(", \"stepper\": ");
        write_str(out, stepper_name(self.stepper));
        out.put(", \"fault_at\": ");
        self.fault_at.write_field(out);
        out.put("}");
    }

    /// Writes the request body's fields in compact form, without the
    /// braces, so a `sim` line can put its tag in front: the machine
    /// through [`MachineConfig::write_compact`], and `stepper` and
    /// `fault_at` only when they are not the default.
    fn write_compact_fields(&self, out: &mut String) {
        out.push_str("\"program\": ");
        write_str(out, self.program.name());
        out.push_str(", \"scale\": ");
        write_str(out, self.scale.name());
        out.push_str(", \"machine\": ");
        self.machine.write_compact(out);
        if self.stepper != Stepper::default() {
            out.push_str(", \"stepper\": ");
            write_str(out, stepper_name(self.stepper));
        }
        if let Some(index) = self.fault_at {
            out.push_str(", \"fault_at\": ");
            index.write_field(out);
        }
    }

    /// Encodes the request body (without the `"type"` tag) as a tree.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("program", self.program.name().into()),
            ("scale", self.scale.name().into()),
            ("machine", self.machine.to_json()),
            ("stepper", stepper_name(self.stepper).into()),
            (
                "fault_at",
                self.fault_at.map_or(Json::Null, |idx| idx.into()),
            ),
        ])
    }

    /// Decodes and validates a request body, full or compact.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown key, the malformed
    /// field, or the semantic rule a well-formed request violates
    /// (fault injection requires the OOOVA's late-commit model).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        SimFields::of_tree(v, SimFields::is_field).finish()
    }

    /// Reads the request body under the parser's cursor, deciding what
    /// [`SimRequest::from_json`] decides on the same value.
    ///
    /// # Errors
    ///
    /// A syntax error. The inner result is `from_json`'s.
    fn read_json(p: &mut Parser<'_>) -> Result<Result<Self, String>, ParseError> {
        let mut fields = SimFields::default();
        p.object(|p, key| fields.read(key, p))?;
        Ok(fields.finish())
    }

    /// Stable fingerprint of the *full* request — the result-cache
    /// key. Two requests fingerprint equal iff every field that can
    /// influence the simulation outcome is equal. FNV-1a over the raw
    /// canonical-encoding bytes ([`SimRequest::write_json`], every
    /// field, never the compact form), for the same cross-toolchain
    /// stability as [`MachineConfig::fingerprint`]; a request sent
    /// compact or full keys the same entry. The encoding streams into
    /// the hash; no `String` or tree of it is built.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.write_json(&mut h);
        h.finish()
    }
}

/// A sim request's fields as either decoder finds them: each key's
/// first value, and the first key that names no field, before
/// [`SimFields::finish`] checks them.
#[derive(Default)]
struct SimFields<'a> {
    program: StrSlot<'a>,
    scale: StrSlot<'a>,
    stepper: StrSlot<'a>,
    fault_at: Option<Decoded<Option<usize>>>,
    machine: Option<Result<MachineConfig, String>>,
    unknown: Option<Cow<'a, str>>,
}

impl<'a> SimFields<'a> {
    /// Whether `key` names a sim request field.
    fn is_field(key: &str) -> bool {
        matches!(
            key,
            "program" | "scale" | "stepper" | "fault_at" | "machine"
        )
    }

    /// The fields of `v`, an object whose fields are the keys
    /// `is_field` names.
    fn of_tree(v: &'a Json, is_field: fn(&str) -> bool) -> Self {
        SimFields {
            program: tree_str(v, "program"),
            scale: tree_str(v, "scale"),
            stepper: tree_str(v, "stepper"),
            fault_at: v.get("fault_at").map(JsonField::from_value),
            machine: v.get("machine").map(MachineConfig::from_json),
            unknown: first_unknown_key(v, is_field).map(Cow::Borrowed),
        }
    }

    /// Reads the value of `key`, or notes the key as unknown and skips
    /// it if no sim request field has that name.
    fn read(&mut self, key: Cow<'a, str>, p: &mut Parser<'a>) -> Result<(), ParseError> {
        match &*key {
            "program" => p.first(&mut self.program, Parser::str),
            "scale" => p.first(&mut self.scale, Parser::str),
            "stepper" => p.first(&mut self.stepper, Parser::str),
            "fault_at" => p.first(&mut self.fault_at, JsonField::read_field),
            "machine" => p.first(&mut self.machine, MachineConfig::read_json),
            _ => p.skip_unknown(&mut self.unknown, key),
        }
    }

    /// The validation sequence of both decoders. A missing `stepper`
    /// is the default engine, and a missing `fault_at` is no fault.
    fn finish(self) -> Result<SimRequest, String> {
        if let Some(key) = self.unknown {
            return Err(unknown_field("sim request", &key));
        }
        let program_name = self
            .program
            .flatten()
            .ok_or_else(|| "sim request: bad or missing field `program`".to_string())?;
        let scale_name = self
            .scale
            .flatten()
            .ok_or_else(|| "sim request: bad or missing field `scale`".to_string())?;
        let stepper_str = match self.stepper {
            None => Cow::Borrowed(stepper_name(Stepper::default())),
            Some(name) => {
                name.ok_or_else(|| "sim request: bad or missing field `stepper`".to_string())?
            }
        };
        let fault_at = match self.fault_at {
            None => None,
            Some(idx) => idx.map_err(|_| "sim request: `fault_at` is not an index".to_string())?,
        };
        let req = SimRequest {
            program: Program::from_name(&program_name)
                .ok_or_else(|| format!("sim request: unknown program `{program_name}`"))?,
            scale: Scale::from_name(&scale_name)
                .ok_or_else(|| format!("sim request: unknown scale `{scale_name}`"))?,
            machine: self
                .machine
                .ok_or_else(|| "sim request: missing field `machine`".to_string())??,
            stepper: stepper_from_name(&stepper_str)
                .ok_or_else(|| format!("sim request: unknown stepper `{stepper_str}`"))?,
            fault_at,
        };
        if req.fault_at.is_some() {
            match req.machine {
                MachineConfig::Ooo(c) if c.commit == CommitMode::Late => {}
                MachineConfig::Ooo(_) => {
                    return Err(
                        "sim request: fault injection requires the late-commit model".into(),
                    )
                }
                MachineConfig::Ref(_) => {
                    return Err("sim request: the reference machine models no precise traps".into())
                }
            }
        }
        Ok(req)
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Full metrics-registry snapshot (counters, gauges, latency
    /// histograms).
    Metrics,
    /// Graceful shutdown of the whole server.
    Shutdown,
    /// One simulation.
    Sim {
        /// The simulation point.
        req: SimRequest,
        /// Server-side deadline, measured from request arrival. A job
        /// still queued when it expires is answered
        /// [`Response::DeadlineExceeded`] instead of being simulated.
        /// Not part of the request fingerprint: the same point with
        /// different deadlines shares one cache entry.
        deadline_ms: Option<u64>,
    },
    /// A batch of simulations; rows stream back in order.
    Sweep {
        /// The points, in the order rows must stream back.
        points: Vec<SimRequest>,
        /// Per-request deadline shared by every point (see
        /// [`Request::Sim::deadline_ms`]); expired rows are answered
        /// [`Response::SweepRowError`].
        deadline_ms: Option<u64>,
    },
}

/// Writes `, "deadline_ms": …` if there is a deadline.
fn write_deadline(out: &mut String, deadline_ms: Option<u64>) {
    if let Some(ms) = deadline_ms {
        out.push_str(", \"deadline_ms\": ");
        ms.write_field(out);
    }
}

/// Appends a `sweep` request line: [`Request::encode_into`]'s bytes
/// for a [`Request::Sweep`] of `points`, written from a borrowed list
/// so the client sends a sweep without copying it. Each point is
/// written compact.
pub(crate) fn write_sweep(out: &mut String, points: &[SimRequest], deadline_ms: Option<u64>) {
    out.push_str("{\"type\": \"sweep\", \"points\": [");
    for (i, point) in points.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        point.write_compact_fields(out);
        out.push('}');
    }
    out.push(']');
    write_deadline(out, deadline_ms);
    out.push('}');
}

impl Request {
    /// Encodes to one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Request::encode`]'s bytes to `out`, so a caller can
    /// reuse one line buffer. The fields are written in place: no tree.
    /// Simulation points are written compact (see the module docs).
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Request::Ping => out.push_str("{\"type\": \"ping\"}"),
            Request::Metrics => out.push_str("{\"type\": \"metrics\"}"),
            Request::Shutdown => out.push_str("{\"type\": \"shutdown\"}"),
            Request::Sim { req, deadline_ms } => {
                out.push_str("{\"type\": \"sim\", ");
                req.write_compact_fields(out);
                write_deadline(out, *deadline_ms);
                out.push('}');
            }
            Request::Sweep {
                points,
                deadline_ms,
            } => write_sweep(out, points, *deadline_ms),
        }
    }

    /// Decodes one line, pulling each field straight from the parser.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown `type`, or an
    /// invalid request body: the text [`Request::decode_tree`] returns.
    pub fn decode(line: &str) -> Result<Self, String> {
        let mut p = Parser::new(line);
        let mut fields = RequestFields::default();
        p.object(|p, key| fields.read(key, p))
            .and_then(|_| p.end())
            .map_err(|e| format!("malformed request: {e}"))?;
        fields.finish()
    }

    /// Decodes one line through a [`Json`] tree: the oracle
    /// [`Request::decode`] is tested against.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode_tree(line: &str) -> Result<Self, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        RequestFields::of_tree(&v).finish()
    }
}

/// A request's fields as either decoder finds them.
#[derive(Default)]
struct RequestFields<'a> {
    kind: StrSlot<'a>,
    deadline_ms: Option<Decoded<Option<u64>>>,
    /// A `sim` request's body fields sit beside its tag; its
    /// `unknown` slot holds the line's first unknown key.
    sim: SimFields<'a>,
    /// `Some(None)` when `points` is not an array.
    points: Option<Option<Points>>,
}

impl<'a> RequestFields<'a> {
    /// Whether `key` names a field of some request line.
    fn is_field(key: &str) -> bool {
        matches!(key, "type" | "deadline_ms" | "points") || SimFields::is_field(key)
    }

    fn of_tree(v: &'a Json) -> Self {
        RequestFields {
            kind: tree_str(v, "type"),
            deadline_ms: v.get("deadline_ms").map(JsonField::from_value),
            sim: SimFields::of_tree(v, Self::is_field),
            points: v.get("points").map(|points| {
                points.as_arr().map(|items| {
                    let mut list = Points::default();
                    for item in items {
                        list.push(list.wants_next().then(|| SimRequest::from_json(item)));
                    }
                    list
                })
            }),
        }
    }

    /// Reads the value of `key`, or notes the key as unknown and skips
    /// it if no request field has that name.
    fn read(&mut self, key: Cow<'a, str>, p: &mut Parser<'a>) -> Result<(), ParseError> {
        match &*key {
            "type" => p.first(&mut self.kind, Parser::str),
            "deadline_ms" => p.first(&mut self.deadline_ms, JsonField::read_field),
            "points" => p.first(&mut self.points, |p| {
                let mut list = Points::default();
                let is_array = p.array(|p| {
                    let point = if list.wants_next() {
                        Some(SimRequest::read_json(p)?)
                    } else {
                        p.skip()?;
                        None
                    };
                    list.push(point);
                    Ok(())
                })?;
                Ok(is_array.then_some(list))
            }),
            _ => self.sim.read(key, p),
        }
    }

    /// The validation sequence of both decoders. An unknown key is
    /// rejected first, whatever the request's type.
    fn finish(self) -> Result<Request, String> {
        if let Some(key) = &self.sim.unknown {
            return Err(unknown_field("request", key));
        }
        let kind = self
            .kind
            .flatten()
            .ok_or_else(|| "request: bad or missing field `type`".to_string())?;
        let deadline_ms = match self.deadline_ms {
            None => None,
            Some(ms) => {
                ms.map_err(|_| "request: `deadline_ms` is not a non-negative integer".to_string())?
            }
        };
        match &*kind {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "sim" => self
                .sim
                .finish()
                .map(|req| Request::Sim { req, deadline_ms }),
            "sweep" => {
                let points = self
                    .points
                    .flatten()
                    .ok_or_else(|| "sweep request: bad or missing field `points`".to_string())?;
                if points.len == 0 {
                    return Err("sweep request: empty point list".into());
                }
                if points.len > MAX_SWEEP_POINTS {
                    return Err(format!(
                        "sweep request: {} points exceeds the cap of {MAX_SWEEP_POINTS}",
                        points.len
                    ));
                }
                match points.error {
                    Some(e) => Err(e),
                    None => Ok(Request::Sweep {
                        points: points.decoded,
                        deadline_ms,
                    }),
                }
            }
            other => Err(format!("request: unknown type `{other}`")),
        }
    }
}

/// A sweep's point list as either decoder counts it: how many points,
/// and the decoded points up to the first that fails. Points past that
/// one, or past the cap, are counted but not decoded.
#[derive(Default)]
struct Points {
    len: usize,
    decoded: Vec<SimRequest>,
    error: Option<String>,
}

impl Points {
    /// Whether the next point is to be decoded: every point so far
    /// decoded, and the list is within the cap (past it, the cap is the
    /// error).
    fn wants_next(&self) -> bool {
        self.error.is_none() && self.len < MAX_SWEEP_POINTS
    }

    /// Counts one point, with its decoding if [`Points::wants_next`]
    /// asked for it.
    fn push(&mut self, point: Option<Result<SimRequest, String>>) {
        self.len += 1;
        match point {
            Some(Ok(point)) => self.decoded.push(point),
            Some(Err(e)) => self.error = Some(e),
            None => {}
        }
    }
}

/// The outcome of one served simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Aggregate counters — bit-identical to a direct in-process run.
    pub stats: SimStats,
    /// The trace's IDEAL lower bound.
    pub ideal_cycles: u64,
    /// Precise traps taken during the run.
    pub faults_taken: u64,
    /// Whether the server answered from its result cache.
    pub cached: bool,
    /// The result-cache stripe the request's fingerprint maps to.
    pub shard: usize,
}

impl SimResult {
    /// Every field, as a `Json` object's pairs: the tree encoding the
    /// journal's record bytes are pinned against.
    #[cfg(test)]
    pub(crate) fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("cached".to_string(), self.cached.into()),
            ("shard".to_string(), self.shard.into()),
            ("ideal_cycles".to_string(), self.ideal_cycles.into()),
            ("faults_taken".to_string(), self.faults_taken.into()),
            ("stats".to_string(), self.stats.to_json()),
        ]
    }

    /// The result's counters, the part the server stores: everything
    /// but `cached` and `shard`, which depend on how it was answered.
    #[must_use]
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome {
            stats: self.stats,
            ideal_cycles: self.ideal_cycles,
            faults_taken: self.faults_taken,
        }
    }

    /// Reads the result object under the parser's cursor (a journal
    /// record's `result`), deciding what `from_json` decides on the
    /// same value.
    ///
    /// # Errors
    ///
    /// A syntax error. The inner result names the missing or
    /// malformed field.
    pub(crate) fn read_json(p: &mut Parser<'_>) -> Result<Result<Self, String>, ParseError> {
        let mut fields = ResultFields::default();
        p.object(|p, key| fields.read(&key, p))?;
        Ok(fields.finish())
    }

    /// Decodes the result fields of a tree: the oracle
    /// [`SimResult::read_json`] is tested against.
    #[cfg(test)]
    pub(crate) fn from_json(v: &Json) -> Result<Self, String> {
        ResultFields::of_tree(v).finish()
    }
}

/// A result's fields as either decoder finds them.
#[derive(Default)]
struct ResultFields {
    stats: Option<Result<SimStats, String>>,
    ideal_cycles: Option<Option<u64>>,
    faults_taken: Option<Option<u64>>,
    cached: Option<Option<bool>>,
    shard: Option<Option<u64>>,
}

impl ResultFields {
    fn of_tree(v: &Json) -> Self {
        ResultFields {
            stats: v.get("stats").map(SimStats::from_json),
            ideal_cycles: v.get("ideal_cycles").map(Json::as_u64),
            faults_taken: v.get("faults_taken").map(Json::as_u64),
            cached: v.get("cached").map(Json::as_bool),
            shard: v.get("shard").map(Json::as_u64),
        }
    }

    /// Reads the value of `key`, or skips it if no result field has
    /// that name.
    fn read(&mut self, key: &str, p: &mut Parser<'_>) -> Result<(), ParseError> {
        match key {
            "stats" => p.first(&mut self.stats, SimStats::read_json),
            "ideal_cycles" => p.first(&mut self.ideal_cycles, Parser::u64),
            "faults_taken" => p.first(&mut self.faults_taken, Parser::u64),
            "cached" => p.first(&mut self.cached, Parser::bool),
            "shard" => p.first(&mut self.shard, Parser::u64),
            _ => p.skip(),
        }
    }

    /// The validation sequence of both decoders.
    fn finish(self) -> Result<SimResult, String> {
        let count = |slot: Option<Option<u64>>, name: &str| {
            slot.flatten()
                .ok_or_else(|| format!("sim result: bad or missing field `{name}`"))
        };
        Ok(SimResult {
            stats: self
                .stats
                .ok_or_else(|| "sim result: missing field `stats`".to_string())??,
            ideal_cycles: count(self.ideal_cycles, "ideal_cycles")?,
            faults_taken: count(self.faults_taken, "faults_taken")?,
            cached: self
                .cached
                .flatten()
                .ok_or_else(|| "sim result: bad or missing field `cached`".to_string())?,
            shard: count(self.shard, "shard")? as usize,
        })
    }
}

/// Writes a result object's fields after whatever opened it (a reply
/// header or a journal record's `"result": {`) and closes the object:
/// `"cached": …, "shard": …, "ideal_cycles": …, "faults_taken": …,
/// "stats": {…}}`. Every counter is written as its exact digits, and
/// the stats through their `json_record!` writer.
pub(crate) fn write_result(out: &mut String, cached: bool, shard: usize, run: &RunOutcome) {
    out.push_str("\"cached\": ");
    cached.write_field(out);
    out.push_str(", \"shard\": ");
    shard.write_field(out);
    out.push_str(", \"ideal_cycles\": ");
    run.ideal_cycles.write_field(out);
    out.push_str(", \"faults_taken\": ");
    run.faults_taken.write_field(out);
    out.push_str(", \"stats\": ");
    run.stats.write_json(out);
    out.push('}');
}

/// Opens a result reply: a [`Response::Result`] when `index` is
/// `None`, else the [`Response::SweepRow`] at `index`.
fn write_reply_head(out: &mut String, index: Option<usize>) {
    match index {
        None => out.push_str("{\"type\": \"result\", "),
        Some(index) => {
            out.push_str("{\"type\": \"sweep_row\", \"index\": ");
            index.write_field(out);
            out.push_str(", ");
        }
    }
}

/// Appends one result reply, encoded from the counters `run`: a
/// [`Response::Result`] when `index` is `None`, else the
/// [`Response::SweepRow`] at `index`. The server writes every result
/// it answers through here, and [`Response::encode`] does too, so a
/// served reply is the encoding of the [`SimResult`] it carries.
pub fn write_reply(
    out: &mut String,
    index: Option<usize>,
    cached: bool,
    shard: usize,
    run: &RunOutcome,
) {
    write_reply_head(out, index);
    write_result(out, cached, shard, run);
}

/// A snapshot of the server's counters: a fixed view over the
/// `metrics` registry snapshot, computed by
/// [`StatsSnapshot::from_metrics`]. It has no wire encoding of its own.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Simulation requests handled (cache hits included).
    pub requests: u64,
    /// Requests answered from the result cache: ready entries, and
    /// requests that waited on an identical in-flight simulation.
    pub result_hits: u64,
    /// Requests that had to simulate.
    pub result_misses: u64,
    /// Result-cache entries evicted by the per-stripe LRU cap
    /// (`--cache-entries`; 0 when the caches are unbounded).
    pub result_evictions: u64,
    /// Suite lookups (every simulation performs one).
    pub suite_requests: u64,
    /// Smoke-scale suite compilations (memoisation holds this at ≤ 1).
    pub suite_compiles_smoke: u64,
    /// Paper-scale suite compilations (memoisation holds this at ≤ 1).
    pub suite_compiles_paper: u64,
    /// Requests handled per cache stripe, indexed by stripe.
    pub per_shard_requests: Vec<u64>,
    /// Stripe balance: the least-loaded stripe's request count over
    /// the mean (1.0 = perfectly even, 0.0 = a stripe is unused; 0.0
    /// also before any request arrives).
    pub shard_balance: f64,
    /// Worker panics survived: jobs whose execution unwound and was
    /// answered as an error (plus worker threads that died outright).
    pub panics: u64,
    /// Worker threads respawned by the supervisor after dying.
    pub respawns: u64,
    /// Misses rejected by per-stripe admission control
    /// ([`Response::Overloaded`]).
    pub sheds: u64,
    /// Jobs answered `deadline exceeded` instead of being simulated.
    pub deadline_drops: u64,
    /// Simulations aborted mid-run by a cooperative budget check: an
    /// expired `deadline_ms`, the shutdown cancel flag, or the
    /// per-job cycle cap.
    pub cancelled_jobs: u64,
    /// Malformed cache entries skipped (with a warning) while
    /// recovering from the journal's snapshot or its tail (the
    /// `cache.load_skipped` counter).
    pub cache_load_skipped: u64,
    /// Records durably appended to the write-ahead journal since
    /// startup: a record is counted only after its batch's
    /// `sync_data`, so this is a watermark a SIGKILL cannot undo.
    pub journal_records: u64,
    /// Journal compactions (snapshot written, journal truncated).
    pub journal_rotations: u64,
    /// Records replayed from the journal tail at startup.
    pub journal_recovered: u64,
    /// Pool-worker liveness, indexed by worker: `false` while a
    /// worker thread is dead and awaiting respawn.
    pub shards_alive: Vec<bool>,
}

impl StatsSnapshot {
    /// The view over a registry snapshot `m` (see
    /// `oov_obs::Registry::snapshot`): every field is a registered
    /// metric, or a sum or ratio of the per-stripe and per-worker ones.
    /// A metric that was never registered reads as 0. The server's
    /// in-process [`crate::ServerHandle::snapshot`] and the client's
    /// [`crate::Client::stats`] both project through here.
    #[must_use]
    pub fn from_metrics(m: &Json) -> Self {
        let metric = |section: &str, name: &str| m.get(section)?.get(name)?.as_f64();
        // `shard.0.<name>`, `shard.1.<name>`, ... up to the first gap.
        let per_shard = |section: &str, name: &str| -> Vec<f64> {
            (0..)
                .map_while(|n| metric(section, &format!("shard.{n}.{name}")))
                .collect()
        };
        // Counters cross the snapshot as JSON numbers, exact below 2^53.
        let count = |name: &str| metric("counters", name).unwrap_or(0.0) as u64;
        let sum = |name: &str| per_shard("counters", name).iter().sum::<f64>() as u64;
        let per_shard_requests: Vec<u64> = per_shard("counters", "requests")
            .iter()
            .map(|&n| n as u64)
            .collect();
        let requests: u64 = per_shard_requests.iter().sum();
        let shard_balance = match per_shard_requests.iter().min() {
            Some(&min) if requests > 0 => {
                min as f64 / (requests as f64 / per_shard_requests.len() as f64)
            }
            _ => 0.0,
        };
        StatsSnapshot {
            requests,
            result_hits: count("cache.result_hits"),
            result_misses: count("cache.result_misses"),
            result_evictions: count("cache.result_evictions"),
            suite_requests: count("cache.suite_requests"),
            suite_compiles_smoke: count("cache.suite_compiles_smoke"),
            suite_compiles_paper: count("cache.suite_compiles_paper"),
            per_shard_requests,
            shard_balance,
            panics: sum("panics"),
            respawns: sum("respawns"),
            sheds: sum("sheds"),
            deadline_drops: count("server.deadline_drops"),
            cancelled_jobs: count("server.cancelled_jobs"),
            cache_load_skipped: count("cache.load_skipped"),
            journal_records: count("journal.appended_records"),
            journal_rotations: count("journal.rotations"),
            journal_recovered: count("journal.recovered_records"),
            shards_alive: per_shard("gauges", "alive")
                .iter()
                .map(|&alive| alive != 0.0)
                .collect(),
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// The request failed; the connection stays open.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// The miss's cache stripe has too many jobs queued; the request
    /// was **not** executed. Retriable: back off at least
    /// `retry_after_ms` and resend.
    Overloaded {
        /// Suggested minimum backoff before retrying, derived from the
        /// rejecting stripe's queue depth.
        retry_after_ms: u64,
    },
    /// The request's `deadline_ms` expired before a worker picked the
    /// job up; it was answered without being simulated.
    DeadlineExceeded,
    /// One failed row of a [`Request::Sweep`] (panicked job, expired
    /// deadline, shed point, or a worker lost mid-job), streamed in
    /// request order like [`Response::SweepRow`].
    SweepRowError {
        /// Position of the failed row in the sweep's point list.
        index: usize,
        /// Human-readable cause.
        message: String,
    },
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// Reply to [`Request::Sim`].
    Result(SimResult),
    /// One row of a [`Request::Sweep`], streamed in request order.
    SweepRow {
        /// Position of this row in the sweep's point list.
        index: usize,
        /// The row's outcome.
        result: SimResult,
    },
    /// Terminates a sweep's row stream.
    SweepDone {
        /// Number of rows streamed.
        count: usize,
    },
    /// Reply to [`Request::Metrics`]: the registry snapshot, an object
    /// with `counters`, `gauges` and `histograms` sections (see
    /// `oov_obs::Registry::snapshot` for the schema).
    Metrics {
        /// The registry snapshot, passed through as JSON.
        snapshot: Json,
    },
}

impl Response {
    /// Encodes to one line of JSON (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Response::encode`]'s bytes to `out`, so a caller can
    /// reuse one line buffer. The fields are written in place: no tree.
    /// Results and sweep rows go through [`write_reply`], the server's
    /// own result writer.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Response::Pong => out.push_str("{\"type\": \"pong\"}"),
            Response::Error { message } => {
                out.push_str("{\"type\": \"error\", \"message\": ");
                write_str(out, message);
                out.push('}');
            }
            Response::Overloaded { retry_after_ms } => {
                out.push_str("{\"type\": \"overloaded\", \"retry_after_ms\": ");
                retry_after_ms.write_field(out);
                out.push('}');
            }
            Response::DeadlineExceeded => out.push_str("{\"type\": \"deadline_exceeded\"}"),
            Response::SweepRowError { index, message } => {
                out.push_str("{\"type\": \"sweep_row_error\", \"index\": ");
                index.write_field(out);
                out.push_str(", \"message\": ");
                write_str(out, message);
                out.push('}');
            }
            Response::ShuttingDown => out.push_str("{\"type\": \"shutting_down\"}"),
            Response::Result(r) => write_reply(out, None, r.cached, r.shard, &r.outcome()),
            Response::SweepRow { index, result: r } => {
                write_reply(out, Some(*index), r.cached, r.shard, &r.outcome());
            }
            Response::SweepDone { count } => {
                out.push_str("{\"type\": \"sweep_done\", \"count\": ");
                count.write_field(out);
                out.push('}');
            }
            Response::Metrics { snapshot } => {
                out.push_str("{\"type\": \"metrics\", \"snapshot\": ");
                snapshot.encode_into(out);
                out.push('}');
            }
        }
    }

    /// Decodes one line, pulling each field straight from the parser.
    /// A `metrics` reply's snapshot is the one value read as a tree.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown `type`, or an
    /// invalid response body: the text [`Response::decode_tree`]
    /// returns.
    pub fn decode(line: &str) -> Result<Self, String> {
        let mut p = Parser::new(line);
        let mut fields = ResponseFields::default();
        p.object(|p, key| fields.read(&key, p))
            .and_then(|_| p.end())
            .map_err(|e| format!("malformed response: {e}"))?;
        fields.finish()
    }

    /// Decodes one line through a [`Json`] tree: the oracle
    /// [`Response::decode`] is tested against.
    ///
    /// # Errors
    ///
    /// As [`Response::decode`].
    pub fn decode_tree(line: &str) -> Result<Self, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        ResponseFields::of_tree(&v).finish()
    }
}

/// A response's fields as either decoder finds them.
#[derive(Default)]
struct ResponseFields<'a> {
    kind: StrSlot<'a>,
    message: StrSlot<'a>,
    retry_after_ms: Option<Option<u64>>,
    index: Option<Option<u64>>,
    count: Option<Option<u64>>,
    snapshot: Option<Json>,
    /// A result's fields sit beside its tag.
    result: ResultFields,
}

impl<'a> ResponseFields<'a> {
    fn of_tree(v: &'a Json) -> Self {
        ResponseFields {
            kind: tree_str(v, "type"),
            message: tree_str(v, "message"),
            retry_after_ms: v.get("retry_after_ms").map(Json::as_u64),
            index: v.get("index").map(Json::as_u64),
            count: v.get("count").map(Json::as_u64),
            snapshot: v.get("snapshot").cloned(),
            result: ResultFields::of_tree(v),
        }
    }

    /// Reads the value of `key`, or skips it if no response field has
    /// that name.
    fn read(&mut self, key: &str, p: &mut Parser<'a>) -> Result<(), ParseError> {
        match key {
            "type" => p.first(&mut self.kind, Parser::str),
            "message" => p.first(&mut self.message, Parser::str),
            "retry_after_ms" => p.first(&mut self.retry_after_ms, Parser::u64),
            "index" => p.first(&mut self.index, Parser::u64),
            "count" => p.first(&mut self.count, Parser::u64),
            "snapshot" => p.first(&mut self.snapshot, Parser::value),
            _ => self.result.read(key, p),
        }
    }

    /// The validation sequence of both decoders.
    fn finish(self) -> Result<Response, String> {
        let kind = self
            .kind
            .flatten()
            .ok_or_else(|| "response: bad or missing field `type`".to_string())?;
        let message = || {
            self.message
                .flatten()
                .map_or_else(|| "unknown error".to_string(), Cow::into_owned)
        };
        let index = |what: &str| {
            self.index
                .flatten()
                .map(|n| n as usize)
                .ok_or_else(|| format!("{what}: bad or missing field `index`"))
        };
        match &*kind {
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error { message: message() }),
            "overloaded" => Ok(Response::Overloaded {
                retry_after_ms: self
                    .retry_after_ms
                    .flatten()
                    .ok_or_else(|| "overloaded: bad or missing `retry_after_ms`".to_string())?,
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded),
            "sweep_row_error" => Ok(Response::SweepRowError {
                index: index("sweep row error")?,
                message: message(),
            }),
            "result" => self.result.finish().map(Response::Result),
            "sweep_row" => Ok(Response::SweepRow {
                index: index("sweep row")?,
                result: self.result.finish()?,
            }),
            "sweep_done" => Ok(Response::SweepDone {
                count: self
                    .count
                    .flatten()
                    .map(|n| n as usize)
                    .ok_or_else(|| "sweep done: bad or missing field `count`".to_string())?,
            }),
            "metrics" => Ok(Response::Metrics {
                snapshot: self
                    .snapshot
                    .ok_or_else(|| "metrics response: missing field `snapshot`".to_string())?,
            }),
            other => Err(format!("response: unknown type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_isa::{LoadElimMode, OooConfig, RefConfig};

    #[test]
    fn default_paper_request_fingerprint_is_pinned() {
        // A literal recorded from the encoder: a change here re-keys
        // every result cache and journal written before it.
        let req = SimRequest::ooo_default(Program::Trfd, Scale::Paper);
        assert_eq!(req.fingerprint(), 13_249_383_966_225_158_790);
    }

    /// SplitMix64, the workspace's dependency-free PRNG.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded random request. Fields are drawn independently, so
    /// fault points land on every machine; the fingerprint hashes
    /// whatever the request holds.
    fn random_request(state: &mut u64) -> SimRequest {
        let mut pick = |n: usize| (splitmix(state) % n as u64) as usize;
        let latency = 1 + pick(200) as u32;
        let machine = if pick(4) == 0 {
            MachineConfig::Ref(RefConfig {
                lat: RefConfig::default().lat.with_memory_latency(latency),
                banked_ports: pick(2) == 0,
                chain_fu: pick(2) == 0,
                chain_loads: pick(2) == 0,
                scalar_cache: if pick(2) == 0 {
                    None
                } else {
                    RefConfig::default().scalar_cache
                },
            })
        } else {
            let commit = [CommitMode::Early, CommitMode::Late][pick(2)];
            let elim = [
                LoadElimMode::Off,
                LoadElimMode::Sle,
                LoadElimMode::SleVle,
                LoadElimMode::SleVleSse,
            ][pick(4)];
            MachineConfig::Ooo(
                OooConfig::default()
                    .with_phys_v_regs(9 + pick(120))
                    .with_queue_slots(1 + pick(256))
                    .with_memory_latency(latency)
                    .with_commit(commit)
                    .with_load_elim(elim),
            )
        };
        SimRequest {
            program: Program::ALL[pick(Program::ALL.len())],
            scale: [Scale::Smoke, Scale::Paper][pick(2)],
            machine,
            stepper: [Stepper::Naive, Stepper::EventDriven][pick(2)],
            fault_at: if pick(2) == 0 {
                None
            } else {
                Some(pick(1 << 40))
            },
        }
    }

    #[test]
    fn streamed_fingerprint_hashes_the_encoded_request() {
        let mut state = 0x05ee_d0ff_1e1d;
        let (mut refs, mut elims, mut commits, mut naive, mut paper, mut faults) =
            (0, [0; 4], [0; 2], 0, 0, 0);
        for _ in 0..2_000 {
            let req = random_request(&mut state);
            let encoded = req.to_json().encode();
            assert_eq!(
                req.fingerprint(),
                oov_proto::fingerprint_bytes(encoded.as_bytes()),
                "{encoded}"
            );
            assert_eq!(
                req.machine.fingerprint(),
                oov_proto::fingerprint_bytes(req.machine.to_json().encode().as_bytes())
            );
            match req.machine {
                MachineConfig::Ref(_) => refs += 1,
                MachineConfig::Ooo(c) => {
                    elims[c.load_elim as usize] += 1;
                    commits[usize::from(c.commit == CommitMode::Late)] += 1;
                }
            }
            naive += usize::from(req.stepper == Stepper::Naive);
            paper += usize::from(req.scale == Scale::Paper);
            faults += usize::from(req.fault_at.is_some());
        }
        // The corpus covers both machines, every commit and load-elim
        // mode, both steppers, both scales, and fault points on and off.
        for n in [refs, naive, paper, faults] {
            assert!((200..1_800).contains(&n), "lopsided corpus: {n}");
        }
        assert!(elims.iter().all(|&n| n > 100), "{elims:?}");
        assert!(commits.iter().all(|&n| n > 100), "{commits:?}");
    }

    #[test]
    fn sim_request_fingerprint_distinguishes_every_field() {
        let base = SimRequest::ooo_default(Program::Trfd, Scale::Smoke);
        let variants = [
            SimRequest {
                program: Program::Bdna,
                ..base
            },
            SimRequest {
                scale: Scale::Paper,
                ..base
            },
            SimRequest {
                machine: MachineConfig::Ooo(OooConfig::default().with_queue_slots(128)),
                ..base
            },
            SimRequest {
                machine: MachineConfig::Ref(RefConfig::default()),
                ..base
            },
            SimRequest {
                stepper: Stepper::Naive,
                ..base
            },
            SimRequest {
                machine: MachineConfig::Ooo(OooConfig::default().with_commit(CommitMode::Late)),
                fault_at: Some(10),
                ..base
            },
        ];
        let mut fps = vec![base.fingerprint()];
        for v in variants {
            fps.push(v.fingerprint());
        }
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn fault_on_early_commit_is_rejected_at_decode() {
        let req = SimRequest {
            fault_at: Some(5),
            ..SimRequest::ooo_default(Program::Trfd, Scale::Smoke)
        };
        let line = Request::Sim {
            req,
            deadline_ms: None,
        }
        .encode();
        let err = Request::decode(&line).unwrap_err();
        assert!(err.contains("late-commit"), "{err}");
    }

    #[test]
    fn fault_on_ref_machine_is_rejected_at_decode() {
        let req = SimRequest {
            machine: MachineConfig::Ref(RefConfig::default()),
            fault_at: Some(5),
            ..SimRequest::ooo_default(Program::Trfd, Scale::Smoke)
        };
        let err = Request::decode(
            &Request::Sim {
                req,
                deadline_ms: None,
            }
            .encode(),
        )
        .unwrap_err();
        assert!(err.contains("no precise traps"), "{err}");
    }

    #[test]
    fn elim_config_round_trips_through_sim_request() {
        let req = SimRequest {
            machine: MachineConfig::Ooo(OooConfig::default().with_load_elim(LoadElimMode::SleVle)),
            ..SimRequest::ooo_default(Program::Dyfesm, Scale::Smoke)
        };
        let line = Request::Sim {
            req,
            deadline_ms: Some(250),
        }
        .encode();
        assert_eq!(
            Request::decode(&line).unwrap(),
            Request::Sim {
                req,
                deadline_ms: Some(250),
            }
        );
    }
}
