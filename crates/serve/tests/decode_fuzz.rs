//! Seed-loop fuzz of the wire decoders, in the style of the histogram
//! property suite: valid request and response lines are mutated (byte
//! flips, truncations, insertions) and random byte strings are thrown
//! in beside them. The request lines come in both forms the server
//! accepts: compact, as the client writes them, and full, every config
//! field spelt out, as older clients wrote them. Every input goes through [`Json::parse`] and
//! through both the typed decoders ([`Request::decode`],
//! [`Response::decode`]) and the tree decoders they are held to
//! ([`Request::decode_tree`], [`Response::decode_tree`]), and three
//! things must hold: no input panics; the typed and tree decoders
//! return the same value or the same error text; and whatever decodes
//! is a fixed point of decode ∘ encode, so a value the server accepts
//! is a value it can send back unchanged. A field-level pass also puts
//! boundary values into every numeric machine-config field, where
//! every accepted request must also pass the config's `validate()`,
//! and hand-written lines pin the cases a pull reader can get wrong:
//! key order, repeated keys, unknown keys, escapes, number spellings
//! and a syntax error behind a semantic one. A seeded property holds
//! the compact and full forms of random machines to one request and
//! one fingerprint.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oov_core::Stepper;
use oov_isa::{
    CommitMode, LatencyModel, LoadElimMode, MachineConfig, OooConfig, RefConfig, ScalarCacheCfg,
};
use oov_kernels::{Program, Scale};
use oov_proto::Json;
use oov_serve::{Request, Response, SimRequest, SimResult};
use oov_stats::SimStats;

const SEEDS: [u64; 8] = [
    0x9e37_79b9_7f4a_7c15,
    0x0123_4567_89ab_cdef,
    0xdead_beef_cafe_f00d,
    1,
    2,
    42,
    0x5555_5555_5555_5555,
    123_456_789,
];

/// Mutants per valid line per seed.
const MUTANTS: usize = 300;

/// Random byte strings per seed.
const RANDOM_LINES: usize = 2000;

/// SplitMix64 — the workspace's dependency-free PRNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

/// Bytes that steer the parser into its interesting branches: the
/// structural characters, escapes, number syntax and a multi-byte
/// UTF-8 lead byte.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\/-+.eE0123456789tfnu \t\n\xc3\xa9\x01";

fn random_byte(state: &mut u64) -> u8 {
    if splitmix(state) & 1 == 0 {
        JSON_BYTES[below(state, JSON_BYTES.len())]
    } else {
        splitmix(state) as u8
    }
}

/// One to four flips, truncations or insertions of `line`.
fn mutate(line: &str, state: &mut u64) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..=below(state, 4) {
        let at = below(state, bytes.len() + 1);
        match below(state, 3) {
            0 if at < bytes.len() => bytes[at] = random_byte(state),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, random_byte(state)),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn random_line(state: &mut u64) -> String {
    let len = below(state, 80);
    let bytes: Vec<u8> = (0..len).map(|_| random_byte(state)).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The line an older client wrote for `r`: every config field spelt
/// out, `stepper` and `fault_at` included. It is the canonical
/// encoding the fingerprint hashes, behind the request's tag.
fn full_line(r: &Request) -> String {
    let (kind, mut pairs, deadline_ms) = match r {
        Request::Sim { req, deadline_ms } => match req.to_json() {
            Json::Obj(pairs) => ("sim", pairs, deadline_ms),
            other => unreachable!("a request body is an object: {other}"),
        },
        Request::Sweep {
            points,
            deadline_ms,
        } => (
            "sweep",
            vec![(
                "points".to_string(),
                Json::Arr(points.iter().map(SimRequest::to_json).collect()),
            )],
            deadline_ms,
        ),
        other => return other.encode(),
    };
    pairs.insert(0, ("type".to_string(), kind.into()));
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms".to_string(), (*ms).into()));
    }
    Json::Obj(pairs).encode()
}

fn valid_lines() -> Vec<String> {
    let trfd = SimRequest::ooo_default(Program::Trfd, Scale::Smoke);
    let swept = SimRequest {
        machine: MachineConfig::Ooo(
            OooConfig::default()
                .with_phys_v_regs(32)
                .with_memory_latency(100),
        ),
        stepper: Stepper::Naive,
        ..SimRequest::ooo_default(Program::Swm256, Scale::Paper)
    };
    let late = SimRequest {
        machine: MachineConfig::Ooo(OooConfig::default().with_commit(CommitMode::Late)),
        fault_at: Some(17),
        ..SimRequest::ooo_default(Program::Flo52, Scale::Paper)
    };
    let reference = SimRequest {
        machine: MachineConfig::Ref(RefConfig::default()),
        ..SimRequest::ooo_default(Program::Tomcatv, Scale::Smoke)
    };
    let mut stats = SimStats {
        cycles: 123_456,
        committed: 9_999,
        mem_requests: 1_234,
        ..SimStats::new()
    };
    stats
        .breakdown
        .record(oov_stats::UnitState::new(true, false, true), 41);
    stats.stages.commit = 77;
    let result = SimResult {
        stats,
        ideal_cycles: 100_000,
        faults_taken: 1,
        cached: true,
        shard: 1,
    };
    let metrics = {
        let reg = oov_obs::Registry::new();
        reg.counter("cache.result_hits").add(3);
        reg.gauge("server.inflight_requests").set(1);
        reg.histogram("request.sim.latency_ns").record(987_654);
        reg.snapshot()
    };
    let requests = [
        Request::Ping,
        Request::Sim {
            req: trfd,
            deadline_ms: None,
        },
        Request::Sim {
            req: late,
            deadline_ms: Some(250),
        },
        Request::Sweep {
            points: vec![trfd, swept, reference],
            deadline_ms: Some(1_000),
        },
    ];
    let responses = [
        Response::Result(result.clone()),
        Response::SweepRow { index: 3, result },
        Response::Error {
            message: "bad \"quoted\" \\ line\nwith \u{1} control".into(),
        },
        Response::Overloaded { retry_after_ms: 40 },
        Response::Metrics { snapshot: metrics },
    ];
    requests
        .iter()
        .map(full_line)
        .chain(requests.iter().map(Request::encode))
        .chain(responses.iter().map(Response::encode))
        .collect()
}

/// Runs every decoder on `text`, checks that the typed and tree
/// decoders agree, and checks the fixed-point property of whatever
/// decodes.
fn check(text: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(v) = Json::parse(text) {
            assert_eq!(Json::parse(&v.encode()), Ok(v), "json re-encode");
        }
        let request = Request::decode(text);
        assert_eq!(request, Request::decode_tree(text), "request decoders");
        if let Ok(r) = request {
            assert_eq!(Request::decode(&r.encode()), Ok(r), "request re-encode");
        }
        let response = Response::decode(text);
        assert_eq!(response, Response::decode_tree(text), "response decoders");
        if let Ok(r) = response {
            assert_eq!(Response::decode(&r.encode()), Ok(r), "response re-encode");
        }
    }));
    assert!(outcome.is_ok(), "decoder property failed on input {text:?}");
}

#[test]
fn valid_lines_are_fixed_points() {
    for line in valid_lines() {
        check(&line);
        assert!(
            Request::decode(&line).is_ok() || Response::decode(&line).is_ok(),
            "{line}"
        );
    }
    // The client writes the compact form, and both forms decode to
    // the same request.
    let lines = valid_lines();
    let (sim, sweep) = (&lines[5], &lines[7]);
    assert!(sim.starts_with(r#"{"type": "sim""#) && sim.contains(r#""cfg": {}"#));
    assert!(sweep.starts_with(r#"{"type": "sweep""#), "{sweep}");
    for (full, compact) in lines[..4].iter().zip(&lines[4..8]) {
        assert!(compact.len() < full.len() || full == compact, "{compact}");
        assert_eq!(Request::decode(full), Request::decode(compact), "{compact}");
    }
}

/// An input a longer run of this fuzz found, kept as a fixed case: a
/// number literal past `f64`'s range.
#[test]
fn earlier_findings_stay_fixed() {
    let sim = default_sim_line().replace("\"size_bytes\": 16384", "\"size_bytes\": 1e384");
    assert!(sim.contains("1e384"), "{sim}");
    check(&sim);
}

/// One step of a path into a `Json` tree.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Appends to `out` the path of every number inside a `"cfg"` object
/// (a machine configuration) of `v`.
fn config_numbers(v: &Json, in_cfg: bool, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        Json::Num(_) if in_cfg => out.push(path.clone()),
        Json::Obj(pairs) => {
            for (k, item) in pairs {
                path.push(Step::Key(k.clone()));
                config_numbers(item, in_cfg || k == "cfg", path, out);
                path.pop();
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Index(i));
                config_numbers(item, in_cfg, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// `v` with the value at `path` replaced by `value`, or its key
/// removed for `None`.
fn substituted(v: &Json, path: &[Step], value: Option<&Json>) -> Json {
    let mut out = v.clone();
    let mut at = &mut out;
    for step in &path[..path.len() - 1] {
        at = match (step, at) {
            (Step::Key(k), Json::Obj(pairs)) => {
                &mut pairs.iter_mut().find(|(key, _)| key == k).expect("path").1
            }
            (Step::Index(i), Json::Arr(items)) => &mut items[*i],
            _ => unreachable!("paths come from the same tree"),
        };
    }
    match (path.last(), at, value) {
        (Some(Step::Key(k)), Json::Obj(pairs), Some(value)) => {
            for (_, item) in pairs.iter_mut().filter(|(key, _)| key == k) {
                *item = value.clone();
            }
        }
        (Some(Step::Key(k)), Json::Obj(pairs), None) => pairs.retain(|(key, _)| key != k),
        _ => unreachable!("config numbers are object fields"),
    }
    out
}

/// The machine configs a decoded request carries.
fn machines(r: &Request) -> Vec<MachineConfig> {
    match r {
        Request::Sim { req, .. } => vec![req.machine],
        Request::Sweep { points, .. } => points.iter().map(|p| p.machine).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn boundary_values_in_every_config_field_decode_to_valid_fixed_points() {
    let values: Vec<Option<Json>> = [
        Json::from(0u64),
        8u64.into(),
        9u64.into(),
        65_535u64.into(),
        65_536u64.into(),
        (1u64 << 50).into(),
        // Past 2^53, where a number is no longer read as an integer.
        (1u64 << 54).into(),
        (-1.0).into(),
        1.5.into(),
        Json::Null,
        "x".into(),
    ]
    .into_iter()
    .map(Some)
    .chain([None])
    .collect();
    let (mut accepted, mut rejected, mut fields) = (0, 0, 0);
    for line in valid_lines() {
        let v = Json::parse(&line).expect("valid line");
        let mut paths = Vec::new();
        config_numbers(&v, false, &mut Vec::new(), &mut paths);
        fields += paths.len();
        for path in &paths {
            for value in &values {
                let text = substituted(&v, path, value.as_ref()).encode();
                check(&text);
                match Request::decode(&text) {
                    Ok(r) => {
                        accepted += 1;
                        for machine in machines(&r) {
                            let valid = match machine {
                                MachineConfig::Ooo(c) => c.validate(),
                                MachineConfig::Ref(c) => c.validate(),
                            };
                            assert_eq!(valid, Ok(()), "{text}");
                        }
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    // The full request lines carry four OOOVA configs of 22 numbers
    // each and one REF config of 13; the compact ones only the two
    // numbers of the swept point that differ from the default.
    assert_eq!(fields, 4 * 22 + 13 + 2, "config fields found");
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn mutated_lines_never_panic_and_decode_to_fixed_points() {
    let lines = valid_lines();
    for seed in SEEDS {
        let mut state = seed;
        for line in &lines {
            for _ in 0..MUTANTS {
                check(&mutate(line, &mut state));
            }
        }
    }
}

#[test]
fn random_bytes_never_panic() {
    for seed in SEEDS {
        let mut state = seed;
        for _ in 0..RANDOM_LINES {
            check(&random_line(&mut state));
        }
    }
}

/// The default `sim` line of `trfd` at smoke scale, in full.
fn default_sim_line() -> String {
    full_line(&Request::Sim {
        req: SimRequest::ooo_default(Program::Trfd, Scale::Smoke),
        deadline_ms: None,
    })
}

/// `line` with its first `from` replaced by `to`.
fn edit(line: &str, from: &str, to: &str) -> String {
    assert!(line.contains(from), "{from} not in {line}");
    line.replacen(from, to, 1)
}

/// Both request decoders on `line`, checked equal, and their outcome.
fn decode_both(line: &str) -> Result<Request, String> {
    check(line);
    Request::decode(line)
}

/// How a number literal reads as an unsigned field.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Spelling {
    /// A non-negative integer of this value.
    Int(u64),
    /// A number, but not a non-negative integer.
    NotUnsigned,
    /// Not a JSON number: a syntax error at this byte of the literal.
    Malformed(usize),
}

/// Number literals at the edges of the integer reader and of the JSON
/// number grammar, with how each reads.
const NUMBER_SPELLINGS: [(&str, Spelling); 15] = [
    ("0", Spelling::Int(0)),
    ("-0", Spelling::Int(0)),
    ("-1", Spelling::NotUnsigned),
    ("1.0", Spelling::Int(1)),
    ("1e0", Spelling::Int(1)),
    ("999999999999999", Spelling::Int(999_999_999_999_999)),
    ("1000000000000000", Spelling::Int(1_000_000_000_000_000)),
    ("9999999999999999", Spelling::NotUnsigned),
    ("9007199254740993", Spelling::Int(1 << 53)),
    // A leading zero before another digit, and a point with no digit
    // after it, are not JSON.
    ("007", Spelling::Malformed(3)),
    ("-007", Spelling::Malformed(4)),
    ("00", Spelling::Malformed(2)),
    ("01.5", Spelling::Malformed(2)),
    ("1.", Spelling::Malformed(2)),
    ("1.e3", Spelling::Malformed(2)),
];

/// What a line with `literal` at byte `at` must decode to: `Ok` of the
/// field's value, or `Err` of the syntax error the spelling is, in
/// the text `prefix` (`malformed request` or `malformed response`)
/// gives it.
fn expected_read(
    spelling: Spelling,
    at: usize,
    prefix: &str,
    fits: impl Fn(u64) -> bool,
) -> Result<Option<u64>, String> {
    match spelling {
        Spelling::Int(v) => Ok(Some(v).filter(|&v| fits(v))),
        Spelling::NotUnsigned => Ok(None),
        Spelling::Malformed(offset) => {
            Err(format!("{prefix}: invalid number at byte {}", at + offset))
        }
    }
}

#[test]
fn hand_written_edge_lines_decode_alike() {
    let sim = default_sim_line();
    let expected = Request::decode_tree(&sim).expect("default line");
    let cfg = r#""cfg": {"lat": "#;
    // Reordered keys, at the top and inside the machine: the config
    // before its tag is read once the tag is known.
    let machine = sim.find("\"machine\": {").expect("machine key");
    // `line` with its machine's `cfg` moved before the `machine` tag.
    let cfg_first = |line: &str, tag: &str| {
        edit(
            line,
            &format!(r#""machine": {{"machine": "{tag}", "cfg": "#),
            r#""machine": {"cfg": "#,
        )
        .replacen(
            "}}, \"stepper\"",
            &format!(r#"}}, "machine": "{tag}"}}, "stepper""#),
            1,
        )
    };
    let reordered = [
        r#"{"fault_at": null, "stepper": "event", "scale": "smoke", "program": "trfd", "type": "sim", "#
            .to_string()
            + &sim[machine..sim.find(", \"stepper\"").expect("stepper")]
            + "}",
        cfg_first(&sim, "ooo"),
        edit(&sim, r#""read_xbar": 1, "write_xbar": 2"#, r#""write_xbar": 2, "read_xbar": 1"#),
    ];
    for line in &reordered {
        assert_eq!(decode_both(line).as_ref(), Ok(&expected), "{line}");
    }
    let reference = Request::Sim {
        req: SimRequest {
            machine: MachineConfig::Ref(RefConfig::default()),
            ..SimRequest::ooo_default(Program::Trfd, Scale::Smoke)
        },
        deadline_ms: None,
    };
    let line = cfg_first(&full_line(&reference), "ref");
    assert_eq!(decode_both(&line), Ok(reference), "{line}");
    // Repeated keys: the first value wins, good or bad.
    let good_first = [
        edit(
            &sim,
            r#""program": "trfd""#,
            r#""program": "trfd", "program": "nope""#,
        ),
        edit(
            &sim,
            r#""phys_v_regs": 16"#,
            r#""phys_v_regs": 16, "phys_v_regs": 4"#,
        ),
        edit(
            &sim,
            r#""machine": "ooo""#,
            r#""machine": "ooo", "machine": 5"#,
        ),
        edit(&sim, r#""type": "sim""#, r#""type": "sim", "type": "ping""#),
        edit(&sim, cfg, r#""cfg": {"lat": {}, "lat": "#),
    ];
    let first_bad = [
        (
            edit(
                &sim,
                r#""program": "trfd""#,
                r#""program": "nope", "program": "trfd""#,
            ),
            "sim request: unknown program `nope`",
        ),
        (
            edit(
                &sim,
                r#""phys_v_regs": 16"#,
                r#""phys_v_regs": 4, "phys_v_regs": 16"#,
            ),
            "at least 9",
        ),
        (
            edit(
                &sim,
                r#""machine": "ooo""#,
                r#""machine": 5, "machine": "ooo""#,
            ),
            "machine config: bad or missing field `machine`",
        ),
        (
            edit(&sim, cfg, r#""cfg": {"lat": null, "lat": "#),
            "latency model: not an object",
        ),
    ];
    // The empty latency model of the last is the OOOVA's own table.
    for line in &good_first {
        assert_eq!(decode_both(line).as_ref(), Ok(&expected), "{line}");
    }
    for (line, text) in &first_bad {
        let err = decode_both(line).expect_err(line);
        assert!(err.contains(text), "{err} for {line}");
    }
    // An unknown key's value is parsed under the parser's depth limit
    // before the key is rejected: the request object is depth 0, so 64
    // brackets reach depth 64, and at 65 the syntax error comes first.
    for (depth, error) in [
        (64, "request: unknown field `extra`"),
        (65, "malformed request: nesting too deep at byte 74"),
    ] {
        let deep = "[".repeat(depth) + &"]".repeat(depth);
        let line = edit(&sim, "{", &format!("{{\"extra\": {deep}, "));
        assert_eq!(decode_both(&line), Err(error.to_string()), "{depth} deep");
    }
    // Escaped keys and values are compared unescaped.
    let escaped = edit(
        &sim,
        r#""program": "trfd""#,
        r#""\u0070rogram": "tr\u0066d""#,
    );
    assert_eq!(decode_both(&escaped).as_ref(), Ok(&expected));
    // Number spellings go through the tree's f64 rule.
    for (literal, value) in [
        ("1.0", 1),
        ("1e0", 1),
        ("-0", 0),
        ("9007199254740993", 1 << 53),
    ] {
        let line = edit(&sim, r#""branch": 1"#, &format!(r#""branch": {literal}"#));
        match decode_both(&line) {
            Ok(Request::Sim {
                req:
                    SimRequest {
                        machine: MachineConfig::Ooo(c),
                        ..
                    },
                ..
            }) => assert_eq!(u64::from(c.lat.branch), value, "{literal}"),
            // 2^53 does not fit the field's u32.
            Err(e) => assert!(value > u64::from(u32::MAX), "{e}"),
            Ok(other) => panic!("{other:?}"),
        }
        let line = edit(
            &sim,
            r#""btb_entries": 64"#,
            &format!(r#""btb_entries": {literal}"#),
        );
        let decoded = decode_both(&line);
        if value == 1 {
            assert!(decoded.is_ok(), "{line}");
        } else {
            assert!(decoded.is_err(), "{line}");
        }
    }
    // The literal boundaries of the integer reader: up to 15 digits a
    // plain literal converts to the f64 exactly, 16 digits and past
    // 2^53 it rounds; both decoders must land on the same value, and
    // reject a spelling JSON forbids with the same syntax error.
    let ooo = |line: &str| match decode_both(line) {
        Ok(Request::Sim {
            req:
                SimRequest {
                    machine: MachineConfig::Ooo(c),
                    ..
                },
            ..
        }) => Ok(Some(c)),
        Err(e) if e.starts_with("malformed request") => Err(e),
        Err(_) => Ok(None),
        Ok(other) => panic!("{other:?}"),
    };
    for (literal, spelling) in NUMBER_SPELLINGS {
        for (field, fits) in [
            // Past `u32::MAX` the value does not fit the field.
            ("branch", (|v| v <= u64::from(u32::MAX)) as fn(u64) -> bool),
            // The BTB takes 1 to 65,535 entries.
            ("btb_entries", |v| (1..=65_535).contains(&v)),
        ] {
            let key = format!(r#""{field}": "#);
            let line = sim.replacen(
                &format!("{key}{}", if field == "branch" { 1 } else { 64 }),
                &format!("{key}{literal}"),
                1,
            );
            let at = line.find(&key).expect("field") + key.len();
            let read = ooo(&line).map(|c| {
                c.map(|c| match field {
                    "branch" => u64::from(c.lat.branch),
                    _ => c.btb_entries as u64,
                })
            });
            let expected = expected_read(spelling, at, "malformed request", fits);
            assert_eq!(read, expected, "{literal} in {field}");
        }
    }
    // A syntax error anywhere wins over a semantic one before it.
    let unknown = edit(&sim, r#""program": "trfd""#, r#""program": "nope""#);
    assert_eq!(
        decode_both(&unknown),
        Err("sim request: unknown program `nope`".into())
    );
    let broken = edit(&unknown, r#""fault_at": null"#, r#""fault_at": nul"#);
    let err = decode_both(&broken).expect_err("syntax error");
    assert!(
        err.starts_with("malformed request: expected 'null'"),
        "{err}"
    );
    let trailing = unknown.clone() + " x";
    let err = decode_both(&trailing).expect_err("trailing bytes");
    assert!(err.contains("trailing characters"), "{err}");
}

#[test]
fn hand_written_result_lines_decode_alike() {
    let lines = valid_lines();
    let result = lines
        .iter()
        .find(|l| l.starts_with(r#"{"type": "result""#))
        .expect("a result line");
    let expected = Response::decode_tree(result).expect("result line");
    for line in [
        // Reordered: the tag last.
        edit(result, r#""type": "result", "#, "")
            .strip_suffix('}')
            .expect("a closing brace")
            .to_string()
            + r#", "type": "result"}"#,
        // Repeated keys, good first.
        edit(
            result,
            r#""cached": true"#,
            r#""cached": true, "cached": 3"#,
        ),
        edit(
            result,
            r#""cycles": 123456"#,
            r#""cycles": 123456, "cycles": -1"#,
        ),
        // An unknown key beside the result fields.
        edit(
            result,
            r#""shard": 1"#,
            r#""shard": 1, "extra": {"a": [1, {"b": null}]}"#,
        ),
    ] {
        check(&line);
        assert_eq!(Response::decode(&line).as_ref(), Ok(&expected), "{line}");
    }
    for (line, text) in [
        (
            edit(
                result,
                r#""cycles": 123456"#,
                r#""cycles": -1, "cycles": 123456"#,
            ),
            "sim stats: bad or missing field `cycles`",
        ),
        (
            edit(result, r#""stats": {"#, r#""stats": 1, "x": {"#),
            "sim stats: bad or missing field `cycles`",
        ),
        (
            edit(result, r#""breakdown": ["#, r#""breakdown": [1, "#),
            "state breakdown: expected 8 entries, got 9",
        ),
    ] {
        check(&line);
        assert_eq!(Response::decode(&line), Err(text.to_string()), "{line}");
    }
    // A `u64` field takes every spelling of a non-negative integer,
    // and no spelling JSON forbids.
    for (literal, spelling) in NUMBER_SPELLINGS {
        let line = edit(
            result,
            r#""cycles": 123456"#,
            &format!(r#""cycles": {literal}"#),
        );
        check(&line);
        let cycles = match Response::decode(&line) {
            Ok(Response::Result(r)) => Ok(Some(r.stats.cycles)),
            Err(e) if e.starts_with("malformed response") => Err(e),
            Err(_) => Ok(None),
            Ok(other) => panic!("{other:?}"),
        };
        let at = line.find(r#""cycles": "#).expect("cycles") + r#""cycles": "#.len();
        let expected = expected_read(spelling, at, "malformed response", |_| true);
        assert_eq!(cycles, expected, "{literal}");
    }
}

/// `Some(random)` half the time, else `None`: a field left at its
/// default.
fn sometimes<T>(state: &mut u64, random: impl FnOnce(&mut u64) -> T) -> Option<T> {
    (splitmix(state) & 1 == 0).then(|| random(state))
}

/// A latency table with each entry sometimes off `base`'s.
fn random_latencies(state: &mut u64, base: LatencyModel) -> LatencyModel {
    let mut lat = base;
    for entry in [
        &mut lat.read_xbar,
        &mut lat.write_xbar,
        &mut lat.vstartup,
        &mut lat.scalar_simple,
        &mut lat.vector_simple,
        &mut lat.mul,
        &mut lat.div_sqrt,
        &mut lat.memory,
        &mut lat.branch,
        &mut lat.mispredict_penalty,
    ] {
        if let Some(n) = sometimes(state, |s| below(s, 200) as u32) {
            *entry = n;
        }
    }
    lat
}

/// A valid scalar cache with each field sometimes off `base`'s, or
/// none at all.
fn random_cache(state: &mut u64, base: Option<ScalarCacheCfg>) -> Option<ScalarCacheCfg> {
    if below(state, 4) == 0 {
        return None;
    }
    let mut cache = base.unwrap_or_default();
    if let Some(shift) = sometimes(state, |s| below(s, 4)) {
        cache.line_bytes = 8 << shift;
    }
    if let Some(shift) = sometimes(state, |s| below(s, 12)) {
        cache.size_bytes = cache.line_bytes << shift;
    } else if cache.size_bytes < cache.line_bytes {
        cache.size_bytes = cache.line_bytes;
    }
    if let Some(n) = sometimes(state, |s| 1 + below(s, 10) as u32) {
        cache.hit_latency = n;
    }
    Some(cache)
}

/// A random valid machine with every field sometimes off its default.
fn random_machine(state: &mut u64) -> MachineConfig {
    if below(state, 3) == 0 {
        let base = RefConfig::default();
        let flag = |state: &mut u64, default: bool| {
            sometimes(state, |s| below(s, 2) == 0).unwrap_or(default)
        };
        return MachineConfig::Ref(RefConfig {
            lat: random_latencies(state, base.lat),
            banked_ports: flag(state, base.banked_ports),
            chain_fu: flag(state, base.chain_fu),
            chain_loads: flag(state, base.chain_loads),
            scalar_cache: random_cache(state, base.scalar_cache),
        });
    }
    let base = OooConfig::default();
    let size = |state: &mut u64, default: usize, low: usize, span: usize| {
        sometimes(state, |s| low + below(s, span)).unwrap_or(default)
    };
    let mut cfg = OooConfig {
        lat: random_latencies(state, base.lat),
        phys_v_regs: size(state, base.phys_v_regs, 9, 120),
        phys_a_regs: size(state, base.phys_a_regs, 9, 120),
        phys_s_regs: size(state, base.phys_s_regs, 9, 120),
        phys_mask_regs: size(state, base.phys_mask_regs, 0, 16),
        queue_slots: size(state, base.queue_slots, 1, 256),
        rob_entries: size(state, base.rob_entries, 1, 256),
        commit_width: size(state, base.commit_width, 1, 8),
        btb_entries: size(state, base.btb_entries, 1, 1024),
        ras_depth: size(state, base.ras_depth, 0, 16),
        scalar_cache: random_cache(state, base.scalar_cache),
        ..base
    };
    if let Some(i) = sometimes(state, |s| below(s, 2)) {
        cfg = cfg.with_commit([CommitMode::Early, CommitMode::Late][i]);
    }
    if let Some(i) = sometimes(state, |s| below(s, 4)) {
        let modes = [
            LoadElimMode::Off,
            LoadElimMode::Sle,
            LoadElimMode::SleVle,
            LoadElimMode::SleVleSse,
        ];
        cfg = cfg.with_load_elim(modes[i]);
    }
    MachineConfig::Ooo(cfg)
}

/// A random valid request on a random machine.
fn random_request(state: &mut u64) -> SimRequest {
    let machine = random_machine(state);
    let late = matches!(machine, MachineConfig::Ooo(c) if c.commit == CommitMode::Late);
    SimRequest {
        program: Program::ALL[below(state, Program::ALL.len())],
        scale: [Scale::Smoke, Scale::Paper][below(state, 2)],
        machine,
        stepper: [Stepper::EventDriven, Stepper::Naive][below(state, 2)],
        fault_at: if late {
            sometimes(state, |s| below(s, 1 << 20))
        } else {
            None
        },
    }
}

#[test]
fn compact_and_full_lines_decode_to_one_request_and_fingerprint() {
    let (mut compact_bytes, mut full_bytes, mut points) = (0, 0, Vec::new());
    for seed in SEEDS {
        let mut state = seed;
        for _ in 0..200 {
            let req = random_request(&mut state);
            let deadline_ms = sometimes(&mut state, |s| below(s, 10_000) as u64);
            let sim = Request::Sim { req, deadline_ms };
            let (compact, full) = (sim.encode(), full_line(&sim));
            compact_bytes += compact.len();
            full_bytes += full.len();
            for line in [&compact, &full] {
                assert_eq!(decode_both(line).as_ref(), Ok(&sim), "{line}");
            }
            let Ok(Request::Sim { req: decoded, .. }) = Request::decode(&compact) else {
                unreachable!("decoded above")
            };
            assert_eq!(decoded.fingerprint(), req.fingerprint(), "{compact}");
            assert_eq!(
                req.fingerprint(),
                oov_proto::fingerprint_bytes(req.to_json().encode().as_bytes())
            );
            points.push(req);
        }
    }
    // A compact sweep of all of them (in chunks under the cap) decodes
    // to the full sweep's points.
    for chunk in points.chunks(500) {
        let sweep = Request::Sweep {
            points: chunk.to_vec(),
            deadline_ms: None,
        };
        let compact = sweep.encode();
        assert_eq!(decode_both(&compact).as_ref(), Ok(&sweep));
        assert_eq!(decode_both(&full_line(&sweep)).as_ref(), Ok(&sweep));
    }
    assert!(
        compact_bytes < full_bytes,
        "compact {compact_bytes} B against full {full_bytes} B"
    );
}

/// A key that names no field is rejected at every level of a request
/// line (the config records' own levels are tested in `oov-isa`).
#[test]
fn unknown_request_keys_are_rejected_alike() {
    let sweep_point =
        r#"{"program": "trfd", "scale": "smoke", "machine": {"machine": "ooo", "cfg": {}}"#;
    for (line, error) in [
        (
            format!(
                r#"{{"type": "sim", {}, "steper": "naive"}}"#,
                &sweep_point[1..]
            ),
            "request: unknown field `steper`",
        ),
        // Whatever the type, and before it is checked.
        (
            r#"{"type": "ping", "x": 1}"#.to_string(),
            "request: unknown field `x`",
        ),
        (
            r#"{"x": 1, "type": "nope"}"#.to_string(),
            "request: unknown field `x`",
        ),
        (
            format!(r#"{{"type": "sweep", "points": [{sweep_point}, "deadline_ms": 5}}]}}"#),
            "sim request: unknown field `deadline_ms`",
        ),
    ] {
        assert_eq!(decode_both(&line), Err(error.to_string()), "{line}");
    }
    // A config misspelling is rejected in a full line too.
    let full = edit(&default_sim_line(), r#""btb_entries""#, r#""btb_entry""#);
    assert_eq!(
        decode_both(&full),
        Err("ooo config: unknown field `btb_entry`".to_string())
    );
}
