//! Machine parameter blocks for the two simulated implementations.
//!
//! Every config block serialises to and from [`oov_proto::Json`] (the
//! `oov-serve` wire protocol carries configurations by value) and
//! carries a stable 64-bit [fingerprint](MachineConfig::fingerprint).
//! The encoding feeds the `oov-serve` request fingerprint, which keys
//! its result cache and shard routing.
//!
//! Each block's codec is one [`json_record!`] field list; defaults live
//! in its `Default`. Every bound a machine needs is stated once, in
//! [`OooConfig::validate`] and [`ScalarCacheCfg::validate`]
//! ([`RefConfig::validate`] goes through the latter): decoding returns
//! their error, and the simulators assert them on construction.
//!
//! The blocks are *defaulting* records. A decoder takes a missing field
//! from the enclosing default: an OOOVA `cfg` without `lat` gets
//! [`LatencyModel::ooo`], a REF `cfg` without it
//! [`LatencyModel::reference`], and `"cfg": {}` is the machine's
//! `Default`. A key that names no field is an error, so a misspelt
//! field cannot silently become its default, and `"scalar_cache":
//! null` still turns the cache off. [`MachineConfig::write_compact`]
//! writes only the fields that differ from the machine's `Default`;
//! [`MachineConfig::write_json`] writes every field, and it alone
//! feeds the fingerprint.

use std::borrow::Cow;
use std::hash::Hasher as _;

use oov_proto::{
    first_unknown_key, json_record, unknown_field, write_str, Decoded, Fnv1a, Json, JsonField,
    ParseError, Parser, Sink,
};

use crate::LatencyModel;

/// Which machine a configuration describes (used in reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// The in-order Convex C3400-like reference architecture.
    Reference,
    /// The out-of-order, register-renaming OOOVA.
    OutOfOrder,
}

/// Commit strategy of the OOOVA (paper §2.2 "Commit Strategy" and §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommitMode {
    /// Aggressive model: a vector instruction's reorder-buffer slot is
    /// marked ready to commit as soon as the instruction *begins*
    /// execution, so old physical registers are released early. Precise
    /// exceptions are impossible.
    #[default]
    Early,
    /// Conservative model enabling precise traps: instructions commit only
    /// after full completion, and stores execute only at the head of the
    /// reorder buffer.
    Late,
}

/// Dynamic load elimination configuration (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LoadElimMode {
    /// No register tagging.
    #[default]
    Off,
    /// Scalar load elimination only (SLE).
    Sle,
    /// Scalar and vector load elimination (SLE+VLE). Implies the modified
    /// pipeline that renames vector registers at the disambiguation stage.
    SleVle,
    /// SLE+VLE plus redundant (silent) store elimination — the extension
    /// the paper leaves as future work ("Relaxing compatibility could
    /// lead to removing some spill stores"): a store whose data register
    /// carries a valid tag exactly matching the target range would write
    /// back bytes memory already holds, and is elided.
    SleVleSse,
}

impl CommitMode {
    /// Wire/CLI name of the mode.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CommitMode::Early => "early",
            CommitMode::Late => "late",
        }
    }

    /// Parses a [`CommitMode::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "early" => Some(CommitMode::Early),
            "late" => Some(CommitMode::Late),
            _ => None,
        }
    }
}

impl LoadElimMode {
    /// Wire/CLI name of the mode (matching the `simulate` binary's
    /// `--elim` flag values).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LoadElimMode::Off => "off",
            LoadElimMode::Sle => "sle",
            LoadElimMode::SleVle => "sle+vle",
            LoadElimMode::SleVleSse => "sle+vle+sse",
        }
    }

    /// Parses a [`LoadElimMode::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" => Some(LoadElimMode::Off),
            "sle" => Some(LoadElimMode::Sle),
            "sle+vle" => Some(LoadElimMode::SleVle),
            "sle+vle+sse" => Some(LoadElimMode::SleVleSse),
            _ => None,
        }
    }
}

/// The modes travel as their names.
macro_rules! named_field {
    ($($t:ty),*) => {$(
        impl JsonField for $t {
            fn to_field(&self) -> Json {
                self.name().into()
            }

            fn write_field<S: Sink>(&self, out: &mut S) {
                write_str(out, self.name());
            }

            fn from_value(v: &Json) -> Decoded<Self> {
                v.as_str().and_then(Self::from_name).ok_or(None)
            }

            fn read_field(p: &mut Parser<'_>) -> Result<Decoded<Self>, ParseError> {
                Ok(p.str()?.and_then(|name| Self::from_name(&name)).ok_or(None))
            }
        }
    )*};
}

named_field!(CommitMode, LoadElimMode);

/// The largest size of any machine structure: each physical register
/// file, the issue-queue slots, the ROB, the commit width, the BTB, the
/// return stack and the scalar cache's lines. Physical registers are
/// named by `u16`, and the bound keeps every structure's allocation
/// small, so no decodable configuration wraps a register name or
/// exhausts memory.
const MAX_SIZE: usize = u16::MAX as usize;

/// Scalar data-cache parameters.
///
/// Both machines cache *scalar* data only (the paper: data caches "have
/// not been put into widespread use in vector processors (except to
/// cache scalar data)"). The cache is write-through and no-write-
/// allocate, and stores invalidate a hit line — so register-spill
/// reloads (which always follow a store to the same slot) miss and
/// travel to main memory, preserving the paper's §6 premise that spill
/// loads are expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScalarCacheCfg {
    /// Total size in bytes (power of two).
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles (hits bypass the shared address bus).
    pub hit_latency: u32,
}

impl Default for ScalarCacheCfg {
    fn default() -> Self {
        ScalarCacheCfg {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            hit_latency: 2,
        }
    }
}

/// Parameters of the reference (in-order) machine.
///
/// Defaults follow paper §2.1: 8 vector registers of 128 elements paired
/// into 4 banks of 2 read + 1 write port, chaining between functional
/// units and to the store unit but *not* from memory loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefConfig {
    /// Latency table.
    pub lat: LatencyModel,
    /// `true` to enforce the banked register-file port conflicts.
    pub banked_ports: bool,
    /// `true` to chain functional units to other functional units and to
    /// the store unit.
    pub chain_fu: bool,
    /// `true` to chain memory loads into functional units (the C3400 does
    /// *not*; kept as a knob for ablation studies).
    pub chain_loads: bool,
    /// Scalar data cache (`None` disables it — an ablation knob).
    pub scalar_cache: Option<ScalarCacheCfg>,
}

impl Default for RefConfig {
    fn default() -> Self {
        RefConfig {
            lat: LatencyModel::reference(),
            banked_ports: true,
            chain_fu: true,
            chain_loads: false,
            scalar_cache: Some(ScalarCacheCfg::default()),
        }
    }
}

impl RefConfig {
    /// Reference machine with the given main-memory latency.
    #[must_use]
    pub fn with_memory_latency(mut self, cycles: u32) -> Self {
        self.lat.memory = cycles;
        self
    }

    /// Checks the reference machine's bounds: its scalar cache's.
    ///
    /// # Errors
    ///
    /// Names the bound the configuration breaks.
    pub fn validate(&self) -> Result<(), String> {
        self.scalar_cache
            .as_ref()
            .map_or(Ok(()), ScalarCacheCfg::validate)
    }
}

/// Parameters of the out-of-order machine (paper §2.2 "Machine Parameters").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OooConfig {
    /// Latency table.
    pub lat: LatencyModel,
    /// Physical vector registers (paper sweeps 9–64; ≥ 9 required since 8
    /// architectural mappings must always be live plus one in flight).
    pub phys_v_regs: usize,
    /// Physical A registers (paper: 64).
    pub phys_a_regs: usize,
    /// Physical S registers (paper: 64).
    pub phys_s_regs: usize,
    /// Physical mask registers (paper: 8).
    ///
    /// The OOOVA renames the mask file with at least 9 registers (8
    /// architectural mappings plus one in flight), so every value from
    /// 0 to 9, the default 8 included, simulates the same machine while
    /// fingerprinting as a different request. `validate` sets no lower
    /// bound here; dropping the field is left to the next change of the
    /// cache's record format (ROADMAP item 4), since it changes the
    /// fingerprint.
    pub phys_mask_regs: usize,
    /// Slots in each of the four issue queues (paper: 16, and 128 for the
    /// "OOOVA-128" configuration).
    pub queue_slots: usize,
    /// Reorder-buffer entries (paper: 64).
    pub rob_entries: usize,
    /// Maximum instructions committed per cycle (paper: 4).
    pub commit_width: usize,
    /// Branch target buffer entries, 2-bit counters (paper: 64).
    pub btb_entries: usize,
    /// Return-stack depth (paper: 8).
    ///
    /// The return stack holds at least one entry, so 0 and 1 simulate
    /// the same machine while fingerprinting as different requests.
    /// `validate` sets no lower bound here; a floor of 1 is left to the
    /// next change of the cache's record format (ROADMAP item 4).
    pub ras_depth: usize,
    /// Commit strategy.
    pub commit: CommitMode,
    /// Dynamic load elimination mode.
    pub load_elim: LoadElimMode,
    /// Scalar data cache (`None` disables it — an ablation knob).
    pub scalar_cache: Option<ScalarCacheCfg>,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            lat: LatencyModel::ooo(),
            phys_v_regs: 16,
            phys_a_regs: 64,
            phys_s_regs: 64,
            phys_mask_regs: 8,
            queue_slots: 16,
            rob_entries: 64,
            commit_width: 4,
            btb_entries: 64,
            ras_depth: 8,
            commit: CommitMode::Early,
            load_elim: LoadElimMode::Off,
            scalar_cache: Some(ScalarCacheCfg::default()),
        }
    }
}

impl OooConfig {
    /// Sets the number of physical vector registers (builder style).
    #[must_use]
    pub fn with_phys_v_regs(mut self, n: usize) -> Self {
        self.phys_v_regs = n;
        self
    }

    /// Sets the issue-queue depth (builder style).
    #[must_use]
    pub fn with_queue_slots(mut self, n: usize) -> Self {
        self.queue_slots = n;
        self
    }

    /// Sets the main-memory latency (builder style).
    #[must_use]
    pub fn with_memory_latency(mut self, cycles: u32) -> Self {
        self.lat.memory = cycles;
        self
    }

    /// Sets the commit mode (builder style).
    #[must_use]
    pub fn with_commit(mut self, mode: CommitMode) -> Self {
        self.commit = mode;
        self
    }

    /// Sets the load-elimination mode (builder style). Load elimination
    /// requires precise state, so every mode other than `Off` (`Sle`,
    /// `SleVle` and `SleVleSse`) forces late commit.
    #[must_use]
    pub fn with_load_elim(mut self, mode: LoadElimMode) -> Self {
        self.load_elim = mode;
        if mode != LoadElimMode::Off {
            self.commit = CommitMode::Late;
        }
        self
    }

    /// Checks every bound the OOOVA needs: 9 or more registers in each
    /// of the A, S and V files (8 architectural mappings plus one in
    /// flight, or rename never proceeds); at least one issue-queue slot,
    /// ROB entry, commit slot and BTB entry; no structure above
    /// `u16::MAX`; late commit under load elimination; and the scalar
    /// cache's bounds.
    ///
    /// # Errors
    ///
    /// Names the first bound the configuration breaks.
    pub fn validate(&self) -> Result<(), String> {
        let (a, s, v) = (self.phys_a_regs, self.phys_s_regs, self.phys_v_regs);
        if a.min(s).min(v) < 9 {
            return Err(format!(
                "ooo config: each physical register file needs at least 9 registers \
                 (8 architectural mappings plus one in flight), got a={a} s={s} v={v}"
            ));
        }
        let slots = [
            self.queue_slots,
            self.rob_entries,
            self.commit_width,
            self.btb_entries,
        ];
        if slots.contains(&0) {
            return Err(
                "ooo config: issue queues, ROB, commit width and BTB need at least one slot".into(),
            );
        }
        let sizes = [a, s, v, self.phys_mask_regs, self.ras_depth];
        if let Some(n) = slots.into_iter().chain(sizes).find(|&n| n > MAX_SIZE) {
            return Err(format!(
                "ooo config: a structure size of {n} is above the limit of {MAX_SIZE}"
            ));
        }
        if self.load_elim != LoadElimMode::Off && self.commit != CommitMode::Late {
            return Err("ooo config: load elimination requires late commit".into());
        }
        self.scalar_cache
            .as_ref()
            .map_or(Ok(()), ScalarCacheCfg::validate)
    }
}

impl ScalarCacheCfg {
    /// Checks the cache's bounds: both sizes powers of two, and from
    /// one to `u16::MAX` lines.
    ///
    /// # Errors
    ///
    /// Names the bound the cache breaks.
    pub fn validate(&self) -> Result<(), String> {
        if !self.size_bytes.is_power_of_two() || !self.line_bytes.is_power_of_two() {
            return Err("scalar cache: sizes must be powers of two".into());
        }
        let lines = self.size_bytes / self.line_bytes;
        if lines == 0 || lines > MAX_SIZE as u64 {
            return Err(format!(
                "scalar cache: {lines} lines of {} bytes, need 1 to {MAX_SIZE}",
                self.line_bytes
            ));
        }
        Ok(())
    }
}

json_record!(
    ScalarCacheCfg,
    "scalar cache",
    defaulting,
    [size_bytes, line_bytes, hit_latency],
    validate
);

json_record!(
    RefConfig,
    "ref config",
    defaulting,
    [lat, banked_ports, chain_fu, chain_loads, scalar_cache],
    validate
);

json_record!(
    OooConfig,
    "ooo config",
    defaulting,
    [
        lat,
        phys_v_regs,
        phys_a_regs,
        phys_s_regs,
        phys_mask_regs,
        queue_slots,
        rob_entries,
        commit_width,
        btb_entries,
        ras_depth,
        commit,
        load_elim,
        scalar_cache,
    ],
    validate
);

/// Configuration for either simulated machine — the unit the `oov-serve`
/// wire protocol, shard router and result cache work in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineConfig {
    /// The in-order reference machine.
    Ref(RefConfig),
    /// The out-of-order OOOVA.
    Ooo(OooConfig),
}

impl MachineConfig {
    /// Which machine the configuration describes.
    #[must_use]
    pub fn kind(&self) -> MachineKind {
        match self {
            MachineConfig::Ref(_) => MachineKind::Reference,
            MachineConfig::Ooo(_) => MachineKind::OutOfOrder,
        }
    }

    /// Writes the configuration, tagged with the machine kind: the
    /// canonical encoding, every field, the bytes of
    /// [`MachineConfig::to_json`], with no tree.
    pub fn write_json<S: Sink>(&self, out: &mut S) {
        match self {
            MachineConfig::Ref(c) => {
                out.put(r#"{"machine": "ref", "cfg": "#);
                c.write_json(out);
            }
            MachineConfig::Ooo(c) => {
                out.put(r#"{"machine": "ooo", "cfg": "#);
                c.write_json(out);
            }
        }
        out.put("}");
    }

    /// Writes the configuration, tagged with the machine kind, with
    /// only the fields that differ from the machine's `Default`: the
    /// default OOOVA is `{"machine": "ooo", "cfg": {}}`. Both decoders
    /// read it back to `self`.
    pub fn write_compact<S: Sink>(&self, out: &mut S) {
        match self {
            MachineConfig::Ref(c) => {
                out.put(r#"{"machine": "ref", "cfg": "#);
                c.write_compact(&RefConfig::default(), out);
            }
            MachineConfig::Ooo(c) => {
                out.put(r#"{"machine": "ooo", "cfg": "#);
                c.write_compact(&OooConfig::default(), out);
            }
        }
        out.put("}");
    }

    /// Encodes the configuration, tagged with the machine kind.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            MachineConfig::Ref(c) => {
                Json::obj(vec![("machine", "ref".into()), ("cfg", c.to_json())])
            }
            MachineConfig::Ooo(c) => {
                Json::obj(vec![("machine", "ooo".into()), ("cfg", c.to_json())])
            }
        }
    }

    /// Decodes the [`MachineConfig::to_json`] encoding, or a compact
    /// one, whose missing `cfg` fields come from the machine's
    /// `Default`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown key, or the missing
    /// or malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Self::decode_parts(
            first_unknown_key(v, |key| matches!(key, "machine" | "cfg")),
            v.get("machine").and_then(Json::as_str),
            v.get("cfg"),
            |cfg, kind| match kind {
                MachineKind::Reference => RefConfig::from_json(cfg).map(MachineConfig::Ref),
                MachineKind::OutOfOrder => OooConfig::from_json(cfg).map(MachineConfig::Ooo),
            },
        )
    }

    /// Reads the configuration under the parser's cursor, deciding what
    /// [`MachineConfig::from_json`] decides on the same value. A `cfg`
    /// read before its `machine` tag is skipped and read again once
    /// the tag is known.
    ///
    /// # Errors
    ///
    /// A syntax error. The inner result is `from_json`'s.
    pub fn read_json(p: &mut Parser<'_>) -> Result<Result<Self, String>, ParseError> {
        let mut kind: Option<Option<Cow<'_, str>>> = None;
        // The config read as the tag named it, or the parser at a
        // config that came first.
        let mut cfg: Option<Result<Result<Self, String>, Parser<'_>>> = None;
        let mut unknown = None;
        p.object(|p, key| match &*key {
            "machine" => p.first(&mut kind, Parser::str),
            "cfg" => p.first(&mut cfg, |p| {
                match kind.as_ref().and_then(|k| machine_kind(k.as_deref()?)) {
                    Some(kind) => Self::read_cfg(p, kind).map(Ok),
                    None => {
                        let at = p.clone();
                        p.skip().map(|()| Err(at))
                    }
                }
            }),
            _ => p.skip_unknown(&mut unknown, key),
        })?;
        Ok(Self::decode_parts(
            unknown.as_deref(),
            kind.flatten().as_deref(),
            cfg,
            |cfg, kind| match cfg {
                Ok(read) => read,
                // The bytes were skipped without error, so reading them
                // again at the same depth cannot fail on syntax.
                Err(mut at) => Self::read_cfg(&mut at, kind).unwrap_or_else(|e| Err(e.to_string())),
            },
        ))
    }

    fn read_cfg(p: &mut Parser<'_>, kind: MachineKind) -> Result<Result<Self, String>, ParseError> {
        Ok(match kind {
            MachineKind::Reference => RefConfig::read_json(p)?.map(MachineConfig::Ref),
            MachineKind::OutOfOrder => OooConfig::read_json(p)?.map(MachineConfig::Ooo),
        })
    }

    /// The validation sequence of both decoders: `unknown` is the
    /// first key that names no field, `kind` is the first `machine`
    /// value if it is a string, and `decode` reads `cfg`, the first
    /// `cfg` value, as the config of the machine it names.
    fn decode_parts<C>(
        unknown: Option<&str>,
        kind: Option<&str>,
        cfg: Option<C>,
        decode: impl FnOnce(C, MachineKind) -> Result<Self, String>,
    ) -> Result<Self, String> {
        if let Some(key) = unknown {
            return Err(unknown_field("machine config", key));
        }
        let name =
            kind.ok_or_else(|| "machine config: bad or missing field `machine`".to_string())?;
        let cfg = cfg.ok_or_else(|| "machine config: missing field `cfg`".to_string())?;
        let kind = machine_kind(name)
            .ok_or_else(|| format!("machine config: unknown machine `{name}`"))?;
        decode(cfg, kind)
    }

    /// Stable 64-bit fingerprint of the configuration: FNV-1a over the
    /// raw bytes of the canonical JSON encoding, so it is identical
    /// across processes, platforms and toolchains (`str`'s `Hash` impl
    /// appends an unspecified suffix; `DefaultHasher` is seeded per
    /// process — neither is stable). `oov-serve` stores it beside each
    /// cached result and journal record; routing and cache lookup use
    /// the full-request fingerprint, which hashes this same encoding.
    /// The encoding streams straight into the hash, never into a
    /// `String` or a tree.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.write_json(&mut h);
        h.finish()
    }
}

/// The machine a config's `machine` tag names.
fn machine_kind(name: &str) -> Option<MachineKind> {
    match name {
        "ref" => Some(MachineKind::Reference),
        "ooo" => Some(MachineKind::OutOfOrder),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = OooConfig::default();
        assert_eq!(c.phys_a_regs, 64);
        assert_eq!(c.phys_s_regs, 64);
        assert_eq!(c.phys_mask_regs, 8);
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.btb_entries, 64);
        assert_eq!(c.ras_depth, 8);
        assert_eq!(c.queue_slots, 16);
        assert_eq!(c.lat.vstartup, 0);
    }

    #[test]
    fn ref_defaults_match_paper() {
        let c = RefConfig::default();
        assert!(c.banked_ports);
        assert!(c.chain_fu);
        assert!(!c.chain_loads);
        assert_eq!(c.lat.vstartup, 1);
    }

    #[test]
    fn builders_compose() {
        let c = OooConfig::default()
            .with_phys_v_regs(32)
            .with_queue_slots(128)
            .with_memory_latency(100)
            .with_commit(CommitMode::Late);
        assert_eq!(c.phys_v_regs, 32);
        assert_eq!(c.queue_slots, 128);
        assert_eq!(c.lat.memory, 100);
        assert_eq!(c.commit, CommitMode::Late);
    }

    #[test]
    fn default_ooo_wire_encoding_and_fingerprint_are_pinned() {
        // Literals recorded from the encoder itself: a change here
        // re-keys every serve result cache and journal written before it.
        let cfg = MachineConfig::Ooo(OooConfig::default());
        assert_eq!(
            cfg.to_json().to_string(),
            concat!(
                r#"{"machine": "ooo", "cfg": {"lat": {"read_xbar": 1, "write_xbar": 2, "#,
                r#""vstartup": 0, "scalar_simple": 2, "vector_simple": 4, "mul": 9, "#,
                r#""div_sqrt": 34, "memory": 50, "branch": 1, "mispredict_penalty": 4}, "#,
                r#""phys_v_regs": 16, "phys_a_regs": 64, "phys_s_regs": 64, "#,
                r#""phys_mask_regs": 8, "queue_slots": 16, "rob_entries": 64, "#,
                r#""commit_width": 4, "btb_entries": 64, "ras_depth": 8, "#,
                r#""commit": "early", "load_elim": "off", "#,
                r#""scalar_cache": {"size_bytes": 16384, "line_bytes": 32, "hit_latency": 2}}}"#,
            )
        );
        assert_eq!(cfg.fingerprint(), 13_957_685_086_001_590_209);
    }

    #[test]
    fn load_elim_forces_late_commit() {
        let c = OooConfig::default().with_load_elim(LoadElimMode::SleVle);
        assert_eq!(c.commit, CommitMode::Late);
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [CommitMode::Early, CommitMode::Late] {
            assert_eq!(CommitMode::from_name(m.name()), Some(m));
        }
        for m in [
            LoadElimMode::Off,
            LoadElimMode::Sle,
            LoadElimMode::SleVle,
            LoadElimMode::SleVleSse,
        ] {
            assert_eq!(LoadElimMode::from_name(m.name()), Some(m));
        }
        assert_eq!(CommitMode::from_name("nope"), None);
        assert_eq!(LoadElimMode::from_name("nope"), None);
    }

    #[test]
    fn machine_config_json_round_trips() {
        let ooo = MachineConfig::Ooo(
            OooConfig::default()
                .with_phys_v_regs(32)
                .with_queue_slots(128)
                .with_memory_latency(100)
                .with_load_elim(LoadElimMode::SleVle),
        );
        let rf = MachineConfig::Ref(RefConfig {
            scalar_cache: None,
            ..RefConfig::default().with_memory_latency(20)
        });
        for cfg in [ooo, rf] {
            let v = cfg.to_json();
            assert_eq!(MachineConfig::from_json(&v).unwrap(), cfg);
            // The encoding survives a textual round trip too (the wire
            // sends it as a line of JSON).
            let reparsed = Json::parse(&v.to_string()).unwrap();
            assert_eq!(MachineConfig::from_json(&reparsed).unwrap(), cfg);
        }
    }

    /// The default OOOVA encoding with `field` set to `value` in place,
    /// or removed for `None`.
    fn ooo_with(field: &str, value: Option<Json>) -> Json {
        let mut v = OooConfig::default().to_json();
        if let Json::Obj(pairs) = &mut v {
            match value {
                Some(value) => {
                    for (_, val) in pairs.iter_mut().filter(|(k, _)| k == field) {
                        *val = value.clone();
                    }
                }
                None => pairs.retain(|(k, _)| k != field),
            }
        }
        v
    }

    fn cache(size_bytes: u64, line_bytes: u64) -> Json {
        ScalarCacheCfg {
            size_bytes,
            line_bytes,
            ..ScalarCacheCfg::default()
        }
        .to_json()
    }

    #[test]
    fn from_json_validates_structural_bounds() {
        let err = OooConfig::from_json(&ooo_with("phys_v_regs", Some(4u64.into()))).unwrap_err();
        assert!(err.contains("at least 9"), "{err}");
    }

    #[test]
    fn from_json_rejects_wire_reachable_panic_values() {
        // Each of these would assert, divide by zero, wrap a `u16`
        // register name or abort on allocation inside the simulator if
        // it got past decode.
        let rejected = |field: &str, value: Json| {
            let v = ooo_with(field, Some(value.clone()));
            assert!(OooConfig::from_json(&v).is_err(), "{field} = {value}");
        };
        rejected("btb_entries", 0u64.into());
        rejected("phys_a_regs", 4u64.into());
        rejected("phys_s_regs", 0u64.into());
        for field in ["queue_slots", "rob_entries", "commit_width"] {
            rejected(field, 0u64.into());
        }
        rejected("phys_v_regs", 65_536u64.into());
        rejected("phys_v_regs", 65_545u64.into());
        rejected("rob_entries", (1u64 << 50).into());
        rejected("btb_entries", (1u64 << 50).into());
        rejected("scalar_cache", cache(100, 32)); // not a power of two
        rejected("scalar_cache", cache(16, 32)); // smaller than one line
        rejected("scalar_cache", cache(1 << 52, 32));
        rejected("scalar_cache", cache(1 << 21, 32)); // 65536 lines
    }

    #[test]
    fn from_json_accepts_the_largest_structures() {
        for field in [
            "phys_v_regs",
            "phys_a_regs",
            "phys_s_regs",
            "phys_mask_regs",
            "queue_slots",
            "rob_entries",
            "commit_width",
            "btb_entries",
            "ras_depth",
        ] {
            let v = ooo_with(field, Some(65_535u64.into()));
            let cfg = OooConfig::from_json(&v).unwrap_or_else(|e| panic!("{field}: {e}"));
            assert_eq!(cfg.to_json(), v);
        }
        // Both sizes are powers of two, so the most lines is 2^15.
        let v = ooo_with("scalar_cache", Some(cache(1 << 20, 32)));
        assert_eq!(OooConfig::from_json(&v).map(|c| c.to_json()), Ok(v));
    }

    #[test]
    fn from_json_accepts_every_point_the_callers_build() {
        // The sweeps of the exhibits, the repo benchmark, the
        // differential floor and the wire round-trip tests: registers
        // from 9, queues from 1, ROB sizes 16–128, latencies 1–200,
        // every commit × elimination pair the builders reach, with and
        // without the scalar cache.
        let mut points = Vec::new();
        let commits = [CommitMode::Early, CommitMode::Late];
        let elims = [
            LoadElimMode::Off,
            LoadElimMode::Sle,
            LoadElimMode::SleVle,
            LoadElimMode::SleVleSse,
        ];
        for regs in (9..=128).step_by(7).chain([12, 16, 32, 64, 128]) {
            for slots in [1, 4, 8, 16, 127, 128, 256] {
                for rob in [16, 64, 128] {
                    for (i, lat) in [1, 20, 50, 70, 100, 150, 200].into_iter().enumerate() {
                        let base = OooConfig {
                            rob_entries: rob,
                            scalar_cache: (i % 2 == 0).then(ScalarCacheCfg::default),
                            ..OooConfig::default()
                        }
                        .with_phys_v_regs(regs)
                        .with_queue_slots(slots)
                        .with_memory_latency(lat);
                        for commit in commits {
                            for elim in elims {
                                let cfg = base.with_commit(commit).with_load_elim(elim);
                                points.push(MachineConfig::Ooo(cfg));
                            }
                        }
                    }
                }
            }
        }
        for lat in 1..=200 {
            let base = RefConfig::default().with_memory_latency(lat);
            for bits in 0..16u32 {
                points.push(MachineConfig::Ref(RefConfig {
                    banked_ports: bits & 1 == 0,
                    chain_fu: bits & 2 == 0,
                    chain_loads: bits & 4 == 0,
                    scalar_cache: (bits & 8 == 0).then(ScalarCacheCfg::default),
                    ..base
                }));
            }
        }
        for cfg in points {
            assert_eq!(MachineConfig::from_json(&cfg.to_json()), Ok(cfg));
            let mut compact = String::new();
            cfg.write_compact(&mut compact);
            assert_eq!(decode(&compact), Ok(cfg), "{compact}");
        }
    }

    /// Both decoders of a machine config on one line, checked equal.
    fn decode(line: &str) -> Result<MachineConfig, String> {
        let mut p = Parser::new(line);
        let typed = MachineConfig::read_json(&mut p)
            .and_then(|r| p.end().map(|()| r))
            .unwrap_or_else(|e| Err(e.to_string()));
        let tree = Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| MachineConfig::from_json(&v));
        assert_eq!(typed, tree, "{line}");
        typed
    }

    #[test]
    fn a_missing_field_takes_the_machines_default() {
        // `LatencyModel::default()` is the REF table: each machine's
        // latencies come from its own `Default`, not the latency
        // model's.
        let ooo = |cfg: &str| decode(&format!(r#"{{"machine": "ooo", "cfg": {cfg}}}"#));
        let rf = |cfg: &str| decode(&format!(r#"{{"machine": "ref", "cfg": {cfg}}}"#));
        assert_eq!(ooo("{}"), Ok(MachineConfig::Ooo(OooConfig::default())));
        assert_eq!(rf("{}"), Ok(MachineConfig::Ref(RefConfig::default())));
        let Ok(MachineConfig::Ooo(c)) = ooo(r#"{"phys_v_regs": 32}"#) else {
            panic!("an OOOVA config")
        };
        assert_eq!((c.lat, c.lat.vstartup), (LatencyModel::ooo(), 0));
        assert_eq!(c, OooConfig::default().with_phys_v_regs(32));
        let Ok(MachineConfig::Ref(c)) = rf(r#"{"chain_loads": true}"#) else {
            panic!("a REF config")
        };
        assert_eq!((c.lat, c.lat.vstartup), (LatencyModel::reference(), 1));
        // A partial latency table fills in from the machine's too.
        assert_eq!(
            ooo(r#"{"lat": {"memory": 100}}"#),
            Ok(MachineConfig::Ooo(
                OooConfig::default().with_memory_latency(100)
            ))
        );
        assert_eq!(
            rf(r#"{"lat": {"memory": 100}}"#),
            Ok(MachineConfig::Ref(
                RefConfig::default().with_memory_latency(100)
            ))
        );
        // A partial scalar cache fills in from the machine's cache.
        let Ok(MachineConfig::Ooo(c)) = ooo(r#"{"scalar_cache": {"hit_latency": 5}}"#) else {
            panic!("an OOOVA config")
        };
        let cache = ScalarCacheCfg {
            hit_latency: 5,
            ..ScalarCacheCfg::default()
        };
        assert_eq!(c.scalar_cache, Some(cache));
    }

    #[test]
    fn a_missing_scalar_cache_is_the_default_and_null_is_off() {
        let on = OooConfig::from_json(&ooo_with("scalar_cache", None)).unwrap();
        assert_eq!(on.scalar_cache, Some(ScalarCacheCfg::default()));
        let off = OooConfig::from_json(&ooo_with("scalar_cache", Some(Json::Null))).unwrap();
        assert_eq!(off.scalar_cache, None);
        let mut v = RefConfig::default().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "scalar_cache");
        }
        assert_eq!(RefConfig::from_json(&v), Ok(RefConfig::default()));
        let off = MachineConfig::Ref(RefConfig {
            scalar_cache: None,
            ..RefConfig::default()
        });
        let mut line = String::new();
        off.write_compact(&mut line);
        assert_eq!(line, r#"{"machine": "ref", "cfg": {"scalar_cache": null}}"#);
        assert_eq!(decode(&line), Ok(off));
    }

    #[test]
    fn unknown_keys_are_rejected_at_every_level() {
        for (line, error) in [
            (
                r#"{"machine": "ooo", "cfg": {}, "cgf": {}}"#,
                "machine config: unknown field `cgf`",
            ),
            (
                r#"{"machine": "ooo", "cfg": {"phys_v_reg": 32}}"#,
                "ooo config: unknown field `phys_v_reg`",
            ),
            (
                r#"{"machine": "ref", "cfg": {"lat": {"mem": 1}}}"#,
                "latency model: unknown field `mem`",
            ),
            (
                r#"{"cfg": {"scalar_cache": {"ways": 2}}, "machine": "ooo"}"#,
                "scalar cache: unknown field `ways`",
            ),
            // The machine's unknown key comes before its config's.
            (
                r#"{"machine": "ooo", "cfg": {"x": 1}, "y": 2}"#,
                "machine config: unknown field `y`",
            ),
            (
                r#"{"machine": "ooo", "cfg": {"lat": null}}"#,
                "latency model: not an object",
            ),
            (
                r#"{"machine": "ooo", "cfg": 7}"#,
                "ooo config: not an object",
            ),
        ] {
            assert_eq!(decode(line), Err(error.to_string()), "{line}");
        }
    }

    #[test]
    fn from_json_rejects_elim_without_late_commit() {
        let v = OooConfig {
            load_elim: LoadElimMode::Sle,
            ..OooConfig::default()
        }
        .to_json();
        let err = OooConfig::from_json(&v).unwrap_err();
        assert!(
            err.contains("load elimination requires late commit"),
            "{err}"
        );
    }

    #[test]
    fn fingerprints_are_stable_and_config_sensitive() {
        let a = MachineConfig::Ooo(OooConfig::default());
        let b = MachineConfig::Ooo(OooConfig::default().with_queue_slots(128));
        let c = MachineConfig::Ref(RefConfig::default());
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
