//! Machine parameter blocks for the two simulated implementations.
//!
//! Every config block serialises to and from [`oov_proto::Json`] (the
//! `oov-serve` wire protocol carries configurations by value) and
//! carries a stable 64-bit [fingerprint](MachineConfig::fingerprint).
//! The encoding feeds the `oov-serve` request fingerprint, which keys
//! its result cache and shard routing.

use std::hash::Hasher as _;

use oov_proto::{Fnv1a, Json};

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
    ///
    /// # Panics
    ///
    /// Panics if `n < 9`: with 8 architectural registers mapped at all
    /// times, at least one extra physical register is needed for the
    /// rename stage to make progress.
    #[must_use]
    pub fn with_phys_v_regs(mut self, n: usize) -> Self {
        assert!(n >= 9, "need at least 9 physical vector registers, got {n}");
        self.phys_v_regs = n;
        self
    }

    /// Sets the issue-queue depth (builder style).
    #[must_use]
    pub fn with_queue_slots(mut self, n: usize) -> Self {
        assert!(n >= 1, "queues need at least one slot");
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
}

impl ScalarCacheCfg {
    /// Encodes the cache parameters as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("size_bytes", self.size_bytes.into()),
            ("line_bytes", self.line_bytes.into()),
            ("hit_latency", self.hit_latency.into()),
        ])
    }

    /// Decodes the [`ScalarCacheCfg::to_json`] encoding, enforcing the
    /// bounds `ScalarCache::new` asserts (both sizes powers of two, at
    /// least one line) so a wire-supplied configuration can never
    /// panic the simulator.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, malformed or out-of-range
    /// field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("scalar cache: bad or missing field `{name}`"))
        };
        let cfg = ScalarCacheCfg {
            size_bytes: field("size_bytes")?,
            line_bytes: field("line_bytes")?,
            hit_latency: u32::try_from(field("hit_latency")?)
                .map_err(|_| "scalar cache: hit_latency out of range".to_string())?,
        };
        if !cfg.size_bytes.is_power_of_two() || !cfg.line_bytes.is_power_of_two() {
            return Err("scalar cache: sizes must be powers of two".into());
        }
        if cfg.size_bytes < cfg.line_bytes {
            return Err("scalar cache: smaller than one line".into());
        }
        Ok(cfg)
    }
}

fn cache_to_json(cache: &Option<ScalarCacheCfg>) -> Json {
    cache.as_ref().map_or(Json::Null, ScalarCacheCfg::to_json)
}

fn cache_from_json(v: Option<&Json>) -> Result<Option<ScalarCacheCfg>, String> {
    match v {
        None | Some(Json::Null) => Ok(None),
        Some(obj) => ScalarCacheCfg::from_json(obj).map(Some),
    }
}

impl RefConfig {
    /// Encodes the configuration as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lat", self.lat.to_json()),
            ("banked_ports", self.banked_ports.into()),
            ("chain_fu", self.chain_fu.into()),
            ("chain_loads", self.chain_loads.into()),
            ("scalar_cache", cache_to_json(&self.scalar_cache)),
        ])
    }

    /// Decodes the [`RefConfig::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let flag = |name: &str| {
            v.get(name)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("ref config: bad or missing field `{name}`"))
        };
        Ok(RefConfig {
            lat: LatencyModel::from_json(
                v.get("lat")
                    .ok_or_else(|| "ref config: missing `lat`".to_string())?,
            )?,
            banked_ports: flag("banked_ports")?,
            chain_fu: flag("chain_fu")?,
            chain_loads: flag("chain_loads")?,
            scalar_cache: cache_from_json(v.get("scalar_cache"))?,
        })
    }
}

impl OooConfig {
    /// Encodes the configuration as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lat", self.lat.to_json()),
            ("phys_v_regs", self.phys_v_regs.into()),
            ("phys_a_regs", self.phys_a_regs.into()),
            ("phys_s_regs", self.phys_s_regs.into()),
            ("phys_mask_regs", self.phys_mask_regs.into()),
            ("queue_slots", self.queue_slots.into()),
            ("rob_entries", self.rob_entries.into()),
            ("commit_width", self.commit_width.into()),
            ("btb_entries", self.btb_entries.into()),
            ("ras_depth", self.ras_depth.into()),
            ("commit", self.commit.name().into()),
            ("load_elim", self.load_elim.name().into()),
            ("scalar_cache", cache_to_json(&self.scalar_cache)),
        ])
    }

    /// Decodes the [`OooConfig::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field, or the
    /// structural-parameter validation that failed (the same bounds the
    /// builder methods assert).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("ooo config: bad or missing field `{name}`"))
        };
        let commit_name = v
            .get("commit")
            .and_then(Json::as_str)
            .ok_or_else(|| "ooo config: bad or missing field `commit`".to_string())?;
        let elim_name = v
            .get("load_elim")
            .and_then(Json::as_str)
            .ok_or_else(|| "ooo config: bad or missing field `load_elim`".to_string())?;
        let cfg = OooConfig {
            lat: LatencyModel::from_json(
                v.get("lat")
                    .ok_or_else(|| "ooo config: missing `lat`".to_string())?,
            )?,
            phys_v_regs: field("phys_v_regs")?,
            phys_a_regs: field("phys_a_regs")?,
            phys_s_regs: field("phys_s_regs")?,
            phys_mask_regs: field("phys_mask_regs")?,
            queue_slots: field("queue_slots")?,
            rob_entries: field("rob_entries")?,
            commit_width: field("commit_width")?,
            btb_entries: field("btb_entries")?,
            ras_depth: field("ras_depth")?,
            commit: CommitMode::from_name(commit_name)
                .ok_or_else(|| format!("ooo config: unknown commit mode `{commit_name}`"))?,
            load_elim: LoadElimMode::from_name(elim_name)
                .ok_or_else(|| format!("ooo config: unknown load-elim mode `{elim_name}`"))?,
            scalar_cache: cache_from_json(v.get("scalar_cache"))?,
        };
        if cfg.phys_v_regs < 9 || cfg.phys_a_regs < 9 || cfg.phys_s_regs < 9 {
            return Err(format!(
                "ooo config: each physical register file needs at least 9 registers \
                 (8 architectural mappings plus one in flight), got \
                 a={} s={} v={}",
                cfg.phys_a_regs, cfg.phys_s_regs, cfg.phys_v_regs
            ));
        }
        if cfg.queue_slots < 1 || cfg.rob_entries < 1 || cfg.commit_width < 1 {
            return Err("ooo config: queues, ROB and commit width need at least one slot".into());
        }
        if cfg.btb_entries < 1 {
            return Err("ooo config: the BTB needs at least one entry".into());
        }
        if cfg.load_elim != LoadElimMode::Off && cfg.commit != CommitMode::Late {
            return Err("ooo config: load elimination requires late commit".into());
        }
        Ok(cfg)
    }
}

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

    /// Decodes the [`MachineConfig::to_json`] encoding.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let kind = v
            .get("machine")
            .and_then(Json::as_str)
            .ok_or_else(|| "machine config: bad or missing field `machine`".to_string())?;
        let cfg = v
            .get("cfg")
            .ok_or_else(|| "machine config: missing field `cfg`".to_string())?;
        match kind {
            "ref" => RefConfig::from_json(cfg).map(MachineConfig::Ref),
            "ooo" => OooConfig::from_json(cfg).map(MachineConfig::Ooo),
            other => Err(format!("machine config: unknown machine `{other}`")),
        }
    }

    /// Stable 64-bit fingerprint of the configuration: FNV-1a over the
    /// raw bytes of the canonical JSON encoding, so it is identical
    /// across processes, platforms and toolchains (`str`'s `Hash` impl
    /// appends an unspecified suffix; `DefaultHasher` is seeded per
    /// process — neither is stable). `oov-serve` stores it beside each
    /// cached result and journal record; routing and cache lookup use
    /// the full-request fingerprint, which hashes this same encoding.
    /// The encoding streams straight into the hash, never into a
    /// `String`.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.to_json().encode_into(&mut h);
        h.finish()
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
    #[should_panic(expected = "at least 9")]
    fn too_few_phys_regs_rejected() {
        let _ = OooConfig::default().with_phys_v_regs(8);
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

    #[test]
    fn from_json_validates_structural_bounds() {
        let mut v = OooConfig::default().to_json();
        if let Json::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "phys_v_regs" {
                    *val = 4u64.into();
                }
            }
        }
        let err = OooConfig::from_json(&v).unwrap_err();
        assert!(err.contains("at least 9"), "{err}");
    }

    #[test]
    fn from_json_rejects_wire_reachable_panic_values() {
        // Each of these would assert/divide-by-zero inside the
        // simulator if it got past decode.
        let poison = |field: &str, value: Json| {
            let mut v = OooConfig::default().to_json();
            if let Json::Obj(pairs) = &mut v {
                for (k, val) in pairs.iter_mut() {
                    if k == field {
                        *val = value.clone();
                    }
                }
            }
            OooConfig::from_json(&v)
        };
        assert!(poison("btb_entries", 0u64.into()).is_err());
        assert!(poison("phys_a_regs", 4u64.into()).is_err());
        assert!(poison("phys_s_regs", 0u64.into()).is_err());
        assert!(poison(
            "scalar_cache",
            Json::obj(vec![
                ("size_bytes", 100u64.into()), // not a power of two
                ("line_bytes", 32u64.into()),
                ("hit_latency", 2u64.into()),
            ]),
        )
        .is_err());
        assert!(poison(
            "scalar_cache",
            Json::obj(vec![
                ("size_bytes", 16u64.into()), // smaller than one line
                ("line_bytes", 32u64.into()),
                ("hit_latency", 2u64.into()),
            ]),
        )
        .is_err());
    }

    #[test]
    fn from_json_rejects_elim_without_late_commit() {
        let mut v = OooConfig::default()
            .with_load_elim(LoadElimMode::Sle)
            .to_json();
        if let Json::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "commit" {
                    *val = "early".into();
                }
            }
        }
        assert!(OooConfig::from_json(&v).is_err());
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
