//! The daemon: acceptor, connection threads, supervised worker shards.
//!
//! Threading model (see the crate docs for the picture):
//!
//! * one **acceptor** thread owning the listening socket;
//! * one **connection** thread per client, which parses requests and
//!   routes each simulation point to a shard by the full request
//!   fingerprint — so identical requests always meet the same shard's
//!   result cache, while distinct points spread evenly even when the
//!   sweep varies only the program (routing by machine config alone
//!   starved shards whenever the config pool was small);
//! * N **worker shards**, each a thread owning a private
//!   result-cache `HashMap` (no locks on the hot path; the only shared
//!   state is the suite cache and a few atomic counters) and fed
//!   through an `mpsc` queue — plus one **supervisor** thread per
//!   shard that respawns the worker if it ever dies.
//!
//! # Failure handling
//!
//! Every job executes inside `catch_unwind`: a request that panics the
//! simulator is answered as a structured [`Response::Error`] and the
//! shard keeps serving (`shard.<n>.panics`). If a shard thread dies
//! anyway, its supervisor respawns it — re-seeded from the persistence
//! seed — bumping `shard.<n>.respawns` and flipping the
//! `shard.<n>.alive` gauge while the shard is down; the job queue
//! itself survives the crash (the receiver is owned by the
//! supervisor), so only the job executing at the moment of death is
//! lost. Admission control bounds each shard's queue: past
//! `max_queue_depth` a point is rejected with a retriable
//! [`Response::Overloaded`] instead of queueing without limit.
//! Requests may carry a `deadline_ms`; a job still queued when it
//! expires is answered [`Response::DeadlineExceeded`] without being
//! simulated. Oversized sweeps are rejected at decode time
//! ([`crate::proto::MAX_SWEEP_POINTS`]), and a connection that feeds
//! partial lines is cut once the line outgrows [`MAX_LINE_BYTES`] or
//! stalls past [`PARTIAL_LINE_TIMEOUT`] — a slowloris peer costs one
//! parked thread, never memory.
//!
//! # Shutdown
//!
//! `shutdown` (or [`ServerHandle::stop`]) stops accepting and starts a
//! **drain**: in-flight sweeps keep streaming rows until they finish
//! or the `drain_ms` budget expires, at which point the remaining rows
//! are answered as errors and workers fast-fail whatever is still
//! queued — the old abort-immediately behaviour, now only the
//! budget-exhausted fallback. Connection reads use a short timeout so
//! every idle thread observes the shutdown flag promptly.
//!
//! Replies travel back over a per-request `mpsc` channel; a sweep's
//! connection thread holds a reorder buffer so rows stream to the
//! client in request order no matter how the shards interleave.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oov_bench::machine_run_budgeted;
use oov_core::{AbortReason, RunBudget, SimArena};

use crate::cache::SuiteCache;
use crate::chaos::{ChaosConfig, JobFault};
use crate::journal::{self, JournalConfig, JournalCounters, JournalWriter};
use crate::persist::{self, CacheLine};
use crate::proto::{Request, Response, SimRequest, SimResult, StatsSnapshot};

/// How often parked connection threads re-check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(250);

/// Longest accepted request line. A peer that streams bytes without a
/// newline is cut here instead of growing the line buffer forever.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a *partial* request line may sit without progress before
/// the connection is closed (slowloris protection). Complete silence
/// between requests is fine; half a request is not.
pub const PARTIAL_LINE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default graceful-drain budget granted to in-flight work at
/// shutdown (`--drain-ms`).
pub const DEFAULT_DRAIN_MS: u64 = 2000;

/// Wire request kinds, indexed by [`kind_index`] — the per-kind
/// latency histograms are pre-fetched in this order so the hot path
/// never formats a metric name.
const REQUEST_KINDS: [&str; 6] = ["ping", "stats", "metrics", "shutdown", "sim", "sweep"];

fn kind_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Stats => 1,
        Request::Metrics => 2,
        Request::Shutdown => 3,
        Request::Sim { .. } => 4,
        Request::Sweep { .. } => 5,
    }
}

/// One simulation point in flight to a shard.
struct Job {
    req: SimRequest,
    /// `req.fingerprint()`, computed once at dispatch for routing and
    /// reused as the result-cache key.
    fp: u64,
    tag: usize,
    /// Absolute deadline derived from the request's `deadline_ms` at
    /// arrival; a job past it is answered without simulating.
    deadline: Option<Instant>,
    reply: mpsc::Sender<(usize, JobReply)>,
}

/// Receiving end of a dispatched batch's reply channel.
type ReplyRx = mpsc::Receiver<(usize, JobReply)>;

/// A worker's answer to one job. The result is boxed so the common
/// control variants stay pointer-sized on the reply channel.
enum JobReply {
    Done(Box<SimResult>),
    /// The job's execution panicked (real or injected); the shard
    /// survives and keeps serving.
    Failed(String),
    /// The job's deadline expired before execution.
    Deadline,
}

/// Shared server state: caches, the metrics registry (with pre-fetched
/// handles for every hot counter and histogram), fault-tolerance
/// config, and the shutdown/drain state.
struct Engine {
    suites: SuiteCache,
    metrics: oov_obs::Registry,
    result_hits: Arc<oov_obs::Counter>,
    result_misses: Arc<oov_obs::Counter>,
    result_evictions: Arc<oov_obs::Counter>,
    /// `shard.<n>.requests` — jobs executed (or answered from cache).
    per_shard: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.queue_depth` — jobs dispatched but not yet picked
    /// up; doubles as the admission-control level.
    queue_depth: Vec<Arc<oov_obs::Gauge>>,
    /// `shard.<n>.service_ns` — per-job service time (cache hits and
    /// simulated misses alike), in nanoseconds.
    service_time: Vec<Arc<oov_obs::Histogram>>,
    /// `shard.<n>.panics` — caught job panics plus shard-thread
    /// deaths.
    panics: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.respawns` — times the supervisor restarted a dead
    /// shard thread.
    respawns: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.sheds` — jobs rejected by admission control.
    sheds: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.alive` — 1 while the shard thread is running, 0
    /// between a death and its respawn.
    alive: Vec<Arc<oov_obs::Gauge>>,
    /// `server.deadline_drops` — jobs answered `deadline exceeded`.
    deadline_drops: Arc<oov_obs::Counter>,
    /// `server.cancelled_jobs` — simulations aborted mid-run by their
    /// budget (deadline, shutdown cancel, or the cycle cap).
    cancelled_jobs: Arc<oov_obs::Counter>,
    /// `cache.load_skipped` — malformed entries skipped (with a
    /// warning) while loading the dump, snapshot and journal.
    cache_load_skipped: Arc<oov_obs::Counter>,
    /// `journal.appended_records` — records durably appended to the
    /// write-ahead journal.
    journal_appended: Arc<oov_obs::Counter>,
    /// `journal.appended_bytes` — journal bytes written (pre-rotation).
    journal_appended_bytes: Arc<oov_obs::Counter>,
    /// `journal.rotations` — snapshot-and-truncate compactions.
    journal_rotations: Arc<oov_obs::Counter>,
    /// `journal.recovered_records` — records replayed from the journal
    /// at startup.
    journal_recovered: Arc<oov_obs::Counter>,
    /// `request.<kind>.latency_ns`, indexed by [`kind_index`].
    request_latency: Vec<Arc<oov_obs::Histogram>>,
    /// `server.inflight_requests` — requests currently being answered
    /// across all connections.
    inflight: Arc<oov_obs::Gauge>,
    /// Monotonic connection ids, feeding the chaos drop plan.
    conn_seq: AtomicU64,
    /// Per-shard admission cap, compared against the queue-depth
    /// gauges (`i64::MAX` = unbounded).
    max_queue_depth: i64,
    /// Drain budget granted to in-flight work at shutdown.
    drain_ms: u64,
    /// Hard simulated-cycle cap applied to every job's run budget
    /// (`--max-sim-cycles`); `None` leaves runs uncapped.
    max_sim_cycles: Option<u64>,
    /// Shared cancel flag threaded into every job's [`RunBudget`];
    /// flipped once the shutdown drain budget expires, so in-flight
    /// simulations abort cooperatively instead of running to
    /// completion into a closing server.
    cancel: Arc<AtomicBool>,
    /// Append-side of the write-ahead journal; empty when journaling
    /// is off. Set once at startup, read lock-free on the job path.
    journal_tx: OnceLock<mpsc::Sender<CacheLine>>,
    chaos: Option<ChaosConfig>,
    shutdown: AtomicBool,
    /// Set exactly once, when shutdown begins: the instant the drain
    /// budget expires.
    drain_deadline: Mutex<Option<Instant>>,
}

impl Engine {
    fn new(n_shards: usize, cfg: &ServeConfig) -> Self {
        let metrics = oov_obs::Registry::new();
        Engine {
            suites: SuiteCache::new(),
            result_hits: metrics.counter("cache.result_hits"),
            result_misses: metrics.counter("cache.result_misses"),
            result_evictions: metrics.counter("cache.result_evictions"),
            per_shard: (0..n_shards)
                .map(|s| metrics.counter(&format!("shard.{s}.requests")))
                .collect(),
            queue_depth: (0..n_shards)
                .map(|s| metrics.gauge(&format!("shard.{s}.queue_depth")))
                .collect(),
            service_time: (0..n_shards)
                .map(|s| metrics.histogram(&format!("shard.{s}.service_ns")))
                .collect(),
            panics: (0..n_shards)
                .map(|s| metrics.counter(&format!("shard.{s}.panics")))
                .collect(),
            respawns: (0..n_shards)
                .map(|s| metrics.counter(&format!("shard.{s}.respawns")))
                .collect(),
            sheds: (0..n_shards)
                .map(|s| metrics.counter(&format!("shard.{s}.sheds")))
                .collect(),
            alive: (0..n_shards)
                .map(|s| {
                    let g = metrics.gauge(&format!("shard.{s}.alive"));
                    g.set(1);
                    g
                })
                .collect(),
            deadline_drops: metrics.counter("server.deadline_drops"),
            cancelled_jobs: metrics.counter("server.cancelled_jobs"),
            cache_load_skipped: metrics.counter("cache.load_skipped"),
            journal_appended: metrics.counter("journal.appended_records"),
            journal_appended_bytes: metrics.counter("journal.appended_bytes"),
            journal_rotations: metrics.counter("journal.rotations"),
            journal_recovered: metrics.counter("journal.recovered_records"),
            request_latency: REQUEST_KINDS
                .iter()
                .map(|kind| metrics.histogram(&format!("request.{kind}.latency_ns")))
                .collect(),
            inflight: metrics.gauge("server.inflight_requests"),
            conn_seq: AtomicU64::new(0),
            max_queue_depth: cfg
                .max_queue_depth
                .map_or(i64::MAX, |n| i64::try_from(n.max(1)).unwrap_or(i64::MAX)),
            drain_ms: cfg.drain_ms,
            max_sim_cycles: cfg.max_sim_cycles,
            cancel: Arc::new(AtomicBool::new(false)),
            journal_tx: OnceLock::new(),
            chaos: cfg.chaos,
            metrics,
            shutdown: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
        }
    }

    /// Flags shutdown and starts the drain clock (first caller wins,
    /// so concurrent `shutdown` requests share one deadline). The
    /// first caller also arms the cancel timer: once the drain budget
    /// expires, the shared cancel flag flips and every in-flight
    /// simulation aborts at its next budget check instead of running
    /// to completion into a closing server.
    fn begin_shutdown(&self) {
        let mut deadline = self
            .drain_deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if deadline.is_none() {
            *deadline = Some(Instant::now() + Duration::from_millis(self.drain_ms));
            let cancel = Arc::clone(&self.cancel);
            let drain = Duration::from_millis(self.drain_ms);
            // Detached on purpose: nothing joins it, and it holds only
            // the flag — it cannot outlive-reference the engine.
            let _ = std::thread::Builder::new()
                .name("oov-cancel-timer".to_string())
                .spawn(move || {
                    std::thread::sleep(drain);
                    cancel.store(true, Ordering::Release);
                });
        }
        drop(deadline);
        self.shutdown.store(true, Ordering::Release);
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Time left in the drain budget: `None` before shutdown, a
    /// (possibly zero) duration after it.
    fn drain_remaining(&self) -> Option<Duration> {
        if !self.is_shutting_down() {
            return None;
        }
        let deadline = self
            .drain_deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        // `begin_shutdown` always sets the deadline before the flag,
        // but `ServerHandle` may be mid-store; treat "flag up, no
        // deadline yet" as a fresh full budget.
        Some(match *deadline {
            Some(d) => d.saturating_duration_since(Instant::now()),
            None => Duration::from_millis(self.drain_ms),
        })
    }

    /// True once shutdown began *and* the drain budget is spent —
    /// workers fast-fail queued jobs from here on.
    fn drain_expired(&self) -> bool {
        matches!(self.drain_remaining(), Some(d) if d.is_zero())
    }

    fn snapshot(&self) -> StatsSnapshot {
        let per_shard_requests: Vec<u64> = self.per_shard.iter().map(|c| c.get()).collect();
        let requests: u64 = per_shard_requests.iter().sum();
        let shard_balance = if requests == 0 {
            0.0
        } else {
            let min = per_shard_requests.iter().copied().min().unwrap_or(0);
            let mean = requests as f64 / per_shard_requests.len() as f64;
            min as f64 / mean
        };
        let (suite_compiles_smoke, suite_compiles_paper) = self.suites.compiles();
        StatsSnapshot {
            requests,
            result_hits: self.result_hits.get(),
            result_misses: self.result_misses.get(),
            result_evictions: self.result_evictions.get(),
            suite_requests: self.suites.requests(),
            suite_compiles_smoke,
            suite_compiles_paper,
            per_shard_requests,
            shard_balance,
            panics: self.panics.iter().map(|c| c.get()).sum(),
            respawns: self.respawns.iter().map(|c| c.get()).sum(),
            sheds: self.sheds.iter().map(|c| c.get()).sum(),
            deadline_drops: self.deadline_drops.get(),
            cancelled_jobs: self.cancelled_jobs.get(),
            cache_load_skipped: self.cache_load_skipped.get(),
            journal_records: self.journal_appended.get(),
            journal_rotations: self.journal_rotations.get(),
            journal_recovered: self.journal_recovered.get(),
            shards_alive: self.alive.iter().map(|g| g.get() != 0).collect(),
        }
    }
}

/// Nanoseconds since `start`, saturating (a histogram sample is u64).
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Result-cache configuration for [`Server::start_with`]: persistence
/// plus the per-shard size bound.
#[derive(Debug, Default, Clone)]
pub struct PersistOptions {
    /// Seed the shard result caches from this dump at startup.
    pub load: Option<PathBuf>,
    /// Write every shard's result cache to this path at shutdown.
    pub dump: Option<PathBuf>,
    /// Maximum result-cache entries **per shard** (`--cache-entries`).
    /// `None` (the default) keeps the caches unbounded; with a cap,
    /// the least-recently-used entry is evicted on overflow, so
    /// persistence dumps and long loadgen runs cannot grow without
    /// limit.
    pub max_entries: Option<usize>,
    /// Write-ahead journal path (`--journal`). Every cache insert is
    /// appended (batched, checksummed, fsynced) so a crash loses at
    /// most the final in-flight batch; startup replays
    /// `<journal>.snapshot` plus the journal tail on top of `load`.
    pub journal: Option<PathBuf>,
    /// Journal rotation threshold in bytes (`--journal-max-bytes`);
    /// past it the writer snapshots the full state and truncates the
    /// journal. `None` uses
    /// [`journal::DEFAULT_JOURNAL_MAX_BYTES`].
    pub journal_max_bytes: Option<u64>,
}

/// Full server configuration for [`Server::start_cfg`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Result-cache persistence and size bound.
    pub persist: PersistOptions,
    /// Per-shard admission cap: a point routed to a shard whose queue
    /// is at least this deep is rejected with
    /// [`Response::Overloaded`] instead of queueing. `None` keeps the
    /// queues unbounded (the admission check still runs but never
    /// trips).
    pub max_queue_depth: Option<usize>,
    /// Graceful-drain budget at shutdown, in milliseconds: in-flight
    /// sweeps may keep streaming this long before remaining rows are
    /// aborted.
    pub drain_ms: u64,
    /// Hard simulated-cycle cap per job (`--max-sim-cycles`): a run
    /// whose cycle clock crosses it aborts with a structured error
    /// instead of simulating a pathological config forever. `None`
    /// (the default) leaves runs uncapped.
    pub max_sim_cycles: Option<u64>,
    /// Deterministic fault injection (`--chaos`); `None` in
    /// production.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            persist: PersistOptions::default(),
            max_queue_depth: None,
            drain_ms: DEFAULT_DRAIN_MS,
            max_sim_cycles: None,
            chaos: None,
        }
    }
}

/// Sentinel slot index for "no neighbour".
const NO_SLOT: usize = usize::MAX;

/// A shard's private result cache with an optional LRU cap.
///
/// Recency is an intrusive doubly-linked list threaded through a slot
/// vector (`prev`/`next` indices), with a `HashMap` from request
/// fingerprint to slot: lookup, touch-to-front, insert and
/// evict-the-tail are all O(1) — the previous implementation's O(n)
/// minimum scan per insert is gone, so large `--cache-entries` caps no
/// longer tax every miss.
struct ShardCache {
    map: HashMap<u64, usize>,
    slots: Vec<ShardCacheEntry>,
    /// Recycled slot indices from evictions.
    free: Vec<usize>,
    /// Most-recently-used slot (`NO_SLOT` when empty).
    head: usize,
    /// Least-recently-used slot (`NO_SLOT` when empty) — the eviction
    /// victim.
    tail: usize,
    /// `usize::MAX` when unbounded.
    cap: usize,
}

struct ShardCacheEntry {
    key: u64,
    machine_fp: u64,
    result: SimResult,
    prev: usize,
    next: usize,
}

impl ShardCache {
    fn new(cap: Option<usize>) -> Self {
        ShardCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NO_SLOT,
            tail: NO_SLOT,
            // A zero cap would make every insert evict itself; treat
            // it as "cache one entry".
            cap: cap.unwrap_or(usize::MAX).max(1),
        }
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NO_SLOT => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NO_SLOT => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links `slot` at the most-recently-used end.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NO_SLOT;
        self.slots[slot].next = self.head;
        match self.head {
            NO_SLOT => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    /// Looks up `key`, moving it to the recency front on a hit.
    fn get(&mut self, key: u64) -> Option<&SimResult> {
        let slot = *self.map.get(&key)?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.slots[slot].result)
    }

    /// Inserts `key`, evicting the least-recently-used entry when at
    /// the cap. Returns `true` if an entry was evicted.
    fn insert(&mut self, key: u64, machine_fp: u64, result: SimResult) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            // Overwrite in place and touch.
            self.slots[slot].machine_fp = machine_fp;
            self.slots[slot].result = result;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return false;
        }
        let evicted = if self.map.len() >= self.cap {
            let victim = self.tail;
            debug_assert_ne!(victim, NO_SLOT, "cap >= 1 and map at cap");
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
            true
        } else {
            false
        };
        let entry = ShardCacheEntry {
            key,
            machine_fp,
            result,
            prev: NO_SLOT,
            next: NO_SLOT,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    fn into_lines(self) -> Vec<CacheLine> {
        // Walk the recency list so only live slots are emitted (the
        // free list may hold stale evicted entries).
        let mut lines = Vec::with_capacity(self.map.len());
        let mut slot = self.head;
        while slot != NO_SLOT {
            let e = &self.slots[slot];
            lines.push(CacheLine {
                key: e.key,
                machine_fp: e.machine_fp,
                result: e.result.clone(),
            });
            slot = e.next;
        }
        lines
    }
}

/// Server configuration and entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor plus `n_shards` supervised worker shards, with no
    /// cache persistence and default fault-tolerance settings.
    ///
    /// # Errors
    ///
    /// Propagates socket and thread-spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn start(addr: &str, n_shards: usize) -> io::Result<ServerHandle> {
        Self::start_cfg(addr, n_shards, ServeConfig::default())
    }

    /// As [`Server::start`], optionally seeding the shard result
    /// caches from a dump and/or dumping them at shutdown. Entries
    /// are re-routed by request fingerprint at load, so a dump taken
    /// with one shard count loads correctly into any other.
    ///
    /// # Errors
    ///
    /// Propagates socket and thread-spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn start_with(
        addr: &str,
        n_shards: usize,
        persist_opts: PersistOptions,
    ) -> io::Result<ServerHandle> {
        Self::start_cfg(
            addr,
            n_shards,
            ServeConfig {
                persist: persist_opts,
                ..ServeConfig::default()
            },
        )
    }

    /// The full-configuration entry point: persistence, admission
    /// caps, drain budget and chaos injection.
    ///
    /// A missing or unloadable `persist.load` file (including a dump
    /// from a build with an older `SimStats` schema) starts the server
    /// **cold** with a warning instead of refusing to start — losing
    /// a cache must never take the service down.
    ///
    /// # Errors
    ///
    /// Propagates socket and thread-spawn failures.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn start_cfg(addr: &str, n_shards: usize, cfg: ServeConfig) -> io::Result<ServerHandle> {
        assert!(n_shards > 0, "need at least one shard");
        if cfg.chaos.is_some() {
            install_quiet_shard_panic_hook();
        }
        // Recover persistent state in layers, each overriding the one
        // below: the `--cache-load` seed, then the journal's snapshot
        // (what compaction last parked), then the journal tail (every
        // insert since). Keyed by request fingerprint, so a key that
        // appears in several layers resolves to its newest result.
        let mut state: HashMap<u64, CacheLine> = HashMap::new();
        let mut load_skipped = 0u64;
        if let Some(path) = &cfg.persist.load {
            match persist::load(path) {
                Ok((entries, skipped)) => {
                    load_skipped += skipped;
                    for entry in entries {
                        state.insert(entry.key, entry);
                    }
                }
                Err(e) => {
                    eprintln!("oov-serve: cache load failed ({e}); starting cold");
                }
            }
        }
        let mut journal_intact_bytes = 0u64;
        let mut journal_recovered = 0u64;
        if let Some(jpath) = &cfg.persist.journal {
            let snap = journal::snapshot_path(jpath);
            if snap.exists() {
                match persist::load(&snap) {
                    Ok((entries, skipped)) => {
                        load_skipped += skipped;
                        for entry in entries {
                            state.insert(entry.key, entry);
                        }
                    }
                    Err(e) => {
                        eprintln!("oov-serve: journal snapshot load failed ({e}); skipping it");
                    }
                }
            }
            let rec = journal::recover(jpath);
            journal_intact_bytes = rec.intact_bytes;
            journal_recovered = rec.entries.len() as u64;
            load_skipped += rec.skipped;
            for entry in rec.entries {
                state.insert(entry.key, entry);
            }
        }
        let mut seeds: Vec<Vec<CacheLine>> = (0..n_shards).map(|_| Vec::new()).collect();
        for mut entry in state.values().cloned() {
            // Same routing as `dispatch`: the full request
            // fingerprint, so live lookups find the seeds.
            let shard = (entry.key % n_shards as u64) as usize;
            entry.result.shard = shard;
            seeds[shard].push(entry);
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let engine = Arc::new(Engine::new(n_shards, &cfg));
        engine.cache_load_skipped.add(load_skipped);
        engine.journal_recovered.add(journal_recovered);
        let journal_writer = match &cfg.persist.journal {
            Some(jpath) => {
                let jcfg = JournalConfig {
                    path: jpath.clone(),
                    max_bytes: cfg
                        .persist
                        .journal_max_bytes
                        .unwrap_or(journal::DEFAULT_JOURNAL_MAX_BYTES),
                };
                let counters = JournalCounters {
                    appended_records: Arc::clone(&engine.journal_appended),
                    appended_bytes: Arc::clone(&engine.journal_appended_bytes),
                    rotations: Arc::clone(&engine.journal_rotations),
                };
                match JournalWriter::start(jcfg, state, journal_intact_bytes, counters) {
                    Ok(writer) => {
                        let _ = engine.journal_tx.set(writer.sender());
                        Some(writer)
                    }
                    Err(e) => {
                        // Like an unloadable dump: losing durability
                        // must not take the service down.
                        eprintln!("oov-serve: {e}; journaling disabled");
                        None
                    }
                }
            }
            None => None,
        };

        let mut senders = Vec::with_capacity(n_shards);
        let mut supervisors = Vec::with_capacity(n_shards);
        let max_entries = cfg.persist.max_entries;
        for (shard, seed) in seeds.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            // The supervisor owns the receiver (behind a mutex the
            // worker holds while alive), so queued jobs survive a
            // worker crash and the respawned incarnation resumes the
            // same queue.
            let rx = Arc::new(Mutex::new(rx));
            let seed = Arc::new(seed);
            let engine = Arc::clone(&engine);
            supervisors.push(
                std::thread::Builder::new()
                    .name(format!("oov-sup-{shard}"))
                    .spawn(move || supervise(shard, &seed, max_entries, &rx, &engine))?,
            );
        }

        let acceptor_engine = Arc::clone(&engine);
        let acceptor = std::thread::Builder::new()
            .name("oov-acceptor".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if acceptor_engine.is_shutting_down() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shards = senders.clone();
                    let engine = Arc::clone(&acceptor_engine);
                    let _ = std::thread::Builder::new()
                        .name("oov-conn".to_string())
                        .spawn(move || {
                            let _ = handle_connection(stream, &shards, &engine, local_addr);
                        });
                }
                // Dropping `senders` lets the shard workers drain and
                // exit once the connection threads are gone too.
            })?;

        Ok(ServerHandle {
            local_addr,
            acceptor,
            workers: supervisors,
            engine,
            dump: cfg.persist.dump,
            journal: journal_writer,
        })
    }
}

/// A running server: address plus the handles needed to stop it.
pub struct ServerHandle {
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<Vec<CacheLine>>>,
    engine: Arc<Engine>,
    dump: Option<PathBuf>,
    journal: Option<JournalWriter>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server counters, taken in-process.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        self.engine.snapshot()
    }

    /// Requests shutdown (starting the drain clock) and joins every
    /// server thread.
    pub fn stop(self) {
        self.engine.begin_shutdown();
        // Wake the acceptor out of `incoming()`.
        let _ = TcpStream::connect(self.local_addr);
        self.join();
    }

    /// Joins every server thread; returns once the server has shut
    /// down (via [`ServerHandle::stop`] or a client's `shutdown`
    /// request). If the server was started with a dump path, every
    /// shard's result cache is written there before returning; a
    /// shard whose supervisor died is warned about by id and counted
    /// in the dump summary as lost.
    pub fn join(self) {
        let _ = self.acceptor.join();
        // Connection threads exit within `READ_POLL` of the flag; the
        // workers exit once the last job sender (acceptor + connection
        // threads) is gone. Drop our engine reference first so no
        // sender can outlive the join below.
        drop(self.engine);
        let mut entries: Vec<CacheLine> = Vec::new();
        let mut shards_lost = 0usize;
        for (shard, w) in self.workers.into_iter().enumerate() {
            match w.join() {
                Ok(shard_entries) => entries.extend(shard_entries),
                Err(_) => {
                    shards_lost += 1;
                    eprintln!(
                        "oov-serve: shard {shard} supervisor died; \
                         its result cache is lost"
                    );
                }
            }
        }
        let mut dumped = false;
        if let Some(path) = &self.dump {
            // Deterministic file order regardless of shard count.
            entries.sort_by_key(|e| e.key);
            if let Err(e) = persist::save(path, &entries) {
                eprintln!("oov-serve: cache dump failed: {e}");
            } else {
                dumped = true;
                eprintln!(
                    "oov-serve: dumped {} cached results to {} ({shards_lost} shards lost)",
                    entries.len(),
                    path.display()
                );
            }
        } else if shards_lost > 0 {
            eprintln!("oov-serve: {shards_lost} shard caches lost at shutdown");
        }
        if let Some(writer) = self.journal {
            // Every sender is gone by now (the engine reference above
            // was the last), so the writer drains and exits. After a
            // successful dump the journal's contents are redundant —
            // truncate so the next start replays only the dump. With
            // no dump (or a failed one) the journal stays: it IS the
            // durable state.
            writer.finish(dumped);
        }
    }
}

/// Under chaos, injected panics on shard threads are routine; chain a
/// panic hook that keeps them off stderr (they are still counted and
/// answered as structured errors). Process-global and installed once:
/// after any chaos server has run in this process, shard-thread panic
/// *printing* stays off, but every panic is still caught, counted in
/// `shard.<n>.panics`, and reported to the client.
fn install_quiet_shard_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("oov-shard-"));
            if !quiet {
                prev(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Shard supervisor: spawns the worker thread and respawns it —
/// re-seeded from the persistence seed — whenever it dies. Returns the
/// final incarnation's cache lines once the job channel closes (clean
/// shutdown). The job queue lives in `rx`, owned here, so a crash
/// loses only the job that was executing.
fn supervise(
    shard: usize,
    seed: &Arc<Vec<CacheLine>>,
    max_entries: Option<usize>,
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    engine: &Arc<Engine>,
) -> Vec<CacheLine> {
    loop {
        let worker_seed = Arc::clone(seed);
        let worker_rx = Arc::clone(rx);
        let worker_engine = Arc::clone(engine);
        let spawned = std::thread::Builder::new()
            .name(format!("oov-shard-{shard}"))
            .spawn(move || worker(shard, &worker_seed, max_entries, &worker_rx, &worker_engine));
        let handle = match spawned {
            Ok(h) => h,
            Err(e) => {
                eprintln!("oov-serve: shard {shard}: worker spawn failed: {e}");
                engine.alive[shard].set(0);
                return Vec::new();
            }
        };
        engine.alive[shard].set(1);
        match handle.join() {
            Ok(lines) => return lines,
            Err(_) => {
                // The worker died outside the job-level catch_unwind.
                engine.alive[shard].set(0);
                engine.panics[shard].inc();
                if engine.is_shutting_down() {
                    eprintln!("oov-serve: shard {shard} died during shutdown; its cache is lost");
                    return Vec::new();
                }
                engine.respawns[shard].inc();
                eprintln!(
                    "oov-serve: shard {shard} died; respawning \
                     (accumulated cache lost, re-seeding {} persisted lines)",
                    seed.len()
                );
            }
        }
    }
}

/// Shard main loop: execute (or answer from cache) one request at a
/// time. The cache is private to the shard — the fingerprint router
/// guarantees no other shard ever sees the same request — and is
/// returned when the job channel closes, so shutdown can persist it
/// without any locking on the hot path. With a `max_entries` cap, the
/// cache evicts its least-recently-used entry on overflow. Each job's
/// service time (hit or simulated miss) lands in the shard's
/// `service_ns` histogram.
///
/// Job execution runs inside `catch_unwind`: a panicking request is
/// answered [`JobReply::Failed`] and the loop continues. Chaos faults
/// are injected here ([`ChaosConfig::job_fault`]): soft panics inside
/// the catch region, hard panics outside it (killing this thread so
/// the supervisor respawns it), and service delays before the job.
fn worker(
    shard: usize,
    seed: &[CacheLine],
    max_entries: Option<usize>,
    rx: &Mutex<mpsc::Receiver<Job>>,
    engine: &Engine,
) -> Vec<CacheLine> {
    // A previous incarnation may have died holding the lock; the
    // queue itself is still intact, so clear the poison and resume.
    let rx = rx.lock().unwrap_or_else(|p| p.into_inner());
    let mut cache = ShardCache::new(max_entries);
    // One simulation arena per shard: every cache miss this worker
    // executes reuses the same allocation footprint, so a miss pays
    // simulation only — no per-request simulator construction.
    let mut arena = SimArena::new();
    for e in seed.iter().cloned() {
        // Seeding through the same entry point applies the cap to an
        // oversized dump too (later lines win, matching file order).
        if cache.insert(e.key, e.machine_fp, e.result) {
            engine.result_evictions.inc();
        }
    }
    // Jobs dequeued by *this incarnation* — the chaos plan's sequence
    // number, restarting (deterministically) after a respawn.
    let mut jobs_seen: u64 = 0;
    while let Ok(job) = rx.recv() {
        engine.queue_depth[shard].dec();
        engine.per_shard[shard].inc();
        let fault = match &engine.chaos {
            Some(plan) => {
                let f = plan.job_fault(shard, jobs_seen);
                jobs_seen += 1;
                f
            }
            None => JobFault::None,
        };
        if fault == JobFault::HardPanic {
            // Outside the catch region on purpose: this kills the
            // worker thread so the supervisor's respawn path runs.
            // The job's reply sender drops unanswered; the connection
            // thread reports the job as lost.
            panic!("chaos: hard panic on shard {shard}");
        }
        if let JobFault::Delay(d) = fault {
            std::thread::sleep(d);
        }
        let started = Instant::now();
        let reply = run_job(shard, &job, fault, &mut cache, &mut arena, engine);
        engine.service_time[shard].record(elapsed_ns(started));
        // A dropped reply receiver just means the client went away.
        let _ = job.reply.send((job.tag, reply));
    }
    cache.into_lines()
}

/// Answers one job: deadline and drain checks, cache lookup, then
/// simulation inside `catch_unwind`.
fn run_job(
    shard: usize,
    job: &Job,
    fault: JobFault,
    cache: &mut ShardCache,
    arena: &mut SimArena,
    engine: &Engine,
) -> JobReply {
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            engine.deadline_drops.inc();
            return JobReply::Deadline;
        }
    }
    if engine.drain_expired() {
        // The drain budget ran out with this job still queued: answer
        // fast instead of simulating into a closing server.
        return JobReply::Failed("server is shutting down".into());
    }
    let fp = job.fp;
    if let Some(hit) = cache.get(fp) {
        engine.result_hits.inc();
        return JobReply::Done(Box::new(SimResult {
            cached: true,
            ..hit.clone()
        }));
    }
    engine.result_misses.inc();
    let req = job.req;
    // Cooperative budget: the engine polls these limits mid-run, so a
    // deadline expiring *during* simulation aborts the run instead of
    // completing it uselessly, shutdown's cancel flag stops in-flight
    // work once the drain budget is spent, and the optional cycle cap
    // contains pathological configs. All-`None` budgets are dropped at
    // attach, so an uncapped job pays nothing.
    let mut budget = RunBudget::unlimited().with_cancel(Arc::clone(&engine.cancel));
    if let Some(cap) = engine.max_sim_cycles {
        budget = budget.with_max_cycles(cap);
    }
    if let Some(deadline) = job.deadline {
        budget = budget.with_deadline(deadline);
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if fault == JobFault::Panic {
            panic!("chaos: injected worker panic");
        }
        let suite = engine.suites.get(req.scale);
        machine_run_budgeted(
            suite.get(req.program),
            &req.machine,
            req.stepper,
            req.fault_at,
            arena,
            budget,
        )
    }));
    match outcome {
        Ok(Ok(out)) => {
            let r = SimResult {
                stats: out.stats,
                ideal_cycles: out.ideal_cycles,
                faults_taken: out.faults_taken,
                cached: false,
                shard,
            };
            let machine_fp = req.machine.fingerprint();
            if cache.insert(fp, machine_fp, r.clone()) {
                engine.result_evictions.inc();
            }
            // Write-ahead append: one non-blocking send to the journal
            // writer; durability happens off the job path.
            if let Some(tx) = engine.journal_tx.get() {
                let _ = tx.send(CacheLine {
                    key: fp,
                    machine_fp,
                    result: r.clone(),
                });
            }
            JobReply::Done(Box::new(r))
        }
        Ok(Err(aborted)) => {
            engine.cancelled_jobs.inc();
            match aborted.reason {
                AbortReason::DeadlineExpired => {
                    engine.deadline_drops.inc();
                    JobReply::Deadline
                }
                AbortReason::Cancelled => {
                    JobReply::Failed("cancelled: server is shutting down".into())
                }
                AbortReason::CycleCapExceeded | AbortReason::FuelExhausted => {
                    JobReply::Failed(format!("simulation {aborted}"))
                }
            }
        }
        Err(payload) => {
            engine.panics[shard].inc();
            // The arena may hold a half-built simulator; rebuild it
            // rather than reuse possibly-inconsistent storage.
            *arena = SimArena::new();
            JobReply::Failed(format!(
                "job panicked on shard {shard}: {}",
                panic_message(payload.as_ref())
            ))
        }
    }
}

/// Why a point was rejected at dispatch.
enum Shed {
    /// Admission control: the target shard's queue is over the cap.
    Overloaded { retry_after_ms: u64 },
    /// The shard's job channel is gone (only during shutdown).
    Closed,
}

/// Routes every point to its shard and returns the shared reply
/// receiver plus the points that were **not** dispatched: shed by
/// admission control (queue over `max_queue_depth`) or refused because
/// the shard channel closed under shutdown. Routing hashes the full
/// request fingerprint, so identical requests meet the same shard's
/// cache while distinct points spread evenly.
fn dispatch(
    shards: &[mpsc::Sender<Job>],
    engine: &Engine,
    points: &[SimRequest],
    deadline: Option<Instant>,
) -> (ReplyRx, Vec<(usize, Shed)>) {
    let (tx, rx) = mpsc::channel();
    let mut shed = Vec::new();
    for (tag, req) in points.iter().enumerate() {
        let fp = req.fingerprint();
        let shard = (fp % shards.len() as u64) as usize;
        let depth = engine.queue_depth[shard].get();
        if depth >= engine.max_queue_depth {
            engine.sheds[shard].inc();
            // Suggest a backoff proportional to the backlog: deeper
            // queue, longer wait (bounded so clients retry within a
            // human-scale window).
            let retry_after_ms = (u64::try_from(depth).unwrap_or(0) / 4).clamp(5, 250);
            shed.push((tag, Shed::Overloaded { retry_after_ms }));
            continue;
        }
        // Raise the depth before the send so the worker's matching
        // `dec` can never observe the gauge below zero.
        engine.queue_depth[shard].inc();
        let sent = shards[shard].send(Job {
            req: *req,
            fp,
            tag,
            deadline,
            reply: tx.clone(),
        });
        if sent.is_err() {
            engine.queue_depth[shard].dec();
            shed.push((tag, Shed::Closed));
        }
    }
    (rx, shed)
}

fn write_response(writer: &mut TcpStream, resp: &Response) -> io::Result<()> {
    writeln!(writer, "{}", resp.encode())?;
    writer.flush()
}

/// Per-connection loop: parse a line, answer it, repeat until EOF,
/// transport error, oversized or stalled partial line, or server
/// shutdown.
fn handle_connection(
    stream: TcpStream,
    shards: &[mpsc::Sender<Job>],
    engine: &Engine,
    listen_addr: SocketAddr,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    // One small response per request: Nagle + the peer's delayed ACK
    // would add ~40 ms to every round trip.
    stream.set_nodelay(true)?;
    let conn_id = engine.conn_seq.fetch_add(1, Ordering::Relaxed);
    let mut requests_read: u64 = 0;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        // Poll for a full line; `read_line` keeps partial data in
        // `line` across timeouts, so retrying without clearing is
        // lossless. A partial line that outgrows `MAX_LINE_BYTES` or
        // stalls past `PARTIAL_LINE_TIMEOUT` closes the connection —
        // a slowloris peer cannot hold memory or block shutdown.
        let mut partial_since: Option<Instant> = None;
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()), // EOF
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if engine.is_shutting_down() {
                        return Ok(());
                    }
                    if line.len() > MAX_LINE_BYTES {
                        let _ = write_response(
                            &mut writer,
                            &Response::Error {
                                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                            },
                        );
                        return Ok(());
                    }
                    if line.is_empty() {
                        partial_since = None;
                    } else {
                        let since = *partial_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > PARTIAL_LINE_TIMEOUT {
                            let _ = write_response(
                                &mut writer,
                                &Response::Error {
                                    message: "partial request line timed out".into(),
                                },
                            );
                            return Ok(());
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        // Chaos: drop the connection right after reading a request —
        // the client sees an unanswered send and must retry elsewhere.
        let dropped = engine
            .chaos
            .as_ref()
            .is_some_and(|plan| plan.drop_connection(conn_id, requests_read));
        requests_read += 1;
        if dropped {
            return Ok(());
        }
        let req = match Request::decode(text) {
            Err(message) => {
                write_response(&mut writer, &Response::Error { message })?;
                continue;
            }
            Ok(req) => req,
        };
        // Time every request end-to-end (decode done → response
        // flushed) into a per-type latency histogram, with an
        // in-flight gauge spanning the same window. The histogram
        // handles are pre-fetched per kind — no name formatting or
        // registry lookup on this path.
        let latency = &engine.request_latency[kind_index(&req)];
        let started = Instant::now();
        engine.inflight.inc();
        let answered = answer(req, &mut writer, shards, engine, listen_addr);
        engine.inflight.dec();
        latency.record(elapsed_ns(started));
        if !answered? {
            return Ok(());
        }
    }
}

/// Maps one shed cause to the response for a single `sim` request.
fn shed_response(cause: &Shed) -> Response {
    match cause {
        Shed::Overloaded { retry_after_ms } => Response::Overloaded {
            retry_after_ms: *retry_after_ms,
        },
        Shed::Closed => Response::Error {
            message: "server is shutting down".into(),
        },
    }
}

/// Maps one job reply to the response for a single `sim` request.
fn sim_response(reply: JobReply) -> Response {
    match reply {
        JobReply::Done(result) => Response::Result(*result),
        JobReply::Failed(message) => Response::Error { message },
        JobReply::Deadline => Response::DeadlineExceeded,
    }
}

/// Answers one decoded request. Returns `Ok(false)` when the
/// connection should close (a `shutdown` request).
fn answer(
    req: Request,
    writer: &mut TcpStream,
    shards: &[mpsc::Sender<Job>],
    engine: &Engine,
    listen_addr: SocketAddr,
) -> io::Result<bool> {
    match req {
        Request::Ping => write_response(writer, &Response::Pong)?,
        Request::Stats => {
            write_response(writer, &Response::Stats(engine.snapshot()))?;
        }
        Request::Metrics => {
            write_response(
                writer,
                &Response::Metrics {
                    snapshot: engine.metrics.snapshot(),
                },
            )?;
        }
        Request::Shutdown => {
            engine.begin_shutdown();
            write_response(writer, &Response::ShuttingDown)?;
            // Wake the acceptor so it observes the flag.
            let _ = TcpStream::connect(listen_addr);
            return Ok(false);
        }
        Request::Sim { req, deadline_ms } => {
            let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            let (rx, shed) = dispatch(shards, engine, std::slice::from_ref(&req), deadline);
            let resp = if let Some((_, cause)) = shed.first() {
                shed_response(cause)
            } else {
                match rx.recv() {
                    Ok((_, reply)) => sim_response(reply),
                    // The worker died mid-job (its reply sender
                    // dropped unanswered). Retriable: the respawned
                    // shard will simulate it fresh.
                    Err(_) => Response::Error {
                        message: "job lost (worker died); retry".into(),
                    },
                }
            };
            write_response(writer, &resp)?;
        }
        Request::Sweep {
            points,
            deadline_ms,
        } => {
            let n = points.len();
            let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            let (rx, shed) = dispatch(shards, engine, &points, deadline);
            // Reorder buffer: rows stream to the client in request
            // order. Shed points are pre-filled as error rows.
            let mut buf: Vec<Option<Result<SimResult, String>>> = vec![None; n];
            let mut filled = 0;
            for (tag, cause) in shed {
                buf[tag] = Some(Err(match cause {
                    Shed::Overloaded { retry_after_ms } => {
                        format!("overloaded; retry after {retry_after_ms} ms")
                    }
                    Shed::Closed => "server is shutting down".into(),
                }));
                filled += 1;
            }
            let mut next = 0;
            while filled < n {
                // Under shutdown, in-flight sweeps get the remaining
                // drain budget; past it, unanswered rows abort below.
                let wait = match engine.drain_remaining() {
                    Some(remaining) if remaining.is_zero() => break,
                    Some(remaining) => remaining.min(READ_POLL),
                    None => READ_POLL,
                };
                match rx.recv_timeout(wait) {
                    Ok((tag, reply)) => {
                        buf[tag] = Some(match reply {
                            JobReply::Done(result) => Ok(*result),
                            JobReply::Failed(message) => Err(message),
                            JobReply::Deadline => Err("deadline exceeded".into()),
                        });
                        filled += 1;
                        // Stream the completed prefix in request order.
                        next = stream_rows(writer, &mut buf, next)?;
                    }
                    // Keep waiting; the next loop re-checks the drain.
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    // Every outstanding job's reply sender is gone
                    // (worker died with no other jobs queued): the
                    // missing rows are lost, not late.
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            // Whatever never arrived — lost jobs or a spent drain
            // budget — is answered as an explicit error row, so the
            // client always sees exactly `n` rows before `sweep_done`.
            for slot in buf.iter_mut() {
                if slot.is_none() {
                    *slot = Some(Err("sweep aborted (shutdown or lost worker)".into()));
                }
            }
            stream_rows(writer, &mut buf, next)?;
            write_response(writer, &Response::SweepDone { count: n })?;
        }
    }
    Ok(true)
}

/// Streams the filled prefix of the reorder buffer starting at `next`;
/// returns the new `next`.
fn stream_rows(
    writer: &mut TcpStream,
    buf: &mut [Option<Result<SimResult, String>>],
    mut next: usize,
) -> io::Result<usize> {
    while next < buf.len() {
        let Some(row) = buf[next].take() else {
            break;
        };
        match row {
            Ok(result) => write_response(
                writer,
                &Response::SweepRow {
                    index: next,
                    result,
                },
            )?,
            Err(message) => write_response(
                writer,
                &Response::SweepRowError {
                    index: next,
                    message,
                },
            )?,
        }
        next += 1;
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_stats::SimStats;

    fn result(tag: u64) -> SimResult {
        SimResult {
            stats: SimStats {
                cycles: tag,
                ..SimStats::new()
            },
            ideal_cycles: 0,
            faults_taken: 0,
            cached: false,
            shard: 0,
        }
    }

    fn keys_mru_to_lru(c: &ShardCache) -> Vec<u64> {
        let mut out = Vec::new();
        let mut slot = c.head;
        while slot != NO_SLOT {
            out.push(c.slots[slot].key);
            slot = c.slots[slot].next;
        }
        out
    }

    #[test]
    fn lru_evicts_least_recently_used_in_order() {
        let mut c = ShardCache::new(Some(2));
        assert!(!c.insert(1, 10, result(1)));
        assert!(!c.insert(2, 20, result(2)));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(1).unwrap().stats.cycles, 1);
        assert!(c.insert(3, 30, result(3)), "must evict at the cap");
        assert!(c.get(2).is_none(), "2 was the LRU entry");
        assert_eq!(keys_mru_to_lru(&c), vec![3, 1]);
        // Evicted slot is recycled, list stays consistent.
        assert!(c.insert(4, 40, result(4)));
        assert_eq!(keys_mru_to_lru(&c), vec![4, 3]);
        assert_eq!(c.slots.len(), 2, "slots are recycled, not grown");
    }

    #[test]
    fn lru_overwrite_touches_without_evicting() {
        let mut c = ShardCache::new(Some(2));
        c.insert(1, 10, result(1));
        c.insert(2, 20, result(2));
        assert!(!c.insert(1, 11, result(100)), "overwrite never evicts");
        assert_eq!(c.get(1).unwrap().stats.cycles, 100);
        assert_eq!(keys_mru_to_lru(&c), vec![1, 2]);
        let mut lines = c.into_lines();
        lines.sort_by_key(|l| l.key);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].machine_fp, 11);
    }

    #[test]
    fn lru_unbounded_and_single_entry_caps() {
        let mut c = ShardCache::new(None);
        for k in 0..64 {
            assert!(!c.insert(k, k, result(k)));
        }
        assert_eq!(c.into_lines().len(), 64);
        // A zero cap behaves as "cache one entry".
        let mut one = ShardCache::new(Some(0));
        assert!(!one.insert(1, 1, result(1)));
        assert!(one.insert(2, 2, result(2)));
        assert!(one.get(1).is_none());
        assert_eq!(one.get(2).unwrap().stats.cycles, 2);
    }

    #[test]
    fn drain_budget_expires_after_shutdown() {
        let engine = Engine::new(
            1,
            &ServeConfig {
                drain_ms: 0,
                ..ServeConfig::default()
            },
        );
        assert!(
            engine.drain_remaining().is_none(),
            "no drain before shutdown"
        );
        assert!(!engine.drain_expired());
        engine.begin_shutdown();
        assert!(engine.is_shutting_down());
        assert!(engine.drain_expired(), "zero budget expires immediately");

        let engine = Engine::new(1, &ServeConfig::default());
        engine.begin_shutdown();
        let remaining = engine.drain_remaining().expect("drain running");
        assert!(!remaining.is_zero(), "default budget grants time");
        assert!(!engine.drain_expired());
    }
}
