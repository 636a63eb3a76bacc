//! The daemon: acceptor, connection threads, one shared result cache,
//! a supervised worker pool.
//!
//! Threading model (see the crate docs for the picture):
//!
//! * one **acceptor** thread owning the listening socket;
//! * one **connection** thread per client, which parses requests,
//!   fingerprints each simulation point once and looks it up in the
//!   shared result cache **before** any dispatch. A cached point is
//!   answered on the spot, so a hit never waits behind a simulation —
//!   the out-of-order lesson of the paper applied to the daemon. Only
//!   misses go on to the workers;
//! * the result cache is split into N **cache stripes** (stripe
//!   `fp % N`), each a mutex over an O(1) LRU of result counters, the
//!   set of fingerprints currently being simulated, and the
//!   `shard.<n>.{requests, service_ns, queue_depth, sheds}` metrics. A
//!   lock is held for one lookup or one insert, never across a
//!   simulation or an encode;
//! * N **pool workers** pulling misses from one `mpsc` queue (the
//!   receiver sits behind a mutex taken per `recv`, so an idle worker
//!   picks up the next miss whatever its stripe) — plus one
//!   **supervisor** thread per worker that respawns it if it ever
//!   dies.
//!
//! # Single flight
//!
//! A miss marks its fingerprint pending in its stripe before it is
//! queued. A request for a point that is already pending does not
//! queue a second simulation: it waits on the first (the *leader*) and
//! is answered `cached: true`, as a hit, when the leader's result
//! lands. The pending entry never outlives its job: if the leader ends
//! without a result — deadline, cancel, panic, or a worker killed
//! mid-job — dropping the job clears the entry and hands the
//! waiters back to the queue, where one of them becomes the new leader.
//! No waiter inherits the leader's error. A waiter's own `deadline_ms`
//! is checked only if it is handed back this way: while it waits, the
//! leader's simulation is already under way.
//!
//! # Failure handling
//!
//! Every job executes inside `catch_unwind`: a request that panics the
//! simulator is answered as a structured [`Response::Error`] and the
//! worker keeps serving (`shard.<n>.panics`, per worker index). If a
//! worker thread dies anyway, its supervisor respawns it, bumping
//! `shard.<n>.respawns` and flipping the `shard.<n>.alive` gauge while
//! the worker is down. The queue survives the crash (the receiver is
//! shared by the pool), so only the job executing at the moment of
//! death is lost, and the cache lives in the stripes, so no cached
//! result is lost with it. Admission control bounds each stripe's
//! share of the queue: past `max_queue_depth` a miss is rejected with
//! a retriable [`Response::Overloaded`] instead of queueing without
//! limit.
//! Requests may carry a `deadline_ms`; a job still queued when it
//! expires is answered [`Response::DeadlineExceeded`] without being
//! simulated. Oversized sweeps are rejected at decode time
//! ([`crate::proto::MAX_SWEEP_POINTS`]), and a connection is cut once
//! its request line outgrows [`MAX_LINE_BYTES`] (every read is capped,
//! so this holds whether or not the peer pauses) or a partial line
//! stalls past [`PARTIAL_LINE_TIMEOUT`] — a flooding or slowloris peer
//! costs one parked thread, never memory.
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
//! # Results are counters
//!
//! A result is kept as its counters ([`RunOutcome`]: the stats, the
//! ideal bound and the traps taken, 296 bytes), never as its encoding,
//! the way the OOOVA's reorder buffer holds register names and never
//! their values. The worker that simulated a miss puts them in one
//! `Arc`, which the stripe's LRU entry and the journal writer's state
//! share. The connection thread encodes each reply from them as it
//! writes it ([`proto::write_reply`]), into one reused line buffer
//! sent with one `write_all`; with the typed request decode and
//! fingerprint ([`crate::proto`]), a warm hit builds no `Json` value
//! and allocates nothing.
//!
//! A `sim` whose point is ready is answered straight from the lookup
//! (`Engine::lookup`), with no reply channel. A `sim` that has to
//! wait, and every point of a sweep, is answered over a per-request
//! `mpsc` channel as `(tag, reply)`. A sweep's connection thread holds
//! a reorder buffer so rows stream to the client in request order no
//! matter how the workers interleave.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oov_bench::{machine_run_budgeted, RunOutcome};
use oov_core::{AbortReason, RunBudget, SimArena};
use oov_proto::FrameStop;

use crate::cache::SuiteCache;
use crate::chaos::{ChaosConfig, JobFault};
use crate::journal::{self, CacheLine, JournalConfig, JournalWriter, Record};
use crate::proto::{self, Request, Response, SimRequest, StatsSnapshot};

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
const REQUEST_KINDS: [&str; 5] = ["ping", "metrics", "shutdown", "sim", "sweep"];

fn kind_index(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Metrics => 1,
        Request::Shutdown => 2,
        Request::Sim { .. } => 3,
        Request::Sweep { .. } => 4,
    }
}

/// Where one point's answer goes: its index in the dispatched batch,
/// the batch's reply channel, and the batch's deadline.
struct ReplyTo {
    tag: usize,
    /// Absolute deadline derived from the request's `deadline_ms` at
    /// arrival; a job past it is answered without simulating.
    deadline: Option<Instant>,
    tx: mpsc::Sender<(usize, JobReply)>,
}

impl ReplyTo {
    fn send(&self, reply: JobReply) {
        // A dropped reply receiver just means the client went away.
        let _ = self.tx.send((self.tag, reply));
    }
}

/// One cache miss in flight to the worker pool: the *leader* for its
/// fingerprint, which its stripe holds pending from dispatch until the
/// job settles.
///
/// Dropping an unsettled job — an error reply, a job still queued when
/// the queue is torn down, or a worker killed mid-job by a panic
/// outside `catch_unwind` — clears the pending entry and hands its
/// waiters back to the queue ([`Engine::abandon`]).
struct Job {
    req: SimRequest,
    /// `req.fingerprint()`, computed once at dispatch; the cache key.
    fp: u64,
    /// `fp % stripes`: whose LRU, pending set and metrics this job
    /// uses.
    stripe: usize,
    to: ReplyTo,
    /// Set once the result is in the stripe and the waiters answered.
    settled: bool,
    engine: Arc<Engine>,
    /// The pool's queue, for handing waiters back.
    queue: mpsc::Sender<Job>,
}

impl Drop for Job {
    fn drop(&mut self) {
        if !self.settled {
            self.engine.abandon(self);
        }
    }
}

/// Receiving end of a dispatched batch's reply channel.
type ReplyRx = mpsc::Receiver<(usize, JobReply)>;

/// A result ready to write: the reply's `cached` and `shard` fields,
/// and the result's counters, shared with the cache.
struct Answer {
    cached: bool,
    shard: usize,
    run: Arc<RunOutcome>,
}

/// The answer to one job, waiter or sweep hit, sent over the batch's
/// reply channel. Results arrive as `Done`, which carries the shared
/// counters rather than a `SimResult`: the connection thread encodes
/// them as it writes the reply.
enum JobReply {
    /// A result: `cached: false` for the job's own simulation, `true`
    /// for a hit or a waiter.
    Done(Answer),
    /// The job's execution panicked (real or injected) or was
    /// aborted; the worker survives and keeps serving.
    Failed(String),
    /// The job's deadline expired before execution.
    Deadline,
}

/// Shared server state: the striped result cache, the suite cache,
/// the metrics registry (with pre-fetched handles for every hot
/// counter and histogram), fault-tolerance config, and the
/// shutdown/drain state. The registry is the one source of every
/// counter: `stats` is a view over its snapshot
/// ([`StatsSnapshot::from_metrics`]).
struct Engine {
    /// The result cache, one stripe per `--shards`, indexed by
    /// `fp % stripes.len()`.
    stripes: Vec<Mutex<Stripe>>,
    suites: SuiteCache,
    metrics: oov_obs::Registry,
    result_hits: Arc<oov_obs::Counter>,
    result_misses: Arc<oov_obs::Counter>,
    result_evictions: Arc<oov_obs::Counter>,
    /// `shard.<n>.requests` — points of stripe `n` answered from the
    /// cache or picked up by a worker.
    per_shard: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.queue_depth` — stripe `n`'s jobs queued but not yet
    /// picked up; doubles as the admission-control level.
    queue_depth: Vec<Arc<oov_obs::Gauge>>,
    /// `shard.<n>.service_ns` — stripe `n`'s service time in
    /// nanoseconds: the stripe lookup for a hit (the request's
    /// fingerprint is taken before it), the simulation for a miss.
    service_time: Vec<Arc<oov_obs::Histogram>>,
    /// `shard.<n>.panics` — caught job panics plus thread deaths of
    /// pool worker `n`.
    panics: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.respawns` — times the supervisor restarted dead pool
    /// worker `n`.
    respawns: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.sheds` — stripe `n`'s misses rejected by admission
    /// control.
    sheds: Vec<Arc<oov_obs::Counter>>,
    /// `shard.<n>.alive` — 1 while pool worker `n` is running, 0
    /// between a death and its respawn.
    alive: Vec<Arc<oov_obs::Gauge>>,
    /// `server.deadline_drops` — jobs answered `deadline exceeded`.
    deadline_drops: Arc<oov_obs::Counter>,
    /// `server.cancelled_jobs` — simulations aborted mid-run by their
    /// budget (deadline, shutdown cancel, or the cycle cap).
    cancelled_jobs: Arc<oov_obs::Counter>,
    /// `request.<kind>.latency_ns`, indexed by [`kind_index`].
    request_latency: Vec<Arc<oov_obs::Histogram>>,
    /// `server.inflight_requests` — requests currently being answered
    /// across all connections.
    inflight: Arc<oov_obs::Gauge>,
    /// Monotonic connection ids, feeding the chaos drop plan.
    conn_seq: AtomicU64,
    /// Per-stripe admission cap, compared against the queue-depth
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
    journal_tx: OnceLock<mpsc::Sender<Record>>,
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
            stripes: (0..n_shards)
                .map(|_| Mutex::new(Stripe::new(cfg.persist.max_entries)))
                .collect(),
            suites: SuiteCache::new(&metrics),
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

    /// Locks stripe `n`. No stripe update can panic halfway (they are
    /// index moves and map inserts), so a poisoned lock still guards
    /// valid data and is taken over — and the job drop guard, which
    /// locks stripes while a worker unwinds, must not panic.
    fn stripe(&self, n: usize) -> MutexGuard<'_, Stripe> {
        self.stripes[n].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Counts a hit on `stripe`: `cache.result_hits`, the stripe's
    /// requests, and the time since `since` as stripe service.
    fn count_hit(&self, stripe: usize, since: Instant) {
        self.result_hits.inc();
        self.per_shard[stripe].inc();
        self.service_time[stripe].record(elapsed_ns(since));
    }

    /// Fingerprints `req` and looks it up in its stripe, locked once.
    /// A ready result is counted as a hit and returned; otherwise the
    /// stripe stays locked, so that the caller can wait on the point's
    /// leader or queue it ([`Unready::wait_or_queue`]) with no other
    /// request in between.
    fn lookup(&self, req: &SimRequest) -> Result<Answer, Unready<'_>> {
        let fp = req.fingerprint();
        // Stamped after the fingerprint, so a hit's service time is the
        // stripe lookup alone and the codec work stays out of it.
        let looked_up = Instant::now();
        let n = (fp % self.stripes.len() as u64) as usize;
        let mut stripe = self.stripe(n);
        if let Some(run) = stripe.lru.get(fp) {
            let run = Arc::clone(run);
            drop(stripe);
            self.count_hit(n, looked_up);
            return Ok(Answer {
                cached: true,
                shard: n,
                run,
            });
        }
        Err(Unready { fp, n, stripe })
    }

    /// Lands a leader's result `run`: inserts it into the job's
    /// stripe, clears the pending entry and answers every waiter as a
    /// hit.
    fn settle(&self, job: &mut Job, run: &Arc<RunOutcome>) {
        let since = Instant::now();
        let mut stripe = self.stripe(job.stripe);
        let waiters = stripe.pending.remove(&job.fp).unwrap_or_default();
        let evicted = stripe.lru.insert(job.fp, Arc::clone(run));
        drop(stripe);
        job.settled = true;
        if evicted {
            self.result_evictions.inc();
        }
        for to in &waiters {
            self.count_hit(job.stripe, since);
            to.send(JobReply::Done(Answer {
                cached: true,
                shard: job.stripe,
                run: Arc::clone(run),
            }));
        }
    }

    /// The drop guard of an unsettled `job`: clears its pending entry,
    /// or — if requests are waiting on it — promotes the first waiter
    /// to a fresh job on the queue, the rest still waiting on that one.
    fn abandon(&self, job: &Job) {
        let next = {
            let mut stripe = self.stripe(job.stripe);
            match stripe.pending.remove(&job.fp) {
                Some(mut waiters) if !waiters.is_empty() => {
                    let leader = waiters.remove(0);
                    stripe.pending.insert(job.fp, waiters);
                    Some(leader)
                }
                _ => None,
            }
        };
        let Some(to) = next else { return };
        self.queue_depth[job.stripe].inc();
        let fresh = Job {
            req: job.req,
            fp: job.fp,
            stripe: job.stripe,
            to,
            settled: false,
            engine: Arc::clone(&job.engine),
            queue: job.queue.clone(),
        };
        if let Err(mpsc::SendError(fresh)) = job.queue.send(fresh) {
            // The pool is gone: dropping `fresh` abandons it in turn,
            // so every waiter's reply channel closes ("job lost").
            self.queue_depth[job.stripe].dec();
            drop(fresh);
        }
    }

    /// Replays journal `jpath`'s snapshot and then its tail in one
    /// pass, folding each record, in replay order, into the stripe
    /// [`Engine::lookup`] looks its key up in and into the journal
    /// writer's state, a later record for a key replacing the earlier.
    /// Seeding in replay order keeps the newest records under a cache
    /// cap. Returns that state, which shares the stored counters, and
    /// the journal's intact length. A torn snapshot yields its intact
    /// prefix: losing a cache must never take the service down. A file
    /// that could not be read yields the records before the failure
    /// and `None`: the run must not truncate, append to or compact
    /// over a file whose rest it never saw.
    fn recover(&self, jpath: &Path) -> Option<(HashMap<u64, Record>, u64)> {
        let mut state = HashMap::new();
        let mut fold = |line: CacheLine| {
            // The counters hold no shard, so they are valid on any
            // stripe and the shard count may change across restarts.
            let n = (line.key % self.stripes.len() as u64) as usize;
            let record = Record::of(line);
            // Seeding through the same entry point applies the cap to
            // an oversized recovery state too.
            let evicted = self
                .stripe(n)
                .lru
                .insert(record.key, Arc::clone(&record.run));
            if evicted {
                self.result_evictions.inc();
            }
            state.insert(record.key, record);
        };
        let snap = journal::recover(&journal::snapshot_path(jpath), &mut fold);
        let tail = journal::recover(jpath, &mut fold);
        self.metrics
            .counter("journal.recovered_records")
            .add(tail.recovered);
        self.metrics
            .counter("cache.load_skipped")
            .add(snap.skipped + tail.skipped);
        let unread = |r: &journal::Recovery| matches!(r.stop, FrameStop::ReadError(_));
        (!unread(&snap) && !unread(&tail)).then_some((state, tail.intact_bytes))
    }
}

/// Nanoseconds since `start`, saturating (a histogram sample is u64).
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Result-cache configuration ([`ServeConfig::persist`]): the
/// write-ahead journal plus the per-stripe size bound.
#[derive(Debug, Default, Clone)]
pub struct PersistOptions {
    /// Maximum result-cache entries **per cache stripe**
    /// (`--cache-entries`).
    /// `None` (the default) keeps the caches unbounded; with a cap,
    /// the least-recently-used entry is evicted on overflow, so a
    /// long-running daemon cannot grow without limit.
    pub max_entries: Option<usize>,
    /// Write-ahead journal path (`--journal`), the only persistence:
    /// a crash loses at most the final in-flight batch, a graceful
    /// shutdown compacts into `<journal>.snapshot` (the same framed
    /// records, key-sorted, replaced whole), and startup replays the
    /// snapshot and then the journal tail through one reader.
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
    /// Per-stripe admission cap: a miss whose cache stripe already
    /// has at least this many jobs queued is rejected with
    /// [`Response::Overloaded`] instead of queueing. `None` keeps the
    /// queue unbounded (the admission check still runs but never
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

/// One stripe of the result cache: the ready results for fingerprints
/// `≡ n (mod stripes)`, as their counters, and the fingerprints being
/// simulated right now.
struct Stripe {
    lru: Lru,
    /// Fingerprints with a leader job in flight, each with the
    /// requests waiting on it (single flight).
    pending: HashMap<u64, Vec<ReplyTo>>,
}

impl Stripe {
    fn new(cap: Option<usize>) -> Self {
        Stripe {
            lru: Lru::new(cap),
            pending: HashMap::new(),
        }
    }
}

/// A stripe's ready results, with an optional LRU cap. An entry holds
/// the result's counters, shared with the journal writer; a hit
/// encodes its reply from them.
///
/// Recency is an intrusive doubly-linked list threaded through a slot
/// vector (`prev`/`next` indices), with a `HashMap` from request
/// fingerprint to slot: lookup, touch-to-front, insert and
/// evict-the-tail are all O(1), so large `--cache-entries` caps do not
/// tax every miss.
struct Lru {
    map: HashMap<u64, usize>,
    slots: Vec<LruEntry>,
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

struct LruEntry {
    key: u64,
    run: Arc<RunOutcome>,
    prev: usize,
    next: usize,
}

impl Lru {
    fn new(cap: Option<usize>) -> Self {
        Lru {
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
    fn get(&mut self, key: u64) -> Option<&Arc<RunOutcome>> {
        let slot = *self.map.get(&key)?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.slots[slot].run)
    }

    /// Inserts `key`, evicting the least-recently-used entry when at
    /// the cap. Returns `true` if an entry was evicted.
    fn insert(&mut self, key: u64, run: Arc<RunOutcome>) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            // Overwrite in place and touch.
            self.slots[slot].run = run;
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
        let entry = LruEntry {
            key,
            run,
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
}

/// Server configuration and entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor, `n_shards` cache stripes and a pool of `n_shards`
    /// supervised workers, with no cache persistence and default
    /// fault-tolerance settings.
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

    /// The full-configuration entry point: persistence, admission
    /// caps, drain budget and chaos injection.
    ///
    /// With a journal, the cache starts warm from its snapshot and
    /// tail; a journal or snapshot that cannot be opened or read only
    /// disables journaling, and what was read of it still serves.
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
            install_quiet_worker_panic_hook();
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let engine = Arc::new(Engine::new(n_shards, &cfg));
        let journal_writer = cfg.persist.journal.as_ref().and_then(|jpath| {
            let Some((state, intact_bytes)) = engine.recover(jpath) else {
                eprintln!(
                    "oov-serve: journal {}: unreadable; journaling disabled",
                    jpath.display()
                );
                return None;
            };
            let jcfg = JournalConfig {
                path: jpath.clone(),
                max_bytes: cfg
                    .persist
                    .journal_max_bytes
                    .unwrap_or(journal::DEFAULT_JOURNAL_MAX_BYTES),
            };
            match JournalWriter::start(jcfg, state, intact_bytes, &engine.metrics) {
                Ok(writer) => {
                    let _ = engine.journal_tx.set(writer.sender());
                    Some(writer)
                }
                Err(e) => {
                    // Losing durability must not take the service
                    // down.
                    eprintln!("oov-serve: {e}; journaling disabled");
                    None
                }
            }
        });

        // One queue for the whole pool. The receiver is shared by the
        // workers and their supervisors, so queued jobs survive a
        // worker crash and the respawned incarnation resumes the same
        // queue.
        let (queue, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut supervisors = Vec::with_capacity(n_shards);
        for w in 0..n_shards {
            let rx = Arc::clone(&rx);
            let engine = Arc::clone(&engine);
            supervisors.push(
                std::thread::Builder::new()
                    .name(format!("oov-sup-{w}"))
                    .spawn(move || supervise(w, &rx, &engine))?,
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
                    let queue = queue.clone();
                    let engine = Arc::clone(&acceptor_engine);
                    let _ = std::thread::Builder::new()
                        .name("oov-conn".to_string())
                        .spawn(move || {
                            let _ = handle_connection(stream, &queue, &engine, local_addr);
                        });
                }
                // Dropping `queue` lets the workers drain and exit once
                // the connection threads (and their jobs) are gone too.
            })?;

        Ok(ServerHandle {
            local_addr,
            acceptor,
            workers: supervisors,
            engine,
            journal: journal_writer,
        })
    }
}

/// A running server: address plus the handles needed to stop it.
pub struct ServerHandle {
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    engine: Arc<Engine>,
    journal: Option<JournalWriter>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server counters, taken in-process — the
    /// same view over the registry that [`crate::Client::stats`]
    /// computes from a `metrics` reply.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_metrics(&self.engine.metrics.snapshot())
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
    /// request), the journal (if any) compacted into its snapshot.
    pub fn join(self) {
        let ServerHandle {
            acceptor,
            workers,
            engine,
            journal,
            ..
        } = self;
        let _ = acceptor.join();
        // Connection threads exit within `READ_POLL` of the flag; the
        // workers exit once the last queue sender (acceptor,
        // connection threads and their jobs) is gone.
        for (w, handle) in workers.into_iter().enumerate() {
            if handle.join().is_err() {
                eprintln!("oov-serve: worker {w} supervisor died");
            }
        }
        // The engine holds a journal sender; the writer drains,
        // compacts and exits once that and every other clone are gone.
        drop(engine);
        if let Some(writer) = journal {
            writer.finish();
        }
    }
}

/// Under chaos, injected panics on pool workers are routine; chain a
/// panic hook that keeps them off stderr (they are still counted and
/// answered as structured errors). Process-global and installed once:
/// after any chaos server has run in this process, worker-thread panic
/// *printing* stays off, but every panic is still caught, counted in
/// `shard.<n>.panics`, and reported to the client.
fn install_quiet_worker_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("oov-worker-"));
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

/// Supervisor of pool worker `w`: spawns it and respawns it whenever
/// it dies; returns once the worker exits cleanly (the queue closed).
/// The queue and the cache outlive the thread, so a crash loses only
/// the job that was executing.
fn supervise(w: usize, queue: &Arc<Mutex<mpsc::Receiver<Job>>>, engine: &Arc<Engine>) {
    loop {
        let worker_queue = Arc::clone(queue);
        let worker_engine = Arc::clone(engine);
        let spawned = std::thread::Builder::new()
            .name(format!("oov-worker-{w}"))
            .spawn(move || worker(w, &worker_queue, &worker_engine));
        let handle = match spawned {
            Ok(h) => h,
            Err(e) => {
                eprintln!("oov-serve: worker {w}: spawn failed: {e}");
                engine.alive[w].set(0);
                return;
            }
        };
        engine.alive[w].set(1);
        if handle.join().is_ok() {
            return;
        }
        // The worker died outside the job-level catch_unwind.
        engine.alive[w].set(0);
        engine.panics[w].inc();
        if engine.is_shutting_down() {
            eprintln!("oov-serve: worker {w} died during shutdown");
            return;
        }
        engine.respawns[w].inc();
        eprintln!("oov-serve: worker {w} died; respawning");
    }
}

/// Pool worker main loop: take the next miss off the shared queue and
/// simulate it. The queue lock is held only while receiving, so idle
/// workers wait their turn at the queue and never behind a simulation.
/// Each job's service time lands in its stripe's `service_ns`
/// histogram.
///
/// Job execution runs inside `catch_unwind`: a panicking request is
/// answered [`JobReply::Failed`] and the loop continues. Chaos faults
/// are injected here ([`ChaosConfig::job_fault`], keyed by the worker
/// index): soft panics inside the catch region, hard panics outside it
/// (killing this thread so the supervisor respawns it), and service
/// delays before the job.
fn worker(w: usize, queue: &Mutex<mpsc::Receiver<Job>>, engine: &Engine) {
    // One simulation arena per worker: every miss this worker executes
    // reuses the same allocation footprint, so a miss pays simulation
    // only — no per-request simulator construction.
    let mut arena = SimArena::new();
    // Jobs dequeued by *this incarnation* — the chaos plan's sequence
    // number, restarting (deterministically) after a respawn.
    let mut jobs_seen: u64 = 0;
    loop {
        // A worker never panics while holding the lock, but clear a
        // poison anyway: the queue itself is intact.
        let next = queue.lock().unwrap_or_else(|p| p.into_inner()).recv();
        let Ok(mut job) = next else { return };
        let stripe = job.stripe;
        engine.queue_depth[stripe].dec();
        engine.per_shard[stripe].inc();
        let fault = match &engine.chaos {
            Some(plan) => {
                let f = plan.job_fault(w, jobs_seen);
                jobs_seen += 1;
                f
            }
            None => JobFault::None,
        };
        if fault == JobFault::HardPanic {
            // Outside the catch region on purpose: this kills the
            // worker thread so the supervisor's respawn path runs.
            // Unwinding drops the job unsettled: its reply sender
            // closes unanswered (the connection thread reports the job
            // as lost) and its waiters go back to the queue.
            panic!("chaos: hard panic on worker {w}");
        }
        if let JobFault::Delay(d) = fault {
            std::thread::sleep(d);
        }
        let started = Instant::now();
        let reply = run_job(w, &mut job, fault, &mut arena, engine);
        engine.service_time[stripe].record(elapsed_ns(started));
        job.to.send(reply);
    }
}

/// Answers one miss: deadline and drain checks, then simulation inside
/// `catch_unwind`; a result settles the job into its stripe.
fn run_job(
    w: usize,
    job: &mut Job,
    fault: JobFault,
    arena: &mut SimArena,
    engine: &Engine,
) -> JobReply {
    if let Some(deadline) = job.to.deadline {
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
    if let Some(deadline) = job.to.deadline {
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
            // The one copy of this result: the cache, the journal and
            // every reply share these counters.
            let run = Arc::new(out);
            engine.settle(job, &run);
            // Write-ahead append: one non-blocking send to the journal
            // writer; durability happens off the job path.
            if let Some(tx) = engine.journal_tx.get() {
                let _ = tx.send(Record {
                    key: job.fp,
                    machine_fp: req.machine.fingerprint(),
                    shard: job.stripe,
                    run: Arc::clone(&run),
                });
            }
            JobReply::Done(Answer {
                cached: false,
                shard: job.stripe,
                run,
            })
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
                AbortReason::CycleCapExceeded => JobReply::Failed(format!("simulation {aborted}")),
            }
        }
        Err(payload) => {
            engine.panics[w].inc();
            // The arena may hold a half-built simulator; rebuild it
            // rather than reuse possibly-inconsistent storage.
            *arena = SimArena::new();
            JobReply::Failed(format!(
                "job panicked on worker {w}: {}",
                panic_message(payload.as_ref())
            ))
        }
    }
}

/// Why a point was rejected at dispatch.
enum Shed {
    /// Admission control: the stripe's queued misses are over the cap.
    Overloaded { retry_after_ms: u64 },
    /// The pool's queue is gone (only during shutdown).
    Closed,
}

/// A point whose result is not ready, with its fingerprint, its stripe
/// index and that stripe's lock, held since [`Engine::lookup`].
struct Unready<'a> {
    fp: u64,
    n: usize,
    stripe: MutexGuard<'a, Stripe>,
}

impl Unready<'_> {
    /// Has `to` answered by the leader if another request is already
    /// simulating the point (single flight); otherwise marks it pending
    /// and queues `req` as its leader. Returns why the point was not
    /// dispatched: shed by admission control (stripe queue over
    /// `max_queue_depth`), or refused because the queue closed under
    /// shutdown.
    fn wait_or_queue(
        mut self,
        req: &SimRequest,
        to: ReplyTo,
        queue: &mpsc::Sender<Job>,
        engine: &Arc<Engine>,
    ) -> Result<(), Shed> {
        if let Some(waiters) = self.stripe.pending.get_mut(&self.fp) {
            waiters.push(to);
            return Ok(());
        }
        let n = self.n;
        let depth = engine.queue_depth[n].get();
        if depth >= engine.max_queue_depth {
            drop(self.stripe);
            engine.sheds[n].inc();
            // Suggest a backoff proportional to the backlog: deeper
            // queue, longer wait (bounded so clients retry within a
            // human-scale window).
            let retry_after_ms = (u64::try_from(depth).unwrap_or(0) / 4).clamp(5, 250);
            return Err(Shed::Overloaded { retry_after_ms });
        }
        self.stripe.pending.insert(self.fp, Vec::new());
        drop(self.stripe);
        // Raise the depth before the send so the worker's matching
        // `dec` can never observe the gauge below zero.
        engine.queue_depth[n].inc();
        let job = Job {
            req: *req,
            fp: self.fp,
            stripe: n,
            to,
            settled: false,
            engine: Arc::clone(engine),
            queue: queue.clone(),
        };
        if let Err(mpsc::SendError(job)) = queue.send(job) {
            engine.queue_depth[n].dec();
            // Dropping the unsent job clears its pending entry.
            drop(job);
            return Err(Shed::Closed);
        }
        Ok(())
    }
}

/// Answers or dispatches every point of a sweep and returns the shared
/// reply receiver plus the points that were **not** dispatched, with
/// why ([`Unready::wait_or_queue`]).
///
/// Each point is fingerprinted once and its stripe locked once
/// ([`Engine::lookup`]). A cached result is sent on the reply channel
/// here, on the connection thread; a point another request is already
/// simulating waits on that leader; only a point neither ready nor
/// pending is marked pending and queued.
fn dispatch(
    queue: &mpsc::Sender<Job>,
    engine: &Arc<Engine>,
    points: &[SimRequest],
    deadline: Option<Instant>,
) -> (ReplyRx, Vec<(usize, Shed)>) {
    let (tx, rx) = mpsc::channel();
    let mut shed = Vec::new();
    for (tag, req) in points.iter().enumerate() {
        let to = ReplyTo {
            tag,
            deadline,
            tx: tx.clone(),
        };
        match engine.lookup(req) {
            Ok(hit) => to.send(JobReply::Done(hit)),
            Err(unready) => {
                if let Err(cause) = unready.wait_or_queue(req, to, queue, engine) {
                    shed.push((tag, cause));
                }
            }
        }
    }
    (rx, shed)
}

/// A connection's write half and its one reused line buffer. Every
/// response goes out with a single `write_all`, body and newline
/// together, so a message is one TCP segment under `TCP_NODELAY`.
struct Replies {
    stream: TcpStream,
    line: String,
}

impl Replies {
    fn send(&mut self, fill: impl FnOnce(&mut String)) -> io::Result<()> {
        self.line.clear();
        fill(&mut self.line);
        self.line.push('\n');
        self.stream.write_all(self.line.as_bytes())
    }

    /// Writes `resp`, encoded.
    fn response(&mut self, resp: &Response) -> io::Result<()> {
        self.send(|line| resp.encode_into(line))
    }

    /// Writes a result reply (a sweep row when `index` is set),
    /// encoded from the result's counters.
    fn answer(&mut self, index: Option<usize>, a: &Answer) -> io::Result<()> {
        self.send(|line| proto::write_reply(line, index, a.cached, a.shard, &a.run))
    }
}

/// Per-connection loop: parse a line, answer it, repeat until EOF,
/// transport error, oversized or stalled partial line, or server
/// shutdown.
fn handle_connection(
    stream: TcpStream,
    queue: &mpsc::Sender<Job>,
    engine: &Arc<Engine>,
    listen_addr: SocketAddr,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    // One small response per request: Nagle + the peer's delayed ACK
    // would add ~40 ms to every round trip.
    stream.set_nodelay(true)?;
    let conn_id = engine.conn_seq.fetch_add(1, Ordering::Relaxed);
    let mut requests_read: u64 = 0;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = Replies {
        stream,
        line: String::with_capacity(1024),
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        // Poll for a full line. Every read is capped at what is left of
        // `MAX_LINE_BYTES + 1`, so the buffer stays bounded whether the
        // peer pauses or not, and `read_until` keeps partial data in
        // `line` across timeouts, so retrying without clearing is
        // lossless. A line that outgrows `MAX_LINE_BYTES`, or a partial
        // line that stalls past `PARTIAL_LINE_TIMEOUT`, closes the
        // connection: a flooding or slowloris peer cannot hold memory
        // or block shutdown.
        let mut partial_since: Option<Instant> = None;
        loop {
            let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut line) {
                Ok(0) => return Ok(()), // EOF
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if engine.is_shutting_down() {
                        return Ok(());
                    }
                    if line.is_empty() {
                        partial_since = None;
                    } else {
                        let since = *partial_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > PARTIAL_LINE_TIMEOUT {
                            let _ = writer.response(&Response::Error {
                                message: "partial request line timed out".into(),
                            });
                            return Ok(());
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // The cap was reached before a newline.
        if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") {
            let _ = writer.response(&Response::Error {
                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            });
            return Ok(());
        }
        let text = std::str::from_utf8(&line)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?
            .trim();
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
                writer.response(&Response::Error { message })?;
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
        let answered = answer(req, &mut writer, queue, engine, listen_addr);
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

/// Writes one job reply as the response to a single `sim` request.
fn write_sim_reply(writer: &mut Replies, reply: JobReply) -> io::Result<()> {
    match reply {
        JobReply::Done(answer) => writer.answer(None, &answer),
        JobReply::Failed(message) => writer.response(&Response::Error { message }),
        JobReply::Deadline => writer.response(&Response::DeadlineExceeded),
    }
}

/// Answers one `sim`: a ready point straight from the lookup, with no
/// reply channel; any other over a channel of its own, once its leader
/// or its own job settles.
fn answer_sim(
    writer: &mut Replies,
    queue: &mpsc::Sender<Job>,
    engine: &Arc<Engine>,
    req: &SimRequest,
    deadline: Option<Instant>,
) -> io::Result<()> {
    let unready = match engine.lookup(req) {
        Ok(hit) => return writer.answer(None, &hit),
        Err(unready) => unready,
    };
    let (tx, rx) = mpsc::channel();
    let to = ReplyTo {
        tag: 0,
        deadline,
        tx,
    };
    if let Err(cause) = unready.wait_or_queue(req, to, queue, engine) {
        return writer.response(&shed_response(&cause));
    }
    match rx.recv() {
        Ok((_, reply)) => write_sim_reply(writer, reply),
        // The worker died mid-job (its reply sender dropped
        // unanswered). Retriable: the respawned worker will simulate it
        // fresh.
        Err(_) => writer.response(&Response::Error {
            message: "job lost (worker died); retry".into(),
        }),
    }
}

/// Answers one decoded request. Returns `Ok(false)` when the
/// connection should close (a `shutdown` request).
fn answer(
    req: Request,
    writer: &mut Replies,
    queue: &mpsc::Sender<Job>,
    engine: &Arc<Engine>,
    listen_addr: SocketAddr,
) -> io::Result<bool> {
    match req {
        Request::Ping => writer.response(&Response::Pong)?,
        Request::Metrics => {
            writer.response(&Response::Metrics {
                snapshot: engine.metrics.snapshot(),
            })?;
        }
        Request::Shutdown => {
            engine.begin_shutdown();
            writer.response(&Response::ShuttingDown)?;
            // Wake the acceptor so it observes the flag.
            let _ = TcpStream::connect(listen_addr);
            return Ok(false);
        }
        Request::Sim { req, deadline_ms } => {
            let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            answer_sim(writer, queue, engine, &req, deadline)?;
        }
        Request::Sweep {
            points,
            deadline_ms,
        } => {
            let n = points.len();
            let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            let (rx, shed) = dispatch(queue, engine, &points, deadline);
            // Reorder buffer: rows stream to the client in request
            // order. Shed points are pre-filled as error rows.
            let mut buf: Vec<Option<Result<Answer, String>>> =
                std::iter::repeat_with(|| None).take(n).collect();
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
                            JobReply::Done(answer) => Ok(answer),
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
            writer.response(&Response::SweepDone { count: n })?;
        }
    }
    Ok(true)
}

/// Streams the filled prefix of the reorder buffer starting at `next`;
/// returns the new `next`.
fn stream_rows(
    writer: &mut Replies,
    buf: &mut [Option<Result<Answer, String>>],
    mut next: usize,
) -> io::Result<usize> {
    while next < buf.len() {
        let Some(row) = buf[next].take() else {
            break;
        };
        match row {
            Ok(answer) => writer.answer(Some(next), &answer)?,
            Err(message) => writer.response(&Response::SweepRowError {
                index: next,
                message,
            })?,
        }
        next += 1;
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_stats::SimStats;

    /// Stand-in counters that name their tag.
    fn run(tag: u64) -> Arc<RunOutcome> {
        Arc::new(RunOutcome {
            stats: SimStats::new(),
            ideal_cycles: tag,
            faults_taken: 0,
        })
    }

    /// The tag of the counters under `key`, touching it.
    fn tag(c: &mut Lru, key: u64) -> Option<u64> {
        c.get(key).map(|run| run.ideal_cycles)
    }

    fn keys_mru_to_lru(c: &Lru) -> Vec<u64> {
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
        let mut c = Lru::new(Some(2));
        assert!(!c.insert(1, run(1)));
        assert!(!c.insert(2, run(2)));
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(tag(&mut c, 1), Some(1));
        assert!(c.insert(3, run(3)), "must evict at the cap");
        assert!(c.get(2).is_none(), "2 was the LRU entry");
        assert_eq!(keys_mru_to_lru(&c), vec![3, 1]);
        // Evicted slot is recycled, list stays consistent.
        assert!(c.insert(4, run(4)));
        assert_eq!(keys_mru_to_lru(&c), vec![4, 3]);
        assert_eq!(c.slots.len(), 2, "slots are recycled, not grown");
    }

    #[test]
    fn lru_overwrite_touches_without_evicting() {
        let mut c = Lru::new(Some(2));
        c.insert(1, run(1));
        c.insert(2, run(2));
        assert!(!c.insert(1, run(100)), "overwrite never evicts");
        assert_eq!(tag(&mut c, 1), Some(100));
        assert_eq!(keys_mru_to_lru(&c), vec![1, 2]);
    }

    #[test]
    fn lru_unbounded_and_single_entry_caps() {
        let mut c = Lru::new(None);
        for k in 0..64 {
            assert!(!c.insert(k, run(k)));
        }
        assert_eq!(keys_mru_to_lru(&c).len(), 64);
        // A zero cap behaves as "cache one entry".
        let mut one = Lru::new(Some(0));
        assert!(!one.insert(1, run(1)));
        assert!(one.insert(2, run(2)));
        assert!(one.get(1).is_none());
        assert_eq!(tag(&mut one, 2), Some(2));
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
