//! `oov-serve`: a long-lived simulation server with a shared result
//! cache and a worker pool.
//!
//! The paper's evaluation — and every parameter study a reproduction
//! like this invites — is a large grid of (program × machine
//! configuration) simulation requests. Rerunning the harness
//! recompiles the ten-kernel suite and resimulates every point from
//! scratch each time. This crate turns the harness into a *service*:
//! a daemon that compiles each [`Scale`](oov_kernels::Scale)'s suite
//! exactly once, caches every simulation result by request
//! fingerprint, and answers many concurrent clients over a
//! dependency-free, newline-delimited JSON protocol.
//!
//! # Architecture
//!
//! ```text
//!  client ──TCP──▶ acceptor ──▶ connection thread (1 per client)
//!                                   │ parse line → Request
//!                                   │ fingerprint, lock stripe fp % N
//!                                   ▼
//!            ┌──────────┬──────────┬──────────┐
//!            │ stripe 0 │ stripe 1 │  ... N   │  shared result cache:
//!            │ LRU      │ LRU      │ LRU      │  hit → reply encoded
//!            │ pending  │ pending  │ pending  │  from its counters here;
//!            └──────────┴──────────┴──────────┘  pending → wait on it
//!                   │ miss only          ▲
//!                   ▼                    │ packed counters (PackedRun),
//!          one job queue (mpsc)          │ shared with the journal writer
//!            ┌──────────┬──────────┬─────┴────┐
//!            │ worker 0 │ worker 1 │  ... N   │  supervised pool
//!            └────┬─────┴────┬─────┴────┬─────┘
//!                 └── suite cache (one compile per scale) ──┘
//! ```
//!
//! * **Hits first.** The result cache is shared, split into N
//!   lock-striped O(1) LRUs (`--shards`), and the connection thread
//!   looks a point up *before* dispatch: a cached point is answered on
//!   the spot and never queues behind a multi-millisecond simulation —
//!   the out-of-order lesson of the paper applied to the daemon.
//!   Identical requests always meet the same stripe (the stripe is the
//!   full request fingerprint ([`SimRequest::fingerprint`]) modulo N),
//!   so a stripe lock is the only coordination a lookup needs. An
//!   entry is the result's counters packed into varints
//!   ([`proto::PackedRun`], about 70 bytes against the 296 of an
//!   [`oov_bench::RunOutcome`]), never their encoding, shared with the
//!   journal writer. A `sim` hit is one request decode, one streamed
//!   fingerprint, one lock, and the reply encoded from the counters,
//!   unpacked on the stack, into the connection's reused line buffer,
//!   with no reply channel.
//! * **One queue, a pool of workers.** Misses go on one queue that N
//!   supervised workers pull from, so an idle worker takes the next
//!   miss whatever its stripe. A point already being simulated is not
//!   simulated twice: later requests wait on the first (single
//!   flight) and are answered as hits when it lands. Metric names keep
//!   the `shard.<n>` prefix: stripe `n` reports requests, service
//!   time, queue depth and sheds; worker `n` reports panics, respawns
//!   and liveness.
//! * **Observability.** Every hot surface reports into one
//!   [`oov_obs::Registry`]: per-request-type latency histograms,
//!   per-stripe service-time histograms, queue-depth and in-flight
//!   gauges, and the result-cache, suite-cache and journal counters.
//!   The `metrics` request returns the whole snapshot as JSON, and it
//!   is the only way counters leave the server: `stats` is a fixed
//!   view the client computes from it
//!   ([`StatsSnapshot::from_metrics`]); the protocol has no `stats`
//!   message.
//! * **Suite memoisation.** `Suite::compile(scale)` runs at most once
//!   per scale for the life of the process, behind a lazily-populated
//!   [`cache::SuiteCache`]; the compile counters are in the `metrics`
//!   snapshot so tests can *prove* memoisation happened.
//! * **Persistence.** One path and one format: the write-ahead
//!   [`journal`] of CRC-framed records, compacted into
//!   `<journal>.snapshot` (the same records, key-sorted) when it grows
//!   and at graceful shutdown; a restart, clean or after a SIGKILL,
//!   replays both through one reader and starts warm.
//! * **Batching.** A `sweep` request fans its misses out across the
//!   pool and streams rows back **in request order** (a small
//!   reorder buffer in the connection thread), so a client renders
//!   tables incrementally while later points still simulate.
//! * **Identical results.** Workers execute
//!   [`oov_bench::machine_run_budgeted`] — the budgeted form of the
//!   [`oov_bench::machine_run`] helper the experiment harness uses — so
//!   a served result is bit-identical to a direct in-process
//!   simulation (the integration tests assert this).
//! * **Fault tolerance.** Every job runs inside `catch_unwind` (a
//!   panicking request answers a structured error; the worker keeps
//!   serving), a per-worker supervisor respawns dead worker threads
//!   (the cache is not theirs, so nothing cached dies with them),
//!   admission control sheds load with a retriable
//!   `Response::Overloaded` once a stripe's queued misses pass the cap,
//!   requests may carry a server-enforced `deadline_ms`, and shutdown
//!   drains in-flight sweeps up to a `--drain-ms` budget. The
//!   [`chaos`] module injects all of these failures deterministically
//!   (`serve --chaos`; the storm test in `tests/chaos.rs` drives a
//!   chaos server with retrying clients); [`Client`] ships read
//!   timeouts and a jittered exponential-backoff
//!   [`client::RetryPolicy`].
//!
//! # Binaries
//!
//! * `serve` — the daemon: `serve --addr 127.0.0.1:7540 --shards 4`
//! * `client` — one-shot and sweep modes rendering the same tables as
//!   `oov-bench`
//!
//! Serve performance is measured by the repository benchmark,
//! `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod journal;
pub mod proto;
pub mod server;

pub use chaos::ChaosConfig;
pub use client::{Client, RetryPolicy, SimError, SweepOutcome};
pub use journal::CacheLine;
pub use proto::{Request, Response, SimRequest, SimResult, StatsSnapshot};
pub use server::{PersistOptions, ServeConfig, Server, ServerHandle};
