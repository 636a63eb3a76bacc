//! A blocking wire-protocol client, shared by the `client` binary,
//! the integration tests and the repository benchmark.
//!
//! Beyond the plain request/response helpers, the client carries the
//! fault-tolerance half of the protocol: a read timeout on every
//! receive (a wedged or slow server surfaces as a
//! [`SimError::Transport`] instead of a hung thread), typed failure
//! responses ([`SimError::Overloaded`] carries the server's
//! `retry_after_ms` hint), [`Client::reconnect`] after a dropped
//! connection, and [`RetryPolicy`] — bounded exponential backoff with
//! equal jitter — driving [`Client::sim_retry`]. A response line is
//! capped at [`MAX_LINE_BYTES`], as a request line is on the server, so
//! a misbehaving server cannot grow client memory without end.
//!
//! A client keeps one request buffer and one response buffer for its
//! connection's lifetime: a closed loop of requests allocates no line.
//! Requests are written straight into the buffer (a sweep from the
//! caller's borrowed points), and a `result` reply decodes without a
//! `Json` tree, so a closed loop of cached `sim` requests allocates
//! nothing at all once the buffers are warm.
//!
//! [`Client::stats`] is computed here, from a `metrics` reply: the
//! server ships its counters in that one format only.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use oov_proto::Json;

use crate::proto::{write_sweep, Request, Response, SimRequest, SimResult, StatsSnapshot};
use crate::server::MAX_LINE_BYTES;

/// Default per-response read timeout. Generous: a cold `paper`-scale
/// suite compile can hold the first simulation for a while.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How a simulation request failed, separating retry strategies: a
/// transport error needs a reconnect, an overload wants the hinted
/// backoff, a deadline or server error can retry immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The connection failed (send, receive, timeout, or server-side
    /// close). The stream is suspect: reconnect before retrying.
    Transport(String),
    /// The server shed the request; retry after the hinted backoff.
    Overloaded {
        /// Server-suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's `deadline_ms` expired before the job ran.
    Deadline,
    /// The server answered a structured error (e.g. the job panicked).
    Server(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Transport(m) => write!(f, "transport: {m}"),
            SimError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded (retry after {retry_after_ms} ms)")
            }
            SimError::Deadline => write!(f, "deadline exceeded"),
            SimError::Server(m) => write!(f, "server: {m}"),
        }
    }
}

/// Bounded exponential backoff with equal jitter, for retrying failed
/// simulation requests ([`Client::sim_retry`]).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds; doubles per
    /// attempt.
    pub base_ms: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_ms: 5,
            cap_ms: 200,
        }
    }
}

/// One xorshift step — enough jitter to decorrelate client retries.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based): exponential
    /// `base_ms << attempt` capped at `cap_ms`, with **equal jitter**
    /// (half fixed, half uniform-random) so a thundering herd of
    /// shed clients spreads out. A server `retry_after_ms` hint
    /// replaces the exponential term but still jitters.
    #[must_use]
    pub fn backoff_ms(&self, attempt: u32, hint: Option<u64>, rng: &mut u64) -> u64 {
        let raw = match hint {
            Some(h) => h.max(1),
            None => self
                .base_ms
                .saturating_mul(1u64 << attempt.min(16))
                .clamp(1, self.cap_ms),
        };
        raw / 2 + xorshift(rng) % (raw / 2 + 1)
    }
}

/// What a sweep delivered: how many rows arrived at all, and which of
/// them were error rows (index + message) rather than results.
#[derive(Debug, Default, Clone)]
pub struct SweepOutcome {
    /// Rows the server answered with a result (passed to `on_row`).
    pub completed: usize,
    /// Rows the server answered with an error (shed, panicked,
    /// deadline-expired or aborted at shutdown), in request order.
    pub errors: Vec<(usize, String)>,
}

/// One connection to a running `oov-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Remembered for [`Client::reconnect`].
    peer: SocketAddr,
    read_timeout: Duration,
    /// The request line being sent, reused across requests.
    out: String,
    /// The response line being read, reused across responses.
    line: Vec<u8>,
}

impl Client {
    /// Connects to a server with the default read timeout.
    ///
    /// # Errors
    ///
    /// Returns the connect failure as text.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, String> {
        Self::connect_timeout(addr, DEFAULT_READ_TIMEOUT)
    }

    /// Connects with an explicit per-response read timeout: a receive
    /// that exceeds it fails as a transport error instead of blocking
    /// forever on a wedged server.
    ///
    /// # Errors
    ///
    /// Returns the connect failure as text.
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        read_timeout: Duration,
    ) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let peer = stream.peer_addr().map_err(|e| format!("connect: {e}"))?;
        Self::from_stream(stream, peer, read_timeout)
    }

    fn from_stream(
        stream: TcpStream,
        peer: SocketAddr,
        read_timeout: Duration,
    ) -> Result<Client, String> {
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("connect: {e}"))?);
        Ok(Client {
            reader,
            writer: stream,
            peer,
            read_timeout,
            out: String::with_capacity(1024),
            line: Vec::with_capacity(1024),
        })
    }

    /// Drops the current stream and dials the same peer again —
    /// the recovery move after a [`SimError::Transport`].
    ///
    /// # Errors
    ///
    /// Returns the connect failure as text.
    pub fn reconnect(&mut self) -> Result<(), String> {
        *self = Self::connect_timeout(self.peer, self.read_timeout)?;
        Ok(())
    }

    /// Writes the request line `write` puts in the reused buffer with a
    /// single `write` — body and newline together, so a request is one
    /// TCP segment under `TCP_NODELAY`.
    fn send(&mut self, write: impl FnOnce(&mut String)) -> Result<(), String> {
        self.out.clear();
        write(&mut self.out);
        self.out.push('\n');
        self.writer
            .write_all(self.out.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one response line of at most [`MAX_LINE_BYTES`]: the read
    /// stops one byte past the cap, so a server that never sends a
    /// newline costs a bounded buffer and a transport error.
    fn recv(&mut self) -> Result<Response, String> {
        self.line.clear();
        let room = MAX_LINE_BYTES as u64 + 1;
        match self
            .reader
            .by_ref()
            .take(room)
            .read_until(b'\n', &mut self.line)
        {
            Ok(0) => Err("recv: server closed the connection".into()),
            Ok(_) if self.line.len() > MAX_LINE_BYTES && !self.line.ends_with(b"\n") => Err(
                format!("recv: response line exceeds {MAX_LINE_BYTES} bytes"),
            ),
            Ok(_) => match std::str::from_utf8(&self.line) {
                Ok(text) => Response::decode(text.trim()),
                Err(e) => Err(format!("recv: response is not UTF-8: {e}")),
            },
            // `set_read_timeout` bounds each read, so a silent server
            // fails here rather than hanging the client thread. (A
            // timeout surfaces as WouldBlock or TimedOut depending on
            // platform; both mean "no full line in time".)
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(format!(
                    "recv: timed out after {:?} waiting for a response",
                    self.read_timeout
                ))
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Transport failure or an unexpected reply.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send(|out| Request::Ping.encode_into(out))?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    /// The server's counter snapshot: a [`Client::metrics`] request,
    /// projected here by [`StatsSnapshot::from_metrics`] (the protocol
    /// has no `stats` message).
    ///
    /// # Errors
    ///
    /// Transport failure or an unexpected reply.
    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.metrics().map(|m| StatsSnapshot::from_metrics(&m))
    }

    /// Fetches the server's full metrics-registry snapshot: an object
    /// with `counters`, `gauges` and `histograms` sections (the
    /// histograms decode with `oov_obs::Histogram::from_json`).
    ///
    /// # Errors
    ///
    /// Transport failure or an unexpected reply.
    pub fn metrics(&mut self) -> Result<Json, String> {
        self.send(|out| Request::Metrics.encode_into(out))?;
        match self.recv()? {
            Response::Metrics { snapshot } => Ok(snapshot),
            Response::Error { message } => Err(message),
            other => Err(format!("expected metrics, got {other:?}")),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Transport failure or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(|out| Request::Shutdown.encode_into(out))?;
        match self.recv()? {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("expected shutting_down, got {other:?}")),
        }
    }

    /// Runs one simulation on the server.
    ///
    /// # Errors
    ///
    /// Transport failure, a server-side error, or an unexpected reply
    /// (all flattened to text; use [`Client::sim_opts`] for typed
    /// failures).
    pub fn sim(&mut self, req: &SimRequest) -> Result<SimResult, String> {
        self.sim_opts(req, None).map_err(|e| e.to_string())
    }

    /// Runs one simulation with an optional server-enforced deadline,
    /// returning typed failures so callers can pick a retry strategy.
    ///
    /// # Errors
    ///
    /// [`SimError`] for transport failures, shed load, expired
    /// deadlines and server-side errors.
    pub fn sim_opts(
        &mut self,
        req: &SimRequest,
        deadline_ms: Option<u64>,
    ) -> Result<SimResult, SimError> {
        self.send(|out| {
            Request::Sim {
                req: *req,
                deadline_ms,
            }
            .encode_into(out);
        })
        .map_err(SimError::Transport)?;
        match self.recv().map_err(SimError::Transport)? {
            Response::Result(r) => Ok(r),
            Response::Overloaded { retry_after_ms } => Err(SimError::Overloaded { retry_after_ms }),
            Response::DeadlineExceeded => Err(SimError::Deadline),
            Response::Error { message } => Err(SimError::Server(message)),
            other => Err(SimError::Server(format!("expected result, got {other:?}"))),
        }
    }

    /// Runs one simulation with retries under `policy`: transport
    /// errors reconnect first, overloads honour the server's
    /// `retry_after_ms` hint, everything backs off with jitter.
    /// Returns the result plus the number of retries it took.
    ///
    /// # Errors
    ///
    /// The final attempt's failure, as text, once retries are
    /// exhausted.
    pub fn sim_retry(
        &mut self,
        req: &SimRequest,
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
        rng: &mut u64,
    ) -> Result<(SimResult, u32), String> {
        let mut attempt = 0u32;
        loop {
            let err = match self.sim_opts(req, deadline_ms) {
                Ok(r) => return Ok((r, attempt)),
                Err(e) => e,
            };
            if attempt >= policy.max_retries {
                return Err(format!("{err} (after {attempt} retries)"));
            }
            let hint = match &err {
                SimError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
                _ => None,
            };
            if matches!(err, SimError::Transport(_)) {
                // The old stream may have unread bytes or be
                // half-closed; a fresh connection is the only safe
                // state to retry from. A failed reconnect is itself
                // retriable (the server may be mid-respawn).
                let _ = self.reconnect();
            }
            std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt, hint, rng)));
            attempt += 1;
        }
    }

    /// Runs a sweep, invoking `on_row` for every successful row as it
    /// streams in (rows arrive in request order); per-row failures are
    /// collected in the returned [`SweepOutcome`] instead of aborting
    /// the sweep.
    ///
    /// # Errors
    ///
    /// Transport failure, a sweep-level server error, or an
    /// unexpected reply. On a sweep-level error the stream is drained
    /// to `sweep_done` first, so the connection remains usable.
    pub fn sweep(
        &mut self,
        points: &[SimRequest],
        deadline_ms: Option<u64>,
        mut on_row: impl FnMut(usize, SimResult),
    ) -> Result<SweepOutcome, String> {
        self.send(|out| write_sweep(out, points, deadline_ms))?;
        let mut outcome = SweepOutcome::default();
        let mut aborted: Option<String> = None;
        loop {
            match self.recv()? {
                Response::SweepRow { index, result } => {
                    outcome.completed += 1;
                    on_row(index, result);
                }
                Response::SweepRowError { index, message } => {
                    outcome.errors.push((index, message));
                }
                Response::SweepDone { .. } => {
                    return match aborted {
                        Some(message) => Err(message),
                        None => Ok(outcome),
                    };
                }
                // A sweep-level error (e.g. decode refusal) may arrive
                // with no `sweep_done` behind it; one that interrupts
                // rows mid-stream is drained so the next request on
                // this connection doesn't read stale frames.
                Response::Error { message } if outcome.completed == 0 => return Err(message),
                Response::Error { message } => aborted = Some(message),
                other => return Err(format!("expected sweep row, got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_response_line_past_the_cap_is_a_transport_error() {
        // A fake server that answers anything with 2 MiB and no newline.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let flood = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(peer.try_clone().expect("clone"));
            let mut request = String::new();
            reader.read_line(&mut request).expect("request line");
            // The client stops reading at the cap and hangs up, so the
            // tail of this write may fail; that is the point.
            let _ = peer.write_all(&vec![b'x'; 2 << 20]);
            // Hold the connection until the client closes it, so no
            // reset races the client's read.
            let _ = reader.read_to_end(&mut Vec::new());
        });
        // A short timeout, so a client without the cap fails fast
        // instead of waiting out the default for a newline.
        let mut client = Client::connect_timeout(addr, Duration::from_secs(5)).expect("connect");
        let err = client
            .sim_opts(
                &SimRequest::ooo_default(oov_kernels::Program::Trfd, oov_kernels::Scale::Smoke),
                None,
            )
            .expect_err("an unbounded line must not decode");
        match err {
            SimError::Transport(message) => {
                assert!(message.contains("exceeds"), "unexpected error: {message}");
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
        assert!(
            client.line.capacity() <= 2 * (MAX_LINE_BYTES + 1),
            "the line buffer outgrew its cap: {}",
            client.line.capacity()
        );
        drop(client);
        flood.join().expect("flood thread");
    }
}
