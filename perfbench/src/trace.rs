//! In-memory spans recorded around the benchmark's calls into each
//! layer. Each generator thread owns a [`Tracer`]; they are merged and
//! written out once the run ends, so recording costs two clock reads
//! and a push.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: what was called, for which request, inside which
/// enclosing span, and when (nanoseconds since the run's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `proto.resp_decode`.
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// A span recorder; a disabled tracer records nothing.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing against `epoch`, recording only when `on`.
    #[must_use]
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span that ran from `start` to `end`; returns its index
    /// for use as a parent (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f`, recording it as a span when enabled.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }

    /// Stretches span `id` to end at `end` (a parent opened before its
    /// children finish).
    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(i) = id {
            let end_ns = self.ns(end);
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Appends another tracer's spans (same epoch), keeping parent
    /// links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in µs of every span called `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated `id parent req name start_ns
    /// end_ns` lines.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_merging_keeps_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(epoch, false);
        assert_eq!(off.span("x", 1, None, || 7), 7);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(epoch, true);
        a.span("a", 1, None, || ());
        let mut b = Tracer::new(epoch, true);
        let root = b.record("root", 2, None, epoch, Instant::now());
        b.span("child", 2, root, || ());
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].name, "root");
        assert_eq!(a.durations_us("child").len(), 1);
    }
}
