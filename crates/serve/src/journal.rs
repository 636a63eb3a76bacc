//! Write-ahead journal for the result cache — the daemon's only
//! persistence, and the one module that knows its on-disk format.
//!
//! Every cache insert is appended, through a batching writer thread,
//! as one framed record
//!
//! ```text
//! +-------------+---------------+==============================+
//! | len: u32 LE | crc32: u32 LE | compact JSON of one entry    |
//! +-------------+---------------+==============================+
//! ```
//!
//! ([`oov_proto::frame_record`]) to an append-only file, fsynced per
//! batch. The payload is one [`CacheLine`]:
//! `{"key": …, "machine_fp": …, "result": {…}}`. Entries are keyed by
//! full-request fingerprint, so state written with N shards loads into
//! a server with M; nothing reads the machine-config fingerprint back.
//! Fingerprints use the whole 64-bit range while JSON numbers are
//! exact only to 2^53, so they travel as hex strings.
//!
//! Recovery ([`recover`]) replays a file from the start and **stops at
//! the first torn or corrupt record** instead of failing — everything
//! before the tear is durable, and a crash mid-append costs at most
//! the final batch. A record whose frame is intact but whose JSON no
//! longer decodes (say, a schema change) is skipped with a counted
//! warning.
//!
//! # Snapshot + compaction
//!
//! The writer thread keeps the full persistent state in memory (it
//! sees every insert, so this costs no coordination with the workers).
//! Each entry is a `Record`: the result's stored body, shared with
//! the cache stripe that serves it, so the state costs a few words per
//! key on top of bytes the cache holds anyway. A record's payload is
//! spliced around that body, never re-encoded from a `SimResult`.
//! When the journal grows past [`JournalConfig::max_bytes`], it
//! compacts: every record of the state, framed exactly as appends
//! frame it and sorted by key, replaces `<journal>.snapshot` whole
//! (temp file, fsync, rename, directory fsync), then the journal is
//! truncated. The snapshot is therefore a compacted journal. The
//! records stream into the temp file through one 64 KiB buffer, so a
//! compaction's memory does not grow with the state. Graceful
//! shutdown runs the same compaction once the last sender is gone,
//! unless the journal is already empty. Startup replays the snapshot
//! and then the journal tail through the same [`recover`], the tail
//! overriding the snapshot. Recovery never truncates the snapshot: a
//! torn one yields its intact prefix and is replaced at the next
//! compaction. A file in any other format at the snapshot path yields
//! no records and the server starts cold for them.
//!
//! `journal.appended_records` (`stats`: `journal_records`) is a
//! durable watermark: a batch is counted only after its `sync_data`
//! returned, so once it reads N, N records survive a SIGKILL.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use oov_proto::{frame_record, FrameReader, Json};

use crate::proto::{write_result_fields, SimResult};

/// Default journal-rotation threshold (`--journal-max-bytes`).
pub const DEFAULT_JOURNAL_MAX_BYTES: u64 = 8 << 20;

/// Most records the writer folds into one write+fsync. Bounded so a
/// flood of inserts cannot make any single batch (and therefore the
/// crash-loss window) arbitrarily large.
const MAX_BATCH: usize = 256;

/// Write-ahead-journal configuration.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// The journal file (`--journal`); created if missing.
    pub path: PathBuf,
    /// Rotation threshold: once the journal exceeds this many bytes,
    /// the writer snapshots and truncates.
    pub max_bytes: u64,
}

/// `<journal>.snapshot` — where compaction parks the full state.
#[must_use]
pub fn snapshot_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".snapshot");
    PathBuf::from(name)
}

/// One persisted result-cache entry: the payload of one record.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLine {
    /// Full-request fingerprint — the result-cache key.
    pub key: u64,
    /// Machine-config fingerprint. Not used for routing or lookup;
    /// kept only as part of the record format.
    pub machine_fp: u64,
    /// The cached result.
    pub result: SimResult,
}

/// What [`recover`] salvaged from a journal file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Replayed entries, in append order (later entries for the same
    /// key should win).
    pub entries: Vec<CacheLine>,
    /// Bytes of intact prefix — the length the journal must be
    /// truncated to before appending resumes.
    pub intact_bytes: u64,
    /// Bytes discarded past the intact prefix (a torn or corrupt
    /// tail; 0 for a cleanly-closed journal).
    pub truncated_bytes: u64,
    /// Frame-intact records whose payload no longer decoded, skipped
    /// with a warning.
    pub skipped: u64,
}

/// One simulated result on its way to the journal, and the writer's
/// in-memory copy of it: the cache key, the machine fingerprint, the
/// stripe it was simulated for and its stored body
/// ([`SimResult::encode_body`](crate::proto::SimResult::encode_body)),
/// shared with the cache.
pub(crate) struct Record {
    pub(crate) key: u64,
    pub(crate) machine_fp: u64,
    pub(crate) shard: usize,
    pub(crate) body: Arc<str>,
}

impl Record {
    /// The record of a decoded cache line, with its body encoded.
    pub(crate) fn of(line: &CacheLine) -> Record {
        Record {
            key: line.key,
            machine_fp: line.machine_fp,
            shard: line.result.shard,
            body: line.result.encode_body().into(),
        }
    }

    /// Appends the record's journal payload. The journal holds
    /// simulated results only, so `cached` is always `false`.
    fn encode_into(&self, out: &mut String) {
        splice(
            out,
            self.key,
            self.machine_fp,
            false,
            self.shard,
            &self.body,
        );
    }
}

/// Frames `record` onto `buf` through the scratch `payload`; false if
/// the payload is past [`oov_proto::MAX_FRAME_PAYLOAD`] and was left
/// out.
fn frame_into(record: &Record, payload: &mut String, buf: &mut Vec<u8>) -> bool {
    payload.clear();
    record.encode_into(payload);
    frame_record(payload.as_bytes(), buf).is_some()
}

/// `{"key": …, "machine_fp": …, "result": {"cached": …, "shard": …` +
/// `body` + `}`: the record payload of a [`CacheLine`].
fn splice(out: &mut String, key: u64, machine_fp: u64, cached: bool, shard: usize, body: &str) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"key\": \"{key:#018x}\", \"machine_fp\": \"{machine_fp:#018x}\", \"result\": {{"
    );
    write_result_fields(out, cached, shard, body);
    out.push('}');
}

/// Encodes one cache entry as a journal-record payload (compact JSON),
/// through the same splice as the records the server appends.
#[must_use]
pub fn encode_record(entry: &CacheLine) -> Vec<u8> {
    let mut out = String::new();
    let r = &entry.result;
    splice(
        &mut out,
        entry.key,
        entry.machine_fp,
        r.cached,
        r.shard,
        &r.encode_body(),
    );
    out.into_bytes()
}

/// Decodes one record payload back into its cache line, validating
/// every field.
fn decode_record(payload: &[u8]) -> Result<CacheLine, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("{e}"))?;
    let fp = |name: &str| {
        let s = doc
            .get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record without `{name}`"))?;
        s.strip_prefix("0x")
            .and_then(|digits| u64::from_str_radix(digits, 16).ok())
            .ok_or_else(|| format!("record: bad fingerprint `{s}`"))
    };
    Ok(CacheLine {
        key: fp("key")?,
        machine_fp: fp("machine_fp")?,
        result: SimResult::from_json(
            doc.get("result")
                .ok_or_else(|| "record without `result`".to_string())?,
        )?,
    })
}

/// Replays a journal or snapshot file, stopping at the first torn or
/// corrupt record. A missing file is an empty journal, not an error —
/// the first run of a `--journal` server starts that way.
#[must_use]
pub fn recover(path: &Path) -> Recovery {
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Recovery::default(),
        Err(e) => {
            eprintln!(
                "oov-serve: journal {}: read failed ({e}); starting empty",
                path.display()
            );
            return Recovery::default();
        }
    };
    let mut rec = Recovery::default();
    let mut reader = FrameReader::new(&buf);
    while let Some(payload) = reader.next_record() {
        match decode_record(payload) {
            Ok(entry) => rec.entries.push(entry),
            Err(why) => {
                rec.skipped += 1;
                eprintln!(
                    "oov-serve: journal {}: skipping undecodable record {}: {why}",
                    path.display(),
                    rec.entries.len() as u64 + rec.skipped,
                );
            }
        }
    }
    rec.intact_bytes = reader.consumed() as u64;
    rec.truncated_bytes = reader.truncated() as u64;
    if rec.truncated_bytes > 0 {
        eprintln!(
            "oov-serve: journal {}: torn/corrupt tail ({:?}); keeping the {}-record intact \
             prefix, dropping the {} bytes after it",
            path.display(),
            reader.stop(),
            rec.entries.len(),
            rec.truncated_bytes
        );
    }
    rec
}

/// The writer thread's handles on the server's `journal.*` counters.
struct JournalCounters {
    appended_records: std::sync::Arc<oov_obs::Counter>,
    appended_bytes: std::sync::Arc<oov_obs::Counter>,
    rotations: std::sync::Arc<oov_obs::Counter>,
}

/// The batching journal writer: owns the file, the full persistent
/// state (for snapshots), and the compaction policy. Workers talk to it
/// through a clonable [`mpsc::Sender`] — an append is one non-blocking
/// send, never an fsync on the request path.
pub(crate) struct JournalWriter {
    tx: mpsc::Sender<Record>,
    thread: JoinHandle<()>,
}

impl JournalWriter {
    /// Opens (creating if needed) and truncates the journal to its
    /// intact prefix, then starts the writer thread. `state` is the
    /// recovered persistent state (snapshot + journal tail, merged)
    /// the thread snapshots from; `intact_bytes` comes from
    /// [`recover`]. The `journal.*` counters are registered in
    /// `metrics`.
    pub(crate) fn start(
        cfg: JournalConfig,
        state: HashMap<u64, Record>,
        intact_bytes: u64,
        metrics: &oov_obs::Registry,
    ) -> Result<JournalWriter, String> {
        let file = (|| -> std::io::Result<std::fs::File> {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&cfg.path)?;
            // Drop any torn tail before the first new append lands
            // after it.
            f.set_len(intact_bytes)?;
            f.sync_all()?;
            Ok(f)
        })()
        .map_err(|e| format!("journal {}: {e}", cfg.path.display()))?;
        let counters = JournalCounters {
            appended_records: metrics.counter("journal.appended_records"),
            appended_bytes: metrics.counter("journal.appended_bytes"),
            rotations: metrics.counter("journal.rotations"),
        };
        let (tx, rx) = mpsc::channel::<Record>();
        let thread = std::thread::Builder::new()
            .name("oov-journal".to_string())
            .spawn(move || writer_loop(&rx, file, state, &cfg, &counters))
            .map_err(|e| format!("journal writer spawn: {e}"))?;
        Ok(JournalWriter { tx, thread })
    }

    /// A sender workers append through.
    pub(crate) fn sender(&self) -> mpsc::Sender<Record> {
        self.tx.clone()
    }

    /// Drops this handle's sender and waits for the writer, which
    /// drains, compacts and exits once every other sender is gone too.
    pub(crate) fn finish(self) {
        drop(self.tx);
        let _ = self.thread.join();
    }
}

/// The writer thread: batch, frame, append, fsync; compact past the
/// size threshold. Once every sender is gone it compacts a final time
/// (unless the journal is already empty) and exits.
fn writer_loop(
    rx: &mpsc::Receiver<Record>,
    mut file: std::fs::File,
    mut state: HashMap<u64, Record>,
    cfg: &JournalConfig,
    counters: &JournalCounters,
) {
    let mut journal_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
    // True while `state` holds records the snapshot lacks: a
    // recovered tail, or any batch since the last compaction (even
    // one whose append failed).
    let mut unsaved = journal_bytes > 0;
    let mut buf: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut payload = String::with_capacity(1024);
    while let Ok(first) = rx.recv() {
        unsaved = true;
        buf.clear();
        let mut records = 0u64;
        let mut next = Some(first);
        while let Some(record) = next {
            if frame_into(&record, &mut payload, &mut buf) {
                records += 1;
            }
            state.insert(record.key, record);
            next = if records < MAX_BATCH as u64 {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        let written = (|| -> std::io::Result<()> {
            file.write_all(&buf)?;
            // `sync_data` is the durability point: a crash after this
            // returns every record in the batch from recovery.
            file.sync_data()
        })();
        if let Err(e) = written {
            eprintln!(
                "oov-serve: journal {}: append failed ({e}); records riding on the next \
                 snapshot only",
                cfg.path.display()
            );
            continue;
        }
        journal_bytes += buf.len() as u64;
        counters.appended_records.add(records);
        counters.appended_bytes.add(buf.len() as u64);
        if journal_bytes > cfg.max_bytes && compact(&file, &state, cfg, counters) {
            journal_bytes = 0;
            unsaved = false;
        }
    }
    if unsaved {
        compact(&file, &state, cfg, counters);
    }
}

/// Bytes the snapshot writer frames before it flushes them to the
/// temp file: compaction holds one such buffer, whatever the state's
/// size.
const SNAPSHOT_CHUNK: usize = 64 << 10;

/// Snapshots the full state, then truncates the journal; returns
/// whether both happened. A crash between the two leaves snapshot and
/// journal overlapping, which replay handles (same keys, same values —
/// later wins). Records are framed as appends frame them, in key
/// order, so the same state always writes the same bytes. They stream
/// through one [`SNAPSHOT_CHUNK`] buffer, so a compaction never holds
/// the whole snapshot in memory.
fn compact(
    file: &std::fs::File,
    state: &HashMap<u64, Record>,
    cfg: &JournalConfig,
    counters: &JournalCounters,
) -> bool {
    let mut records: Vec<&Record> = state.values().collect();
    records.sort_unstable_by_key(|r| r.key);
    let saved = write_atomic(&snapshot_path(&cfg.path), |out| {
        let mut buf = Vec::with_capacity(SNAPSHOT_CHUNK);
        let mut payload = String::with_capacity(1024);
        for record in records {
            frame_into(record, &mut payload, &mut buf);
            if buf.len() >= SNAPSHOT_CHUNK {
                out.write_all(&buf)?;
                buf.clear();
            }
        }
        out.write_all(&buf)
    });
    if let Err(e) = saved {
        eprintln!(
            "oov-serve: journal {}: snapshot failed ({e}); journal keeps growing",
            cfg.path.display()
        );
        return false;
    }
    match file.set_len(0).and_then(|()| file.sync_all()) {
        Ok(()) => {
            counters.rotations.inc();
            true
        }
        Err(e) => {
            eprintln!(
                "oov-serve: journal {}: post-snapshot truncate failed: {e}",
                cfg.path.display()
            );
            false
        }
    }
}

/// Writes the bytes `fill` produces into `path`, durably and
/// atomically: temp file + `fsync` + rename + **fsync of the parent
/// directory** (without the last step the rename itself can be lost
/// to a crash, resurrecting the old snapshot — or nothing). The temp
/// name carries the writer's pid (`<path>.tmp.<pid>`), so two servers
/// sharing a path cannot clobber each other's in-flight temp file; the
/// loser of the final rename race still leaves a complete, valid
/// snapshot. A failed write removes its temp file, so a retried
/// compaction leaves nothing behind.
fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        fill(&mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename lives in the directory's data.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()
    })()
    .map_err(|e| {
        // After a successful rename there is no temp file left and
        // this is a harmless `NotFound`.
        let _ = std::fs::remove_file(&tmp);
        format!("{}: {e}", path.display())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_stats::SimStats;

    fn line(key: u64, cycles: u64) -> CacheLine {
        CacheLine {
            key,
            machine_fp: key.rotate_left(17),
            result: crate::proto::SimResult {
                stats: SimStats {
                    cycles,
                    committed: 5,
                    ..SimStats::new()
                },
                ideal_cycles: 1,
                faults_taken: 0,
                cached: false,
                shard: 0,
            },
        }
    }

    /// A cache line at the extremes the wire pins use: counters at and
    /// past 2^32, 2^40 and 2^53 − 1, and full-range fingerprints.
    fn extreme_line(key: u64, machine_fp: u64, cached: bool, shard: usize) -> CacheLine {
        let mut stats = SimStats {
            cycles: 9_007_199_254_740_991,
            committed: 4_294_967_296,
            addr_bus_busy_cycles: 1_099_511_627_776,
            mem_requests: 123_456_789_012,
            branches: 999_999_999_999_999,
            progress_cycles: 2_251_799_813_685_248,
            ..SimStats::new()
        };
        stats.breakdown.record(
            oov_stats::UnitState::new(true, false, false),
            7_000_000_000_001,
        );
        stats
            .breakdown
            .record(oov_stats::UnitState::new(true, true, true), 1 << 50);
        stats.stages.commit = 2_251_799_813_685_247;
        CacheLine {
            key,
            machine_fp,
            result: crate::proto::SimResult {
                stats,
                ideal_cycles: 4_503_599_627_370_496,
                faults_taken: 17,
                cached,
                shard,
            },
        }
    }

    /// The `Json`-tree encoding of a cache line — the oracle the
    /// spliced record payload is pinned against.
    fn encode_entry(e: &CacheLine) -> Json {
        let hex = |fp: u64| Json::from(format!("{fp:#018x}"));
        Json::obj(vec![
            ("key", hex(e.key)),
            ("machine_fp", hex(e.machine_fp)),
            ("result", Json::Obj(e.result.fields())),
        ])
    }

    #[test]
    fn spliced_records_are_the_entry_encoding_byte_for_byte() {
        for (key, machine_fp) in [(u64::MAX, 0), (0, u64::MAX), (0xdead_beef_cafe_f00d, 1)] {
            for shard in [0, 1, usize::from(u16::MAX)] {
                let line = extreme_line(key, machine_fp, false, shard);
                let tree = encode_entry(&line).encode().into_bytes();
                assert_eq!(encode_record(&line), tree);
                // What the writer appends from a worker's record.
                let mut spliced = String::new();
                Record::of(&line).encode_into(&mut spliced);
                assert_eq!(spliced.into_bytes(), tree);
                assert_eq!(decode_record(&tree).unwrap(), line);
                // `encode_record` keeps any line's `cached` flag.
                let hit = extreme_line(key, machine_fp, true, shard);
                assert_eq!(
                    encode_record(&hit),
                    encode_entry(&hit).encode().into_bytes()
                );
            }
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oov_journal_{}_{name}", std::process::id()))
    }

    fn write_journal(path: &Path, entries: &[CacheLine]) {
        let mut buf = Vec::new();
        for e in entries {
            frame_record(&encode_record(e), &mut buf).unwrap();
        }
        std::fs::write(path, &buf).unwrap();
    }

    #[test]
    fn recover_round_trips_and_missing_file_is_empty() {
        let path = tmp("rt.wal");
        let entries = vec![line(u64::MAX, 10), line(7, 20), line(7, 30)];
        write_journal(&path, &entries);
        let rec = recover(&path);
        assert_eq!(rec.entries, entries);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.intact_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();

        let rec = recover(&tmp("nonexistent.wal"));
        assert!(rec.entries.is_empty());
        assert_eq!(rec.intact_bytes, 0);
    }

    #[test]
    fn torn_tail_recovers_intact_prefix() {
        let path = tmp("torn.wal");
        let entries = vec![line(1, 10), line(2, 20), line(3, 30)];
        write_journal(&path, &entries);
        let full = std::fs::metadata(&path).unwrap().len();
        // Tear 5 bytes off the last record.
        let buf = std::fs::read(&path).unwrap();
        std::fs::write(&path, &buf[..buf.len() - 5]).unwrap();
        let rec = recover(&path);
        assert_eq!(rec.entries, entries[..2]);
        assert!(rec.truncated_bytes > 0);
        assert!(rec.intact_bytes < full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_but_intact_record_is_skipped() {
        let path = tmp("skip.wal");
        let mut buf = Vec::new();
        frame_record(&encode_record(&line(1, 10)), &mut buf).unwrap();
        // Frame-intact garbage: valid CRC over an undecodable payload.
        frame_record(b"{\"not\": \"an entry\"}", &mut buf).unwrap();
        frame_record(&encode_record(&line(2, 20)), &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let rec = recover(&path);
        assert_eq!(rec.entries, vec![line(1, 10), line(2, 20)]);
        assert_eq!(rec.skipped, 1);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    fn cfg(path: &Path) -> JournalConfig {
        JournalConfig {
            path: path.to_path_buf(),
            max_bytes: DEFAULT_JOURNAL_MAX_BYTES,
        }
    }

    /// Polls counter `name` until it reaches `n`.
    fn await_counter(metrics: &oov_obs::Registry, name: &str, n: u64) {
        let counter = metrics.counter(name);
        let t0 = std::time::Instant::now();
        while counter.get() < n {
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(10),
                "{name} never reached {n}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn writer_appends_durably_and_truncates_torn_tail() {
        let path = tmp("writer.wal");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(snapshot_path(&path)).ok();
        // Pre-existing torn tail: start() must drop it.
        write_journal(&path, &[line(9, 90)]);
        let keep = std::fs::metadata(&path).unwrap().len();
        let mut buf = std::fs::read(&path).unwrap();
        buf.extend_from_slice(&[0xAB; 6]);
        std::fs::write(&path, &buf).unwrap();

        let metrics = oov_obs::Registry::new();
        let state = HashMap::from([(9, Record::of(&line(9, 90)))]);
        let w = JournalWriter::start(cfg(&path), state, keep, &metrics).unwrap();
        let tx = w.sender();
        tx.send(Record::of(&line(1, 10))).unwrap();
        tx.send(Record::of(&line(2, 20))).unwrap();
        drop(tx);
        // Both records are on disk once the watermark says so.
        await_counter(&metrics, "journal.appended_records", 2);
        let rec = recover(&path);
        assert_eq!(rec.entries, vec![line(9, 90), line(1, 10), line(2, 20)]);
        assert_eq!(rec.truncated_bytes, 0);
        // Stopping compacts: an empty journal beside a full snapshot.
        w.finish();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let snap = recover(&snapshot_path(&path));
        assert_eq!(snap.entries, vec![line(1, 10), line(2, 20), line(9, 90)]);
        assert_eq!((snap.skipped, snap.truncated_bytes), (0, 0));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(snapshot_path(&path)).ok();
    }

    #[test]
    fn writer_compacts_past_threshold() {
        let path = tmp("compact.wal");
        std::fs::remove_file(&path).ok();
        let snap = snapshot_path(&path);
        std::fs::remove_file(&snap).ok();
        let cfg = JournalConfig {
            path: path.clone(),
            max_bytes: 256, // a couple of records
        };
        let metrics = oov_obs::Registry::new();
        let w = JournalWriter::start(cfg, HashMap::new(), 0, &metrics).unwrap();
        let tx = w.sender();
        for k in 0..16 {
            tx.send(Record::of(&line(k, k * 10))).unwrap();
        }
        // The writer is still running, so this compaction is the size
        // threshold's, not shutdown's.
        await_counter(&metrics, "journal.rotations", 1);
        for k in 16..32 {
            tx.send(Record::of(&line(k, k * 10))).unwrap();
        }
        // Crash-after-rotation state, with the writer still running:
        // snapshot + journal tail together hold every record. Reading
        // the journal before the snapshot is race-free against a
        // concurrent compaction, which saves before it truncates.
        await_counter(&metrics, "journal.appended_records", 32);
        let tail = recover(&path).entries;
        let snap_rec = recover(&snap);
        assert_eq!(snap_rec.skipped, 0);
        let merged: HashMap<u64, CacheLine> = snap_rec
            .entries
            .into_iter()
            .chain(tail)
            .map(|e| (e.key, e))
            .collect();
        let all: Vec<CacheLine> = (0..32).map(|k| line(k, k * 10)).collect();
        assert_eq!(merged, all.iter().map(|e| (e.key, e.clone())).collect());
        drop(tx);
        w.finish();
        // Shutdown compacted the rest: the snapshot holds every record
        // and the journal is empty.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let snap_rec = recover(&snap);
        assert_eq!((snap_rec.entries, snap_rec.skipped), (all, 0));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn failed_save_leaves_no_temp_file() {
        // A directory in the way makes the final rename fail after the
        // temp file was written and synced.
        let path = tmp("snap_dir");
        std::fs::create_dir_all(&path).unwrap();
        assert!(write_atomic(&path, |f| f.write_all(b"bytes")).is_err());
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(format!(".tmp.{}", std::process::id()));
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "failed save left its temp file behind"
        );
        std::fs::remove_dir(&path).ok();
    }

    #[test]
    fn finish_leaves_an_empty_journal_alone() {
        let path = tmp("finish.wal");
        let snap = snapshot_path(&path);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
        let metrics = oov_obs::Registry::new();
        let state = HashMap::from([(4, Record::of(&line(4, 40)))]);
        let w = JournalWriter::start(cfg(&path), state, 0, &metrics).unwrap();
        w.finish();
        assert!(!snap.exists(), "an empty journal was compacted");
        assert_eq!(metrics.counter("journal.rotations").get(), 0);
        std::fs::remove_file(&path).ok();
    }
}
