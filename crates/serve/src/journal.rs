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
//! Recovery ([`recover`]) replays a file from the start in one pass:
//! it reads the file through one fixed buffer, one frame at a time,
//! decodes each payload with the wire's typed decoder (no `Json` tree)
//! and hands each [`CacheLine`] to the caller, which folds it straight
//! into the cache. Replay holds one record at a time, never the file
//! or a list of its entries. It **stops at the first torn or corrupt
//! record** instead of failing — everything before the tear is
//! durable, and a crash mid-append costs at most the final batch. A
//! record whose frame is intact but whose JSON no longer decodes (say,
//! a schema change) is skipped with a counted warning. A read error is
//! not a tear: it is reported as [`FrameStop::ReadError`], with the
//! records read before it, and the server serves those records but
//! journals nothing for that run, so it never truncates, appends to or
//! compacts over a file it could not read.
//!
//! # Snapshot + compaction
//!
//! The writer thread keeps the full persistent state in memory (it
//! sees every insert, so this costs no coordination with the workers).
//! Each entry is a `Record`: the key, the machine fingerprint, the
//! stripe and the result's counters, one `Arc` shared with the cache
//! stripe that serves them, so the state costs a few words per key on
//! top of counters the cache holds anyway. The state holds no encoded
//! bytes: the writer encodes each record's payload when it frames it,
//! with the result writer every reply goes through
//! ([`crate::proto::write_reply`]'s). Recovery stores each decoded
//! result as it is, without encoding it.
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
//! overriding the snapshot, and seeds the cache in that replay order,
//! so under a cache cap the newest records are the ones kept.
//! Recovery never truncates the snapshot: a torn one yields its intact
//! prefix and is replaced at the next compaction. A file in any other format at the snapshot path yields
//! no records and the server starts cold for them.
//!
//! `journal.appended_records` (`stats`: `journal_records`) is a
//! durable watermark: a batch is counted only after its `sync_data`
//! returned, so once it reads N, N records survive a SIGKILL.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use oov_bench::RunOutcome;
use oov_proto::{frame_record, FrameReader, FrameStop, Parser};

use crate::proto::{write_result, SimResult};

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
    /// Records decoded and handed to the caller.
    pub recovered: u64,
    /// Bytes of intact prefix — the length the journal must be
    /// truncated to before appending resumes.
    pub intact_bytes: u64,
    /// Bytes discarded past the intact prefix (a torn or corrupt
    /// tail; 0 for a cleanly-closed journal).
    pub truncated_bytes: u64,
    /// Frame-intact records whose payload no longer decoded, skipped
    /// with a warning.
    pub skipped: u64,
    /// Why replay stopped. After a [`FrameStop::ReadError`] (the file
    /// could be opened but not read, or not opened for reading) the
    /// bytes past the intact prefix were never seen: the file must not
    /// be truncated or written over.
    pub stop: FrameStop,
}

/// One simulated result on its way to the journal, and the writer's
/// in-memory copy of it: the cache key, the machine fingerprint, the
/// stripe it was simulated for and the result's counters, shared with
/// the cache. No encoded bytes are kept: the payload is written when
/// the record is framed.
pub(crate) struct Record {
    pub(crate) key: u64,
    pub(crate) machine_fp: u64,
    pub(crate) shard: usize,
    pub(crate) run: Arc<RunOutcome>,
}

impl Record {
    /// The record of a decoded cache line: its counters, moved, not
    /// encoded.
    pub(crate) fn of(line: CacheLine) -> Record {
        Record {
            key: line.key,
            machine_fp: line.machine_fp,
            shard: line.result.shard,
            run: Arc::new(line.result.outcome()),
        }
    }

    /// Appends the record's journal payload. The journal holds
    /// simulated results only, so `cached` is always `false`.
    fn encode_into(&self, out: &mut String) {
        write_record(out, self.key, self.machine_fp, false, self.shard, &self.run);
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

/// The one record encoder: `{"key": …, "machine_fp": …, "result":
/// {…}}`, the payload of a [`CacheLine`], its result written by the
/// result writer every reply goes through.
fn write_record(
    out: &mut String,
    key: u64,
    machine_fp: u64,
    cached: bool,
    shard: usize,
    run: &RunOutcome,
) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"key\": \"{key:#018x}\", \"machine_fp\": \"{machine_fp:#018x}\", \"result\": {{"
    );
    write_result(out, cached, shard, run);
    out.push('}');
}

/// Encodes one cache entry as a journal-record payload (compact JSON),
/// through the encoder of the records the server appends.
#[must_use]
pub fn encode_record(entry: &CacheLine) -> Vec<u8> {
    let mut out = String::new();
    let r = &entry.result;
    write_record(
        &mut out,
        entry.key,
        entry.machine_fp,
        r.cached,
        r.shard,
        &r.outcome(),
    );
    out.into_bytes()
}

/// Decodes one record payload back into its cache line, validating
/// every field. It pulls the fields straight out of the wire's
/// [`Parser`], with the result read by [`SimResult::read_json`], and
/// builds no tree.
fn decode_record(payload: &[u8]) -> Result<CacheLine, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let mut p = Parser::new(text);
    let (mut key, mut machine_fp, mut result) = (None, None, None);
    p.object(|p, name| match &*name {
        "key" => p.first(&mut key, Parser::str),
        "machine_fp" => p.first(&mut machine_fp, Parser::str),
        "result" => p.first(&mut result, SimResult::read_json),
        _ => p.skip(),
    })
    .and_then(|_| p.end())
    .map_err(|e| e.to_string())?;
    Ok(CacheLine {
        key: fingerprint("key", key.flatten().as_deref())?,
        machine_fp: fingerprint("machine_fp", machine_fp.flatten().as_deref())?,
        result: result.ok_or_else(|| "record without `result`".to_string())??,
    })
}

/// The fingerprint a record's field `name` spells as `0x` and hex
/// digits; `s` is the field's string, if it has one.
fn fingerprint(name: &str, s: Option<&str>) -> Result<u64, String> {
    let s = s.ok_or_else(|| format!("record without `{name}`"))?;
    s.strip_prefix("0x")
        .and_then(|digits| u64::from_str_radix(digits, 16).ok())
        .ok_or_else(|| format!("record: bad fingerprint `{s}`"))
}

/// Bytes of the buffer [`recover`] reads a file through.
const REPLAY_BUFFER: usize = 64 << 10;

/// Replays a journal or snapshot file, handing each decoded line to
/// `each` in file order and stopping at the first torn or corrupt
/// record, or at a read error. A missing file is an empty journal, not
/// an error — the first run of a `--journal` server starts that way.
#[must_use]
pub fn recover(path: &Path, mut each: impl FnMut(CacheLine)) -> Recovery {
    let mut rec = Recovery::default();
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return rec,
        Err(e) => {
            eprintln!("oov-serve: journal {}: open failed ({e})", path.display());
            rec.stop = FrameStop::ReadError(e.kind());
            return rec;
        }
    };
    let mut reader = FrameReader::new(BufReader::with_capacity(REPLAY_BUFFER, file));
    while let Some(payload) = reader.next_record() {
        match decode_record(payload) {
            Ok(line) => {
                rec.recovered += 1;
                each(line);
            }
            Err(why) => {
                rec.skipped += 1;
                eprintln!(
                    "oov-serve: journal {}: skipping undecodable record {}: {why}",
                    path.display(),
                    rec.recovered + rec.skipped,
                );
            }
        }
    }
    rec.intact_bytes = reader.consumed() as u64;
    rec.truncated_bytes = reader.truncated() as u64;
    rec.stop = reader.stop();
    if rec.stop != FrameStop::Clean {
        eprintln!(
            "oov-serve: journal {}: replay stopped ({:?}) after an intact prefix of {} \
             records; {} bytes past it not replayed",
            path.display(),
            rec.stop,
            rec.recovered,
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
    use oov_proto::Json;
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
    /// past 2^32, 2^40, 2^53 − 1, 2^53 + 2 and `u64::MAX`, and
    /// full-range fingerprints.
    fn extreme_line(key: u64, machine_fp: u64, cached: bool, shard: usize) -> CacheLine {
        let mut stats = SimStats {
            cycles: 9_007_199_254_740_991,
            committed: 4_294_967_296,
            addr_bus_busy_cycles: 1_099_511_627_776,
            mem_requests: (1 << 53) + 2,
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
                faults_taken: u64::MAX,
                cached,
                shard,
            },
        }
    }

    /// The `Json`-tree encoding of a cache line — the oracle the
    /// record payload is pinned against.
    fn encode_entry(e: &CacheLine) -> Json {
        let hex = |fp: u64| Json::from(format!("{fp:#018x}"));
        Json::obj(vec![
            ("key", hex(e.key)),
            ("machine_fp", hex(e.machine_fp)),
            ("result", Json::Obj(e.result.fields())),
        ])
    }

    #[test]
    fn records_are_the_entry_encoding_byte_for_byte() {
        for (key, machine_fp) in [(u64::MAX, 0), (0, u64::MAX), (0xdead_beef_cafe_f00d, 1)] {
            for shard in [0, 1, usize::from(u16::MAX)] {
                let line = extreme_line(key, machine_fp, false, shard);
                let tree = encode_entry(&line).encode().into_bytes();
                assert_eq!(encode_record(&line), tree);
                // What the writer appends from a worker's record.
                let mut appended = String::new();
                Record::of(line.clone()).encode_into(&mut appended);
                assert_eq!(appended.into_bytes(), tree);
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

    /// The tree decoder of a record payload: the oracle
    /// [`decode_record`] is held to.
    fn decode_record_tree(payload: &[u8]) -> Result<CacheLine, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
        let doc = Json::parse(text).map_err(|e| format!("{e}"))?;
        let fp = |name: &str| fingerprint(name, doc.get(name).and_then(Json::as_str));
        Ok(CacheLine {
            key: fp("key")?,
            machine_fp: fp("machine_fp")?,
            result: SimResult::from_json(
                doc.get("result")
                    .ok_or_else(|| "record without `result`".to_string())?,
            )?,
        })
    }

    /// Decodes `payload` with both decoders, asserting they agree, and
    /// returns the outcome.
    fn decode_alike(payload: &[u8]) -> Result<CacheLine, String> {
        let typed = decode_record(payload);
        assert_eq!(
            typed,
            decode_record_tree(payload),
            "decoders disagree on {:?}",
            String::from_utf8_lossy(payload)
        );
        typed
    }

    #[test]
    fn typed_and_tree_record_decoders_agree() {
        let lines = [
            line(7, 10),
            extreme_line(u64::MAX, 0, true, 3),
            extreme_line(0xdead_beef_cafe_f00d, 1, false, usize::from(u16::MAX)),
        ];
        for line in &lines {
            let payload = encode_record(line);
            assert_eq!(decode_alike(&payload).as_ref(), Ok(line));
            for cut in 0..payload.len() {
                assert!(decode_alike(&payload[..cut]).is_err(), "cut at {cut}");
            }
            // Every byte replaced by every other value in the first
            // payload; in the others, with each bit flipped and by each
            // byte of the JSON grammar.
            let mut bad = payload.clone();
            for at in 0..payload.len() {
                let flips = (0..8).map(|bit| payload[at] ^ (1 << bit));
                let bytes: Vec<u8> = if line == &lines[0] {
                    (0..=u8::MAX).collect()
                } else {
                    flips.chain(*b"\"{}[],:\\0x-").collect()
                };
                for byte in bytes {
                    bad[at] = byte;
                    let _ = decode_alike(&bad);
                }
                bad[at] = payload[at];
            }
        }

        let payload = String::from_utf8(encode_record(&lines[0])).unwrap();
        let edit = |from: &str, to: &str| {
            assert!(payload.contains(from), "{from}");
            payload.replacen(from, to, 1)
        };
        let key = "\"key\": \"0x0000000000000007\", ";
        let result_at = payload.find("\"result\"").unwrap();
        let cases = [
            (edit(key, ""), "record without `key`"),
            (edit("\"0x0000000000000007\"", "7"), "record without `key`"),
            (
                edit("0x0000000000000007", "0x00000000000000g7"),
                "record: bad fingerprint `0x00000000000000g7`",
            ),
            (
                edit("0x0000000000000007", "0000000000000007"),
                "record: bad fingerprint `0000000000000007`",
            ),
            (
                format!("{}\"result\": [1, 2]}}", &payload[..result_at]),
                "sim result: missing field `stats`",
            ),
            (
                format!("{}\"result\": null}}", &payload[..result_at]),
                "sim result: missing field `stats`",
            ),
            (
                edit("\"result\": {", "\"result\": {\"faults_taken\": \"x\", "),
                "sim result: bad or missing field `faults_taken`",
            ),
            (
                format!("{payload} x"),
                "trailing characters after value at byte",
            ),
            ("[]".to_string(), "record without `key`"),
            (String::new(), "unexpected end of input at byte 0"),
        ];
        for (text, want) in &cases {
            let err = decode_alike(text.as_bytes()).unwrap_err();
            assert!(err.starts_with(want), "{text}: got {err}, want {want}");
        }
        // A repeated key: the first value wins, in both decoders.
        let repeated = edit(key, &format!("{key}\"key\": \"0x0000000000000009\", "));
        assert_eq!(decode_alike(repeated.as_bytes()).map(|l| l.key), Ok(7));
        let repeated = edit(key, "\"key\": \"bad\", ");
        let repeated = repeated.replacen("{", &format!("{{{key}"), 1);
        assert_eq!(decode_alike(repeated.as_bytes()).map(|l| l.key), Ok(7));
        // An escaped key and an unknown field decode as plain ones.
        let escaped = edit("\"key\"", "\"k\\u0065y\"");
        assert_eq!(decode_alike(escaped.as_bytes()).map(|l| l.key), Ok(7));
        let extra = edit(key, &format!("{key}\"extra\": [{{}}], "));
        assert_eq!(decode_alike(extra.as_bytes()).as_ref(), Ok(&lines[0]));
        // Invalid UTF-8, anywhere in the payload.
        for at in [0, 3, payload.len() - 1] {
            let mut bytes = payload.clone().into_bytes();
            bytes[at] = 0xff;
            let err = decode_alike(&bytes).unwrap_err();
            assert!(err.starts_with("payload not UTF-8"), "{err}");
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oov_journal_{}_{name}", std::process::id()))
    }

    /// Every line [`recover`] hands out for `path`, and its summary.
    fn replay(path: &Path) -> (Vec<CacheLine>, Recovery) {
        let mut lines = Vec::new();
        let rec = recover(path, |line| lines.push(line));
        (lines, rec)
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
        let (lines, rec) = replay(&path);
        assert_eq!(lines, entries);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.intact_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();

        let (lines, rec) = replay(&tmp("nonexistent.wal"));
        assert!(lines.is_empty());
        assert_eq!(rec.intact_bytes, 0);
    }

    #[test]
    fn an_unreadable_file_is_a_read_error_not_a_tear() {
        // Opening a directory succeeds; reading it fails.
        let dir = tmp("unreadable.wal");
        std::fs::create_dir_all(&dir).unwrap();
        let (lines, rec) = replay(&dir);
        std::fs::remove_dir(&dir).ok();
        assert!(lines.is_empty());
        assert!(matches!(rec.stop, FrameStop::ReadError(_)), "{rec:?}");
        assert_eq!((rec.intact_bytes, rec.truncated_bytes), (0, 0));
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
        let (lines, rec) = replay(&path);
        assert_eq!(lines, entries[..2]);
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
        let (lines, rec) = replay(&path);
        assert_eq!(lines, vec![line(1, 10), line(2, 20)]);
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
        let state = HashMap::from([(9, Record::of(line(9, 90)))]);
        let w = JournalWriter::start(cfg(&path), state, keep, &metrics).unwrap();
        let tx = w.sender();
        tx.send(Record::of(line(1, 10))).unwrap();
        tx.send(Record::of(line(2, 20))).unwrap();
        drop(tx);
        // Both records are on disk once the watermark says so.
        await_counter(&metrics, "journal.appended_records", 2);
        let (lines, rec) = replay(&path);
        assert_eq!(lines, vec![line(9, 90), line(1, 10), line(2, 20)]);
        assert_eq!(rec.truncated_bytes, 0);
        // Stopping compacts: an empty journal beside a full snapshot.
        w.finish();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let (snap_lines, snap) = replay(&snapshot_path(&path));
        assert_eq!(snap_lines, vec![line(1, 10), line(2, 20), line(9, 90)]);
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
            tx.send(Record::of(line(k, k * 10))).unwrap();
        }
        // The writer is still running, so this compaction is the size
        // threshold's, not shutdown's.
        await_counter(&metrics, "journal.rotations", 1);
        for k in 16..32 {
            tx.send(Record::of(line(k, k * 10))).unwrap();
        }
        // Crash-after-rotation state, with the writer still running:
        // snapshot + journal tail together hold every record. Reading
        // the journal before the snapshot is race-free against a
        // concurrent compaction, which saves before it truncates.
        await_counter(&metrics, "journal.appended_records", 32);
        let tail = replay(&path).0;
        let (snap_lines, snap_rec) = replay(&snap);
        assert_eq!(snap_rec.skipped, 0);
        let merged: HashMap<u64, CacheLine> = snap_lines
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
        let (snap_lines, snap_rec) = replay(&snap);
        assert_eq!((snap_lines, snap_rec.skipped), (all, 0));
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
        let state = HashMap::from([(4, Record::of(line(4, 40)))]);
        let w = JournalWriter::start(cfg(&path), state, 0, &metrics).unwrap();
        w.finish();
        assert!(!snap.exists(), "an empty journal was compacted");
        assert_eq!(metrics.counter("journal.rotations").get(), 0);
        std::fs::remove_file(&path).ok();
    }
}
