//! Write-ahead journal for the result cache.
//!
//! Shutdown-only persistence ([`crate::persist`]) loses every result
//! since startup to a crash, OOM-kill or power loss — and each result
//! is exactly the expensive thing this daemon exists to avoid
//! recomputing. The journal closes that window: every cache insert is
//! appended, through a batching writer thread, as one framed record
//!
//! ```text
//! +-------------+---------------+==============================+
//! | len: u32 LE | crc32: u32 LE | compact JSON of one entry    |
//! +-------------+---------------+==============================+
//! ```
//!
//! ([`oov_proto::frame_record`]) to an append-only file, fsynced per
//! batch. Recovery ([`recover`]) replays the file from the start and
//! **truncates at the first torn or corrupt record** instead of
//! failing — everything before the tear is durable, and a crash
//! mid-append costs at most the final batch. A record whose frame is
//! intact but whose JSON no longer decodes (say, a schema change) is
//! skipped with a counted warning, like a malformed dump entry.
//!
//! # Snapshot + compaction
//!
//! The writer thread keeps the full persistent state in memory (it
//! sees every insert, so this costs no coordination with the workers).
//! When the journal grows past [`JournalConfig::max_bytes`], it
//! writes a full snapshot — `persist::save`'s temp + fsync + rename +
//! parent-dir-fsync discipline — to `<journal>.snapshot` and
//! truncates the journal. Startup therefore loads **snapshot +
//! journal tail** (plus any `--cache-load` seed underneath), each
//! layer overriding the one below, so `--cache-load` keeps working
//! unchanged while the journal bounds both recovery time and disk.
//!
//! A clean shutdown (which writes the `--cache-dump` file) truncates
//! the journal too; the dump is authoritative at that point.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;

use oov_proto::{frame_record, FrameReader, Json};

use crate::persist::{self, CacheLine};

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

impl JournalConfig {
    /// A journal at `path` with the default rotation threshold.
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        JournalConfig {
            path,
            max_bytes: DEFAULT_JOURNAL_MAX_BYTES,
        }
    }
}

/// `<journal>.snapshot` — where compaction parks the full state.
#[must_use]
pub fn snapshot_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".snapshot");
    PathBuf::from(name)
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

/// Encodes one cache entry as a journal-record payload (compact JSON).
#[must_use]
pub fn encode_record(entry: &CacheLine) -> Vec<u8> {
    persist::encode_entry(entry).encode().into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<CacheLine, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("{e}"))?;
    persist::decode_entry(&doc)
}

/// Replays a journal file, stopping at the first torn or corrupt
/// record. A missing file is an empty journal, not an error — the
/// first run of a `--journal` server starts that way.
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
             prefix, truncating {} bytes",
            path.display(),
            reader.stop(),
            rec.entries.len(),
            rec.truncated_bytes
        );
    }
    rec
}

/// Pre-fetched metric handles for the writer thread.
pub(crate) struct JournalCounters {
    pub appended_records: std::sync::Arc<oov_obs::Counter>,
    pub appended_bytes: std::sync::Arc<oov_obs::Counter>,
    pub rotations: std::sync::Arc<oov_obs::Counter>,
}

/// The batching journal writer: owns the file, the full persistent
/// state (for snapshots), and the compaction policy. Workers talk to it
/// through a clonable [`mpsc::Sender`] — an append is one non-blocking
/// send, never an fsync on the request path.
pub(crate) struct JournalWriter {
    tx: Option<mpsc::Sender<CacheLine>>,
    thread: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl JournalWriter {
    /// Opens (creating if needed) and truncates the journal to its
    /// intact prefix, then starts the writer thread. `state` is the
    /// recovered persistent state (seed + snapshot + journal tail,
    /// merged) the thread snapshots from; `intact_bytes` comes from
    /// [`recover`].
    pub(crate) fn start(
        cfg: JournalConfig,
        state: HashMap<u64, CacheLine>,
        intact_bytes: u64,
        counters: JournalCounters,
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
        let (tx, rx) = mpsc::channel::<CacheLine>();
        let path = cfg.path.clone();
        let thread = std::thread::Builder::new()
            .name("oov-journal".to_string())
            .spawn(move || writer_loop(&rx, file, state, &cfg, &counters))
            .map_err(|e| format!("journal writer spawn: {e}"))?;
        Ok(JournalWriter {
            tx: Some(tx),
            thread: Some(thread),
            path,
        })
    }

    /// A sender workers append through.
    pub(crate) fn sender(&self) -> mpsc::Sender<CacheLine> {
        self.tx.as_ref().expect("writer running").clone()
    }

    /// Drains and stops the writer. With `truncate`, the journal is
    /// then emptied — the caller just wrote an authoritative dump, so
    /// replaying the journal on top would only repeat it.
    pub(crate) fn finish(mut self, truncate: bool) {
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if truncate {
            if let Err(e) = std::fs::OpenOptions::new()
                .write(true)
                .open(&self.path)
                .and_then(|f| {
                    f.set_len(0)?;
                    f.sync_all()
                })
            {
                eprintln!(
                    "oov-serve: journal {}: truncate after dump failed: {e}",
                    self.path.display()
                );
            }
        }
    }
}

/// The writer thread: batch, frame, append, fsync; snapshot + truncate
/// past the size threshold. Exits when every sender is gone.
fn writer_loop(
    rx: &mpsc::Receiver<CacheLine>,
    mut file: std::fs::File,
    mut state: HashMap<u64, CacheLine>,
    cfg: &JournalConfig,
    counters: &JournalCounters,
) {
    let mut journal_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut buf: Vec<u8> = Vec::with_capacity(64 << 10);
    while let Ok(first) = rx.recv() {
        buf.clear();
        let mut records = 0u64;
        let mut next = Some(first);
        while let Some(entry) = next {
            if frame_record(&encode_record(&entry), &mut buf).is_some() {
                records += 1;
            }
            state.insert(entry.key, entry);
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
        if journal_bytes <= cfg.max_bytes {
            continue;
        }
        // Compaction: snapshot the full state, then truncate. A crash
        // between the two leaves snapshot + journal overlapping, which
        // replay handles (same keys, same values — later wins).
        let mut entries: Vec<CacheLine> = state.values().cloned().collect();
        entries.sort_by_key(|e| e.key);
        match persist::save(&snapshot_path(&cfg.path), &entries) {
            Ok(()) => {
                let truncated = file.set_len(0).and_then(|()| file.sync_all());
                match truncated {
                    Ok(()) => {
                        journal_bytes = 0;
                        counters.rotations.inc();
                    }
                    Err(e) => eprintln!(
                        "oov-serve: journal {}: post-snapshot truncate failed: {e}",
                        cfg.path.display()
                    ),
                }
            }
            Err(e) => eprintln!(
                "oov-serve: journal {}: snapshot failed ({e}); journal keeps growing",
                cfg.path.display()
            ),
        }
    }
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

    fn counters() -> JournalCounters {
        let reg = oov_obs::Registry::new();
        JournalCounters {
            appended_records: reg.counter("journal.appended_records"),
            appended_bytes: reg.counter("journal.appended_bytes"),
            rotations: reg.counter("journal.rotations"),
        }
    }

    #[test]
    fn writer_appends_durably_and_truncates_torn_tail() {
        let path = tmp("writer.wal");
        std::fs::remove_file(&path).ok();
        // Pre-existing torn tail: start() must drop it.
        write_journal(&path, &[line(9, 90)]);
        let keep = std::fs::metadata(&path).unwrap().len();
        let mut buf = std::fs::read(&path).unwrap();
        buf.extend_from_slice(&[0xAB; 6]);
        std::fs::write(&path, &buf).unwrap();

        let w = JournalWriter::start(
            JournalConfig::new(path.clone()),
            HashMap::new(),
            keep,
            counters(),
        )
        .unwrap();
        let tx = w.sender();
        tx.send(line(1, 10)).unwrap();
        tx.send(line(2, 20)).unwrap();
        drop(tx);
        w.finish(false);
        let rec = recover(&path);
        assert_eq!(rec.entries, vec![line(9, 90), line(1, 10), line(2, 20)]);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
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
        let c = counters();
        let rotations = std::sync::Arc::clone(&c.rotations);
        let w = JournalWriter::start(cfg, HashMap::new(), 0, c).unwrap();
        let tx = w.sender();
        for k in 0..32 {
            tx.send(line(k, k * 10)).unwrap();
        }
        drop(tx);
        w.finish(false);
        assert!(rotations.get() >= 1, "no compaction happened");
        // Snapshot + journal tail together hold every record.
        let (snap_entries, skipped) = persist::load(&snap).unwrap();
        assert_eq!(skipped, 0);
        let mut merged: HashMap<u64, CacheLine> =
            snap_entries.into_iter().map(|e| (e.key, e)).collect();
        for e in recover(&path).entries {
            merged.insert(e.key, e);
        }
        assert_eq!(merged.len(), 32);
        for k in 0..32u64 {
            assert_eq!(merged[&k].result.stats.cycles, k * 10);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn finish_truncate_empties_journal() {
        let path = tmp("finish.wal");
        std::fs::remove_file(&path).ok();
        let w = JournalWriter::start(
            JournalConfig::new(path.clone()),
            HashMap::new(),
            0,
            counters(),
        )
        .unwrap();
        w.sender().send(line(4, 40)).unwrap();
        w.finish(true);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }
}
