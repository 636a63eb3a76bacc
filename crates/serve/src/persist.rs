//! The entry codec and the atomic snapshot writer behind the
//! write-ahead journal ([`crate::journal`]).
//!
//! A [`CacheLine`]'s compact JSON ([`encode_entry`]) is the format of
//! one journal record's payload (the journal splices the same bytes
//! around a result's stored body); a snapshot ([`save`]) is every
//! entry in one `"type": "cache_dump"` document (version 1), written
//! whenever the journal compacts. Entries are keyed by full-request fingerprint, so
//! state written with N shards loads into a server with M. Nothing
//! reads the machine-config fingerprint back. Fingerprints use the
//! whole 64-bit range while JSON numbers are exact only to 2^53, so
//! they travel as hex strings.

use std::io::Write;
use std::path::Path;

use oov_proto::Json;

use crate::proto::SimResult;

/// One persisted result-cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLine {
    /// Full-request fingerprint — the result-cache key.
    pub key: u64,
    /// Machine-config fingerprint. Not used for routing or lookup;
    /// kept only as part of the entry and journal record format.
    pub machine_fp: u64,
    /// The cached result.
    pub result: SimResult,
}

fn fp_to_hex(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// Encodes one cache entry as a JSON object — the `entries` element of
/// a snapshot, and (compact) the payload of one journal record.
#[must_use]
pub fn encode_entry(e: &CacheLine) -> Json {
    Json::obj(vec![
        ("key", fp_to_hex(e.key).into()),
        ("machine_fp", fp_to_hex(e.machine_fp).into()),
        ("result", Json::Obj(e.result.fields())),
    ])
}

/// Decodes one [`encode_entry`]d object.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn decode_entry(e: &Json) -> Result<CacheLine, String> {
    let fp = |name: &str| {
        e.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("snapshot: entry without `{name}`"))
            .and_then(fp_from_hex)
    };
    Ok(CacheLine {
        key: fp("key")?,
        machine_fp: fp("machine_fp")?,
        result: SimResult::from_json(
            e.get("result")
                .ok_or_else(|| "snapshot: entry without `result`".to_string())?,
        )?,
    })
}

fn fp_from_hex(s: &str) -> Result<u64, String> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("snapshot: fingerprint `{s}` lacks the 0x prefix"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("snapshot: bad fingerprint `{s}`: {e}"))
}

/// Encodes a set of cache entries as one snapshot document.
#[must_use]
pub fn encode(entries: &[CacheLine]) -> Json {
    Json::obj(vec![
        ("type", "cache_dump".into()),
        ("version", 1u64.into()),
        (
            "entries",
            Json::Arr(entries.iter().map(encode_entry).collect()),
        ),
    ])
}

/// Decodes an [`encode`]d document, degrading gracefully at the entry
/// level: a malformed *entry* is skipped (with a warning naming its
/// index) and counted in the returned tally instead of failing the
/// whole load — one bit-rotted line must not throw away the thousands
/// of good results around it.
///
/// # Errors
///
/// Document-level problems (wrong type, unknown `version`, missing
/// `entries`) still fail the load: there is no telling good entries
/// from bad inside a document we cannot identify.
pub fn decode(doc: &Json) -> Result<(Vec<CacheLine>, u64), String> {
    match doc.get("type").and_then(Json::as_str) {
        Some("cache_dump") => {}
        _ => return Err("snapshot: not a cache_dump document".into()),
    }
    match doc.get("version").and_then(Json::as_u64) {
        Some(1) => {}
        v => return Err(format!("snapshot: unsupported version {v:?}")),
    }
    let raw = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| "snapshot: missing `entries`".to_string())?;
    let mut entries = Vec::with_capacity(raw.len());
    let mut skipped = 0u64;
    for (ix, e) in raw.iter().enumerate() {
        match decode_entry(e) {
            Ok(line) => entries.push(line),
            Err(why) => {
                skipped += 1;
                eprintln!("oov-serve: snapshot: skipping malformed entry {ix}: {why}");
            }
        }
    }
    Ok((entries, skipped))
}

/// Writes a snapshot to `path`, durably and atomically: temp file +
/// `fsync` + rename + **fsync of the parent directory** (without the
/// last step the rename itself can be lost to a crash, resurrecting
/// the old snapshot — or nothing). The temp name carries the writer's
/// pid (`<path>.tmp.<pid>`), so two servers sharing a path cannot
/// clobber each other's in-flight temp file; the loser of the final
/// rename race still leaves a complete, valid snapshot. A failed save
/// removes its temp file, so a retried compaction leaves nothing
/// behind.
///
/// # Errors
///
/// Propagates filesystem errors as text.
pub fn save(path: &Path, entries: &[CacheLine]) -> Result<(), String> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let doc = encode(entries);
    (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{}", doc.pretty())?;
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

/// Reads a snapshot written by [`save`]; returns the good entries plus
/// the count of malformed entries skipped (see [`decode`]).
///
/// # Errors
///
/// Propagates filesystem and parse errors as text.
pub fn load(path: &Path) -> Result<(Vec<CacheLine>, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    decode(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_stats::SimStats;

    fn line(key: u64, machine_fp: u64, cycles: u64) -> CacheLine {
        CacheLine {
            key,
            machine_fp,
            result: SimResult {
                stats: SimStats {
                    cycles,
                    committed: 7,
                    ..SimStats::new()
                },
                ideal_cycles: 3,
                faults_taken: 0,
                cached: false,
                shard: 2,
            },
        }
    }

    #[test]
    fn round_trip_preserves_full_range_fingerprints() {
        // Fingerprints above 2^53 would corrupt silently as JSON
        // numbers; the hex-string encoding must carry them exactly.
        let entries = vec![line(u64::MAX, 0xdead_beef_cafe_f00d, 123), line(1, 0, 456)];
        let doc = encode(&entries);
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(decode(&reparsed).unwrap(), (entries, 0));
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let path = std::env::temp_dir().join(format!("oov_cache_{}.json", std::process::id()));
        let entries = vec![line(42, 99, 1000)];
        save(&path, &entries).unwrap();
        assert_eq!(load(&path).unwrap(), (entries, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_leaves_no_temp_file() {
        // A directory in the way makes the final rename fail after the
        // temp file was written and synced.
        let path = std::env::temp_dir().join(format!("oov_snap_dir_{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        assert!(save(&path, &[line(1, 10, 100)]).is_err());
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(format!(".tmp.{}", std::process::id()));
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "failed save left its temp file behind"
        );
        std::fs::remove_dir(&path).ok();
    }

    #[test]
    fn malformed_entry_is_skipped_and_counted() {
        let entries = vec![line(1, 10, 100), line(2, 20, 200), line(3, 30, 300)];
        let mut doc = encode(&entries);
        // Corrupt the middle entry's key in place.
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        for (k, v) in pairs.iter_mut() {
            if k != "entries" {
                continue;
            }
            let Json::Arr(arr) = v else { unreachable!() };
            let Json::Obj(entry) = &mut arr[1] else {
                unreachable!()
            };
            for (ek, ev) in entry.iter_mut() {
                if ek == "key" {
                    *ev = "not-hex".into();
                }
            }
        }
        let (good, skipped) = decode(&doc).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(good, vec![line(1, 10, 100), line(3, 30, 300)]);
    }

    #[test]
    fn decode_rejects_wrong_type_and_version() {
        let not_dump = Json::obj(vec![("type", "sweep".into())]);
        assert!(decode(&not_dump).is_err());
        let mut doc = encode(&[]);
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = 2u64.into();
                }
            }
        }
        assert!(decode(&doc).unwrap_err().contains("version"));
    }
}
