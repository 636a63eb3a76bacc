//! Wire-format plumbing shared by the bench artifacts and `oov-serve`.
//!
//! The workspace is dependency-free (no serde), so this crate provides
//! the minimal machinery the rest of the system needs to speak
//! newline-delimited JSON and to fingerprint requests:
//!
//! * [`Json`] — a JSON value model with one writer (compact
//!   [`Json::encode`], which `Display` and [`Json::pretty`] share) and
//!   one recursive-descent [`Parser`]. The writer puts its bytes into
//!   a [`Sink`]: a `String`, or an [`Fnv1a`] that hashes the encoding
//!   without materialising it. It does no per-node allocation. The
//!   parser builds trees for [`Json::parse`] and is the pull reader of
//!   the typed decoders, which build no tree. The output is
//!   byte-identical by contract, because fingerprints and the journal
//!   are built from it;
//! * [`json_record!`] and [`JsonField`] — one field list per struct
//!   writes its typed codec (`write_json`/`read_json`, the request
//!   path's and the journal replay's) and its tree codec
//!   (`to_json` for tree-built documents, and `from_json`, the tests'
//!   oracle), so a field's wire name is written once. A `strict` record needs every field; a `defaulting`
//!   one fills a missing field from its default, rejects unknown keys
//!   and gets a compact writer that leaves out what equals the
//!   default. A `packed` record is a strict one that also packs into
//!   LEB128 varints ([`PackedField`]), the form a store of many results
//!   keeps them in;
//! * [`Fnv1a`] — the 64-bit FNV-1a hash, used for stable config and
//!   request fingerprints (stable across processes and platforms,
//!   unlike `std::collections::hash_map::DefaultHasher`);
//! * [`crc32`] and [`FrameReader`] — CRC-32/IEEE and length-prefixed
//!   checksummed record framing, the on-disk format of the serve
//!   write-ahead journal, read from any `io::Read` one record at a
//!   time (torn or corrupt tails truncate instead of failing recovery;
//!   a read error is reported apart from them).
//!
//! # Example
//!
//! ```
//! use oov_proto::Json;
//!
//! let v = Json::parse(r#"{"name": "swm256", "cycles": 12750}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("swm256"));
//! assert_eq!(v.get("cycles").and_then(Json::as_u64), Some(12750));
//! assert_eq!(Json::parse(&v.encode()).unwrap(), v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod fnv;
mod frame;
mod json;
mod packed;
mod record;

pub use crc::{crc32, Crc32};
pub use fnv::{fingerprint_bytes, Fnv1a};
pub use frame::{frame_record, FrameReader, FrameStop, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD};
pub use json::{write_str, write_u64, Json, ParseError, Parser, Sink};
#[doc(hidden)]
pub use packed::max_packed_bytes;
pub use packed::{PackError, PackedField, Packer, Unpacker, MAX_VARINT_BYTES};
pub use record::{first_unknown_key, unknown_field, Decoded, JsonField};
