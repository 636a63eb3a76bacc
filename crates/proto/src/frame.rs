//! Length-prefixed, checksummed record framing for append-only logs.
//!
//! Each record on the wire is
//!
//! ```text
//! +----------------+----------------+=====================+
//! | len: u32 LE    | crc32: u32 LE  | payload (len bytes) |
//! +----------------+----------------+=====================+
//! ```
//!
//! where the CRC covers exactly the payload bytes. The format is
//! designed for crash recovery of a write-ahead journal: a reader
//! scanning from the start of the file treats the first record whose
//! header or payload is short (a torn append) or whose checksum does
//! not match (bit rot, or a torn append that happened to leave enough
//! bytes behind) as the end of the log, and everything before it as
//! durable. A corrupted length field is indistinguishable from a torn
//! record by construction — an absurd length simply runs past the end
//! of the input and truncates there, and a plausible-but-wrong length
//! misaligns the CRC, which then fails. A read error is neither: it
//! says nothing about the bytes it hid, so the reader reports it as
//! its own stop.

use std::io::{self, Read};

use crate::crc::crc32;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Records larger than this are rejected at append time and treated as
/// corruption at read time. A journal record holds one cache entry
/// (a few KiB of JSON); 64 MiB is far past anything legitimate while
/// still letting a corrupt length field fail fast instead of trying to
/// slurp a multi-gigabyte "payload".
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Append one framed record to `out`. Returns the number of bytes
/// written, or `None` if the payload exceeds [`MAX_FRAME_PAYLOAD`]
/// (nothing is written in that case).
pub fn frame_record(payload: &[u8], out: &mut Vec<u8>) -> Option<usize> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return None;
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Some(FRAME_HEADER_BYTES + payload.len())
}

/// Why a [`FrameReader`] stopped before the end of its input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrameStop {
    /// The input ended exactly on a record boundary.
    #[default]
    Clean,
    /// Fewer than [`FRAME_HEADER_BYTES`] bytes remained — a torn
    /// header.
    TornHeader,
    /// The header promised more payload bytes than remain — a torn
    /// payload (or a corrupt length field, which reads the same).
    TornPayload,
    /// The payload was fully present but its checksum did not match.
    BadChecksum,
    /// Reading the input failed. Unlike the stops above this is not a
    /// tear: the bytes past the intact prefix were never seen, so they
    /// may hold good records.
    ReadError(io::ErrorKind),
}

/// Streaming reader over framed records from any [`Read`] (a file, or
/// a byte slice).
///
/// Yields each intact payload in order via [`FrameReader::next_record`]
/// and stops permanently at the first torn or corrupt record, or at
/// the first read error. After `next_record` returns `None`,
/// [`FrameReader::stop`] says why and [`FrameReader::consumed`] gives
/// the byte offset of the last good record boundary — the offset a
/// recovery pass should truncate the log to, unless the stop is a
/// [`FrameStop::ReadError`].
///
/// Every payload is read into one buffer that the reader reuses, so a
/// pass holds one record at a time. A header's length is checked
/// against the bytes that actually arrive, so a corrupt length never
/// makes the buffer larger than the rest of the input. Give a file a
/// buffered reader: the reader makes two reads per record.
pub struct FrameReader<R> {
    src: R,
    /// The record being read: its header, then its payload.
    buf: Vec<u8>,
    /// Bytes of intact records yielded so far.
    pos: usize,
    /// Bytes read past `pos`.
    tail: usize,
    stop: FrameStop,
    done: bool,
}

impl<R: Read> FrameReader<R> {
    /// Reader over `src`, positioned at the first record.
    pub fn new(src: R) -> Self {
        FrameReader {
            src,
            buf: Vec::new(),
            pos: 0,
            tail: 0,
            stop: FrameStop::Clean,
            done: false,
        }
    }

    /// Next intact payload, or `None` at the end of the intact prefix.
    /// The payload lives in the reader's buffer until the next call.
    pub fn next_record(&mut self) -> Option<&[u8]> {
        if self.done {
            return None;
        }
        if let Err(stop) = self.read_frame() {
            self.halt(stop);
            return None;
        }
        self.pos += self.tail;
        self.tail = 0;
        Some(&self.buf)
    }

    /// Reads the next record into `buf`, or says why there is none.
    fn read_frame(&mut self) -> Result<(), FrameStop> {
        let got = self.fill(FRAME_HEADER_BYTES)?;
        if got < FRAME_HEADER_BYTES {
            return Err(if got == 0 {
                FrameStop::Clean
            } else {
                FrameStop::TornHeader
            });
        }
        let b = &self.buf;
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        let crc = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        if len > MAX_FRAME_PAYLOAD || self.fill(len)? < len {
            return Err(FrameStop::TornPayload);
        }
        if crc32(&self.buf) != crc {
            return Err(FrameStop::BadChecksum);
        }
        Ok(())
    }

    /// Replaces `buf` with up to `n` more bytes of input and returns
    /// how many arrived: fewer than `n` only at the end of the input.
    fn fill(&mut self, n: usize) -> Result<usize, FrameStop> {
        self.buf.clear();
        let read = (&mut self.src).take(n as u64).read_to_end(&mut self.buf);
        // On an error, `buf` still holds what arrived before it.
        self.tail += self.buf.len();
        read.map_err(|e| FrameStop::ReadError(e.kind()))
    }

    /// Stops for good with `stop`. After a tear, the rest of the input
    /// is read and counted, so [`FrameReader::truncated`] covers it.
    fn halt(&mut self, stop: FrameStop) {
        self.stop = stop;
        self.done = true;
        if let FrameStop::ReadError(_) = stop {
            return;
        }
        match io::copy(&mut self.src, &mut io::sink()) {
            Ok(rest) => self.tail += rest as usize,
            Err(e) => self.stop = FrameStop::ReadError(e.kind()),
        }
    }

    /// Byte offset just past the last intact record — the length the
    /// log should be truncated to on recovery.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Bytes past the intact prefix (0 when the log ended cleanly).
    /// After a [`FrameStop::ReadError`], only those that arrived.
    pub fn truncated(&self) -> usize {
        self.tail
    }

    /// Why reading stopped ([`FrameStop::Clean`] until it has).
    pub fn stop(&self) -> FrameStop {
        self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            frame_record(p, &mut buf).unwrap();
        }
        buf
    }

    #[test]
    fn round_trip() {
        let buf = journal(&[b"alpha", b"", b"gamma gamma"]);
        let mut r = FrameReader::new(&buf[..]);
        assert_eq!(r.next_record(), Some(&b"alpha"[..]));
        assert_eq!(r.next_record(), Some(&b""[..]));
        assert_eq!(r.next_record(), Some(&b"gamma gamma"[..]));
        assert_eq!(r.next_record(), None);
        assert_eq!(r.stop(), FrameStop::Clean);
        assert_eq!(r.consumed(), buf.len());
        assert_eq!(r.truncated(), 0);
    }

    #[test]
    fn torn_tail_keeps_prefix() {
        let buf = journal(&[b"one", b"two", b"three"]);
        // Cut the last record mid-payload, mid-header, and to nothing.
        for cut in [buf.len() - 2, buf.len() - 9, buf.len() - 11] {
            let torn = &buf[..cut];
            let mut r = FrameReader::new(torn);
            assert_eq!(r.next_record(), Some(&b"one"[..]));
            assert_eq!(r.next_record(), Some(&b"two"[..]));
            assert_eq!(r.next_record(), None);
            assert_ne!(r.stop(), FrameStop::Clean);
            // Truncation point is the boundary after "two".
            assert_eq!(r.consumed(), journal(&[b"one", b"two"]).len());
        }
    }

    #[test]
    fn bit_flip_stops_at_the_flip() {
        let clean = journal(&[b"first", b"second", b"third"]);
        let second_starts = journal(&[b"first"]).len();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                let mut r = FrameReader::new(&buf[..]);
                let mut got = Vec::new();
                while let Some(p) = r.next_record() {
                    got.push(p.to_vec());
                }
                if byte < second_starts {
                    // Flip inside record 1: nothing survives. (A flip
                    // in the length field may also eat later records —
                    // that is the documented torn-read semantics — but
                    // record 1 itself must never be yielded.)
                    assert!(got.is_empty(), "byte {byte} bit {bit}: {got:?}");
                } else {
                    // Records before the flip always survive intact.
                    assert_eq!(got[0], b"first");
                }
                // Never a corrupted payload: every yielded record is
                // one of the originals.
                for p in &got {
                    assert!(
                        [&b"first"[..], b"second", b"third"].contains(&p.as_slice()),
                        "byte {byte} bit {bit} yielded corrupt {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn absurd_length_reads_as_torn() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let mut r = FrameReader::new(&buf[..]);
        assert_eq!(r.next_record(), None);
        assert_eq!(r.stop(), FrameStop::TornPayload);
        assert_eq!(r.consumed(), 0);
    }

    #[test]
    fn oversized_payload_rejected_at_append() {
        let big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        let mut out = Vec::new();
        assert_eq!(frame_record(&big, &mut out), None);
        assert!(out.is_empty());
    }

    /// A source that yields `ok` bytes of `buf`, a few at a time, and
    /// then fails every read.
    struct FailsAfter<'a> {
        buf: &'a [u8],
        ok: usize,
    }

    impl Read for FailsAfter<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.ok == 0 {
                return Err(io::Error::from(io::ErrorKind::Other));
            }
            let n = out.len().min(self.ok).min(3);
            out[..n].copy_from_slice(&self.buf[..n]);
            self.buf = &self.buf[n..];
            self.ok -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_is_not_a_tear() {
        let buf = journal(&[b"one", b"two", b"three"]);
        let two_end = journal(&[b"one", b"two"]).len();
        // Fail inside each part of record 3, and on its first byte.
        for ok in [two_end, two_end + 5, two_end + 10, buf.len() - 1] {
            let mut r = FrameReader::new(FailsAfter { buf: &buf, ok });
            assert_eq!(r.next_record(), Some(&b"one"[..]));
            assert_eq!(r.next_record(), Some(&b"two"[..]));
            assert_eq!(r.next_record(), None, "failing after {ok} bytes");
            assert_eq!(r.next_record(), None);
            assert_eq!(r.stop(), FrameStop::ReadError(io::ErrorKind::Other));
            assert_eq!(r.consumed(), two_end);
            assert_eq!(r.truncated(), ok - two_end);
        }
        // A corrupt record 3 whose following bytes cannot be read: the
        // stop says the input was not read to its end.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 1;
        bad.extend_from_slice(b"more");
        let mut r = FrameReader::new(FailsAfter {
            buf: &bad,
            ok: buf.len(),
        });
        while r.next_record().is_some() {}
        assert_eq!(r.stop(), FrameStop::ReadError(io::ErrorKind::Other));
        assert_eq!(r.consumed(), two_end);
    }
}
