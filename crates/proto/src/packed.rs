//! Packed counters: a record of counts as a run of LEB128 varints.
//!
//! A simulation result's counters are mostly small numbers, and many
//! are zero, so a store that holds many results keeps each one as its
//! fields' varints, in field order, with no keys and no framing: seven
//! bits of the value per byte, low bits first, the top bit set on
//! every byte but the last. A `u64` takes 1 to
//! [`MAX_VARINT_BYTES`] bytes.
//!
//! [`PackedField`] is the per-type codec. A
//! [`json_record!`](crate::json_record) in `packed` mode writes it for
//! the record from the same field list as its JSON codecs, so adding a
//! field needs no second list. The packer writes into a caller's
//! fixed buffer (a stack array of the record's [`PackedField::MAX_BYTES`])
//! and the unpacker reads a borrowed slice, so neither allocates.

use std::fmt;

/// Bytes of the longest varint: `u64::MAX`.
pub const MAX_VARINT_BYTES: usize = 10;

/// Why packed bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// The input ended inside a varint or before the last field.
    Truncated,
    /// A varint ran past [`MAX_VARINT_BYTES`] or past 64 bits.
    Overlong,
    /// Bytes were left after the last field.
    Trailing,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PackError::Truncated => "packed counters: truncated",
            PackError::Overlong => "packed counters: varint past 64 bits",
            PackError::Trailing => "packed counters: trailing bytes",
        })
    }
}

impl std::error::Error for PackError {}

/// Writes varints into a fixed buffer.
pub struct Packer<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl<'a> Packer<'a> {
    /// A packer that fills `buf` from its start.
    pub fn new(buf: &'a mut [u8]) -> Self {
        Packer { buf, len: 0 }
    }

    /// Appends `n` as a varint.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full: it was sized below the
    /// [`PackedField::MAX_BYTES`] of what is packed into it.
    pub fn u64(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.buf[self.len] = (n as u8) | 0x80;
            self.len += 1;
            n >>= 7;
        }
        self.buf[self.len] = n as u8;
        self.len += 1;
    }

    /// The bytes packed so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Reads varints from a slice, front to back.
///
/// The first error is kept, and every read after it yields 0, so a
/// record reads all its fields without a branch per field and checks
/// once, at [`Unpacker::end`].
pub struct Unpacker<'a> {
    bytes: &'a [u8],
    error: Option<PackError>,
}

impl<'a> Unpacker<'a> {
    /// An unpacker over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Unpacker { bytes, error: None }
    }

    /// Reads the next varint: 0, with the error kept, if the input ends
    /// inside it ([`PackError::Truncated`]) or it runs past 64 bits
    /// ([`PackError::Overlong`]).
    pub fn u64(&mut self) -> u64 {
        let mut n = 0u64;
        for (i, &byte) in self.bytes.iter().enumerate() {
            // The tenth byte holds bit 63 alone.
            if i == MAX_VARINT_BYTES - 1 && byte > 1 {
                return self.fail(PackError::Overlong);
            }
            n |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                self.bytes = &self.bytes[i + 1..];
                return n;
            }
        }
        self.fail(PackError::Truncated)
    }

    /// Keeps the first error and stops reading.
    fn fail(&mut self, error: PackError) -> u64 {
        self.error.get_or_insert(error);
        self.bytes = &[];
        0
    }

    /// Checks that every read succeeded and every byte was read.
    ///
    /// # Errors
    ///
    /// The first read's error, or [`PackError::Trailing`] if bytes are
    /// left.
    pub fn end(&self) -> Result<(), PackError> {
        match self.error {
            Some(error) => Err(error),
            None if !self.bytes.is_empty() => Err(PackError::Trailing),
            None => Ok(()),
        }
    }
}

/// A type whose value packs into varints: a count, or a record of
/// them.
pub trait PackedField: Sized {
    /// The most bytes [`PackedField::pack`] writes for any value.
    const MAX_BYTES: usize;

    /// Appends the value's varints.
    fn pack(&self, out: &mut Packer<'_>);

    /// Reads back what [`PackedField::pack`] wrote. Input that ends
    /// early or holds an overlong varint leaves its error in `input`,
    /// for [`Unpacker::end`] to return.
    fn unpack(input: &mut Unpacker<'_>) -> Self;
}

impl PackedField for u64 {
    const MAX_BYTES: usize = MAX_VARINT_BYTES;

    fn pack(&self, out: &mut Packer<'_>) {
        out.u64(*self);
    }

    fn unpack(input: &mut Unpacker<'_>) -> Self {
        input.u64()
    }
}

/// The [`PackedField::MAX_BYTES`] of the field `field` projects to: how
/// a `packed` record sums its fields' bounds without naming their
/// types.
#[doc(hidden)]
#[must_use]
pub const fn max_packed_bytes<R, T: PackedField>(field: fn(&R) -> &T) -> usize {
    let _ = field;
    T::MAX_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(n: u64) -> Vec<u8> {
        let mut buf = [0; MAX_VARINT_BYTES];
        let mut out = Packer::new(&mut buf);
        out.u64(n);
        out.bytes().to_vec()
    }

    #[test]
    fn varints_round_trip_at_every_length() {
        for (n, len) in [
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            ((1 << 53) + 1, 8),
            ((1 << 63) - 1, 9),
            (1 << 63, 10),
            (u64::MAX, 10),
        ] {
            let bytes = packed(n);
            assert_eq!(bytes.len(), len, "{n}");
            let mut input = Unpacker::new(&bytes);
            assert_eq!(input.u64(), n);
            assert_eq!(input.end(), Ok(()));
        }
        assert_eq!(packed(300), [0xac, 0x02]);
    }

    /// The value and the outcome of reading one varint from `bytes`.
    fn read_one(bytes: &[u8]) -> (u64, Result<(), PackError>) {
        let mut input = Unpacker::new(bytes);
        let n = input.u64();
        (n, input.end())
    }

    #[test]
    fn bad_varints_are_errors() {
        for bytes in [&[][..], &[0x80], &[0xff; 9]] {
            assert_eq!(read_one(bytes), (0, Err(PackError::Truncated)));
        }
        // Eleven bytes, and a tenth byte past bit 63.
        let mut eleven = [0x80; 11];
        eleven[10] = 0;
        assert_eq!(read_one(&eleven), (0, Err(PackError::Overlong)));
        let mut past = [0xff; 10];
        past[9] = 2;
        assert_eq!(read_one(&past), (0, Err(PackError::Overlong)));
        assert_eq!(read_one(&[1, 2]), (1, Err(PackError::Trailing)));
        // The first error is kept; later reads yield 0.
        let mut input = Unpacker::new(&[0x80]);
        assert_eq!((input.u64(), input.u64()), (0, 0));
        assert_eq!(input.end(), Err(PackError::Truncated));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_full_buffer_panics() {
        let mut buf = [0; 2];
        Packer::new(&mut buf).u64(1 << 14);
    }
}
