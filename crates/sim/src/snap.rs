//! Hand-rolled binary snapshot codec for checkpoint files.
//!
//! The checkpoint subsystem serializes the complete live state of a
//! simulation into a versioned, checksummed byte stream. The workspace has
//! no real serialization dependency (the in-tree `serde` is a no-op marker
//! shim), so this module provides the primitives directly: a little-endian
//! [`SnapWriter`]/[`SnapReader`] pair, the word-at-a-time [`checksum64`]
//! that frames checkpoint files, and the FNV-1a [`fnv1a64`] digest.
//!
//! Two invariants matter for the resume-determinism contract:
//!
//! * **Bit-exact floats.** `f64` values travel as their IEEE-754 bit
//!   patterns (`to_bits`/`from_bits`), so a resumed run re-reads exactly
//!   the value the checkpointed run held — including signed zeros and the
//!   ±∞ sentinels used by empty running statistics.
//! * **Fallible reads.** Every read returns a [`SnapError`] on truncation
//!   or malformed data instead of panicking, so a corrupt checkpoint is
//!   rejected with a diagnostic rather than aborting the process.

use core::fmt;

/// A snapshot decoding failure: truncation, a bad tag, or a value outside
/// its domain. The message names what was being read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(String);

impl SnapError {
    /// Creates an error with the given description.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        SnapError(msg.into())
    }

    /// The human-readable failure description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SnapError {}

/// Word-at-a-time 64-bit checksum of a byte slice: the checkpoint frame
/// checksum.
///
/// Each little-endian `u64` word is xored into the state, which is then
/// multiplied by an odd constant and xor-shifted; the zero-padded tail and
/// the length are folded in the same way. Every step is a bijection of the
/// state, so a change confined to one word — every single-bit flip
/// included — always changes the result. The xor-shift keeps top-bit flips
/// in two adjacent words from cancelling, which a bare xor-multiply chain
/// allows. Not cryptographic: it detects truncation and bit rot, which is
/// all a local checkpoint file needs.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    fn mix(h: u64, word: u64) -> u64 {
        let h = (h ^ word).wrapping_mul(K);
        h ^ (h >> 32)
    }
    let mut h: u64 = 0x243F_6A88_85A3_08D3;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let rest = words.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    h = mix(h, u64::from_le_bytes(tail));
    mix(h, bytes.len() as u64)
}

/// FNV-1a 64-bit hash of a byte slice, used for sweep progress files and
/// report digests. Byte-serial, so several times slower than
/// [`checksum64`] on large inputs.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Appends little-endian primitives to a growing byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer whose buffer holds `capacity` bytes before
    /// it first grows.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix (caller tracks framing).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an `Option` as a presence byte followed by the value.
    pub fn option<T>(&mut self, v: Option<&T>, mut write: impl FnMut(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                write(self, x);
            }
            None => self.bool(false),
        }
    }

    /// Writes a slice as a length prefix followed by each element.
    pub fn seq<T>(&mut self, xs: &[T], mut write: impl FnMut(&mut Self, &T)) {
        self.usize(xs.len());
        for x in xs {
            write(self, x);
        }
    }
}

/// Reads little-endian primitives from a byte slice, tracking position.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf` starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        let buf = self.buf;
        match buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(self.truncated(n, what)),
        }
    }

    /// The error for a read of `n` bytes past the end, kept out of line so
    /// the read path stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize, what: &str) -> SnapError {
        SnapError::new(format!(
            "truncated snapshot: need {n} bytes for {what}, {} left",
            self.remaining()
        ))
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    /// Reads a `usize` stored as a `u64`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::new(format!("usize value {v} overflows")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a boolean, rejecting bytes other than 0 and 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapError::new(format!(
                "truncated snapshot: string of {len} bytes, {} left",
                self.remaining()
            )));
        }
        let bytes = self.take(len, "string body")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::new("string is not valid UTF-8".to_string()))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n, "raw bytes")
    }

    /// Reads an `Option` written by [`SnapWriter::option`].
    pub fn option<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(read(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads the length prefix of a sequence written by
    /// [`SnapWriter::seq`]. Every element takes at least one byte, so a
    /// prefix longer than the bytes left is rejected before the caller
    /// allocates for it.
    pub fn seq_len(&mut self) -> Result<usize, SnapError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapError::new(format!(
                "truncated snapshot: sequence of {len} elements, {} bytes left",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a sequence written by [`SnapWriter::seq`].
    pub fn seq<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let len = self.seq_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(read(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::INFINITY);
        w.f64(1.5e-300);
        w.bool(true);
        w.bool(false);
        w.string("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.f64().unwrap(), 1.5e-300);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn option_and_seq_round_trip() {
        let mut w = SnapWriter::new();
        w.option(Some(&3u64), |w, &v| w.u64(v));
        w.option(None::<&u64>, |w, &v| w.u64(v));
        w.seq(&[1u64, 2, 3], |w, &v| w.u64(v));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.option(|r| r.u64()).unwrap(), Some(3));
        assert_eq!(r.option(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let mut bytes = w.into_bytes();
        bytes.truncate(5);
        let mut r = SnapReader::new(&bytes);
        let err = r.u64().unwrap_err();
        assert!(err.message().contains("truncated"), "{err}");
    }

    #[test]
    fn corrupt_length_prefixes_are_rejected() {
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.seq(|r| r.u8()).is_err());

        let mut w = SnapWriter::new();
        w.usize(1_000_000); // string claims more bytes than exist
        w.raw(b"short");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.string().is_err());
    }

    #[test]
    fn invalid_bool_byte_is_rejected() {
        let mut r = SnapReader::new(&[2]);
        assert!(r.bool().is_err());
    }

    #[test]
    fn non_utf8_string_is_rejected() {
        let mut w = SnapWriter::new();
        w.usize(2);
        w.raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.string().is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let mut w = SnapWriter::new();
        for i in 0..64u64 {
            w.u64(i);
        }
        let bytes = w.into_bytes();
        let sum = fnv1a64(&bytes);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv1a64(&flipped), sum, "flip at byte {i} undetected");
        }
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    #[test]
    fn checksum64_detects_every_single_bit_flip() {
        // Whole words, a lone tail, and words followed by a tail.
        for len in [1usize, 7, 8, 9, 64, 67] {
            let bytes = sample(len);
            let sum = checksum64(&bytes);
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(
                        checksum64(&flipped),
                        sum,
                        "len {len}: flip of bit {bit} in byte {i} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum64_detects_top_bit_flips_in_adjacent_words() {
        let bytes = sample(64);
        let sum = checksum64(&bytes);
        let flip_pair = |w: usize| {
            let mut flipped = bytes.clone();
            flipped[8 * w + 7] ^= 0x80;
            flipped[8 * w + 15] ^= 0x80;
            flipped
        };
        for w in 0..7 {
            assert_ne!(
                checksum64(&flip_pair(w)),
                sum,
                "bit 63 of words {w}, {}",
                w + 1
            );
        }
        // The pair a bare xor-multiply chain cannot see: bit 63 survives
        // the odd multiply unchanged, so the second flip cancels the first.
        let bare = |b: &[u8]| {
            b.chunks_exact(8).fold(0u64, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            })
        };
        assert_eq!(bare(&flip_pair(0)), bare(&bytes));
    }

    #[test]
    fn checksum64_folds_in_the_length() {
        // Zero padding makes these tails the same word; only the length
        // tells them apart.
        assert_ne!(checksum64(b"abc"), checksum64(b"abc\0"));
        for len in 0..24 {
            assert_ne!(
                checksum64(&vec![0u8; len]),
                checksum64(&vec![0u8; len + 1]),
                "{len} vs {} zero bytes",
                len + 1
            );
        }
    }

    #[test]
    fn checksum64_of_the_empty_input_is_pinned() {
        // Checkpoint files depend on this exact function: a change to it
        // is a format change.
        assert_eq!(checksum64(&[]), 0xEA4C_DB56_9647_9CDF);
        assert_ne!(checksum64(&[]), checksum64(&[0]));
    }
}
