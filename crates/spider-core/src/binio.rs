//! Minimal binary encode/decode helpers for snapshot and trace containers.
//!
//! Everything is little-endian and length-prefixed. Floats travel as raw
//! IEEE-754 bits (`f64::to_bits`), so non-finite values — `NaN` sentinels,
//! `±INFINITY` histogram extrema — round-trip exactly, which JSON cannot do.
//! Decoding never panics: every read is bounds-checked and returns a
//! [`BinError`] on truncated or malformed input, so a corrupt file surfaces
//! as a structured error in the caller.

use std::fmt;

/// A structured decode failure: truncated input or an invalid value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    /// The input ended before the expected number of bytes.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A decoded value was out of range or otherwise invalid.
    Invalid {
        /// Byte offset of the offending value.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated input at byte {offset}: needed {needed} bytes, {remaining} remain"
            ),
            BinError::Invalid { offset, what } => {
                write!(f, "invalid value at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for BinError {}

/// An append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more bytes, so a caller that knows its
    /// output size grows the buffer once instead of by doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve_exact(additional);
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (little-endian, two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits. Non-finite values
    /// round-trip exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with no length prefix (for containers that carry
    /// the length in their own header).
    pub fn bytes_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a presence byte followed by the value when `Some` (run
    /// fingerprints write optional config this way; no decoder reads one).
    pub fn opt(&mut self, v: Option<impl FnOnce(&mut Enc)>) {
        match v {
            Some(write) => {
                self.u8(1);
                write(self);
            }
            None => self.u8(0),
        }
    }

    /// Appends a length prefix followed by `write` per item.
    pub fn seq<T>(&mut self, items: &[T], mut write: impl FnMut(&mut Enc, &T)) {
        self.usize(items.len());
        for item in items {
            write(self, item);
        }
    }
}

/// A bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`BinError::Invalid`] unless the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), BinError> {
        if self.is_at_end() {
            Ok(())
        } else {
            Err(BinError::Invalid {
                offset: self.pos,
                what: format!("{} trailing bytes", self.remaining()),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return Err(BinError::Truncated {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, BinError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, BinError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, BinError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `usize`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, BinError> {
        let offset = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| BinError::Invalid {
            offset,
            what: format!("length {v} exceeds usize"),
        })
    }

    /// Reads an `f64` from raw bits.
    pub fn f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting bytes other than 0 and 1.
    pub fn bool(&mut self) -> Result<bool, BinError> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(BinError::Invalid {
                offset,
                what: format!("bool byte {other}"),
            }),
        }
    }

    /// Reads a length-prefixed byte slice. The length is validated against
    /// the remaining input before any allocation, so a corrupt prefix
    /// cannot trigger a huge reservation.
    pub fn bytes(&mut self) -> Result<&'a [u8], BinError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads exactly `n` raw bytes (no length prefix), bounds-checked.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, BinError> {
        let offset = self.pos;
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| BinError::Invalid {
            offset,
            what: "invalid UTF-8".to_string(),
        })
    }

    /// Reads a sequence encoded by [`Enc::seq`]. The element count is
    /// sanity-checked against the remaining bytes (at least one byte per
    /// element) before reserving, so corrupt lengths fail fast.
    pub fn seq<T>(
        &mut self,
        mut read: impl FnMut(&mut Dec<'a>) -> Result<T, BinError>,
    ) -> Result<Vec<T>, BinError> {
        let offset = self.pos;
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(BinError::Invalid {
                offset,
                what: format!(
                    "sequence length {n} exceeds {} remaining bytes",
                    self.remaining()
                ),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }
}

/// The reflected CRC-32/IEEE polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables for [`crc32`], built at compile time.
///
/// `CRC32_TABLES[0][b]` is the CRC register after shifting the byte `b`
/// through it bit by bit: the classic one-byte table. Row `k` advances that
/// by `k` more zero bytes, `CRC32_TABLES[k][b] = (t >> 8) ^ CRC32_TABLES[0][t
/// & 0xFF]` with `t = CRC32_TABLES[k - 1][b]`, so the register's effect on
/// the next eight bytes is one lookup per byte, all eight independent.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// The same checksum `cksum`-family tools, zip and `zlib.crc32` compute;
/// kept here so snapshot sections can be validated without a new
/// dependency. Every checksum in the workspace (snapshot sections and
/// frames, trace headers and blocks, run fingerprints) is this function.
///
/// Slicing-by-8: eight bytes per step through `CRC32_TABLES`. The
/// register is XORed into the first four bytes of the chunk; each of the
/// eight resulting bytes is looked up in the row for the number of bytes
/// still behind it (the first in row 7, the last in row 0) and the lookups
/// XOR together. CRC is linear over GF(2), so this is the bitwise
/// shift-and-reduce loop regrouped eight bytes at a time: the same
/// polynomial, the same initial and final inversion, hence the same value
/// for every input. A tail shorter than eight bytes goes one byte at a time
/// through row 0.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(f64::NEG_INFINITY);
        e.f64(f64::NAN);
        e.bool(true);
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), f64::NEG_INFINITY);
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert!(d.is_at_end());
        d.expect_end().unwrap();
    }

    #[test]
    fn options_and_sequences_round_trip() {
        let mut e = Enc::new();
        e.opt(Some(|e: &mut Enc| e.u32(5)));
        e.opt(None::<fn(&mut Enc)>);
        e.seq(&[1u64, 2, 3], |e, &v| e.u64(v));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(
            (d.u8().unwrap(), d.u32().unwrap(), d.u8().unwrap()),
            (1, 5, 0)
        );
        assert_eq!(d.seq(|d| d.u64()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn truncation_is_a_structured_error_never_a_panic() {
        let mut e = Enc::new();
        e.u64(123);
        e.str("abcdef");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            let r = d.u64().and_then(|_| d.str());
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_lengths_fail_without_allocating() {
        // A huge length prefix with no bytes behind it.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).bytes().is_err());
        assert!(Dec::new(&bytes).seq(|d| d.u8()).is_err());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        assert!(Dec::new(&[2]).bool().is_err());
        let mut bad_utf8 = Enc::new();
        bad_utf8.bytes(&[0xFF, 0xFE]);
        assert!(Dec::new(&bad_utf8.into_bytes()).str().is_err());
    }

    /// The bitwise shift-and-reduce loop `crc32` replaced: eight
    /// conditional XORs per byte, no table. The oracle for the table-driven
    /// version.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    /// `n` bytes from a seeded xorshift stream.
    fn seeded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_equals_the_bitwise_loop_at_every_short_length_and_alignment() {
        // Lengths 0..=64 cover the byte-at-a-time tail alone, one to eight
        // full slices, and every tail length behind them; the eight start
        // offsets cover every alignment of the slice against the buffer.
        let buf = seeded_bytes(0x5EED, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_equals_the_bitwise_loop_on_large_seeded_buffers() {
        for (seed, len) in [(1, 1000), (2, 4099), (3, 65_543), (4, 1 << 20)] {
            let bytes = seeded_bytes(seed, len);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "seed {seed}, {len} B");
        }
        // Runs of one value, where a table row mixed up with another still
        // has to show.
        for fill in [0x00, 0xFF, 0xA5] {
            let bytes = vec![fill; 4096 + 3];
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "fill {fill:#04x}");
        }
    }
}
