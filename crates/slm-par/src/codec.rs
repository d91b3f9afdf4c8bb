//! The sealed-record codec under every on-disk format of the workspace.
//!
//! A record is little-endian fields behind a `magic + u16 version`
//! header, closed by a Fletcher-64 seal over everything before it:
//!
//! ```text
//! magic [u8; 4] | version u16 | fields … | fletcher-64 seal u64
//! ```
//!
//! [`Writer`] builds one; [`Reader`] takes it apart with bounds-checked
//! reads whose errors ([`DecodeError`]) name the section and the byte
//! offset that failed. [`Reader::open`] checks the magic and then the
//! version, before anything else is read, so a record from a newer
//! build fails as a version incompatibility and never as a checksum
//! mismatch. A read never runs past the input and a length read from
//! the input is never trusted for an allocation: a forged count fails
//! as a short read.
//!
//! The users are the accumulator and stream
//! checkpoints and the progress log of `slm_cpa::store`, and the
//! scan-cache entries of `slm_checker`. The progress log chains one
//! [`Fletcher64`] per record instead of sealing the file once.
//!
//! [`fnv1a`] is the workspace's one content hash for keys and
//! fingerprints. `slm-obs` and `slm-netlist` keep their own copies
//! because neither depends on this crate.

use std::fmt;
use std::io;

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash state `h`. `fnv1a(FNV_OFFSET, b)`
/// hashes `b`, and chained calls hash the concatenation of their
/// inputs.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Streaming Fletcher-64 over little-endian 32-bit words; a trailing
/// partial word is zero-padded.
#[derive(Debug, Clone, Default)]
pub struct Fletcher64 {
    a: u64,
    b: u64,
    pending: [u8; 4],
    pending_len: usize,
}

impl Fletcher64 {
    /// Adds `data` to the checksum.
    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.pending[self.pending_len] = byte;
            self.pending_len += 1;
            if self.pending_len == 4 {
                self.word();
            }
        }
    }

    /// The checksum of everything added.
    pub fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            self.pending[self.pending_len..].fill(0);
            self.word();
        }
        (self.b << 32) | self.a
    }

    fn word(&mut self) {
        self.a = (self.a + u64::from(u32::from_le_bytes(self.pending))) % 0xffff_ffff;
        self.b = (self.b + self.a) % 0xffff_ffff;
        self.pending_len = 0;
    }
}

/// Builds a record: little-endian fields appended in order.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A record that starts with the `magic + version` header.
    pub fn header(magic: &[u8; 4], version: u16) -> Self {
        let mut w = Writer::default();
        w.bytes(magic).u16(version);
        w
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends each `f64` of `vs`; the count is not written.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        for v in vs {
            self.bytes(&v.to_le_bytes());
        }
        self
    }

    /// Appends a string as a `u32` byte length and its UTF-8 bytes.
    ///
    /// # Panics
    ///
    /// If the string is longer than `u32::MAX` bytes.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let len = u32::try_from(s.len()).expect("string longer than a u32 length field");
        self.u32(len).bytes(s.as_bytes())
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The bytes written, unsealed.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written, closed by their Fletcher-64 seal.
    pub fn seal(mut self) -> Vec<u8> {
        let mut sum = Fletcher64::default();
        sum.update(&self.buf);
        self.u64(sum.finish());
        self.buf
    }
}

/// Why a record did not decode: the section that failed, the byte
/// offset where the problem was found, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The field or region being read.
    pub section: &'static str,
    /// Byte offset into the record.
    pub offset: usize,
    /// What was wrong.
    pub detail: String,
}

impl DecodeError {
    /// An error in `section` at byte `offset`.
    pub fn new(section: &'static str, offset: usize, detail: impl fmt::Display) -> Self {
        DecodeError {
            section,
            offset,
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "section `{}` at byte {}: {}",
            self.section, self.offset, self.detail
        )
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Reads a record field by field; every read is bounds-checked.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`, for records with no header.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, at: 0 }
    }

    /// A reader past the header of a `format` record, after checking
    /// its magic and then its version.
    ///
    /// # Errors
    ///
    /// Section `magic` or `version` when either differs or is cut off.
    pub fn open(
        data: &'a [u8],
        magic: &[u8; 4],
        version: u16,
        format: &str,
    ) -> Result<Self, DecodeError> {
        let mut r = Reader::new(data);
        let got: [u8; 4] = r.array("magic")?;
        if &got != magic {
            return Err(DecodeError::new(
                "magic",
                0,
                format!(
                    "got {got:02x?}, expected {:?}",
                    String::from_utf8_lossy(magic)
                ),
            ));
        }
        let found = r.u16("version")?;
        if found != version {
            return Err(DecodeError::new(
                "version",
                4,
                format!(
                    "{format} version {found} is not supported (this build reads version \
                     {version}); refusing to guess at the layout"
                ),
            ));
        }
        Ok(r)
    }

    /// Offset of the next byte to read.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    /// The next `n` bytes of `section`.
    ///
    /// # Errors
    ///
    /// When fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::new(
                section,
                self.at,
                format!("needs {n} bytes, only {} remain", self.remaining()),
            ));
        }
        let bytes = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(bytes)
    }

    /// The next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// When fewer than `N` bytes remain.
    fn array<const N: usize>(&mut self, section: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self
            .take(N, section)?
            .try_into()
            .expect("take returns N bytes"))
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// When the input ends first.
    pub fn u8(&mut self, section: &'static str) -> Result<u8, DecodeError> {
        Ok(self.array::<1>(section)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// When the input ends first.
    pub fn u16(&mut self, section: &'static str) -> Result<u16, DecodeError> {
        self.array(section).map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// When the input ends first.
    pub fn u32(&mut self, section: &'static str) -> Result<u32, DecodeError> {
        self.array(section).map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// When the input ends first.
    pub fn u64(&mut self, section: &'static str) -> Result<u64, DecodeError> {
        self.array(section).map(u64::from_le_bytes)
    }

    /// Reads `n` `u64`s.
    ///
    /// # Errors
    ///
    /// When fewer than `8 n` bytes remain; nothing is allocated then.
    pub fn u64s(&mut self, n: usize, section: &'static str) -> Result<Vec<u64>, DecodeError> {
        self.words(n, section, u64::from_le_bytes)
    }

    /// Reads `n` `f64`s.
    ///
    /// # Errors
    ///
    /// When fewer than `8 n` bytes remain; nothing is allocated then.
    pub fn f64s(&mut self, n: usize, section: &'static str) -> Result<Vec<f64>, DecodeError> {
        self.words(n, section, f64::from_le_bytes)
    }

    fn words<T>(
        &mut self,
        n: usize,
        section: &'static str,
        decode: fn([u8; 8]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let bytes = self.take(n.saturating_mul(8), section)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| decode(w.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Reads a string written by [`Writer::str`].
    ///
    /// # Errors
    ///
    /// When the input ends first or the bytes are not UTF-8.
    pub fn str(&mut self, section: &'static str) -> Result<String, DecodeError> {
        let len = self.u32(section)?;
        let at = self.at;
        let bytes = self.take(usize::try_from(len).unwrap_or(usize::MAX), section)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DecodeError::new(section, at, e))
    }

    /// Checks that every byte was read.
    ///
    /// # Errors
    ///
    /// Names the unread bytes.
    pub fn end(&self, section: &'static str) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::new(
                section,
                self.at,
                format!("{n} unexpected trailing bytes"),
            )),
        }
    }

    /// Checks the seal at the cursor against the Fletcher-64 of every
    /// byte before it, and that it ends the input.
    ///
    /// # Errors
    ///
    /// Section `seal` when the seal is cut off, differs (the message
    /// gives both digests) or is followed by more bytes.
    pub fn seal(mut self) -> Result<(), DecodeError> {
        let at = self.at;
        let stored = self.u64("seal")?;
        let mut sum = Fletcher64::default();
        sum.update(&self.data[..at]);
        let computed = sum.finish();
        if stored != computed {
            return Err(DecodeError::new(
                "seal",
                at,
                format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
            ));
        }
        self.end("seal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_chains() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn sealed_record_round_trips_and_reads_are_bounded() {
        let mut w = Writer::header(b"TEST", 3);
        w.u8(7).u16(8).u32(9).u64(10).str("ten").f64s(&[0.5, -2.0]);
        let bytes = w.seal();
        let mut r = Reader::open(&bytes, b"TEST", 3, "test record").unwrap();
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u16("b"), Ok(8));
        assert_eq!(r.u32("c"), Ok(9));
        assert_eq!(r.u64("d"), Ok(10));
        assert_eq!(r.str("e").as_deref(), Ok("ten"));
        // A forged element count fails as a short read of its section.
        let err = r.clone().f64s(usize::MAX, "huge").unwrap_err();
        assert_eq!((err.section, err.offset), ("huge", 28));
        assert_eq!(r.f64s(2, "f"), Ok(vec![0.5, -2.0]));
        r.clone().seal().unwrap();
        let err = r.end("tail").unwrap_err();
        assert!(
            err.to_string().contains("8 unexpected trailing bytes"),
            "{err}"
        );
    }

    #[test]
    fn version_is_checked_before_the_seal() {
        let bytes = Writer::header(b"TEST", 2).seal();
        let err = Reader::open(&bytes, b"TEST", 1, "test record").unwrap_err();
        assert_eq!(err.section, "version");
        assert!(
            err.to_string()
                .contains("test record version 2 is not supported"),
            "{err}"
        );
        let err = Reader::open(&bytes, b"TSET", 2, "test record").unwrap_err();
        assert_eq!((err.section, err.offset), ("magic", 0));
        let mut flipped = bytes.clone();
        flipped[7] ^= 1;
        let r = Reader::open(&flipped, b"TEST", 2, "test record").unwrap();
        let err = r.seal().unwrap_err().to_string();
        assert!(err.contains("seal") && err.contains("stored"), "{err}");
    }
}
