//! XXH64, the hash behind [`crate::Netlist::content_hash`].
//!
//! A streaming XXH64 (seed 0) that reads fixed-width values straight
//! into its 32-byte stripes: a `u32` array is consumed two values per
//! 64-bit lane, with no copy of the array into bytes. Every write is
//! equivalent to writing the values' little-endian bytes, so the result
//! is the reference XXH64 of that byte stream.

use crate::gate::{GateKind, NetId};

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Bytes per stripe: four 64-bit lanes.
const STRIPE: usize = 32;

/// A fixed-width value hashed as its little-endian bytes.
pub(crate) trait Word: Copy {
    /// Bytes per value; divides 8.
    const BYTES: usize;

    /// The value's little-endian bytes in the low [`Word::BYTES`] bytes.
    fn bits(self) -> u64;

    /// One 64-bit lane read from `8 / BYTES` values.
    #[inline(always)]
    fn lane(values: &[Self]) -> u64 {
        values
            .iter()
            .enumerate()
            .fold(0, |lane, (i, &v)| lane | v.bits() << (8 * Self::BYTES * i))
    }
}

impl Word for u8 {
    const BYTES: usize = 1;
    fn bits(self) -> u64 {
        u64::from(self)
    }
    #[inline(always)]
    fn lane(values: &[u8]) -> u64 {
        u64::from_le_bytes(values.try_into().expect("a lane is 8 bytes"))
    }
}

impl Word for GateKind {
    const BYTES: usize = 1;
    fn bits(self) -> u64 {
        self as u64
    }
}

impl Word for u32 {
    const BYTES: usize = 4;
    fn bits(self) -> u64 {
        u64::from(self)
    }
}

impl Word for NetId {
    const BYTES: usize = 4;
    fn bits(self) -> u64 {
        u64::from(self.0)
    }
}

impl Word for u64 {
    const BYTES: usize = 8;
    fn bits(self) -> u64 {
        self
    }
}

#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(h: u64, acc: u64) -> u64 {
    (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// Streaming XXH64 with seed 0.
#[derive(Debug)]
pub(crate) struct Xxh64 {
    acc: [u64; 4],
    /// The open stripe: the first `buffered` bytes written since the
    /// last whole stripe.
    buf: [u8; STRIPE],
    buffered: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64 {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; STRIPE],
            buffered: 0,
            total: 0,
        }
    }
}

impl Xxh64 {
    #[inline(always)]
    fn stripe<W: Word>(&mut self, values: &[W]) {
        for (acc, lane) in self.acc.iter_mut().zip(values.chunks_exact(8 / W::BYTES)) {
            *acc = round(*acc, W::lane(lane));
        }
    }

    /// Appends one value that may straddle the end of the open stripe.
    #[inline(always)]
    fn push<W: Word>(&mut self, value: W) {
        let bytes = value.bits().to_le_bytes();
        let at = self.buffered;
        if at + W::BYTES < STRIPE {
            self.buf[at..at + W::BYTES].copy_from_slice(&bytes[..W::BYTES]);
            self.buffered += W::BYTES;
            return;
        }
        let (head, rest) = bytes[..W::BYTES].split_at(STRIPE - at);
        self.buf[at..].copy_from_slice(head);
        let buf = self.buf;
        self.stripe(&buf);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Copies whole values into the open stripe, which has room for
    /// them and ends on a value boundary.
    #[inline(always)]
    fn put<W: Word>(&mut self, values: &[W]) {
        let at = self.buffered;
        for (dst, &v) in self.buf[at..].chunks_exact_mut(W::BYTES).zip(values) {
            dst.copy_from_slice(&v.bits().to_le_bytes()[..W::BYTES]);
        }
        self.buffered += values.len() * W::BYTES;
    }

    /// Hashes the little-endian bytes of `values`.
    ///
    /// When the open stripe ends on a value boundary (always for bytes,
    /// and for `u32`s written after a multiple of four bytes), values
    /// fill it, then every whole stripe is read straight from `values`.
    /// Otherwise the values go one at a time.
    pub(crate) fn write<W: Word>(&mut self, values: &[W]) {
        self.total += (values.len() * W::BYTES) as u64;
        if self.buffered % W::BYTES != 0 {
            for &v in values {
                self.push(v);
            }
            return;
        }
        let mut rest = values;
        if self.buffered != 0 {
            let room = (STRIPE - self.buffered) / W::BYTES;
            let (fill, after) = rest.split_at(room.min(rest.len()));
            self.put(fill);
            if self.buffered < STRIPE {
                return;
            }
            let buf = self.buf;
            self.stripe(&buf);
            self.buffered = 0;
            rest = after;
        }
        let stripes = rest.chunks_exact(STRIPE / W::BYTES);
        let tail = stripes.remainder();
        for s in stripes {
            self.stripe(s);
        }
        self.put(tail);
    }

    /// Hashes one section: its length in values as a `u64`, the values,
    /// then [`Xxh64::pad`]. The length makes a sequence of sections
    /// injective.
    pub(crate) fn section<W: Word>(&mut self, values: &[W]) {
        self.write(&[values.len() as u64]);
        self.write(values);
        self.pad();
    }

    /// Writes zero bytes up to a multiple of four, so `u32`s written
    /// next start on a value boundary and take the stripe path.
    pub(crate) fn pad(&mut self) {
        self.write(&[0u8; 3][..self.total.wrapping_neg() as usize % 4]);
    }

    /// The hash of everything written so far.
    pub(crate) fn finish(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.acc;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.acc.iter().fold(h, |h, &acc| merge(h, acc))
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.buf[..self.buffered];
        while let Some((lane, rest)) = tail.split_first_chunk::<8>() {
            h ^= round(0, u64::from_le_bytes(*lane));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = rest;
        }
        if let Some((word, rest)) = tail.split_first_chunk::<4>() {
            h ^= u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = rest;
        }
        for &b in tail {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xxh64(bytes: &[u8]) -> u64 {
        let mut h = Xxh64::default();
        h.write(bytes);
        h.finish()
    }

    /// The reference XXH64 values (seed 0). The last input is 39 bytes:
    /// one whole stripe, then a 7-byte tail that takes the 4-byte step
    /// and three 1-byte steps.
    #[test]
    fn known_answers() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// Splitting the input across writes at any point gives the
    /// one-shot hash.
    #[test]
    fn split_writes_match_one_write() {
        let bytes: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(73) ^ 0x5a).collect();
        let whole = xxh64(&bytes);
        for cut in 0..=bytes.len() {
            let mut h = Xxh64::default();
            h.write(&bytes[..cut]);
            h.write(&bytes[cut..]);
            assert_eq!(h.finish(), whole, "cut at {cut}");
        }
    }

    /// Reading `u32`s two per lane hashes exactly their little-endian
    /// bytes, for every array length up to two and a half stripes and
    /// every position of the open stripe, aligned to a value or not.
    #[test]
    fn u32_lanes_match_the_byte_path() {
        let words: Vec<u32> = (0..80u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0x0102_0304)
            .collect();
        let leads = [0xa5u8; STRIPE];
        for len in 0..=words.len() {
            let words = &words[..len];
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            for lead in 0..STRIPE {
                let mut lanes = Xxh64::default();
                lanes.write(&leads[..lead]);
                lanes.write(words);
                let mut bytewise = Xxh64::default();
                bytewise.write(&leads[..lead]);
                bytewise.write(&bytes);
                assert_eq!(lanes.finish(), bytewise.finish(), "len {len}, lead {lead}");
            }
        }
    }
}
