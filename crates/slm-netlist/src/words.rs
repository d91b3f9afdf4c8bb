//! Helpers for packing integer operands into per-bit boolean input vectors.
//!
//! Circuit generators declare buses least-significant-bit first; these
//! helpers convert between `u128`/bit-slices and the flat `&[bool]` input
//! layout that [`crate::Netlist::eval`] expects.

/// Expands the low `width` bits of `value` into booleans, LSB first.
///
/// ```
/// let bits = slm_netlist::words::to_bits(0b1011, 4);
/// assert_eq!(bits, vec![true, true, false, true]);
/// ```
pub fn to_bits(value: u128, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Packs booleans (LSB first) back into an integer.
///
/// Bits beyond 128 are ignored.
///
/// ```
/// let v = slm_netlist::words::from_bits(&[true, true, false, true]);
/// assert_eq!(v, 0b1011);
/// ```
pub fn from_bits(bits: &[bool]) -> u128 {
    bits.iter()
        .take(128)
        .enumerate()
        .fold(0u128, |acc, (i, &b)| acc | (u128::from(b) << i))
}

/// Expands big integers represented as little-endian 64-bit limbs into
/// booleans, LSB first, `width` bits total.
pub fn limbs_to_bits(limbs: &[u64], width: usize) -> Vec<bool> {
    (0..width)
        .map(|i| {
            let limb = i / 64;
            let bit = i % 64;
            limbs.get(limb).is_some_and(|&l| (l >> bit) & 1 == 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u128() {
        for v in [0u128, 1, 0xdead_beef, u128::MAX >> 1] {
            assert_eq!(from_bits(&to_bits(v, 128)), v);
        }
    }

    #[test]
    fn roundtrip_limbs() {
        let limbs = vec![0xdead_beef_0bad_f00d, 0x0123_4567_89ab_cdef, 0xffff];
        let bits = limbs_to_bits(&limbs, 192);
        assert_eq!(bits.len(), 192);
        for (chunk, &limb) in bits.chunks(64).zip(&limbs) {
            assert_eq!(from_bits(chunk), u128::from(limb));
        }
    }

    #[test]
    fn limbs_width_truncates_and_pads() {
        let bits = limbs_to_bits(&[u64::MAX], 66);
        assert_eq!(bits.len(), 66);
        assert!(bits[63]);
        assert!(!bits[64]); // missing limb reads as zero
    }
}
