//! Software reference AES-128 (FIPS-197).
//!
//! Byte-oriented and branch-free on secrets in the table-lookup sense
//! only; this is a *reference model* for a hardware victim, not a
//! side-channel-hardened software implementation.

/// The AES S-box.
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse AES S-box (used by the last-round CPA hypothesis).
pub const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Number of rounds for AES-128.
pub const ROUNDS: usize = 10;

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

fn mul(a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    let mut x = a;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= x;
        }
        x = xtime(x);
        b >>= 1;
    }
    acc
}

/// GF(2⁸) multiplication in the AES field (x⁸ + x⁴ + x³ + x + 1).
///
/// Public so differential fault analysis can enumerate the MixColumns
/// images of a candidate fault value (the 9th-round diagonal model
/// propagates a single-byte fault through one column as `{2ε, 3ε, ε}`).
pub fn gf_mul(a: u8, b: u8) -> u8 {
    mul(a, b)
}

/// Expands a 128-bit key into the 11 round keys.
pub fn key_expansion(key: &[u8; 16]) -> [[u8; 16]; ROUNDS + 1] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
    }
    let mut rcon = 1u8;
    for i in 4..44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= rcon;
            rcon = xtime(rcon);
        }
        for k in 0..4 {
            w[i][k] = w[i - 4][k] ^ t[k];
        }
    }
    let mut rk = [[0u8; 16]; ROUNDS + 1];
    for (r, round_key) in rk.iter_mut().enumerate() {
        for c in 0..4 {
            round_key[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    rk
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for s in state.iter_mut() {
        *s = INV_SBOX[*s as usize];
    }
}

/// Byte index of the state (column-major: byte `i` is row `i % 4`,
/// column `i / 4`) after ShiftRows moves it.
fn shift_rows(state: &mut [u8; 16]) {
    let old = *state;
    for c in 0..4 {
        for r in 0..4 {
            state[4 * c + r] = old[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let old = *state;
    for c in 0..4 {
        for r in 0..4 {
            state[4 * ((c + r) % 4) + r] = old[4 * c + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = mul(col[0], 2) ^ mul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ mul(col[1], 2) ^ mul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ mul(col[2], 2) ^ mul(col[3], 3);
        state[4 * c + 3] = mul(col[0], 3) ^ col[1] ^ col[2] ^ mul(col[3], 2);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = mul(col[0], 14) ^ mul(col[1], 11) ^ mul(col[2], 13) ^ mul(col[3], 9);
        state[4 * c + 1] = mul(col[0], 9) ^ mul(col[1], 14) ^ mul(col[2], 11) ^ mul(col[3], 13);
        state[4 * c + 2] = mul(col[0], 13) ^ mul(col[1], 9) ^ mul(col[2], 14) ^ mul(col[3], 11);
        state[4 * c + 3] = mul(col[0], 11) ^ mul(col[1], 13) ^ mul(col[2], 9) ^ mul(col[3], 14);
    }
}

/// Encrypts one block.
pub fn encrypt(key: &[u8; 16], plaintext: &[u8; 16]) -> [u8; 16] {
    let rk = key_expansion(key);
    let mut state = *plaintext;
    add_round_key(&mut state, &rk[0]);
    for round_key in rk.iter().take(ROUNDS).skip(1) {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, round_key);
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &rk[ROUNDS]);
    state
}

/// Decrypts one block.
pub fn decrypt(key: &[u8; 16], ciphertext: &[u8; 16]) -> [u8; 16] {
    let rk = key_expansion(key);
    let mut state = *ciphertext;
    add_round_key(&mut state, &rk[ROUNDS]);
    inv_shift_rows(&mut state);
    inv_sub_bytes(&mut state);
    for round_key in rk.iter().take(ROUNDS).skip(1).rev() {
        add_round_key(&mut state, round_key);
        inv_mix_columns(&mut state);
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
    }
    add_round_key(&mut state, &rk[0]);
    state
}

/// The state at every round boundary: `states[0]` is the plaintext after
/// the initial AddRoundKey; `states[r]` (1 ≤ r ≤ 10) is the state after
/// round `r`. `states[10]` is the ciphertext.
///
/// The hardware model consumes this to derive per-cycle register
/// transitions; the CPA hypothesis targets bits of `states[9]` (the
/// value "before the final SBox computation").
pub fn encrypt_round_states(key: &[u8; 16], plaintext: &[u8; 16]) -> [[u8; 16]; ROUNDS + 1] {
    encrypt_round_states_with_schedule(&key_expansion(key), plaintext)
}

/// [`encrypt_round_states`] from an already-expanded key schedule
/// ([`key_expansion`]'s output), for callers that encrypt many blocks
/// under one key.
pub fn encrypt_round_states_with_schedule(
    rk: &[[u8; 16]; ROUNDS + 1],
    plaintext: &[u8; 16],
) -> [[u8; 16]; ROUNDS + 1] {
    let mut out = [[0u8; 16]; ROUNDS + 1];
    let mut state = *plaintext;
    add_round_key(&mut state, &rk[0]);
    out[0] = state;
    for r in 1..ROUNDS {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, &rk[r]);
        out[r] = state;
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &rk[ROUNDS]);
    out[ROUNDS] = state;
    out
}

/// Encrypts one block with XOR fault masks applied to round-boundary
/// states: each `(round, mask)` entry XORs `mask` into the state right
/// after round `round`'s AddRoundKey (round 0 = the initial key
/// addition, round 10 = the ciphertext register itself).
///
/// This is the software model of a register-capture timing fault: a
/// supply droop stretches the combinational cone past the clock period,
/// so the round register latches stale bits — equivalent to XORing a
/// difference into the captured state. With an empty fault list the
/// result is bit-identical to [`encrypt`].
pub fn encrypt_with_state_faults(
    key: &[u8; 16],
    plaintext: &[u8; 16],
    faults: &[(usize, [u8; 16])],
) -> [u8; 16] {
    fn apply(state: &mut [u8; 16], faults: &[(usize, [u8; 16])], round: usize) {
        for (r, mask) in faults {
            if *r == round {
                for (s, m) in state.iter_mut().zip(mask) {
                    *s ^= m;
                }
            }
        }
    }
    let rk = key_expansion(key);
    let mut state = *plaintext;
    add_round_key(&mut state, &rk[0]);
    apply(&mut state, faults, 0);
    for (r, round_key) in rk.iter().enumerate().take(ROUNDS).skip(1) {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, round_key);
        apply(&mut state, faults, r);
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &rk[ROUNDS]);
    apply(&mut state, faults, ROUNDS);
    state
}

/// Encrypts one block with a single-byte fault `delta` XORed into state
/// byte `byte` immediately *before* MixColumns of `round` (1 ≤ round ≤ 9)
/// — the textbook injection point of diagonal differential fault
/// analysis: MixColumns spreads the fault over one column, ShiftRows of
/// the following rounds over a diagonal of the ciphertext.
///
/// # Panics
///
/// Panics if `round` is outside `1..=9` or `byte` ≥ 16.
pub fn encrypt_with_premix_fault(
    key: &[u8; 16],
    plaintext: &[u8; 16],
    round: usize,
    byte: usize,
    delta: u8,
) -> [u8; 16] {
    assert!(
        (1..ROUNDS).contains(&round),
        "MixColumns runs in rounds 1..=9"
    );
    assert!(byte < 16);
    let rk = key_expansion(key);
    let mut state = *plaintext;
    add_round_key(&mut state, &rk[0]);
    for (r, round_key) in rk.iter().enumerate().take(ROUNDS).skip(1) {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        if r == round {
            state[byte] ^= delta;
        }
        mix_columns(&mut state);
        add_round_key(&mut state, round_key);
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &rk[ROUNDS]);
    state
}

/// Recovers the original 128-bit cipher key from the last round key by
/// running the key schedule backwards.
///
/// This is the final step of the paper's attack: CPA on the last round
/// recovers `k10` byte by byte, and the schedule is invertible, so the
/// master key follows.
///
/// ```
/// use slm_aes::soft::{key_expansion, invert_key_schedule};
/// let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
/// let k10 = key_expansion(&key)[10];
/// assert_eq!(invert_key_schedule(&k10), key);
/// ```
pub fn invert_key_schedule(k10: &[u8; 16]) -> [u8; 16] {
    // Words of round key r are w[4r..4r+4]; invert
    //   w[i] = w[i-4] ^ t(w[i-1])
    // as w[i-4] = w[i] ^ t(w[i-1]) from round 10 down to 0.
    let mut w = [[0u8; 4]; 44];
    for c in 0..4 {
        w[40 + c] = [k10[4 * c], k10[4 * c + 1], k10[4 * c + 2], k10[4 * c + 3]];
    }
    // rcon for i = 4, 8, ..., 40 is xtime^(i/4 - 1)(1); precompute all.
    let mut rcons = [0u8; 11];
    rcons[1] = 1;
    for r in 2..11 {
        rcons[r] = xtime(rcons[r - 1]);
    }
    for i in (4..44).rev() {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= rcons[i / 4];
        }
        for k in 0..4 {
            w[i - 4][k] = w[i][k] ^ t[k];
        }
    }
    let mut key = [0u8; 16];
    for c in 0..4 {
        key[4 * c..4 * c + 4].copy_from_slice(&w[c]);
    }
    key
}

/// Where ShiftRows sends state byte `i` in the final round: the byte at
/// position `i` before ShiftRows lands at `shift_rows_dest(i)` in the
/// ciphertext.
pub fn shift_rows_dest(i: usize) -> usize {
    let r = i % 4;
    let c = i / 4;
    // ShiftRows reads from column (c + r) % 4; so a byte in column c, row
    // r is *written to* column (c - r) mod 4.
    4 * ((c + 4 - r) % 4) + r
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIPS_KEY: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f,
    ];
    const FIPS_PT: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    const FIPS_CT: [u8; 16] = [
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a,
    ];

    #[test]
    fn fips197_appendix_c_vector() {
        assert_eq!(encrypt(&FIPS_KEY, &FIPS_PT), FIPS_CT);
    }

    #[test]
    fn rfc3602_style_vector() {
        // Well-known test vector: AES-128("2b7e151628aed2a6abf7158809cf4f3c",
        // "6bc1bee22e409f96e93d7e117393172a") = 3ad77bb40d7a3660a89ecaf32466ef97
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let ct = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        assert_eq!(encrypt(&key, &pt), ct);
    }

    #[test]
    fn decrypt_roundtrips() {
        assert_eq!(decrypt(&FIPS_KEY, &FIPS_CT), FIPS_PT);
    }

    #[test]
    fn sbox_involution_pair() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn round_states_consistent_with_encrypt() {
        let states = encrypt_round_states(&FIPS_KEY, &FIPS_PT);
        assert_eq!(states[ROUNDS], FIPS_CT);
    }

    #[test]
    fn key_expansion_fips_appendix_a() {
        // FIPS-197 Appendix A.1: last round key for key 2b7e1516...
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = key_expansion(&key);
        assert_eq!(
            rk[10],
            [
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6
            ]
        );
    }

    #[test]
    fn last_round_relation() {
        // ct[j'] = SBOX[state9[j]] ^ k10[j'] where j' = shift_rows_dest(j):
        // the relation the CPA hypothesis inverts.
        let states = encrypt_round_states(&FIPS_KEY, &FIPS_PT);
        let rk = key_expansion(&FIPS_KEY);
        for j in 0..16 {
            let jd = shift_rows_dest(j);
            assert_eq!(
                states[10][jd],
                SBOX[states[9][j] as usize] ^ rk[10][jd],
                "byte {j} → {jd}"
            );
        }
    }

    #[test]
    fn shift_rows_dest_row0_fixed() {
        for c in 0..4 {
            assert_eq!(shift_rows_dest(4 * c), 4 * c);
        }
        // row 1 moves one column back
        assert_eq!(shift_rows_dest(1), 13);
    }

    #[test]
    fn gf_mul_spot_checks() {
        assert_eq!(mul(0x57, 0x02), 0xae);
        assert_eq!(mul(0x57, 0x13), 0xfe); // FIPS-197 §4.2.1 example
        assert_eq!(gf_mul(0x57, 0x13), 0xfe); // public wrapper agrees
    }

    #[test]
    fn empty_fault_list_is_plain_encrypt() {
        assert_eq!(encrypt_with_state_faults(&FIPS_KEY, &FIPS_PT, &[]), FIPS_CT);
        let zero = [(9usize, [0u8; 16])];
        assert_eq!(
            encrypt_with_state_faults(&FIPS_KEY, &FIPS_PT, &zero),
            FIPS_CT
        );
    }

    #[test]
    fn round9_state_fault_changes_exactly_the_shifted_byte() {
        // A single-byte fault in state9 byte j passes only through the
        // final SubBytes + ShiftRows, so exactly ct[shift_rows_dest(j)]
        // differs — the relation single-byte DFA inverts.
        for j in [0usize, 5, 10, 15] {
            let mut mask = [0u8; 16];
            mask[j] = 0x01;
            let faulty = encrypt_with_state_faults(&FIPS_KEY, &FIPS_PT, &[(9, mask)]);
            let diff_positions: Vec<usize> = (0..16).filter(|&i| faulty[i] != FIPS_CT[i]).collect();
            assert_eq!(diff_positions, vec![shift_rows_dest(j)], "byte {j}");
        }
    }

    #[test]
    fn round10_fault_hits_ciphertext_directly() {
        let mut mask = [0u8; 16];
        mask[3] = 0x80;
        let faulty = encrypt_with_state_faults(&FIPS_KEY, &FIPS_PT, &[(10, mask)]);
        let mut expect = FIPS_CT;
        expect[3] ^= 0x80;
        assert_eq!(faulty, expect);
    }

    #[test]
    fn early_round_fault_avalanches() {
        // A round-5 fault diffuses through the remaining MixColumns
        // layers: every ciphertext byte should differ.
        let mut mask = [0u8; 16];
        mask[0] = 0x01;
        let faulty = encrypt_with_state_faults(&FIPS_KEY, &FIPS_PT, &[(5, mask)]);
        assert!((0..16).all(|i| faulty[i] != FIPS_CT[i]));
    }

    #[test]
    fn premix_fault_spreads_over_one_column_of_state9() {
        // ε before MixColumns of round 9, at state byte 4c+r, produces
        // state9 column-c diffs {M[i][r]·ε}; through the final round
        // those land on a ciphertext diagonal with exactly 4 diff bytes.
        let states = encrypt_round_states(&FIPS_KEY, &FIPS_PT);
        let (byte, delta) = (6usize, 0x21u8); // column 1, row 2
        let faulty = encrypt_with_premix_fault(&FIPS_KEY, &FIPS_PT, 9, byte, delta);
        let diff_positions: Vec<usize> = (0..16).filter(|&i| faulty[i] != FIPS_CT[i]).collect();
        assert_eq!(diff_positions.len(), 4);
        // Each diff byte's state9 difference is a MixColumns coefficient
        // image of delta.
        let rk = key_expansion(&FIPS_KEY);
        let allowed = [gf_mul(delta, 1), gf_mul(delta, 2), gf_mul(delta, 3)];
        for &jd in &diff_positions {
            // invert the final round at position jd
            let j = (0..16).find(|&j| shift_rows_dest(j) == jd).unwrap();
            let s9 = INV_SBOX[(FIPS_CT[jd] ^ rk[10][jd]) as usize];
            let s9f = INV_SBOX[(faulty[jd] ^ rk[10][jd]) as usize];
            assert_eq!(s9, states[9][j]);
            assert!(allowed.contains(&(s9 ^ s9f)), "diff {:02x}", s9 ^ s9f);
        }
    }
}
