//! Hsiao SEC-DED(39,32): the on-die ECC tier of two-tier schemes.
//!
//! Modern DRAM devices correct single-bit upsets internally with a short
//! Hamming-style code before data ever reaches the rank-level chipkill
//! code (HARP's fault model, and the first tier of
//! [`crate::codec::TwoTierSecDed`]). We model the classical Hsiao
//! construction: 7 check bits over a 32-bit word, every parity-check
//! column of odd weight, so
//!
//! * a zero syndrome means the word is clean,
//! * a syndrome equal to one column identifies a single-bit error
//!   (odd-weight syndrome), and
//! * any even-weight non-zero syndrome is a guaranteed double-bit
//!   detection (DED) — no odd-weight column can produce it.
//!
//! Columns for the 32 data bits are the lexicographically first 32
//! weight-3 values of 7 bits; check bits use the 7 unit columns.

/// Outcome of one tier-1 SEC-DED decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecDedOutcome {
    /// Zero syndrome: data and check bits are consistent.
    Clean,
    /// A single data bit was flipped; the corrected word is returned.
    CorrectedData(u32),
    /// A single check bit was flipped; the data word was never wrong.
    CorrectedCheck(u8),
    /// Multi-bit corruption: detected-uncorrectable at this tier. Two-tier
    /// schemes escalate the whole device as an erasure to the rank code.
    Uncorrectable,
}

/// The Hsiao SEC-DED(39,32) code: 32 data bits, 7 check bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct SecDed39;

/// Parity-check columns for the 32 data bits: the first 32 weight-3
/// 7-bit values in increasing numeric order. (C(7,3) = 35 candidates, so
/// 32 distinct columns always exist.)
const DATA_COLUMNS: [u8; 32] = data_columns();

const fn data_columns() -> [u8; 32] {
    let mut cols = [0u8; 32];
    let mut v: u8 = 0;
    let mut i = 0;
    while i < 32 {
        v += 1;
        if v.count_ones() == 3 {
            cols[i] = v;
            i += 1;
        }
    }
    cols
}

/// Check bits of each byte lane of the data word: `LANE_CHECKS[l][v]` is
/// the XOR of the columns of the set bits of `v << (8 * l)`. The check
/// bits are GF(2)-linear in the data, so a word's check bits are the XOR
/// of its four lanes' entries.
const LANE_CHECKS: [[u8; 256]; 4] = lane_checks();

const fn lane_checks() -> [[u8; 256]; 4] {
    let mut t = [[0u8; 256]; 4];
    let mut lane = 0;
    while lane < 4 {
        let mut v: usize = 1;
        while v < 256 {
            // Lowest set bit's column, plus the entry without that bit.
            let low = v.trailing_zeros() as usize;
            t[lane][v] = DATA_COLUMNS[8 * lane + low] ^ t[lane][v & (v - 1)];
            v += 1;
        }
        lane += 1;
    }
    t
}

impl SecDed39 {
    /// Computes the 7 check bits for a 32-bit data word.
    pub fn check_bits(data: u32) -> u8 {
        let [b0, b1, b2, b3] = data.to_le_bytes();
        LANE_CHECKS[0][usize::from(b0)]
            ^ LANE_CHECKS[1][usize::from(b1)]
            ^ LANE_CHECKS[2][usize::from(b2)]
            ^ LANE_CHECKS[3][usize::from(b3)]
    }

    /// Decodes a stored `(data, check)` pair. Only the low 7 bits of
    /// `check` participate; bit 7 is ignored (padding in an 8-bit symbol).
    pub fn decode(data: u32, check: u8) -> SecDedOutcome {
        let syndrome = Self::check_bits(data) ^ (check & 0x7f);
        if syndrome == 0 {
            return SecDedOutcome::Clean;
        }
        match syndrome.count_ones() {
            1 => SecDedOutcome::CorrectedCheck(check ^ syndrome),
            3 => {
                // Odd weight 3: a data column, if one matches.
                for (i, &col) in DATA_COLUMNS.iter().enumerate() {
                    if col == syndrome {
                        return SecDedOutcome::CorrectedData(data ^ (1 << i));
                    }
                }
                SecDedOutcome::Uncorrectable
            }
            _ => SecDedOutcome::Uncorrectable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial check-bit computation the lane tables replaced.
    fn reference_check_bits(data: u32) -> u8 {
        let mut c = 0u8;
        let mut i = 0;
        while i < 32 {
            if (data >> i) & 1 == 1 {
                c ^= DATA_COLUMNS[i];
            }
            i += 1;
        }
        c
    }

    /// `decode` as it was, over the reference check bits.
    fn reference_decode(data: u32, check: u8) -> SecDedOutcome {
        let syndrome = reference_check_bits(data) ^ (check & 0x7f);
        if syndrome == 0 {
            return SecDedOutcome::Clean;
        }
        match syndrome.count_ones() {
            1 => SecDedOutcome::CorrectedCheck(check ^ syndrome),
            3 => {
                for (i, &col) in DATA_COLUMNS.iter().enumerate() {
                    if col == syndrome {
                        return SecDedOutcome::CorrectedData(data ^ (1 << i));
                    }
                }
                SecDedOutcome::Uncorrectable
            }
            _ => SecDedOutcome::Uncorrectable,
        }
    }

    /// A seeded stream of 32-bit words.
    fn words(count: usize) -> impl Iterator<Item = u32> {
        let mut s = 0x5EC0_DED3_9E37_79B9u64;
        (0..count).map(move |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 16) as u32
        })
    }

    #[test]
    fn lane_tables_match_the_bit_loop() {
        for lane in 0..4 {
            for v in 0..256u32 {
                let data = v << (8 * lane);
                assert_eq!(
                    SecDed39::check_bits(data),
                    reference_check_bits(data),
                    "{data:#x}"
                );
            }
        }
        for data in words(10_000) {
            assert_eq!(
                SecDed39::check_bits(data),
                reference_check_bits(data),
                "{data:#x}"
            );
        }
    }

    #[test]
    fn decode_matches_reference_on_single_and_double_flips() {
        // Flips over all 39 stored bits (32 data, 7 check) of seeded words:
        // every single flip, and every double flip of a sample of words.
        let flip = |data: u32, check: u8, bit: usize| {
            if bit < 32 {
                (data ^ (1 << bit), check)
            } else {
                (data, check ^ (1 << (bit - 32)))
            }
        };
        for (w, data) in words(200).enumerate() {
            let check = SecDed39::check_bits(data);
            assert_eq!(SecDed39::decode(data, check), reference_decode(data, check));
            for i in 0..39 {
                let (d, c) = flip(data, check, i);
                assert_eq!(SecDed39::decode(d, c), reference_decode(d, c), "bit {i}");
                if w % 20 != 0 {
                    continue;
                }
                for j in i + 1..39 {
                    let (d, c) = flip(d, c, j);
                    assert_eq!(
                        SecDed39::decode(d, c),
                        reference_decode(d, c),
                        "bits {i},{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn columns_are_distinct_weight_3() {
        for (i, &c) in DATA_COLUMNS.iter().enumerate() {
            assert_eq!(c.count_ones(), 3, "column {i}");
            assert!(c < 0x80);
            for &d in &DATA_COLUMNS[i + 1..] {
                assert_ne!(c, d);
            }
        }
    }

    #[test]
    fn clean_roundtrip() {
        for data in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001] {
            let check = SecDed39::check_bits(data);
            assert_eq!(SecDed39::decode(data, check), SecDedOutcome::Clean);
        }
    }

    #[test]
    fn every_single_data_bit_corrected() {
        let data = 0xA5C3_170Fu32;
        let check = SecDed39::check_bits(data);
        for bit in 0..32 {
            let corrupted = data ^ (1 << bit);
            assert_eq!(
                SecDed39::decode(corrupted, check),
                SecDedOutcome::CorrectedData(data),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn every_single_check_bit_corrected() {
        let data = 0x0F1E_2D3Cu32;
        let check = SecDed39::check_bits(data);
        for bit in 0..7 {
            let corrupted = check ^ (1 << bit);
            assert_eq!(
                SecDed39::decode(data, corrupted),
                SecDedOutcome::CorrectedCheck(check),
                "check bit {bit}"
            );
        }
    }

    #[test]
    fn all_double_bit_flips_detected() {
        // The SEC-DED guarantee, exhaustively over all 39-bit positions.
        let data = 0x1234_5678u32;
        let check = SecDed39::check_bits(data);
        for i in 0..39 {
            for j in (i + 1)..39 {
                let (mut d, mut c) = (data, check);
                if i < 32 {
                    d ^= 1 << i;
                } else {
                    c ^= 1 << (i - 32);
                }
                if j < 32 {
                    d ^= 1 << j;
                } else {
                    c ^= 1 << (j - 32);
                }
                assert_eq!(
                    SecDed39::decode(d, c),
                    SecDedOutcome::Uncorrectable,
                    "bits {i},{j}"
                );
            }
        }
    }

    #[test]
    fn check_bit_7_is_padding() {
        let data = 7u32;
        let check = SecDed39::check_bits(data);
        assert_eq!(SecDed39::decode(data, check | 0x80), SecDedOutcome::Clean);
    }
}
