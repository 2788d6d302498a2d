//! Finite fields of characteristic 2 used by the chipkill codes.
//!
//! Elements are stored in the low bits of a `u8`. Arithmetic uses log/exp
//! tables built at compile time by `const fn`s — no lazy build, no
//! `OnceLock` — the same structure a hardware EDAC controller would bake
//! into combinational logic.

use std::fmt;

/// A binary extension field GF(2^m) with `m <= 8`, element values in
/// `0..ORDER`.
///
/// Addition is XOR. Multiplication is defined by the field's primitive
/// polynomial. `ALPHA = 2` (the polynomial `x`) is a primitive element for
/// the polynomials chosen here, so `alpha_pow`/`log` enumerate the
/// multiplicative group.
///
/// The trait is sealed in spirit: it is implemented for [`Gf256`] and
/// [`Gf16`] and generic code should treat it as a closed set.
pub trait GaloisField: Copy + Clone + fmt::Debug + Eq + Send + Sync + 'static {
    /// Number of bits per symbol (`m`).
    const BITS: u32;
    /// Field order `2^m`.
    const ORDER: usize;
    /// Primitive polynomial, including the top `x^m` term.
    const PRIM_POLY: u16;
    /// Largest representable element (`ORDER - 1`), also the multiplicative
    /// group order.
    const GROUP_ORDER: usize = Self::ORDER - 1;

    /// The log/exp tables for this field.
    fn tables() -> &'static Tables;

    /// Field addition (XOR). Also subtraction: every element is its own
    /// additive inverse in characteristic 2.
    #[inline]
    fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = Self::tables();
        let idx = t.log[a as usize] as usize + t.log[b as usize] as usize;
        t.exp[idx]
    }

    /// Multiplicative inverse.
    ///
    /// Returns `None` for zero, which has no inverse.
    #[inline]
    fn inv(a: u8) -> Option<u8> {
        if a == 0 {
            return None;
        }
        let t = Self::tables();
        Some(t.exp[Self::GROUP_ORDER - t.log[a as usize] as usize])
    }

    /// Field division `a / b`.
    ///
    /// Returns `None` when `b == 0`.
    #[inline]
    fn div(a: u8, b: u8) -> Option<u8> {
        if b == 0 {
            return None;
        }
        if a == 0 {
            return Some(0);
        }
        let t = Self::tables();
        let la = t.log[a as usize] as isize;
        let lb = t.log[b as usize] as isize;
        let mut d = la - lb;
        if d < 0 {
            d += Self::GROUP_ORDER as isize;
        }
        Some(t.exp[d as usize])
    }

    /// `alpha^e` where alpha is the primitive element and `e` may be any
    /// integer (negative exponents wrap around the multiplicative group).
    #[inline]
    fn alpha_pow(e: i64) -> u8 {
        let g = Self::GROUP_ORDER as i64;
        let e = e.rem_euclid(g) as usize;
        Self::tables().exp[e]
    }

    /// Discrete log base alpha. `None` for zero.
    #[inline]
    fn log(a: u8) -> Option<u32> {
        if a == 0 {
            None
        } else {
            Some(Self::tables().log[a as usize] as u32)
        }
    }

    /// `a^e` for a non-negative exponent.
    #[inline]
    fn pow(a: u8, e: u32) -> u8 {
        if e == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        let t = Self::tables();
        let l = (t.log[a as usize] as u64 * e as u64) % Self::GROUP_ORDER as u64;
        t.exp[l as usize]
    }
}

/// Exp/log lookup tables for one field.
///
/// `exp` is long enough that the sum of two logs indexes it without a
/// modulo: GF(2^8)'s holds 512 entries, so `log[a] + log[b]` (two `u8`s)
/// never needs a bounds check. GF(2^4)'s tables are sized to that field,
/// so a symbol outside it still panics on lookup.
#[derive(Debug)]
pub struct Tables {
    /// `exp[i] = alpha^(i mod GROUP_ORDER)`.
    pub exp: &'static [u8],
    /// `log[a]` for `a in 1..ORDER`; `log[0]` is unused (set to 0).
    pub log: &'static [u8],
}

/// `alpha^(i mod (order - 1))` for every `i < N`, with `alpha = x` reduced
/// by `prim_poly`.
const fn exp_table<const N: usize>(order: usize, prim_poly: u16) -> [u8; N] {
    let group = order - 1;
    let mut exp = [0u8; N];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < group {
        exp[i] = x as u8;
        x <<= 1;
        if x & order as u16 != 0 {
            x ^= prim_poly;
        }
        i += 1;
    }
    while i < N {
        exp[i] = exp[i - group];
        i += 1;
    }
    exp
}

/// The inverse of [`exp_table`] over the `N = order` field elements.
const fn log_table<const N: usize>(prim_poly: u16) -> [u8; N] {
    let exp = exp_table::<N>(N, prim_poly);
    let mut log = [0u8; N];
    let mut i = 0;
    while i < N - 1 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// GF(2^8), primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11d).
///
/// The workhorse field: 8-bit symbols match one x8 DRAM device beat (or two
/// beats of an x4 device), and RS codes up to length 255 cover every rank
/// organisation in the paper (18-, 36-, and 72-symbol codewords).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf256;

impl GaloisField for Gf256 {
    const BITS: u32 = 8;
    const ORDER: usize = 256;
    const PRIM_POLY: u16 = 0x11d;

    #[inline]
    fn tables() -> &'static Tables {
        // A `const`, not a `static`: every inlined lookup sees the table
        // lengths, so GF(2^8)'s u8 indices compile without bounds checks.
        const T: Tables = Tables {
            exp: &exp_table::<512>(Gf256::ORDER, Gf256::PRIM_POLY),
            log: &log_table::<256>(Gf256::PRIM_POLY),
        };
        &T
    }
}

/// GF(2^4), primitive polynomial `x^4 + x + 1` (0x13).
///
/// Used for narrow codes (nibble-granularity symbols of x4 devices) and as a
/// second field instantiation to keep the generic code honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf16;

impl GaloisField for Gf16 {
    const BITS: u32 = 4;
    const ORDER: usize = 16;
    const PRIM_POLY: u16 = 0x13;

    #[inline]
    fn tables() -> &'static Tables {
        const T: Tables = Tables {
            exp: &exp_table::<30>(Gf16::ORDER, Gf16::PRIM_POLY),
            log: &log_table::<16>(Gf16::PRIM_POLY),
        };
        &T
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_field_axioms<F: GaloisField>() {
        let order = F::ORDER as u16;
        // alpha generates the whole multiplicative group.
        let mut seen = vec![false; F::ORDER];
        for e in 0..F::GROUP_ORDER as i64 {
            let v = F::alpha_pow(e);
            assert!(!seen[v as usize], "alpha^{e} repeated");
            seen[v as usize] = true;
        }
        assert!(!seen[0], "alpha power hit zero");

        for a in 0..order {
            let a = a as u8;
            if a as usize >= F::ORDER {
                break;
            }
            // identity and zero laws
            assert_eq!(F::mul(a, 1), a);
            assert_eq!(F::mul(a, 0), 0);
            assert_eq!(F::add(a, a), 0);
            if a != 0 {
                let inv = F::inv(a).unwrap();
                assert_eq!(F::mul(a, inv), 1, "a * a^-1 != 1 for {a}");
                assert_eq!(F::div(a, a), Some(1));
            }
        }
    }

    fn check_mul_matches_carryless<F: GaloisField>() {
        // Reference: schoolbook carry-less multiply reduced by PRIM_POLY.
        let reduce = |mut v: u32| -> u8 {
            let w = F::BITS;
            let poly = F::PRIM_POLY as u32;
            let mut bit = 31u32;
            while v >= F::ORDER as u32 {
                while (v >> bit) & 1 == 0 {
                    bit -= 1;
                }
                v ^= poly << (bit - w);
            }
            v as u8
        };
        let clmul = |a: u8, b: u8| -> u8 {
            let mut acc = 0u32;
            for i in 0..8 {
                if (b >> i) & 1 == 1 {
                    acc ^= (a as u32) << i;
                }
            }
            reduce(acc)
        };
        for a in 0..F::ORDER {
            for b in 0..F::ORDER {
                assert_eq!(
                    F::mul(a as u8, b as u8),
                    clmul(a as u8, b as u8),
                    "mul mismatch {a}*{b}"
                );
            }
        }
    }

    #[test]
    fn gf256_axioms() {
        check_field_axioms::<Gf256>();
    }

    #[test]
    fn gf16_axioms() {
        check_field_axioms::<Gf16>();
    }

    #[test]
    fn gf256_mul_matches_reference() {
        check_mul_matches_carryless::<Gf256>();
    }

    #[test]
    fn gf16_mul_matches_reference() {
        check_mul_matches_carryless::<Gf16>();
    }

    #[test]
    fn gf256_distributivity_sampled() {
        for a in (0..256).step_by(7) {
            for b in (0..256).step_by(11) {
                for c in (0..256).step_by(13) {
                    let (a, b, c) = (a as u8, b as u8, c as u8);
                    assert_eq!(
                        Gf256::mul(a, Gf256::add(b, c)),
                        Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c))
                    );
                }
            }
        }
    }

    #[test]
    fn alpha_pow_wraps_negative_exponents() {
        assert_eq!(Gf256::alpha_pow(-1), Gf256::inv(2).unwrap());
        assert_eq!(Gf256::alpha_pow(255), Gf256::alpha_pow(0));
        assert_eq!(Gf16::alpha_pow(15), 1);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 87, 255] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(Gf256::pow(a, e), acc, "a={a} e={e}");
                acc = Gf256::mul(acc, a);
            }
        }
    }

    #[test]
    fn gf16_tables_are_sized_to_the_field() {
        // GF(2^8)'s u8 log sums index its 512-entry exp table unchecked,
        // while a symbol outside GF(2^4) still fails its table lookup.
        assert_eq!(Gf256::tables().exp.len(), 512);
        assert_eq!(Gf16::tables().log.len(), Gf16::ORDER);
        assert!(std::panic::catch_unwind(|| Gf16::mul(16, 3)).is_err());
        assert!(std::panic::catch_unwind(|| Gf16::inv(16)).is_err());
        assert_eq!(Gf16::mul(15, 15), Gf16::pow(15, 2));
    }

    #[test]
    fn div_by_zero_is_none() {
        assert_eq!(Gf256::div(5, 0), None);
        assert_eq!(Gf256::inv(0), None);
    }
}
