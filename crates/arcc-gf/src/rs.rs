//! Shortened Reed–Solomon codes with an errors-and-erasures decoder.
//!
//! This is the machinery behind every chipkill organisation in the ARCC
//! paper:
//!
//! * the **relaxed** code ARCC starts every page in — `RS(18, 16)`, one
//!   symbol per device of an 18-device rank, corrects any 1 bad symbol;
//! * the **upgraded** code after a fault is detected — `RS(36, 32)` spanning
//!   two lockstep channels, corrects 2 / detects up to 4 bad symbols;
//! * the commercial **SCCDCD** code — `RS(36, 32)` with a correct-1 policy;
//! * **double chip sparing** — `RS(36, 32)` decoding known-bad devices as
//!   erasures;
//! * the **second-level upgrade** of §5.1 — `RS(72, 64)` across four
//!   channels.
//!
//! The decoder implements Berlekamp–Massey with erasure initialisation,
//! Chien search, and Forney's algorithm, plus a *policy limit* on the number
//! of corrected errors so that schemes which deliberately under-use a code's
//! correction power (e.g. SCCDCD's correct-1/detect-2) can be expressed.
//!
//! The kernels are table-driven, since nearly every line a server reads is
//! clean and nearly every other one has a single bad symbol (a dead
//! device). Encoding is a packed LFSR with one feedback-row lookup per
//! data symbol. A decode runs these stages, each only when the one before
//! it has not settled the word, over fixed stack buffers:
//!
//! 1. **Residue.** Re-encode the data and compare check symbols, as an
//!    EDAC controller does; a zero residue is a codeword.
//! 2. **Table syndromes.** For `n - k <= 8` (every code the workspace
//!    runs), one lookup per residue byte yields all `n - k` syndromes
//!    packed in a word; wider codes evaluate the residue by Horner.
//! 3. **Single-symbol solver.** Syndromes of one bad symbol form a
//!    geometric sequence whose ratio is its locator, so one division
//!    finds the position and another the magnitude.
//! 4. **Berlekamp–Massey, Chien and Forney** for every other word.

use std::fmt;

use crate::field::GaloisField;
use crate::poly::Poly;

/// Configuration or usage error for a Reed–Solomon code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// `n`/`k` do not describe a valid code over this field.
    InvalidParams {
        /// Requested codeword length.
        n: usize,
        /// Requested data length.
        k: usize,
        /// Longest codeword the field supports (`ORDER - 1`).
        max_n: usize,
    },
    /// A data or codeword slice had the wrong length.
    LengthMismatch {
        /// Length the code expected.
        expected: usize,
        /// Length the caller supplied.
        got: usize,
    },
    /// An erasure position was out of range or repeated.
    BadErasure {
        /// The offending position.
        position: usize,
        /// Codeword length.
        n: usize,
    },
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::InvalidParams { n, k, max_n } => write!(
                f,
                "invalid RS parameters n={n}, k={k} (need 0 < k < n <= {max_n})"
            ),
            RsError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "slice length {got} does not match code length {expected}"
                )
            }
            RsError::BadErasure { position, n } => {
                write!(
                    f,
                    "erasure position {position} invalid for codeword length {n}"
                )
            }
        }
    }
}

impl std::error::Error for RsError {}

/// Decoding failed: the codeword is corrupted beyond the code's (or the
/// policy's) correction capability, but the corruption was *detected*.
///
/// In memory-reliability terms this is a DUE (detected uncorrectable error);
/// the silent failure mode — miscorrection — is when `decode` succeeds but
/// returns wrong data, which is only possible when the number of bad symbols
/// exceeds the code's guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The error pattern is outside the correctable region.
    Uncorrectable {
        /// Number of erasures the caller declared.
        erasures: usize,
    },
    /// The pattern was correctable by the code, but correcting it would
    /// exceed the caller's policy limit (`max_errors`), so it is reported as
    /// detected-uncorrectable instead.
    PolicyLimited {
        /// Errors the decoder would have had to correct.
        needed: usize,
        /// The policy limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Uncorrectable { erasures } => {
                write!(
                    f,
                    "detected uncorrectable error ({erasures} declared erasures)"
                )
            }
            DecodeError::PolicyLimited { needed, limit } => write!(
                f,
                "correctable pattern of {needed} errors exceeds policy limit {limit}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One corrected symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correction {
    /// Symbol index within the codeword (0-based, data-first order).
    pub position: usize,
    /// XOR pattern applied to restore the symbol.
    pub magnitude: u8,
    /// Whether this position was declared as an erasure by the caller.
    pub was_erasure: bool,
}

/// Result of a successful decode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodeOutcome {
    corrections: Vec<Correction>,
}

impl DecodeOutcome {
    /// True when the codeword was already valid (no symbols were changed).
    pub fn is_clean(&self) -> bool {
        self.corrections.is_empty()
    }

    /// The corrected symbols, in ascending position order.
    pub fn corrections(&self) -> &[Correction] {
        &self.corrections
    }

    /// Positions of corrected symbols, in ascending order.
    pub fn corrected_positions(&self) -> Vec<usize> {
        self.corrections.iter().map(|c| c.position).collect()
    }

    /// Number of corrections that were *not* declared erasures, i.e. errors
    /// the decoder located by itself.
    pub fn located_errors(&self) -> usize {
        self.corrections.iter().filter(|c| !c.was_erasure).count()
    }
}

/// A systematic shortened Reed–Solomon code `RS(n, k)` over the field `F`.
///
/// The first `k` symbols of a codeword are the data symbols, the trailing
/// `n - k` are check symbols. First consecutive root is `alpha^1`.
#[derive(Clone)]
pub struct ReedSolomon<F: GaloisField> {
    n: usize,
    k: usize,
    genpoly: Poly<F>,
    /// Encoder feedback rows (row `f` is `f * g(x)` below its `x^(n-k)`
    /// term, packed into the register layout of [`step`]) and, for narrow
    /// codes, the syndrome rows.
    taps: Taps,
}

impl<F: GaloisField> fmt::Debug for ReedSolomon<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The tables are a pure function of these three fields.
        f.debug_struct("ReedSolomon")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("genpoly", &self.genpoly)
            .finish()
    }
}

const FCR: i64 = 1;

/// Coefficient slots of every fixed-size buffer: polynomials of the
/// error path have degree at most `n - k <= 254`, and codewords hold at
/// most 255 symbols.
pub(crate) const SLOTS: usize = 256;

/// Register words of a code with more than 8 check symbols: 254 check
/// symbols need 32 words of 8 byte lanes.
const WIDE: usize = 32;

/// The encoder feedback rows, one per field element, and a narrow
/// code's syndrome rows.
#[derive(Debug, Clone)]
enum Taps {
    /// `n - k <= 8`: a row (and the register) is one word, and so are the
    /// `n - k` syndromes. `synd` holds [`build_syndrome_rows`]' rows.
    Narrow {
        lfsr: Box<[[u64; 1]]>,
        synd: Box<[u64]>,
    },
    /// Wider codes: the same LFSR over a [`WIDE`]-word register, and
    /// syndromes by Horner.
    Wide(Box<[[u64; WIDE]]>),
}

/// Builds the feedback rows: row `f` holds `f * g_(r-1-i)` in lane `i`
/// for `r = n - k`. Multiplying by `g` is GF(2)-linear in `f`, so only
/// the `BITS` basis rows need field multiplies: once rows `0..2^b` are
/// done, row `2^b + f` is row `f` XOR basis row `2^b`.
fn build_taps<F: GaloisField, const L: usize>(genpoly: &Poly<F>, nroots: usize) -> Box<[[u64; L]]> {
    let mut rows = vec![[0u64; L]; F::ORDER];
    for bit in 0..F::BITS {
        let f = 1usize << bit;
        let mut basis = [0u64; L];
        for i in 0..nroots {
            let c = F::mul(f as u8, genpoly.coeff(nroots - 1 - i));
            basis[i / 8] |= u64::from(c) << (56 - 8 * (i % 8));
        }
        let (done, next) = rows.split_at_mut(f);
        for (row, prev) in next.iter_mut().zip(done) {
            for w in 0..L {
                row[w] = prev[w] ^ basis[w];
            }
        }
    }
    rows.into_boxed_slice()
}

/// Builds the syndrome rows of a code with `r = n - k <= 8` check
/// symbols: row `j * ORDER + v` packs, in byte `i`, what residue byte `v`
/// in slot `j` adds to syndrome `i`, namely `v * alpha^((FCR+i)(r-1-j))`.
/// A residue's syndromes are then the XOR of one row per residue byte.
/// The rows are linear in `v`, so they are built like [`build_taps`]'.
fn build_syndrome_rows<F: GaloisField>(nroots: usize) -> Box<[u64]> {
    let exp = F::tables().exp;
    let mut rows = vec![0u64; nroots * F::ORDER];
    for (j, slot) in rows.chunks_exact_mut(F::ORDER).enumerate() {
        let power = nroots - 1 - j;
        for bit in 0..F::BITS as usize {
            // Basis value 2^bit is alpha^bit (alpha = 2), so each lane is
            // one exp lookup: alpha^(bit + (FCR+i) * power).
            let basis = (0..nroots).fold(0u64, |acc, i| {
                let e = (FCR as usize + i) * power % F::GROUP_ORDER;
                acc | u64::from(exp[bit + e]) << (8 * i)
            });
            let v = 1usize << bit;
            let (done, next) = slot.split_at_mut(v);
            for (row, prev) in next.iter_mut().zip(done) {
                *row = *prev ^ basis;
            }
        }
    }
    rows.into_boxed_slice()
}

/// One encoder LFSR step on a packed register: check symbol `i` sits in
/// byte lane `i % 8` of word `i / 8`, counting from the most significant
/// byte, so lane 0 of word 0 is the top symbol. The step shifts every
/// symbol up one lane and adds the feedback row of `d ^ top`.
#[inline(always)]
fn step<const L: usize>(reg: &mut [u64; L], taps: &[[u64; L]], d: u8) {
    let row = &taps[usize::from(d ^ (reg[0] >> 56) as u8)];
    for w in 0..L - 1 {
        reg[w] = (reg[w] << 8 | reg[w + 1] >> 56) ^ row[w];
    }
    reg[L - 1] = (reg[L - 1] << 8) ^ row[L - 1];
}

/// Runs `W` independent encoder LFSRs interleaved over data symbols
/// `0..k`, so the step latencies of the codewords overlap: `sym(i)` holds
/// symbol `i` of every codeword, and check symbol `j` of codeword `w`
/// goes to `check(w, j, symbol)`.
#[inline(always)]
fn run_lfsr<const L: usize, const W: usize>(
    taps: &[[u64; L]],
    k: usize,
    nroots: usize,
    mut sym: impl FnMut(usize) -> [u8; W],
    mut check: impl FnMut(usize, usize, u8),
) {
    let mut regs = [[0u64; L]; W];
    for i in 0..k {
        let s = sym(i);
        for (reg, &d) in regs.iter_mut().zip(&s) {
            step(reg, taps, d);
        }
    }
    for j in 0..nroots {
        for (w, reg) in regs.iter().enumerate() {
            check(w, j, (reg[j / 8] >> (56 - 8 * (j % 8))) as u8);
        }
    }
}

/// Horner evaluation of the little-endian coefficients `p` at `x`.
#[inline]
fn eval<F: GaloisField>(p: &[u8], x: u8) -> u8 {
    p.iter().rev().fold(0, |acc, &c| F::add(F::mul(acc, x), c))
}

/// Declared erasure positions as a bitset over `0..n` (`n <= 255`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ErasureSet([u64; 4]);

impl ErasureSet {
    fn contains(&self, p: usize) -> bool {
        self.0[p / 64] >> (p % 64) & 1 == 1
    }
}

/// The corrections of one word in ascending position order, zero
/// magnitudes dropped: a [`DecodeOutcome`] without its `Vec`.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Fixes {
    len: usize,
    positions: [u8; SLOTS],
    magnitudes: [u8; SLOTS],
}

impl Fixes {
    fn new() -> Self {
        Self {
            len: 0,
            positions: [0; SLOTS],
            magnitudes: [0; SLOTS],
        }
    }

    fn push(&mut self, position: usize, magnitude: u8) {
        self.positions[self.len] = position as u8;
        self.magnitudes[self.len] = magnitude;
        self.len += 1;
    }

    /// `(position, magnitude)` of every correction.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        let positions = self.positions[..self.len].iter().map(|&p| usize::from(p));
        positions.zip(self.magnitudes[..self.len].iter().copied())
    }
}

impl fmt::Debug for Fixes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<F: GaloisField> ReedSolomon<F> {
    /// Creates an `RS(n, k)` code.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParams`] unless `0 < k < n <= ORDER - 1`.
    pub fn new(n: usize, k: usize) -> Result<Self, RsError> {
        let max_n = F::ORDER - 1;
        if k == 0 || k >= n || n > max_n {
            return Err(RsError::InvalidParams { n, k, max_n });
        }
        let nroots = n - k;
        // g(x) = prod_{i=0}^{nroots-1} (x - alpha^(FCR+i))
        let mut genpoly = Poly::<F>::one();
        for i in 0..nroots {
            let root = F::alpha_pow(FCR + i as i64);
            genpoly = genpoly.mul(&Poly::from_coeffs(vec![root, 1]));
        }
        let taps = if nroots <= 8 {
            Taps::Narrow {
                lfsr: build_taps(&genpoly, nroots),
                synd: build_syndrome_rows::<F>(nroots),
            }
        } else {
            Taps::Wide(build_taps(&genpoly, nroots))
        };
        Ok(Self {
            n,
            k,
            genpoly,
            taps,
        })
    }

    /// Codeword length in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data symbols per codeword.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of check symbols (`n - k`).
    pub fn nroots(&self) -> usize {
        self.n - self.k
    }

    /// Maximum number of errors correctable with no erasures
    /// (`floor((n-k)/2)`).
    pub fn max_correctable(&self) -> usize {
        self.nroots() / 2
    }

    /// Minimum Hamming distance of the code (`n - k + 1`).
    pub fn min_distance(&self) -> usize {
        self.nroots() + 1
    }

    /// Location value `X_j = alpha^(n-1-j)` for codeword position `j`.
    #[inline]
    fn loc(&self, j: usize) -> u8 {
        F::alpha_pow((self.n - 1 - j) as i64)
    }

    /// The inverse locators `X_j^-1 = alpha^(j+1-n)` of positions `0..n`:
    /// a window of the exp table, which runs past `alpha^GROUP_ORDER`.
    #[inline]
    fn inv_locs(&self) -> &'static [u8] {
        &F::tables().exp[F::GROUP_ORDER + 1 - self.n..][..self.n]
    }

    /// Encodes `W` interleaved codewords: `sym(i)` holds data symbol `i`
    /// (`i < k`) of every codeword, and check symbol `j` of codeword `w`
    /// goes to `check(w, j, symbol)`.
    #[inline(always)]
    pub(crate) fn encode_lanes<const W: usize>(
        &self,
        sym: impl FnMut(usize) -> [u8; W],
        check: impl FnMut(usize, usize, u8),
    ) {
        let nroots = self.nroots();
        // One row per field element: a symbol outside the field panics on
        // lookup, and GF(2^8)'s u8 feedback needs no bounds check.
        match &self.taps {
            Taps::Narrow { lfsr, .. } => run_lfsr(&lfsr[..F::ORDER], self.k, nroots, sym, check),
            Taps::Wide(taps) => run_lfsr(&taps[..F::ORDER], self.k, nroots, sym, check),
        }
    }

    /// Residues of `W` interleaved words: `sym(i)` holds symbol `i` (`i <
    /// n`) of every word, and `out(w, j, r)` receives word `w`'s
    /// re-encoded check symbol `j` XOR its stored one. A word is a
    /// codeword exactly when its residue is zero, which is what an EDAC
    /// controller computes.
    #[inline(always)]
    pub(crate) fn residue_lanes<const W: usize>(
        &self,
        sym: impl Fn(usize) -> [u8; W],
        mut out: impl FnMut(usize, usize, u8),
    ) {
        let k = self.k;
        self.encode_lanes(&sym, |w, j, p| out(w, j, p ^ sym(k + j)[w]));
    }

    /// Residue of one codeword into `res[..n-k]`; true when it is non-zero.
    fn residue(&self, cw: &[u8], res: &mut [u8; SLOTS]) -> bool {
        let mut any = 0u8;
        self.residue_lanes(
            |i| [cw[i]],
            |_, j, r| {
                res[j] = r;
                any |= r;
            },
        );
        any != 0
    }

    /// The `n - k` syndromes `S_i = c(alpha^(FCR+i))` from the residue
    /// `R(x) = c(x) mod g(x)` in `res[..n-k]`: `g` vanishes at every root,
    /// so `S_i = R(alpha^(FCR+i))`. A narrow code looks up one syndrome
    /// row per residue byte; a wider one takes `(n-k)^2` multiplies
    /// instead of `n(n-k)`.
    fn residue_syndromes(&self, res: &[u8], synd: &mut [u8]) {
        let res = &res[..self.nroots()];
        match &self.taps {
            Taps::Narrow { synd: rows, .. } => {
                // One row per field element: a byte outside the field
                // panics on lookup, as the encoder's feedback does.
                let packed = res
                    .iter()
                    .zip(rows.chunks_exact(F::ORDER))
                    .fold(0u64, |acc, (&r, row)| acc ^ row[usize::from(r)]);
                for (i, slot) in synd.iter_mut().enumerate() {
                    *slot = (packed >> (8 * i)) as u8;
                }
            }
            Taps::Wide(_) => {
                for (i, slot) in synd.iter_mut().enumerate() {
                    let x = F::alpha_pow(FCR + i as i64);
                    // The residue is in transmission order: res[0] is the
                    // highest power.
                    *slot = res.iter().fold(0, |acc, &r| F::add(F::mul(acc, x), r));
                }
            }
        }
    }

    /// Checks declared erasures (every position `< n`, none repeated) and
    /// returns them as a set.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or duplicated position.
    pub(crate) fn erasure_set(&self, erasures: &[usize]) -> ErasureSet {
        let mut seen = ErasureSet::default();
        for &p in erasures {
            assert!(p < self.n, "erasure position {p} out of range");
            assert!(!seen.contains(p), "duplicate erasure position {p}");
            seen.0[p / 64] |= 1 << (p % 64);
        }
        seen
    }

    /// Computes the check symbols for `data` (length `k`) into
    /// `parity[..n-k]`, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k`.
    pub(crate) fn encode_into(&self, data: &[u8], parity: &mut [u8]) -> Result<(), RsError> {
        if data.len() != self.k {
            return Err(RsError::LengthMismatch {
                expected: self.k,
                got: data.len(),
            });
        }
        // Systematic encoding: remainder of m(x) * x^nroots by g(x), done
        // with an LFSR (what the EDAC controller implements).
        self.encode_lanes(|i| [data[i]], |_, j, p| parity[j] = p);
        Ok(())
    }

    /// Computes the `n - k` check symbols for `data` (length `k`).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        let mut parity = vec![0u8; self.nroots()];
        self.encode_into(data, &mut parity)?;
        Ok(parity)
    }

    /// Encodes `data` into a fresh `n`-symbol codeword (data then checks).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k`.
    pub fn encode_to_codeword(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        let mut cw = vec![0u8; self.n];
        self.encode_into(data, &mut cw[self.k..])?;
        cw[..self.k].copy_from_slice(data);
        Ok(cw)
    }

    /// Computes the `n - k` syndromes of a codeword. All-zero syndromes mean
    /// the word is a valid codeword.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n` (programming error in the caller).
    #[cfg(test)]
    pub fn syndromes(&self, cw: &[u8]) -> Vec<u8> {
        assert_eq!(cw.len(), self.n, "codeword length mismatch");
        let mut res = [0u8; SLOTS];
        self.residue(cw, &mut res);
        let mut out = vec![0u8; self.nroots()];
        self.residue_syndromes(&res, &mut out);
        out
    }

    /// True when `cw` is a valid codeword (no detectable error).
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n`.
    pub fn is_valid(&self, cw: &[u8]) -> bool {
        assert_eq!(cw.len(), self.n, "codeword length mismatch");
        !self.residue(cw, &mut [0u8; SLOTS])
    }

    /// Detect-only check: returns `true` when an error is present.
    ///
    /// A code with `r` check symbols running detect-only is guaranteed to
    /// flag any pattern of up to `r` bad symbols.
    pub fn detect(&self, cw: &[u8]) -> bool {
        !self.is_valid(cw)
    }

    /// Full-power errors-and-erasures decode, correcting in place.
    ///
    /// Corrects any pattern with `2 * errors + erasures <= n - k`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Uncorrectable`] when the pattern is outside the
    /// correctable region (the codeword is left unmodified).
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n` or an erasure position is out of range or
    /// duplicated.
    pub fn decode(&self, cw: &mut [u8], erasures: &[usize]) -> Result<DecodeOutcome, DecodeError> {
        self.decode_with_limit(cw, erasures, self.max_correctable())
    }

    /// Like [`decode`](Self::decode), but refuses to apply a correction that
    /// fixes more than `max_errors` non-erasure errors, reporting
    /// [`DecodeError::PolicyLimited`] instead.
    ///
    /// This expresses deliberately weakened policies such as commercial
    /// SCCDCD, which owns 4 check symbols but corrects only 1 bad symbol so
    /// that 2 bad symbols remain guaranteed-detectable.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Uncorrectable`] or [`DecodeError::PolicyLimited`]; the
    /// codeword is left unmodified in both cases.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != n` or an erasure position is invalid.
    pub fn decode_with_limit(
        &self,
        cw: &mut [u8],
        erasures: &[usize],
        max_errors: usize,
    ) -> Result<DecodeOutcome, DecodeError> {
        assert_eq!(cw.len(), self.n, "codeword length mismatch");
        let erased = self.erasure_set(erasures);
        let nu = erasures.len();
        if nu > self.nroots() {
            return Err(DecodeError::Uncorrectable { erasures: nu });
        }
        let mut res = [0u8; SLOTS];
        if !self.residue(cw, &mut res) {
            // Valid codeword. Any declared erasures turned out intact.
            return Ok(DecodeOutcome::default());
        }
        let fixes = self.correct(cw, erasures, erased, &res, max_errors)?;
        let corrections = fixes
            .iter()
            .map(|(position, magnitude)| Correction {
                position,
                magnitude,
                was_erasure: erased.contains(position),
            })
            .collect();
        Ok(DecodeOutcome { corrections })
    }

    /// The error path of [`decode_with_limit`](Self::decode_with_limit),
    /// for a word `cw` with non-zero residue `res[..n-k]` and checked
    /// erasures, at most `n - k` of them. Table syndromes feed the
    /// single-symbol solver, and every word it does not answer goes to
    /// Berlekamp–Massey, Chien and Forney. On success the corrections are
    /// applied to `cw`; on error `cw` is left as it was.
    pub(crate) fn correct(
        &self,
        cw: &mut [u8],
        erasures: &[usize],
        erased: ErasureSet,
        res: &[u8],
        max_errors: usize,
    ) -> Result<Fixes, DecodeError> {
        let nroots = self.nroots();
        let mut synd = [0u8; SLOTS];
        let synd = &mut synd[..nroots];
        self.residue_syndromes(res, synd);
        let Some((j, e)) = self.single_symbol(synd, erasures) else {
            return self.berlekamp_massey(cw, erasures, erased, synd, max_errors);
        };
        // The general path on a copy must reach the same answer.
        #[cfg(debug_assertions)]
        let mut shadow = {
            let mut buf = [0u8; SLOTS];
            buf[..self.n].copy_from_slice(cw);
            buf
        };
        let got = if erasures.is_empty() && max_errors == 0 {
            Err(DecodeError::PolicyLimited {
                needed: 1,
                limit: 0,
            })
        } else {
            // Consistent syndromes: the corrected word is a codeword.
            cw[j] = F::add(cw[j], e);
            let mut fixes = Fixes::new();
            fixes.push(j, e);
            Ok(fixes)
        };
        #[cfg(debug_assertions)]
        {
            let shadow = &mut shadow[..self.n];
            let want = self.berlekamp_massey(shadow, erasures, erased, synd, max_errors);
            debug_assert_eq!(got, want, "single-symbol solver vs Berlekamp–Massey");
            debug_assert_eq!(&*cw, &*shadow, "single-symbol solver's word");
        }
        got
    }

    /// The closed-form decode of one bad symbol, or `None` to leave the
    /// word to Berlekamp–Massey. An error `e` at position `j`, locator
    /// `X = alpha^(n-1-j)`, has syndromes `S_i = e * X^(i+1)`: so when
    /// `S_0` and `S_1` are non-zero and every `S_(i+1) = X * S_i` with `X
    /// = S_1 / S_0`, the one error is `e = S_0 / X` at `j = n-1-log X`,
    /// provided `j` lies inside the shortened code. It answers only with
    /// no declared erasures or exactly `{j}`, where Berlekamp–Massey finds
    /// the same one-root locator `1 + X x`. A code with one check symbol
    /// has no `S_1`, so it never answers there.
    fn single_symbol(&self, synd: &[u8], erasures: &[usize]) -> Option<(usize, u8)> {
        let (&s0, &s1) = (synd.first()?, synd.get(1)?);
        let x = F::div(s1, s0)?;
        let log = F::log(x)? as usize;
        if log >= self.n || synd.windows(2).any(|s| s[1] != F::mul(x, s[0])) {
            return None;
        }
        let j = self.n - 1 - log;
        match erasures {
            [] => {}
            [p] if *p == j => {}
            _ => return None,
        }
        Some((j, F::div(s0, x)?))
    }

    /// Berlekamp–Massey, Chien and Forney over fixed stack buffers, for a
    /// word with non-zero syndromes `synd`; the rest as for
    /// [`correct`](Self::correct).
    fn berlekamp_massey(
        &self,
        cw: &mut [u8],
        erasures: &[usize],
        erased: ErasureSet,
        synd: &[u8],
        max_errors: usize,
    ) -> Result<Fixes, DecodeError> {
        let nroots = self.nroots();
        let nu = erasures.len();
        let uncorrectable = DecodeError::Uncorrectable { erasures: nu };

        // Erasure locator Gamma(x) = prod (1 - X_j x). Every buffer holds a
        // polynomial's little-endian coefficients, zero above its degree.
        let mut lambda = [0u8; SLOTS];
        lambda[0] = 1;
        for (m, &p) in erasures.iter().enumerate() {
            let x = self.loc(p);
            for i in (1..=m + 1).rev() {
                lambda[i] = F::add(lambda[i], F::mul(lambda[i - 1], x));
            }
        }

        // Berlekamp–Massey seeded with the erasure locator (Karn's
        // formulation: run on raw syndromes starting at step nu). Before
        // step r both lambda and b have degree below r.
        let mut b = lambda;
        let mut el = nu;
        for r in nu + 1..=nroots {
            let mut discr = 0u8;
            for i in 0..r {
                discr = F::add(discr, F::mul(lambda[i], synd[r - 1 - i]));
            }
            // `b <- x * b` rotates b[r], which is zero, into b[0].
            if discr == 0 {
                b[..=r].rotate_right(1);
                continue;
            }
            let mut t = lambda;
            for i in 1..=r {
                t[i] = F::add(t[i], F::mul(b[i - 1], discr));
            }
            if 2 * el < r + nu {
                el = r + nu - el;
                // discr != 0 on this branch, so inv always succeeds;
                // treat the impossible case as an uncorrectable word
                // rather than panicking in library code.
                let Some(dinv) = F::inv(discr) else {
                    return Err(uncorrectable);
                };
                for i in 0..=r {
                    b[i] = F::mul(lambda[i], dinv);
                }
            } else {
                b[..=r].rotate_right(1);
            }
            lambda = t;
        }

        let deg_lambda = match lambda.iter().rposition(|&c| c != 0) {
            Some(d) => d,
            None => return Err(uncorrectable),
        };
        if deg_lambda > nroots {
            return Err(uncorrectable);
        }
        let lambda = &lambda[..=deg_lambda];

        // Chien search restricted to the n real positions of the shortened
        // code. Roots landing in the virtual padding mean a bogus locator.
        let mut roots = [0u8; SLOTS];
        let mut found = 0;
        let inv_locs = self.inv_locs();
        for (j, &xinv) in inv_locs.iter().enumerate() {
            if eval::<F>(lambda, xinv) == 0 {
                if found == deg_lambda {
                    return Err(uncorrectable);
                }
                roots[found] = j as u8;
                found += 1;
            }
        }
        if found != deg_lambda {
            return Err(uncorrectable);
        }
        let roots = &roots[..found];

        // Omega(x) = S(x) * Lambda(x) mod x^nroots, and Lambda'(x): in
        // characteristic 2 only the odd-power terms survive.
        let mut omega = [0u8; SLOTS];
        for (i, &s) in synd[..nroots].iter().enumerate() {
            for (j, &l) in lambda.iter().enumerate().take(nroots - i) {
                omega[i + j] = F::add(omega[i + j], F::mul(s, l));
            }
        }
        let mut deriv = [0u8; SLOTS];
        for i in (1..lambda.len()).step_by(2) {
            deriv[i - 1] = lambda[i];
        }

        // Forney: magnitude at position j with X = loc(j) is
        //   e_j = X^(1-FCR) * Omega(X^-1) / Lambda'(X^-1);  FCR = 1 makes the
        // leading factor 1.
        let mut mags = [0u8; SLOTS];
        let mut located = 0;
        for (slot, &j) in mags.iter_mut().zip(roots) {
            let j = usize::from(j);
            let xinv = inv_locs[j];
            let denom = eval::<F>(&deriv[..deg_lambda], xinv);
            let num = eval::<F>(&omega[..nroots], xinv);
            let Some(mag) = F::div(num, denom) else {
                return Err(uncorrectable);
            };
            let was_erasure = erased.contains(j);
            if mag == 0 && !was_erasure {
                // A located error with zero magnitude is inconsistent.
                return Err(uncorrectable);
            }
            located += usize::from(!was_erasure);
            *slot = mag;
        }
        if located > max_errors {
            return Err(DecodeError::PolicyLimited {
                needed: located,
                limit: max_errors,
            });
        }

        // Apply, then verify. A consistent correction must produce a valid
        // codeword; if not, roll back and report uncorrectable.
        let all = || {
            roots
                .iter()
                .map(|&j| usize::from(j))
                .zip(mags.iter().copied())
        };
        for (j, m) in all() {
            cw[j] = F::add(cw[j], m);
        }
        if !self.is_valid(cw) {
            for (j, m) in all() {
                cw[j] = F::add(cw[j], m);
            }
            return Err(uncorrectable);
        }

        // Chien visits positions in ascending order, so the corrections
        // already are.
        let mut fixes = Fixes::new();
        for (j, m) in all().filter(|&(_, m)| m != 0) {
            fixes.push(j, m);
        }
        Ok(fixes)
    }
}

/// The scalar encoder, syndromes and decoder this module's table-driven
/// kernels replaced, kept verbatim as the oracle of the differential
/// tests: one `F::mul` per generator coefficient per symbol, `n * (n - k)`
/// syndrome products, and `Poly` arithmetic on the error path.
#[cfg(test)]
mod reference {
    use super::*;

    impl<F: GaloisField> ReedSolomon<F> {
        pub(super) fn reference_encode(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
            if data.len() != self.k {
                return Err(RsError::LengthMismatch {
                    expected: self.k,
                    got: data.len(),
                });
            }
            let nroots = self.nroots();
            // Systematic encoding: remainder of m(x) * x^nroots by g(x), done
            // with an LFSR-style loop (what the EDAC controller implements).
            let mut parity = vec![0u8; nroots];
            for &d in data {
                let feedback = F::add(d, parity[0]);
                // Shift left by one symbol while accumulating feedback * g.
                for i in 0..nroots - 1 {
                    parity[i] = F::add(
                        parity[i + 1],
                        F::mul(feedback, self.genpoly.coeff(nroots - 1 - i)),
                    );
                }
                parity[nroots - 1] = F::mul(feedback, self.genpoly.coeff(0));
            }
            Ok(parity)
        }

        pub(super) fn reference_syndromes(&self, cw: &[u8]) -> Vec<u8> {
            assert_eq!(cw.len(), self.n, "codeword length mismatch");
            let nroots = self.nroots();
            let mut out = vec![0u8; nroots];
            for (i, slot) in out.iter_mut().enumerate() {
                let x = F::alpha_pow(FCR + i as i64);
                // Horner over transmission order: cw[0] is the highest power.
                let mut acc = 0u8;
                for &c in cw {
                    acc = F::add(F::mul(acc, x), c);
                }
                *slot = acc;
            }
            out
        }

        pub(super) fn reference_is_valid(&self, cw: &[u8]) -> bool {
            self.reference_syndromes(cw).iter().all(|&s| s == 0)
        }

        pub(super) fn reference_decode_with_limit(
            &self,
            cw: &mut [u8],
            erasures: &[usize],
            max_errors: usize,
        ) -> Result<DecodeOutcome, DecodeError> {
            assert_eq!(cw.len(), self.n, "codeword length mismatch");
            let nroots = self.nroots();
            let nu = erasures.len();
            {
                let mut seen = vec![false; self.n];
                for &p in erasures {
                    assert!(p < self.n, "erasure position {p} out of range");
                    assert!(!seen[p], "duplicate erasure position {p}");
                    seen[p] = true;
                }
            }
            if nu > nroots {
                return Err(DecodeError::Uncorrectable { erasures: nu });
            }

            let synd = self.reference_syndromes(cw);
            if synd.iter().all(|&s| s == 0) {
                // Valid codeword. Any declared erasures turned out intact.
                return Ok(DecodeOutcome::default());
            }

            // Erasure locator Gamma(x) = prod (1 - X_j x).
            let mut lambda = Poly::<F>::one();
            for &p in erasures {
                let term = Poly::from_coeffs(vec![1, self.loc(p)]);
                lambda = lambda.mul(&term);
            }

            // Berlekamp–Massey seeded with the erasure locator (Karn's
            // formulation: run on raw syndromes starting at step nu).
            let mut b = lambda.clone();
            let mut el = nu;
            for r in nu + 1..=nroots {
                let mut discr = 0u8;
                let deg = lambda.degree().unwrap_or(0);
                for i in 0..=deg.min(r - 1) {
                    discr = F::add(discr, F::mul(lambda.coeff(i), synd[r - 1 - i]));
                }
                if discr == 0 {
                    b = b.mul(&Poly::monomial(1, 1));
                } else {
                    let t = lambda.add(&b.mul(&Poly::monomial(discr, 1)));
                    if 2 * el < r + nu {
                        el = r + nu - el;
                        // discr != 0 on this branch, so inv always succeeds;
                        // treat the impossible case as an uncorrectable word
                        // rather than panicking in library code.
                        let Some(dinv) = F::inv(discr) else {
                            return Err(DecodeError::Uncorrectable { erasures: nu });
                        };
                        b = lambda.scale(dinv);
                    } else {
                        b = b.mul(&Poly::monomial(1, 1));
                    }
                    lambda = t;
                }
            }

            let deg_lambda = match lambda.degree() {
                Some(d) => d,
                None => return Err(DecodeError::Uncorrectable { erasures: nu }),
            };
            if deg_lambda > nroots {
                return Err(DecodeError::Uncorrectable { erasures: nu });
            }

            // Chien search restricted to the n real positions of the shortened
            // code. Roots landing in the virtual padding mean a bogus locator.
            let mut root_positions = Vec::with_capacity(deg_lambda);
            for j in 0..self.n {
                // loc(j) is a non-zero field element by construction; skip the
                // impossible zero rather than panicking.
                let Some(xinv) = F::inv(self.loc(j)) else {
                    return Err(DecodeError::Uncorrectable { erasures: nu });
                };
                if lambda.eval(xinv) == 0 {
                    root_positions.push(j);
                }
            }
            if root_positions.len() != deg_lambda {
                return Err(DecodeError::Uncorrectable { erasures: nu });
            }

            // Omega(x) = S(x) * Lambda(x) mod x^nroots.
            let spoly = Poly::<F>::from_coeffs(synd.clone());
            let omega = spoly.mul(&lambda).truncate(nroots);
            let lambda_deriv = lambda.derivative();

            // Forney: magnitude at position j with X = loc(j) is
            //   e_j = X^(1-FCR) * Omega(X^-1) / Lambda'(X^-1);  FCR = 1 makes the
            // leading factor 1.
            let mut corrections = Vec::with_capacity(root_positions.len());
            for &j in &root_positions {
                let Some(xinv) = F::inv(self.loc(j)) else {
                    return Err(DecodeError::Uncorrectable { erasures: nu });
                };
                let denom = lambda_deriv.eval(xinv);
                let num = omega.eval(xinv);
                let mag = match F::div(num, denom) {
                    Some(m) => m,
                    None => return Err(DecodeError::Uncorrectable { erasures: nu }),
                };
                if mag == 0 && !erasures.contains(&j) {
                    // A located error with zero magnitude is inconsistent.
                    return Err(DecodeError::Uncorrectable { erasures: nu });
                }
                corrections.push(Correction {
                    position: j,
                    magnitude: mag,
                    was_erasure: erasures.contains(&j),
                });
            }

            let located = corrections.iter().filter(|c| !c.was_erasure).count();
            if located > max_errors {
                return Err(DecodeError::PolicyLimited {
                    needed: located,
                    limit: max_errors,
                });
            }

            // Apply, then verify. A consistent correction must produce a valid
            // codeword; if not, roll back and report uncorrectable.
            for c in &corrections {
                cw[c.position] = F::add(cw[c.position], c.magnitude);
            }
            if !self.reference_is_valid(cw) {
                for c in &corrections {
                    cw[c.position] = F::add(cw[c.position], c.magnitude);
                }
                return Err(DecodeError::Uncorrectable { erasures: nu });
            }

            corrections.retain(|c| c.magnitude != 0);
            corrections.sort_by_key(|c| c.position);
            Ok(DecodeOutcome { corrections })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{Gf16, Gf256};

    fn rs(n: usize, k: usize) -> ReedSolomon<Gf256> {
        ReedSolomon::new(n, k).unwrap()
    }

    #[test]
    fn params_validation() {
        assert!(ReedSolomon::<Gf256>::new(18, 16).is_ok());
        assert!(ReedSolomon::<Gf256>::new(256, 250).is_err());
        assert!(ReedSolomon::<Gf256>::new(10, 10).is_err());
        assert!(ReedSolomon::<Gf256>::new(10, 0).is_err());
        assert!(ReedSolomon::<Gf16>::new(15, 11).is_ok());
        assert!(ReedSolomon::<Gf16>::new(16, 11).is_err());
    }

    #[test]
    fn encode_roundtrip_clean() {
        let code = rs(36, 32);
        let data: Vec<u8> = (0..32).map(|i| (i * 7 + 3) as u8).collect();
        let mut cw = code.encode_to_codeword(&data).unwrap();
        assert!(code.is_valid(&cw));
        let out = code.decode(&mut cw, &[]).unwrap();
        assert!(out.is_clean());
        assert_eq!(&cw[..32], &data[..]);
    }

    #[test]
    fn encode_wrong_length_errors() {
        let code = rs(18, 16);
        assert!(matches!(
            code.encode(&[0u8; 15]),
            Err(RsError::LengthMismatch {
                expected: 16,
                got: 15
            })
        ));
    }

    #[test]
    fn single_error_corrected_everywhere() {
        let code = rs(18, 16);
        let data: Vec<u8> = (0..16).map(|i| (i * 13 + 1) as u8).collect();
        let clean = code.encode_to_codeword(&data).unwrap();
        for pos in 0..18 {
            for mag in [1u8, 0x80, 0xff] {
                let mut cw = clean.clone();
                cw[pos] ^= mag;
                let out = code.decode(&mut cw, &[]).unwrap();
                assert_eq!(out.corrected_positions(), vec![pos]);
                assert_eq!(cw, clean);
            }
        }
    }

    #[test]
    fn two_errors_uncorrectable_with_two_checks() {
        // RS(18,16): d=3, corrects 1. Two errors must never be "corrected"
        // into the original codeword; they are either detected or (allowed by
        // theory) miscorrected into a *different* valid codeword.
        let code = rs(18, 16);
        let data = [0x55u8; 16];
        let clean = code.encode_to_codeword(&data).unwrap();
        let mut detected = 0;
        let mut miscorrected = 0;
        for p1 in 0..17 {
            let mut cw = clean.clone();
            cw[p1] ^= 0xa5;
            cw[p1 + 1] ^= 0x3c;
            match code.decode(&mut cw, &[]) {
                Err(DecodeError::Uncorrectable { .. }) => detected += 1,
                Ok(_) => {
                    assert_ne!(cw, clean, "two errors silently reverted?");
                    miscorrected += 1;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(detected + miscorrected == 17);
        assert!(detected > 0, "at least some double errors must be detected");
    }

    #[test]
    fn double_error_corrected_with_four_checks() {
        let code = rs(36, 32);
        let data: Vec<u8> = (0..32).map(|i| (i * 3) as u8).collect();
        let clean = code.encode_to_codeword(&data).unwrap();
        for (p1, p2) in [(0usize, 35usize), (3, 4), (10, 20), (31, 32)] {
            let mut cw = clean.clone();
            cw[p1] ^= 0x11;
            cw[p2] ^= 0xee;
            let out = code.decode(&mut cw, &[]).unwrap();
            assert_eq!(out.corrected_positions(), vec![p1.min(p2), p1.max(p2)]);
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn triple_error_detected_with_four_checks() {
        // d=5, correction radius 2: three errors are never closer to another
        // codeword than 2, so they must be flagged uncorrectable.
        let code = rs(36, 32);
        let clean = code.encode_to_codeword(&[9u8; 32]).unwrap();
        let mut cw = clean.clone();
        cw[1] ^= 1;
        cw[7] ^= 2;
        cw[30] ^= 3;
        assert!(matches!(
            code.decode(&mut cw, &[]),
            Err(DecodeError::Uncorrectable { .. })
        ));
        // Unmodified on failure.
        let mut expect = clean;
        expect[1] ^= 1;
        expect[7] ^= 2;
        expect[30] ^= 3;
        assert_eq!(cw, expect);
    }

    #[test]
    fn erasures_double_capability() {
        // RS(36,32) corrects 4 erasures (known positions) outright.
        let code = rs(36, 32);
        let clean = code.encode_to_codeword(&[0xabu8; 32]).unwrap();
        let mut cw = clean.clone();
        for &p in &[2usize, 9, 17, 33] {
            cw[p] ^= 0x77;
        }
        let out = code.decode(&mut cw, &[2, 9, 17, 33]).unwrap();
        assert_eq!(out.corrections().len(), 4);
        assert!(out.corrections().iter().all(|c| c.was_erasure));
        assert_eq!(cw, clean);
    }

    #[test]
    fn erasure_plus_error_mix() {
        // 2e + nu <= 4: one erasure plus one located error.
        let code = rs(36, 32);
        let clean = code.encode_to_codeword(&[1u8; 32]).unwrap();
        let mut cw = clean.clone();
        cw[5] ^= 0xf0; // declared erasure
        cw[20] ^= 0x0f; // unknown error
        let out = code.decode(&mut cw, &[5]).unwrap();
        assert_eq!(cw, clean);
        assert_eq!(out.located_errors(), 1);
    }

    #[test]
    fn erasure_that_was_actually_intact() {
        // Declaring an erasure on an intact symbol must still decode other
        // errors (magnitude 0 corrections are dropped from the report).
        let code = rs(36, 32);
        let clean = code.encode_to_codeword(&[4u8; 32]).unwrap();
        let mut cw = clean.clone();
        cw[8] ^= 0x42;
        let out = code.decode(&mut cw, &[0, 1]).unwrap();
        assert_eq!(cw, clean);
        assert_eq!(out.located_errors(), 1);
    }

    #[test]
    fn too_many_erasures() {
        let code = rs(18, 16);
        let mut cw = code.encode_to_codeword(&[0u8; 16]).unwrap();
        cw[0] ^= 1;
        assert!(matches!(
            code.decode(&mut cw, &[0, 1, 2]),
            Err(DecodeError::Uncorrectable { erasures: 3 })
        ));
    }

    #[test]
    fn policy_limit_reports_due() {
        // SCCDCD: RS(36,32) with a correct-1 policy. Two bad symbols are a
        // DUE, not a correction.
        let code = rs(36, 32);
        let clean = code.encode_to_codeword(&[7u8; 32]).unwrap();
        let mut cw = clean.clone();
        cw[3] ^= 0x10;
        cw[21] ^= 0x99;
        let err = code.decode_with_limit(&mut cw, &[], 1).unwrap_err();
        assert_eq!(
            err,
            DecodeError::PolicyLimited {
                needed: 2,
                limit: 1
            }
        );
        // Single error still corrected under the policy.
        let mut cw2 = clean.clone();
        cw2[3] ^= 0x10;
        assert!(code.decode_with_limit(&mut cw2, &[], 1).is_ok());
        assert_eq!(cw2, clean);
    }

    #[test]
    fn detect_only_flags_any_small_corruption() {
        let code = rs(18, 16);
        let clean = code.encode_to_codeword(&[3u8; 16]).unwrap();
        assert!(!code.detect(&clean));
        for p in 0..18 {
            let mut cw = clean.clone();
            cw[p] ^= 0x01;
            assert!(code.detect(&cw), "single corruption at {p} not detected");
        }
        // Two bad symbols are also always detected in detect-only mode
        // (min distance 3).
        let mut cw = clean.clone();
        cw[0] ^= 0xff;
        cw[17] ^= 0xff;
        assert!(code.detect(&cw));
    }

    #[test]
    fn gf16_code_roundtrip() {
        let code = ReedSolomon::<Gf16>::new(15, 11).unwrap();
        let data: Vec<u8> = (0..11).map(|i| (i % 16) as u8).collect();
        let clean = code.encode_to_codeword(&data).unwrap();
        let mut cw = clean.clone();
        cw[4] ^= 0x9;
        cw[12] ^= 0x3;
        let out = code.decode(&mut cw, &[]).unwrap();
        assert_eq!(out.corrections().len(), 2);
        assert_eq!(cw, clean);
    }

    #[test]
    fn eight_check_symbol_code_for_second_upgrade() {
        // §5.1: joined codeword over four channels, 8 check symbols.
        let code = rs(72, 64);
        assert_eq!(code.max_correctable(), 4);
        let clean = code.encode_to_codeword(&[0x5a; 64]).unwrap();
        let mut cw = clean.clone();
        for &p in &[1usize, 18, 36, 54] {
            cw[p] ^= 0x81;
        }
        let out = code.decode(&mut cw, &[]).unwrap();
        assert_eq!(out.corrections().len(), 4);
        assert_eq!(cw, clean);
    }

    #[test]
    fn outcome_accessors() {
        let code = rs(18, 16);
        let mut cw = code.encode_to_codeword(&[1u8; 16]).unwrap();
        cw[9] ^= 5;
        let out = code.decode(&mut cw, &[]).unwrap();
        assert!(!out.is_clean());
        assert_eq!(out.corrections()[0].position, 9);
        assert_eq!(out.corrections()[0].magnitude, 5);
        assert!(!out.corrections()[0].was_erasure);
        assert_eq!(out.located_errors(), 1);
    }

    // -----------------------------------------------------------------
    // Differential tests: the table-driven kernels against `reference`.
    // -----------------------------------------------------------------

    use proptest::prelude::*;

    /// The code parameters of `tests/prop_codec.rs`: every organisation
    /// the paper uses, RS(255,223), and random sizes.
    fn nk() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            Just((18usize, 16usize)),
            Just((36, 32)),
            Just((72, 64)),
            Just((9, 8)),
            Just((15, 9)),
            Just((255, 223)),
            (4usize..=60).prop_flat_map(|n| (Just(n), 1..n)),
        ]
    }

    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One differential case over `rs`, drawn from `seed`: a random
    /// codeword, `0..=n-k+2` errors, `0..=n-k+1` distinct erasures (some on
    /// error positions, some on intact ones) and a policy limit in
    /// `0..=t+1`. Every observable must match the reference exactly.
    /// Returns the case's outcome class: clean, corrected, miscorrected
    /// (`Ok`, but not the encoded codeword), uncorrectable or
    /// policy-limited. Miscorrections are words of more errors than the
    /// code corrects whose syndromes look like fewer; on a one-error code
    /// the single-symbol solver answers them.
    fn check_against_reference<F: GaloisField>(rs: &ReedSolomon<F>, seed: u64) -> usize {
        let (n, k, nroots) = (rs.n(), rs.k(), rs.nroots());
        let mut state = seed;
        let mut draw = |below: usize| {
            state = splitmix64(state);
            (state % below as u64) as usize
        };
        let sym = F::ORDER;
        let data: Vec<u8> = (0..k).map(|_| draw(sym) as u8).collect();
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity, rs.reference_encode(&data).unwrap(), "parity");
        let encoded = rs.encode_to_codeword(&data).unwrap();
        assert_eq!(encoded[..k], data[..]);
        assert_eq!(encoded[k..], parity[..]);
        let mut cw = encoded.clone();

        let errors = draw(nroots + 3).min(n);
        let mut error_at = Vec::new();
        while error_at.len() < errors {
            let p = draw(n);
            if !error_at.contains(&p) {
                error_at.push(p);
                cw[p] ^= 1 + draw(sym - 1) as u8;
            }
        }
        let wanted = draw(nroots + 2).min(n);
        let mut erasures = Vec::new();
        while erasures.len() < wanted {
            let p = match draw(2) {
                0 if !error_at.is_empty() => error_at[draw(error_at.len())],
                _ => draw(n),
            };
            if !erasures.contains(&p) {
                erasures.push(p);
            }
        }
        let limit = draw(rs.max_correctable() + 2);

        let synd = rs.syndromes(&cw);
        assert_eq!(synd, rs.reference_syndromes(&cw), "syndromes");
        assert_eq!(rs.is_valid(&cw), rs.reference_is_valid(&cw), "is_valid");
        assert_eq!(rs.detect(&cw), !rs.reference_is_valid(&cw), "detect");
        let mut ours = cw.clone();
        let mut theirs = cw;
        let got = rs.decode_with_limit(&mut ours, &erasures, limit);
        let want = rs.reference_decode_with_limit(&mut theirs, &erasures, limit);
        assert_eq!(
            got, want,
            "decode of RS({n},{k}): errors at {error_at:?}, erasures {erasures:?}, limit {limit}"
        );
        assert_eq!(ours, theirs, "codeword after decode");
        match got {
            Ok(_) if ours != encoded => 2,
            Ok(out) if out.is_clean() => 0,
            Ok(_) => 1,
            Err(DecodeError::Uncorrectable { .. }) => 3,
            Err(DecodeError::PolicyLimited { .. }) => 4,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        fn kernels_match_reference_gf256((n, k) in nk(), seed in any::<u64>()) {
            check_against_reference(&rs(n, k), seed);
        }

        fn kernels_match_reference_gf16(
            (n, k) in prop_oneof![Just((15usize, 11usize)), Just((15, 13)), Just((10, 6)), Just((15, 3))],
            seed in any::<u64>(),
        ) {
            check_against_reference(&ReedSolomon::<Gf16>::new(n, k).unwrap(), seed);
        }
    }

    #[test]
    fn differential_cases_reach_every_outcome() {
        let mut seen = [0usize; 5];
        for seed in 0..2000 {
            for (n, k) in [(18, 16), (36, 32), (72, 64), (15, 9)] {
                seen[check_against_reference(&rs(n, k), seed)] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "outcome classes {seen:?}");
    }

    /// Every position of `code` with each magnitude in `mags` (0 is the
    /// clean word), under limits 0..=2 and the erasure sets {}, {j}, {j'}
    /// and {j, j'} for a second position j': every result and word must
    /// match the reference. The single-symbol solver must answer exactly
    /// (j, e) where it applies (n-k >= 2, e != 0, erasures {} or {j}) and
    /// decline everywhere else, including every word of a code with one
    /// check symbol, where the reference "corrects" magnitude 1 at log S_0.
    fn check_single_errors<F: GaloisField>(code: &ReedSolomon<F>, mags: &[u8]) {
        let (n, k) = (code.n(), code.k());
        let data: Vec<u8> = (0..k).map(|i| ((i * 7 + 3) % F::ORDER) as u8).collect();
        let clean = code.encode_to_codeword(&data).unwrap();
        for pos in 0..n {
            let other = (pos + n / 2 + 1) % n;
            for &mag in mags {
                let mut word = clean.clone();
                word[pos] ^= mag;
                let synd = code.syndromes(&word);
                for erasures in [&[][..], &[pos], &[other], &[pos, other]] {
                    let solvable = mag != 0 && code.nroots() >= 2 && erasures.len() <= 1;
                    let expect =
                        (solvable && erasures.iter().all(|&p| p == pos)).then_some((pos, mag));
                    assert_eq!(code.single_symbol(&synd, erasures), expect);
                    for limit in 0..=2 {
                        let mut ours = word.clone();
                        let mut theirs = word.clone();
                        assert_eq!(
                            code.decode_with_limit(&mut ours, erasures, limit),
                            code.reference_decode_with_limit(&mut theirs, erasures, limit),
                            "RS({n},{k}): error {mag:#x} at {pos}, erasures {erasures:?}, limit {limit}"
                        );
                        assert_eq!(ours, theirs);
                    }
                }
            }
        }
    }

    #[test]
    fn clean_and_single_error_words_match_reference_exhaustively() {
        let every: Vec<u8> = (0..=255).collect();
        let spread = [0u8, 1, 2, 0x1d, 0x53, 0x80, 0xca, 0xff];
        check_single_errors(&rs(18, 16), &every);
        check_single_errors(&rs(36, 32), &spread);
        check_single_errors(&rs(72, 64), &spread);
        check_single_errors(&rs(9, 8), &every);
        let nibbles: Vec<u8> = (0..16).collect();
        check_single_errors(&ReedSolomon::<Gf16>::new(15, 13).unwrap(), &nibbles);
    }

    #[test]
    fn erasure_checks_panic_as_before() {
        let code = rs(18, 16);
        let mut cw = code.encode_to_codeword(&[1u8; 16]).unwrap();
        for (erasures, message) in [
            (&[18usize][..], "erasure position 18 out of range"),
            (&[3, 3][..], "duplicate erasure position 3"),
        ] {
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                code.decode(&mut cw, erasures)
            }))
            .unwrap_err();
            assert_eq!(
                got.downcast_ref::<String>().map(String::as_str),
                Some(message)
            );
        }
    }

    #[test]
    fn gf16_symbols_outside_the_field_still_panic() {
        let code = ReedSolomon::<Gf16>::new(15, 11).unwrap();
        let mut data = [1u8; 11];
        data[4] = 16;
        assert!(std::panic::catch_unwind(|| code.encode(&data)).is_err());
        assert!(std::panic::catch_unwind(|| code.reference_encode(&data)).is_err());
    }
}
