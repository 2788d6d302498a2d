//! The pluggable ECC scheme zoo: every chipkill organisation behind one
//! [`Codec`] trait.
//!
//! A codec owns the full line-level story of one ECC scheme: how a data
//! line is striped into an [`EncodedLine`], how it decodes (including any
//! scheme-specific *policy* postprocessing, like AMD S8SC's requirement
//! that corrections stay confined to one chip), and what it analytically
//! guarantees ([`Guarantees`]). The registry ([`codec_registry`]) holds
//! the ARCC codecs of the paper next to the competitor schemes the
//! ROADMAP's scheme-zoo item names: AMD-style chipkill S8SC, QPC-style
//! quad-pin correction, a MultiECC-style checksum + parity trial decoder,
//! and a two-tier on-die SEC-DED + rank-level RS scheme per HARP. What an
//! organisation costs per access lives in `arcc-core`'s scheme table,
//! whose entries name these codecs.
//!
//! ```
//! use arcc_gf::codec::{codec_registry, find_codec};
//!
//! let qpc = find_codec("qpc").unwrap();
//! let data = vec![0x5Au8; qpc.data_bytes()];
//! let mut line = qpc.encode(&data).unwrap();
//! line.kill_device(3, 0xFF); // a whole x4 chip dies
//! qpc.decode(&mut line, &[]).unwrap();
//! assert_eq!(qpc.extract_data(&line), data);
//! assert!(codec_registry().len() >= 7);
//! ```

use crate::chipkill::{EncodedLine, LineCodec, LineError, LineOutcome};
use crate::field::Gf256;
use crate::rs::{ReedSolomon, RsError};
use crate::secded::{SecDed39, SecDedOutcome};

/// A Reed–Solomon code over compile-time-constant parameters, for the
/// infallible codec constructors. The `assert!` carries the real check;
/// the dead `Err` arm keeps these constructors off the panic ratchet
/// without weakening it.
fn static_rs(n: usize, k: usize) -> ReedSolomon<Gf256> {
    let rs = ReedSolomon::new(n, k);
    assert!(rs.is_ok(), "static RS parameters are valid: n={n} k={k}");
    let Ok(rs) = rs else { std::process::abort() };
    rs
}

/// Error-handling guarantees of a scheme, counted in bad *devices* per
/// line (a dead device contributes one bad symbol per codeword it
/// touches). These are the analytic, always-true bounds; what a codec
/// does *beyond* them is measured, not promised (see
/// [`crate::analysis::measure_line_escape_rate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guarantees {
    /// Bad devices guaranteed correctable.
    pub correct: u32,
    /// Bad devices guaranteed detectable.
    pub detect: u32,
    /// Additional bad devices correctable after earlier ones were detected
    /// and declared as erasures (double chip sparing's second chip).
    pub sequential_correct: u32,
}

/// One ECC scheme's line-level encoder/decoder plus its analytic
/// descriptors.
///
/// Implementations must be pure: decoding the same line twice yields the
/// same outcome, and no interior mutability is allowed (codecs are shared
/// across the deterministic parallel sweep workers).
pub trait Codec: Send + Sync {
    /// Registry key (e.g. `"arcc-relaxed"`, `"qpc"`).
    fn name(&self) -> &'static str;
    /// Devices holding one line.
    fn devices(&self) -> usize;
    /// Beats (symbols per device) in one encoded line.
    fn beats(&self) -> usize;
    /// Data payload of one line in bytes.
    fn data_bytes(&self) -> usize;
    /// ECC storage overhead: non-data symbols over data symbols for one
    /// encoded line (on-die check storage counts — it is real capacity).
    fn storage_overhead(&self) -> f64;
    /// Analytic error-handling guarantees, in whole devices.
    fn guarantees(&self) -> Guarantees;
    /// Encodes a data line.
    ///
    /// # Errors
    ///
    /// [`RsError::LengthMismatch`] when `data.len() != self.data_bytes()`.
    fn encode(&self, data: &[u8]) -> Result<EncodedLine, RsError>;
    /// Decodes the line in place. `erased_devices` are devices already
    /// known bad (detected earlier and spared); duplicates are not
    /// allowed. On [`LineError`], symbols corrected before the failing
    /// codeword may already be written back.
    ///
    /// # Errors
    ///
    /// [`LineError`] when the pattern is (or is policed as)
    /// detected-uncorrectable.
    fn decode(
        &self,
        line: &mut EncodedLine,
        erased_devices: &[usize],
    ) -> Result<LineOutcome, LineError>;
    /// Cheap detect-only scan (the scrubber's first pass).
    fn detect(&self, line: &EncodedLine) -> bool;
    /// Extracts the data payload without checking.
    fn extract_data(&self, line: &EncodedLine) -> Vec<u8>;
}

/// Every registered codec, constructed fresh (no shared state): the ARCC
/// pair and its second-level upgrade, the commercial baseline, and the
/// competitor zoo.
pub fn codec_registry() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(RsChipkill::arcc_relaxed()),
        Box::new(RsChipkill::arcc_upgraded()),
        Box::new(RsChipkill::arcc_upgraded2()),
        Box::new(RsChipkill::sccdcd()),
        Box::new(S8sc::new()),
        Box::new(Qpc::new()),
        Box::new(MultiEcc::new()),
        Box::new(TwoTierSecDed::new()),
    ]
}

/// Looks a codec up by registry name.
pub fn find_codec(name: &str) -> Option<Box<dyn Codec>> {
    codec_registry().into_iter().find(|c| c.name() == name)
}

// ---------------------------------------------------------------------------
// Plain RS chipkill wrappers: the existing LineCodec machinery, ported
// onto the trait.
// ---------------------------------------------------------------------------

/// A [`LineCodec`] (one RS codeword per beat, one symbol per device) run
/// at a fixed correction-policy limit — the ARCC relaxed/upgraded pair,
/// the commercial SCCDCD baseline, and the §5.1 second-level upgrade.
#[derive(Debug, Clone)]
pub struct RsChipkill {
    name: &'static str,
    inner: LineCodec,
    max_errors_per_cw: usize,
    guarantees: Guarantees,
}

impl RsChipkill {
    /// ARCC relaxed mode: RS(18,16) x4 beats, correct-1/detect-1.
    fn arcc_relaxed() -> Self {
        Self {
            name: "arcc-relaxed",
            inner: LineCodec::relaxed_x8(),
            max_errors_per_cw: 1,
            guarantees: Guarantees {
                correct: 1,
                detect: 1,
                sequential_correct: 0,
            },
        }
    }

    /// ARCC upgraded mode: RS(36,32) x4 beats decoded at the SCCDCD
    /// policy limit (correct-1/detect-2, plus a spared second chip).
    fn arcc_upgraded() -> Self {
        Self {
            name: "arcc-upgraded",
            inner: LineCodec::upgraded_two_channel(),
            max_errors_per_cw: 1,
            guarantees: Guarantees {
                correct: 1,
                detect: 2,
                // The code can also correct erased + fresh, but the paper's
                // SCCDCD config reserves that for the sparing policy.
                sequential_correct: 0,
            },
        }
    }

    /// ARCC second-level upgrade (§5.1): RS(72,64) x4 beats across four
    /// channels, decoded at policy limit 2.
    fn arcc_upgraded2() -> Self {
        Self {
            name: "arcc-upgraded2",
            inner: LineCodec::upgraded_four_channel(),
            max_errors_per_cw: 2,
            guarantees: Guarantees {
                correct: 2,
                detect: 4,
                sequential_correct: 2,
            },
        }
    }

    /// Commercial SCCDCD: RS(36,32) x2 beats over x4 devices,
    /// correct-1/detect-2.
    fn sccdcd() -> Self {
        Self {
            name: "sccdcd",
            inner: LineCodec::sccdcd_x4(),
            max_errors_per_cw: 1,
            guarantees: Guarantees {
                correct: 1,
                detect: 2,
                sequential_correct: 0,
            },
        }
    }
}

impl Codec for RsChipkill {
    fn name(&self) -> &'static str {
        self.name
    }
    fn devices(&self) -> usize {
        self.inner.devices()
    }
    fn beats(&self) -> usize {
        self.inner.beats()
    }
    fn data_bytes(&self) -> usize {
        self.inner.data_bytes()
    }
    fn storage_overhead(&self) -> f64 {
        self.inner.storage_overhead()
    }
    fn guarantees(&self) -> Guarantees {
        self.guarantees
    }
    fn encode(&self, data: &[u8]) -> Result<EncodedLine, RsError> {
        self.inner.encode_line(data)
    }
    fn decode(
        &self,
        line: &mut EncodedLine,
        erased_devices: &[usize],
    ) -> Result<LineOutcome, LineError> {
        self.inner
            .decode_line(line, erased_devices, self.max_errors_per_cw)
    }
    fn detect(&self, line: &EncodedLine) -> bool {
        self.inner.detect_line(line)
    }
    fn extract_data(&self, line: &EncodedLine) -> Vec<u8> {
        self.inner.extract_data(line)
    }
}

// ---------------------------------------------------------------------------
// AMD-style chipkill S8SC
// ---------------------------------------------------------------------------

/// AMD-style S8SC chipkill: the same RS(18,16) x4 organisation as ARCC's
/// relaxed mode, plus AMD's line-level decode policy — corrections across
/// the beats of one line must be confined to a single chip, otherwise the
/// line is declared DUE. Multi-beat miscorrections that land on different
/// chips (which a plain per-beat decode would silently accept) become
/// detections.
#[derive(Debug, Clone)]
pub struct S8sc {
    inner: LineCodec,
}

impl S8sc {
    /// The x8 S8SC organisation: 18 devices, 4 beats, 64-byte lines.
    pub fn new() -> Self {
        Self {
            inner: LineCodec::relaxed_x8(),
        }
    }
}

impl Default for S8sc {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for S8sc {
    fn name(&self) -> &'static str {
        "s8sc"
    }
    fn devices(&self) -> usize {
        self.inner.devices()
    }
    fn beats(&self) -> usize {
        self.inner.beats()
    }
    fn data_bytes(&self) -> usize {
        self.inner.data_bytes()
    }
    fn storage_overhead(&self) -> f64 {
        self.inner.storage_overhead()
    }
    fn guarantees(&self) -> Guarantees {
        Guarantees {
            correct: 1,
            detect: 1,
            sequential_correct: 0,
        }
    }
    fn encode(&self, data: &[u8]) -> Result<EncodedLine, RsError> {
        self.inner.encode_line(data)
    }
    fn decode(
        &self,
        line: &mut EncodedLine,
        erased_devices: &[usize],
    ) -> Result<LineOutcome, LineError> {
        let out = self.inner.decode_line(line, erased_devices, 1)?;
        // AMD postprocess: fresh corrections spanning more than one chip
        // cannot come from a single-chip failure — police them as DUE.
        let fresh: Vec<usize> = out
            .corrected_devices
            .iter()
            .copied()
            .filter(|d| !erased_devices.contains(d))
            .collect();
        if fresh.len() > 1 {
            return Err(LineError::PolicyDue {
                reason: "S8SC corrections span multiple chips",
            });
        }
        Ok(out)
    }
    fn detect(&self, line: &EncodedLine) -> bool {
        self.inner.detect_line(line)
    }
    fn extract_data(&self, line: &EncodedLine) -> Vec<u8> {
        self.inner.extract_data(line)
    }
}

// ---------------------------------------------------------------------------
// QPC-style quad-pin correction
// ---------------------------------------------------------------------------

/// Number of x4 chips in the QPC rank.
const QPC_CHIPS: usize = 18;
/// Code positions owned by each chip (one per data pin).
const QPC_PINS: usize = 4;

/// QPC-style quad-symbol correction: one RS(72,64) codeword spans the
/// whole 64-byte line, with each x4 chip owning 4 consecutive code
/// positions (one per pin). A dead chip is 4 symbol errors — inside the
/// t = 4 correction radius — so chipkill costs only 18 devices per
/// access. The decode policy rejects correction patterns of more than
/// two positions that span multiple chips (they cannot come from a
/// single-chip failure; the postprocess of the scalable-arch QPC64b
/// exemplar).
#[derive(Debug, Clone)]
pub struct Qpc {
    rs: ReedSolomon<Gf256>,
}

impl Qpc {
    /// The 18-chip x4 QPC organisation.
    pub fn new() -> Self {
        Self {
            rs: static_rs(QPC_CHIPS * QPC_PINS, 64),
        }
    }
}

impl Default for Qpc {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for Qpc {
    fn name(&self) -> &'static str {
        "qpc"
    }
    fn devices(&self) -> usize {
        QPC_CHIPS
    }
    fn beats(&self) -> usize {
        QPC_PINS
    }
    fn data_bytes(&self) -> usize {
        64
    }
    fn storage_overhead(&self) -> f64 {
        8.0 / 64.0
    }
    fn guarantees(&self) -> Guarantees {
        Guarantees {
            correct: 1,
            detect: 1,
            sequential_correct: 0,
        }
    }
    fn encode(&self, data: &[u8]) -> Result<EncodedLine, RsError> {
        // Device-major symbol storage *is* codeword order here: position
        // `chip * 4 + pin` of the single 72-symbol codeword.
        let cw = self.rs.encode_to_codeword(data)?;
        Ok(EncodedLine::from_symbols(cw, QPC_CHIPS, QPC_PINS))
    }
    fn decode(
        &self,
        line: &mut EncodedLine,
        erased_devices: &[usize],
    ) -> Result<LineOutcome, LineError> {
        assert_eq!(line.devices(), QPC_CHIPS, "device count mismatch");
        assert_eq!(line.beats(), QPC_PINS, "beat count mismatch");
        let mut cw = line.raw_symbols().to_vec();
        let erasures: Vec<usize> = erased_devices
            .iter()
            .flat_map(|&d| (0..QPC_PINS).map(move |p| d * QPC_PINS + p))
            .collect();
        let outcome = self
            .rs
            .decode_with_limit(&mut cw, &erasures, QPC_PINS)
            .map_err(|source| LineError::Due { beat: 0, source })?;
        // QPC postprocess: more than two fresh corrected positions must
        // all fall within one chip, else the pattern is policed as DUE.
        let fresh: Vec<usize> = outcome
            .corrected_positions()
            .iter()
            .copied()
            .filter(|p| !erasures.contains(p))
            .collect();
        let mut chips: Vec<usize> = fresh.iter().map(|p| p / QPC_PINS).collect();
        chips.sort_unstable();
        chips.dedup();
        if fresh.len() > 2 && chips.len() > 1 {
            return Err(LineError::PolicyDue {
                reason: "QPC corrections span multiple chips",
            });
        }
        let mut corrected_devices: Vec<usize> = outcome
            .corrected_positions()
            .iter()
            .map(|p| p / QPC_PINS)
            .collect();
        corrected_devices.sort_unstable();
        corrected_devices.dedup();
        let symbols_corrected = outcome.corrected_positions().len();
        for (i, &s) in cw.iter().enumerate() {
            line.set_symbol(i / QPC_PINS, i % QPC_PINS, s);
        }
        Ok(LineOutcome {
            corrected_devices,
            symbols_corrected,
        })
    }
    fn detect(&self, line: &EncodedLine) -> bool {
        self.rs.detect(line.raw_symbols())
    }
    fn extract_data(&self, line: &EncodedLine) -> Vec<u8> {
        line.raw_symbols()[..64].to_vec()
    }
}

// ---------------------------------------------------------------------------
// MultiECC-style checksum + parity trial decoder
// ---------------------------------------------------------------------------

/// Devices in the MultiECC rank (8 data + 1 XOR parity).
const ME_DEV: usize = 9;
/// Data devices.
const ME_DATA_DEV: usize = 8;
/// Data beats per line.
const ME_DATA_BEATS: usize = 8;
/// Total beats (data + one checksum beat).
const ME_BEATS: usize = ME_DATA_BEATS + 1;

/// MultiECC-style scheme on a 9-device x8 rank: per-beat XOR parity
/// across devices (tier-1 detection/reconstruction) plus one additive
/// per-device checksum symbol in an extra beat (tier-2 localisation).
/// Decoding is *trial-and-error*: every device is tentatively
/// reconstructed from parity and kept only if the checksums single it
/// out. Correction is therefore probabilistic — a checksum collision
/// yields an ambiguity, reported as DUE — so the analytic guarantee is
/// detect-1/correct-0, with the actual correction rate measured by the
/// escape-rate scenarios (the honest cost of 9-device accesses).
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiEcc;

impl MultiEcc {
    /// The 9-device MultiECC organisation.
    pub fn new() -> Self {
        Self
    }

    /// Additive (mod 256) checksum over one device's data beats.
    fn checksum(line: &EncodedLine, d: usize) -> u8 {
        (0..ME_DATA_BEATS).fold(0u8, |acc, b| acc.wrapping_add(line.symbol(d, b)))
    }

    /// Per-beat parity error: XOR over all devices (zero when clean).
    fn parity_errors(line: &EncodedLine) -> [u8; ME_BEATS] {
        let mut p = [0u8; ME_BEATS];
        for (b, slot) in p.iter_mut().enumerate() {
            for d in 0..ME_DEV {
                *slot ^= line.symbol(d, b);
            }
        }
        p
    }

    /// Does candidate device `e` explain the corruption: after
    /// reconstructing `e` from parity, every checksum must be consistent.
    fn candidate_valid(line: &EncodedLine, p: &[u8; ME_BEATS], e: usize) -> bool {
        for d in 0..ME_DATA_DEV {
            if d == e {
                continue;
            }
            if Self::checksum(line, d) != line.symbol(d, ME_DATA_BEATS) {
                return false;
            }
        }
        if e < ME_DATA_DEV {
            // Reconstructed data beats must match the reconstructed
            // checksum symbol (both stored ^ parity error).
            let sum =
                (0..ME_DATA_BEATS).fold(0u8, |acc, b| acc.wrapping_add(line.symbol(e, b) ^ p[b]));
            sum == line.symbol(e, ME_DATA_BEATS) ^ p[ME_DATA_BEATS]
        } else {
            true // blame the parity device: all data checksums held
        }
    }
}

impl Codec for MultiEcc {
    fn name(&self) -> &'static str {
        "multi-ecc"
    }
    fn devices(&self) -> usize {
        ME_DEV
    }
    fn beats(&self) -> usize {
        ME_BEATS
    }
    fn data_bytes(&self) -> usize {
        ME_DATA_DEV * ME_DATA_BEATS
    }
    fn storage_overhead(&self) -> f64 {
        // 81 stored symbols for 64 data bytes: parity device + checksums.
        (ME_DEV * ME_BEATS - 64) as f64 / 64.0
    }
    fn guarantees(&self) -> Guarantees {
        Guarantees {
            correct: 0, // trial decode is probabilistic, not guaranteed
            detect: 1,
            sequential_correct: 0,
        }
    }
    fn encode(&self, data: &[u8]) -> Result<EncodedLine, RsError> {
        if data.len() != self.data_bytes() {
            return Err(RsError::LengthMismatch {
                expected: self.data_bytes(),
                got: data.len(),
            });
        }
        let mut line = EncodedLine::from_symbols(vec![0u8; ME_DEV * ME_BEATS], ME_DEV, ME_BEATS);
        for b in 0..ME_DATA_BEATS {
            let mut parity = 0u8;
            for d in 0..ME_DATA_DEV {
                let s = data[b * ME_DATA_DEV + d];
                line.set_symbol(d, b, s);
                parity ^= s;
            }
            line.set_symbol(ME_DATA_DEV, b, parity);
        }
        let mut csum_parity = 0u8;
        for d in 0..ME_DATA_DEV {
            let c = Self::checksum(&line, d);
            line.set_symbol(d, ME_DATA_BEATS, c);
            csum_parity ^= c;
        }
        line.set_symbol(ME_DATA_DEV, ME_DATA_BEATS, csum_parity);
        Ok(line)
    }
    fn decode(
        &self,
        line: &mut EncodedLine,
        erased_devices: &[usize],
    ) -> Result<LineOutcome, LineError> {
        assert_eq!(line.devices(), ME_DEV, "device count mismatch");
        assert_eq!(line.beats(), ME_BEATS, "beat count mismatch");
        if erased_devices.len() > 1 {
            return Err(LineError::PolicyDue {
                reason: "MultiECC reconstructs at most one erased device",
            });
        }
        let p = Self::parity_errors(line);
        if p.iter().all(|&x| x == 0) && erased_devices.is_empty() {
            let csums_ok =
                (0..ME_DATA_DEV).all(|d| Self::checksum(line, d) == line.symbol(d, ME_DATA_BEATS));
            if csums_ok {
                return Ok(LineOutcome::default());
            }
        }
        // Trial decode: the erased device if declared, else every device
        // whose reconstruction leaves all checksums consistent.
        let candidates: Vec<usize> = match erased_devices.first() {
            Some(&e) => vec![e],
            None => (0..ME_DEV)
                .filter(|&e| Self::candidate_valid(line, &p, e))
                .collect(),
        };
        let [e] = candidates[..] else {
            return Err(LineError::PolicyDue {
                reason: "MultiECC checksum trial decode is ambiguous",
            });
        };
        let mut symbols_corrected = 0usize;
        for (b, &err) in p.iter().enumerate() {
            if err != 0 {
                let s = line.symbol(e, b);
                line.set_symbol(e, b, s ^ err);
                symbols_corrected += 1;
            }
        }
        Ok(LineOutcome {
            corrected_devices: if symbols_corrected > 0 {
                vec![e]
            } else {
                Vec::new()
            },
            symbols_corrected,
        })
    }
    fn detect(&self, line: &EncodedLine) -> bool {
        Self::parity_errors(line).iter().any(|&x| x != 0)
            || (0..ME_DATA_DEV).any(|d| Self::checksum(line, d) != line.symbol(d, ME_DATA_BEATS))
    }
    fn extract_data(&self, line: &EncodedLine) -> Vec<u8> {
        let mut out = vec![0u8; self.data_bytes()];
        for b in 0..ME_DATA_BEATS {
            for d in 0..ME_DATA_DEV {
                out[b * ME_DATA_DEV + d] = line.symbol(d, b);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Two-tier on-die SEC-DED + rank-level RS (per HARP)
// ---------------------------------------------------------------------------

/// Devices in the two-tier rank.
const TT_DEV: usize = 18;
/// Data beats per line.
const TT_DATA_BEATS: usize = 4;
/// Total beats: data plus the per-device on-die check symbol.
const TT_BEATS: usize = TT_DATA_BEATS + 1;

/// Two-tier scheme per HARP: every device protects its own 32 bits of
/// the line with on-die Hsiao SEC-DED(39,32) (tier 1), and the rank runs
/// ARCC's relaxed RS(18,16) across devices (tier 2). Tier 1 absorbs
/// single-bit upsets without rank-level work and — crucially — converts
/// multi-bit device corruption into *erasures* for tier 2, whose 2 check
/// symbols then recover up to two flagged devices (erasure decoding
/// doubles the correction radius: the HARP argument). The on-die check
/// symbols are per-device state outside the rank code, so the analytic
/// rank-level guarantee stays correct-1/detect-1; the measured behaviour
/// beyond it is what the escape-rate scenarios quantify.
#[derive(Debug, Clone)]
pub struct TwoTierSecDed {
    rs: ReedSolomon<Gf256>,
}

impl TwoTierSecDed {
    /// The 18-device two-tier organisation.
    pub fn new() -> Self {
        Self {
            rs: static_rs(18, 16),
        }
    }

    /// One device's 32 data bits as a word (beat-0 least significant).
    fn device_word(line: &EncodedLine, d: usize) -> u32 {
        (0..TT_DATA_BEATS).fold(0u32, |acc, b| acc | (line.symbol(d, b) as u32) << (8 * b))
    }
}

impl Default for TwoTierSecDed {
    fn default() -> Self {
        Self::new()
    }
}

impl Codec for TwoTierSecDed {
    fn name(&self) -> &'static str {
        "two-tier-secded"
    }
    fn devices(&self) -> usize {
        TT_DEV
    }
    fn beats(&self) -> usize {
        TT_BEATS
    }
    fn data_bytes(&self) -> usize {
        64
    }
    fn storage_overhead(&self) -> f64 {
        // 2 rank check devices x5 beats + 16 on-die check symbols, over
        // 64 data bytes — on-die ECC is honest capacity too.
        (TT_DEV * TT_BEATS - 64) as f64 / 64.0
    }
    fn guarantees(&self) -> Guarantees {
        Guarantees {
            correct: 1,
            detect: 1,
            sequential_correct: 1,
        }
    }
    fn encode(&self, data: &[u8]) -> Result<EncodedLine, RsError> {
        if data.len() != self.data_bytes() {
            return Err(RsError::LengthMismatch {
                expected: self.data_bytes(),
                got: data.len(),
            });
        }
        let mut line = EncodedLine::from_symbols(vec![0u8; TT_DEV * TT_BEATS], TT_DEV, TT_BEATS);
        let mut parity = [0u8; 2];
        for (b, cw_data) in data.chunks_exact(16).enumerate() {
            self.rs.encode_into(cw_data, &mut parity)?;
            for (d, &s) in cw_data.iter().enumerate() {
                line.set_symbol(d, b, s);
            }
            for (i, &s) in parity.iter().enumerate() {
                line.set_symbol(16 + i, b, s);
            }
        }
        for d in 0..TT_DEV {
            let check = SecDed39::check_bits(Self::device_word(&line, d));
            line.set_symbol(d, TT_DATA_BEATS, check);
        }
        Ok(line)
    }
    fn decode(
        &self,
        line: &mut EncodedLine,
        erased_devices: &[usize],
    ) -> Result<LineOutcome, LineError> {
        assert_eq!(line.devices(), TT_DEV, "device count mismatch");
        assert_eq!(line.beats(), TT_BEATS, "beat count mismatch");
        let mut erasures: Vec<usize> = erased_devices.to_vec();
        let mut corrected_devices: Vec<usize> = Vec::new();
        let mut symbols_corrected = 0usize;
        // Tier 1: per-device on-die SEC-DED over the device's own 39 bits.
        for d in 0..TT_DEV {
            if erasures.contains(&d) {
                continue;
            }
            let word = Self::device_word(line, d);
            match SecDed39::decode(word, line.symbol(d, TT_DATA_BEATS)) {
                SecDedOutcome::Clean => {}
                SecDedOutcome::CorrectedData(w) => {
                    for b in 0..TT_DATA_BEATS {
                        line.set_symbol(d, b, (w >> (8 * b)) as u8);
                    }
                    corrected_devices.push(d);
                    symbols_corrected += 1;
                }
                SecDedOutcome::CorrectedCheck(c) => {
                    line.set_symbol(d, TT_DATA_BEATS, c);
                    corrected_devices.push(d);
                    symbols_corrected += 1;
                }
                SecDedOutcome::Uncorrectable => erasures.push(d),
            }
        }
        // Tier 2: rank-level RS over the data beats, with every DED-flagged
        // device declared as an erasure.
        let mut cw = [0u8; TT_DEV];
        for beat in 0..TT_DATA_BEATS {
            for (d, slot) in cw.iter_mut().enumerate() {
                *slot = line.symbol(d, beat);
            }
            let outcome = self
                .rs
                .decode_with_limit(&mut cw, &erasures, 1)
                .map_err(|source| LineError::Due { beat, source })?;
            for c in outcome.corrections() {
                if !corrected_devices.contains(&c.position) {
                    corrected_devices.push(c.position);
                }
                symbols_corrected += 1;
                line.set_symbol(c.position, beat, cw[c.position]);
            }
        }
        // Recompute on-die checks for devices tier 2 rewrote, so a clean
        // re-read of the line verifies end to end.
        for &d in &erasures {
            let check = SecDed39::check_bits(Self::device_word(line, d));
            line.set_symbol(d, TT_DATA_BEATS, check);
        }
        corrected_devices.sort_unstable();
        corrected_devices.dedup();
        Ok(LineOutcome {
            corrected_devices,
            symbols_corrected,
        })
    }
    fn detect(&self, line: &EncodedLine) -> bool {
        for d in 0..TT_DEV {
            if SecDed39::decode(Self::device_word(line, d), line.symbol(d, TT_DATA_BEATS))
                != SecDedOutcome::Clean
            {
                return true;
            }
        }
        let mut cw = [0u8; TT_DEV];
        for beat in 0..TT_DATA_BEATS {
            for (d, slot) in cw.iter_mut().enumerate() {
                *slot = line.symbol(d, beat);
            }
            if self.rs.detect(&cw) {
                return true;
            }
        }
        false
    }
    fn extract_data(&self, line: &EncodedLine) -> Vec<u8> {
        let mut out = vec![0u8; self.data_bytes()];
        for b in 0..TT_DATA_BEATS {
            for d in 0..16 {
                out[b * 16 + d] = line.symbol(d, b);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(codec: &dyn Codec) -> Vec<u8> {
        (0..codec.data_bytes())
            .map(|i| (i * 37 + 11) as u8)
            .collect()
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = codec_registry().iter().map(|c| c.name()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "duplicate codec name {n}");
            assert!(find_codec(n).is_some());
        }
        assert!(find_codec("no-such-codec").is_none());
        assert!(names.len() >= 7);
    }

    #[test]
    fn every_codec_roundtrips_clean() {
        for codec in codec_registry() {
            let data = pattern(codec.as_ref());
            let mut line = codec.encode(&data).unwrap();
            assert!(!codec.detect(&line), "{}", codec.name());
            let out = codec.decode(&mut line, &[]).unwrap();
            assert!(out.is_clean(), "{}", codec.name());
            assert_eq!(codec.extract_data(&line), data, "{}", codec.name());
            assert_eq!(
                line.devices() * line.beats(),
                codec.devices() * codec.beats()
            );
        }
    }

    #[test]
    fn every_codec_rejects_wrong_length() {
        for codec in codec_registry() {
            assert!(
                codec.encode(&vec![0u8; codec.data_bytes() + 1]).is_err(),
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn guaranteed_correction_survives_device_kill() {
        // Every codec with correct >= 1 must survive any single-device
        // kill; correct >= 2 any pair. This is the analytic guarantee the
        // fleet capability model leans on.
        for codec in codec_registry() {
            let g = codec.guarantees();
            let data = pattern(codec.as_ref());
            let clean = codec.encode(&data).unwrap();
            if g.correct >= 1 {
                for victim in 0..codec.devices() {
                    for stuck in [0x00, 0xFF, 0x3C] {
                        let mut line = clean.clone();
                        line.kill_device(victim, stuck);
                        codec.decode(&mut line, &[]).unwrap_or_else(|e| {
                            panic!("{}: device {victim} stuck {stuck:#x}: {e}", codec.name())
                        });
                        assert_eq!(codec.extract_data(&line), data, "{}", codec.name());
                    }
                }
            }
            if g.correct >= 2 {
                let mut line = clean.clone();
                line.kill_device(1, 0xAA);
                line.kill_device(codec.devices() - 1, 0x55);
                codec.decode(&mut line, &[]).unwrap();
                assert_eq!(codec.extract_data(&line), data, "{}", codec.name());
            }
        }
    }

    #[test]
    fn guaranteed_detection_never_escapes_silently() {
        // Corrupting guarantees.detect whole devices must never yield
        // wrong data from a successful decode. (A successful decode is
        // allowed — correction beyond the guarantee — but then the data
        // must be right.)
        for codec in codec_registry() {
            let g = codec.guarantees();
            let data = pattern(codec.as_ref());
            let clean = codec.encode(&data).unwrap();
            let picks: &[&[usize]] = &[&[0], &[2], &[0, 3], &[1, 2]];
            for victims in picks.iter().filter(|v| v.len() <= g.detect as usize) {
                let mut line = clean.clone();
                for (i, &v) in victims.iter().enumerate() {
                    line.corrupt_device(v, 0x11 << i);
                }
                match codec.decode(&mut line, &[]) {
                    Err(_) => {}
                    Ok(_) => assert_eq!(
                        codec.extract_data(&line),
                        data,
                        "{}: silent escape within detect guarantee",
                        codec.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn sequential_correct_decodes_erased_plus_fresh() {
        for codec in codec_registry() {
            let g = codec.guarantees();
            if g.sequential_correct == 0 {
                continue;
            }
            let data = pattern(codec.as_ref());
            let mut line = codec.encode(&data).unwrap();
            line.kill_device(0, 0x00); // known bad (detected earlier)
            line.corrupt_device(5, 0x42); // fresh failure
            let out = codec.decode(&mut line, &[0]).unwrap();
            assert!(out.corrected_devices.contains(&5), "{}", codec.name());
            assert_eq!(codec.extract_data(&line), data, "{}", codec.name());
        }
    }

    #[test]
    fn s8sc_polices_multi_chip_corrections_relaxed_accepts() {
        // One symbol error in chip 2 (beat 0) and one in chip 9 (beat 1):
        // each beat is legitimately single-error-correctable, so the plain
        // relaxed decode accepts the line with corrections on two chips.
        // No single-chip failure explains that pattern, so S8SC polices it
        // as a DUE — the policy divergence between the two codecs.
        let relaxed = RsChipkill::arcc_relaxed();
        let s8sc = S8sc::new();
        let data = pattern(&relaxed);
        let mut line = relaxed.encode(&data).unwrap();
        line.corrupt_symbol(2, 0, 0x40);
        line.corrupt_symbol(9, 1, 0x08);
        let mut s8sc_line = line.clone();
        let out = relaxed.decode(&mut line, &[]).unwrap();
        assert_eq!(out.corrected_devices, vec![2, 9]);
        assert_eq!(relaxed.extract_data(&line), data);
        assert!(matches!(
            s8sc.decode(&mut s8sc_line, &[]),
            Err(LineError::PolicyDue { .. })
        ));
        // ...while a whole-chip failure (the fault S8SC is built for)
        // still decodes: corrections confined to one chip.
        let mut line = s8sc.encode(&data).unwrap();
        line.kill_device(9, 0x00);
        let out = s8sc.decode(&mut line, &[]).unwrap();
        assert_eq!(out.corrected_devices, vec![9]);
        assert_eq!(s8sc.extract_data(&line), data);
    }

    #[test]
    fn qpc_corrects_quad_pin_chip_failure_in_one_codeword() {
        let qpc = Qpc::new();
        let data = pattern(&qpc);
        let mut line = qpc.encode(&data).unwrap();
        // 4 symbol errors, all in chip 7: inside t=4, one chip.
        for b in 0..QPC_PINS {
            line.corrupt_symbol(7, b, 0x21 + b as u8);
        }
        let out = qpc.decode(&mut line, &[]).unwrap();
        assert_eq!(out.corrected_devices, vec![7]);
        assert_eq!(out.symbols_corrected, 4);
        assert_eq!(qpc.extract_data(&line), data);
    }

    #[test]
    fn qpc_polices_scattered_quad_corrections() {
        // 4 errors scattered over 4 chips are inside the raw t=4 radius,
        // but no single-chip failure explains them: policed as DUE.
        let qpc = Qpc::new();
        let data = pattern(&qpc);
        let mut line = qpc.encode(&data).unwrap();
        for (i, d) in [1usize, 4, 9, 15].iter().enumerate() {
            line.corrupt_symbol(*d, 0, 0x10 + i as u8);
        }
        assert!(matches!(
            qpc.decode(&mut line, &[]),
            Err(LineError::PolicyDue { .. })
        ));
        // ...while one or two scattered errors stay correctable.
        let mut line = qpc.encode(&data).unwrap();
        line.corrupt_symbol(1, 0, 0x10);
        line.corrupt_symbol(9, 2, 0x20);
        let out = qpc.decode(&mut line, &[]).unwrap();
        assert_eq!(out.corrected_devices, vec![1, 9]);
        assert_eq!(qpc.extract_data(&line), data);
    }

    #[test]
    fn multi_ecc_trial_decode_recovers_device_kills() {
        let me = MultiEcc::new();
        let data = pattern(&me);
        let clean = me.encode(&data).unwrap();
        for victim in 0..ME_DEV {
            let mut line = clean.clone();
            line.kill_device(victim, 0xE7);
            match me.decode(&mut line, &[]) {
                Ok(_) => assert_eq!(me.extract_data(&line), data, "device {victim}"),
                // Checksum-collision ambiguity is allowed (correct = 0),
                // but must surface as DUE, never as wrong data.
                Err(LineError::PolicyDue { .. }) | Err(LineError::Due { .. }) => {}
            }
        }
        // A declared erasure is reconstructed deterministically.
        let mut line = clean.clone();
        line.kill_device(3, 0x00);
        let out = me.decode(&mut line, &[3]).unwrap();
        assert_eq!(out.corrected_devices, vec![3]);
        assert_eq!(me.extract_data(&line), data);
    }

    #[test]
    fn multi_ecc_detects_double_device_corruption() {
        let me = MultiEcc::new();
        let data = pattern(&me);
        let mut line = me.encode(&data).unwrap();
        line.corrupt_device(1, 0x0F);
        line.corrupt_device(6, 0xF0);
        match me.decode(&mut line, &[]) {
            Err(_) => {}
            Ok(_) => assert_eq!(me.extract_data(&line), data),
        }
    }

    #[test]
    fn two_tier_absorbs_single_bit_upsets_on_die() {
        let tt = TwoTierSecDed::new();
        let data = pattern(&tt);
        let mut line = tt.encode(&data).unwrap();
        line.corrupt_symbol(11, 2, 0x04); // one bit of one device
        let out = tt.decode(&mut line, &[]).unwrap();
        assert_eq!(out.corrected_devices, vec![11]);
        assert_eq!(out.symbols_corrected, 1, "tier 1 must absorb it alone");
        assert_eq!(tt.extract_data(&line), data);
    }

    #[test]
    fn two_tier_erasure_conversion_corrects_double_device_kill() {
        // Two dead devices exceed the rank code's error radius, but tier 1
        // flags both as erasures and 2 erasures fit the 2 check symbols —
        // the HARP erasure-conversion argument. Garbage can alias tier-1's
        // single-bit syndrome, so allow a DUE, never wrong data.
        let tt = TwoTierSecDed::new();
        let data = pattern(&tt);
        let clean = tt.encode(&data).unwrap();
        for (a, b) in [(0usize, 9usize), (3, 17), (5, 6), (2, 12)] {
            // A double-bit flip per device is guaranteed DED at tier 1, so
            // both devices reach tier 2 as erasures and two erasures fit
            // the two rank check symbols exactly.
            let mut line = clean.clone();
            line.corrupt_symbol(a, 0, 0x03);
            line.corrupt_symbol(b, 2, 0x60);
            let out = tt.decode(&mut line, &[]).unwrap();
            assert!(out.corrected_devices.contains(&a), "devices {a},{b}");
            assert!(out.corrected_devices.contains(&b), "devices {a},{b}");
            assert_eq!(tt.extract_data(&line), data, "devices {a},{b}");
        }
        // Whole-device garbage may alias tier 1's single-bit syndrome and
        // then exceed tier 2's budget — a DUE is acceptable, wrong data
        // never is.
        for (a, b) in [(0usize, 9usize), (3, 17), (5, 6), (2, 12)] {
            let mut line = clean.clone();
            line.kill_device(a, 0xDB);
            line.kill_device(b, 0x6E);
            if tt.decode(&mut line, &[]).is_ok() {
                assert_eq!(tt.extract_data(&line), data, "devices {a},{b}");
            }
        }
    }

    #[test]
    fn costs_and_overheads_are_coherent() {
        for codec in codec_registry() {
            assert!(codec.devices() > 0, "{}", codec.name());
            assert!(codec.storage_overhead() > 0.0, "{}", codec.name());
            assert!(codec.data_bytes() > 0);
        }
        // The zoo's headline cost ranking, in devices driven per access:
        // 9-device MultiECC < 18-device schemes < 36-device SCCDCD.
        let devices = |n: &str| find_codec(n).unwrap().devices();
        assert_eq!(devices("arcc-relaxed"), 18);
        assert_eq!(devices("s8sc"), 18);
        assert_eq!(devices("qpc"), 18);
        assert_eq!(devices("two-tier-secded"), 18);
        assert_eq!(devices("multi-ecc"), 9);
        assert_eq!(devices("sccdcd"), 36);
    }
}
