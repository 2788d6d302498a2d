//! Chipkill codeword layouts: striping memory lines across DRAM devices so
//! that each codeword holds at most one symbol per device.
//!
//! A *line* (64 B relaxed, 128 B upgraded, 256 B doubly-upgraded) is split
//! into `beats` codewords of one data symbol per data device plus one check
//! symbol per redundant device (Figure 2.1 / Figure 4.1 of the paper). A
//! whole-device failure therefore corrupts exactly one symbol in each
//! codeword of the line — the property that makes chipkill work.
//!
//! ```
//! use arcc_gf::chipkill::LineCodec;
//!
//! // ARCC relaxed mode: 18 x8 devices, 4 beats, 64-byte lines.
//! let codec = LineCodec::relaxed_x8();
//! let line = vec![0xA5u8; codec.data_bytes()];
//! let mut enc = codec.encode_line(&line).unwrap();
//! enc.kill_device(7, 0x00); // device 7 goes silent (stuck-at-0)
//! let outcome = codec.decode_line(&mut enc, &[], 1).unwrap();
//! assert_eq!(outcome.corrected_devices, vec![7]);
//! assert_eq!(codec.extract_data(&enc), line);
//! ```

use std::fmt;

use crate::field::Gf256;
use crate::rs::{DecodeError, ErasureSet, ReedSolomon, RsError, SLOTS};

/// An encoded line: one symbol per (device, beat).
///
/// Symbols are stored device-major (`symbol(d, b)` at `d * beats + b`) so a
/// device failure is a contiguous stripe — mirroring the physical layout
/// where each device owns its own data pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedLine {
    symbols: Vec<u8>,
    devices: usize,
    beats: usize,
}

impl EncodedLine {
    /// Builds a line from raw device-major symbol storage. Codec
    /// implementations outside this module use this to construct their
    /// own organisations (see [`crate::codec`]).
    ///
    /// # Panics
    ///
    /// Panics when `symbols.len() != devices * beats`.
    pub fn from_symbols(symbols: Vec<u8>, devices: usize, beats: usize) -> Self {
        assert!(
            symbols.len() == devices * beats,
            "symbol storage must be devices * beats long"
        );
        Self {
            symbols,
            devices,
            beats,
        }
    }

    /// Symbol held by `device` at `beat`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn symbol(&self, device: usize, beat: usize) -> u8 {
        assert!(device < self.devices && beat < self.beats);
        self.symbols[device * self.beats + beat]
    }

    /// Overwrites the symbol held by `device` at `beat`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn set_symbol(&mut self, device: usize, beat: usize, value: u8) {
        assert!(device < self.devices && beat < self.beats);
        self.symbols[device * self.beats + beat] = value;
    }

    /// XORs an error pattern into one symbol (models a transient flip).
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn corrupt_symbol(&mut self, device: usize, beat: usize, xor: u8) {
        let v = self.symbol(device, beat);
        self.set_symbol(device, beat, v ^ xor);
    }

    /// Forces every beat of `device` to `value` — a whole-device (chipkill)
    /// failure such as a dead chip driving its output stuck-at.
    ///
    /// # Panics
    ///
    /// Panics when `device` is out of range.
    pub fn kill_device(&mut self, device: usize, value: u8) {
        assert!(device < self.devices);
        for b in 0..self.beats {
            self.symbols[device * self.beats + b] = value;
        }
    }

    /// XORs a pattern into every beat of `device` (address-decoder style
    /// corruption where the chip returns wrong but live data).
    ///
    /// # Panics
    ///
    /// Panics when `device` is out of range.
    pub fn corrupt_device(&mut self, device: usize, xor: u8) {
        assert!(device < self.devices);
        for b in 0..self.beats {
            self.symbols[device * self.beats + b] ^= xor;
        }
    }

    /// Number of devices holding this line.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Codewords (beats) per line.
    pub fn beats(&self) -> usize {
        self.beats
    }

    /// Raw symbol storage, device-major.
    pub fn raw_symbols(&self) -> &[u8] {
        &self.symbols
    }
}

/// Outcome of decoding all codewords of a line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineOutcome {
    /// Devices that had at least one symbol corrected, ascending.
    pub corrected_devices: Vec<usize>,
    /// Total symbols corrected across all beats.
    pub symbols_corrected: usize,
}

impl LineOutcome {
    /// True when the line decoded without any correction.
    pub fn is_clean(&self) -> bool {
        self.symbols_corrected == 0
    }
}

/// Error from [`LineCodec::decode_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineError {
    /// A codeword in the line was detected-uncorrectable: a DUE for this
    /// line. `beat` is the first failing codeword.
    Due {
        /// Index of the first uncorrectable codeword.
        beat: usize,
        /// Underlying decoder error.
        source: DecodeError,
    },
    /// A scheme-level decode policy declared the pattern uncorrectable
    /// even though the raw code accepted it (e.g. S8SC's corrections
    /// confined to one chip, or MultiECC's ambiguous trial decode).
    PolicyDue {
        /// Which policy fired.
        reason: &'static str,
    },
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::Due { beat, source } => {
                write!(
                    f,
                    "detected uncorrectable error in codeword {beat}: {source}"
                )
            }
            LineError::PolicyDue { reason } => {
                write!(f, "decode policy declared the line uncorrectable: {reason}")
            }
        }
    }
}

impl std::error::Error for LineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LineError::Due { source, .. } => Some(source),
            LineError::PolicyDue { .. } => None,
        }
    }
}

/// Most codewords (beats) whose LFSRs run interleaved: the registers are
/// independent, so their step latencies overlap.
const LANES: usize = 4;

/// The erasures and policy limit [`LineCodec::decode_line`] decodes
/// every beat under.
#[derive(Clone, Copy)]
struct BeatPolicy<'a> {
    erasures: &'a [usize],
    erased: ErasureSet,
    max_errors: usize,
}

/// Encoder/decoder for a whole line under one chipkill organisation.
#[derive(Debug, Clone)]
pub struct LineCodec {
    rs: ReedSolomon<Gf256>,
    devices: usize,
    data_devices: usize,
    beats: usize,
}

impl LineCodec {
    /// Creates a codec striping `beats` codewords across `devices` devices,
    /// of which `data_devices` carry data (the rest carry check symbols).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParams`] when the implied `RS(devices,
    /// data_devices)` code is invalid or `beats == 0`.
    pub fn new(devices: usize, data_devices: usize, beats: usize) -> Result<Self, RsError> {
        if beats == 0 {
            return Err(RsError::InvalidParams {
                n: devices,
                k: data_devices,
                max_n: 0,
            });
        }
        let rs = ReedSolomon::new(devices, data_devices)?;
        Ok(Self {
            rs,
            devices,
            data_devices,
            beats,
        })
    }

    /// ARCC relaxed mode: 18 x8 devices (16 data + 2 check), 4 beats —
    /// 64-byte lines, corrects 1 bad symbol per codeword.
    pub fn relaxed_x8() -> Self {
        Self::new(18, 16, 4).expect("static parameters are valid")
    }

    /// ARCC upgraded mode: two 18-device ranks on two channels in lockstep,
    /// 36 symbols per codeword (32 data + 4 check), 4 beats — 128-byte
    /// upgraded lines.
    pub fn upgraded_two_channel() -> Self {
        Self::new(36, 32, 4).expect("static parameters are valid")
    }

    /// Commercial SCCDCD: 36 x4 devices in a lockstep logical rank. An 8-bit
    /// symbol gathers two 4-bit beats of one device, so a 64-byte line is 2
    /// codewords.
    pub fn sccdcd_x4() -> Self {
        Self::new(36, 32, 2).expect("static parameters are valid")
    }

    /// Second-level upgrade (§5.1): four channels in lockstep, 72 symbols
    /// per codeword (64 data + 8 check), 256-byte lines.
    pub fn upgraded_four_channel() -> Self {
        Self::new(72, 64, 4).expect("static parameters are valid")
    }

    /// Devices per codeword (`n`).
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Data devices per codeword (`k`).
    pub fn data_devices(&self) -> usize {
        self.data_devices
    }

    /// Check symbols per codeword.
    pub fn check_symbols(&self) -> usize {
        self.devices - self.data_devices
    }

    /// Codewords per line.
    pub fn beats(&self) -> usize {
        self.beats
    }

    /// Data payload of one line in bytes.
    pub fn data_bytes(&self) -> usize {
        self.data_devices * self.beats
    }

    /// Storage overhead of the organisation (check/data ratio), e.g. `0.125`
    /// for 32+4 chipkill.
    pub fn storage_overhead(&self) -> f64 {
        self.check_symbols() as f64 / self.data_devices as f64
    }

    /// Encodes a data line into per-device symbols.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] when `data.len()` differs from
    /// [`data_bytes`](Self::data_bytes).
    pub fn encode_line(&self, data: &[u8]) -> Result<EncodedLine, RsError> {
        if data.len() != self.data_bytes() {
            return Err(RsError::LengthMismatch {
                expected: self.data_bytes(),
                got: data.len(),
            });
        }
        let beats = self.beats;
        let mut symbols = vec![0u8; self.devices * beats];
        let (data_syms, check_syms) = symbols.split_at_mut(self.data_devices * beats);
        let mut b0 = 0;
        while b0 < beats {
            b0 += match beats - b0 {
                1 => self.encode_beats::<1>(data, data_syms, check_syms, b0),
                2 | 3 => self.encode_beats::<2>(data, data_syms, check_syms, b0),
                _ => self.encode_beats::<LANES>(data, data_syms, check_syms, b0),
            };
        }
        Ok(EncodedLine {
            symbols,
            devices: self.devices,
            beats,
        })
    }

    /// Encodes beats `b0..b0 + W` of `data` into the device-major data
    /// and check symbol storage, their LFSRs interleaved; returns `W`.
    fn encode_beats<const W: usize>(
        &self,
        data: &[u8],
        data_syms: &mut [u8],
        check_syms: &mut [u8],
        b0: usize,
    ) -> usize {
        let (k, beats) = (self.data_devices, self.beats);
        // Beat b carries data bytes [b*k, (b+1)*k): consecutive bytes map
        // to consecutive devices, matching the bus interleaving.
        let rows: [&[u8]; W] = std::array::from_fn(|w| &data[(b0 + w) * k..][..k]);
        self.rs.encode_lanes(
            |i| {
                let s = rows.map(|row| row[i]);
                data_syms[i * beats + b0..][..W].copy_from_slice(&s);
                s
            },
            |w, j, p| check_syms[j * beats + b0 + w] = p,
        );
        W
    }

    /// True when any beat of `line` has a non-zero residue, i.e. is not a
    /// codeword.
    fn any_residue(&self, line: &EncodedLine) -> bool {
        let beats = self.beats;
        let mut any = 0u8;
        let mut b0 = 0;
        while b0 < beats {
            b0 += match beats - b0 {
                1 => self.residue_beats::<1>(line, b0, &mut any),
                2 | 3 => self.residue_beats::<2>(line, b0, &mut any),
                _ => self.residue_beats::<LANES>(line, b0, &mut any),
            };
        }
        any != 0
    }

    /// ORs the residues of beats `b0..b0 + W` of `line` into `any`, their
    /// LFSRs interleaved; returns `W`.
    fn residue_beats<const W: usize>(&self, line: &EncodedLine, b0: usize, any: &mut u8) -> usize {
        let beats = self.beats;
        self.rs.residue_lanes(
            |i| {
                let mut s = [0u8; W];
                s.copy_from_slice(&line.symbols[i * beats + b0..][..W]);
                s
            },
            |_, _, r| *any |= r,
        );
        W
    }

    /// Decodes every codeword of the line in place.
    ///
    /// `erased_devices` are devices known bad (e.g. spared-out chips); their
    /// symbols are treated as erasures in every beat. `max_errors_per_cw`
    /// is the correction policy limit (see
    /// [`ReedSolomon::decode_with_limit`]).
    ///
    /// The line takes one residue pass, its beats' LFSRs interleaved as in
    /// [`detect_line`](Self::detect_line). A beat with a zero residue is a
    /// codeword and is skipped; each other beat's residue goes straight to
    /// the corrector. The outcome equals decoding the beats in order with
    /// [`ReedSolomon::decode_with_limit`].
    ///
    /// # Errors
    ///
    /// [`LineError::Due`] when any codeword is uncorrectable; symbols of
    /// *earlier* beats may already be corrected (they were independently
    /// valid corrections).
    ///
    /// # Panics
    ///
    /// Panics if the encoded line's geometry does not match this codec.
    pub fn decode_line(
        &self,
        line: &mut EncodedLine,
        erased_devices: &[usize],
        max_errors_per_cw: usize,
    ) -> Result<LineOutcome, LineError> {
        assert_eq!(line.devices, self.devices, "device count mismatch");
        assert_eq!(line.beats, self.beats, "beat count mismatch");
        let erased = self.rs.erasure_set(erased_devices);
        let nu = erased_devices.len();
        if nu > self.check_symbols() {
            let source = DecodeError::Uncorrectable { erasures: nu };
            return Err(LineError::Due { beat: 0, source });
        }
        let policy = BeatPolicy {
            erasures: erased_devices,
            erased,
            max_errors: max_errors_per_cw,
        };
        let mut out = LineOutcome::default();
        // Residue buffers of 8 bytes cover every code the workspace runs,
        // so a clean line zeroes a few bytes per beat, not a kilobyte.
        if self.check_symbols() <= 8 {
            self.decode_chunks::<8>(line, policy, &mut out)?;
        } else {
            self.decode_chunks::<SLOTS>(line, policy, &mut out)?;
        }
        out.corrected_devices.sort_unstable();
        Ok(out)
    }

    /// Runs [`decode_beats`](Self::decode_beats) over the line's beats in
    /// chunks of up to [`LANES`], with `R`-byte residue buffers (`R >= n -
    /// k`).
    fn decode_chunks<const R: usize>(
        &self,
        line: &mut EncodedLine,
        policy: BeatPolicy<'_>,
        out: &mut LineOutcome,
    ) -> Result<(), LineError> {
        let mut b0 = 0;
        while b0 < self.beats {
            b0 += match self.beats - b0 {
                1 => self.decode_beats::<1, R>(line, b0, policy, out),
                2 | 3 => self.decode_beats::<2, R>(line, b0, policy, out),
                _ => self.decode_beats::<LANES, R>(line, b0, policy, out),
            }?;
        }
        Ok(())
    }

    /// Decodes beats `b0..b0 + W` of `line` in place from one interleaved
    /// residue pass, tallying corrections into `out`; returns `W`. Dirty
    /// beats are corrected in beat order, so a DUE leaves earlier beats
    /// written back and later ones untouched.
    fn decode_beats<const W: usize, const R: usize>(
        &self,
        line: &mut EncodedLine,
        b0: usize,
        policy: BeatPolicy<'_>,
        out: &mut LineOutcome,
    ) -> Result<usize, LineError> {
        let beats = self.beats;
        let mut res = [[0u8; R]; W];
        let mut dirty = [0u8; W];
        self.rs.residue_lanes(
            |i| {
                let mut s = [0u8; W];
                s.copy_from_slice(&line.symbols[i * beats + b0..][..W]);
                s
            },
            |w, j, r| {
                res[w][j] = r;
                dirty[w] |= r;
            },
        );
        for (w, res) in res.iter().enumerate() {
            if dirty[w] == 0 {
                continue;
            }
            let beat = b0 + w;
            let mut buf = [0u8; SLOTS];
            let cw = &mut buf[..self.devices];
            for (d, slot) in cw.iter_mut().enumerate() {
                *slot = line.symbols[d * beats + beat];
            }
            let fixes = self
                .rs
                .correct(cw, policy.erasures, policy.erased, res, policy.max_errors)
                .map_err(|source| LineError::Due { beat, source })?;
            for (d, _) in fixes.iter() {
                if !out.corrected_devices.contains(&d) {
                    out.corrected_devices.push(d);
                }
                out.symbols_corrected += 1;
                line.symbols[d * beats + beat] = cw[d];
            }
        }
        Ok(W)
    }

    /// Detect-only scan: returns `true` when any codeword has a non-zero
    /// syndrome (used by the scrubber's cheap first pass).
    ///
    /// # Panics
    ///
    /// Panics if the encoded line's geometry does not match this codec.
    pub fn detect_line(&self, line: &EncodedLine) -> bool {
        assert_eq!(line.devices, self.devices, "device count mismatch");
        assert_eq!(line.beats, self.beats, "beat count mismatch");
        self.any_residue(line)
    }

    /// Extracts the data payload from an encoded line (no checking).
    ///
    /// # Panics
    ///
    /// Panics if the encoded line's geometry does not match this codec.
    pub fn extract_data(&self, line: &EncodedLine) -> Vec<u8> {
        assert_eq!(line.devices, self.devices, "device count mismatch");
        assert_eq!(line.beats, self.beats, "beat count mismatch");
        let mut out = vec![0u8; self.data_bytes()];
        for beat in 0..self.beats {
            for d in 0..self.data_devices {
                out[beat * self.data_devices + d] = line.symbols[d * self.beats + beat];
            }
        }
        out
    }
}

/// The per-beat loop `decode_line`'s single residue pass replaced, kept
/// as the oracle of its differential test: every beat of a dirty line
/// goes through `decode_with_limit`, which takes its own residue.
#[cfg(test)]
mod reference {
    use super::*;

    impl LineCodec {
        pub(super) fn reference_decode_line(
            &self,
            line: &mut EncodedLine,
            erased_devices: &[usize],
            max_errors_per_cw: usize,
        ) -> Result<LineOutcome, LineError> {
            assert_eq!(line.devices, self.devices, "device count mismatch");
            assert_eq!(line.beats, self.beats, "beat count mismatch");
            // Clean lines (nearly every read) return after the residue check,
            // once the erasures pass the checks the per-beat decode makes.
            self.rs.erasure_set(erased_devices);
            if erased_devices.len() <= self.check_symbols() && !self.any_residue(line) {
                return Ok(LineOutcome::default());
            }
            let mut corrected_devices = Vec::new();
            let mut symbols_corrected = 0usize;
            let mut buf = [0u8; 256];
            let cw = &mut buf[..self.devices];
            for beat in 0..self.beats {
                for (d, slot) in cw.iter_mut().enumerate() {
                    *slot = line.symbols[d * self.beats + beat];
                }
                match self
                    .rs
                    .decode_with_limit(cw, erased_devices, max_errors_per_cw)
                {
                    Ok(outcome) => {
                        for c in outcome.corrections() {
                            if !corrected_devices.contains(&c.position) {
                                corrected_devices.push(c.position);
                            }
                            symbols_corrected += 1;
                            line.symbols[c.position * self.beats + beat] = cw[c.position];
                        }
                    }
                    Err(source) => return Err(LineError::Due { beat, source }),
                }
            }
            corrected_devices.sort_unstable();
            Ok(LineOutcome {
                corrected_devices,
                symbols_corrected,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_geometries() {
        let relaxed = LineCodec::relaxed_x8();
        assert_eq!(relaxed.data_bytes(), 64);
        assert_eq!(relaxed.check_symbols(), 2);
        assert!((relaxed.storage_overhead() - 0.125).abs() < 1e-12);

        let up = LineCodec::upgraded_two_channel();
        assert_eq!(up.data_bytes(), 128);
        assert_eq!(up.check_symbols(), 4);
        assert!((up.storage_overhead() - 0.125).abs() < 1e-12);

        let base = LineCodec::sccdcd_x4();
        assert_eq!(base.data_bytes(), 64);
        assert_eq!(base.check_symbols(), 4);

        let up2 = LineCodec::upgraded_four_channel();
        assert_eq!(up2.data_bytes(), 256);
        assert_eq!(up2.check_symbols(), 8);
        assert!((up2.storage_overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn encode_extract_roundtrip() {
        let codec = LineCodec::relaxed_x8();
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let enc = codec.encode_line(&data).unwrap();
        assert_eq!(codec.extract_data(&enc), data);
        assert!(!codec.detect_line(&enc));
    }

    #[test]
    fn wrong_length_rejected() {
        let codec = LineCodec::relaxed_x8();
        assert!(codec.encode_line(&[0u8; 63]).is_err());
    }

    #[test]
    fn whole_device_failure_corrected_in_every_organisation() {
        for codec in [
            LineCodec::relaxed_x8(),
            LineCodec::upgraded_two_channel(),
            LineCodec::sccdcd_x4(),
            LineCodec::upgraded_four_channel(),
        ] {
            let data: Vec<u8> = (0..codec.data_bytes())
                .map(|i| (i * 31 + 7) as u8)
                .collect();
            let clean = codec.encode_line(&data).unwrap();
            for victim in [0, codec.data_devices() - 1, codec.devices() - 1] {
                let mut enc = clean.clone();
                enc.kill_device(victim, 0xff);
                let out = codec.decode_line(&mut enc, &[], 1).unwrap();
                assert!(out.corrected_devices == vec![victim] || out.is_clean());
                assert_eq!(codec.extract_data(&enc), data, "device {victim}");
            }
        }
    }

    #[test]
    fn relaxed_mode_double_device_failure_is_not_guaranteed() {
        // Two bad devices exceed the relaxed code entirely.
        let codec = LineCodec::relaxed_x8();
        let data = vec![0x77u8; 64];
        let mut enc = codec.encode_line(&data).unwrap();
        enc.corrupt_device(2, 0x18);
        enc.corrupt_device(11, 0xc3);
        match codec.decode_line(&mut enc, &[], 1) {
            Err(_) => {}
            Ok(_) => {
                // Miscorrection is possible in theory, but data must differ.
                assert_ne!(codec.extract_data(&enc), data);
            }
        }
    }

    #[test]
    fn upgraded_mode_corrects_double_device_failure_with_full_power() {
        let codec = LineCodec::upgraded_two_channel();
        let data: Vec<u8> = (0..128).map(|i| (i ^ 0x5a) as u8).collect();
        let mut enc = codec.encode_line(&data).unwrap();
        enc.corrupt_device(4, 0x21);
        enc.corrupt_device(22, 0x84);
        let out = codec.decode_line(&mut enc, &[], 2).unwrap();
        assert_eq!(out.corrected_devices, vec![4, 22]);
        assert_eq!(codec.extract_data(&enc), data);
    }

    #[test]
    fn upgraded_mode_policy_one_detects_double_failure() {
        // SCCDCD-style policy: correct 1, report 2 as DUE.
        let codec = LineCodec::upgraded_two_channel();
        let data = vec![0u8; 128];
        let mut enc = codec.encode_line(&data).unwrap();
        enc.corrupt_device(4, 0x21);
        enc.corrupt_device(22, 0x84);
        assert!(matches!(
            codec.decode_line(&mut enc, &[], 1),
            Err(LineError::Due { .. })
        ));
    }

    #[test]
    fn sparing_decodes_known_bad_device_as_erasure() {
        // Double chip sparing: first bad chip is known; a second new error
        // is still correctable (erasure + 1 error <= 4 check symbols needs
        // 2e + nu <= 4).
        let codec = LineCodec::sccdcd_x4();
        let data: Vec<u8> = (0..64).map(|i| (200 - i) as u8).collect();
        let mut enc = codec.encode_line(&data).unwrap();
        enc.kill_device(9, 0x00); // known-bad (detected earlier)
        enc.corrupt_device(30, 0x42); // fresh failure
        let out = codec.decode_line(&mut enc, &[9], 1).unwrap();
        assert!(out.corrected_devices.contains(&30));
        assert_eq!(codec.extract_data(&enc), data);
    }

    #[test]
    fn detect_line_sees_single_symbol_corruption() {
        let codec = LineCodec::relaxed_x8();
        let clean = codec.encode_line(&[9u8; 64]).unwrap();
        for beat in 0..4 {
            let mut enc = clean.clone();
            enc.corrupt_symbol(17, beat, 0x01);
            assert!(codec.detect_line(&enc), "beat {beat}");
        }
    }

    #[test]
    fn zero_beats_rejected() {
        assert!(LineCodec::new(18, 16, 0).is_err());
    }

    #[test]
    fn interleaved_beats_match_one_codeword_at_a_time() {
        // Beat counts that split into 4-, 2- and 1-beat chunks, and codes
        // with more than 8 check symbols (the multi-word register).
        for (n, k, beats) in [
            (18, 16, 1),
            (18, 16, 3),
            (36, 32, 5),
            (72, 64, 7),
            (40, 20, 4),
            (255, 223, 2),
        ] {
            let codec = LineCodec::new(n, k, beats).unwrap();
            let data: Vec<u8> = (0..codec.data_bytes())
                .map(|i| (i * 151 + n) as u8)
                .collect();
            let clean = codec.encode_line(&data).unwrap();
            for (b, cw_data) in data.chunks_exact(k).enumerate() {
                let cw: Vec<u8> = (0..n).map(|d| clean.symbol(d, b)).collect();
                assert_eq!(cw, codec.rs.encode_to_codeword(cw_data).unwrap());
            }
            assert!(!codec.detect_line(&clean));
            for b in 0..beats {
                let mut enc = clean.clone();
                enc.corrupt_symbol((b * 7) % n, b, 0x5c);
                assert!(codec.detect_line(&enc), "RS({n},{k}) x{beats}, beat {b}");
                let out = codec.decode_line(&mut enc, &[], 1).unwrap();
                assert_eq!(out.corrected_devices, vec![(b * 7) % n]);
                assert_eq!(enc, clean);
            }
        }
    }

    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `count` distinct devices below `n`.
    fn distinct(draw: &mut impl FnMut(usize) -> usize, n: usize, count: usize) -> Vec<usize> {
        let mut out = Vec::new();
        while out.len() < count {
            let d = draw(n);
            if !out.contains(&d) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn decode_line_matches_the_per_beat_reference() {
        // Seeded lines in five scenarios, each decoded at limits 0..=2 by
        // both paths: the result (`LineError::Due`'s beat included) and
        // every symbol afterwards must agree. `seen` counts the cases the
        // single pass must get right: a clean beat inside a dirty line, a
        // DUE after earlier beats were written back, erasures with
        // corrections, and more erasures than check symbols.
        let mut state = 17u64;
        let mut draw = |below: usize| {
            state = splitmix64(state);
            (state % below as u64) as usize
        };
        let mut seen = [0usize; 4];
        for codec in [
            LineCodec::relaxed_x8(),
            LineCodec::upgraded_two_channel(),
            LineCodec::sccdcd_x4(),
            LineCodec::upgraded_four_channel(),
            LineCodec::new(18, 16, 3).unwrap(),
            LineCodec::new(40, 20, 7).unwrap(),
        ] {
            let (n, beats, r) = (codec.devices(), codec.beats(), codec.check_symbols());
            for case in 0..250 {
                let data: Vec<u8> = (0..codec.data_bytes()).map(|_| draw(256) as u8).collect();
                let mut line = codec.encode_line(&data).unwrap();
                let mut erased: Vec<usize> = Vec::new();
                match case % 5 {
                    // A dead device stuck at one beat's own symbol.
                    0 => {
                        let d = draw(n);
                        line.kill_device(d, line.symbol(d, draw(beats)));
                    }
                    // Two dead devices, the first stuck at one beat's symbol.
                    1 => {
                        let a = draw(n);
                        let b = (a + 1 + draw(n - 1)) % n;
                        line.kill_device(a, line.symbol(a, draw(beats)));
                        line.kill_device(b, draw(256) as u8);
                    }
                    // Erased dead devices, and sometimes a fresh bad symbol.
                    2 => {
                        let count = 1 + draw(r);
                        erased = distinct(&mut draw, n, count);
                        for &d in &erased {
                            line.kill_device(d, draw(256) as u8);
                        }
                        if draw(2) == 1 {
                            line.corrupt_symbol(draw(n), draw(beats), 1 + draw(255) as u8);
                        }
                    }
                    // More erasures than check symbols.
                    3 => {
                        let count = r + 1 + draw(2);
                        erased = distinct(&mut draw, n, count);
                        if draw(2) == 1 {
                            line.kill_device(erased[0], draw(256) as u8);
                        }
                    }
                    // Scattered bad symbols.
                    _ => {
                        for _ in 0..=draw(r + 1) {
                            line.corrupt_symbol(draw(n), draw(beats), 1 + draw(255) as u8);
                        }
                    }
                }
                for limit in 0..=2 {
                    let mut ours = line.clone();
                    let mut theirs = line.clone();
                    let got = codec.decode_line(&mut ours, &erased, limit);
                    let want = codec.reference_decode_line(&mut theirs, &erased, limit);
                    assert_eq!(
                        got,
                        want,
                        "RS({n},{}) x{beats}, case {case}, erased {erased:?}, limit {limit}",
                        codec.data_devices()
                    );
                    assert_eq!(ours, theirs, "symbols after decode");
                    match got {
                        Ok(out) if out.corrected_devices.len() == 1 => {
                            let d = out.corrected_devices[0];
                            seen[0] +=
                                usize::from(out.symbols_corrected < beats && !erased.contains(&d));
                            seen[2] += usize::from(!erased.is_empty());
                        }
                        Ok(out) => seen[2] += usize::from(!erased.is_empty() && !out.is_clean()),
                        Err(LineError::Due { beat, .. }) if beat > 0 && ours != line => {
                            seen[1] += 1
                        }
                        Err(LineError::Due { beat: 0, .. }) => {
                            seen[3] += usize::from(erased.len() > r)
                        }
                        Err(_) => {}
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "scenarios reached {seen:?}");
    }
}
