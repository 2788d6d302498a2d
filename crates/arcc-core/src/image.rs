//! A functional, byte-accurate memory image.
//!
//! Unlike the statistical models used for multi-year studies, this module
//! actually *stores* every line as Reed–Solomon-encoded device symbols,
//! applies injected device faults on every read (stuck-at faults re-corrupt
//! data no matter how often it is rewritten), decodes with the
//! mode-appropriate policy, and re-encodes pages when ARCC upgrades them.
//! The scrubber ([`crate::scrub`]) and upgrade engine
//! ([`crate::upgrade`]) run against this image, exercising the identical
//! code path real hardware would.
//!
//! Geometry: pages hold 64 lines of 64 B. Relaxed line `l` of a page lives
//! on channel `l % channels` (the paper's alternating line interleave),
//! occupying that channel's 18 devices. Upgraded lines join sub-line pairs
//! across two channels (36 devices); doubly-upgraded lines join four
//! (72 devices, requires a 4-channel image).

use arcc_gf::chipkill::{EncodedLine, LineCodec, LineError};

use crate::page::{PageTable, ProtectionMode};
use crate::schemes::ArccScheme;

/// Lines per 4 KB page.
pub const LINES_PER_PAGE: u64 = 64;

/// Encodes `data` with a codec of the scheme's fixed geometry.
///
/// Every caller passes data whose length equals `codec.data_bytes()` by
/// construction, so the encode cannot fail; this helper is the module's
/// single deliberate panic site for that invariant (everything else
/// routes through it), which keeps the panic ratchet honest.
///
/// # Panics
///
/// Panics if the data length does not match the codec geometry.
fn encode_fixed(codec: &LineCodec, data: &[u8]) -> EncodedLine {
    match codec.encode_line(data) {
        Ok(enc) => enc,
        Err(e) => panic!("fixed-geometry encode failed: {e:?}"),
    }
}

/// How a faulty device mangles the symbols it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultBehavior {
    /// Device output stuck at a value (dead chip, stuck DQ).
    Stuck(u8),
    /// Device returns wrong-but-live data (bad address decoder): XOR mask.
    Flip(u8),
}

/// A device-level fault injected into the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Global device index (`channel * 18 + position`).
    pub device: u32,
    /// First affected page.
    pub first_page: u64,
    /// One past the last affected page.
    pub last_page: u64,
    /// Corruption behaviour.
    pub behavior: FaultBehavior,
    /// Transient faults are cleared by a scrub's corrected write-back;
    /// permanent faults persist.
    pub transient: bool,
}

impl InjectedFault {
    /// A permanent whole-image stuck-at fault on `device`.
    pub fn stuck_everywhere(device: u32, value: u8) -> Self {
        Self {
            device,
            first_page: 0,
            last_page: u64::MAX,
            behavior: FaultBehavior::Stuck(value),
            transient: false,
        }
    }

    fn affects_page(&self, page: u64) -> bool {
        (self.first_page..self.last_page).contains(&page)
    }
}

/// What a read observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadEvent {
    /// No error.
    Clean,
    /// Errors corrected; global device ids that were repaired.
    Corrected(Vec<u32>),
}

/// Counters for the functional image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageStats {
    /// Line reads served.
    pub reads: u64,
    /// Reads that needed correction.
    pub corrected_reads: u64,
    /// Reads that hit a detected-uncorrectable pattern.
    pub dues: u64,
    /// Line writes.
    pub writes: u64,
}

#[derive(Debug, Clone)]
enum PageStore {
    /// 64 relaxed 64 B lines.
    Relaxed(Vec<EncodedLine>),
    /// 32 upgraded 128 B lines.
    Upgraded(Vec<EncodedLine>),
    /// 16 doubly-upgraded 256 B lines.
    Upgraded2(Vec<EncodedLine>),
}

/// The functional memory image.
#[derive(Debug, Clone)]
pub struct FunctionalMemory {
    scheme: ArccScheme,
    channels: usize,
    table: PageTable,
    pages: Vec<PageStore>,
    faults: Vec<InjectedFault>,
    /// Devices marked known-bad (double chip sparing): their symbols are
    /// decoded as erasures, freeing the code's located-error budget for a
    /// *second* failure.
    spared_devices: Vec<u32>,
    stats: ImageStats,
}

impl FunctionalMemory {
    /// Creates a zero-filled image of `pages` pages over two channels, all
    /// pages relaxed.
    pub fn new(pages: u64) -> Self {
        Self::with_channels(pages, 2)
    }

    /// Creates an image over 2 or 4 channels (4 enables
    /// [`ProtectionMode::Upgraded2`]).
    ///
    /// # Panics
    ///
    /// Panics unless `channels` is 2 or 4.
    pub fn with_channels(pages: u64, channels: usize) -> Self {
        assert!(channels == 2 || channels == 4, "2 or 4 channels supported");
        let scheme = ArccScheme::commercial();
        let zero = vec![0u8; 64];
        let proto: Vec<EncodedLine> = (0..LINES_PER_PAGE)
            .map(|_| encode_fixed(scheme.relaxed(), &zero))
            .collect();
        Self {
            scheme,
            channels,
            table: PageTable::new(pages, ProtectionMode::Relaxed),
            pages: (0..pages)
                .map(|_| PageStore::Relaxed(proto.clone()))
                .collect(),
            faults: Vec::new(),
            spared_devices: Vec::new(),
            stats: ImageStats::default(),
        }
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.table.pages()
    }

    /// Total 64 B lines.
    pub fn lines(&self) -> u64 {
        self.pages() * LINES_PER_PAGE
    }

    /// The page table (modes are managed through
    /// [`crate::upgrade::UpgradeEngine`] or [`Self::convert_page`]).
    pub fn page_table(&self) -> &PageTable {
        &self.table
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ImageStats {
        self.stats
    }

    /// The ARCC codec set in use.
    pub fn scheme(&self) -> &ArccScheme {
        &self.scheme
    }

    /// Registers a fault. Takes effect on every subsequent read of covered
    /// lines.
    pub fn inject_fault(&mut self, fault: InjectedFault) {
        self.faults.push(fault);
    }

    /// Active faults.
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// Drops transient faults (models the corrected write-back of a scrub
    /// pass curing soft errors).
    pub fn clear_transient_faults(&mut self) {
        self.faults.retain(|f| !f.transient);
    }

    /// Marks a device known-bad (double chip sparing). Subsequent decodes
    /// treat its symbols as erasures, so a codeword with this device *and*
    /// one fresh error stays correctable: erasure + 1 located error needs
    /// only `2*1 + 1 = 3` of the upgraded mode's 4 check symbols.
    ///
    /// Relaxed codewords have only 2 check symbols, so sparing helps them
    /// tolerate the known-bad device but not an additional error — the
    /// reason the paper pairs sparing with upgrades (§5.1).
    pub fn spare_device(&mut self, device: u32) {
        if !self.spared_devices.contains(&device) {
            self.spared_devices.push(device);
        }
    }

    /// Erasure positions of spared devices within the span that holds the
    /// given stored line.
    fn erasures_for(&self, mode: ProtectionMode, line_in_page: u64, width: usize) -> Vec<usize> {
        let base = self.span_base(mode, line_in_page);
        self.spared_devices
            .iter()
            .filter_map(|&d| {
                let d = d as usize;
                (d >= base && d < base + width).then_some(d - base)
            })
            .collect()
    }

    fn split(&self, line: u64) -> (u64, u64) {
        (line / LINES_PER_PAGE, line % LINES_PER_PAGE)
    }

    /// Channel a relaxed line lives on.
    fn relaxed_channel(&self, line_in_page: u64) -> usize {
        (line_in_page as usize) % self.channels
    }

    /// First global device of the span holding this stored line.
    fn span_base(&self, mode: ProtectionMode, line_in_page: u64) -> usize {
        match mode {
            ProtectionMode::Relaxed => self.relaxed_channel(line_in_page) * 18,
            ProtectionMode::Upgraded => {
                // Sub-line pair (2u, 2u+1) maps to a channel pair.
                let pair_first_channel = ((line_in_page & !1) as usize) % self.channels;
                pair_first_channel * 18
            }
            ProtectionMode::Upgraded2 => 0,
        }
    }

    /// Applies registered faults to a copy of the stored line.
    fn apply_faults(
        &self,
        page: u64,
        mode: ProtectionMode,
        line_in_page: u64,
        enc: &mut EncodedLine,
    ) {
        let base = self.span_base(mode, line_in_page);
        let width = enc.devices();
        for f in &self.faults {
            if !f.affects_page(page) {
                continue;
            }
            let d = f.device as usize;
            if d < base || d >= base + width {
                continue;
            }
            let pos = d - base;
            match f.behavior {
                FaultBehavior::Stuck(v) => enc.kill_device(pos, v),
                FaultBehavior::Flip(x) => enc.corrupt_device(pos, x),
            }
        }
    }

    /// The codec for `mode`.
    fn codec_for(&self, mode: ProtectionMode) -> &LineCodec {
        match mode {
            ProtectionMode::Relaxed => self.scheme.relaxed(),
            ProtectionMode::Upgraded => self.scheme.upgraded(),
            ProtectionMode::Upgraded2 => self.scheme.upgraded2(),
        }
    }

    /// Reads one 64 B line: applies faults, decodes under the page's mode
    /// (correct-1 policy, matching SCCDCD+ARCC semantics), and returns the
    /// data plus what happened.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`LineError`] on a detected-uncorrectable
    /// pattern (a DUE).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn read_line(&mut self, line: u64) -> Result<(Vec<u8>, ReadEvent), LineError> {
        let (page, lip) = self.split(line);
        let mode = self.table.mode(page);
        self.stats.reads += 1;
        let base = self.span_base(mode, lip) as u32;
        let codec = self.codec_for(mode);
        let (mut enc, offset) = match (&self.pages[page as usize], mode) {
            (PageStore::Relaxed(lines), ProtectionMode::Relaxed) => {
                (lines[lip as usize].clone(), 0usize)
            }
            (PageStore::Upgraded(lines), ProtectionMode::Upgraded) => {
                (lines[(lip / 2) as usize].clone(), (lip % 2) as usize * 64)
            }
            (PageStore::Upgraded2(lines), ProtectionMode::Upgraded2) => {
                (lines[(lip / 4) as usize].clone(), (lip % 4) as usize * 64)
            }
            _ => unreachable!("page store always matches page-table mode"),
        };
        self.apply_faults(page, mode, lip, &mut enc);
        let erasures = self.erasures_for(mode, lip, codec.devices());
        match codec.decode_line(&mut enc, &erasures, 1) {
            Ok(outcome) => {
                let data = codec.extract_data(&enc);
                let slice = data[offset..offset + 64].to_vec();
                if outcome.is_clean() {
                    Ok((slice, ReadEvent::Clean))
                } else {
                    self.stats.corrected_reads += 1;
                    let devs = outcome
                        .corrected_devices
                        .iter()
                        .map(|&d| d as u32 + base)
                        .collect();
                    Ok((slice, ReadEvent::Corrected(devs)))
                }
            }
            Err(e) => {
                self.stats.dues += 1;
                Err(e)
            }
        }
    }

    /// Writes one 64 B line. In upgraded modes this is a read-modify-write
    /// of the whole joined line (all check symbols are regenerated), which
    /// is why the LLC must write back both sub-lines together.
    ///
    /// # Errors
    ///
    /// Upgraded-mode writes can fail with a [`LineError`] if the partner
    /// half is uncorrectable when read back.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or `data` is not 64 bytes.
    pub fn write_line(&mut self, line: u64, data: &[u8]) -> Result<(), LineError> {
        assert_eq!(data.len(), 64, "line writes are 64 bytes");
        let (page, lip) = self.split(line);
        let mode = self.table.mode(page);
        self.stats.writes += 1;
        match mode {
            ProtectionMode::Relaxed => {
                let enc = encode_fixed(self.scheme.relaxed(), data);
                if let PageStore::Relaxed(lines) = &mut self.pages[page as usize] {
                    lines[lip as usize] = enc;
                }
                Ok(())
            }
            ProtectionMode::Upgraded => {
                let codec = self.scheme.upgraded();
                let idx = (lip / 2) as usize;
                let mut current = match &self.pages[page as usize] {
                    PageStore::Upgraded(lines) => lines[idx].clone(),
                    _ => unreachable!("store matches mode"),
                };
                self.apply_faults(page, mode, lip, &mut current);
                let erasures = self.erasures_for(mode, lip, codec.devices());
                codec.decode_line(&mut current, &erasures, 1)?;
                let mut joined = codec.extract_data(&current);
                let off = (lip % 2) as usize * 64;
                joined[off..off + 64].copy_from_slice(data);
                let enc = encode_fixed(codec, &joined);
                if let PageStore::Upgraded(lines) = &mut self.pages[page as usize] {
                    lines[idx] = enc;
                }
                Ok(())
            }
            ProtectionMode::Upgraded2 => {
                let codec = self.codec_for(mode);
                let idx = (lip / 4) as usize;
                let mut current = match &self.pages[page as usize] {
                    PageStore::Upgraded2(lines) => lines[idx].clone(),
                    _ => unreachable!("store matches mode"),
                };
                self.apply_faults(page, mode, lip, &mut current);
                let erasures = self.erasures_for(mode, lip, codec.devices());
                codec.decode_line(&mut current, &erasures, 1)?;
                let mut joined = codec.extract_data(&current);
                let off = (lip % 4) as usize * 64;
                joined[off..off + 64].copy_from_slice(data);
                let enc = encode_fixed(codec, &joined);
                if let PageStore::Upgraded2(lines) = &mut self.pages[page as usize] {
                    lines[idx] = enc;
                }
                Ok(())
            }
        }
    }

    /// Scrub probe of §4.2.2: writes a raw symbol `pattern` to every device
    /// of the line's span, reads it back through the fault model, and
    /// reports whether the pattern survived. Restores the original stored
    /// content afterwards (the real scrubber holds the line aside).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn probe_line(&mut self, line: u64, pattern: u8) -> bool {
        let (page, lip) = self.split(line);
        let mode = self.table.mode(page);
        // Build an all-`pattern` encoded line and pass it through faults.
        let codec = self.codec_for(mode);
        let devices = codec.devices();
        let beats = codec.beats();
        let mut probe = encode_fixed(codec, &vec![0u8; codec.data_bytes()]);
        for d in 0..devices {
            for b in 0..beats {
                probe.set_symbol(d, b, pattern);
            }
        }
        self.apply_faults(page, mode, lip, &mut probe);
        (0..devices).all(|d| (0..beats).all(|b| probe.symbol(d, b) == pattern))
    }

    /// Converts a page to `target` mode, re-encoding its contents through
    /// the ECC decode → join/split → encode path. This is the mechanism the
    /// upgrade engine drives; most callers want
    /// [`crate::upgrade::UpgradeEngine::apply_scrub_outcome`].
    ///
    /// # Errors
    ///
    /// Fails with [`LineError`] if any line is uncorrectable during the
    /// conversion read-out.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range, or if `target` is
    /// [`ProtectionMode::Upgraded2`] on a 2-channel image.
    pub fn convert_page(&mut self, page: u64, target: ProtectionMode) -> Result<(), LineError> {
        let current = self.table.mode(page);
        if current == target {
            return Ok(());
        }
        if target == ProtectionMode::Upgraded2 {
            assert_eq!(self.channels, 4, "upgraded-2 needs a 4-channel image");
        }
        // Read out every 64 B line under the current mode (with correction).
        let mut data = Vec::with_capacity(LINES_PER_PAGE as usize);
        for lip in 0..LINES_PER_PAGE {
            let (bytes, _) = self.read_line(page * LINES_PER_PAGE + lip)?;
            data.push(bytes);
        }
        // Re-encode under the target mode.
        let store = match target {
            ProtectionMode::Relaxed => {
                let codec = self.scheme.relaxed();
                PageStore::Relaxed(data.iter().map(|d| encode_fixed(codec, d)).collect())
            }
            ProtectionMode::Upgraded => {
                let codec = self.scheme.upgraded();
                PageStore::Upgraded(
                    data.chunks(2)
                        .map(|pair| {
                            let mut joined = pair[0].clone();
                            joined.extend_from_slice(&pair[1]);
                            encode_fixed(codec, &joined)
                        })
                        .collect(),
                )
            }
            ProtectionMode::Upgraded2 => {
                let codec = self.codec_for(target);
                PageStore::Upgraded2(
                    data.chunks(4)
                        .map(|quad| {
                            let mut joined = Vec::with_capacity(256);
                            for q in quad {
                                joined.extend_from_slice(q);
                            }
                            encode_fixed(codec, &joined)
                        })
                        .collect(),
                )
            }
        };
        self.pages[page as usize] = store;
        self.table.set_mode(page, target);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(pages: u64) -> FunctionalMemory {
        let mut m = FunctionalMemory::new(pages);
        for l in 0..m.lines() {
            let data: Vec<u8> = (0..64)
                .map(|i| (l as u8).wrapping_mul(31) ^ i as u8)
                .collect();
            m.write_line(l, &data).unwrap();
        }
        m
    }

    fn expected(l: u64) -> Vec<u8> {
        (0..64)
            .map(|i| (l as u8).wrapping_mul(31) ^ i as u8)
            .collect()
    }

    #[test]
    fn write_read_roundtrip_relaxed() {
        let mut m = filled(2);
        for l in 0..m.lines() {
            let (data, ev) = m.read_line(l).unwrap();
            assert_eq!(data, expected(l));
            assert_eq!(ev, ReadEvent::Clean);
        }
    }

    #[test]
    fn stuck_device_corrected_in_relaxed_mode() {
        let mut m = filled(2);
        // Device 5 of channel 0 dies; relaxed lines on channel 0 are
        // corrected by the 2-check code.
        m.inject_fault(InjectedFault::stuck_everywhere(5, 0x00));
        for l in (0..m.lines()).step_by(2) {
            let (data, ev) = m.read_line(l).unwrap();
            assert_eq!(data, expected(l));
            assert!(
                matches!(ev, ReadEvent::Corrected(ref d) if d == &vec![5u32]),
                "{ev:?}"
            );
        }
        // Channel-1 lines (odd) are untouched.
        let (_, ev) = m.read_line(1).unwrap();
        assert_eq!(ev, ReadEvent::Clean);
    }

    #[test]
    fn double_device_failure_is_due_or_detected_in_relaxed() {
        let mut m = filled(1);
        m.inject_fault(InjectedFault::stuck_everywhere(3, 0xAA));
        m.inject_fault(InjectedFault::stuck_everywhere(9, 0x55));
        // Two bad devices on channel 0: beyond the relaxed code.
        let r = m.read_line(0);
        assert!(r.is_err(), "expected DUE, got {r:?}");
        assert!(m.stats().dues > 0);
    }

    #[test]
    fn upgrade_rescues_double_device_failure() {
        let mut m = filled(1);
        m.convert_page(0, ProtectionMode::Upgraded).unwrap();
        // Now inject the two channel-0 faults: upgraded codewords span 36
        // devices with 4 checks; with correct-1 policy two bad devices are
        // a detected DUE, but one bad device plus full correction works.
        m.inject_fault(InjectedFault::stuck_everywhere(3, 0xAA));
        for l in 0..LINES_PER_PAGE {
            let (data, _) = m.read_line(l).unwrap();
            assert_eq!(data, expected(l), "line {l}");
        }
    }

    #[test]
    fn upgraded_page_roundtrips_reads_and_writes() {
        let mut m = filled(2);
        m.convert_page(1, ProtectionMode::Upgraded).unwrap();
        // Reads see the same data.
        for l in 64..128 {
            let (data, _) = m.read_line(l).unwrap();
            assert_eq!(data, expected(l), "after upgrade line {l}");
        }
        // Writes re-encode the joined line.
        let new_data = vec![0xEEu8; 64];
        m.write_line(65, &new_data).unwrap();
        let (data, _) = m.read_line(65).unwrap();
        assert_eq!(data, new_data);
        let (data64, _) = m.read_line(64).unwrap();
        assert_eq!(data64, expected(64), "partner half undisturbed");
    }

    #[test]
    fn fault_scoped_to_pages() {
        let mut m = filled(4);
        m.inject_fault(InjectedFault {
            device: 0,
            first_page: 1,
            last_page: 2,
            behavior: FaultBehavior::Flip(0xFF),
            transient: false,
        });
        // Page 0 clean, page 1 corrected.
        let (_, ev0) = m.read_line(0).unwrap();
        assert_eq!(ev0, ReadEvent::Clean);
        let (_, ev1) = m.read_line(64).unwrap();
        assert!(matches!(ev1, ReadEvent::Corrected(_)));
    }

    #[test]
    fn probe_detects_stuck_faults_that_data_hides() {
        let mut m = FunctionalMemory::new(1);
        // All-zero data with a stuck-at-0 device: ordinary reads see no
        // error (the stored data equals the stuck value!), only the
        // test-pattern probe reveals it — the §4.2.2 motivation.
        m.write_line(0, &[0u8; 64]).unwrap();
        m.inject_fault(InjectedFault::stuck_everywhere(2, 0x00));
        let (_, ev) = m.read_line(0).unwrap();
        assert_eq!(ev, ReadEvent::Clean, "stuck-at-0 invisible in zero data");
        assert!(m.probe_line(0, 0x00), "all-zeros probe passes");
        assert!(
            !m.probe_line(0, 0xFF),
            "all-ones probe exposes the stuck-at-0"
        );
    }

    #[test]
    fn transient_faults_clear() {
        let mut m = filled(1);
        m.inject_fault(InjectedFault {
            device: 4,
            first_page: 0,
            last_page: 1,
            behavior: FaultBehavior::Flip(0x10),
            transient: true,
        });
        let (_, ev) = m.read_line(0).unwrap();
        assert!(matches!(ev, ReadEvent::Corrected(_)));
        m.clear_transient_faults();
        let (_, ev) = m.read_line(0).unwrap();
        assert_eq!(ev, ReadEvent::Clean);
    }

    #[test]
    fn convert_page_back_to_relaxed() {
        let mut m = filled(1);
        m.convert_page(0, ProtectionMode::Upgraded).unwrap();
        m.convert_page(0, ProtectionMode::Relaxed).unwrap();
        for l in 0..LINES_PER_PAGE {
            let (data, _) = m.read_line(l).unwrap();
            assert_eq!(data, expected(l));
        }
        assert_eq!(m.page_table().mode(0), ProtectionMode::Relaxed);
    }

    #[test]
    fn four_channel_image_supports_upgraded2() {
        let mut m = FunctionalMemory::with_channels(1, 4);
        for l in 0..64 {
            m.write_line(l, &expected(l)).unwrap();
        }
        m.convert_page(0, ProtectionMode::Upgraded2).unwrap();
        // A double device failure in one channel plus one in another is
        // still correctable... but under correct-1 policy only 1 error is
        // fixed; verify single-device failure correction across the wide
        // codeword.
        m.inject_fault(InjectedFault::stuck_everywhere(40, 0x00));
        for l in 0..64 {
            let (data, _) = m.read_line(l).unwrap();
            assert_eq!(data, expected(l), "line {l}");
        }
        assert_eq!(m.page_table().upgraded2_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "upgraded-2 needs a 4-channel image")]
    fn upgraded2_rejected_on_two_channels() {
        let mut m = FunctionalMemory::new(1);
        let _ = m.convert_page(0, ProtectionMode::Upgraded2);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = filled(1);
        let w = m.stats().writes;
        assert_eq!(w, 64);
        let _ = m.read_line(0);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn sparing_enables_second_chip_correction_in_upgraded_mode() {
        // The double-chip-sparing sequence of Chapter 5: first device dies,
        // is detected and spared out; an upgraded page then survives a
        // SECOND device failure (erasure + located error <= 4 checks).
        let mut m = filled(1);
        m.convert_page(0, ProtectionMode::Upgraded).unwrap();
        m.inject_fault(InjectedFault::stuck_everywhere(3, 0x00));
        m.spare_device(3);
        m.inject_fault(InjectedFault::stuck_everywhere(20, 0xFF));
        for l in 0..LINES_PER_PAGE {
            let (data, _) = m.read_line(l).unwrap();
            assert_eq!(data, expected(l), "line {l}");
        }
        // Without sparing the same pattern is a DUE under the correct-1
        // policy.
        let mut unspared = filled(1);
        unspared.convert_page(0, ProtectionMode::Upgraded).unwrap();
        unspared.inject_fault(InjectedFault::stuck_everywhere(3, 0x00));
        unspared.inject_fault(InjectedFault::stuck_everywhere(20, 0xFF));
        assert!(unspared.read_line(0).is_err());
    }

    #[test]
    fn sparing_does_not_rescue_relaxed_double_failure() {
        // Relaxed codewords have 2 checks: erasure (1) + located error (2)
        // needs 3 — beyond the relaxed budget, as §5.1 explains.
        let mut m = filled(1);
        m.inject_fault(InjectedFault::stuck_everywhere(3, 0x00));
        m.spare_device(3);
        // The spared device alone is fine (erasure-only decode)...
        let (data, _) = m.read_line(0).unwrap();
        assert_eq!(data, expected(0));
        // ...but a second failure in the same channel span is not.
        m.inject_fault(InjectedFault::stuck_everywhere(9, 0xFF));
        assert!(m.read_line(0).is_err());
    }

    #[test]
    fn spare_device_idempotent() {
        let mut m = filled(1);
        m.spare_device(5);
        m.spare_device(5);
        assert_eq!(m.spared_devices, [5]);
    }
}
