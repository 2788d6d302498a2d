//! The ARCC upgrade engine: scrub-triggered page mode escalation
//! (Figure 4.1 and §4.2.1).
//!
//! At the end of every memory scrub, each page in which an error was
//! detected has its chipkill strength increased one level: relaxed pages
//! join adjacent 64 B line pairs from two channels into 128 B lines with
//! four check symbols per codeword; already-upgraded pages (under the §5.1
//! extension) escalate to 256 B lines across four channels with eight
//! check symbols. Only the faulty page itself is touched — it is read out
//! line by line (with correction), re-encoded, and written back.

use crate::image::{FunctionalMemory, LINES_PER_PAGE};
use crate::page::ProtectionMode;
use crate::scrub::{ScrubOutcome, Scrubber};

/// Accounting for one upgrade round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpgradeReport {
    /// Pages whose mode was raised this round.
    pub pages_upgraded: Vec<u64>,
    /// Pages that were already at the maximum level (stay put).
    pub pages_saturated: Vec<u64>,
    /// 64 B line reads performed to re-encode pages.
    pub lines_read: u64,
    /// Line writes performed (joined-line stores).
    pub lines_written: u64,
    /// Pages whose conversion failed because a line was uncorrectable (the
    /// data is lost — a DUE surfaced during upgrade).
    pub failed_pages: Vec<u64>,
}

/// Drives scrub-triggered upgrades against a functional memory image.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpgradeEngine {
    /// Allow escalation past [`ProtectionMode::Upgraded`] (§5.1). Requires
    /// a 4-channel image.
    pub enable_second_level: bool,
}

impl UpgradeEngine {
    /// Creates an engine with the paper's base policy (single upgrade
    /// level).
    pub fn new() -> Self {
        Self::default()
    }

    /// Upgrades one page a single level. Returns the new mode.
    ///
    /// # Errors
    ///
    /// Propagates a [`arcc_gf::chipkill::LineError`] if the page's content
    /// cannot be corrected while being read out.
    fn upgrade_page(
        &self,
        mem: &mut FunctionalMemory,
        page: u64,
    ) -> Result<ProtectionMode, arcc_gf::chipkill::LineError> {
        let cur = mem.page_table().mode(page);
        let target = match cur.next() {
            Some(ProtectionMode::Upgraded2) if !self.enable_second_level => {
                return Ok(cur);
            }
            Some(next) => next,
            None => return Ok(cur),
        };
        mem.convert_page(page, target)?;
        Ok(target)
    }

    /// The end-of-scrub policy: raise the mode of every page the scrub
    /// flagged.
    pub fn apply_scrub_outcome(
        &self,
        mem: &mut FunctionalMemory,
        outcome: &ScrubOutcome,
    ) -> UpgradeReport {
        let mut report = UpgradeReport::default();
        for &page in &outcome.pages_with_errors {
            let before = mem.page_table().mode(page);
            match self.upgrade_page(mem, page) {
                Ok(after) if after != before => {
                    report.pages_upgraded.push(page);
                    report.lines_read += LINES_PER_PAGE;
                    // Joined lines: half (or quarter) as many stores.
                    report.lines_written += match after {
                        ProtectionMode::Relaxed => LINES_PER_PAGE,
                        ProtectionMode::Upgraded => LINES_PER_PAGE / 2,
                        ProtectionMode::Upgraded2 => LINES_PER_PAGE / 4,
                    };
                }
                Ok(_) => report.pages_saturated.push(page),
                Err(_) => report.failed_pages.push(page),
            }
        }
        report
    }

    /// One full maintenance round: scrub, then upgrade flagged pages.
    pub fn scrub_and_upgrade(
        &self,
        mem: &mut FunctionalMemory,
        scrubber: &Scrubber,
    ) -> (ScrubOutcome, UpgradeReport) {
        let outcome = scrubber.scrub(mem);
        let report = self.apply_scrub_outcome(mem, &outcome);
        (outcome, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::InjectedFault;
    use crate::scrub::ScrubStrategy;

    fn filled(pages: u64) -> FunctionalMemory {
        let mut m = FunctionalMemory::new(pages);
        for l in 0..m.lines() {
            let data: Vec<u8> = (0..64).map(|i| (l as u8) ^ (i as u8)).collect();
            m.write_line(l, &data).unwrap();
        }
        m
    }

    #[test]
    fn scrub_then_upgrade_flags_only_faulty_pages() {
        let mut mem = filled(4);
        mem.inject_fault(InjectedFault {
            device: 10,
            first_page: 2,
            last_page: 3,
            behavior: crate::image::FaultBehavior::Flip(0x3C),
            transient: false,
        });
        let engine = UpgradeEngine::new();
        let scrubber = Scrubber::new(ScrubStrategy::TestPattern);
        let (outcome, report) = engine.scrub_and_upgrade(&mut mem, &scrubber);
        assert_eq!(outcome.pages_with_errors, vec![2]);
        assert_eq!(report.pages_upgraded, vec![2]);
        assert_eq!(mem.page_table().mode(2), ProtectionMode::Upgraded);
        assert_eq!(mem.page_table().mode(0), ProtectionMode::Relaxed);
        assert_eq!(report.lines_read, 64);
        assert_eq!(report.lines_written, 32);
        // The upgraded page still reads correctly through the fault.
        for l in 128..192 {
            let (data, _) = mem.read_line(l).unwrap();
            let expect: Vec<u8> = (0..64).map(|i| (l as u8) ^ (i as u8)).collect();
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn data_preserved_across_upgrade_with_live_fault() {
        // The conversion must correct the fault while reading out.
        let mut mem = filled(1);
        mem.inject_fault(InjectedFault::stuck_everywhere(15, 0xFF));
        let engine = UpgradeEngine::new();
        let mode = engine.upgrade_page(&mut mem, 0).unwrap();
        assert_eq!(mode, ProtectionMode::Upgraded);
        for l in 0..64 {
            let (data, _) = mem.read_line(l).unwrap();
            let expect: Vec<u8> = (0..64).map(|i| (l as u8) ^ (i as u8)).collect();
            assert_eq!(data, expect, "line {l}");
        }
    }

    #[test]
    fn base_policy_saturates_at_first_upgrade() {
        let mut mem = filled(1);
        let engine = UpgradeEngine::new();
        assert_eq!(
            engine.upgrade_page(&mut mem, 0).unwrap(),
            ProtectionMode::Upgraded
        );
        // Second upgrade is a no-op without the §5.1 extension.
        assert_eq!(
            engine.upgrade_page(&mut mem, 0).unwrap(),
            ProtectionMode::Upgraded
        );
        assert_eq!(mem.page_table().upgraded2_pages(), 0);
    }

    #[test]
    fn second_level_enabled_on_four_channels() {
        let mut mem = FunctionalMemory::with_channels(1, 4);
        for l in 0..64 {
            mem.write_line(l, &[l as u8; 64]).unwrap();
        }
        let engine = UpgradeEngine {
            enable_second_level: true,
        };
        assert_eq!(
            engine.upgrade_page(&mut mem, 0).unwrap(),
            ProtectionMode::Upgraded
        );
        assert_eq!(
            engine.upgrade_page(&mut mem, 0).unwrap(),
            ProtectionMode::Upgraded2
        );
        for l in 0..64 {
            let (data, _) = mem.read_line(l).unwrap();
            assert_eq!(data, vec![l as u8; 64]);
        }
    }

    #[test]
    fn uncorrectable_line_mid_upgrade_surfaces_as_failed_page() {
        // Two dead devices in the same 18-device relaxed span put two bad
        // symbols into every even line's codeword — beyond the relaxed
        // correct-1 guarantee — so the read-out half of the conversion
        // raises a DUE and the page lands in `failed_pages`, not in
        // `pages_upgraded`. The data is lost; the report must say so.
        let mut mem = filled(2);
        mem.inject_fault(InjectedFault::stuck_everywhere(3, 0xFF));
        mem.inject_fault(InjectedFault::stuck_everywhere(7, 0x00));
        let engine = UpgradeEngine::new();
        let scrubber = Scrubber::new(ScrubStrategy::TestPattern);
        let (outcome, report) = engine.scrub_and_upgrade(&mut mem, &scrubber);
        assert_eq!(outcome.pages_with_errors, vec![0, 1]);
        assert_eq!(report.failed_pages, vec![0, 1]);
        assert!(report.pages_upgraded.is_empty());
        assert!(report.pages_saturated.is_empty());
        // The failed pages keep their (still unreadable) relaxed mode —
        // the engine must not advance the page table past lost data.
        assert_eq!(mem.page_table().mode(0), ProtectionMode::Relaxed);
        assert_eq!(mem.page_table().mode(1), ProtectionMode::Relaxed);
        assert!(mem.read_line(0).is_err(), "even lines stay uncorrectable");
    }

    #[test]
    fn failed_pages_do_not_block_healthy_upgrades() {
        // One uncorrectable page and one single-device page in the same
        // scrub round: the engine must upgrade the latter while reporting
        // the former, so a fleet-wide DUE never stalls the upgrade queue.
        let mut mem = filled(2);
        // Page 0: double fault in the channel-0 span (uncorrectable).
        mem.inject_fault(InjectedFault {
            device: 2,
            first_page: 0,
            last_page: 1,
            behavior: crate::image::FaultBehavior::Stuck(0xAA),
            transient: false,
        });
        mem.inject_fault(InjectedFault {
            device: 9,
            first_page: 0,
            last_page: 1,
            behavior: crate::image::FaultBehavior::Stuck(0x55),
            transient: false,
        });
        // Page 1: a lone stuck device (correctable, upgradeable).
        mem.inject_fault(InjectedFault {
            device: 12,
            first_page: 1,
            last_page: 2,
            behavior: crate::image::FaultBehavior::Stuck(0x00),
            transient: false,
        });
        let engine = UpgradeEngine::new();
        let scrubber = Scrubber::new(ScrubStrategy::TestPattern);
        let (outcome, report) = engine.scrub_and_upgrade(&mut mem, &scrubber);
        assert_eq!(outcome.pages_with_errors, vec![0, 1]);
        assert_eq!(report.failed_pages, vec![0]);
        assert_eq!(report.pages_upgraded, vec![1]);
        assert_eq!(mem.page_table().mode(1), ProtectionMode::Upgraded);
        // The upgraded page reads back intact through its fault.
        for l in 64..128 {
            let (data, _) = mem.read_line(l).unwrap();
            let expect: Vec<u8> = (0..64).map(|i| (l as u8) ^ (i as u8)).collect();
            assert_eq!(data, expect, "line {l}");
        }
    }

    #[test]
    fn repeated_scrubs_converge() {
        let mut mem = filled(2);
        mem.inject_fault(InjectedFault::stuck_everywhere(5, 0x00));
        let engine = UpgradeEngine::new();
        let scrubber = Scrubber::default();
        let (_, r1) = engine.scrub_and_upgrade(&mut mem, &scrubber);
        assert_eq!(r1.pages_upgraded.len(), 2, "stuck device covers both pages");
        // Next round: pages already upgraded; fault still detected but no
        // further escalation under the base policy.
        let (o2, r2) = engine.scrub_and_upgrade(&mut mem, &scrubber);
        assert!(!o2.pages_with_errors.is_empty());
        assert!(r2.pages_upgraded.is_empty());
        assert_eq!(r2.pages_saturated.len(), o2.pages_with_errors.len());
    }
}
