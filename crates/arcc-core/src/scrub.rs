//! Memory scrubbing (§4.2.2).
//!
//! A conventional scrubber reads every line, corrects what the ECC can
//! correct, and writes the corrected data back — which cures transient
//! faults but can leave *hidden* stuck-at faults undetected (a stuck-at-0
//! cell holding a 0 looks healthy). ARCC needs scrub-time detection to be
//! as complete as possible, because detection is what triggers page
//! upgrades; the paper therefore extends the scrubber with test-pattern
//! passes: write all-0s, read back; write all-1s, read back; then restore
//! the (corrected) original content.
//!
//! The cost model reproduces the paper's arithmetic: a 4 GB, 128-bit,
//! 667 MT/s channel takes 0.4 s per full-memory pass, the 6-pass ARCC
//! scrub takes 2.4 s, and at one scrub per 4 hours that is a 0.0167 %
//! bandwidth overhead.

use crate::image::{FunctionalMemory, LINES_PER_PAGE};

/// Scrubbing algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScrubStrategy {
    /// Read + correct + write back only.
    Conventional,
    /// ARCC's 6-pass scrub: read, write/read all-0s, write/read all-1s,
    /// write back corrected content. Detects hidden stuck-at faults.
    #[default]
    TestPattern,
}

impl ScrubStrategy {
    /// Full-memory passes this strategy performs.
    fn passes(&self) -> u32 {
        match self {
            ScrubStrategy::Conventional => 2, // read + write back
            ScrubStrategy::TestPattern => 6,  // §4.2.2 steps 1-4
        }
    }
}

/// Cost of scrubbing a memory channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubCost {
    /// Seconds per complete scrub of the channel.
    pub seconds_per_scrub: f64,
    /// Fraction of peak bandwidth consumed at the given scrub interval.
    pub bandwidth_overhead: f64,
}

impl ScrubCost {
    /// Computes the cost for a channel of `bytes` capacity and
    /// `width_bits` data width at `transfer_rate_hz` (e.g. 667e6 for
    /// DDR2-667), scrubbing every `interval_hours`.
    pub fn compute(
        strategy: ScrubStrategy,
        bytes: u64,
        width_bits: u32,
        transfer_rate_hz: f64,
        interval_hours: f64,
    ) -> Self {
        let one_pass = bytes as f64 * 8.0 / width_bits as f64 / transfer_rate_hz;
        let seconds = one_pass * strategy.passes() as f64;
        Self {
            seconds_per_scrub: seconds,
            bandwidth_overhead: seconds / (interval_hours * 3600.0),
        }
    }
}

/// Result of one scrub pass over a functional memory image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Pages in which any error (live or hidden) was detected, ascending.
    pub pages_with_errors: Vec<u64>,
    /// Lines whose content needed ECC correction.
    pub corrected_lines: u64,
    /// Lines that were detected-uncorrectable during the scrub read.
    pub due_lines: u64,
    /// Faults found only by the test patterns (hidden stuck-ats) — always
    /// zero for the conventional strategy.
    pub hidden_faults_found: u64,
    /// Global device indices the ECC located errors in, ascending — the
    /// input to a double-chip-sparing policy.
    pub bad_devices: Vec<u32>,
    /// Pages containing at least one detected-uncorrectable line, ascending.
    pub due_pages: Vec<u64>,
}

impl ScrubOutcome {
    /// True when the scrub found nothing.
    pub fn is_clean(&self) -> bool {
        self.pages_with_errors.is_empty()
    }
}

/// The scrubber.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrubber {
    strategy: ScrubStrategy,
}

impl Scrubber {
    /// Creates a scrubber with the given strategy.
    pub fn new(strategy: ScrubStrategy) -> Self {
        Self { strategy }
    }

    /// Scrubs the whole image: detects (and via write-back cures transient)
    /// faults. Does **not** change page modes — that is the upgrade
    /// engine's job, applied "at the end of a memory scrub".
    pub fn scrub(&self, mem: &mut FunctionalMemory) -> ScrubOutcome {
        let mut out = ScrubOutcome::default();
        let mut flagged = vec![false; mem.pages() as usize];
        for line in 0..mem.lines() {
            let page = line / LINES_PER_PAGE;
            match mem.read_line(line) {
                Ok((data, ev)) => {
                    if let crate::image::ReadEvent::Corrected(devices) = ev {
                        out.corrected_lines += 1;
                        flagged[page as usize] = true;
                        for d in devices {
                            if !out.bad_devices.contains(&d) {
                                out.bad_devices.push(d);
                            }
                        }
                        // Write back corrected content (cures soft errors).
                        let _ = mem.write_line(line, &data);
                    }
                }
                Err(_) => {
                    out.due_lines += 1;
                    flagged[page as usize] = true;
                    if out.due_pages.last() != Some(&page) {
                        out.due_pages.push(page);
                    }
                }
            }
            if self.strategy == ScrubStrategy::TestPattern {
                let zeros_ok = mem.probe_line(line, 0x00);
                let ones_ok = mem.probe_line(line, 0xFF);
                if (!zeros_ok || !ones_ok) && !flagged[page as usize] {
                    out.hidden_faults_found += 1;
                    flagged[page as usize] = true;
                }
            }
        }
        // The corrected write-backs cure transient faults.
        mem.clear_transient_faults();
        out.bad_devices.sort_unstable();
        out.pages_with_errors = flagged
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(p, _)| p as u64)
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{FaultBehavior, InjectedFault};

    #[test]
    fn paper_cost_arithmetic() {
        // §4.2.2: 4 GB, 128-bit, 667 MT/s -> 0.4 s per pass; 6 passes ->
        // 2.4 s; / 4 h -> 0.0167 %.
        let one_pass_equiv =
            ScrubCost::compute(ScrubStrategy::Conventional, 4 << 30, 128, 667e6, 4.0);
        assert!((one_pass_equiv.seconds_per_scrub / 2.0 - 0.4027).abs() < 0.01);
        let arcc = ScrubCost::compute(ScrubStrategy::TestPattern, 4 << 30, 128, 667e6, 4.0);
        assert!(
            (arcc.seconds_per_scrub - 2.416).abs() < 0.05,
            "{}",
            arcc.seconds_per_scrub
        );
        assert!(
            (arcc.bandwidth_overhead - 0.000167).abs() < 0.00002,
            "{}",
            arcc.bandwidth_overhead
        );
    }

    #[test]
    fn clean_memory_scrubs_clean() {
        let mut mem = FunctionalMemory::new(2);
        let out = Scrubber::default().scrub(&mut mem);
        assert!(out.is_clean());
        assert_eq!(out.corrected_lines, 0);
        assert_eq!(out.hidden_faults_found, 0);
    }

    #[test]
    fn live_fault_detected_by_both_strategies() {
        for strategy in [ScrubStrategy::Conventional, ScrubStrategy::TestPattern] {
            let mut mem = FunctionalMemory::new(2);
            for l in 0..mem.lines() {
                mem.write_line(l, &[0x5Au8; 64]).unwrap();
            }
            mem.inject_fault(InjectedFault {
                device: 7,
                first_page: 1,
                last_page: 2,
                behavior: FaultBehavior::Flip(0x0F),
                transient: false,
            });
            let out = Scrubber::new(strategy).scrub(&mut mem);
            assert_eq!(out.pages_with_errors, vec![1], "{strategy:?}");
            assert!(out.corrected_lines > 0);
        }
    }

    #[test]
    fn hidden_stuck_fault_needs_test_pattern() {
        // Zero-filled memory + stuck-at-0 device: invisible to the
        // conventional scrub, caught by the ARCC scrub.
        let mk = || {
            let mut mem = FunctionalMemory::new(1);
            for l in 0..mem.lines() {
                mem.write_line(l, &[0u8; 64]).unwrap();
            }
            mem.inject_fault(InjectedFault::stuck_everywhere(4, 0x00));
            mem
        };
        let conv = Scrubber::new(ScrubStrategy::Conventional).scrub(&mut mk());
        assert!(conv.is_clean(), "conventional scrub misses hidden stuck-at");
        let tp = Scrubber::new(ScrubStrategy::TestPattern).scrub(&mut mk());
        assert_eq!(tp.pages_with_errors, vec![0]);
        assert!(tp.hidden_faults_found > 0);
    }

    #[test]
    fn transient_fault_cured_by_scrub() {
        let mut mem = FunctionalMemory::new(1);
        for l in 0..mem.lines() {
            mem.write_line(l, &[0x11u8; 64]).unwrap();
        }
        mem.inject_fault(InjectedFault {
            device: 3,
            first_page: 0,
            last_page: 1,
            behavior: FaultBehavior::Flip(0x40),
            transient: true,
        });
        let first = Scrubber::default().scrub(&mut mem);
        assert_eq!(first.pages_with_errors, vec![0]);
        let second = Scrubber::default().scrub(&mut mem);
        assert!(second.is_clean(), "transient fault should be gone");
    }

    #[test]
    fn strategy_pass_counts() {
        assert_eq!(ScrubStrategy::Conventional.passes(), 2);
        assert_eq!(ScrubStrategy::TestPattern.passes(), 6);
    }
}
