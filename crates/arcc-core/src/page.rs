//! The page table and TLB mode bits of §4.2.1.
//!
//! Each physical page carries a protection-mode flag (1 bit in the paper's
//! base design; 2 bits here to host the §5.1 second upgrade level). The
//! flag is consulted on every LLC miss to decide the fetch span, and
//! updated only at scrub boundaries.

use std::fmt;

/// Protection strength of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ProtectionMode {
    /// 2 check symbols per codeword, 64 B lines on one channel.
    #[default]
    Relaxed,
    /// 4 check symbols, 128 B joined lines across two channels.
    Upgraded,
    /// 8 check symbols, 256 B joined lines across four channels (§5.1).
    Upgraded2,
}

impl ProtectionMode {
    /// Check symbols per codeword in this mode.
    pub fn check_symbols(&self) -> u32 {
        match self {
            ProtectionMode::Relaxed => 2,
            ProtectionMode::Upgraded => 4,
            ProtectionMode::Upgraded2 => 8,
        }
    }

    /// The next stronger mode, if any.
    pub fn next(&self) -> Option<ProtectionMode> {
        match self {
            ProtectionMode::Relaxed => Some(ProtectionMode::Upgraded),
            ProtectionMode::Upgraded => Some(ProtectionMode::Upgraded2),
            ProtectionMode::Upgraded2 => None,
        }
    }
}

impl fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionMode::Relaxed => f.write_str("relaxed"),
            ProtectionMode::Upgraded => f.write_str("upgraded"),
            ProtectionMode::Upgraded2 => f.write_str("upgraded-2"),
        }
    }
}

/// Page table with per-page protection modes.
#[derive(Debug, Clone)]
pub struct PageTable {
    modes: Vec<ProtectionMode>,
    upgraded_count: u64,
    upgraded2_count: u64,
}

impl PageTable {
    /// Creates a table of `pages` pages, all in the given initial mode.
    pub fn new(pages: u64, initial: ProtectionMode) -> Self {
        let upgraded_count = if initial == ProtectionMode::Upgraded {
            pages
        } else {
            0
        };
        let upgraded2_count = if initial == ProtectionMode::Upgraded2 {
            pages
        } else {
            0
        };
        Self {
            modes: vec![initial; pages as usize],
            upgraded_count,
            upgraded2_count,
        }
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.modes.len() as u64
    }

    /// Mode of page `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn mode(&self, p: u64) -> ProtectionMode {
        self.modes[p as usize]
    }

    /// Sets the mode of page `p`, maintaining counters.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_mode(&mut self, p: u64, mode: ProtectionMode) {
        let old = self.modes[p as usize];
        if old == mode {
            return;
        }
        match old {
            ProtectionMode::Upgraded => self.upgraded_count -= 1,
            ProtectionMode::Upgraded2 => self.upgraded2_count -= 1,
            ProtectionMode::Relaxed => {}
        }
        match mode {
            ProtectionMode::Upgraded => self.upgraded_count += 1,
            ProtectionMode::Upgraded2 => self.upgraded2_count += 1,
            ProtectionMode::Relaxed => {}
        }
        self.modes[p as usize] = mode;
    }

    /// Upgrades page `p` one level (the scrub-detection path). Returns the
    /// new mode; saturates at the strongest level.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn upgrade(&mut self, p: u64) -> ProtectionMode {
        let cur = self.mode(p);
        if let Some(next) = cur.next() {
            self.set_mode(p, next);
            next
        } else {
            cur
        }
    }

    /// Pages currently in [`ProtectionMode::Upgraded2`].
    pub fn upgraded2_pages(&self) -> u64 {
        self.upgraded2_count
    }

    /// Fraction of pages above relaxed mode.
    pub fn upgraded_fraction(&self) -> f64 {
        (self.upgraded_count + self.upgraded2_count) as f64 / self.modes.len().max(1) as f64
    }

    /// Iterates over `(page, mode)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ProtectionMode)> + '_ {
        self.modes.iter().enumerate().map(|(i, &m)| (i as u64, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_relaxed() {
        let t = PageTable::new(100, ProtectionMode::Relaxed);
        assert_eq!(t.pages(), 100);
        assert_eq!(t.upgraded_fraction(), 0.0);
        assert_eq!(t.mode(42), ProtectionMode::Relaxed);
    }

    #[test]
    fn upgrade_walks_levels_and_saturates() {
        let mut t = PageTable::new(4, ProtectionMode::Relaxed);
        assert_eq!(t.upgrade(1), ProtectionMode::Upgraded);
        assert_eq!(t.upgrade(1), ProtectionMode::Upgraded2);
        assert_eq!(t.upgrade(1), ProtectionMode::Upgraded2, "saturates");
        assert_eq!(t.upgraded2_pages(), 1);
        assert_eq!(t.upgraded_count, 0);
    }

    #[test]
    fn counters_track_set_mode() {
        let mut t = PageTable::new(8, ProtectionMode::Relaxed);
        t.set_mode(0, ProtectionMode::Upgraded);
        t.set_mode(1, ProtectionMode::Upgraded);
        t.set_mode(0, ProtectionMode::Relaxed); // downgrade (page release)
        assert_eq!(t.upgraded_count, 1);
        assert!((t.upgraded_fraction() - 0.125).abs() < 1e-12);
        // A redundant set counts nothing twice.
        t.set_mode(1, ProtectionMode::Upgraded);
        assert_eq!(t.upgraded_count, 1);
    }

    #[test]
    fn mode_properties() {
        assert_eq!(ProtectionMode::Relaxed.check_symbols(), 2);
        assert_eq!(ProtectionMode::Upgraded.check_symbols(), 4);
        assert_eq!(ProtectionMode::Upgraded2.check_symbols(), 8);
        assert_eq!(ProtectionMode::Upgraded2.next(), None);
        assert_eq!(format!("{}", ProtectionMode::Upgraded), "upgraded");
    }

    #[test]
    fn iter_yields_all_pages() {
        let mut t = PageTable::new(5, ProtectionMode::Relaxed);
        t.upgrade(2);
        let upgraded: Vec<u64> = t
            .iter()
            .filter(|(_, m)| *m == ProtectionMode::Upgraded)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(upgraded, vec![2]);
    }
}
