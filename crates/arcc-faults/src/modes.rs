//! Fault modes and field-measured rates.

use std::fmt;

/// Device-level DRAM fault modes, following the taxonomy of the SC'12 field
/// study the paper draws its rates from (lane, device, bank, column, row,
/// word, bit — §6 and Table 7.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// One bit sticks or flips.
    SingleBit,
    /// One word (one device access) is bad.
    SingleWord,
    /// One column through all rows of one bank of one device.
    SingleColumn,
    /// One row across one bank of one device.
    SingleRow,
    /// An entire bank of one device ("subbank fault" in Table 7.4: one of
    /// the 8 banks in a single rank).
    SingleBank,
    /// Multiple banks — effectively the whole device ("device fault" in
    /// Table 7.4).
    MultiBank,
    /// Multi-rank/lane fault: shared data-lane circuitry takes out the same
    /// device position in every rank of the channel ("lane fault").
    MultiRank,
}

impl FaultMode {
    /// All modes, in increasing blast-radius order. Each mode's index
    /// here is its discriminant, so `mode as usize` indexes per-mode
    /// tables and fingerprints.
    pub const ALL: [FaultMode; 7] = [
        FaultMode::SingleBit,
        FaultMode::SingleWord,
        FaultMode::SingleColumn,
        FaultMode::SingleRow,
        FaultMode::SingleBank,
        FaultMode::MultiBank,
        FaultMode::MultiRank,
    ];

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultMode::SingleBit => "single-bit",
            FaultMode::SingleWord => "single-word",
            FaultMode::SingleColumn => "single-column",
            FaultMode::SingleRow => "single-row",
            FaultMode::SingleBank => "single-bank",
            FaultMode::MultiBank => "device (multi-bank)",
            FaultMode::MultiRank => "lane (multi-rank)",
        }
    }

    /// Fraction of occurrences that are transient (cleared by the next
    /// scrub's corrected write-back) rather than permanent. Small-scope
    /// faults are roughly half transient in the field; large-scope faults
    /// are overwhelmingly permanent hardware damage.
    pub fn transient_fraction(&self) -> f64 {
        match self {
            FaultMode::SingleBit => 0.5,
            FaultMode::SingleWord => 0.5,
            FaultMode::SingleColumn => 0.15,
            FaultMode::SingleRow => 0.15,
            FaultMode::SingleBank => 0.2,
            FaultMode::MultiBank => 0.1,
            FaultMode::MultiRank => 0.1,
        }
    }
}

impl fmt::Display for FaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-device fault rates in FIT (failures per 10^9 device-hours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitRates {
    /// Single-bit faults.
    pub single_bit: f64,
    /// Single-word faults.
    pub single_word: f64,
    /// Single-column faults.
    pub single_column: f64,
    /// Single-row faults.
    pub single_row: f64,
    /// Single-bank faults.
    pub single_bank: f64,
    /// Multi-bank (device) faults.
    pub multi_bank: f64,
    /// Multi-rank (lane) faults.
    pub multi_rank: f64,
}

impl FitRates {
    /// DDR2 per-device rates from the Sridharan & Liberty SC'12 field study
    /// of ~160 000 DIMMs — the study the paper's every reliability figure is
    /// driven by.
    pub fn sridharan_sc12() -> Self {
        Self {
            single_bit: 29.8,
            single_word: 0.5,
            single_column: 5.9,
            single_row: 8.4,
            single_bank: 10.0,
            multi_bank: 1.4,
            multi_rank: 2.8,
        }
    }

    /// Scales every rate by `factor` (the paper evaluates 1x, 2x, and 4x).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            single_bit: self.single_bit * factor,
            single_word: self.single_word * factor,
            single_column: self.single_column * factor,
            single_row: self.single_row * factor,
            single_bank: self.single_bank * factor,
            multi_bank: self.multi_bank * factor,
            multi_rank: self.multi_rank * factor,
        }
    }

    /// Scales only the large multi-row modes (single-bank, multi-bank,
    /// multi-rank) by `factor`, leaving the small modes untouched — the
    /// fault-mix axis of the scheme-sweep scenarios. Large faults are
    /// what stresses sequential-correct and multi-detect guarantees, so
    /// sweeping this factor separates schemes the uniform `scaled` knob
    /// cannot.
    pub fn scaled_large(&self, factor: f64) -> Self {
        Self {
            single_bank: self.single_bank * factor,
            multi_bank: self.multi_bank * factor,
            multi_rank: self.multi_rank * factor,
            ..*self
        }
    }

    /// Rate for one mode, in FIT.
    pub fn fit(&self, mode: FaultMode) -> f64 {
        match mode {
            FaultMode::SingleBit => self.single_bit,
            FaultMode::SingleWord => self.single_word,
            FaultMode::SingleColumn => self.single_column,
            FaultMode::SingleRow => self.single_row,
            FaultMode::SingleBank => self.single_bank,
            FaultMode::MultiBank => self.multi_bank,
            FaultMode::MultiRank => self.multi_rank,
        }
    }

    /// Rate for one mode, in faults per device-hour.
    pub fn per_hour(&self, mode: FaultMode) -> f64 {
        self.fit(mode) * 1e-9
    }

    /// Sum over all modes, in FIT.
    pub fn total_fit(&self) -> f64 {
        FaultMode::ALL.iter().map(|&m| self.fit(m)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc12_total_matches_study() {
        // The study reports ~58.8 FIT/device total for DDR2.
        let total = FitRates::sridharan_sc12().total_fit();
        assert!((total - 58.8).abs() < 0.01, "total {total}");
    }

    #[test]
    fn scaled_large_touches_only_multi_row_modes() {
        let base = FitRates::sridharan_sc12();
        let heavy = base.scaled_large(3.0);
        for mode in [
            FaultMode::SingleBit,
            FaultMode::SingleWord,
            FaultMode::SingleColumn,
            FaultMode::SingleRow,
        ] {
            assert_eq!(heavy.fit(mode), base.fit(mode), "{mode:?} must not move");
        }
        for mode in [
            FaultMode::SingleBank,
            FaultMode::MultiBank,
            FaultMode::MultiRank,
        ] {
            assert_eq!(heavy.fit(mode), base.fit(mode) * 3.0, "{mode:?}");
        }
        assert_eq!(base.scaled_large(1.0), base);
    }

    #[test]
    fn scaling_is_linear() {
        let r = FitRates::sridharan_sc12();
        let r4 = r.scaled(4.0);
        for m in FaultMode::ALL {
            assert!((r4.fit(m) - 4.0 * r.fit(m)).abs() < 1e-12);
        }
        assert!((r4.total_fit() - 4.0 * r.total_fit()).abs() < 1e-9);
    }

    #[test]
    fn per_hour_conversion() {
        let r = FitRates::sridharan_sc12();
        assert!((r.per_hour(FaultMode::SingleBit) - 29.8e-9).abs() < 1e-18);
    }

    #[test]
    fn transient_fractions_bounded() {
        for m in FaultMode::ALL {
            let f = m.transient_fraction();
            assert!((0.0..=1.0).contains(&f));
        }
        // Big faults must be mostly permanent.
        assert!(FaultMode::MultiRank.transient_fraction() < 0.5);
    }

    #[test]
    fn mode_discriminants_index_all() {
        // Per-mode tables, the log writer and the replay fingerprint all
        // index by `mode as usize`.
        for (i, mode) in FaultMode::ALL.iter().enumerate() {
            assert_eq!(*mode as usize, i);
        }
    }

    #[test]
    fn mode_names_unique() {
        use std::collections::HashSet;
        let names: HashSet<_> = FaultMode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), FaultMode::ALL.len());
        assert_eq!(format!("{}", FaultMode::MultiRank), "lane (multi-rank)");
    }
}
