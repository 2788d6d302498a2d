//! The chipkill scheme table: one static registry of every organisation
//! the workspace models, with uniform cost descriptors.
//!
//! ARCC is not a code of its own but an optimisation layered over existing
//! chipkill organisations (Chapter 5), so one table feeds Table 7.1, the
//! scheme-zoo scenarios and every fleet population's SDC capability. Each
//! [`SchemeEntry`] holds the descriptor of the organisation fault-free
//! pages run in, the upgraded one for adaptive schemes, and the
//! [`codec_registry`](arcc_gf::codec::codec_registry) names of the codecs
//! that implement them. [`PAPER_SCHEMES`] lists Table 7.1's rows.

use arcc_gf::chipkill::LineCodec;

pub use arcc_gf::codec::Guarantees;

/// Static cost/capability descriptor of one chipkill organisation.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeDescriptor {
    /// Scheme name.
    pub name: &'static str,
    /// Devices per rank (devices driven per fault-free access).
    pub rank_size: u32,
    /// Check symbols per codeword.
    pub check_symbols: u32,
    /// ECC storage overhead (checks / data).
    pub storage_overhead: f64,
    /// Device accesses per fault-free read, as a multiple of one rank
    /// access (LOT-ECC-18 needs 2: data line + checksum line).
    pub reads_per_read: f64,
    /// Device accesses per write, as a multiple of one rank access
    /// (LOT-ECC needs ~1.8: 80 % of writes also update checksum lines;
    /// VECC needs up to 2 when the virtualized checks miss in the LLC).
    pub writes_per_write: f64,
    /// Error-handling guarantees.
    pub guarantees: Guarantees,
}

impl SchemeDescriptor {
    /// Relative fault-free dynamic memory energy per read against a
    /// 36-device single-access baseline (= rank_size * reads_per_read / 36).
    pub fn relative_read_cost(&self) -> f64 {
        self.rank_size as f64 * self.reads_per_read / 36.0
    }

    /// Relative fault-free dynamic memory energy per write against the
    /// same baseline.
    pub fn relative_write_cost(&self) -> f64 {
        self.rank_size as f64 * self.writes_per_write / 36.0
    }
}

/// 9-device SECDED ECC-DIMM (the non-chipkill reference point).
const SECDED: SchemeDescriptor = SchemeDescriptor {
    name: "SECDED (x8 ECC DIMM)",
    rank_size: 9,
    check_symbols: 1,
    storage_overhead: 0.125,
    reads_per_read: 1.0,
    writes_per_write: 1.0,
    guarantees: Guarantees {
        correct: 0, // corrects single bits, not symbols
        detect: 1,
        sequential_correct: 0,
    },
};

/// Commercial single-chipkill-correct / double-chipkill-detect: 36
/// devices, 4 check symbols, corrects 1 / detects 2 bad symbols.
const SCCDCD: SchemeDescriptor = SchemeDescriptor {
    name: "Commercial SCCDCD",
    rank_size: 36,
    check_symbols: 4,
    storage_overhead: 0.125,
    reads_per_read: 1.0,
    writes_per_write: 1.0,
    guarantees: Guarantees {
        correct: 1,
        detect: 2,
        sequential_correct: 0,
    },
};

/// Commercial double chip sparing: 36 devices, 4 check symbols of which
/// one acts as a spare; corrects a 2nd bad symbol if the 1st was detected
/// first.
const DOUBLE_CHIP_SPARING: SchemeDescriptor = SchemeDescriptor {
    name: "Double chip sparing",
    guarantees: Guarantees {
        correct: 1,
        detect: 2,
        sequential_correct: 1,
    },
    ..SCCDCD
};

/// The weak 18-device code ARCC starts pages in: 2 check symbols,
/// correct-1 (which forfeits the detection guarantee for a 2nd bad
/// symbol).
const RELAXED_CK2: SchemeDescriptor = SchemeDescriptor {
    name: "Relaxed chipkill (2 checks)",
    rank_size: 18,
    check_symbols: 2,
    storage_overhead: 0.125,
    reads_per_read: 1.0,
    writes_per_write: 1.0,
    guarantees: Guarantees {
        correct: 1,
        detect: 1,
        sequential_correct: 0,
    },
};

/// VECC (ASPLOS'10): 18-device rank, in-rank detect-2, correction symbols
/// virtualised into data space of another rank.
const VECC: SchemeDescriptor = SchemeDescriptor {
    name: "VECC",
    rank_size: 18,
    check_symbols: 4, // 2 in-rank + 2 virtualised
    storage_overhead: 0.1875,
    reads_per_read: 1.0, // error-free reads touch one rank
    // Writes update virtualised checks; LLC caching absorbs some (paper:
    // 36 device-accesses when they miss).
    writes_per_write: 1.5,
    guarantees: Guarantees {
        correct: 1,
        detect: 2,
        sequential_correct: 0,
    },
};

/// LOT-ECC (ISCA'12), 9-device rank: per-device checksums for
/// detection/localisation + cross-device XOR for reconstruction.
const LOT_ECC_9: SchemeDescriptor = SchemeDescriptor {
    name: "LOT-ECC (9 devices)",
    rank_size: 9,
    check_symbols: 1, // XOR parity device; checksums in-data
    storage_overhead: 0.265,
    reads_per_read: 1.0,
    // ~80 % of writes need an additional checksum-line write.
    writes_per_write: 1.8,
    guarantees: Guarantees {
        correct: 1,
        detect: 1, // checksum detection, weaker guarantee
        sequential_correct: 0,
    },
};

/// The paper's 18-device LOT-ECC extension (§5.2) providing double chip
/// sparing: 16 data + parity + spare, checksums in a separate line.
const LOT_ECC_18: SchemeDescriptor = SchemeDescriptor {
    name: "LOT-ECC (18 devices, double chip sparing)",
    rank_size: 18,
    check_symbols: 2, // parity device + spare device
    storage_overhead: 0.265,
    // Checksums live in a different line: extra read per read.
    reads_per_read: 2.0,
    writes_per_write: 2.0,
    guarantees: Guarantees {
        correct: 1,
        detect: 1,
        sequential_correct: 1,
    },
};

/// Table 7.1's organisations, as registry keys in the order the paper
/// introduces them.
pub const PAPER_SCHEMES: [&str; 7] = [
    "secded",
    "sccdcd",
    "double-chip-sparing",
    "relaxed-ck2",
    "vecc",
    "lot-ecc-9",
    "lot-ecc-18",
];

/// The ARCC optimisation applied over a base organisation: relaxed codec
/// for fault-free pages, upgraded codec (joined codewords) for faulty ones.
#[derive(Debug, Clone)]
pub struct ArccScheme {
    relaxed: LineCodec,
    upgraded: LineCodec,
    upgraded2: LineCodec,
}

impl ArccScheme {
    /// ARCC applied to commercial chipkill (the paper's evaluation):
    /// relaxed RS(18,16) x4 codewords per 64 B line, upgraded RS(36,32) x4
    /// per 128 B line, and the second-level RS(72,64) across four channels
    /// (§5.1).
    pub fn commercial() -> Self {
        Self {
            relaxed: LineCodec::relaxed_x8(),
            upgraded: LineCodec::upgraded_two_channel(),
            upgraded2: LineCodec::upgraded_four_channel(),
        }
    }

    /// The relaxed-mode codec.
    pub fn relaxed(&self) -> &LineCodec {
        &self.relaxed
    }

    /// The upgraded-mode codec.
    pub fn upgraded(&self) -> &LineCodec {
        &self.upgraded
    }

    /// The second-level upgraded codec.
    pub fn upgraded2(&self) -> &LineCodec {
        &self.upgraded2
    }

    /// Devices driven by a fault-free (relaxed) access.
    pub fn relaxed_devices(&self) -> u32 {
        self.relaxed.devices() as u32
    }

    /// Devices driven by an upgraded access.
    pub fn upgraded_devices(&self) -> u32 {
        self.upgraded.devices() as u32
    }

    /// Check symbols per codeword in each mode — the paper's headline
    /// "2 → 4 without storage growth".
    pub fn check_symbols(&self) -> (u32, u32) {
        (
            self.relaxed.check_symbols() as u32,
            self.upgraded.check_symbols() as u32,
        )
    }

    /// Storage overhead, which must be identical across modes (the whole
    /// point of codeword joining).
    pub fn storage_overhead(&self) -> f64 {
        self.relaxed.storage_overhead()
    }
}

impl Default for ArccScheme {
    fn default() -> Self {
        Self::commercial()
    }
}

/// One entry of the scheme table: a stable key, the descriptor of the
/// organisation fault-free pages run in, the optional upgraded
/// organisation (present exactly for adaptive schemes like ARCC), and —
/// where `arcc-gf` has them — the names of the [`Codec`] implementations
/// backing the descriptors, resolvable with [`find_codec`].
///
/// Fleet populations, SDC capability models and scenario sweeps all key
/// off [`SchemeEntry::key`].
///
/// [`Codec`]: arcc_gf::codec::Codec
/// [`find_codec`]: arcc_gf::codec::find_codec
pub struct SchemeEntry {
    /// Stable registry key (`"arcc"`, `"s8sc"`, ...), used by fleet specs
    /// and scenario names; never rename one once a checkpoint refers to it.
    pub key: &'static str,
    /// The organisation fault-free pages run in.
    pub relaxed: SchemeDescriptor,
    /// The organisation faulty pages escalate to; `None` for static
    /// (non-adaptive) schemes.
    pub upgraded: Option<SchemeDescriptor>,
    /// Codec-registry name of the functional relaxed-mode codec, when one
    /// exists in `arcc-gf`.
    pub codec: Option<&'static str>,
    /// Codec-registry name of the functional upgraded-mode codec, when one
    /// exists.
    pub upgraded_codec: Option<&'static str>,
}

impl SchemeEntry {
    /// True for schemes that escalate faulty pages to a stronger mode —
    /// exactly those whose power draw depends on the fault population.
    pub fn adaptive(&self) -> bool {
        self.upgraded.is_some()
    }

    /// Descriptor-level detection guarantee of the strongest mode.
    pub fn strongest_detect(&self) -> u32 {
        self.upgraded
            .as_ref()
            .map_or(self.relaxed.guarantees.detect, |u| u.guarantees.detect)
    }
}

/// A static (non-adaptive) entry.
const fn fixed(
    key: &'static str,
    relaxed: SchemeDescriptor,
    codec: Option<&'static str>,
) -> SchemeEntry {
    SchemeEntry {
        key,
        relaxed,
        upgraded: None,
        codec,
        upgraded_codec: None,
    }
}

const REGISTRY: &[SchemeEntry] = &[
    SchemeEntry {
        key: "arcc",
        relaxed: RELAXED_CK2,
        upgraded: Some(SCCDCD),
        codec: Some("arcc-relaxed"),
        upgraded_codec: Some("arcc-upgraded"),
    },
    fixed("sccdcd", SCCDCD, Some("sccdcd")),
    fixed("relaxed-ck2", RELAXED_CK2, Some("arcc-relaxed")),
    fixed("double-chip-sparing", DOUBLE_CHIP_SPARING, None),
    fixed("secded", SECDED, None),
    fixed("vecc", VECC, None),
    fixed("lot-ecc-9", LOT_ECC_9, None),
    fixed("lot-ecc-18", LOT_ECC_18, None),
    // The relaxed RS(18,16) organisation under AMD's one-chip policy.
    fixed(
        "s8sc",
        SchemeDescriptor {
            name: "AMD-style chipkill S8SC",
            ..RELAXED_CK2
        },
        Some("s8sc"),
    ),
    fixed(
        "qpc",
        SchemeDescriptor {
            name: "QPC quad-pin correction",
            rank_size: 18,
            check_symbols: 8, // one RS(72,64) codeword per line
            storage_overhead: 0.125,
            reads_per_read: 1.0,
            writes_per_write: 1.0,
            guarantees: Guarantees {
                correct: 1,
                detect: 1,
                sequential_correct: 0,
            },
        },
        Some("qpc"),
    ),
    fixed(
        "multi-ecc",
        SchemeDescriptor {
            name: "MultiECC checksum + parity",
            rank_size: 9,
            check_symbols: 1, // XOR parity device; checksums in-line
            storage_overhead: 17.0 / 64.0,
            reads_per_read: 1.0,
            writes_per_write: 1.0, // checksums live in the same line
            guarantees: Guarantees {
                correct: 0, // trial decode is probabilistic
                detect: 1,
                sequential_correct: 0,
            },
        },
        Some("multi-ecc"),
    ),
    fixed(
        "two-tier-secded",
        SchemeDescriptor {
            name: "Two-tier on-die SECDED + rank RS",
            rank_size: 18,
            check_symbols: 2, // rank-level; on-die checks are per-device
            storage_overhead: 26.0 / 64.0,
            reads_per_read: 1.0,
            writes_per_write: 1.0,
            guarantees: Guarantees {
                correct: 1,
                detect: 1,
                sequential_correct: 1,
            },
        },
        Some("two-tier-secded"),
    ),
];

/// The scheme table, in registry order: the ARCC entry, the paper's
/// organisations, then the codec-backed competitor zoo (`s8sc`, `qpc`,
/// `multi-ecc`, `two-tier-secded`).
pub fn scheme_registry() -> &'static [SchemeEntry] {
    REGISTRY
}

/// Looks up a registry entry by key.
pub fn find_scheme(key: &str) -> Option<&'static SchemeEntry> {
    REGISTRY.iter().find(|e| e.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_gf::codec::find_codec;

    #[test]
    fn descriptor_table_matches_chapter_2() {
        assert_eq!(SCCDCD.rank_size, 36);
        assert_eq!(SCCDCD.check_symbols, 4);
        assert_eq!(SCCDCD.guarantees.detect, 2);
        assert_eq!(SCCDCD.storage_overhead, 0.125);

        assert_eq!(RELAXED_CK2.rank_size, 18);
        assert_eq!(RELAXED_CK2.guarantees.detect, 1);

        assert_eq!(DOUBLE_CHIP_SPARING.guarantees.sequential_correct, 1);

        assert!((LOT_ECC_9.storage_overhead - 0.265).abs() < 1e-12);
        const { assert!(LOT_ECC_9.writes_per_write > 1.5, "80% extra writes") };

        assert_eq!(
            LOT_ECC_18.reads_per_read, 2.0,
            "checksum line read per read"
        );
        assert_eq!(LOT_ECC_18.guarantees.sequential_correct, 1);
    }

    #[test]
    fn arcc_applications_match_chapter_5() {
        // Commercial chipkill (§4): relaxed pages join into the SCCDCD
        // codeword at half the fault-free read cost and the same storage.
        let arcc = find_scheme("arcc").unwrap();
        let (relaxed, upgraded) = (&arcc.relaxed, arcc.upgraded.as_ref().unwrap());
        assert_eq!((relaxed, upgraded), (&RELAXED_CK2, &SCCDCD));
        assert_eq!(
            relaxed.relative_read_cost() / upgraded.relative_read_cost(),
            0.5
        );
        assert_eq!(relaxed.storage_overhead, upgraded.storage_overhead);
        // LOT-ECC (§5.2): 9 devices upgrade to 18 at the same storage
        // overhead; §7.2.1: an upgraded access costs 4x a relaxed one.
        assert_eq!(
            LOT_ECC_18.relative_read_cost(),
            4.0 * LOT_ECC_9.relative_read_cost()
        );
        assert_eq!(LOT_ECC_9.storage_overhead, LOT_ECC_18.storage_overhead);
    }

    #[test]
    fn relative_costs_rank_correctly() {
        // Fault-free read cost: SECDED=LOT9 < relaxed=VECC < SCCDCD=DCS=LOT18.
        assert!(SECDED.relative_read_cost() < RELAXED_CK2.relative_read_cost());
        assert_eq!(RELAXED_CK2.relative_read_cost(), 0.5);
        assert_eq!(SCCDCD.relative_read_cost(), 1.0);
        assert_eq!(LOT_ECC_18.relative_read_cost(), 1.0);
        assert!(LOT_ECC_9.relative_read_cost() < RELAXED_CK2.relative_read_cost());
    }

    #[test]
    fn arcc_scheme_preserves_storage_overhead() {
        let arcc = ArccScheme::commercial();
        assert_eq!(arcc.check_symbols(), (2, 4));
        assert_eq!(arcc.relaxed_devices(), 18);
        assert_eq!(arcc.upgraded_devices(), 36);
        assert!((arcc.storage_overhead() - arcc.upgraded().storage_overhead()).abs() < 1e-12);
        assert!((arcc.storage_overhead() - 0.125).abs() < 1e-12);
        let up2 = arcc.upgraded2();
        assert_eq!(up2.check_symbols(), 8);
        assert!((up2.storage_overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn all_schemes_have_unique_names() {
        let names: Vec<_> = PAPER_SCHEMES
            .iter()
            .filter_map(|key| find_scheme(key))
            .map(|entry| entry.relaxed.name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(name), "duplicate {name}");
        }
    }

    #[test]
    fn registry_keys_are_unique_and_resolvable() {
        let keys: Vec<&str> = scheme_registry().iter().map(|e| e.key).collect();
        for (i, k) in keys.iter().enumerate() {
            assert!(!keys[i + 1..].contains(k), "duplicate key {k}");
            assert!(find_scheme(k).is_some());
        }
        assert!(find_scheme("no-such-scheme").is_none());
        assert!(keys.len() >= 12, "paper schemes + the zoo");
    }

    #[test]
    fn registry_covers_paper_schemes_and_the_zoo() {
        // Every Table 7.1 key resolves, and the zoo's codec-backed
        // competitors are all present.
        for key in PAPER_SCHEMES {
            assert!(
                find_scheme(key).is_some(),
                "{key} missing from the registry"
            );
        }
        for key in ["s8sc", "qpc", "multi-ecc", "two-tier-secded"] {
            let entry = find_scheme(key).unwrap();
            assert!(entry.codec.is_some(), "{key} must be codec-backed");
            assert!(!entry.adaptive(), "{key} is a static scheme");
        }
    }

    #[test]
    fn only_arcc_is_adaptive_and_its_modes_match_the_paper() {
        let adaptive: Vec<_> = scheme_registry().iter().filter(|e| e.adaptive()).collect();
        assert_eq!(adaptive.len(), 1);
        let arcc = adaptive[0];
        assert_eq!(arcc.key, "arcc");
        assert_eq!(arcc.relaxed.rank_size, 18);
        assert_eq!(arcc.upgraded.as_ref().unwrap().rank_size, 36);
        assert_eq!(arcc.strongest_detect(), 2);
        assert_eq!(find_scheme("s8sc").unwrap().strongest_detect(), 1);
    }

    #[test]
    fn codec_backed_entries_agree_with_their_codecs() {
        // The descriptor is the analytic summary of the codec: guarantees,
        // rank size and storage overhead must agree wherever both exist.
        for entry in scheme_registry() {
            for (descriptor, name) in [
                (Some(&entry.relaxed), entry.codec),
                (entry.upgraded.as_ref(), entry.upgraded_codec),
            ] {
                let (Some(descriptor), Some(name)) = (descriptor, name) else {
                    continue;
                };
                let codec = find_codec(name)
                    .unwrap_or_else(|| panic!("{}: no codec named {name:?}", entry.key));
                assert_eq!(
                    codec.guarantees(),
                    descriptor.guarantees,
                    "{}: guarantees drifted from the codec",
                    entry.key
                );
                assert_eq!(
                    codec.devices() as u32,
                    descriptor.rank_size,
                    "{}: rank size drifted",
                    entry.key
                );
                assert!(
                    (codec.storage_overhead() - descriptor.storage_overhead).abs() < 1e-12,
                    "{}: storage overhead drifted",
                    entry.key
                );
            }
        }
    }
}
