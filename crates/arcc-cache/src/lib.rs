//! Last-level cache models with ARCC's paired sub-line support.
//!
//! An upgraded 128 B ARCC line is two 64 B sub-lines with consecutive
//! physical addresses, which land in **adjacent sets** of a conventional
//! 64 B-line LLC. The paper (§4.2.3) proposes tagging each cached line with
//! an *upgraded* bit and, on eviction, locating the partner sub-line in the
//! adjacent set (same tag) so both are written back together — a write must
//! update all four check symbols of every codeword spanning the pair. To
//! keep a poorly-reused sub-line from evicting its partner prematurely, the
//! replacement policy uses the recency of the most recently used sub-line
//! for both.
//!
//! Two designs are provided, matching the paper's discussion:
//!
//! * [`PairedTagLlc`] — the paper's proposal (upgrade tag bit + second tag
//!   access during replacement, adjacent-set partner lookup);
//! * [`SectoredLlc`] — the classic sectored-cache alternative it argues
//!   against (128 B sectors with per-sub-line presence bits, which degrades
//!   effective capacity for low-locality workloads).
//!
//! ```
//! use arcc_cache::{CacheConfig, PairedTagLlc, CacheModel};
//!
//! let mut llc = PairedTagLlc::new(CacheConfig::paper_llc());
//! assert!(!llc.access(100, false));      // cold miss
//! llc.fill(100, /*upgraded=*/true, false); // 128 B fill: 100 and 101
//! assert!(llc.access(101, false));       // sibling was co-fetched: hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Geometry of the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (64 in the paper).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// The paper's LLC (Table 7.2): 1 MB, 16-way, 64 B lines.
    pub fn paper_llc() -> Self {
        Self {
            size_bytes: 1 << 20,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets for a conventional (one line per way) organisation.
    fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes as u64)
    }
}

/// A writeback emitted by an eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Even-aligned base line for upgraded pairs; the line itself otherwise.
    pub line: u64,
    /// True when this writeback covers a 128 B upgraded pair (both
    /// sub-lines written together to regenerate check symbols).
    pub upgraded: bool,
}

/// Hit/miss and traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines (or pairs) written back to memory.
    pub writebacks: u64,
    /// Writebacks that covered an upgraded pair.
    pub paired_writebacks: u64,
    /// Extra tag-array accesses performed during replacement to look up a
    /// partner sub-line's recency (the paper's noted overhead).
    pub second_tag_accesses: u64,
}

/// Common interface of the two LLC designs.
pub trait CacheModel {
    /// Looks up `line`; on a hit updates recency (and dirtiness for
    /// writes) and returns `true`.
    fn access(&mut self, line: u64, write: bool) -> bool;

    /// Non-mutating residency probe (no recency or counter updates).
    fn contains(&self, line: u64) -> bool;

    /// Inserts `line` after a miss. When `upgraded` is true the partner
    /// sub-line (`line ^ 1`) is inserted too (the 128 B fetch brings both).
    /// Returns the writebacks caused by evictions.
    fn fill(&mut self, line: u64, upgraded: bool, write: bool) -> Vec<Writeback>;

    /// Removes `line` (and, for an upgraded line, its partner), returning a
    /// writeback if dirty data was dropped. Used when a page changes mode.
    fn invalidate(&mut self, line: u64) -> Option<Writeback>;

    /// Counter snapshot.
    fn stats(&self) -> CacheStats;
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    dirty: bool,
    upgraded: bool,
    lru: u64,
}

/// The paper's proposed design: conventional 64 B lines plus an upgraded
/// tag bit, partner found in the adjacent set during replacement.
#[derive(Debug, Clone)]
pub struct PairedTagLlc {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    clock: u64,
    stats: CacheStats,
}

impl PairedTagLlc {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless the set count is a power of two and at least 2 (the
    /// paired design needs an adjacent set).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            sets.is_power_of_two() && sets >= 2,
            "need >= 2 power-of-two sets"
        );
        Self {
            config,
            sets: vec![vec![Way::default(); config.ways as usize]; sets as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, line: u64) -> usize {
        (line & (self.config.sets() - 1)) as usize
    }

    fn tag(&self, line: u64) -> u64 {
        line >> self.config.sets().trailing_zeros()
    }

    fn find(&self, line: u64) -> Option<usize> {
        let si = self.set_index(line);
        let tag = self.tag(line);
        self.sets[si].iter().position(|w| w.valid && w.tag == tag)
    }

    /// Recency of a way, taking the partner sub-line's recency into account
    /// for upgraded lines (recency of the most recently used sub-line
    /// counts for both).
    fn effective_recency(&mut self, si: usize, wi: usize) -> u64 {
        let w = self.sets[si][wi];
        if !w.upgraded {
            return w.lru;
        }
        // Partner is in the adjacent set (same tag, set index ^ 1).
        self.stats.second_tag_accesses += 1;
        let psi = si ^ 1;
        let partner = self.sets[psi]
            .iter()
            .find(|p| p.valid && p.upgraded && p.tag == w.tag)
            .map(|p| p.lru)
            .unwrap_or(0);
        w.lru.max(partner)
    }

    /// Selects a victim way in `si` honouring shared pair recency.
    fn victim(&mut self, si: usize) -> usize {
        if let Some(wi) = self.sets[si].iter().position(|w| !w.valid) {
            return wi;
        }
        let mut best = 0usize;
        let mut best_recency = u64::MAX;
        for wi in 0..self.sets[si].len() {
            let r = self.effective_recency(si, wi);
            if r < best_recency {
                best_recency = r;
                best = wi;
            }
        }
        best
    }

    /// Evicts the way, removing its partner too when upgraded; returns the
    /// writeback if anything dirty was dropped.
    fn evict(&mut self, si: usize, wi: usize) -> Option<Writeback> {
        let w = self.sets[si][wi];
        self.sets[si][wi] = Way::default();
        if !w.valid {
            return None;
        }
        if !w.upgraded {
            return if w.dirty {
                self.stats.writebacks += 1;
                // Reconstruct the line address: tag | set.
                let line = (w.tag << self.config.sets().trailing_zeros()) | si as u64;
                Some(Writeback {
                    line,
                    upgraded: false,
                })
            } else {
                None
            };
        }
        // Upgraded: pull the partner out of the adjacent set as well.
        let psi = si ^ 1;
        let mut pair_dirty = w.dirty;
        if let Some(pwi) = self.sets[psi]
            .iter()
            .position(|p| p.valid && p.upgraded && p.tag == w.tag)
        {
            pair_dirty |= self.sets[psi][pwi].dirty;
            self.sets[psi][pwi] = Way::default();
        }
        if pair_dirty {
            self.stats.writebacks += 1;
            self.stats.paired_writebacks += 1;
            let line = (w.tag << self.config.sets().trailing_zeros()) | si as u64;
            Some(Writeback {
                line: line & !1,
                upgraded: true,
            })
        } else {
            None
        }
    }

    fn insert_one(&mut self, line: u64, upgraded: bool, dirty: bool) -> Option<Writeback> {
        let si = self.set_index(line);
        if let Some(wi) = self.find(line) {
            // Already present (partner of an earlier fill): refresh.
            self.clock += 1;
            let w = &mut self.sets[si][wi];
            w.lru = self.clock;
            w.dirty |= dirty;
            w.upgraded = upgraded;
            return None;
        }
        let wi = self.victim(si);
        let wb = self.evict(si, wi);
        self.clock += 1;
        self.sets[si][wi] = Way {
            valid: true,
            tag: self.tag(line),
            dirty,
            upgraded,
            lru: self.clock,
        };
        wb
    }
}

impl CacheModel for PairedTagLlc {
    fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    fn access(&mut self, line: u64, write: bool) -> bool {
        if let Some(wi) = self.find(line) {
            let si = self.set_index(line);
            self.clock += 1;
            let w = &mut self.sets[si][wi];
            w.lru = self.clock;
            if write {
                w.dirty = true;
            }
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    fn fill(&mut self, line: u64, upgraded: bool, write: bool) -> Vec<Writeback> {
        let mut wbs = Vec::new();
        if upgraded {
            let base = line & !1;
            // The requested sub-line carries the dirtiness of the access.
            if let Some(wb) = self.insert_one(base, true, write && line == base) {
                wbs.push(wb);
            }
            if let Some(wb) = self.insert_one(base + 1, true, write && line == base + 1) {
                wbs.push(wb);
            }
        } else if let Some(wb) = self.insert_one(line, false, write) {
            wbs.push(wb);
        }
        wbs
    }

    fn invalidate(&mut self, line: u64) -> Option<Writeback> {
        let wi = self.find(line)?;
        let si = self.set_index(line);
        self.evict(si, wi)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Sector {
    valid: bool,
    tag: u64,
    present: [bool; 2],
    dirty: [bool; 2],
    upgraded: bool,
    lru: u64,
}

/// The sectored-cache alternative: one tag per 128 B sector with presence
/// bits per 64 B sub-line. Simple pairing, but a relaxed line occupies a
/// whole sector slot — effective capacity halves for workloads with no
/// spatial locality (the reason the paper rejects this design).
#[derive(Debug, Clone)]
pub struct SectoredLlc {
    sets: Vec<Vec<Sector>>,
    n_sets: u64,
    clock: u64,
    stats: CacheStats,
}

impl SectoredLlc {
    /// Creates an empty sectored cache with the same capacity/ways as
    /// `config` but 128 B sectors.
    ///
    /// # Panics
    ///
    /// Panics unless the sector-set count is a power of two.
    pub fn new(config: CacheConfig) -> Self {
        let n_sets = config.size_bytes / (config.ways as u64 * 2 * config.line_bytes as u64);
        assert!(
            n_sets.is_power_of_two() && n_sets >= 1,
            "bad sector set count"
        );
        Self {
            sets: vec![vec![Sector::default(); config.ways as usize]; n_sets as usize],
            n_sets,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn locate(&self, line: u64) -> (usize, u64, usize) {
        let sector = line >> 1;
        let si = (sector & (self.n_sets - 1)) as usize;
        let tag = sector >> self.n_sets.trailing_zeros();
        let sub = (line & 1) as usize;
        (si, tag, sub)
    }

    fn evict(&mut self, si: usize, wi: usize) -> Option<Writeback> {
        let s = self.sets[si][wi];
        self.sets[si][wi] = Sector::default();
        if !s.valid {
            return None;
        }
        let any_dirty = s.dirty[0] || s.dirty[1];
        if !any_dirty {
            return None;
        }
        self.stats.writebacks += 1;
        let base = ((s.tag << self.n_sets.trailing_zeros()) | si as u64) << 1;
        if s.upgraded {
            self.stats.paired_writebacks += 1;
            Some(Writeback {
                line: base,
                upgraded: true,
            })
        } else {
            // Write back the dirty sub-line(s) as single-line traffic; for
            // accounting one writeback covers the sector.
            let sub = if s.dirty[0] { 0 } else { 1 };
            Some(Writeback {
                line: base + sub as u64,
                upgraded: false,
            })
        }
    }
}

impl CacheModel for SectoredLlc {
    fn contains(&self, line: u64) -> bool {
        let (si, tag, sub) = self.locate(line);
        self.sets[si]
            .iter()
            .any(|w| w.valid && w.tag == tag && w.present[sub])
    }

    fn access(&mut self, line: u64, write: bool) -> bool {
        let (si, tag, sub) = self.locate(line);
        for w in self.sets[si].iter_mut() {
            if w.valid && w.tag == tag && w.present[sub] {
                self.clock += 1;
                w.lru = self.clock;
                if write {
                    w.dirty[sub] = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    fn fill(&mut self, line: u64, upgraded: bool, write: bool) -> Vec<Writeback> {
        let (si, tag, sub) = self.locate(line);
        // Existing sector?
        if let Some(wi) = self.sets[si].iter().position(|w| w.valid && w.tag == tag) {
            self.clock += 1;
            let clock = self.clock;
            let w = &mut self.sets[si][wi];
            w.lru = clock;
            w.present[sub] = true;
            w.dirty[sub] |= write;
            w.upgraded |= upgraded;
            if upgraded {
                w.present[0] = true;
                w.present[1] = true;
            }
            return Vec::new();
        }
        // Allocate: invalid way or LRU victim.
        let wi = self.sets[si]
            .iter()
            .position(|w| !w.valid)
            .unwrap_or_else(|| {
                (0..self.sets[si].len())
                    .min_by_key(|&i| self.sets[si][i].lru)
                    .expect("non-empty set")
            });
        let wb = self.evict(si, wi);
        self.clock += 1;
        let mut sector = Sector {
            valid: true,
            tag,
            present: [false; 2],
            dirty: [false; 2],
            upgraded,
            lru: self.clock,
        };
        sector.present[sub] = true;
        sector.dirty[sub] = write;
        if upgraded {
            sector.present = [true, true];
        }
        self.sets[si][wi] = sector;
        wb.into_iter().collect()
    }

    fn invalidate(&mut self, line: u64) -> Option<Writeback> {
        let (si, tag, _) = self.locate(line);
        let wi = self.sets[si].iter().position(|w| w.valid && w.tag == tag)?;
        self.evict(si, wi)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        // 64 sets x 4 ways for fast conflict tests.
        CacheConfig {
            size_bytes: 64 * 4 * 64,
            ways: 4,
            line_bytes: 64,
        }
    }

    #[test]
    fn paper_llc_geometry() {
        let c = CacheConfig::paper_llc();
        assert_eq!(c.sets(), 1024);
    }

    #[test]
    fn basic_hit_miss_lru() {
        let mut llc = PairedTagLlc::new(small());
        assert!(!llc.access(5, false));
        llc.fill(5, false, false);
        assert!(llc.access(5, false));
        assert_eq!(llc.stats().hits, 1);
        assert_eq!(llc.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_is_lru() {
        let mut llc = PairedTagLlc::new(small());
        // 5 lines mapping to set 0 in a 4-way cache: first in goes out.
        for i in 0..5u64 {
            let line = i * 64; // all map to set 0
            llc.fill(line, false, false);
            llc.access(line, false);
        }
        assert!(!llc.access(0, false), "oldest line should be evicted");
        assert!(llc.access(4 * 64, false));
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut llc = PairedTagLlc::new(small());
        llc.fill(0, false, true); // dirty fill
        let mut wbs = Vec::new();
        for i in 1..=4u64 {
            wbs.extend(llc.fill(i * 64, false, false));
        }
        assert_eq!(
            wbs,
            vec![Writeback {
                line: 0,
                upgraded: false
            }]
        );
    }

    #[test]
    fn upgraded_fill_brings_sibling() {
        let mut llc = PairedTagLlc::new(small());
        llc.fill(10, true, false);
        assert!(llc.access(10, false));
        assert!(llc.access(11, false), "co-fetched sibling must hit");
    }

    #[test]
    fn upgraded_pair_evicts_and_writes_back_together() {
        let mut llc = PairedTagLlc::new(small());
        llc.fill(0, true, true); // dirty upgraded pair in sets 0 and 1
                                 // Flood set 0 to push out sub-line 0.
        let mut wbs = Vec::new();
        for i in 1..=4u64 {
            wbs.extend(llc.fill(i * 64, false, false));
        }
        assert_eq!(
            wbs,
            vec![Writeback {
                line: 0,
                upgraded: true
            }],
            "pair written back as one 128 B upgrade write"
        );
        // Partner in set 1 must be gone too.
        assert!(!llc.access(1, false));
        assert_eq!(llc.stats().paired_writebacks, 1);
    }

    #[test]
    fn clean_upgraded_pair_evicts_silently() {
        let mut llc = PairedTagLlc::new(small());
        llc.fill(0, true, false);
        let mut wbs = Vec::new();
        for i in 1..=4u64 {
            wbs.extend(llc.fill(i * 64, false, false));
        }
        assert!(wbs.is_empty());
        assert!(!llc.access(1, false));
    }

    #[test]
    fn pair_recency_shields_partner() {
        let mut llc = PairedTagLlc::new(small());
        llc.fill(0, true, false); // pair in sets 0,1
                                  // Keep touching sub-line 1 (set 1); never touch sub-line 0.
                                  // Then create pressure in set 0: the pair's set-0 sub-line should
                                  // NOT be the first victim because its partner is hot.
        for i in 1..=3u64 {
            llc.fill(i * 64, false, false); // fill remaining 3 ways of set 0
        }
        for _ in 0..10 {
            llc.access(1, false); // keep the partner hot
        }
        // New conflict in set 0: LRU among {pair sub-line (effective
        // recency = hot partner), three relaxed fills}.
        llc.fill(4 * 64, false, false);
        assert!(
            llc.access(0, false),
            "pair sub-line survived thanks to shared recency"
        );
        assert!(llc.stats().second_tag_accesses > 0);
    }

    #[test]
    fn invalidate_upgraded_removes_both() {
        let mut llc = PairedTagLlc::new(small());
        llc.fill(6, true, true);
        let wb = llc.invalidate(6);
        assert_eq!(
            wb,
            Some(Writeback {
                line: 6,
                upgraded: true
            })
        );
        assert!(!llc.access(6, false));
        assert!(!llc.access(7, false));
    }

    #[test]
    fn sectored_cofetch_and_capacity_penalty() {
        let cfg = small();
        let mut sec = SectoredLlc::new(cfg);
        sec.fill(10, true, false);
        assert!(sec.access(10, false));
        assert!(sec.access(11, false));

        // Capacity penalty: one line per distinct 128 B sector (no spatial
        // locality), alternating sub-index so the paired-tag design can use
        // all of its sets. The sectored cache burns a whole sector slot per
        // line and retains only half as many.
        let mut paired = PairedTagLlc::new(cfg);
        let mut sec2 = SectoredLlc::new(cfg);
        let lines: Vec<u64> = (0..256u64).map(|k| 2 * k + ((k >> 5) & 1)).collect();
        for &l in &lines {
            paired.fill(l, false, false);
            sec2.fill(l, false, false);
        }
        let hits = |c: &mut dyn CacheModel| lines.iter().filter(|&&l| c.access(l, false)).count();
        let ph = hits(&mut paired);
        let sh = hits(&mut sec2);
        assert!(ph > sh, "paired-tag {ph} hits vs sectored {sh}");
    }

    #[test]
    fn sectored_dirty_eviction() {
        let cfg = small();
        let mut sec = SectoredLlc::new(cfg);
        let n_sets = cfg.size_bytes / (cfg.ways as u64 * 128);
        sec.fill(0, false, true);
        // Conflict the same sector set with distinct tags.
        let mut wbs = Vec::new();
        for i in 1..=4u64 {
            wbs.extend(sec.fill(i * n_sets * 2, false, false));
        }
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].line, 0);
    }

    #[test]
    fn write_hit_marks_dirty_and_writes_back_later() {
        let mut llc = PairedTagLlc::new(small());
        llc.fill(0, false, false);
        llc.access(0, true); // write hit: now dirty
        let mut wbs = Vec::new();
        for i in 1..=4u64 {
            wbs.extend(llc.fill(i * 64, false, false));
        }
        assert_eq!(wbs.len(), 1);
    }
}
