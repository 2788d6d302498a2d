//! Streaming fleet statistics: fixed-size per-shard aggregates with an
//! associative, commutative merge.
//!
//! The engine never materialises per-channel fault vectors; every outcome
//! is folded into one [`FleetStats`] per shard the moment it happens, and
//! shard aggregates are merged pairwise. Integer counters merge exactly
//! associatively/commutatively; floating-point sums are associative up to
//! rounding (the canonical runner therefore always folds in shard order,
//! which makes parallel runs byte-identical to sequential ones).

use arcc_faults::{FaultMode, HOURS_PER_YEAR};

/// Number of fault modes tracked per-mode (the length of
/// [`FaultMode::ALL`]).
pub const MODE_COUNT: usize = FaultMode::ALL.len();

/// Per-population slice of the fleet aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PopulationStats {
    /// Channels assigned to this population.
    pub channels: u64,
    /// Fault arrivals.
    pub faults: u64,
    /// Detected-uncorrectable overlap events.
    pub due_events: u64,
    /// Channels that suffered at least one silent corruption.
    pub sdc_channels: u64,
    /// DIMM replacements performed.
    pub replacements: u64,
    /// Sum over channels of the end-of-horizon upgraded page fraction.
    pub upgraded_page_mass: f64,
}

impl PopulationStats {
    fn merge(&mut self, other: &PopulationStats) {
        self.channels += other.channels;
        self.faults += other.faults;
        self.due_events += other.due_events;
        self.sdc_channels += other.sdc_channels;
        self.replacements += other.replacements;
        self.upgraded_page_mass += other.upgraded_page_mass;
    }
}

/// Aggregate outcome of a fleet simulation (or any mergeable sub-slice of
/// one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Channels simulated.
    pub channels: u64,
    /// Simulated horizon in hours (the spec's `horizon_hours`); merged as
    /// a max so aggregates of differently-scoped runs stay sane.
    pub horizon_hours: f64,
    /// Channel-hours actually in service (failed channels stop accruing
    /// at retirement).
    pub channel_hours: f64,
    /// Fault arrivals.
    pub faults: u64,
    /// Fault arrivals per mode, indexed in [`FaultMode::ALL`] order.
    pub faults_by_mode: [u64; MODE_COUNT],
    /// Transient faults cured by the scrub write-back that detected them.
    pub transient_cleared: u64,
    /// Scrub-time fault detections (each triggers an upgrade decision).
    pub detections: u64,
    /// Detected-uncorrectable overlap events.
    pub due_events: u64,
    /// Channels that suffered at least one silent corruption (at most one
    /// counted per channel, the paper's accounting).
    pub sdc_channels: u64,
    /// Channels that saw at least one fault.
    pub channels_with_faults: u64,
    /// Channels that raised at least one DUE.
    pub channels_with_due: u64,
    /// Channels retired un-replaced after a DUE (spare pool dry).
    pub channels_failed: u64,
    /// DIMM replacements performed.
    pub replacements: u64,
    /// Spares drawn from the pool (`<= replacements`; equal under the
    /// spare-pool policy).
    pub spares_consumed: u64,
    /// Sum over channels of the end-of-horizon upgraded page fraction.
    pub upgraded_page_mass: f64,
    /// Power-epoch histogram: for each year of the horizon, the
    /// channel-hours-weighted upgraded page mass in that year — i.e.
    /// `sum over channels of ∫ upgraded_fraction(t) dt` with the integral
    /// split per year. Under ARCC's worst-case power model (an upgraded
    /// access costs 2x a relaxed one), [`Self::avg_power_overhead_by_year`]
    /// turns entry `y` into the fleet's average power overhead in year
    /// `y`.
    pub epoch_upgraded_hours: Vec<f64>,
    /// Per-epoch in-service channel-hours: for each year of the horizon,
    /// the hours channels actually served in that year (retired channels
    /// stop contributing mid-epoch). This is the denominator of
    /// [`Self::avg_power_overhead_by_year`] — dividing by the full
    /// `channels * epoch_hours` instead would underreport power overhead
    /// for fleets that lost channels to spare-pool exhaustion. Sums to
    /// [`Self::channel_hours`] (up to rounding).
    pub epoch_service_hours: Vec<f64>,
    /// Per-population slices, indexed by the spec's population order.
    pub populations: Vec<PopulationStats>,
}

impl FleetStats {
    /// An empty aggregate sized for `epochs` years and `populations`
    /// population slices.
    pub fn empty(epochs: usize, populations: usize) -> Self {
        Self {
            epoch_upgraded_hours: vec![0.0; epochs],
            epoch_service_hours: vec![0.0; epochs],
            populations: vec![PopulationStats::default(); populations],
            ..Self::default()
        }
    }

    /// Folds `other` into `self`. Commutative and associative (exactly so
    /// for the integer counters; up to floating-point rounding for the
    /// hour/mass sums), so shard aggregates can be merged in any grouping
    /// — the canonical runner uses shard order for byte-stability.
    pub fn merge(&mut self, other: &FleetStats) {
        self.channels += other.channels;
        self.horizon_hours = self.horizon_hours.max(other.horizon_hours);
        self.channel_hours += other.channel_hours;
        self.faults += other.faults;
        for (a, b) in self.faults_by_mode.iter_mut().zip(&other.faults_by_mode) {
            *a += b;
        }
        self.transient_cleared += other.transient_cleared;
        self.detections += other.detections;
        self.due_events += other.due_events;
        self.sdc_channels += other.sdc_channels;
        self.channels_with_faults += other.channels_with_faults;
        self.channels_with_due += other.channels_with_due;
        self.channels_failed += other.channels_failed;
        self.replacements += other.replacements;
        self.spares_consumed += other.spares_consumed;
        self.upgraded_page_mass += other.upgraded_page_mass;
        if self.epoch_upgraded_hours.len() < other.epoch_upgraded_hours.len() {
            self.epoch_upgraded_hours
                .resize(other.epoch_upgraded_hours.len(), 0.0);
        }
        for (a, b) in self
            .epoch_upgraded_hours
            .iter_mut()
            .zip(&other.epoch_upgraded_hours)
        {
            *a += b;
        }
        if self.epoch_service_hours.len() < other.epoch_service_hours.len() {
            self.epoch_service_hours
                .resize(other.epoch_service_hours.len(), 0.0);
        }
        for (a, b) in self
            .epoch_service_hours
            .iter_mut()
            .zip(&other.epoch_service_hours)
        {
            *a += b;
        }
        if self.populations.len() < other.populations.len() {
            self.populations
                .resize(other.populations.len(), PopulationStats::default());
        }
        for (a, b) in self.populations.iter_mut().zip(&other.populations) {
            a.merge(b);
        }
    }

    /// Machine-years in service.
    pub fn machine_years(&self) -> f64 {
        self.channel_hours / HOURS_PER_YEAR
    }

    /// Fraction of channels that saw at least one fault.
    pub fn fault_probability(&self) -> f64 {
        if self.channels == 0 {
            0.0
        } else {
            self.channels_with_faults as f64 / self.channels as f64
        }
    }

    /// Fraction of channels that raised at least one DUE.
    pub fn due_probability(&self) -> f64 {
        if self.channels == 0 {
            0.0
        } else {
            self.channels_with_due as f64 / self.channels as f64
        }
    }

    /// Fraction of channels that suffered a silent corruption.
    pub fn sdc_probability(&self) -> f64 {
        if self.channels == 0 {
            0.0
        } else {
            self.sdc_channels as f64 / self.channels as f64
        }
    }

    /// Silent corruptions per 1000 machine-years (comparable to
    /// `arcc_reliability::SdcResult`).
    pub fn sdc_per_1000_machine_years(&self) -> f64 {
        let my = self.machine_years();
        if my == 0.0 {
            0.0
        } else {
            self.sdc_channels as f64 / my * 1000.0
        }
    }

    /// Average end-of-horizon upgraded page fraction across the fleet.
    pub fn avg_upgraded_fraction(&self) -> f64 {
        if self.channels == 0 {
            0.0
        } else {
            self.upgraded_page_mass / self.channels as f64
        }
    }

    /// The power-epoch histogram as fleet-average power overhead per year
    /// (worst-case ARCC model: overhead equals the upgraded fraction),
    /// averaged over the hours channels were actually *in service* that
    /// year ([`Self::epoch_service_hours`]) — so a fleet that retired
    /// channels to spare-pool exhaustion reports the overhead its
    /// surviving channels really paid, instead of diluting it across
    /// hardware that was already pulled. Hand-assembled aggregates
    /// without service tracking fall back to the full-fleet denominator
    /// (a fractional final year still counts only its in-horizon hours).
    pub fn avg_power_overhead_by_year(&self) -> Vec<f64> {
        self.epoch_upgraded_hours
            .iter()
            .enumerate()
            .map(|(y, h)| {
                let tracked = self.epoch_service_hours.get(y).copied().unwrap_or(0.0);
                let denom = if tracked > 0.0 {
                    tracked
                } else {
                    let epoch_hours =
                        (self.horizon_hours - y as f64 * HOURS_PER_YEAR).clamp(0.0, HOURS_PER_YEAR);
                    self.channels as f64 * epoch_hours
                };
                if denom > 0.0 {
                    h / denom
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Bit-level equality across every field — stricter than `PartialEq`
    /// for the float sums (`-0.0 == 0.0` and such round-trips are *not*
    /// forgiven). This is the predicate the determinism tests pin:
    /// parallel vs sequential, resumed vs one-shot, replay vs synthetic.
    pub fn bitwise_eq(&self, other: &FleetStats) -> bool {
        let bits = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let vec_bits =
            |a: &[f64], b: &[f64]| a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(*x, *y));
        self.channels == other.channels
            && bits(self.horizon_hours, other.horizon_hours)
            && bits(self.channel_hours, other.channel_hours)
            && self.faults == other.faults
            && self.faults_by_mode == other.faults_by_mode
            && self.transient_cleared == other.transient_cleared
            && self.detections == other.detections
            && self.due_events == other.due_events
            && self.sdc_channels == other.sdc_channels
            && self.channels_with_faults == other.channels_with_faults
            && self.channels_with_due == other.channels_with_due
            && self.channels_failed == other.channels_failed
            && self.replacements == other.replacements
            && self.spares_consumed == other.spares_consumed
            && bits(self.upgraded_page_mass, other.upgraded_page_mass)
            && vec_bits(&self.epoch_upgraded_hours, &other.epoch_upgraded_hours)
            && vec_bits(&self.epoch_service_hours, &other.epoch_service_hours)
            && self.populations.len() == other.populations.len()
            && self
                .populations
                .iter()
                .zip(&other.populations)
                .all(|(a, b)| {
                    a.channels == b.channels
                        && a.faults == b.faults
                        && a.due_events == b.due_events
                        && a.sdc_channels == b.sdc_channels
                        && a.replacements == b.replacements
                        && bits(a.upgraded_page_mass, b.upgraded_page_mass)
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> FleetStats {
        let mut s = FleetStats::empty(3, 2);
        s.channels = k;
        s.horizon_hours = 3.0 * HOURS_PER_YEAR;
        s.channel_hours = k as f64 * 100.0;
        s.faults = 2 * k;
        s.faults_by_mode[0] = k;
        s.due_events = k / 2;
        s.sdc_channels = k / 7;
        s.channels_with_faults = k / 2;
        s.upgraded_page_mass = 0.25 * k as f64;
        s.epoch_upgraded_hours = vec![k as f64, 2.0 * k as f64, 0.5];
        s.populations[0].channels = k;
        s.populations[0].faults = k;
        s
    }

    #[test]
    fn merge_is_identity_on_empty() {
        let mut acc = FleetStats::empty(3, 2);
        let s = sample(12);
        acc.merge(&s);
        assert_eq!(acc, s);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = sample(10);
        a.merge(&sample(4));
        assert_eq!(a.channels, 14);
        assert_eq!(a.faults, 28);
        assert_eq!(a.faults_by_mode[0], 14);
        assert_eq!(a.epoch_upgraded_hours[1], 28.0);
        assert_eq!(a.populations[0].faults, 14);
    }

    #[test]
    fn merge_pads_shorter_histograms() {
        let mut a = FleetStats::empty(1, 1);
        a.epoch_upgraded_hours[0] = 1.0;
        a.epoch_service_hours[0] = 3.0;
        let mut b = FleetStats::empty(4, 3);
        b.epoch_upgraded_hours[3] = 2.0;
        b.epoch_service_hours[3] = 7.0;
        b.populations[2].channels = 5;
        a.merge(&b);
        assert_eq!(a.epoch_upgraded_hours, vec![1.0, 0.0, 0.0, 2.0]);
        assert_eq!(a.epoch_service_hours, vec![3.0, 0.0, 0.0, 7.0]);
        assert_eq!(a.populations.len(), 3);
        assert_eq!(a.populations[2].channels, 5);
    }

    #[test]
    fn power_overhead_divides_by_in_service_hours() {
        // 10 channels, but half the year-1 service hours were lost to
        // retirements: the overhead must divide by the 5-channel-years
        // actually served, i.e. come out twice the naive average.
        let mut s = FleetStats::empty(1, 1);
        s.channels = 10;
        s.horizon_hours = HOURS_PER_YEAR;
        s.epoch_upgraded_hours = vec![0.04 * 5.0 * HOURS_PER_YEAR];
        s.epoch_service_hours = vec![5.0 * HOURS_PER_YEAR];
        let by_year = s.avg_power_overhead_by_year();
        assert!((by_year[0] - 0.04).abs() < 1e-12, "got {}", by_year[0]);
        // Without tracking, the same mass dilutes across all 10 channels.
        s.epoch_service_hours = Vec::new();
        assert!((s.avg_power_overhead_by_year()[0] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn bitwise_eq_is_stricter_than_partial_eq() {
        let a = sample(6);
        let mut b = sample(6);
        assert!(a.bitwise_eq(&b));
        b.epoch_upgraded_hours[0] = -0.0;
        let mut zeroed = sample(6);
        zeroed.epoch_upgraded_hours[0] = 0.0;
        assert!(!zeroed.bitwise_eq(&b), "-0.0 must not pass as 0.0");
        b.faults += 1;
        assert!(!a.bitwise_eq(&b));
    }

    #[test]
    fn derived_rates() {
        let s = sample(100);
        assert!((s.fault_probability() - 0.5).abs() < 1e-12);
        assert!((s.avg_upgraded_fraction() - 0.25).abs() < 1e-12);
        assert!((s.machine_years() - 100.0 * 100.0 / HOURS_PER_YEAR).abs() < 1e-9);
        assert!(s.sdc_per_1000_machine_years() > 0.0);
        let by_year = s.avg_power_overhead_by_year();
        assert_eq!(by_year.len(), 3);
        assert!((by_year[0] - 100.0 / (100.0 * HOURS_PER_YEAR)).abs() < 1e-15);
    }

    #[test]
    fn partial_final_year_uses_in_service_hours() {
        // 2.5-year horizon: the third epoch spans only half a year, so its
        // average must divide by the half year actually served.
        let mut s = FleetStats::empty(3, 1);
        s.channels = 10;
        s.horizon_hours = 2.5 * HOURS_PER_YEAR;
        s.epoch_upgraded_hours = vec![0.0, 0.0, 10.0 * 0.02 * 0.5 * HOURS_PER_YEAR];
        let by_year = s.avg_power_overhead_by_year();
        assert!((by_year[2] - 0.02).abs() < 1e-12, "got {}", by_year[2]);
    }

    #[test]
    fn zero_channels_degrade_gracefully() {
        let s = FleetStats::empty(2, 1);
        assert_eq!(s.fault_probability(), 0.0);
        assert_eq!(s.sdc_per_1000_machine_years(), 0.0);
        assert_eq!(s.avg_power_overhead_by_year(), vec![0.0, 0.0]);
    }
}
