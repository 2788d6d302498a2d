//! Calibrated synthetic log generation: turns a [`FleetSpec`] into the
//! fault log its own event engine would observe.
//!
//! The generator walks the exact RNG streams of the `arcc-fleet` shard
//! engine — `cell_seed(cell_seed(spec.seed, shard), channel)`, first
//! arrival via the horizon-bypass threshold, then alternating payload and
//! gap draws — so the emitted log contains precisely the arrivals a
//! synthetic run of `spec` processes. That makes it the round-trip
//! anchor: replaying a generated log under the same spec and
//! [`OperatorPolicy::None`](arcc_fleet::OperatorPolicy::None) reproduces
//! the synthetic run's `FleetStats` **bit-for-bit** (pinned by this
//! crate's tests), and under repair policies within Monte-Carlo
//! tolerance. It is also the fixture factory for fitter validation:
//! generate from known multipliers, fit, compare.

use std::fmt::Write as _;

use arcc_core::cell_seed;
use arcc_faults::montecarlo::FaultSampler;
use arcc_faults::{exp_interarrival, exp_interarrival_from_u, FaultEvent};
use arcc_fleet::FleetSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::format::{DimmTable, FaultLog, LogClass};

/// Generates the observed-fault log of one synthetic run of `spec`:
/// every channel becomes an inventory DIMM (`ch<global id>`, class = its
/// population), and every in-horizon arrival the engine would process
/// becomes a `fault` entry.
pub fn generate_log(spec: &FleetSpec) -> FaultLog {
    let horizon_h = spec.horizon_hours();
    let samplers: Vec<FaultSampler> = spec
        .populations
        .iter()
        .map(|p| FaultSampler::new(p.geometry, p.rates()))
        .collect();
    let rates: Vec<f64> = samplers.iter().map(|s| s.channel_rate_per_hour()).collect();
    // The engine's first-arrival skip threshold: gap >= H iff
    // u >= 1 - exp(-r*H).
    let first_u: Vec<f64> = rates
        .iter()
        .map(|&r| {
            if r > 0.0 {
                1.0 - (-r * horizon_h).exp()
            } else {
                0.0
            }
        })
        .collect();
    let classes: Vec<LogClass> = spec
        .populations
        .iter()
        .map(|p| LogClass {
            name: p.name.clone(),
            scrub_interval_h: p.scrub_interval_h,
            cores: p.cores,
        })
        .collect();
    let mut log = FaultLog {
        years: spec.years,
        classes,
        dimms: DimmTable::default(),
        faults: Vec::new(),
    };
    let picker = spec.population_picker();
    // Each id is formatted here, then copied into the inventory's id
    // string: no DIMM allocates.
    let mut id = String::new();
    for shard in 0..spec.shard_count() {
        let shard_seed = cell_seed(spec.seed, shard);
        let first_channel = shard * spec.shard_channels as u64;
        for c in 0..spec.shard_size(shard) {
            let global = first_channel + c as u64;
            let population = picker.pick(global);
            let dimm = log.dimms.len() as u32;
            id.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(id, "ch{global:08}");
            log.dimms.push(&id, population as u32);
            let rate = rates[population];
            if rate <= 0.0 {
                continue;
            }
            // From here on, the draw sequence is the engine's, verbatim.
            let mut rng = StdRng::seed_from_u64(cell_seed(shard_seed, c as u64));
            let u: f64 = rng.gen_range(0.0..1.0);
            if u >= first_u[population] {
                continue; // first arrival past the horizon
            }
            let mut t = exp_interarrival_from_u(u, rate);
            while t < horizon_h {
                let fault: FaultEvent = samplers[population].draw_fault(&mut rng, t);
                log.faults.push((dimm, fault));
                t += exp_interarrival(&mut rng, rate);
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_fleet::{run_fleet, DimmPopulation};

    #[test]
    fn generated_log_matches_the_engines_fault_count() {
        let spec = FleetSpec::baseline(2_000)
            .populations(vec![DimmPopulation::paper("hot").rate_multiplier(8.0)])
            .shard_channels(512)
            .seed(0x10C);
        let log = generate_log(&spec);
        assert_eq!(log.dimms.len(), 2_000);
        let stats = run_fleet(2, &spec);
        assert_eq!(
            log.faults.len() as u64,
            stats.faults,
            "generator must emit exactly the arrivals the engine processes"
        );
        // Inventory classes mirror the population assignment.
        for (i, (id, class)) in log.dimms.iter().enumerate() {
            assert_eq!(id, format!("ch{i:08}"));
            assert_eq!(class as usize, spec.population_for(i as u64));
        }
        // Serialised and reparsed, the log survives intact.
        let parsed = FaultLog::parse(&log.to_text()).expect("round trip");
        assert_eq!(parsed, log);
    }

    #[test]
    fn zero_rate_population_yields_a_quiet_inventory() {
        let spec = FleetSpec::baseline(64)
            .populations(vec![DimmPopulation::paper("dead").rate_multiplier(0.0)]);
        let log = generate_log(&spec);
        assert_eq!(log.dimms.len(), 64);
        assert!(log.faults.is_empty());
        // Quiet logs still parse (the inventory is the content).
        assert!(FaultLog::parse(&log.to_text()).is_ok());
    }
}
