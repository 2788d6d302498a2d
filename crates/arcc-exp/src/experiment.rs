//! The [`Experiment`] builder: every knob the paper's evaluation grid
//! exposes, as typed methods instead of environment variables.

use std::collections::BTreeMap;
use std::fmt;
use std::num::{NonZeroU32, NonZeroUsize};
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use arcc_core::{default_threads, MixResult, SimConfig, SystemSim};
use arcc_trace::{paper_mixes, Mix, TraceConfig};

/// The trace RNG seed of every simulation.
const TRACE_SEED: u64 = 0xA2CC;

/// Complete determinant of a mix simulation's result: scheme (ARCC vs
/// baseline), the mix's benchmark list, the upgraded fraction, and the
/// trace length.
type SimKey = (bool, &'static [&'static str], u64, usize);

/// Shared memo of mix-simulation results. Scenarios overlap heavily —
/// `motivation`/`fig7_1` run the same baseline-vs-ARCC pairs, and
/// `fig7_4`/`fig7_5` the same measured-model cells — so an in-process
/// `repro_all` would otherwise repeat its most expensive simulations.
/// Keys capture every knob that affects a result, so clones of an
/// [`Experiment`] reconfigured via the builder can share the cache
/// safely. A `BTreeMap` (point lookups only, never iterated) keeps the
/// crate free of hash-order containers for the determinism audit.
#[derive(Debug, Clone, Default)]
struct SimCache(Arc<Mutex<BTreeMap<SimKey, MixResult>>>);

/// Typed configuration for everything the workspace can run.
///
/// An `Experiment` carries the full knob set of the paper's evaluation —
/// trace length, Monte-Carlo depths, workload-mix filter, and
/// the sweep worker count — and is consumed by the scenario registry
/// ([`crate::run`]) as well as usable directly:
///
/// ```
/// use arcc_exp::Experiment;
///
/// let exp = Experiment::new()
///     .trace_requests(2_000)
///     .mixes(["Mix1"])
///     .threads(1);
/// let mix = exp.mix_list()[0];
/// let base = exp.run_baseline(&mix);
/// let arcc = exp.run_arcc(&mix, 0.0);
/// assert!(arcc.power_mw < base.power_mw); // 18 vs 36 devices per access
/// ```
///
/// All builder methods consume and return `self`, so configurations are
/// single expressions. [`Experiment::from_env`] is how binaries read
/// their knobs, from the `ARCC_*` environment variables.
#[derive(Debug, Clone)]
pub struct Experiment {
    trace_requests: usize,
    mc_channels: u32,
    mc_machines: u32,
    mc_seed: u64,
    escape_trials: u64,
    mix_filter: Option<Vec<String>>,
    threads: Option<usize>,
    cache: SimCache,
}

impl Default for Experiment {
    fn default() -> Self {
        Self {
            trace_requests: 120_000,
            mc_channels: 10_000,
            mc_machines: 200_000,
            mc_seed: 0x11FE,
            escape_trials: 40_000,
            mix_filter: None,
            threads: None,
            cache: SimCache::default(),
        }
    }
}

impl Experiment {
    /// Paper-scale defaults: 120 000-request traces, 10 000 Monte-Carlo
    /// channels, 200 000 machines, all 12 mixes.
    pub fn new() -> Self {
        Self::default()
    }

    /// CI-scale preset: reduced trace and Monte-Carlo depths that keep
    /// every scenario's shape while running in seconds.
    pub fn quick() -> Self {
        Self::new()
            .trace_requests(20_000)
            .mc_channels(1_000)
            .mc_machines(5_000)
            .escape_trials(5_000)
    }

    /// Defaults overridden by the `ARCC_*` environment variables
    /// (`ARCC_TRACE_REQUESTS`, `ARCC_MC_CHANNELS`, `ARCC_MC_MACHINES`,
    /// `ARCC_THREADS` and `ARCC_MIXES`): the knob path of the `repro_all`
    /// binary, which CI uses for its quick-mode runs. Library code states
    /// its knobs with the typed builder.
    ///
    /// # Errors
    ///
    /// A message naming the variable and its value, for a number that
    /// does not parse, a zero trace length or Monte-Carlo count (which
    /// would report nothing), or an `ARCC_MIXES` entry that is not a
    /// paper mix. `ARCC_THREADS=0` runs on one worker, as
    /// [`Self::threads`] clamps it.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|var| std::env::var(var).ok())
    }

    /// [`Self::from_env`] over any variable lookup.
    fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn parse<T: FromStr>(
            lookup: &impl Fn(&str) -> Option<String>,
            var: &str,
        ) -> Result<Option<T>, String>
        where
            T::Err: fmt::Display,
        {
            lookup(var)
                .map(|value| {
                    value
                        .parse()
                        .map_err(|e| format!("bad knob {var}={value:?}: {e}"))
                })
                .transpose()
        }
        let mut exp = Self::new();
        if let Some(n) = parse::<NonZeroUsize>(&lookup, "ARCC_TRACE_REQUESTS")? {
            exp = exp.trace_requests(n.get());
        }
        if let Some(n) = parse::<NonZeroU32>(&lookup, "ARCC_MC_CHANNELS")? {
            exp = exp.mc_channels(n.get());
        }
        if let Some(n) = parse::<NonZeroU32>(&lookup, "ARCC_MC_MACHINES")? {
            exp = exp.mc_machines(n.get());
        }
        if let Some(n) = parse(&lookup, "ARCC_THREADS")? {
            exp = exp.threads(n);
        }
        if let Some(mixes) = lookup("ARCC_MIXES") {
            let names: Vec<String> = mixes
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            let paper: Vec<&str> = paper_mixes().iter().map(|m| m.name).collect();
            if let Some(unknown) = names.iter().find(|n| !paper.contains(&n.as_str())) {
                let paper = paper.join(", ");
                return Err(format!(
                    "bad knob ARCC_MIXES={mixes:?}: {unknown} is not one of {paper}"
                ));
            }
            if !names.is_empty() {
                exp = exp.mixes(names);
            }
        }
        Ok(exp)
    }

    /// Sets the requests per trace simulation.
    pub fn trace_requests(mut self, requests: usize) -> Self {
        self.trace_requests = requests;
        self
    }

    /// Sets the channel count for lifetime Monte Carlos.
    pub fn mc_channels(mut self, channels: u32) -> Self {
        self.mc_channels = channels;
        self
    }

    /// Sets the machine count for the SDC Monte Carlo.
    pub fn mc_machines(mut self, machines: u32) -> Self {
        self.mc_machines = machines;
        self
    }

    /// Sets the base seed for all Monte-Carlo sweeps.
    pub fn mc_seed(mut self, seed: u64) -> Self {
        self.mc_seed = seed;
        self
    }

    /// Sets the trial count for the escape-rate decoder study.
    pub fn escape_trials(mut self, trials: u64) -> Self {
        self.escape_trials = trials;
        self
    }

    /// Restricts the workload mixes by name (e.g. `["Mix1", "Mix7"]`);
    /// unknown names are ignored.
    pub fn mixes<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.mix_filter = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Caps sweep workers (default: one per available hardware thread).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    // --- accessors -----------------------------------------------------

    /// The trace configuration shared by all simulations.
    pub fn trace_config(&self) -> TraceConfig {
        TraceConfig {
            requests: self.trace_requests,
            seed: TRACE_SEED,
        }
    }

    /// The selected workload mixes (all 12 paper mixes unless filtered).
    pub fn mix_list(&self) -> Vec<Mix> {
        let all = paper_mixes();
        match &self.mix_filter {
            None => all,
            Some(filter) => all
                .into_iter()
                .filter(|m| filter.iter().any(|f| f == m.name))
                .collect(),
        }
    }

    /// Channels for lifetime Monte Carlos.
    pub fn mc_channel_count(&self) -> u32 {
        self.mc_channels
    }

    /// Machines for the SDC Monte Carlo.
    pub fn mc_machine_count(&self) -> u32 {
        self.mc_machines
    }

    /// Base seed for Monte-Carlo sweeps.
    pub fn mc_seed_value(&self) -> u64 {
        self.mc_seed
    }

    /// Trials for the escape-rate study.
    pub fn escape_trial_count(&self) -> u64 {
        self.escape_trials
    }

    /// Effective sweep worker count.
    pub fn worker_count(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    // --- simulation entry points ---------------------------------------

    /// Runs one mix under the commercial SCCDCD baseline.
    ///
    /// Results are memoised per (scheme, mix, fraction, trace) so
    /// overlapping scenarios in one process don't repeat simulations.
    pub fn run_baseline(&self, mix: &Mix) -> MixResult {
        self.run_sim(mix, false, 0.0)
    }

    /// Runs one mix under ARCC with the given upgraded-page fraction
    /// (memoised like [`Self::run_baseline`]).
    pub fn run_arcc(&self, mix: &Mix, upgraded_fraction: f64) -> MixResult {
        self.run_sim(mix, true, upgraded_fraction)
    }

    fn run_sim(&self, mix: &Mix, arcc: bool, fraction: f64) -> MixResult {
        let key: SimKey = (
            arcc,
            mix.benchmarks,
            fraction.to_bits(),
            self.trace_requests,
        );
        if let Some(hit) = self.cache.0.lock().expect("sim cache").get(&key) {
            return hit.clone();
        }
        let mut cfg = if arcc {
            SimConfig::arcc(fraction)
        } else {
            SimConfig::baseline()
        };
        cfg.trace = self.trace_config();
        let result = SystemSim::new(cfg).run_mix(mix);
        self.cache
            .0
            .lock()
            .expect("sim cache")
            .insert(key, result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_legacy_env_defaults() {
        let exp = Experiment::new();
        assert_eq!(exp.trace_config().requests, 120_000);
        assert_eq!(exp.trace_config().seed, 0xA2CC);
        assert_eq!(exp.mc_channel_count(), 10_000);
        assert_eq!(exp.mc_machine_count(), 200_000);
        assert_eq!(exp.mix_list().len(), 12);
        assert!(exp.worker_count() >= 1);
    }

    #[test]
    fn from_env_answers_with_usable_sizes() {
        // Whatever valid ARCC_* values the environment sets (CI sets
        // quick ones), the sizes stay runnable.
        let exp = Experiment::from_env().expect("the environment's ARCC_* knobs parse");
        assert!(exp.trace_config().requests >= 1000);
        assert!(exp.mc_channel_count() >= 100);
        assert!(exp.mc_machine_count() >= 100);
    }

    /// A lookup that sets one variable.
    fn one_var(name: &'static str, value: &'static str) -> impl Fn(&str) -> Option<String> {
        move |var| (var == name).then(|| value.to_string())
    }

    #[test]
    fn an_unparsable_number_is_an_error_naming_the_variable() {
        let msg = Experiment::from_vars(one_var("ARCC_MC_CHANNELS", "abc")).unwrap_err();
        assert!(msg.contains("ARCC_MC_CHANNELS=\"abc\""), "{msg}");
        let exp = Experiment::from_vars(one_var("ARCC_MC_CHANNELS", "250")).unwrap();
        assert_eq!(exp.mc_channel_count(), 250);
    }

    #[test]
    fn a_zero_trace_length_is_an_error_naming_the_variable() {
        let msg = Experiment::from_vars(one_var("ARCC_TRACE_REQUESTS", "0")).unwrap_err();
        assert!(
            msg.starts_with("bad knob ARCC_TRACE_REQUESTS=\"0\": "),
            "{msg}"
        );
    }

    #[test]
    fn a_zero_channel_count_is_an_error_naming_the_variable() {
        let msg = Experiment::from_vars(one_var("ARCC_MC_CHANNELS", "0")).unwrap_err();
        assert!(
            msg.starts_with("bad knob ARCC_MC_CHANNELS=\"0\": "),
            "{msg}"
        );
    }

    #[test]
    fn a_zero_machine_count_is_an_error_naming_the_variable() {
        let msg = Experiment::from_vars(one_var("ARCC_MC_MACHINES", "0")).unwrap_err();
        assert!(
            msg.starts_with("bad knob ARCC_MC_MACHINES=\"0\": "),
            "{msg}"
        );
        // Zero workers still runs: `threads` clamps it to one.
        let exp = Experiment::from_vars(one_var("ARCC_THREADS", "0")).unwrap();
        assert_eq!(exp.worker_count(), 1);
    }

    #[test]
    fn a_mix_that_is_not_a_paper_mix_is_an_error_naming_the_variable() {
        let msg = Experiment::from_vars(one_var("ARCC_MIXES", "Mix1,Mix99")).unwrap_err();
        assert!(msg.contains("ARCC_MIXES=\"Mix1,Mix99\""), "{msg}");
        assert!(msg.contains("Mix99 is not one of Mix1,"), "{msg}");
        let exp = Experiment::from_vars(one_var("ARCC_MIXES", "Mix3, Mix7")).unwrap();
        let names: Vec<_> = exp.mix_list().iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["Mix3", "Mix7"]);
    }

    #[test]
    fn mix_filter_selects_by_name() {
        let exp = Experiment::new().mixes(["Mix3", "Mix7", "NoSuchMix"]);
        let names: Vec<_> = exp.mix_list().iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["Mix3", "Mix7"]);
    }

    #[test]
    fn quick_preset_is_reduced() {
        let q = Experiment::quick();
        assert!(q.trace_config().requests < Experiment::new().trace_config().requests);
        assert!(q.mc_channel_count() < Experiment::new().mc_channel_count());
    }

    #[test]
    fn repeated_runs_hit_the_sim_memo() {
        let exp = Experiment::new().trace_requests(2_000).mixes(["Mix1"]);
        let mix = exp.mix_list()[0];
        let first = exp.run_arcc(&mix, 0.5);
        let again = exp.run_arcc(&mix, 0.5);
        assert_eq!(first.power_mw.to_bits(), again.power_mw.to_bits());
        // Different knobs must not hit stale entries (key covers them).
        let longer = exp.clone().trace_requests(4_000);
        let other = longer.run_arcc(&mix, 0.5);
        assert_ne!(first.power_mw.to_bits(), other.power_mw.to_bits());
    }
}
