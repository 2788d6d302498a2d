//! The per-shard discrete-event engine.
//!
//! One [`ShardEngine`] owns a slice of the fleet's channels and a single
//! time-ordered event queue (heap or calendar/bucket — see
//! [`crate::spec::SchedulerKind`]). Three event kinds drive a channel
//! through its service life:
//!
//! * **fault arrivals** — drawn lazily, one exponential gap at a time
//!   ([`arcc_faults::exp_interarrival`]), so no per-channel fault vector
//!   is ever materialised. Arrival processing classifies the fault
//!   against the channel's *active* fault set with exactly the
//!   `arcc-reliability` SDC-model predicates (undetected relaxed-codeword
//!   overlap or upgraded triple overlap ⇒ SDC, other overlap ⇒ DUE);
//! * **scrub detections** — scheduled at the first scrub tick after each
//!   arrival ([`arcc_reliability::detection_time`]). Detection cures a
//!   transient fault (write-back) — and *compacts it out of the active
//!   list on the spot*, which is why detections reference faults by
//!   stable per-channel id rather than index — or upgrades the pages a
//!   permanent fault touches, streaming the upgraded-page mass into the
//!   shard's power-epoch histogram;
//! * **replacements** — scheduled by the operator policy on a DUE and
//!   resolved in event-time order, which is what couples channels: a
//!   shard-level spare pool must grant spares in the order failures are
//!   detected, not in channel-index order.
//!
//! The fleet-scale fast path: at field rates the overwhelming majority
//! of channels never see a fault inside the horizon. Because the
//! exponential gap exceeds `H` exactly when its uniform draw lands at or
//! above `1 - exp(-rate * H)`, each channel costs one RNG stream seed and
//! one uniform draw against that precomputed threshold — no logarithm, no
//! channel state, no queue traffic. Only event-bearing channels get a
//! `ChannelState` slot, and queued events address those sparse slots
//! directly.
//!
//! Determinism: every channel owns its own RNG stream
//! (`cell_seed(shard_seed, channel_index)`), so results are independent
//! of event interleaving across channels; ties in time are broken by a
//! monotone sequence number, making the replay itself deterministic too.
//! Both schedulers fire events in identical `(time, seq)` order, so the
//! scheduler knob never changes a single output bit.
//!
//! Arrivals come from one of two [`sources`](crate::source): the default
//! synthetic lazy-exponential draws described above, or a
//! [`ReplayArrivals`] set of *observed* arrivals
//! ([`ShardEngine::new_replay`]) delivered through the very same queue in
//! `(time, seq)` order while detections, upgrades, and policy stay
//! simulated. Because a replayed channel's next arrival is simply the
//! next logged event (no RNG), a log generated from a spec with the
//! engine's own RNG streams replays **bit-identically** to the synthetic
//! run under `OperatorPolicy::None` — the `arcc-replay` round-trip tests
//! pin exactly that.

use arcc_core::cell_seed;
use arcc_faults::montecarlo::FaultSampler;
use arcc_faults::{
    exp_interarrival, exp_interarrival_from_u, FaultEvent, FaultMode, HOURS_PER_YEAR,
};
use arcc_reliability::{active_at, arrival_is_sdc, detection_time, SchemeCapability};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sched::{EventKind, EventQueue, QueuedEvent};
use crate::source::ReplayArrivals;
use crate::spec::{FleetSpec, OperatorPolicy, SchedulerKind};
use crate::stats::FleetStats;

/// Deterministic per-shard engine telemetry: plain event counts the
/// engine maintains unconditionally (u64 increments, invisible next to
/// the RNG and queue work — the committed `BENCH_fleet` gate pins that).
/// Every field is schedule-invariant: it depends only on the spec, the
/// seed, and the shard's own event stream, never on thread interleaving,
/// so per-shard values merge associatively into byte-identical fleet
/// totals ([`EngineMetrics::record_into`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Events pushed into the shard's queue (post horizon filter).
    pub scheduled: u64,
    /// Events popped and dispatched (including stale ones).
    pub popped: u64,
    /// Popped events dropped because a replacement/retirement bumped the
    /// channel generation after they were scheduled.
    pub stale_dropped: u64,
    /// Channels whose first arrival bypassed the queue entirely (first
    /// draw at/past the horizon, zero-rate or replay-inert channels).
    pub bypass_hits: u64,
    /// Channels that allocated a state slot and entered the queue.
    pub bypass_misses: u64,
    /// Active-fault entries compacted away (cleared transients purged at
    /// arrival under no-repair, or removed by their detection scrub).
    pub compactions: u64,
    /// High-water mark of the event queue's occupancy.
    pub queue_peak: u64,
}

impl EngineMetrics {
    /// Streams the shard's counts into a recorder under the canonical
    /// `fleet.*` metric names. Counters add and the queue-peak gauge
    /// maxes, so recording shards in any grouping yields byte-identical
    /// [`arcc_obs::MetricsSnapshot`]s.
    pub fn record_into(&self, rec: &mut dyn arcc_obs::Recorder) {
        rec.counter_add("fleet.shards", 1);
        rec.counter_add("fleet.events.scheduled", self.scheduled);
        rec.counter_add("fleet.events.popped", self.popped);
        rec.counter_add("fleet.events.stale_dropped", self.stale_dropped);
        rec.counter_add("fleet.bypass.hits", self.bypass_hits);
        rec.counter_add("fleet.bypass.misses", self.bypass_misses);
        rec.counter_add("fleet.compactions", self.compactions);
        rec.gauge_max("fleet.queue.peak", self.queue_peak);
    }
}

/// One fault currently resident in a channel.
#[derive(Debug, Clone)]
struct ActiveFault {
    /// Stable per-channel id; queued detections reference this, so the
    /// list is free to compact (cleared transients are removed outright).
    id: u32,
    event: FaultEvent,
}

/// Live state of one *event-bearing* channel slot — channels whose first
/// arrival falls past the horizon never allocate one. O(1) in fleet size
/// and horizon: an RNG, a handful of flags, and the active fault list,
/// which stays bounded by the channel's *permanent* fault count because
/// cleared transients are compacted away at their detection scrub.
#[derive(Debug)]
struct ChannelState {
    rng: StdRng,
    population: u32,
    /// Bumped on replacement/retirement; queued events carry the
    /// generation they were scheduled under and are dropped when stale.
    generation: u32,
    /// Next stable fault id to hand out.
    next_fault_id: u32,
    faults: Vec<ActiveFault>,
    /// Product of `(1 - affected_fraction)` over detected permanent
    /// faults: `1 - not_upgraded` is the channel's upgraded page mass.
    not_upgraded: f64,
    sdc: bool,
    had_fault: bool,
    had_due: bool,
    /// Set when the channel leaves service early (spare pool dry).
    retired: bool,
    /// Replay mode: index into the replay event array of the next logged
    /// arrival not yet delivered, and the end of this channel's slice.
    /// Both zero (and unused) in synthetic mode.
    replay_next: u32,
    replay_end: u32,
}

impl ChannelState {
    fn fresh(rng: StdRng, population: u32) -> Self {
        Self {
            rng,
            population,
            generation: 0,
            next_fault_id: 0,
            faults: Vec::new(),
            not_upgraded: 1.0,
            sdc: false,
            had_fault: false,
            had_due: false,
            retired: false,
            replay_next: 0,
            replay_end: 0,
        }
    }
}

/// Event-driven simulator for one shard of the fleet.
pub struct ShardEngine<'a> {
    horizon_h: f64,
    policy: OperatorPolicy,
    samplers: Vec<FaultSampler>,
    scrub_h: Vec<f64>,
    /// Per-population SDC-classification capability, derived from each
    /// population's scheme-registry entry.
    caps: Vec<SchemeCapability>,
    /// Per-population superposed channel fault rate (faults/hour).
    rates: Vec<f64>,
    shard_channels: u32,
    /// Sparse channel states: only channels with at least one in-horizon
    /// event own a slot; queued events address slots directly.
    states: Vec<ChannelState>,
    queue: EventQueue,
    seq: u64,
    spares_left: u32,
    /// High-water mark of any channel's active-fault list (compaction
    /// regression guard; observable via [`Self::run_with_peak`] in tests).
    peak_active_faults: usize,
    /// Observed-arrival source; `None` draws arrivals synthetically.
    replay: Option<&'a ReplayArrivals>,
    stats: FleetStats,
    metrics: EngineMetrics,
}

impl<'a> ShardEngine<'a> {
    /// Builds the engine for shard `shard` of `spec` and primes every
    /// channel's first fault arrival — channels whose first draw lands
    /// past the horizon are accounted in bulk and never touch the queue.
    pub fn new(spec: &FleetSpec, shard: u64) -> Self {
        Self::build(spec, shard, None)
    }

    /// Builds the engine in replay mode: arrivals (and the population
    /// assignment) come from the observed `arrivals` set — which the
    /// caller must have [`validated`](ReplayArrivals::validate_for)
    /// against `spec` — while detection, upgrade, and policy simulation
    /// are unchanged.
    pub fn new_replay(spec: &FleetSpec, shard: u64, arrivals: &'a ReplayArrivals) -> Self {
        Self::build(spec, shard, Some(arrivals))
    }

    fn build(spec: &FleetSpec, shard: u64, replay: Option<&'a ReplayArrivals>) -> Self {
        let shard_channels = spec.shard_size(shard);
        let shard_seed = cell_seed(spec.seed, shard);
        let first_channel = shard * spec.shard_channels as u64;
        let samplers: Vec<FaultSampler> = spec
            .populations
            .iter()
            .map(|p| FaultSampler::new(p.geometry, p.rates()))
            .collect();
        let scrub_h: Vec<f64> = spec
            .populations
            .iter()
            .map(|p| p.scrub_interval_h)
            .collect();
        let caps: Vec<SchemeCapability> = spec.populations.iter().map(|p| p.capability()).collect();
        let horizon_h = spec.horizon_hours();
        let rates: Vec<f64> = samplers.iter().map(|s| s.channel_rate_per_hour()).collect();
        // First-arrival skip thresholds: gap >= H iff u >= 1 - exp(-r*H).
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
        // Sizing hints only (never affect results): expected in-horizon
        // faults — the observed count in replay mode, the hottest
        // population's Poisson expectation otherwise — times the events
        // each fault schedules (detections are folded, not queued, under
        // the no-repair policy).
        let max_rate = rates.iter().cloned().fold(0.0f64, f64::max);
        let per_fault_events = if matches!(spec.policy, OperatorPolicy::None) {
            1.3
        } else {
            3.2
        };
        let expected_faults = match replay {
            Some(r) => r.events_in_range(first_channel, shard_channels as u64) as f64,
            None => max_rate * horizon_h * shard_channels as f64,
        };
        let events_hint = (per_fault_events * expected_faults).ceil() as usize;
        let queue = match spec.scheduler {
            SchedulerKind::Heap => EventQueue::heap(),
            SchedulerKind::Bucket => {
                EventQueue::bucket(horizon_h, spec.bucket_width_hours(), events_hint)
            }
        };
        let mut engine = Self {
            horizon_h,
            policy: spec.policy,
            samplers,
            scrub_h,
            caps,
            rates,
            shard_channels,
            states: Vec::new(),
            queue,
            seq: 0,
            spares_left: spec
                .policy
                .spares_for_range(first_channel, shard_channels as u64),
            peak_active_faults: 0,
            replay,
            stats: FleetStats::empty(spec.epochs(), spec.populations.len()),
            metrics: EngineMetrics::default(),
        };
        engine.stats.horizon_hours = horizon_h;
        engine.stats.channels += shard_channels as u64;
        // Reserve for the expected event-bearing channel count (the skip
        // threshold is exactly that probability) to avoid growth copies.
        let max_first_u = first_u.iter().cloned().fold(0.0f64, f64::max);
        engine
            .states
            .reserve((shard_channels as f64 * max_first_u * 1.1) as usize + 8);
        let mut pop_counts = vec![0u64; spec.populations.len()];
        // Replay mode never draws from a channel's RNG (payloads and
        // arrival times all come from the log), so slots share clones of
        // one placeholder stream instead of paying a full seed schedule
        // per event-bearing channel.
        let placeholder_rng = StdRng::seed_from_u64(0);
        for c in 0..shard_channels {
            let global = first_channel + c as u64;
            if let Some(arrivals) = replay {
                // The inventory's assignment, not the spec's weight hash.
                let population = arrivals.population_of(global);
                pop_counts[population] += 1;
                let (start, end) = arrivals.range_of(global);
                if start == end {
                    engine.metrics.bypass_hits += 1;
                    continue; // nothing observed: the channel is inert
                }
                let t = arrivals.events()[start as usize].time_h;
                if t >= horizon_h {
                    engine.metrics.bypass_hits += 1;
                    continue; // whole (time-ordered) stream past the horizon
                }
                engine.metrics.bypass_misses += 1;
                let slot = engine.states.len() as u32;
                let mut state = ChannelState::fresh(placeholder_rng.clone(), population as u32);
                state.replay_next = start;
                state.replay_end = end;
                engine.states.push(state);
                engine.schedule(t, slot, 0, EventKind::Fault);
                continue;
            }
            let population = spec.population_for(global);
            pop_counts[population] += 1;
            let rate = engine.rates[population];
            if rate <= 0.0 {
                engine.metrics.bypass_hits += 1;
                continue;
            }
            let mut rng = StdRng::seed_from_u64(cell_seed(shard_seed, c as u64));
            let u: f64 = rng.gen_range(0.0..1.0);
            if u >= first_u[population] {
                engine.metrics.bypass_hits += 1;
                continue; // first arrival past the horizon: full bypass
            }
            let t = exp_interarrival_from_u(u, rate);
            if t >= horizon_h {
                engine.metrics.bypass_hits += 1;
                continue; // rounding guard at the threshold boundary
            }
            engine.metrics.bypass_misses += 1;
            let slot = engine.states.len() as u32;
            engine
                .states
                .push(ChannelState::fresh(rng, population as u32));
            engine.schedule(t, slot, 0, EventKind::Fault);
        }
        for (p, n) in pop_counts.iter().enumerate() {
            engine.stats.populations[p].channels += n;
        }
        engine
    }

    fn schedule(&mut self, time_h: f64, slot: u32, generation: u32, kind: EventKind) {
        if time_h >= self.horizon_h {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            time_h,
            seq,
            slot,
            generation,
            kind,
        });
        self.metrics.scheduled += 1;
        self.metrics.queue_peak = self.metrics.queue_peak.max(self.queue.len() as u64);
    }

    /// Runs the shard to the horizon and returns its aggregate.
    pub fn run(mut self) -> FleetStats {
        self.drain();
        self.finalize()
    }

    /// Like [`Self::run`], but also returns the shard's deterministic
    /// [`EngineMetrics`], which the fleet runner records in shard order.
    pub fn run_observed(mut self) -> (FleetStats, EngineMetrics) {
        self.drain();
        let metrics = self.metrics;
        (self.finalize(), metrics)
    }

    /// Test observability: like [`Self::run`], but also reports the
    /// active-fault-list high-water mark (the compaction guard).
    #[cfg(test)]
    fn run_with_peak(mut self) -> (FleetStats, usize) {
        self.drain();
        let peak = self.peak_active_faults;
        (self.finalize(), peak)
    }

    fn drain(&mut self) {
        while let Some(ev) = self.queue.pop() {
            self.metrics.popped += 1;
            let state = &self.states[ev.slot as usize];
            if ev.generation != state.generation {
                self.metrics.stale_dropped += 1;
                continue; // scheduled before a replacement/retirement
            }
            match ev.kind {
                EventKind::Fault => self.on_fault(ev.slot, ev.time_h),
                EventKind::Detection { fault_id } => {
                    self.on_detection(ev.slot, ev.time_h, fault_id)
                }
                EventKind::Replacement => self.on_replacement(ev.slot, ev.time_h),
            }
        }
    }

    fn on_fault(&mut self, slot: u32, t: f64) {
        let replay = self.replay;
        let state = &mut self.states[slot as usize];
        let pop = state.population as usize;
        let scrub = self.scrub_h[pop];
        let fault = match replay {
            // Deliver the next logged arrival (its time is this event's
            // fire time) and advance the channel's cursor past it.
            Some(arrivals) => {
                let ev = arrivals.events()[state.replay_next as usize];
                state.replay_next += 1;
                ev
            }
            None => self.samplers[pop].draw_fault(&mut state.rng, t),
        };

        self.stats.faults += 1;
        self.stats.populations[pop].faults += 1;
        let mode_idx = FaultMode::ALL
            .iter()
            .position(|m| *m == fault.mode)
            .expect("every mode is in ALL");
        self.stats.faults_by_mode[mode_idx] += 1;
        if !state.had_fault {
            state.had_fault = true;
            self.stats.channels_with_faults += 1;
        }

        // Compaction (no-repair fast path): under `OperatorPolicy::None`
        // detections are folded into arrival processing below rather than
        // queued, so spent transients — those whose detection scrub has
        // passed, which `active_at` would filter from every future
        // classification anyway — are purged here, keeping the list
        // bounded by the permanent count. Under repair policies the
        // detection event itself removes the transient.
        if matches!(self.policy, OperatorPolicy::None) {
            let before = state.faults.len();
            state
                .faults
                .retain(|a| !a.event.transient || active_at(&a.event, t, scrub));
            self.metrics.compactions += (before - state.faults.len()) as u64;
        }

        // Classify against active earlier faults — the arcc-reliability
        // SDC model, evaluated incrementally via the shared predicate.
        // Once a channel has silently corrupted it is retired from the
        // overlap accounting (the reference Monte Carlo's "machines are
        // retired at their first SDC"), so DUE counts and policy
        // replacements match `run_sdc_monte_carlo`'s bookkeeping exactly.
        let mut due = false;
        if !state.sdc {
            let overlapping: Vec<&FaultEvent> = state
                .faults
                .iter()
                .map(|a| &a.event)
                .filter(|a| active_at(a, t, scrub))
                .filter(|a| a.codeword_overlap(&fault, false))
                .collect();
            if !overlapping.is_empty() {
                if arrival_is_sdc(&self.caps[pop], &overlapping, &fault, scrub) {
                    state.sdc = true;
                    self.stats.sdc_channels += 1;
                    self.stats.populations[pop].sdc_channels += 1;
                } else {
                    due = true;
                }
            }
        }
        if due {
            self.stats.due_events += 1;
            self.stats.populations[pop].due_events += 1;
            if !state.had_due {
                state.had_due = true;
                self.stats.channels_with_due += 1;
            }
        }

        let generation = state.generation;
        let fault_id = state.next_fault_id;
        let fault_transient = fault.transient;
        let fault_mode = fault.mode;
        state.next_fault_id += 1;
        state.faults.push(ActiveFault {
            id: fault_id,
            event: fault,
        });
        self.peak_active_faults = self.peak_active_faults.max(state.faults.len());
        let detect_at = detection_time(t, scrub);
        let next = match replay {
            // The next observed arrival, if any; `INFINITY` is filtered by
            // `schedule`'s horizon check, mirroring the synthetic path's
            // past-horizon draws.
            Some(arrivals) => {
                if state.replay_next < state.replay_end {
                    arrivals.events()[state.replay_next as usize].time_h
                } else {
                    f64::INFINITY
                }
            }
            None => t + exp_interarrival(&mut state.rng, self.rates[pop]),
        };
        let mut fold_upgrade = None;
        if matches!(self.policy, OperatorPolicy::None) {
            // No replacement or retirement can ever intervene under the
            // no-repair policy, so the fault's detection outcome is fully
            // determined right now: fold the scrub bookkeeping in here
            // instead of a queue round-trip. Detections were half of all
            // event traffic, so this halves the hot loop's queue work.
            if detect_at < self.horizon_h {
                self.stats.detections += 1;
                if fault_transient {
                    // Cured by the detecting scrub's write-back; the entry
                    // itself is compacted by the retain() above once its
                    // active window lapses.
                    self.stats.transient_cleared += 1;
                } else if self.caps[pop].adaptive {
                    // Only adaptive schemes escalate detected pages;
                    // static codes carry no upgrade mass.
                    let frac = self.samplers[pop]
                        .geometry()
                        .affected_page_fraction(fault_mode);
                    let before = 1.0 - state.not_upgraded;
                    state.not_upgraded *= 1.0 - frac;
                    let delta = (1.0 - state.not_upgraded) - before;
                    if delta > 0.0 {
                        fold_upgrade = Some(delta);
                    }
                }
            }
        } else {
            self.schedule(
                detect_at,
                slot,
                generation,
                EventKind::Detection { fault_id },
            );
        }
        if let Some(delta) = fold_upgrade {
            self.add_epoch_mass(delta, detect_at);
        }
        self.schedule(next, slot, generation, EventKind::Fault);
        // The DUE is serviced at the scrub that detects it.
        if due && !matches!(self.policy, OperatorPolicy::None) {
            self.schedule(detect_at, slot, generation, EventKind::Replacement);
        }
    }

    fn on_detection(&mut self, slot: u32, t: f64, fault_id: u32) {
        let state = &mut self.states[slot as usize];
        let pop = state.population as usize;
        // Stable-id lookup: compaction may have shifted indices, but an
        // id disappears only with its own detection (or a generation
        // bump, filtered before dispatch), so this finds the fault.
        let Some(idx) = state.faults.iter().position(|a| a.id == fault_id) else {
            return;
        };
        self.stats.detections += 1;
        if state.faults[idx].event.transient {
            // The scrub's corrected write-back cures it; the page was
            // never permanently damaged, so no upgrade — and the entry is
            // compacted away on the spot (this detection *is* the scrub
            // boundary), keeping the active list bounded by the
            // channel's permanent fault count.
            state.faults.remove(idx);
            self.metrics.compactions += 1;
            self.stats.transient_cleared += 1;
            return;
        }
        // Permanent fault: upgrade every page it touches (union via the
        // spared-product form, so overlapping faults never double-count).
        // Static schemes never escalate, so they carry no upgrade mass.
        if !self.caps[pop].adaptive {
            return;
        }
        let frac = self.samplers[pop]
            .geometry()
            .affected_page_fraction(state.faults[idx].event.mode);
        let before = 1.0 - state.not_upgraded;
        state.not_upgraded *= 1.0 - frac;
        let delta = (1.0 - state.not_upgraded) - before;
        if delta > 0.0 {
            self.add_epoch_mass(delta, t);
        }
    }

    fn on_replacement(&mut self, slot: u32, t: f64) {
        if let OperatorPolicy::SparePool { .. } = self.policy {
            if self.spares_left == 0 {
                self.retire(slot, t);
                return;
            }
            self.spares_left -= 1;
            self.stats.spares_consumed += 1;
        }
        let state = &mut self.states[slot as usize];
        let pop = state.population as usize;
        self.stats.replacements += 1;
        self.stats.populations[pop].replacements += 1;
        // The fresh DIMM starts fully relaxed: withdraw the upgraded mass
        // this slot would otherwise have carried to the horizon.
        let upgraded = 1.0 - state.not_upgraded;
        if upgraded > 0.0 {
            self.add_epoch_mass(-upgraded, t);
        }
        let state = &mut self.states[slot as usize];
        state.generation += 1;
        state.faults.clear();
        state.not_upgraded = 1.0;
        let generation = state.generation;
        let rate = self.rates[pop];
        match self.replay {
            // The generation bump above dropped any scheduled-but-unfired
            // arrival; the cursor still points at it (it only advances at
            // delivery), so the fresh DIMM inherits the channel's
            // remaining observed stream from exactly there.
            Some(arrivals) => {
                if state.replay_next < state.replay_end {
                    let next = arrivals.events()[state.replay_next as usize].time_h;
                    self.schedule(next, slot, generation, EventKind::Fault);
                }
            }
            None => {
                if rate > 0.0 {
                    let next = t + exp_interarrival(&mut state.rng, rate);
                    self.schedule(next, slot, generation, EventKind::Fault);
                }
            }
        }
    }

    fn retire(&mut self, slot: u32, t: f64) {
        let state = &mut self.states[slot as usize];
        self.stats.channels_failed += 1;
        let upgraded = 1.0 - state.not_upgraded;
        state.retired = true;
        state.generation += 1; // drop every queued event for this slot
        if upgraded > 0.0 {
            self.add_epoch_mass(-upgraded, t);
        }
        // Service accounting stops now: hours served so far, and the
        // channel's remaining per-epoch service hours are withdrawn.
        self.stats.channel_hours += t;
        self.add_epoch_service(-1.0, t);
    }

    /// Streams `delta` pages-fraction of upgraded mass into every year
    /// epoch from `from_h` to the horizon (time-weighted).
    fn add_epoch_mass(&mut self, delta: f64, from_h: f64) {
        year_weighted_add(
            &mut self.stats.epoch_upgraded_hours,
            self.horizon_h,
            delta,
            from_h,
        );
    }

    /// Streams `delta` channels' worth of in-service hours into every
    /// year epoch from `from_h` to the horizon (`delta = -1.0` withdraws
    /// a retiring channel's remaining service).
    fn add_epoch_service(&mut self, delta: f64, from_h: f64) {
        year_weighted_add(
            &mut self.stats.epoch_service_hours,
            self.horizon_h,
            delta,
            from_h,
        );
    }

    fn finalize(mut self) -> FleetStats {
        // Channels that never retired serve the full horizon: one bulk
        // product instead of per-channel additions (retired channels
        // already streamed their hours at retirement).
        let in_service = self.shard_channels as u64 - self.stats.channels_failed;
        self.stats.channel_hours += in_service as f64 * self.horizon_h;
        // Base per-epoch service: every channel counts in full; the
        // retirement-time withdrawals above already subtracted the lost
        // tails, so the sum is exactly the in-service channel-hours.
        for (y, acc) in self.stats.epoch_service_hours.iter_mut().enumerate() {
            let lo = y as f64 * HOURS_PER_YEAR;
            let hi = ((y + 1) as f64 * HOURS_PER_YEAR).min(self.horizon_h);
            if hi > lo {
                *acc += self.shard_channels as f64 * (hi - lo);
            }
        }
        for state in std::mem::take(&mut self.states) {
            if state.retired {
                continue;
            }
            let upgraded = 1.0 - state.not_upgraded;
            self.stats.upgraded_page_mass += upgraded;
            self.stats.populations[state.population as usize].upgraded_page_mass += upgraded;
        }
        self.stats
    }
}

/// Adds `delta * (hours of year y within [from_h, horizon_h))` to each
/// entry of `acc` — the shared kernel of the upgraded-mass and
/// service-hour epoch histograms. Epochs fully before `from_h`
/// contribute nothing and are skipped.
fn year_weighted_add(acc: &mut [f64], horizon_h: f64, delta: f64, from_h: f64) {
    let first = ((from_h / HOURS_PER_YEAR) as usize).min(acc.len());
    for (y, slot) in acc.iter_mut().enumerate().skip(first) {
        let lo = (y as f64 * HOURS_PER_YEAR).max(from_h);
        let hi = ((y + 1) as f64 * HOURS_PER_YEAR).min(horizon_h);
        if hi > lo {
            *slot += delta * (hi - lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DimmPopulation;

    fn quick_spec(channels: u64, mult: f64) -> FleetSpec {
        FleetSpec::baseline(channels)
            .populations(vec![DimmPopulation::paper("p").rate_multiplier(mult)])
            .shard_channels(channels.max(1) as u32)
    }

    #[test]
    fn shard_runs_are_deterministic() {
        let spec = quick_spec(500, 4.0);
        let a = ShardEngine::new(&spec, 0).run();
        let b = ShardEngine::new(&spec, 0).run();
        assert_eq!(a, b);
        assert_eq!(a.channels, 500);
        assert!(a.faults > 0, "4x rates over 7y must produce faults");
    }

    #[test]
    fn heap_and_bucket_schedulers_agree_bit_for_bit() {
        for mult in [4.0, 30.0] {
            let spec =
                quick_spec(800, mult).policy(OperatorPolicy::SparePool { spares_per_10k: 20 });
            let heap = ShardEngine::new(&spec.clone().scheduler(SchedulerKind::Heap), 0).run();
            let bucket = ShardEngine::new(&spec.scheduler(SchedulerKind::Bucket), 0).run();
            assert!(
                heap.bitwise_eq(&bucket),
                "{mult}x: schedulers diverged: {heap:?} vs {bucket:?}"
            );
        }
    }

    #[test]
    fn fault_count_tracks_poisson_expectation() {
        let spec = quick_spec(4000, 4.0);
        let stats = ShardEngine::new(&spec, 0).run();
        let sampler = FaultSampler::new(spec.populations[0].geometry, spec.populations[0].rates());
        let expect = sampler.expected_faults(spec.horizon_hours()) * 4000.0;
        let got = stats.faults as f64;
        assert!(
            (got - expect).abs() < 0.1 * expect,
            "faults {got} vs expected {expect}"
        );
        // P(>=1 fault) matches 1 - exp(-lambda).
        let p_expect = 1.0 - (-sampler.expected_faults(spec.horizon_hours())).exp();
        let p_got = stats.fault_probability();
        assert!(
            (p_got - p_expect).abs() < 0.02,
            "fault probability {p_got} vs {p_expect}"
        );
    }

    #[test]
    fn transients_clear_and_permanents_upgrade() {
        let spec = quick_spec(3000, 8.0);
        let stats = ShardEngine::new(&spec, 0).run();
        assert!(stats.transient_cleared > 0);
        assert!(stats.detections >= stats.transient_cleared);
        assert!(stats.avg_upgraded_fraction() > 0.0);
        assert!(stats.avg_upgraded_fraction() < 1.0);
        // Epoch histogram is monotone-ish: later years carry at least as
        // much upgraded mass as the first (faults accumulate).
        let by_year = stats.avg_power_overhead_by_year();
        assert_eq!(by_year.len(), 7);
        assert!(by_year[6] > by_year[0]);
    }

    #[test]
    fn active_fault_list_stays_bounded_by_permanents() {
        // One channel, enormous rates: hundreds of faults over the
        // horizon, the majority transient. Compaction keeps the active
        // list near the permanent count; the pre-fix engine (cleared
        // entries retained for index stability) peaked at the *total*
        // arrival count.
        let spec = quick_spec(1, 2000.0);
        let (stats, peak) = ShardEngine::new(&spec, 0).run_with_peak();
        assert!(
            stats.faults > 200,
            "need a busy channel, got {}",
            stats.faults
        );
        assert!(stats.transient_cleared > 50);
        let permanents = (stats.detections - stats.transient_cleared) as usize;
        assert!(
            peak <= permanents + 32,
            "active list peaked at {peak} with only {permanents} permanents: \
             cleared transients are leaking"
        );
        // The pre-fix engine kept every cleared entry, so its peak was the
        // total arrival count; with compaction the cleared transients can
        // never all be resident at once.
        assert!(
            peak + stats.transient_cleared as usize / 2 < stats.faults as usize,
            "peak {peak} tracks total arrivals {} despite {} cleared transients",
            stats.faults,
            stats.transient_cleared
        );
    }

    #[test]
    fn replace_on_due_resets_channels() {
        // High rates make DUE overlaps likely enough to exercise the path.
        let base = quick_spec(3000, 30.0);
        let none = ShardEngine::new(&base, 0).run();
        let replace = ShardEngine::new(&base.clone().policy(OperatorPolicy::ReplaceOnDue), 0).run();
        assert!(none.due_events > 0, "need DUEs to compare policies");
        assert!(replace.replacements > 0);
        assert_eq!(replace.channels_failed, 0);
        // Replacement discards accumulated upgrades, so the replaced fleet
        // ends with at most the unmanaged fleet's upgraded mass.
        assert!(replace.avg_upgraded_fraction() <= none.avg_upgraded_fraction());
    }

    #[test]
    fn spare_pool_exhaustion_fails_channels() {
        // 10/10k over 3000 channels stocks exactly 3 spares; 30x rates
        // raise far more DUEs than that, so the pool must drain fully and
        // then start retiring channels.
        let spec = quick_spec(3000, 30.0).policy(OperatorPolicy::SparePool { spares_per_10k: 10 });
        let stocked = spec.policy.spares_for_range(0, 3000) as u64;
        assert_eq!(stocked, 3);
        let stats = ShardEngine::new(&spec, 0).run();
        assert_eq!(stats.spares_consumed, stocked, "pool must drain fully");
        assert_eq!(stats.replacements, stocked);
        assert!(
            stats.due_events > stocked,
            "need more DUEs ({}) than spares to exercise exhaustion",
            stats.due_events
        );
        assert!(stats.channels_failed > 0, "dry pool must retire channels");
        // Failed channels stop accruing service hours.
        assert!(stats.channel_hours < stats.channels as f64 * spec.horizon_hours());
        // Per-epoch service hours track the same retirements: they sum to
        // the in-service channel-hours...
        let service_sum: f64 = stats.epoch_service_hours.iter().sum();
        assert!(
            (service_sum - stats.channel_hours).abs() <= 1e-6 * stats.channel_hours,
            "epoch service hours {service_sum} vs channel hours {}",
            stats.channel_hours
        );
        // ...and late epochs (after retirements began) must sit below the
        // naive full-fleet denominator.
        let full_year = stats.channels as f64 * HOURS_PER_YEAR;
        assert!(stats.epoch_service_hours[6] < full_year);
        // Power overhead divides by *in-service* hours, so the reported
        // per-year overhead can only be at or above the naive average —
        // strictly above once channels have retired mid-epoch.
        let by_year = stats.avg_power_overhead_by_year();
        for (y, overhead) in by_year.iter().enumerate() {
            let naive = stats.epoch_upgraded_hours[y] / full_year;
            assert!(
                *overhead >= naive - 1e-15,
                "year {y}: overhead {overhead} under naive {naive}"
            );
        }
        assert!(
            by_year[6] > stats.epoch_upgraded_hours[6] / full_year,
            "retired channels must shrink the year-7 denominator"
        );
    }

    #[test]
    fn static_schemes_carry_no_upgrade_mass_and_order_by_detection() {
        let for_scheme = |key: &str| {
            let spec = FleetSpec::baseline(2000)
                .populations(vec![DimmPopulation::paper("p")
                    .rate_multiplier(30.0)
                    .scheme(key)])
                .shard_channels(2000);
            ShardEngine::new(&spec, 0).run()
        };
        let arcc = for_scheme("arcc");
        let sccdcd = for_scheme("sccdcd");
        let s8sc = for_scheme("s8sc");
        let multi_ecc = for_scheme("multi-ecc");
        // Only the adaptive scheme escalates pages.
        assert!(arcc.avg_upgraded_fraction() > 0.0);
        assert_eq!(sccdcd.avg_upgraded_fraction(), 0.0);
        assert_eq!(s8sc.avg_upgraded_fraction(), 0.0);
        // Same seed, same arrivals: classification strength orders SDCs.
        // MultiECC has no detection guarantee, so any overlap escapes;
        // static half-width detect-1 (S8SC) is weaker than ARCC's
        // scrub-gated escalation, which is weaker than always-on DED.
        assert!(multi_ecc.sdc_channels >= s8sc.sdc_channels);
        assert!(s8sc.sdc_channels >= arcc.sdc_channels);
        assert!(arcc.sdc_channels >= sccdcd.sdc_channels);
        assert!(
            multi_ecc.sdc_channels > sccdcd.sdc_channels,
            "30x rates over 2000 channels must separate the extremes"
        );
        // The arrival streams themselves are scheme-independent.
        assert_eq!(arcc.faults, sccdcd.faults);
        assert_eq!(arcc.faults, multi_ecc.faults);
    }

    #[test]
    fn zero_rate_population_is_inert() {
        let spec = quick_spec(100, 0.0);
        let stats = ShardEngine::new(&spec, 0).run();
        assert_eq!(stats.faults, 0);
        assert_eq!(stats.channels, 100);
        assert_eq!(stats.channel_hours, 100.0 * spec.horizon_hours());
        assert_eq!(stats.avg_upgraded_fraction(), 0.0);
    }
}
