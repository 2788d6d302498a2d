//! Seeded input generation. Everything the system under test sees is a
//! pure function of the workload's [`Scale`] and the `--seed`: the same
//! pair always yields byte-identical fault-log segments, fleet specs and
//! codec payloads.

use arcc_fleet::{DimmPopulation, FleetSpec, OperatorPolicy, DEFAULT_SHARD_CHANNELS};
use arcc_gf::codec::codec_registry;
use arcc_replay::{generate_log, FaultLog};

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Channels in the twin session's fault log.
    pub twin_channels: u64,
    /// Equal segments the log is ingested in.
    pub twin_segments: usize,
    /// Channels per checkpoint shard of the twin.
    pub shard_channels: u32,
    /// Channels of the synthetic fleet run.
    pub fleet_channels: u64,
    /// Payload lines generated per codec.
    pub codec_lines: usize,
}

impl Scale {
    /// The sizes of a named `BENCHMARK.json` workload.
    pub fn for_workload(name: &str) -> Option<Scale> {
        let long = Scale {
            twin_channels: 512_000,
            twin_segments: 32,
            shard_channels: DEFAULT_SHARD_CHANNELS,
            fleet_channels: 2_500_000,
            codec_lines: 4096,
        };
        match name {
            "log-512k" => Some(long),
            // The same 16k-channel segments over a quarter of the history.
            "log-128k" => Some(Scale {
                twin_channels: long.twin_channels / 4,
                twin_segments: long.twin_segments / 4,
                ..long
            }),
            _ => None,
        }
    }
}

/// The three `fleet_mixed_population` classes (cold, warm, hot).
pub fn mixed_populations() -> Vec<DimmPopulation> {
    vec![
        DimmPopulation::paper("cold_1x").weight(0.6).cores(4),
        DimmPopulation::paper("warm_2x")
            .weight(0.3)
            .rate_multiplier(2.0)
            .cores(8),
        DimmPopulation::paper("hot_4x")
            .weight(0.1)
            .rate_multiplier(4.0)
            .scrub_interval_h(2.0)
            .cores(16),
    ]
}

/// SplitMix64: the seed mixer for every derived stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault log cut into ingest segments, plus the seed the twin engine
/// stamps into its replay specs.
pub struct TwinInput {
    /// Engine seed (part of every checkpoint fingerprint).
    pub engine_seed: u64,
    /// Checkpoint shard size.
    pub shard_channels: u32,
    /// The whole log, for the from-zero oracle.
    pub log: FaultLog,
    /// Segment documents in ingest order.
    pub segments: Vec<String>,
    /// Lines per segment (the `ingest lines=<n>` framing).
    pub segment_lines: Vec<usize>,
}

/// Generates the twin session's log from `seed`.
pub fn twin_input(seed: u64, scale: &Scale) -> TwinInput {
    let spec = FleetSpec::baseline(scale.twin_channels)
        .years(7.0)
        .populations(mixed_populations())
        .seed(splitmix64(seed ^ 0x7715_0001));
    let log = generate_log(&spec);
    let per_segment = (log.dimms.len() / scale.twin_segments).max(1);
    let segments: Vec<String> = log
        .split_channels(per_segment)
        .iter()
        .map(FaultLog::to_text)
        .collect();
    let segment_lines = segments.iter().map(|s| s.lines().count()).collect();
    TwinInput {
        engine_seed: splitmix64(seed ^ 0x7715_0002),
        shard_channels: scale.shard_channels,
        log,
        segments,
        segment_lines,
    }
}

/// The synthetic fleet: the mixed classes under a 20-per-10k spare pool.
pub fn fleet_spec(seed: u64, scale: &Scale) -> FleetSpec {
    FleetSpec::baseline(scale.fleet_channels)
        .years(7.0)
        .populations(mixed_populations())
        .policy(OperatorPolicy::SparePool { spares_per_10k: 20 })
        .seed(splitmix64(seed ^ 0xF1EE_0003))
}

/// One codec's payload lines and the device each one-error line kills.
pub struct CodecInput {
    /// Payload bytes per line.
    pub data_bytes: usize,
    /// `lines * data_bytes` payload bytes.
    pub payload: Vec<u8>,
    /// Per line: the device to kill and its stuck-at value.
    pub kills: Vec<(usize, u8)>,
}

impl CodecInput {
    /// Payload lines held.
    pub fn lines(&self) -> usize {
        self.kills.len()
    }

    /// Payload of line `i`.
    pub fn line(&self, i: usize) -> &[u8] {
        &self.payload[i * self.data_bytes..(i + 1) * self.data_bytes]
    }
}

/// Generates payload lines for every registry codec from `seed`.
pub fn codec_inputs(seed: u64, scale: &Scale) -> Vec<CodecInput> {
    codec_registry()
        .iter()
        .enumerate()
        .map(|(index, codec)| {
            let mut state = splitmix64(seed ^ 0xC0DE_0000 ^ index as u64);
            let mut next = || {
                state = splitmix64(state);
                state
            };
            let data_bytes = codec.data_bytes();
            let payload = (0..scale.codec_lines * data_bytes)
                .map(|_| next() as u8)
                .collect();
            let devices = codec.devices() as u64;
            let kills = (0..scale.codec_lines)
                .map(|_| ((next() % devices) as usize, next() as u8))
                .collect();
            CodecInput {
                data_bytes,
                payload,
                kills,
            }
        })
        .collect()
}

/// A digest of every generated input, for the determinism self-tests and
/// the run record.
pub fn digest(twin: &TwinInput, fleet: &FleetSpec, codecs: &[CodecInput]) -> u64 {
    let mut h = splitmix64(twin.engine_seed ^ u64::from(twin.shard_channels));
    let mix_bytes = |h: &mut u64, bytes: &[u8]| {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            *h = splitmix64(*h ^ u64::from_le_bytes(word));
        }
    };
    for segment in &twin.segments {
        mix_bytes(&mut h, segment.as_bytes());
    }
    h = splitmix64(h ^ fleet.fingerprint());
    for c in codecs {
        mix_bytes(&mut h, &c.payload);
        for &(device, value) in &c.kills {
            h = splitmix64(h ^ ((device as u64) << 8) ^ u64::from(value));
        }
    }
    h
}
