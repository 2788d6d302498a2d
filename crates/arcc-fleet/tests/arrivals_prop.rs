//! Incremental arrival sets equal one-shot ones. A set grown segment by
//! segment through `ReplayArrivals::extend` must equal the set built in
//! one `ReplayArrivals::new` call, rolling fingerprint states included,
//! and every prefix fingerprint must equal the fingerprint of a set built
//! from that prefix alone. Segments grouped from interleaved
//! `(channel, event)` pairs by `ArrivalCsr::group` equal those laid out
//! from per-channel lists.

use arcc_faults::montecarlo::FaultSampler;
use arcc_faults::{FaultEvent, FaultGeometry, FitRates};
use arcc_fleet::{ArrivalCsr, ReplayArrivals};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `counts[c]` arrivals on channel `c`, drawn from `seed` in time order.
fn streams(seed: u64, counts: &[usize]) -> Vec<Vec<FaultEvent>> {
    let sampler = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
    let mut rng = StdRng::seed_from_u64(seed);
    counts
        .iter()
        .enumerate()
        .map(|(c, &n)| {
            (0..n)
                .map(|i| sampler.draw_fault(&mut rng, (c * 10 + i) as f64 * 7.5))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extended_sets_equal_one_shot_sets(
        seed in any::<u64>(),
        channels in proptest::collection::vec((0u32..3, 0usize..4), 0..40),
        cuts in proptest::collection::vec(0usize..40, 0..6),
    ) {
        let populations: Vec<u32> = channels.iter().map(|&(p, _)| p).collect();
        let counts: Vec<usize> = channels.iter().map(|&(_, n)| n).collect();
        let per_channel = streams(seed, &counts);
        let oneshot = ReplayArrivals::new(populations.clone(), per_channel.clone())
            .expect("valid arrivals");

        // Segment boundaries: the sorted, clamped cut points.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(channels.len())).collect();
        bounds.push(channels.len());
        bounds.sort_unstable();
        let mut grown = ReplayArrivals::new(Vec::new(), Vec::new()).expect("empty");
        let mut start = 0;
        for end in bounds {
            let segment = &per_channel[start..end];
            // The segment's events tagged with their channel, round robin
            // across channels, so every channel's events are interleaved
            // with the others'.
            let mut tagged = Vec::new();
            for i in 0..segment.iter().map(Vec::len).max().unwrap_or(0) {
                for (c, stream) in segment.iter().enumerate() {
                    if let Some(&ev) = stream.get(i) {
                        tagged.push((c as u32, ev));
                    }
                }
            }
            let batch = ArrivalCsr::group(segment.len(), &tagged);
            prop_assert_eq!(&batch, &ArrivalCsr::from_streams(segment.to_vec()));
            grown
                .extend(populations[start..end].to_vec(), batch)
                .expect("extend");
            start = end;
        }
        prop_assert_eq!(&grown, &oneshot);

        for k in 0..=channels.len() {
            let prefix = ReplayArrivals::new(populations[..k].to_vec(), per_channel[..k].to_vec())
                .expect("prefix");
            prop_assert_eq!(grown.fingerprint_prefix(k as u64), oneshot.fingerprint_prefix(k as u64));
            prop_assert_eq!(oneshot.fingerprint_prefix(k as u64), prefix.fingerprint());
        }
    }
}
