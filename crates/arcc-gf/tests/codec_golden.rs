//! Codec-level golden digest: every registry codec's observable outcomes,
//! folded into one `u64`.
//!
//! For each codec and each of [`PAYLOADS`] seeded payloads, six scenarios
//! run on a fresh encode: the clean line, one killed device, two and three
//! corrupted devices, one declared erasure plus one fresh bad device, and
//! two or three single-symbol errors scattered over distinct devices.
//! Each scenario folds in the encoded bytes, `detect` before and after the
//! corruption, the `decode` result (its `Debug` text, so every field of
//! `LineOutcome` / `LineError` counts) and the bytes after decode.
//!
//! This pins the scheme-level postprocessing (S8SC's single-chip rule,
//! QPC's chip grouping, MultiECC's trial decode, the two-tier erasure
//! conversion) that the RS-level differential tests cannot see. The
//! constant changes only in a change that means to change codec outcomes.

use arcc_gf::codec::{codec_registry, Codec};

/// Seeded payloads per codec.
const PAYLOADS: u64 = 256;

/// The digest every codec outcome must reproduce.
const GOLDEN: u64 = 0x5a07_6ebe_922a_7a51;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A running splitmix fold.
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        self.0 = splitmix64(self.0 ^ w);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }
}

/// A seeded stream of draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// `count` distinct devices below `devices`.
    fn devices(&mut self, devices: usize, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let d = (self.next() % devices as u64) as usize;
            if !out.contains(&d) {
                out.push(d);
            }
        }
        out
    }

    /// A non-zero XOR pattern.
    fn xor(&mut self) -> u8 {
        (self.next() % 255 + 1) as u8
    }
}

/// Folds every scenario of one codec.
fn codec_digest(index: usize, codec: &dyn Codec) -> u64 {
    let mut fold = Fold(splitmix64(index as u64));
    for payload in 0..PAYLOADS {
        let mut draws = Draws(splitmix64((index as u64) << 32 ^ payload));
        let data: Vec<u8> = (0..codec.data_bytes())
            .map(|_| draws.next() as u8)
            .collect();
        for scenario in 0..6 {
            let clean = match codec.encode(&data) {
                Ok(line) => line,
                Err(e) => {
                    fold.bytes(format!("{e:?}").as_bytes());
                    continue;
                }
            };
            fold.bytes(clean.raw_symbols());
            fold.word(u64::from(codec.detect(&clean)));
            let mut line = clean.clone();
            let mut erased = Vec::new();
            match scenario {
                0 => {}
                1 => {
                    let d = draws.devices(codec.devices(), 1)[0];
                    line.kill_device(d, draws.next() as u8);
                }
                2 | 3 => {
                    for d in draws.devices(codec.devices(), scenario) {
                        line.corrupt_device(d, draws.xor());
                    }
                }
                4 => {
                    let pair = draws.devices(codec.devices(), 2);
                    line.kill_device(pair[0], draws.next() as u8);
                    line.corrupt_device(pair[1], draws.xor());
                    erased.push(pair[0]);
                }
                _ => {
                    // Each beat's codeword may correct its own symbol, but
                    // no single chip explains the line: S8SC and QPC police
                    // such patterns.
                    let count = 2 + (draws.next() % 2) as usize;
                    for d in draws.devices(codec.devices(), count) {
                        let beat = (draws.next() % codec.beats() as u64) as usize;
                        line.corrupt_symbol(d, beat, draws.xor());
                    }
                }
            }
            fold.word(u64::from(codec.detect(&line)));
            let result = codec.decode(&mut line, &erased);
            fold.bytes(format!("{result:?}").as_bytes());
            fold.bytes(line.raw_symbols());
        }
    }
    fold.0
}

#[test]
fn codec_outcomes_match_the_golden_digest() {
    let mut total = Fold(0);
    let mut per_codec = Vec::new();
    for (index, codec) in codec_registry().iter().enumerate() {
        let d = codec_digest(index, codec.as_ref());
        per_codec.push(format!("{}={d:#018x}", codec.name()));
        total.word(d);
    }
    assert_eq!(
        total.0,
        GOLDEN,
        "codec outcomes moved: digest {:#018x} ({})",
        total.0,
        per_codec.join(", ")
    );
}
