//! The `codec-zoo` phase: every registry codec over seeded payload lines,
//! in three passes — encode + clean decode, encode + one killed device +
//! decode + data check, and detect.

use std::time::Instant;

use arcc_gf::chipkill::EncodedLine;
use arcc_gf::codec::Codec;

use crate::inputs::CodecInput;
use crate::trace::Tracer;

/// Lines per batch (and per span in a traced pass).
pub const BATCH: usize = 64;

/// The three passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Encode, then decode the untouched line.
    Clean,
    /// Encode, kill one seeded device, decode, check the data.
    OneError,
    /// Encode, detect on the clean line, kill one device, detect again.
    Detect,
}

/// Span names of one codec (`codec.<name>.<op>`).
#[derive(Debug, Clone, Copy)]
pub struct SpanNames {
    /// Encode of a batch.
    pub encode: &'static str,
    /// Decode of a clean batch.
    pub decode_clean: &'static str,
    /// Decode of a batch with one dead device per line.
    pub decode_1err: &'static str,
    /// Detect over a batch.
    pub detect: &'static str,
}

impl SpanNames {
    /// Names for `codec` (built once per codec for the process).
    pub fn of(codec: &str) -> Self {
        let name = |op: &str| -> &'static str {
            Box::leak(format!("codec.{codec}.{op}").into_boxed_str())
        };
        Self {
            encode: name("encode"),
            decode_clean: name("decode_clean"),
            decode_1err: name("decode_1err"),
            detect: name("detect"),
        }
    }
}

/// Outcome counts of a pass; traced and untraced passes over the same
/// lines must agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Line operations (decodes or detects) attempted.
    pub attempted: u64,
    /// Unexpected errors (`RsError` on encode, `LineError` where the
    /// codec guarantees correction).
    pub failed: u64,
    /// Oracle violations (includes every failure).
    pub mismatches: u64,
    /// Lines whose payload came back intact.
    pub recovered: u64,
    /// Detect calls that flagged an error.
    pub detected: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.recovered += o.recovered;
        self.detected += o.detected;
    }
}

/// Runs `pass` over `count` lines starting at pool line `first`
/// (wrapping), in batches of [`BATCH`].
pub fn run_pass(
    t: &mut Tracer,
    names: &SpanNames,
    codec: &dyn Codec,
    input: &CodecInput,
    pass: Pass,
    first: usize,
    count: usize,
) -> Tally {
    let mut tally = Tally::default();
    let guarantees = codec.guarantees();
    let mut done = 0;
    while done < count {
        let n = BATCH.min(count - done);
        let index = |k: usize| (first + done + k) % input.lines();
        let encoded: Vec<_> = t.span(names.encode, |_| {
            (0..n).map(|k| codec.encode(input.line(index(k)))).collect()
        });
        let mut lines: Vec<EncodedLine> = Vec::with_capacity(n);
        for r in encoded {
            match r {
                Ok(line) => lines.push(line),
                Err(_) => {
                    tally.failed += 1;
                    tally.mismatches += 1;
                }
            }
        }
        let kill = |lines: &mut [EncodedLine]| {
            for (k, line) in lines.iter_mut().enumerate() {
                let (device, value) = input.kills[index(k)];
                line.kill_device(device, value);
            }
        };
        match pass {
            Pass::Clean | Pass::OneError => {
                let name = if pass == Pass::Clean {
                    names.decode_clean
                } else {
                    kill(&mut lines);
                    names.decode_1err
                };
                let outcomes: Vec<_> = t.span(name, |_| {
                    lines
                        .iter_mut()
                        .map(|line| codec.decode(line, &[]))
                        .collect()
                });
                for (k, (line, outcome)) in lines.iter().zip(outcomes).enumerate() {
                    tally.attempted += 1;
                    let ok = match pass {
                        Pass::Clean => outcome.as_ref().is_ok_and(|o| o.is_clean()),
                        _ => outcome.is_ok() && codec.extract_data(line) == input.line(index(k)),
                    };
                    tally.recovered += u64::from(ok);
                    let promised = pass == Pass::Clean || guarantees.correct >= 1;
                    if promised && !ok {
                        tally.mismatches += 1;
                        tally.failed += u64::from(outcome.is_err());
                    }
                }
            }
            Pass::Detect => {
                let clean: Vec<bool> = t.span(names.detect, |_| {
                    lines.iter().map(|line| codec.detect(line)).collect()
                });
                let before: Vec<EncodedLine> = lines.clone();
                kill(&mut lines);
                let dirty: Vec<bool> = t.span(names.detect, |_| {
                    lines.iter().map(|line| codec.detect(line)).collect()
                });
                for ((flag_clean, flag_dirty), (old, new)) in
                    clean.into_iter().zip(dirty).zip(before.iter().zip(&lines))
                {
                    tally.attempted += 2;
                    tally.detected += u64::from(flag_clean) + u64::from(flag_dirty);
                    let changed = old != new;
                    let missed = changed && !flag_dirty && guarantees.detect >= 1;
                    if flag_clean || missed {
                        tally.mismatches += 1;
                    }
                }
            }
        }
        done += n;
    }
    tally
}

/// Runs `pass` in whole batches for at least `seconds` and returns lines
/// per second, advancing `cursor` through the pool.
pub fn lines_per_second(
    names: &SpanNames,
    codec: &dyn Codec,
    input: &CodecInput,
    pass: Pass,
    seconds: f64,
    cursor: &mut usize,
    tally: &mut Tally,
) -> f64 {
    let mut off = Tracer::off();
    let start = Instant::now();
    let mut lines = 0usize;
    loop {
        tally.add(&run_pass(
            &mut off, names, codec, input, pass, *cursor, BATCH,
        ));
        *cursor = (*cursor + BATCH) % input.lines();
        lines += BATCH;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            return lines as f64 / elapsed;
        }
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
