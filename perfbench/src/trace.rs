//! In-memory span tracing from outside the crates: the benchmark wraps
//! each call into a layer in a span (name, start, end, parent), keeps the
//! spans in memory, and writes them out when the run ends. A disabled
//! tracer runs the same closures without recording anything, so traced
//! and untraced runs share one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `replay.parse`.
    pub name: &'static str,
    /// Start offset in ns.
    pub start_ns: u64,
    /// End offset in ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder (see the module docs).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the current one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.offset_ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.offset_ns(Instant::now());
        out
    }

    /// Records a finished span timed elsewhere (on a worker thread) as a
    /// child of the current span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.offset_ns(start),
                end_ns: self.offset_ns(end),
                parent: self.stack.last().copied(),
            });
        }
    }

    /// Per-name summaries: count, total, percentiles and self time.
    pub fn summarize(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<u64>, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.duration_ns());
            entry.1 += s.duration_ns() - covered;
        }
        by_name
            .into_iter()
            .map(|(name, (mut durations, self_ns))| {
                durations.sort_unstable();
                let summary = SpanSummary {
                    count: durations.len() as u64,
                    total_ns: durations.iter().sum(),
                    p50_ns: percentile(&durations, 50),
                    p90_ns: percentile(&durations, 90),
                    max_ns: durations.last().copied().unwrap_or(0),
                    self_ns,
                };
                (name, summary)
            })
            .collect()
    }

    /// The spans as tab-separated text: `id parent name start_ns end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSummary {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Median duration.
    pub p50_ns: u64,
    /// 90th-percentile duration.
    pub p90_ns: u64,
    /// Longest duration.
    pub max_ns: u64,
    /// Sum of durations minus the part of each covered by its children.
    pub self_ns: u64,
}

/// Nearest-rank percentile of sorted values (0 when empty).
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median of samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut iv = vec![(10, 30), (20, 40), (90, 120)];
        assert_eq!(covered_ns(0, 100, &mut iv), 40);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50), 5);
        assert_eq!(percentile(&v, 90), 9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_still_runs_the_body() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans.is_empty());
        let mut t = Tracer::on();
        t.span("x", |t| t.span("y", |_| ()));
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
