//! The traced pass's bookkeeping: phase spans and per-step histograms.
//!
//! Spans wrap each phase-level call into a layer (name, start, end,
//! parent, rep id) and stay in memory until the run ends. Engine steps
//! are far too many for one span each, so they go into log-bucket
//! histograms per step class instead. Nothing here is touched by the
//! untraced reps.

use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Identifier shared by the spans of one rep.
    pub rep: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name);
        let r = f();
        (r, self.exit(id))
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("rep", Json::Num(f64::from(s.rep))),
                    ])
                })
                .collect(),
        )
    }
}

/// Sub-buckets per power of two: quantiles read back within 1/16.
const SUB_BITS: u32 = 3;

/// Log-bucket histogram of durations in nanoseconds, with the exact
/// count and sum kept beside the buckets.
#[derive(Default, Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    pub count: u64,
    pub sum_ns: u64,
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        let sub = 1u64 << SUB_BITS;
        if ns < sub {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + ((ns >> shift) & (sub - 1)) as usize
    }

    /// The inclusive range of values that land in bucket `b`.
    fn bounds(b: usize) -> (u64, u64) {
        let sub = 1usize << SUB_BITS;
        if b < sub {
            return (b as u64, b as u64);
        }
        let shift = (b >> SUB_BITS) as u32 - 1;
        let lo = ((sub + (b & (sub - 1))) as u64) << shift;
        (lo, lo + (1u64 << shift) - 1)
    }

    pub fn record(&mut self, ns: u64) {
        let b = Hist::bucket(ns);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// The `q`-quantile in nanoseconds (midpoint of the bucket holding
    /// it); 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = Hist::bounds(b);
                return (lo + hi) as f64 / 2.0;
            }
        }
        unreachable!("rank <= count")
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum_ns", Json::Num(self.sum_ns as f64)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(b, &n)| {
                            Json::Arr(vec![
                                Json::Num(Hist::bounds(b).0 as f64),
                                Json::Num(n as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
