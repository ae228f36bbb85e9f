//! Spans recorded by the benchmark's own files around each call into a
//! layer. Spans stay in memory and are written out when the run ends;
//! a layer's self time is its span minus the part of it that child
//! spans cover. No span lives inside any crate of the repo.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one workload run (the workload name is the identifier
/// its spans share).
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer { workload: workload.to_string(), epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent });
        self.spans.len() - 1
    }

    /// Closes `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
        self.spans[id].nanos() as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Records an already-timed call (the sampling loops reuse the two
    /// clock reads they take anyway).
    pub fn record(&mut self, name: &'static str, parent: Option<SpanId>, t0: Instant, t1: Instant) {
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.spans.push(Span { name, start_ns, end_ns, parent });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds of self time per span name: each span's duration minus
    /// the time its direct children cover, summed over spans that share
    /// a name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_nanos(&self.spans).into_iter().map(|(k, v)| (k, v as f64 * 1e-9)).collect()
    }

    /// The trace as one JSON document. Per-call spans of the sampling
    /// loops number in the hundred thousands, so spans that share a
    /// name and parent beyond the first `keep_per_name` are folded into
    /// a `{count, total_ns}` roll-up.
    pub fn to_json(&self, keep_per_name: usize) -> Json {
        let mut kept: BTreeMap<(&'static str, Option<SpanId>), usize> = BTreeMap::new();
        let mut rolled: BTreeMap<(&'static str, Option<SpanId>), (u64, u64)> = BTreeMap::new();
        let mut spans = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let seen = kept.entry((s.name, s.parent)).or_insert(0);
            if *seen < keep_per_name {
                *seen += 1;
                let mut o = Json::obj();
                o.set("id", id).set("name", s.name).set("start_ns", s.start_ns);
                o.set("end_ns", s.end_ns);
                o.set("parent", s.parent.map_or(Json::Null, Json::from));
                spans.push(o);
            } else {
                let r = rolled.entry((s.name, s.parent)).or_insert((0, 0));
                r.0 += 1;
                r.1 += s.nanos();
            }
        }
        let rollups = rolled
            .into_iter()
            .map(|((name, parent), (count, total))| {
                let mut o = Json::obj();
                o.set("name", name).set("parent", parent.map_or(Json::Null, Json::from));
                o.set("count", count).set("total_ns", total);
                o
            })
            .collect();
        let self_time = self.self_seconds().into_iter().fold(Json::obj(), |mut o, (name, secs)| {
            o.set(name, secs);
            o
        });
        let mut doc = Json::obj();
        doc.set("workload", self.workload.as_str())
            .set("spans", Json::Arr(spans))
            .set("rollups", Json::Arr(rollups))
            .set("self_seconds", self_time);
        doc
    }
}

/// Self time per name, in nanoseconds. Children are clipped to their
/// parent's interval, so a child that outlives its parent cannot drive
/// the parent's self time negative.
fn self_nanos(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += s.nanos().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("setup", 0, 1000, None),
            span("partition", 100, 700, Some(0)),
            span("oned", 100, 600, Some(1)),
            span("heuristic", 600, 690, Some(1)),
            span("compile", 700, 950, Some(0)),
            // Same name twice: self times add up.
            span("apply", 2000, 2010, None),
            span("apply", 2010, 2025, None),
        ];
        let t = self_nanos(&spans);
        assert_eq!(t["setup"], 1000 - 600 - 250);
        assert_eq!(t["partition"], 600 - 500 - 90);
        assert_eq!(t["oned"], 500);
        assert_eq!(t["heuristic"], 90);
        assert_eq!(t["compile"], 250);
        assert_eq!(t["apply"], 25);
        // Self times of a tree add back up to the root's duration.
        let tree: u64 =
            ["setup", "partition", "oned", "heuristic", "compile"].map(|n| t[n]).iter().sum();
        assert_eq!(tree, 1000);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("parent", 100, 200, None), span("child", 150, 400, Some(0))];
        let t = self_nanos(&spans);
        assert_eq!(t["parent"], 50);
        assert_eq!(t["child"], 250);
    }

    #[test]
    fn tracer_nests_and_rolls_up() {
        let mut tr = Tracer::new("w");
        let root = tr.open("root", None);
        let ((), secs) = tr.within("leaf", Some(root), || std::hint::black_box(()));
        assert!(secs >= 0.0);
        for _ in 0..5 {
            let t0 = Instant::now();
            tr.record("call", Some(root), t0, Instant::now());
        }
        tr.close(root);
        assert_eq!(tr.len(), 7);
        let doc = tr.to_json(2);
        assert_eq!(doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        let roll = &doc.get("rollups").and_then(Json::as_arr).expect("rollups")[0];
        assert_eq!(roll.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(Json::parse(&doc.to_pretty()).expect("trace must parse"), doc);
    }
}
