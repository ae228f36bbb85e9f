//! The [`ExecutionReport`]: a [`TelemetrySink`](crate::TelemetrySink)
//! condensed into the observed-side counterpart of
//! `PartitionQuality` — per-rank × per-phase times, observed load
//! imbalance, and (when a model prediction is attached)
//! observed-vs-modeled ratio columns scoring the α–β / LogGP models.

use crate::{Json, Phase, ServeSnapshot, TelemetrySink};

/// One phase's recorded time on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTimes {
    /// Total nanoseconds across all spans.
    pub nanos: u64,
    /// Number of spans.
    pub spans: u64,
    /// Log₂ duration histogram, trimmed after the last non-empty
    /// bucket (empty when no spans were recorded); bucket `i` counts
    /// spans whose nanosecond duration has bit length `i`.
    pub hist: Vec<u64>,
}

/// One rank's full telemetry row.
#[derive(Clone, Debug, PartialEq)]
pub struct RankReport {
    /// The rank.
    pub rank: usize,
    /// Per-phase times, indexed like [`Phase::all`].
    pub phases: Vec<PhaseTimes>,
    /// Rows emitted (× iterations × batch width).
    pub rows: u64,
    /// Multiply-adds executed.
    pub madds: u64,
    /// Words staged into communication buffers.
    pub comm_words: u64,
}

/// The model-side prediction an [`ExecutionReport`] is scored against
/// (typically lifted from `PartitionQuality`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelRef {
    /// Predicted communication volume per iteration, in words.
    pub comm_words: u64,
    /// Predicted per-iteration time under the α–β model, seconds.
    pub alpha_beta_secs: f64,
    /// Predicted per-iteration time under the LogGP model, seconds.
    pub loggp_secs: f64,
}

/// Observed-vs-modeled scoring, the report's headline columns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelComparison {
    /// Modeled communication words per iteration.
    pub modeled_comm_words: u64,
    /// Observed / modeled comm words (≈ batch width when the staged
    /// exchange moves exactly the modeled volume per column).
    pub words_ratio: f64,
    /// Modeled α–β per-iteration seconds.
    pub alpha_beta_secs: f64,
    /// Modeled LogGP per-iteration seconds.
    pub loggp_secs: f64,
    /// Observed per-iteration seconds / α–β prediction.
    pub alpha_beta_ratio: f64,
    /// Observed per-iteration seconds / LogGP prediction.
    pub loggp_ratio: f64,
}

/// Everything one instrumented run observed, ready to print or export.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionReport {
    /// Backend label the run executed on.
    pub backend: String,
    /// Number of ranks.
    pub k: usize,
    /// Engine iterations accounted.
    pub iterations: u64,
    /// Wall nanoseconds inside instrumented executions.
    pub wall_nanos: u64,
    /// Per-rank telemetry rows.
    pub ranks: Vec<RankReport>,
    /// Observed load imbalance: max/mean per-rank compute time over
    /// ranks that recorded compute spans (1.0 when fewer than two
    /// ranks did).
    pub load_imbalance: f64,
    /// Observed staged communication words per iteration.
    pub comm_words_per_iter: f64,
    /// Observed-vs-modeled scoring, when a prediction was attached.
    pub model: Option<ModelComparison>,
    /// Serving-layer counters, when the run went through `s2d-serve`
    /// (attach with [`ExecutionReport::with_serve`]).
    pub serve: Option<ServeSnapshot>,
    /// Per-worker loads, when the run executed on the worker pool
    /// (attach with [`ExecutionReport::with_workers`]).
    pub workers: Option<WorkerLoadReport>,
}

/// Per-worker multiply-add loads on the worker pool.
///
/// Each pool worker owns whole ranks, fixed at build time and identical
/// every iteration, so the planned loads *are* the achieved loads — no
/// per-iteration counters needed. `phases[p][w]` is the stored work
/// worker `w` executes in compute phase `p` per iteration (SELL padding
/// included: it is work the core performs even though
/// [`RankReport::madds`] never counts it).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerLoadReport {
    /// Multiply-adds executed by each worker per iteration, one row per
    /// compute phase.
    pub phases: Vec<Vec<u64>>,
}

impl WorkerLoadReport {
    /// Wraps the per-phase, per-worker load table.
    pub fn new(phases: Vec<Vec<u64>>) -> WorkerLoadReport {
        WorkerLoadReport { phases }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.phases.first().map_or(0, Vec::len)
    }

    /// Multiply-adds each worker executes per iteration, over all
    /// compute phases.
    pub fn madds(&self) -> Vec<u64> {
        (0..self.workers()).map(|w| self.phases.iter().map(|row| row[w]).sum()).collect()
    }

    /// Planned load imbalance: Σ over compute phases of the max worker
    /// multiply-adds over Σ of the mean (1.0 for fewer than two workers
    /// or an all-zero plan). Phases are separated by barriers, so a
    /// worker idle in one phase cannot make up for it in the next.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.phases.iter().flatten().sum();
        if self.workers() < 2 || total == 0 {
            return 1.0;
        }
        let max: u64 = self.phases.iter().filter_map(|row| row.iter().max()).sum();
        max as f64 * self.workers() as f64 / total as f64
    }

    /// One JSON object: the planned imbalance and the per-worker totals.
    pub fn to_json(&self) -> Json {
        Json::obj().set("imbalance", Json::fixed(self.imbalance(), 4)).set("madds", self.madds())
    }
}

fn ratio(observed: f64, modeled: f64) -> f64 {
    if modeled > 0.0 {
        observed / modeled
    } else {
        0.0
    }
}

impl ExecutionReport {
    /// Condenses `sink` into a report, scoring it against `model` when
    /// a prediction is available.
    pub fn collect(
        sink: &TelemetrySink,
        backend: &str,
        model: Option<ModelRef>,
    ) -> ExecutionReport {
        let ranks: Vec<RankReport> = (0..sink.k())
            .map(|rk| {
                let rec = sink.rank(rk);
                let phases = Phase::all()
                    .into_iter()
                    .map(|ph| {
                        let mut hist: Vec<u64> = rec.histogram(ph).to_vec();
                        while hist.last() == Some(&0) {
                            hist.pop();
                        }
                        PhaseTimes { nanos: rec.nanos(ph), spans: rec.spans(ph), hist }
                    })
                    .collect();
                RankReport {
                    rank: rk,
                    phases,
                    rows: rec.rows(),
                    madds: rec.madds(),
                    comm_words: rec.comm_words(),
                }
            })
            .collect();
        let compute: Vec<u64> = ranks
            .iter()
            .filter(|r| r.phases[Phase::Compute.index()].spans > 0)
            .map(|r| r.phases[Phase::Compute.index()].nanos)
            .collect();
        let load_imbalance = if compute.len() >= 2 {
            let max = *compute.iter().max().expect("nonempty") as f64;
            let mean = compute.iter().sum::<u64>() as f64 / compute.len() as f64;
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        } else {
            1.0
        };
        let iterations = sink.iterations();
        let total_words: u64 = ranks.iter().map(|r| r.comm_words).sum();
        let comm_words_per_iter =
            if iterations > 0 { total_words as f64 / iterations as f64 } else { 0.0 };
        let report = ExecutionReport {
            backend: backend.to_string(),
            k: sink.k(),
            iterations,
            wall_nanos: sink.wall_nanos(),
            ranks,
            load_imbalance,
            comm_words_per_iter,
            model: None,
            serve: None,
            workers: None,
        };
        let model = model.map(|m| ModelComparison {
            modeled_comm_words: m.comm_words,
            words_ratio: ratio(comm_words_per_iter, m.comm_words as f64),
            alpha_beta_secs: m.alpha_beta_secs,
            loggp_secs: m.loggp_secs,
            alpha_beta_ratio: ratio(report.iter_secs(), m.alpha_beta_secs),
            loggp_ratio: ratio(report.iter_secs(), m.loggp_secs),
        });
        ExecutionReport { model, ..report }
    }

    /// Attaches a serving-layer snapshot: the serve section then shows
    /// in [`ExecutionReport::render`] and [`ExecutionReport::to_json`].
    /// Reports without one render and serialize exactly as before.
    pub fn with_serve(mut self, serve: ServeSnapshot) -> ExecutionReport {
        self.serve = Some(serve);
        self
    }

    /// Attaches the pool's per-worker load vector: the workers line
    /// then shows in [`ExecutionReport::render`] and the `workers` key
    /// in [`ExecutionReport::to_json`]. Reports without one render and
    /// serialize exactly as before.
    pub fn with_workers(mut self, workers: WorkerLoadReport) -> ExecutionReport {
        self.workers = Some(workers);
        self
    }

    /// Observed seconds per engine iteration (0 when none ran).
    pub fn iter_secs(&self) -> f64 {
        if self.iterations > 0 {
            self.wall_nanos as f64 / self.iterations as f64 / 1e9
        } else {
            0.0
        }
    }

    /// The report as one JSON object (stable key set — see the schema
    /// test).
    pub fn to_json(&self) -> Json {
        let model = self.model.map(|m| {
            Json::obj()
                .set("modeled_comm_words", m.modeled_comm_words)
                .set("words_ratio", Json::fixed(m.words_ratio, 4))
                .set("alpha_beta_s", m.alpha_beta_secs)
                .set("loggp_s", m.loggp_secs)
                .set("alpha_beta_ratio", Json::fixed(m.alpha_beta_ratio, 4))
                .set("loggp_ratio", Json::fixed(m.loggp_ratio, 4))
        });
        let ranks = self.ranks.iter().map(|r| {
            let phases = Phase::all().map(|ph| {
                let pt = &r.phases[ph.index()];
                Json::obj()
                    .set("phase", ph.label())
                    .set("ns", pt.nanos)
                    .set("spans", pt.spans)
                    .set("hist", pt.hist.clone())
            });
            Json::obj()
                .set("rank", r.rank)
                .set("rows", r.rows)
                .set("madds", r.madds)
                .set("comm_words", r.comm_words)
                .set("phases", Vec::from(phases))
        });
        let mut doc = Json::obj()
            .set("backend", self.backend.as_str())
            .set("k", self.k)
            .set("iterations", self.iterations)
            .set("wall_ns", self.wall_nanos)
            .set("load_imbalance", Json::fixed(self.load_imbalance, 4))
            .set("comm_words_per_iter", Json::fixed(self.comm_words_per_iter, 2))
            .set("model", model);
        // The serve and workers keys are additive: absent (not null)
        // when nothing was attached, so earlier consumers see the same
        // document.
        if let Some(s) = &self.serve {
            doc = doc.set("serve", s.to_json());
        }
        if let Some(w) = &self.workers {
            doc = doc.set("workers", w.to_json());
        }
        doc.set("ranks", ranks.collect::<Vec<_>>())
    }

    /// Human-readable rendering: one row per rank, summary lines below.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "execution report — backend {}, k = {}, {} iterations, {} wall ({} /iter)\n",
            self.backend,
            self.k,
            self.iterations,
            fmt_ns(self.wall_nanos as f64),
            fmt_ns(self.iter_secs() * 1e9),
        ));
        out.push_str(&format!(
            "{:>5} {:>11} {:>11} {:>11} {:>11} {:>9} {:>11} {:>9}\n",
            "rank", "compute", "gather", "scatter", "barrier", "rows", "madds", "words"
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "{:>5} {:>11} {:>11} {:>11} {:>11} {:>9} {:>11} {:>9}\n",
                r.rank,
                fmt_ns(r.phases[Phase::Compute.index()].nanos as f64),
                fmt_ns(r.phases[Phase::Gather.index()].nanos as f64),
                fmt_ns(r.phases[Phase::Scatter.index()].nanos as f64),
                fmt_ns(r.phases[Phase::BarrierWait.index()].nanos as f64),
                r.rows,
                r.madds,
                r.comm_words
            ));
        }
        out.push_str(&format!(
            "observed load imbalance (max/mean compute): {:.3}\n",
            self.load_imbalance
        ));
        match &self.model {
            Some(m) => {
                out.push_str(&format!(
                    "comm words/iter: observed {:.1} vs modeled {} (ratio {:.2}x)\n",
                    self.comm_words_per_iter, m.modeled_comm_words, m.words_ratio
                ));
                out.push_str(&format!(
                    "iter time: observed {} | alpha-beta {} ({:.2}x) | loggp {} ({:.2}x)\n",
                    fmt_ns(self.iter_secs() * 1e9),
                    fmt_ns(m.alpha_beta_secs * 1e9),
                    m.alpha_beta_ratio,
                    fmt_ns(m.loggp_secs * 1e9),
                    m.loggp_ratio
                ));
            }
            None => {
                out.push_str(&format!(
                    "comm words/iter: observed {:.1} (no model attached)\n",
                    self.comm_words_per_iter
                ));
            }
        }
        if let Some(s) = &self.serve {
            out.push_str(&format!(
                "serve: {} admitted, {} completed, {} rejected (full), {} expired\n",
                s.admitted, s.completed, s.rejected_full, s.expired
            ));
            out.push_str(&format!(
                "serve: {} batches / {} requests (coalescing {:.2}x), cache {}/{} hits ({:.0}%), {} evicted\n",
                s.batches,
                s.coalesced,
                s.coalescing_rate(),
                s.cache_hits,
                s.cache_hits + s.cache_misses,
                s.cache_hit_rate() * 100.0,
                s.cache_evictions
            ));
        }
        if let Some(w) = &self.workers {
            out.push_str(&format!(
                "workers: {} threads, planned madd imbalance (max/mean): {:.3}\n",
                w.workers(),
                w.imbalance()
            ));
        }
        out
    }
}

/// `1234.5` ns → `"1.23 us"`-style human duration.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HIST_BUCKETS;

    /// The report as written to disk and read back.
    fn reparse(rep: &ExecutionReport) -> Json {
        Json::parse(&rep.to_json().to_string()).expect("a report renders valid JSON")
    }

    fn num(doc: &Json, path: &[&str]) -> f64 {
        let v = path.iter().try_fold(doc, |j, key| j.get(key));
        v.and_then(Json::as_f64).unwrap_or_else(|| panic!("no number at {path:?}"))
    }

    fn sample_sink() -> TelemetrySink {
        let sink = TelemetrySink::new(3);
        for rk in 0..3 {
            sink.rank(rk).record(Phase::Compute, 1000 * (rk as u64 + 1));
            sink.rank(rk).record(Phase::Gather, 10);
            sink.rank(rk).record(Phase::Scatter, 20);
            sink.rank(rk).add_counts(4, 100, 8);
        }
        sink.rank(0).record(Phase::BarrierWait, 500);
        sink.add_iterations(2);
        sink.add_wall(10_000);
        sink
    }

    #[test]
    fn collect_computes_imbalance_and_words() {
        let rep = ExecutionReport::collect(&sample_sink(), "compiled-seq", None);
        assert_eq!(rep.k, 3);
        assert_eq!(rep.iterations, 2);
        // compute times 1000/2000/3000 → max 3000, mean 2000 → LI 1.5.
        assert!((rep.load_imbalance - 1.5).abs() < 1e-12);
        // 3 ranks × 8 words over 2 iterations.
        assert!((rep.comm_words_per_iter - 12.0).abs() < 1e-12);
        assert!(rep.model.is_none());
        assert_eq!(rep.iter_secs(), 5_000.0 / 1e9);
    }

    #[test]
    fn model_scoring_produces_ratios() {
        let model = ModelRef { comm_words: 24, alpha_beta_secs: 1e-6, loggp_secs: 2e-6 };
        let rep = ExecutionReport::collect(&sample_sink(), "compiled-pool", Some(model));
        let m = rep.model.expect("model attached");
        assert!((m.words_ratio - 0.5).abs() < 1e-12);
        assert!((m.alpha_beta_ratio - 5e-6 / 1e-6).abs() < 1e-9);
        assert!((m.loggp_ratio - 5e-6 / 2e-6).abs() < 1e-9);
        // Zero-denominator guard: no NaN in ratio columns.
        let degenerate = ModelRef { comm_words: 0, alpha_beta_secs: 0.0, loggp_secs: 0.0 };
        let rep = ExecutionReport::collect(&sample_sink(), "x", Some(degenerate));
        let m = rep.model.expect("model attached");
        assert_eq!((m.words_ratio, m.alpha_beta_ratio, m.loggp_ratio), (0.0, 0.0, 0.0));
    }

    #[test]
    fn json_schema_is_stable_and_roundtrips() {
        let model = ModelRef { comm_words: 24, alpha_beta_secs: 1e-6, loggp_secs: 2e-6 };
        let rep = ExecutionReport::collect(&sample_sink(), "compiled-seq", Some(model));
        let doc = reparse(&rep);
        // Scalar fields round-trip through the serialized text.
        assert_eq!(doc.get("backend").and_then(Json::as_str), Some("compiled-seq"));
        for (key, want) in
            [("k", rep.k as u64), ("iterations", rep.iterations), ("wall_ns", rep.wall_nanos)]
        {
            assert_eq!(doc.get(key).and_then(Json::as_u64), Some(want), "{key}");
        }
        assert!((num(&doc, &["load_imbalance"]) - rep.load_imbalance).abs() < 1e-3);
        let m = rep.model.unwrap();
        assert_eq!(num(&doc, &["model", "modeled_comm_words"]), m.modeled_comm_words as f64);
        assert!((num(&doc, &["model", "words_ratio"]) - m.words_ratio).abs() < 1e-3);
        assert_eq!(num(&doc, &["model", "alpha_beta_s"]), m.alpha_beta_secs);
        // One object per rank, one entry per phase, in stable order.
        let ranks = doc.get("ranks").and_then(Json::as_arr).expect("ranks");
        assert_eq!(ranks.len(), rep.k);
        for (rk, r) in ranks.iter().enumerate() {
            assert_eq!(r.get("rank").and_then(Json::as_u64), Some(rk as u64));
            let phases = r.get("phases").and_then(Json::as_arr).expect("phases");
            let labels: Vec<_> =
                phases.iter().map(|p| p.get("phase").and_then(Json::as_str)).collect();
            assert_eq!(labels, Phase::all().map(|ph| Some(ph.label())));
        }
        // Without a model the key is an explicit null, not absent.
        let bare = reparse(&ExecutionReport::collect(&sample_sink(), "mailbox", None));
        assert_eq!(bare.get("model"), Some(&Json::Null));
    }

    #[test]
    fn histograms_are_trimmed() {
        let rep = ExecutionReport::collect(&sample_sink(), "x", None);
        let compute = &rep.ranks[0].phases[Phase::Compute.index()];
        assert_eq!(compute.hist.iter().sum::<u64>(), compute.spans);
        assert_ne!(compute.hist.last(), Some(&0));
        assert!(compute.hist.len() <= HIST_BUCKETS);
        // A phase with no spans serializes an empty histogram (only
        // rank 0 waits at a barrier in the sample).
        let barrier = &rep.ranks[1].phases[Phase::BarrierWait.index()];
        assert!(barrier.hist.is_empty() && barrier.spans == 0);
    }

    #[test]
    fn serve_section_is_additive() {
        use crate::ServeStats;
        let bare = ExecutionReport::collect(&sample_sink(), "compiled-seq", None);
        let bare_json = reparse(&bare);
        let bare_lines = bare.render().lines().count();
        assert_eq!(bare_json.get("serve"), None, "absent, not null, without a server");

        let stats = ServeStats::new();
        for _ in 0..6 {
            stats.admit();
            stats.complete();
        }
        stats.batch(4);
        stats.batch(2);
        stats.cache_hit();
        stats.cache_miss();
        let rep = bare.clone().with_serve(stats.snapshot());
        let json = reparse(&rep);
        assert_eq!(json.get("backend"), bare_json.get("backend"));
        assert_eq!(num(&json, &["serve", "admitted"]), 6.0);
        assert_eq!(num(&json, &["serve", "batches"]), 2.0);
        assert!((num(&json, &["serve", "coalescing_rate"]) - 3.0).abs() < 1e-3);
        assert!((num(&json, &["serve", "cache_hit_rate"]) - 0.5).abs() < 1e-3);
        let text = rep.render();
        assert_eq!(text.lines().count(), bare_lines + 2, "serve adds exactly two lines");
        assert!(text.contains("coalescing 3.00x"));
        assert!(text.contains("cache 1/2 hits (50%)"));
    }

    #[test]
    fn workers_section_is_additive() {
        let bare = ExecutionReport::collect(&sample_sink(), "compiled-pool", None);
        let bare_json = reparse(&bare);
        let bare_lines = bare.render().lines().count();
        assert_eq!(bare_json.get("workers"), None, "absent, not null, off the pool path");

        let w = WorkerLoadReport::new(vec![vec![100, 120, 80, 100]]);
        assert!((w.imbalance() - 1.2).abs() < 1e-12, "max 120 over mean 100");
        let rep = bare.clone().with_workers(w);
        let json = reparse(&rep);
        assert_eq!(json.get("backend"), bare_json.get("backend"));
        let workers = json.get("workers").expect("workers key");
        assert_eq!(workers.get("schedule"), None, "the pool has one schedule: no label");
        assert_eq!(workers.get("madds"), Some(&Json::from(vec![100u64, 120, 80, 100])));
        assert!((num(workers, &["imbalance"]) - 1.2).abs() < 1e-3);
        let text = rep.render();
        assert_eq!(text.lines().count(), bare_lines + 1, "workers adds exactly one line");
        assert!(text.contains("workers: 4 threads"));
        assert!(text.contains("imbalance (max/mean): 1.200"));

        // Degenerate shapes report 1.0, never NaN.
        assert_eq!(WorkerLoadReport::new(vec![vec![7]]).imbalance(), 1.0);
        assert_eq!(WorkerLoadReport::new(vec![vec![0, 0]]).imbalance(), 1.0);
    }

    #[test]
    fn imbalance_sums_the_phases_a_barrier_separates() {
        // Balanced totals, unbalanced phases: each phase keeps one
        // worker idle, so the plan costs twice its mean.
        let w = WorkerLoadReport::new(vec![vec![10, 0], vec![0, 10]]);
        assert_eq!(w.madds(), [10, 10]);
        assert_eq!(w.imbalance(), 2.0);
        let json = Json::parse(&w.to_json().to_string()).expect("valid JSON");
        assert_eq!(json.get("madds"), Some(&Json::from(vec![10u64, 10])));
        assert!((num(&json, &["imbalance"]) - 2.0).abs() < 1e-3);
        // Σ max 15 + 12 over Σ mean 10 + 8.
        let w = WorkerLoadReport::new(vec![vec![15, 5], vec![4, 12]]);
        assert_eq!(w.imbalance(), 1.5);
    }

    #[test]
    fn render_mentions_every_rank_and_summary() {
        let model = ModelRef { comm_words: 24, alpha_beta_secs: 1e-6, loggp_secs: 2e-6 };
        let rep = ExecutionReport::collect(&sample_sink(), "compiled-pool", Some(model));
        let text = rep.render();
        assert!(text.contains("backend compiled-pool"));
        assert!(text.contains("load imbalance"));
        assert!(text.contains("ratio"));
        assert_eq!(text.lines().count(), 1 + 1 + rep.k + 3);
        assert_eq!(fmt_ns(1.5e9), "1.50 s");
        assert_eq!(fmt_ns(2.5e3), "2.50 us");
        assert_eq!(fmt_ns(999.0), "999 ns");
    }
}
