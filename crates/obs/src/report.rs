//! The [`ExecutionReport`]: a [`TelemetrySink`](crate::TelemetrySink)
//! condensed into the observed-side counterpart of
//! `PartitionQuality` — per-rank × per-phase times, observed load
//! imbalance, and (when a model prediction is attached)
//! observed-vs-modeled ratio columns scoring the α–β / LogGP models.

use crate::{Phase, ServeSnapshot, TelemetrySink};

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
    /// Solver iterations recorded (0 outside solver runs).
    pub solver_iters: u64,
    /// Total nanoseconds across solver iterations.
    pub solver_nanos: u64,
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

/// Per-worker multiply-add loads under the pool's intra-rank schedule.
///
/// The pool's chunk→worker map is fixed at build time and identical
/// every iteration, so the planned loads *are* the achieved loads — no
/// per-iteration counters needed. `madds[w]` is the stored work worker
/// `w` executes per iteration (SELL padding included: it is work the
/// core performs even though [`RankReport::madds`] never counts it).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerLoadReport {
    /// Intra-rank schedule label (`"nnz-chunked"`, the pool's schedule).
    pub schedule: String,
    /// Multiply-adds executed by each worker per iteration.
    pub madds: Vec<u64>,
}

impl WorkerLoadReport {
    /// Wraps a schedule label and the per-worker load vector.
    pub fn new(schedule: impl Into<String>, madds: Vec<u64>) -> WorkerLoadReport {
        WorkerLoadReport { schedule: schedule.into(), madds }
    }

    /// Planned load imbalance: max/mean worker multiply-adds (1.0 for
    /// fewer than two workers or an all-zero plan).
    pub fn imbalance(&self) -> f64 {
        if self.madds.len() < 2 {
            return 1.0;
        }
        let max = *self.madds.iter().max().expect("nonempty") as f64;
        let mean = self.madds.iter().sum::<u64>() as f64 / self.madds.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// One JSON object, same hand-rolled style as the parent report.
    pub fn to_json(&self) -> String {
        let madds: Vec<String> = self.madds.iter().map(|m| m.to_string()).collect();
        format!(
            "{{\"schedule\":\"{}\",\"imbalance\":{:.4},\"madds\":[{}]}}",
            self.schedule,
            self.imbalance(),
            madds.join(",")
        )
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
            solver_iters: sink.solver_iters(),
            solver_nanos: sink.solver_nanos(),
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

    /// Hand-rolled JSON export (one object; stable key set — see the
    /// schema test).
    pub fn to_json(&self) -> String {
        let model = match &self.model {
            None => "null".to_string(),
            Some(m) => format!(
                concat!(
                    "{{\"modeled_comm_words\":{},\"words_ratio\":{:.4},",
                    "\"alpha_beta_s\":{:.6e},\"loggp_s\":{:.6e},",
                    "\"alpha_beta_ratio\":{:.4},\"loggp_ratio\":{:.4}}}"
                ),
                m.modeled_comm_words,
                m.words_ratio,
                m.alpha_beta_secs,
                m.loggp_secs,
                m.alpha_beta_ratio,
                m.loggp_ratio
            ),
        };
        let ranks: Vec<String> = self
            .ranks
            .iter()
            .map(|r| {
                let phases: Vec<String> = Phase::all()
                    .into_iter()
                    .map(|ph| {
                        let pt = &r.phases[ph.index()];
                        let hist: Vec<String> = pt.hist.iter().map(|c| c.to_string()).collect();
                        format!(
                            "{{\"phase\":\"{}\",\"ns\":{},\"spans\":{},\"hist\":[{}]}}",
                            ph.label(),
                            pt.nanos,
                            pt.spans,
                            hist.join(",")
                        )
                    })
                    .collect();
                format!(
                    "{{\"rank\":{},\"rows\":{},\"madds\":{},\"comm_words\":{},\"phases\":[{}]}}",
                    r.rank,
                    r.rows,
                    r.madds,
                    r.comm_words,
                    phases.join(",")
                )
            })
            .collect();
        // The serve key is additive: absent (not null) when no serving
        // layer was attached, so pre-serve consumers see byte-identical
        // output.
        let serve = match &self.serve {
            None => String::new(),
            Some(s) => format!(",\"serve\":{}", s.to_json()),
        };
        // Same additive rule for the workers key.
        let workers = match &self.workers {
            None => String::new(),
            Some(w) => format!(",\"workers\":{}", w.to_json()),
        };
        format!(
            concat!(
                "{{\"backend\":\"{}\",\"k\":{},\"iterations\":{},\"wall_ns\":{},",
                "\"solver_iters\":{},\"solver_ns\":{},\"load_imbalance\":{:.4},",
                "\"comm_words_per_iter\":{:.2},\"model\":{}{}{},\"ranks\":[{}]}}"
            ),
            self.backend,
            self.k,
            self.iterations,
            self.wall_nanos,
            self.solver_iters,
            self.solver_nanos,
            self.load_imbalance,
            self.comm_words_per_iter,
            model,
            serve,
            workers,
            ranks.join(",")
        )
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
            "{:>5} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9} {:>11} {:>9}\n",
            "rank", "compute", "gather", "scatter", "barrier", "reduce", "rows", "madds", "words"
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "{:>5} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9} {:>11} {:>9}\n",
                r.rank,
                fmt_ns(r.phases[Phase::Compute.index()].nanos as f64),
                fmt_ns(r.phases[Phase::Gather.index()].nanos as f64),
                fmt_ns(r.phases[Phase::Scatter.index()].nanos as f64),
                fmt_ns(r.phases[Phase::BarrierWait.index()].nanos as f64),
                fmt_ns(r.phases[Phase::Reduce.index()].nanos as f64),
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
        if self.solver_iters > 0 {
            out.push_str(&format!(
                "solver iterations: {} (mean {})\n",
                self.solver_iters,
                fmt_ns(self.solver_nanos as f64 / self.solver_iters as f64)
            ));
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
                "workers ({}): {} threads, planned madd imbalance (max/mean): {:.3}\n",
                w.schedule,
                w.madds.len(),
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

    /// Scalar field extractor for the hand-rolled JSON (no parser in
    /// the workspace): value text between `"key":` and the next
    /// top-level `,`/`}`.
    fn field<'j>(json: &'j str, key: &str) -> &'j str {
        let pat = format!("\"{key}\":");
        let start = json.find(&pat).unwrap_or_else(|| panic!("missing key {key}")) + pat.len();
        let rest = &json[start..];
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' if depth == 0 => return &rest[..i],
                '}' | ']' => depth -= 1,
                ',' if depth == 0 => return &rest[..i],
                _ => {}
            }
        }
        rest
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
        let json = rep.to_json();
        // Balanced structure.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Scalar fields round-trip through the serialized text.
        assert_eq!(field(&json, "backend"), "\"compiled-seq\"");
        assert_eq!(field(&json, "k").parse::<usize>().unwrap(), rep.k);
        assert_eq!(field(&json, "iterations").parse::<u64>().unwrap(), rep.iterations);
        assert_eq!(field(&json, "wall_ns").parse::<u64>().unwrap(), rep.wall_nanos);
        assert_eq!(field(&json, "solver_iters").parse::<u64>().unwrap(), rep.solver_iters);
        assert!(
            (field(&json, "load_imbalance").parse::<f64>().unwrap() - rep.load_imbalance).abs()
                < 1e-3
        );
        let m = rep.model.unwrap();
        assert_eq!(
            field(&json, "modeled_comm_words").parse::<u64>().unwrap(),
            m.modeled_comm_words
        );
        assert!((field(&json, "words_ratio").parse::<f64>().unwrap() - m.words_ratio).abs() < 1e-3);
        assert!(field(&json, "alpha_beta_s").parse::<f64>().unwrap() > 0.0);
        // One object per rank, one entry per phase, in stable order.
        assert_eq!(json.matches("\"rank\":").count(), rep.k);
        for ph in Phase::all() {
            assert_eq!(json.matches(&format!("\"phase\":\"{}\"", ph.label())).count(), rep.k);
        }
        // Without a model the key is an explicit null, not absent.
        let bare = ExecutionReport::collect(&sample_sink(), "mailbox", None).to_json();
        assert_eq!(field(&bare, "model"), "null");
    }

    #[test]
    fn histograms_are_trimmed() {
        let rep = ExecutionReport::collect(&sample_sink(), "x", None);
        let compute = &rep.ranks[0].phases[Phase::Compute.index()];
        assert_eq!(compute.hist.iter().sum::<u64>(), compute.spans);
        assert_ne!(compute.hist.last(), Some(&0));
        assert!(compute.hist.len() <= HIST_BUCKETS);
        // A phase with no spans serializes an empty histogram.
        let reduce = &rep.ranks[0].phases[Phase::Reduce.index()];
        assert!(reduce.hist.is_empty() && reduce.spans == 0);
    }

    #[test]
    fn serve_section_is_additive() {
        use crate::ServeStats;
        let bare = ExecutionReport::collect(&sample_sink(), "compiled-seq", None);
        let bare_json = bare.to_json();
        let bare_lines = bare.render().lines().count();
        assert!(!bare_json.contains("\"serve\""), "absent, not null, without a server");

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
        let json = rep.to_json();
        assert_eq!(field(&json, "backend"), field(&bare_json, "backend"));
        assert_eq!(field(&json, "admitted").parse::<u64>().unwrap(), 6);
        assert_eq!(field(&json, "batches").parse::<u64>().unwrap(), 2);
        assert!((field(&json, "coalescing_rate").parse::<f64>().unwrap() - 3.0).abs() < 1e-3);
        assert!((field(&json, "cache_hit_rate").parse::<f64>().unwrap() - 0.5).abs() < 1e-3);
        let text = rep.render();
        assert_eq!(text.lines().count(), bare_lines + 2, "serve adds exactly two lines");
        assert!(text.contains("coalescing 3.00x"));
        assert!(text.contains("cache 1/2 hits (50%)"));
    }

    #[test]
    fn workers_section_is_additive() {
        let bare = ExecutionReport::collect(&sample_sink(), "compiled-pool", None);
        let bare_json = bare.to_json();
        let bare_lines = bare.render().lines().count();
        assert!(!bare_json.contains("\"workers\""), "absent, not null, off the pool path");

        let w = WorkerLoadReport::new("nnz-chunked", vec![100, 120, 80, 100]);
        assert!((w.imbalance() - 1.2).abs() < 1e-12, "max 120 over mean 100");
        let rep = bare.clone().with_workers(w);
        let json = rep.to_json();
        assert_eq!(field(&json, "backend"), field(&bare_json, "backend"));
        assert_eq!(field(&json, "schedule"), "\"nnz-chunked\"");
        assert!(json.contains("\"madds\":[100,120,80,100]"));
        assert!((field(&json, "imbalance").parse::<f64>().unwrap() - 1.2).abs() < 1e-3);
        let text = rep.render();
        assert_eq!(text.lines().count(), bare_lines + 1, "workers adds exactly one line");
        assert!(text.contains("workers (nnz-chunked): 4 threads"));
        assert!(text.contains("imbalance (max/mean): 1.200"));

        // Degenerate shapes report 1.0, never NaN.
        assert_eq!(WorkerLoadReport::new("rank-split", vec![7]).imbalance(), 1.0);
        assert_eq!(WorkerLoadReport::new("rank-split", vec![0, 0]).imbalance(), 1.0);
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
