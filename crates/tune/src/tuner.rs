//! The empirical search itself: model-driven shortlist, timed trials,
//! measured verdict.
//!
//! The workspace already owns three *static* selection models — the α–β
//! cost model behind [`Strategy::Auto`], the row-statistics policy
//! behind [`KernelFormat::Auto`] and the madds crossover behind
//! [`Backend::auto`]. They are cheap and usually right, but they are
//! models: they embed constants (machine balance, thread-spawn cost,
//! cache behaviour) that no closed form gets right on every matrix. The
//! [`Tuner`] uses them for what they are good at — pruning the
//! configuration space to a short list — and then settles the whole
//! list the only authoritative way: by running every candidate through
//! the real [`Session`] stack and timing it best-of-N
//! ([`s2d_obs::best_of`]). Because the model's own pick is always
//! in the candidate set, the measured winner can never be slower than
//! the model's choice (up to timer noise) — measurement only ever
//! recovers performance the models left on the table.
//!
//! The list spans only the axes a static model gets wrong: strategy,
//! kernel format and backend. The kernel ISA is the engine's own
//! decision (the AVX2 body is the scalar source, bitwise identical; on
//! a 2-vCPU AVX2 VM the scalar build was 1.03–1.28× slower in 7 of 8
//! benchmark-matrix × seq/pool cells), and every candidate serves the
//! workload's full batch width (r single applies were 2.3–3.7× slower
//! than one width-r batch in all 8).
//!
//! Preparation cost is kept proportional to the *strategy* axis, not
//! the candidate count: one [`Strategy::partition_all`] call partitions
//! every strategy (the expensive leg; `1d`, `s2d` and `s2d-gen` share
//! one 1D rowwise run), one [`prepare`](s2d::SessionBuilder::prepare)
//! per partition builds the plan the model prices, then
//! [`Prepared::with_format`] re-lowers kernels per format (cheap) and
//! [`Prepared::session`] stamps per-backend operators (cheaper still).

use std::path::PathBuf;

use s2d::{
    Backend, ConfigKey, KernelFormat, PartitionQuality, PartitionerConfig, PlanKind, Prepared,
    Session, Strategy,
};
use s2d_engine::CompiledPlan;
use s2d_obs::{best_of, Json};
use s2d_sparse::Csr;

use crate::cache::{key_json, with_choice, CacheEntry, TuningCache};

/// How much clock time the search may spend on each candidate: timing
/// repetitions, and SpMV iterations per repetition. Every candidate is
/// measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneBudget {
    /// Timing repetitions per candidate ([`s2d_obs::best_of`]'s
    /// min-of-averages discards scheduler noise across these).
    pub trials: usize,
    /// SpMV workload applications per repetition.
    pub iters: u32,
}

impl TuneBudget {
    /// The default search effort: enough repetitions for stable
    /// verdicts on micro-second kernels.
    pub fn standard() -> TuneBudget {
        TuneBudget { trials: 3, iters: 10 }
    }

    /// A smoke-test budget: one trial of two iterations per candidate —
    /// exercises every code path in CI without measurement quality.
    pub fn fast() -> TuneBudget {
        TuneBudget { trials: 1, iters: 2 }
    }
}

/// One point in the configuration space: everything the tuner may vary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunedChoice {
    /// Partitioning method.
    pub strategy: Strategy,
    /// Plan construction (recorded from the preparation, so a replayed
    /// choice rebuilds the identical plan instead of re-deriving it).
    pub plan_kind: PlanKind,
    /// Kernel format the plan compiles to.
    pub format: KernelFormat,
    /// Execution backend. The pool's team size is part of this axis:
    /// the shortlist tries the default team and half the machine where
    /// those differ.
    pub backend: Backend,
}

impl std::fmt::Display for TunedChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}/{}", self.strategy, self.plan_kind, self.format, self.backend)
    }
}

/// One candidate's timing: seconds per workload application (one
/// batch at the workload width).
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// The configuration measured.
    pub choice: TunedChoice,
    /// Best-of-N seconds per workload application.
    pub secs: f64,
}

/// The tuner's verdict: the measured winner, the static models' pick
/// for the same workload, and every measurement behind the comparison.
#[derive(Clone, Debug)]
pub struct TunedConfig {
    /// What was tuned: (matrix fingerprint, k, workload width).
    pub key: ConfigKey,
    /// The fastest measured configuration.
    pub winner: TunedChoice,
    /// The winner's seconds per workload application.
    pub winner_secs: f64,
    /// What the static models would have chosen (always measured too).
    /// On a cache hit this equals the winner — the search, including
    /// the model evaluation, was skipped.
    pub model: TunedChoice,
    /// The model pick's measured seconds per workload application.
    pub model_secs: f64,
    /// Every candidate measured, in search order (empty on a cache
    /// hit).
    pub measurements: Vec<Measurement>,
    /// True when the verdict was replayed from the on-disk cache
    /// without any measurement.
    pub cache_hit: bool,
}

impl TunedConfig {
    /// Measured winner time / measured model-pick time (1.0 = the
    /// models were already optimal; < 1.0 = measurement recovered
    /// something).
    pub fn speedup_over_model(&self) -> f64 {
        if self.model_secs > 0.0 {
            self.winner_secs / self.model_secs
        } else {
            1.0
        }
    }

    /// Human-readable candidate table, fastest first, with the model's
    /// pick and the winner flagged.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tuned {} — winner {} ({:.3} µs/apply{})\n",
            self.key,
            self.winner,
            self.winner_secs * 1e6,
            if self.cache_hit { ", cache hit" } else { "" },
        ));
        if self.cache_hit {
            return out;
        }
        out.push_str(&format!(
            "model pick {} ({:.3} µs/apply, winner/model = {:.3})\n",
            self.model,
            self.model_secs * 1e6,
            self.speedup_over_model(),
        ));
        let mut by_time: Vec<&Measurement> = self.measurements.iter().collect();
        by_time.sort_by(|x, y| x.secs.total_cmp(&y.secs));
        out.push_str(&format!(
            "{:<50} {:>12} {:>10}\n",
            "candidate (strategy/plan/format/backend)", "µs/apply", "vs winner"
        ));
        for m in by_time {
            let mark = if m.choice == self.winner {
                " <- winner"
            } else if m.choice == self.model {
                " <- model"
            } else {
                ""
            };
            let ratio = if self.winner_secs > 0.0 { m.secs / self.winner_secs } else { 1.0 };
            out.push_str(&format!(
                "{:<50} {:>12.3} {:>9.2}x{}\n",
                m.choice.to_string(),
                m.secs * 1e6,
                ratio,
                mark
            ));
        }
        out
    }

    /// The verdict as one JSON object; the key and every choice are
    /// spelled as in the [`TuningCache`] file.
    pub fn to_json(&self) -> Json {
        let choice = |c: &TunedChoice| with_choice(Json::obj(), c);
        let measurements = self
            .measurements
            .iter()
            .map(|m| Json::obj().set("choice", choice(&m.choice)).set("secs", m.secs));
        Json::obj()
            .set("key", key_json(self.key))
            .set("cache_hit", self.cache_hit)
            .set("winner", choice(&self.winner))
            .set("winner_secs", self.winner_secs)
            .set("model", choice(&self.model))
            .set("model_secs", self.model_secs)
            .set("speedup_over_model", Json::fixed(self.speedup_over_model(), 4))
            .set("measurements", measurements.collect::<Vec<_>>())
    }
}

/// The search driver. Configure with the builder methods, then
/// [`Tuner::run`].
pub struct Tuner<'a> {
    a: &'a Csr,
    k: usize,
    width: usize,
    budget: TuneBudget,
    cfg: PartitionerConfig,
    cache_path: Option<PathBuf>,
}

impl<'a> Tuner<'a> {
    /// A tuner for `a` over `k` processors, workload width 1, the
    /// standard budget, no cache.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn new(a: &'a Csr, k: usize) -> Tuner<'a> {
        assert!(k >= 1, "tuning needs at least one processor");
        Tuner {
            a,
            k,
            width: 1,
            budget: TuneBudget::standard(),
            cfg: PartitionerConfig::default(),
            cache_path: None,
        }
    }

    /// The workload batch width to tune for (default 1).
    pub fn width(mut self, width: usize) -> Self {
        assert!(width >= 1, "batch width must be at least 1");
        self.width = width;
        self
    }

    /// The measurement budget (default [`TuneBudget::standard`]).
    pub fn budget(mut self, budget: TuneBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Partitioner knobs for every candidate partition (default
    /// [`PartitionerConfig::default`]). The cache assumes these: a
    /// replayed verdict re-partitions with the replaying caller's
    /// config, so tune and replay with the same one.
    pub fn partitioner_config(mut self, cfg: PartitionerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Persist and replay verdicts through the [`TuningCache`] at
    /// `path` (default: no persistence, every run searches).
    pub fn cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// The deterministic candidate list the search measures, every
    /// entry once: every strategy the cost model would consider × the
    /// formats the compile-time row statistics shortlist × sequential
    /// and pooled execution (the pool at each distinct team size no
    /// larger than the core count). Exposed for inspection and tests;
    /// [`Tuner::run`] measures exactly these.
    pub fn candidates(&self) -> Vec<TunedChoice> {
        self.expand().1.into_iter().map(|(c, _)| c).collect()
    }

    /// Runs the search (or replays a cached verdict — a cache hit skips
    /// preparation and measurement entirely) and returns the verdict.
    pub fn run(self) -> TunedConfig {
        let key = ConfigKey::of(self.a, self.k, self.width);
        let mut cache = self.cache_path.as_ref().map(TuningCache::load);
        if let Some(c) = &cache {
            if let Some(e) = c.lookup(key) {
                return TunedConfig {
                    key,
                    winner: e.choice,
                    winner_secs: e.secs,
                    model: e.choice,
                    model_secs: e.secs,
                    measurements: Vec::new(),
                    cache_hit: true,
                };
            }
        }
        let tuned = self.search(key);
        if let Some(c) = &mut cache {
            c.insert(CacheEntry { key, choice: tuned.winner, secs: tuned.winner_secs });
            // Best-effort: an unwritable cache degrades to re-measuring
            // next run, it does not fail this one.
            let _ = c.store();
        }
        tuned
    }

    /// The search space: the shared [`Prepared`] artifacts, each
    /// candidate paired with the index of the one it runs on, and the
    /// static models' combined pick. Deterministic: the strategy
    /// shortlist is a pure function of matrix structure, the format
    /// shortlist of compile-time statistics, and the iteration order is
    /// fixed.
    ///
    /// The model's strategy is [`Strategy::cheapest`] over the
    /// partitions prepared here (the rule [`Strategy::auto_pick`]
    /// applies to partitions of its own); its format is Auto and its
    /// backend [`Backend::auto`]'s pick, which is always in the backend
    /// shortlist — so the model pick is always a candidate.
    fn expand(&self) -> (Vec<Prepared>, Vec<(TunedChoice, usize)>, TunedChoice) {
        let mut preps: Vec<Prepared> = Vec::new();
        let mut cands: Vec<(TunedChoice, usize)> = Vec::new();
        let mut priced = Vec::new();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let backends = backend_shortlist(self.k, cores);
        let strategies = Strategy::auto_candidates(self.a, self.k);
        let parts = Strategy::partition_all(&strategies, self.a, self.k, &self.cfg);
        for (strategy, p) in strategies.into_iter().zip(parts) {
            let base =
                Session::builder(self.a).partition(&p).kernel_format(KernelFormat::Auto).prepare();
            let (plan_kind, base_idx) = (base.plan_kind(), preps.len());
            let quality = PartitionQuality::measure_plan(
                self.a,
                base.partition(),
                plan_kind,
                base.plan(),
                strategy.to_string(),
            );
            priced.push(((strategy, plan_kind, base_idx), quality));
            let formats = format_shortlist(base.compiled());
            preps.push(base);
            for format in formats {
                let idx = if format == KernelFormat::Auto {
                    base_idx
                } else {
                    let lowered = preps[base_idx].with_format(format);
                    preps.push(lowered);
                    preps.len() - 1
                };
                for &backend in &backends {
                    cands.push((TunedChoice { strategy, plan_kind, format, backend }, idx));
                }
            }
        }
        let ((strategy, plan_kind, idx), _) =
            Strategy::cheapest(priced).expect("the strategy shortlist is never empty");
        let backend = Backend::auto(preps[idx].compiled());
        let model = TunedChoice { strategy, plan_kind, format: KernelFormat::Auto, backend };
        (preps, cands, model)
    }

    fn search(&self, key: ConfigKey) -> TunedConfig {
        let r = self.width;
        let (preps, cands, model) = self.expand();
        // Deterministic width-r row-major workload block.
        let x: Vec<f64> = (0..self.a.ncols() * r).map(|i| 0.25 * ((i % 23) as f64) - 2.0).collect();
        let mut y = vec![0.0; self.a.nrows() * r];
        let measurements: Vec<Measurement> = cands
            .iter()
            .map(|&(choice, idx)| {
                let mut session = preps[idx].session(choice.backend, r);
                let secs = best_of(self.budget.trials, self.budget.iters, || {
                    session.apply_batch(&x, &mut y, r)
                });
                Measurement { choice, secs: secs.as_secs_f64() }
            })
            .collect();

        let winner = *measurements
            .iter()
            .min_by(|x, y| x.secs.total_cmp(&y.secs))
            .expect("candidate set is never empty");
        let model_secs = measurements
            .iter()
            .find(|m| m.choice == model)
            .expect("the model pick is always measured")
            .secs;
        TunedConfig {
            key,
            winner: winner.choice,
            winner_secs: winner.secs,
            model,
            model_secs,
            measurements,
            cache_hit: false,
        }
    }
}

/// Kernel formats worth measuring, from the Auto compile's row
/// statistics: the two unconditional baselines (per-kernel Auto and
/// plain CSR), SELL when the padding overhead is plausible, dense
/// row-split when enough entries sit in dense runs.
fn format_shortlist(cp: &CompiledPlan) -> Vec<KernelFormat> {
    let mut formats = vec![KernelFormat::Auto, KernelFormat::CsrSlice];
    let stats = cp.kernel_stats();
    let ops: f64 = stats.iter().map(|s| s.ops as f64).sum();
    if ops > 0.0 {
        let sell_fill = stats.iter().map(|s| s.sell_fill * s.ops as f64).sum::<f64>() / ops;
        let dense_frac = stats.iter().map(|s| s.dense_frac * s.ops as f64).sum::<f64>() / ops;
        let rows = stats.iter().map(|s| s.rows).max().unwrap_or(0);
        if sell_fill <= 1.5 && rows >= 32 {
            formats.push(KernelFormat::Sell);
        }
        if dense_frac >= 0.25 {
            formats.push(KernelFormat::DenseRowSplit);
        }
    }
    formats
}

/// Backends worth measuring on `cores` CPUs: sequential always, and
/// the pool at the default sizing and at half the machine — each team
/// ([`Backend::participants`]) measured once and none larger than
/// `cores`. A team of one is measured only as `CompiledSeq`, which is
/// that team, so with one rank or one core the pool is not measured
/// (it is pure overhead there, and [`Backend::auto`] never picks it).
fn backend_shortlist(k: usize, cores: usize) -> Vec<Backend> {
    let mut backends = vec![Backend::CompiledSeq];
    // `cores / 2` leaves the machine half free (on two cores that is
    // the caller alone: `CompiledSeq`).
    for threads in [0, cores / 2] {
        let pool = Backend::CompiledPool { threads, pin: false };
        let team = pool.participants(k, cores);
        if backends.iter().all(|b| b.participants(k, cores) != team) {
            backends.push(pool);
        }
    }
    backends
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_shortlist_measures_each_team_once() {
        let pool = |threads| Backend::CompiledPool { threads, pin: false };
        // (k, cores) -> candidates; on 64 cores `pool:32` and `pool:8`
        // would both run the default's 8 participants, and `CompiledSeq`
        // is the team of one that `pool:1` (two cores, halved) and the
        // default pool on one core would run.
        for (k, cores, want) in [
            (8, 64, vec![Backend::CompiledSeq, pool(0)]),
            (16, 2, vec![Backend::CompiledSeq, pool(0)]),
            (16, 8, vec![Backend::CompiledSeq, pool(0), pool(4)]),
            (1, 8, vec![Backend::CompiledSeq]),
            (4, 1, vec![Backend::CompiledSeq]),
        ] {
            let got = backend_shortlist(k, cores);
            assert_eq!(got, want, "k={k} cores={cores}");
            let mut teams: Vec<usize> = got.iter().map(|b| b.participants(k, cores)).collect();
            assert!(teams.iter().all(|&t| t <= cores), "k={k} cores={cores}: oversubscribed");
            let n = teams.len();
            teams.sort_unstable();
            teams.dedup();
            assert_eq!(teams.len(), n, "k={k} cores={cores}: a team is measured twice");
        }
    }
}
