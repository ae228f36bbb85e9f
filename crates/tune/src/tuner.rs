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
//! configuration space to a shortlist — and then settles the shortlist
//! the only authoritative way: by running each candidate through the
//! real [`Session`] stack and timing it best-of-N
//! ([`s2d_obs::best_of`]). Because the model's own pick is always
//! in the candidate set, the measured winner can never be slower than
//! the model's choice (up to timer noise) — measurement only ever
//! recovers performance the models left on the table.
//!
//! Preparation cost is kept proportional to the *strategy* axis, not
//! the candidate count: one [`prepare`](s2d::SessionBuilder::prepare)
//! per strategy (the expensive leg: partitioning + plan construction),
//! then
//! [`Prepared::with_format`] re-lowers kernels per format (cheap) and
//! [`Prepared::session`] stamps per-backend/width operators (cheaper
//! still).

use std::path::PathBuf;

use s2d::{
    Backend, ConfigKey, KernelFormat, KernelIsa, PartitionerConfig, PlanKind, Prepared, Session,
    Strategy,
};
use s2d_engine::CompiledPlan;
use s2d_obs::{best_of, Json};
use s2d_sparse::Csr;

use crate::cache::{key_json, with_choice, CacheEntry, TuningCache};

/// How much clock time the search may spend: timing repetitions per
/// candidate, SpMV iterations per repetition, and a cap on how many
/// candidates get measured at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneBudget {
    /// Timing repetitions per candidate ([`s2d_obs::best_of`]'s
    /// min-of-averages discards scheduler noise across these).
    pub trials: usize,
    /// SpMV workload applications per repetition.
    pub iters: u32,
    /// Most candidates measured (the model's own pick is exempt from
    /// the cap — it is always measured, so the winner-vs-model
    /// comparison always exists).
    pub max_candidates: usize,
}

impl TuneBudget {
    /// The default search effort: enough repetitions for stable
    /// verdicts on micro-second kernels.
    pub fn standard() -> TuneBudget {
        TuneBudget { trials: 3, iters: 10, max_candidates: 16 }
    }

    /// A smoke-test budget: one trial, two iterations, few candidates —
    /// exercises every code path in CI without measurement quality.
    pub fn fast() -> TuneBudget {
        TuneBudget { trials: 1, iters: 2, max_candidates: 6 }
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
    /// Kernel ISA the batch paths select with. Bitwise-neutral (the
    /// SIMD lanes map to the batch dimension), so it is a pure speed
    /// axis; `scalar` is only shortlisted where AVX2 exists to compare
    /// against.
    pub isa: KernelIsa,
    /// Execution backend. The pool's thread count is part of this axis:
    /// the shortlist tries the default worker count, half the machine,
    /// and one-per-rank where those differ.
    pub backend: Backend,
    /// Batch width the candidate serves the workload at. Usually the
    /// workload width; a `1` here means "r separate single-RHS applies
    /// beat one width-r batch" (real on cache-thrashing widths).
    pub width: usize,
}

impl std::fmt::Display for TunedChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}/{}/w{}",
            self.strategy, self.plan_kind, self.format, self.isa, self.backend, self.width
        )
    }
}

/// One candidate's timing: seconds per workload application (one
/// width-r batch, or r single applies for width-1 candidates — the
/// denominators match, so the numbers compare directly).
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
            "candidate (strategy/plan/format/isa/backend/width)", "µs/apply", "vs winner"
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
        let choice = |c: &TunedChoice| with_choice(Json::obj(), c, "width");
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

    /// The deterministic candidate shortlist the search will measure
    /// (before the budget's cap): every strategy the cost model would
    /// consider × the formats the compile-time row statistics shortlist
    /// × the kernel ISAs worth comparing (auto vs. forced-scalar, on
    /// AVX2 machines only) × sequential/pooled execution (the pool at
    /// the deduplicated thread-count shortlist) × batched/unbatched
    /// service.
    /// Exposed for inspection and tests; [`Tuner::run`] measures
    /// exactly these.
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

    /// The model-driven candidate set: the shared [`Prepared`]
    /// artifacts plus each choice paired with the index of the one it
    /// runs on. Deterministic: the strategy shortlist is a pure
    /// function of matrix structure, the format shortlist of
    /// compile-time statistics, and the iteration order is fixed.
    fn expand(&self) -> (Vec<Prepared>, Vec<(TunedChoice, usize)>) {
        let mut preps: Vec<Prepared> = Vec::new();
        let mut cands: Vec<(TunedChoice, usize)> = Vec::new();
        let widths: Vec<usize> = if self.width > 1 { vec![self.width, 1] } else { vec![1] };
        // The ISA axis only exists where there are two ISAs to compare:
        // off-AVX2 machines Auto *is* scalar, so measuring both would
        // time the same code twice.
        let isas: Vec<KernelIsa> = if KernelIsa::avx2_available() {
            vec![KernelIsa::Auto, KernelIsa::Scalar]
        } else {
            vec![KernelIsa::Auto]
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let backends = backend_shortlist(self.k, cores);
        for s in Strategy::auto_candidates(self.a, self.k) {
            let base = self.prepare(s, KernelFormat::Auto);
            let kind = base.plan_kind();
            let formats = format_shortlist(base.compiled());
            let base_idx = preps.len();
            preps.push(base);
            for f in formats {
                let fmt_idx = if f == KernelFormat::Auto {
                    base_idx
                } else {
                    let lowered = preps[base_idx].with_format(f);
                    preps.push(lowered);
                    preps.len() - 1
                };
                for &isa in &isas {
                    let idx = if isa == KernelIsa::Auto {
                        fmt_idx
                    } else {
                        // Re-lowering under another ISA is the cheap
                        // leg, like `with_format`.
                        let relowered = preps[fmt_idx].with_isa(isa);
                        preps.push(relowered);
                        preps.len() - 1
                    };
                    for &backend in &backends {
                        for &width in &widths {
                            cands.push((
                                TunedChoice {
                                    strategy: s,
                                    plan_kind: kind,
                                    format: f,
                                    isa,
                                    backend,
                                    width,
                                },
                                idx,
                            ));
                        }
                    }
                }
            }
        }
        (preps, cands)
    }

    fn prepare(&self, strategy: Strategy, format: KernelFormat) -> Prepared {
        Session::builder(self.a)
            .partitioner(strategy, self.k)
            .partitioner_config(self.cfg)
            .kernel_format(format)
            .prepare()
    }

    fn search(&self, key: ConfigKey) -> TunedConfig {
        let r = self.width;
        let (preps, mut cands) = self.expand();

        // The static models' combined pick for this workload — always
        // kept in the measured set, whatever the candidate cap says.
        // Its strategy is in the shortlist by construction (`auto_pick`
        // minimizes over `auto_candidates`), Auto format and the full
        // workload width are always expanded, and `Backend::auto`'s
        // pick is in the backend shortlist — so this scan always finds
        // it.
        let model_strategy = Strategy::auto_pick(self.a, self.k, &self.cfg).strategy;
        let model_pos = cands
            .iter()
            .position(|(c, idx)| {
                c.strategy == model_strategy
                    && c.format == KernelFormat::Auto
                    && c.isa == KernelIsa::Auto
                    && c.width == r
                    && c.backend == Backend::auto(preps[*idx].compiled())
            })
            .expect("the model pick is always a candidate");
        let model_cand = cands[model_pos];
        cands.truncate(self.budget.max_candidates.max(1));
        if !cands.contains(&model_cand) {
            cands.push(model_cand);
        }
        let model = model_cand.0;

        // Deterministic workload block: width-r row-major input, plus
        // its columns pre-extracted for width-1 candidates.
        let (nrows, ncols) = (self.a.nrows(), self.a.ncols());
        let x: Vec<f64> = (0..ncols * r).map(|i| 0.25 * ((i % 23) as f64) - 2.0).collect();
        let cols: Vec<Vec<f64>> =
            (0..r).map(|q| (0..ncols).map(|j| x[j * r + q]).collect()).collect();

        let mut measurements = Vec::with_capacity(cands.len());
        for (choice, idx) in &cands {
            let mut session = preps[*idx].session(choice.backend, choice.width);
            let secs = if choice.width == r {
                let mut y = vec![0.0; nrows * r];
                best_of(self.budget.trials, self.budget.iters, || {
                    session.apply_batch(&x, &mut y, r)
                })
            } else {
                let mut y = vec![0.0; nrows];
                best_of(self.budget.trials, self.budget.iters, || {
                    for xq in &cols {
                        session.apply(xq, &mut y);
                    }
                })
            };
            measurements.push(Measurement { choice: *choice, secs: secs.as_secs_f64() });
        }

        let winner = measurements
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
            measurements: measurements.clone(),
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

/// Backends worth measuring on `cores` CPUs: sequential always; the
/// pool once `k > 1` (with one rank it is pure overhead and
/// [`Backend::auto`] never picks it), at the default sizing, half the
/// machine and one participant per rank — each team
/// ([`Backend::participants`]) measured once.
fn backend_shortlist(k: usize, cores: usize) -> Vec<Backend> {
    let mut backends = vec![Backend::CompiledSeq];
    if k > 1 {
        let mut teams: Vec<usize> = Vec::new();
        // `cores / 2` leaves the machine half free (on two cores that
        // is the caller alone: the pool's schedule without a team); `k`
        // is one participant per rank uncapped (distinct from the
        // default only when k > cores — oversubscription sometimes
        // pays on SMT machines).
        for threads in [0, cores / 2, k] {
            let pool = Backend::CompiledPool { threads, pin: false };
            let team = pool.participants(k, cores);
            if !teams.contains(&team) {
                teams.push(team);
                backends.push(pool);
            }
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
        // would both run the default's 8 participants.
        for (k, cores, want) in [
            (8, 64, vec![Backend::CompiledSeq, pool(0)]),
            (16, 2, vec![Backend::CompiledSeq, pool(0), pool(1), pool(16)]),
            (1, 8, vec![Backend::CompiledSeq]),
            (4, 1, vec![Backend::CompiledSeq, pool(0), pool(4)]),
        ] {
            let got = backend_shortlist(k, cores);
            assert_eq!(got, want, "k={k} cores={cores}");
            let mut teams: Vec<usize> = got
                .iter()
                .filter(|b| matches!(b, Backend::CompiledPool { .. }))
                .map(|b| b.participants(k, cores))
                .collect();
            let n = teams.len();
            teams.sort_unstable();
            teams.dedup();
            assert_eq!(teams.len(), n, "k={k} cores={cores}: a team is measured twice");
        }
    }
}
