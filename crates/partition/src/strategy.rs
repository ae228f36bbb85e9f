//! The [`Strategy`] enum: every partitioning method as one value.

use s2d_baselines::oned::{majority_col_owner, OnedPartition};
use s2d_baselines::{
    partition_1d_b, partition_1d_colwise, partition_1d_rowwise, partition_2d_fine_grain,
    partition_checkerboard, partition_s2d_mg,
};
use s2d_core::heuristic::{s2d_heuristic_kway, HeuristicConfig};
use s2d_core::heuristic2::{s2d_generalized, Heuristic2Config};
use s2d_core::iterate::{iterate_s2d, IterateConfig};
use s2d_core::optimal::s2d_optimal;
use s2d_core::partition::SpmvPartition;
use s2d_hypergraph::models::column_net_model;
use s2d_hypergraph::{partition_kway, PartitionConfig};
use s2d_sparse::{Csr, MatrixStats};

use crate::quality::PartitionQuality;

/// Shared partitioner knobs (the two every method accepts).
#[derive(Clone, Copy, Debug)]
pub struct PartitionerConfig {
    /// Load-balance tolerance ε (the paper's 3% default).
    pub epsilon: f64,
    /// RNG seed for the hypergraph engine; runs are deterministic given
    /// a seed. The engine derives one seed per bisection from it (see
    /// `s2d_hypergraph::PartitionConfig::seed`), so a partition does not
    /// depend on the core count.
    pub seed: u64,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        PartitionerConfig { epsilon: 0.03, seed: 1 }
    }
}

/// Which semi-2D split refines the 1D-induced vector partition —
/// the deduplicated `heuristic`/`heuristic2` surface (both run the
/// shared sweep engine in `s2d_core::sweep`; see the module docs there
/// for the exact behavioral difference).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum S2dVariant {
    /// Algorithm 1 (Section IV-B): greedy `{A1, A2}` volume sweeps
    /// under the load cap. The paper's headline `s2D` method.
    Algorithm1,
    /// The generalized heuristic (Section VII): full `{A1, A2, A4, A3}`
    /// alternative family plus a balance pass that can offload
    /// overloaded row owners.
    Generalized,
    /// The per-block DM optimum (Section IV-A): minimum possible volume
    /// for the given vector partition, balance unconstrained.
    Optimal,
    /// Alternating vector/nonzero refinement (Section VII outlook);
    /// square matrices only.
    Iterative,
}

/// Every partitioning method in the workspace as one selectable value.
///
/// `FromStr` accepts both the canonical labels (`Display` output) and
/// the legacy CLI spellings; [`Strategy::all`] and [`Strategy::fixed`]
/// drive the sweeps. The variants map onto the paper's method names:
/// `s2d*` (Sections IV/VII), `1d`/`1d-col` (Catalyurek–Aykanat 1D),
/// `2d` (fine-grain), `2d-b` (checkerboard), `1d-b` (Boman et al.),
/// `s2d-mg` (medium-grain, Pelt–Bisseling adapted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Semi-2D: 1D-rowwise vector partition refined by `variant`.
    SemiTwoD {
        /// Which refinement runs on the induced vector partition.
        variant: S2dVariant,
    },
    /// 1D rowwise via the column-net hypergraph model (the paper's `1D`).
    OneDRow,
    /// 1D columnwise via the row-net model (dual of [`Strategy::OneDRow`]).
    OneDCol,
    /// Cartesian checkerboard on the default mesh (the paper's `2D-b`);
    /// square matrices only.
    Checkerboard,
    /// 2D nonzero-based fine-grain partitioning (the paper's `2D`).
    FineGrain,
    /// Medium-grain adapted to emit s2D partitions (the paper's
    /// `s2D-mg`); square matrices only.
    MediumGrain,
    /// The 1D-to-mesh post-processing of Boman et al. (the paper's
    /// `1D-b`); square matrices only.
    Boman,
    /// The raw multilevel k-way engine on the column-net model without
    /// the 1D conventions (no diagonal pins) — isolates the hypergraph
    /// partitioner itself as a baseline.
    HypergraphKway,
    /// Cost-model-driven selection: matrix statistics prune the
    /// candidate set, the α–β–γ model picks the winner (see
    /// [`Strategy::auto_pick`]).
    Auto,
}

impl Strategy {
    /// Every strategy including [`Strategy::Auto`] — the sweep set for
    /// benches and conformance suites.
    pub fn all() -> Vec<Strategy> {
        let mut v = Self::fixed();
        v.push(Strategy::Auto);
        v
    }

    /// Every concrete strategy (everything but [`Strategy::Auto`]).
    pub fn fixed() -> Vec<Strategy> {
        let s2d = |variant| Strategy::SemiTwoD { variant };
        vec![
            s2d(S2dVariant::Algorithm1),
            s2d(S2dVariant::Generalized),
            s2d(S2dVariant::Optimal),
            s2d(S2dVariant::Iterative),
            Strategy::OneDRow,
            Strategy::OneDCol,
            Strategy::Checkerboard,
            Strategy::FineGrain,
            Strategy::MediumGrain,
            Strategy::Boman,
            Strategy::HypergraphKway,
        ]
    }

    /// True when the produced partition is guaranteed to satisfy the
    /// s2D property (and so supports the fused single-phase plan).
    pub fn claims_s2d(&self) -> bool {
        matches!(
            self,
            Strategy::SemiTwoD { .. }
                | Strategy::OneDRow
                | Strategy::OneDCol
                | Strategy::MediumGrain
                | Strategy::HypergraphKway
        )
    }

    /// True when the method only accepts square matrices (mesh-shaped
    /// baselines and the symmetric iterative refinement).
    pub fn requires_square(&self) -> bool {
        matches!(
            self,
            Strategy::Checkerboard
                | Strategy::MediumGrain
                | Strategy::Boman
                | Strategy::SemiTwoD { variant: S2dVariant::Iterative }
        )
    }

    /// Partitions `a` over `k` processors with explicit knobs.
    ///
    /// # Panics
    /// Panics when [`Strategy::requires_square`] holds and `a` is not
    /// square.
    pub fn partition_with(&self, a: &Csr, k: usize, cfg: &PartitionerConfig) -> SpmvPartition {
        self.partition_reusing(a, k, cfg, &mut None)
    }

    /// Partitions `a` over `k` processors with the default knobs
    /// (ε = 3%, seed 1).
    pub fn partition(&self, a: &Csr, k: usize) -> SpmvPartition {
        self.partition_with(a, k, &PartitionerConfig::default())
    }

    /// Partitions `a` with each of `strategies`: entry `i` is exactly
    /// `strategies[i].partition_with(a, k, cfg)`, but the strategies
    /// that start from the 1D rowwise vector partition (`1d`, `s2d*`,
    /// `1d-b`, `auto`'s candidates) share one run of it.
    ///
    /// # Panics
    /// As [`Strategy::partition_with`], for any of `strategies`.
    pub fn partition_all(
        strategies: &[Strategy],
        a: &Csr,
        k: usize,
        cfg: &PartitionerConfig,
    ) -> Vec<SpmvPartition> {
        let mut oned = None;
        strategies.iter().map(|s| s.partition_reusing(a, k, cfg, &mut oned)).collect()
    }

    /// Runs the auto-selection and reports what won and why: matrix
    /// statistics prune [`Strategy::fixed`] down to the
    /// [`Strategy::auto_candidates`] shortlist, which is partitioned as
    /// by [`Strategy::partition_all`] (one 1D rowwise run for `1d`,
    /// `s2d` and `s2d-gen`), and the α–β–γ model prices each
    /// candidate's best legal plan; the cheapest modeled per-iteration
    /// time wins (ties to the earlier candidate).
    pub fn auto_pick(a: &Csr, k: usize, cfg: &PartitionerConfig) -> AutoPick {
        Strategy::pick(a, k, cfg, &mut None)
    }

    /// [`Strategy::auto_pick`], sharing `oned` (see
    /// [`Strategy::partition_reusing`]).
    fn pick(
        a: &Csr,
        k: usize,
        cfg: &PartitionerConfig,
        oned: &mut Option<OnedPartition>,
    ) -> AutoPick {
        let priced = Strategy::auto_candidates(a, k).into_iter().map(|s| {
            let p = s.partition_reusing(a, k, cfg, oned);
            let q = PartitionQuality::measure(a, &p, s.to_string());
            ((s, p), q)
        });
        let ((strategy, partition), quality) =
            Strategy::cheapest(priced).expect("candidate set is never empty");
        AutoPick { strategy, partition, quality }
    }

    /// [`Strategy::partition_with`], taking the 1D rowwise partition
    /// from `oned` and leaving it there on first need: `oned` is `None`
    /// or the 1D rowwise partition of `(a, k, cfg)`.
    fn partition_reusing(
        &self,
        a: &Csr,
        k: usize,
        cfg: &PartitionerConfig,
        oned: &mut Option<OnedPartition>,
    ) -> SpmvPartition {
        let square = a.nrows() == a.ncols();
        assert!(square || !self.requires_square(), "{self} requires a square matrix");
        let (eps, seed) = (cfg.epsilon, cfg.seed);
        let rowwise = || partition_1d_rowwise(a, k, eps, seed);
        match *self {
            Strategy::SemiTwoD { variant } => {
                let v = oned.get_or_insert_with(rowwise);
                match variant {
                    S2dVariant::Algorithm1 => s2d_heuristic_kway(
                        a,
                        &v.row_part,
                        &v.col_part,
                        k,
                        &HeuristicConfig { epsilon: eps, ..Default::default() },
                    ),
                    S2dVariant::Generalized => s2d_generalized(
                        a,
                        &v.row_part,
                        &v.col_part,
                        k,
                        &Heuristic2Config { epsilon: eps, ..Default::default() },
                    ),
                    S2dVariant::Optimal => s2d_optimal(a, &v.row_part, &v.col_part, k),
                    S2dVariant::Iterative => {
                        let inner = Heuristic2Config { epsilon: eps, ..Default::default() };
                        let cfg = IterateConfig { inner, ..Default::default() };
                        iterate_s2d(a, &v.row_part, k, &cfg).partition
                    }
                }
            }
            Strategy::OneDRow => oned.get_or_insert_with(rowwise).partition.clone(),
            Strategy::OneDCol => partition_1d_colwise(a, k, eps, seed).partition,
            Strategy::Checkerboard => partition_checkerboard(a, k, eps, seed).partition,
            Strategy::FineGrain => partition_2d_fine_grain(a, k, eps, seed),
            Strategy::MediumGrain => partition_s2d_mg(a, k, eps, seed),
            Strategy::Boman => partition_1d_b(a, &oned.get_or_insert_with(rowwise).row_part, k),
            Strategy::HypergraphKway => {
                let hg = column_net_model(a, false);
                let kcfg = PartitionConfig { epsilon: eps, seed };
                let row_part = partition_kway(&hg, k, &kcfg).parts;
                let col_part =
                    if square { row_part.clone() } else { majority_col_owner(a, &row_part, k) };
                SpmvPartition::rowwise(a, row_part, col_part, k)
            }
            Strategy::Auto => Strategy::pick(a, k, cfg, oned).partition,
        }
    }

    /// The model's choice among already-partitioned candidates: the one
    /// with the cheapest modeled α–β–γ per-iteration time
    /// ([`PartitionQuality::alpha_beta_time`]), ties to the earlier;
    /// `None` when there is none. The one pricing rule behind
    /// [`Strategy::auto_pick`] and the `s2d-tune` model pick, which
    /// prices the partitions it has prepared anyway.
    pub fn cheapest<T>(
        priced: impl IntoIterator<Item = (T, PartitionQuality)>,
    ) -> Option<(T, PartitionQuality)> {
        priced.into_iter().reduce(|best, c| {
            if c.1.alpha_beta_time < best.1.alpha_beta_time {
                c
            } else {
                best
            }
        })
    }

    /// The matrix-statistics-pruned candidate shortlist behind
    /// [`Strategy::auto_pick`] — also the strategy axis of the
    /// `s2d-tune` empirical search. Deterministic for a given matrix
    /// (the statistics are pure functions of the structure) and never
    /// empty: `1d` and `s2d` are always present; dense-row/skewed
    /// matrices add `s2d-gen` and `2d` (1D row balance collapses
    /// there); square matrices add `2d-b` once the mesh is nontrivial
    /// (K ≥ 4 — latency-bound routing starts paying when the α term
    /// dominates) and `s2d-mg` when skewed.
    pub fn auto_candidates(a: &Csr, k: usize) -> Vec<Strategy> {
        let stats = MatrixStats::of(a);
        let square = a.nrows() == a.ncols();
        let skewed = stats.row_dmax as f64 > 8.0 * stats.row_davg.max(1.0)
            || stats.col_dmax as f64 > 8.0 * stats.col_davg.max(1.0);

        let mut candidates =
            vec![Strategy::OneDRow, Strategy::SemiTwoD { variant: S2dVariant::Algorithm1 }];
        if skewed {
            candidates.push(Strategy::SemiTwoD { variant: S2dVariant::Generalized });
            candidates.push(Strategy::FineGrain);
        }
        if square && k >= 4 {
            candidates.push(Strategy::Checkerboard);
        }
        if square && skewed {
            candidates.push(Strategy::MediumGrain);
        }
        candidates
    }
}

/// What [`Strategy::auto_pick`] decided.
#[derive(Clone, Debug)]
pub struct AutoPick {
    /// The winning concrete strategy.
    pub strategy: Strategy,
    /// Its partition.
    pub partition: SpmvPartition,
    /// Its measured quality (the modeled time that won the comparison).
    pub quality: PartitionQuality,
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parses both the canonical labels and the legacy CLI spellings
    /// (`1d`, `1d-col`, `2d`, `s2d`, `s2d-opt`, `s2d-mg`, `2d-b`,
    /// `1d-b` keep working unchanged).
    fn from_str(s: &str) -> Result<Strategy, String> {
        match s {
            "s2d" => Ok(Strategy::SemiTwoD { variant: S2dVariant::Algorithm1 }),
            "s2d-gen" | "s2d2" => Ok(Strategy::SemiTwoD { variant: S2dVariant::Generalized }),
            "s2d-opt" => Ok(Strategy::SemiTwoD { variant: S2dVariant::Optimal }),
            "s2d-it" | "s2d-iter" => Ok(Strategy::SemiTwoD { variant: S2dVariant::Iterative }),
            "1d" | "1d-row" => Ok(Strategy::OneDRow),
            "1d-col" => Ok(Strategy::OneDCol),
            "2d-b" | "checkerboard" => Ok(Strategy::Checkerboard),
            "2d" | "fine-grain" => Ok(Strategy::FineGrain),
            "s2d-mg" | "medium-grain" => Ok(Strategy::MediumGrain),
            "1d-b" | "boman" => Ok(Strategy::Boman),
            "hg-kway" | "kway" => Ok(Strategy::HypergraphKway),
            "auto" => Ok(Strategy::Auto),
            other => Err(format!(
                "unknown partitioner {other:?} \
                 (s2d|s2d-gen|s2d-opt|s2d-it|1d|1d-col|2d|2d-b|s2d-mg|1d-b|hg-kway|auto)"
            )),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::SemiTwoD { variant: S2dVariant::Algorithm1 } => "s2d",
            Strategy::SemiTwoD { variant: S2dVariant::Generalized } => "s2d-gen",
            Strategy::SemiTwoD { variant: S2dVariant::Optimal } => "s2d-opt",
            Strategy::SemiTwoD { variant: S2dVariant::Iterative } => "s2d-it",
            Strategy::OneDRow => "1d",
            Strategy::OneDCol => "1d-col",
            Strategy::Checkerboard => "2d-b",
            Strategy::FineGrain => "2d",
            Strategy::MediumGrain => "s2d-mg",
            Strategy::Boman => "1d-b",
            Strategy::HypergraphKway => "hg-kway",
            Strategy::Auto => "auto",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::comm::comm_requirements;
    use s2d_sparse::Coo;

    fn grid(n: usize) -> Csr {
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 4.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        m.compress();
        m.to_csr()
    }

    #[test]
    fn display_fromstr_roundtrip_covers_every_strategy() {
        for s in Strategy::all() {
            let back: Strategy = s.to_string().parse().expect("canonical label parses");
            assert_eq!(back, s, "{s}");
        }
        assert!("nonsense".parse::<Strategy>().is_err());
    }

    #[test]
    fn legacy_cli_spellings_still_parse() {
        for (name, want) in [
            ("1d", Strategy::OneDRow),
            ("1d-col", Strategy::OneDCol),
            ("2d", Strategy::FineGrain),
            ("s2d", Strategy::SemiTwoD { variant: S2dVariant::Algorithm1 }),
            ("s2d-opt", Strategy::SemiTwoD { variant: S2dVariant::Optimal }),
            ("s2d-mg", Strategy::MediumGrain),
            ("2d-b", Strategy::Checkerboard),
            ("1d-b", Strategy::Boman),
        ] {
            assert_eq!(name.parse::<Strategy>().unwrap(), want, "{name}");
        }
    }

    #[test]
    fn all_is_fixed_plus_auto() {
        let all = Strategy::all();
        let fixed = Strategy::fixed();
        assert_eq!(all.len(), fixed.len() + 1);
        assert_eq!(*all.last().unwrap(), Strategy::Auto);
        assert!(!fixed.contains(&Strategy::Auto));
    }

    #[test]
    fn every_fixed_strategy_partitions_a_grid() {
        let a = grid(48);
        for s in Strategy::fixed() {
            let p = s.partition(&a, 4);
            p.assert_shape(&a);
            assert_eq!(p.k, 4, "{s}");
            if s.claims_s2d() {
                assert!(p.validate_s2d(&a).is_ok(), "{s} must be s2D");
            }
        }
    }

    #[test]
    fn semi_2d_never_exceeds_1d_volume() {
        // Algorithm 1 starts from 1D rowwise and only takes
        // volume-reducing flips: λ(s2d) ≤ λ(1d) with the same seed.
        let a = grid(64);
        let cfg = PartitionerConfig::default();
        let v1 =
            comm_requirements(&a, &Strategy::OneDRow.partition_with(&a, 4, &cfg)).total_volume();
        let vs = comm_requirements(
            &a,
            &Strategy::SemiTwoD { variant: S2dVariant::Algorithm1 }.partition_with(&a, 4, &cfg),
        )
        .total_volume();
        assert!(vs <= v1, "s2d {vs} > 1d {v1}");
    }

    #[test]
    fn auto_picks_a_concrete_strategy() {
        let a = grid(48);
        let pick = Strategy::auto_pick(&a, 4, &PartitionerConfig::default());
        assert_ne!(pick.strategy, Strategy::Auto);
        pick.partition.assert_shape(&a);
        // Partitioning by `auto` returns the same partition.
        assert_eq!(Strategy::Auto.partition(&a, 4), pick.partition);
    }

    #[test]
    fn auto_candidates_are_deterministic_and_contain_the_pick() {
        let a = grid(48);
        let candidates = Strategy::auto_candidates(&a, 4);
        assert!(!candidates.is_empty());
        assert_eq!(candidates, Strategy::auto_candidates(&a, 4), "pure function of (a, k)");
        assert!(candidates.contains(&Strategy::OneDRow), "1d is always shortlisted");
        let pick = Strategy::auto_pick(&a, 4, &PartitionerConfig::default());
        assert!(candidates.contains(&pick.strategy), "auto_pick chooses from the shortlist");
    }

    #[test]
    fn rectangular_matrices_work_on_the_rect_capable_subset() {
        let a = Coo::from_pattern(
            6,
            4,
            &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (5, 1), (0, 3), (2, 0)],
        )
        .to_csr();
        for s in Strategy::fixed().into_iter().filter(|s| !s.requires_square()) {
            let p = s.partition(&a, 2);
            p.assert_shape(&a);
            if s.claims_s2d() {
                assert!(p.validate_s2d(&a).is_ok(), "{s}");
            }
        }
    }
}
