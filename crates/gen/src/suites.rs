//! The paper's two test suites, reproduced as synthetic doubles.
//!
//! Suite A is Table I (comparison with 1D and 2D methods); suite B is
//! Table IV (matrices with dense rows, for the bounded-latency methods).
//! Every spec records the paper's `n / nnz / davg / dmax` so
//! `s2d reproduce table1` / `table4` can print reference and generated
//! statistics side by side.
//!
//! [`Scale`] selects the size: `tiny` (~1/128, CI smoke), `small`
//! (~1/16), `paper` (full size).

use s2d_sparse::Csr;

use crate::denserow::{dense_row_matrix, DenseRowConfig};
use crate::fem::fem_like;
use crate::powerlaw::power_law;
use crate::rmat::{rmat, RmatConfig};

/// Experiment scale: a divisor applied to the paper's matrix sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~1/128 of the paper's nonzeros — CI smoke tests.
    Tiny,
    /// ~1/16 — the CLI's default.
    Small,
    /// Full size.
    Paper,
}

impl Scale {
    /// The size divisor.
    pub fn divisor(self) -> usize {
        match self {
            Scale::Tiny => 128,
            Scale::Small => 16,
            Scale::Paper => 1,
        }
    }

    /// Processor counts for suite-A experiments (Table II uses
    /// K ∈ {16, 64, 256}).
    pub fn ks_suite_a(self) -> Vec<usize> {
        match self {
            Scale::Tiny => vec![16, 64],
            _ => vec![16, 64, 256],
        }
    }

    /// Processor counts for suite-B experiments (Tables V–VII use
    /// K ∈ {256, 1024, 4096}).
    pub fn ks_suite_b(self) -> Vec<usize> {
        match self {
            Scale::Tiny => vec![64, 256],
            Scale::Small => vec![256, 1024],
            Scale::Paper => vec![256, 1024, 4096],
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses `tiny` | `small` | `paper`; anything else is an error.
    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale {other:?} (tiny|small|paper)")),
        }
    }
}

/// The paper's reported statistics for a matrix.
#[derive(Clone, Copy, Debug)]
pub struct PaperStats {
    /// Order.
    pub n: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Average row degree.
    pub davg: f64,
    /// Maximum row degree.
    pub dmax: usize,
}

/// Generator class of a matrix double.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// 3D stencil (structural/FEM).
    Fem,
    /// Sparse background + dense-row tail; `mirror` adds dense columns.
    DenseRows { mirror: bool },
    /// Chung–Lu scale-free graph.
    PowerLaw { gamma: f64 },
    /// R-MAT with the paper's Graph500 parameters.
    Rmat,
}

/// A matrix of one of the paper's suites.
#[derive(Clone, Copy, Debug)]
pub struct MatrixSpec {
    /// UFL/SNAP name as printed in the paper.
    pub name: &'static str,
    /// The paper's application column.
    pub application: &'static str,
    /// The paper's Table I/IV statistics.
    pub paper: PaperStats,
    kind: Kind,
}

impl MatrixSpec {
    /// Scaled generation targets `(n, nnz, dmax)` for `scale`.
    ///
    /// `dmax` is divided like `n` (the dense row keeps covering the same
    /// fraction of the columns), but for skewed matrices it is floored at
    /// `min(n/2, 5·davg)` so the skew that drives the paper's comparisons
    /// survives even the tiny scale.
    pub fn targets(&self, scale: Scale) -> (usize, usize, usize) {
        let d = scale.divisor();
        let n = (self.paper.n / d).max(256);
        let nnz = (self.paper.nnz / d).max(4 * n);
        let skewed = self.paper.dmax as f64 > 10.0 * self.paper.davg;
        let floor = if skewed { (n / 2).min((5.0 * self.paper.davg) as usize).max(8) } else { 8 };
        let dmax = (self.paper.dmax / d).clamp(floor, n - 1);
        (n, nnz, dmax)
    }

    /// Generates the double at `scale`. Deterministic in `(self, scale,
    /// seed)`.
    pub fn generate(&self, scale: Scale, seed: u64) -> Csr {
        let (n, nnz, dmax) = self.targets(scale);
        let seed = seed ^ fnv(self.name);
        match self.kind {
            Kind::Fem => fem_like(n, self.paper.davg, dmax, seed),
            Kind::DenseRows { mirror } => dense_row_matrix(
                &DenseRowConfig { n, nnz, dmax, tail_decay: 0.5, mirror_cols: mirror },
                seed,
            ),
            Kind::PowerLaw { gamma } => power_law(n, nnz, gamma, dmax, seed),
            Kind::Rmat => {
                let scale_log = (n as f64).log2().round() as u32;
                let ef = (self.paper.davg / 2.0).round().max(1.0) as usize;
                rmat(&RmatConfig::graph500(scale_log, ef), seed).to_csr()
            }
        }
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Suite A — Table I: the eight matrices compared against 1D and 2D.
pub fn suite_a() -> Vec<MatrixSpec> {
    vec![
        MatrixSpec {
            name: "crystk02",
            application: "materials problem",
            paper: PaperStats { n: 13_965, nnz: 968_583, davg: 69.4, dmax: 81 },
            kind: Kind::Fem,
        },
        MatrixSpec {
            name: "turon_m",
            application: "structural engineering",
            paper: PaperStats { n: 189_924, nnz: 1_690_876, davg: 8.9, dmax: 11 },
            kind: Kind::Fem,
        },
        MatrixSpec {
            name: "trdheim",
            application: "structural engineering",
            paper: PaperStats { n: 22_098, nnz: 1_935_324, davg: 87.6, dmax: 150 },
            kind: Kind::Fem,
        },
        MatrixSpec {
            name: "c-big",
            application: "non-linear optimization",
            paper: PaperStats { n: 345_241, nnz: 2_340_859, davg: 6.8, dmax: 19_578 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "ASIC_680k",
            application: "circuit simulation",
            paper: PaperStats { n: 682_862, nnz: 2_638_997, davg: 3.9, dmax: 388_488 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "3dtube",
            application: "structural engineering",
            paper: PaperStats { n: 45_330, nnz: 3_213_618, davg: 70.9, dmax: 2_364 },
            kind: Kind::Fem,
        },
        MatrixSpec {
            name: "pkustk12",
            application: "structural engineering",
            paper: PaperStats { n: 94_653, nnz: 7_512_317, davg: 79.4, dmax: 4_146 },
            kind: Kind::Fem,
        },
        MatrixSpec {
            name: "pattern1",
            application: "optimization problem",
            paper: PaperStats { n: 19_242, nnz: 9_323_432, davg: 484.5, dmax: 6_028 },
            kind: Kind::DenseRows { mirror: false },
        },
    ]
}

/// Suite B — Table IV: the eight dense-row matrices for the
/// bounded-latency comparison.
pub fn suite_b() -> Vec<MatrixSpec> {
    vec![
        MatrixSpec {
            name: "boyd2",
            application: "optimization",
            paper: PaperStats { n: 466_316, nnz: 1_500_397, davg: 3.2, dmax: 93_263 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "lp1",
            application: "optimization",
            paper: PaperStats { n: 534_388, nnz: 1_643_420, davg: 3.1, dmax: 249_644 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "c-big",
            application: "non-linear opt.",
            paper: PaperStats { n: 345_241, nnz: 2_340_859, davg: 6.8, dmax: 19_579 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "ASIC_680k",
            application: "optimization",
            paper: PaperStats { n: 682_862, nnz: 2_638_997, davg: 3.9, dmax: 388_489 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "ins2",
            application: "circuit sim.",
            paper: PaperStats { n: 309_412, nnz: 2_751_484, davg: 8.9, dmax: 309_413 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "com-Youtube",
            application: "Youtube social",
            paper: PaperStats { n: 1_157_827, nnz: 5_975_248, davg: 5.2, dmax: 28_755 },
            kind: Kind::PowerLaw { gamma: 2.2 },
        },
        MatrixSpec {
            name: "rajat30",
            application: "circuit sim.",
            paper: PaperStats { n: 643_994, nnz: 6_175_244, davg: 9.6, dmax: 454_747 },
            kind: Kind::DenseRows { mirror: true },
        },
        MatrixSpec {
            name: "rmat_20",
            application: "Graph500 ben.",
            paper: PaperStats { n: 1_048_576, nnz: 8_174_570, davg: 7.8, dmax: 23_716 },
            kind: Kind::Rmat,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_sparse::MatrixStats;

    #[test]
    fn suites_have_eight_matrices_each() {
        assert_eq!(suite_a().len(), 8);
        assert_eq!(suite_b().len(), 8);
    }

    #[test]
    fn tiny_doubles_track_paper_statistics() {
        for spec in suite_a() {
            let a = spec.generate(Scale::Tiny, 1);
            let s = MatrixStats::of(&a);
            let (n, _, dmax) = spec.targets(Scale::Tiny);
            assert!(s.nrows >= n / 2 && s.nrows <= 2 * n, "{}: n {}", spec.name, s.nrows);
            assert!(
                s.row_davg > spec.paper.davg * 0.3 && s.row_davg < spec.paper.davg * 3.0,
                "{}: davg {} vs paper {}",
                spec.name,
                s.row_davg,
                spec.paper.davg
            );
            // Skewed matrices must stay skewed: strongly for the true
            // dense-row classes, mildly for the FEM matrices with a tail.
            // Exception: when scaling forces the matrix dense (davg close
            // to n, e.g. pattern1 at 1/128), the paper-level skew cannot
            // exist at this size — documented limitation of the doubles.
            let (n_scaled, _, _) = spec.targets(Scale::Tiny);
            if spec.paper.davg > n_scaled as f64 / 8.0 {
                continue;
            }
            let paper_skew = spec.paper.dmax as f64 / spec.paper.davg;
            if paper_skew > 50.0 {
                assert!(
                    s.row_dmax as f64 > 5.0 * s.row_davg,
                    "{}: dmax {} davg {}",
                    spec.name,
                    s.row_dmax,
                    s.row_davg
                );
            } else if paper_skew > 10.0 {
                assert!(
                    s.row_dmax as f64 > 2.0 * s.row_davg,
                    "{}: dmax {} davg {}",
                    spec.name,
                    s.row_dmax,
                    s.row_davg
                );
            }
            let _ = dmax;
        }
    }

    #[test]
    fn suite_b_dense_rows_exist_at_tiny_scale() {
        for spec in suite_b() {
            let a = spec.generate(Scale::Tiny, 1);
            let s = MatrixStats::of(&a);
            assert!(
                (s.row_dmax as f64) > 4.0 * s.row_davg,
                "{}: dense-row tail missing (dmax {} davg {})",
                spec.name,
                s.row_dmax,
                s.row_davg
            );
        }
    }

    #[test]
    fn scaling_divides_sizes() {
        let spec = &suite_a()[3]; // c-big
        let (nt, _, _) = spec.targets(Scale::Tiny);
        let (ns, _, _) = spec.targets(Scale::Small);
        let (np, _, _) = spec.targets(Scale::Paper);
        assert!(nt < ns && ns < np);
        assert_eq!(np, spec.paper.n);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &suite_b()[0];
        assert_eq!(spec.generate(Scale::Tiny, 9), spec.generate(Scale::Tiny, 9));
    }

    #[test]
    fn scale_parses_its_labels_and_rejects_typos() {
        for (name, scale) in
            [("tiny", Scale::Tiny), ("small", Scale::Small), ("paper", Scale::Paper)]
        {
            assert_eq!(name.parse::<Scale>(), Ok(scale));
        }
        assert!("tinny".parse::<Scale>().is_err());
        assert!("".parse::<Scale>().is_err());
    }
}
