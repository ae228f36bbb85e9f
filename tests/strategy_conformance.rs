//! Cross-strategy conformance: every [`Strategy`] yields a shape-valid
//! partition (s2D-valid where claimed), the full engine stack agrees
//! with the serial product over every strategy × backend, and the
//! cost-model-driven `Auto` never picks a strategy whose modeled cost
//! is far from the best fixed one.

use s2d::gen::denserow::{dense_row_matrix, DenseRowConfig};
use s2d::gen::rmat::{rmat, RmatConfig};
use s2d::partition::{PartitionQuality, PartitionerConfig, Strategy};
use s2d::sparse::{Coo, Csr};
use s2d::spmv::plan::volume_matches_eq3;
use s2d::{Backend, PlanKind, Session};

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

/// The conformance matrix set: regular, scale-free, and dense-row — the
/// three regimes the strategies specialize for — plus a wide and a tall
/// cut of the generated ones, so every strategy without
/// `requires_square` is held to the same invariants on non-square
/// inputs (the generators themselves only emit square matrices).
fn matrix_set() -> Vec<(&'static str, Csr)> {
    let rmat8 = rmat(&RmatConfig::graph500(8, 6), 7).to_csr();
    let denserow = dense_row_matrix(
        &DenseRowConfig { n: 300, nnz: 2400, dmax: 120, tail_decay: 0.5, mirror_cols: true },
        11,
    );
    let first = |n: usize| (0..n).collect::<Vec<_>>();
    let wide = denserow.submatrix(&first(100), &first(300));
    let tall = rmat8.submatrix(&first(256), &first(80));
    vec![
        ("grid64", grid(64)),
        ("rmat8", rmat8),
        ("denserow", denserow),
        ("wide100x300", wide),
        ("tall256x80", tall),
    ]
}

#[test]
fn every_strategy_yields_a_valid_partition() {
    for (name, a) in matrix_set() {
        for k in [1, 4, 8] {
            for s in Strategy::all() {
                if s.requires_square() && a.nrows() != a.ncols() {
                    continue;
                }
                let p = s.partition(&a, k);
                p.assert_shape(&a);
                assert_eq!(p.k, k, "{name}/{s}");
                let total: u64 = p.loads().iter().sum();
                assert_eq!(total, a.nnz() as u64, "{name}/{s}: loads must cover every nonzero");
                if s.claims_s2d() {
                    assert!(
                        p.validate_s2d(&a).is_ok(),
                        "{name}/{s}/K={k} must satisfy the s2D property"
                    );
                }
                let plan = PlanKind::auto(&a, &p).build(&a, &p);
                assert!(volume_matches_eq3(&a, &p, &plan), "{name}/{s}/K={k}: Eq. 3 volume");
                let x: Vec<f64> = (0..a.ncols()).map(|j| ((j * 37) % 19) as f64 - 9.0).collect();
                let mut y = vec![0.0; a.nrows()];
                Session::builder(&a).partition(&p).build().apply(&x, &mut y);
                for (i, (g, w)) in y.iter().zip(a.spmv_alloc(&x)).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                        "{name}/{s}/K={k}: row {i}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_differential_over_every_strategy() {
    // The full engine stack (all four backends) must reproduce the
    // serial product on every strategy's partition — partitions built
    // once per strategy, then fed through Session × Backend::all().
    let a = grid(48);
    let x: Vec<f64> = (0..a.ncols()).map(|j| ((j * 37) % 19) as f64 - 9.0).collect();
    let want = a.spmv_alloc(&x);
    for s in Strategy::all() {
        let p = s.partition(&a, 4);
        for backend in Backend::all() {
            let mut session = Session::builder(&a).partition(&p).backend(backend).build();
            let mut y = vec![0.0; a.nrows()];
            session.apply(&x, &mut y);
            for (i, (g, w)) in y.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "{s}/{backend}: row {i}: {g} vs {w}"
                );
            }
        }
    }
}

#[test]
fn sessions_built_by_strategy_agree_with_reference() {
    // The builder-side path (.partitioner) on the skewed matrix — the
    // regime where partitions genuinely differ between strategies.
    let a = matrix_set().into_iter().find(|(n, _)| *n == "denserow").expect("present").1;
    let x: Vec<f64> = (0..a.ncols()).map(|j| 0.25 * j as f64 - 3.0).collect();
    let want = a.spmv_alloc(&x);
    for s in Strategy::all() {
        let mut session = Session::builder(&a).partitioner(s, 8).build();
        let mut y = vec![0.0; a.nrows()];
        session.apply(&x, &mut y);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{s}: {g} vs {w}");
        }
    }
}

#[test]
fn auto_tracks_the_best_fixed_strategy() {
    // Auto's modeled per-iteration cost must stay within 25% of the
    // best fixed strategy's on every conformance matrix × K.
    let cfg = PartitionerConfig::default();
    for (name, a) in matrix_set() {
        for k in [4, 8] {
            let mut best = f64::INFINITY;
            let mut best_label = String::new();
            for s in Strategy::fixed() {
                if s.requires_square() && a.nrows() != a.ncols() {
                    continue;
                }
                let p = s.partition_with(&a, k, &cfg);
                let q = PartitionQuality::measure(&a, &p, s.to_string());
                if q.alpha_beta_time < best {
                    best = q.alpha_beta_time;
                    best_label = q.strategy;
                }
            }
            let pick = s2d::partition::Strategy::auto_pick(&a, k, &cfg);
            assert!(
                pick.quality.alpha_beta_time <= 1.25 * best,
                "{name}/K={k}: auto picked {} at {:.2} us but {} costs {:.2} us",
                pick.strategy,
                pick.quality.alpha_beta_time * 1e6,
                best_label,
                best * 1e6
            );
        }
    }
}
