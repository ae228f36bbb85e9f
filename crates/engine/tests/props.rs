//! Property tests: the compiled engine (sequential executor,
//! the persistent worker pool and the endpoint walker) must reproduce
//! `execute_mailbox` on random R-MAT and power-law matrices, across all four plan kinds —
//! row-parallel 1D, two-phase 2D, single-phase s2D, mesh-routed s2D-b —
//! and processor counts K ∈ {1, 2, 4, 7, 16}.

use proptest::prelude::*;
use s2d_core::optimal::s2d_optimal;
use s2d_core::partition::SpmvPartition;
use s2d_engine::{CompiledPlan, EndpointOperator, ParallelEngine, PoolOptions};
use s2d_gen::powerlaw::power_law;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_runtime::ChaosConfig;
use s2d_sparse::Csr;
use s2d_spmv::{SpmvOperator, SpmvPlan};

const KS: [usize; 5] = [1, 2, 4, 7, 16];

/// Random small matrix: R-MAT (degree-skewed) or power-law (Chung–Lu
/// tail), selected and seeded by the strategy.
fn matrix_strategy() -> impl Strategy<Value = Csr> {
    (0u64..1_000_000, 0u8..2, 5u32..7).prop_map(|(seed, family, scale)| {
        if family == 0 {
            rmat(&RmatConfig::graph500(scale, 4), seed).to_csr()
        } else {
            let n = 1usize << scale;
            power_law(n, 6 * n, 2.5, n / 2, seed)
        }
    })
}

/// Symmetric block vector partition (valid for every plan kind).
fn block_parts(n: usize, k: usize) -> Vec<u32> {
    let per = n.div_ceil(k);
    (0..n).map(|i| (i / per) as u32).collect()
}

fn x_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|j| ((j as u64).wrapping_mul(2654435761).wrapping_add(seed) % 101) as f64 / 13.0 - 3.0)
        .collect()
}

fn assert_close(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
            "{} y[{}]: {} vs {}",
            what,
            idx,
            g,
            w
        );
    }
    Ok(())
}

/// The four plan kinds over one matrix and processor count.
fn plans_for(a: &Csr, k: usize) -> Vec<(&'static str, SpmvPlan)> {
    let n = a.nrows();
    let parts = block_parts(n, k);
    // Row-parallel 1D: every nonzero with its row (a degenerate s2D).
    let p1d = SpmvPartition::rowwise(a, parts.clone(), parts.clone(), k);
    // Genuinely 2D nonzero distribution: the optimal s2D split.
    let ps2d = s2d_optimal(a, &parts, &parts, k);
    vec![
        ("1d/single_phase", SpmvPlan::single_phase(a, &p1d)),
        ("2d/two_phase", SpmvPlan::two_phase(a, &ps2d)),
        ("s2d/single_phase", SpmvPlan::single_phase(a, &ps2d)),
        ("s2d-b/mesh", SpmvPlan::mesh_default(a, &ps2d)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential compiled execution matches the mailbox interpreter on
    /// every plan kind and every K.
    #[test]
    fn compiled_matches_mailbox(a in matrix_strategy(), xseed in 0u64..100) {
        let x = x_for(a.ncols(), xseed);
        for k in KS {
            if k > a.nrows() {
                continue;
            }
            for (kind, plan) in plans_for(&a, k) {
                let want = plan.execute_mailbox(&x);
                let cp = CompiledPlan::compile(&plan);
                prop_assert_eq!(cp.total_ops(), plan.total_ops());
                let mut op = ParallelEngine::with_options(
                    cp,
                    PoolOptions { threads: 1, width: 1, ..PoolOptions::default() },
                );
                let mut y = vec![0.0; a.nrows()];
                op.apply(&x, &mut y);
                assert_close(&y, &want, kind)?;
                // Reuse the arena: second run must be identical.
                let mut y2 = vec![0.0; a.nrows()];
                op.apply(&x, &mut y2);
                prop_assert_eq!(&y, &y2);
            }
        }
    }

    /// The worker pool agrees with the mailbox interpreter too (and
    /// with any thread count).
    #[test]
    fn pool_matches_mailbox(a in matrix_strategy(), xseed in 0u64..100, threads in 1usize..5) {
        let x = x_for(a.ncols(), xseed);
        for k in [2usize, 7, 16] {
            if k > a.nrows() {
                continue;
            }
            for (kind, plan) in plans_for(&a, k) {
                let want = plan.execute_mailbox(&x);
                let cp = CompiledPlan::compile(&plan);
                let mut engine = ParallelEngine::with_options(
                    cp,
                    PoolOptions { threads, ..PoolOptions::default() },
                );
                let mut y = vec![0.0; a.nrows()];
                engine.apply(&x, &mut y);
                assert_close(&y, &want, kind)?;
            }
        }
    }

    /// The endpoint walker (the `execute_threaded` legs of the old
    /// plan-level suites, strengthened): one OS thread per rank under
    /// chaos-delayed delivery is **bitwise** equal to the sequential
    /// executor at r = 1 and r = 4, and agrees with the oracle.
    #[test]
    fn endpoints_match_compiled_seq_bitwise(
        a in matrix_strategy(),
        xseed in 0u64..100,
        chaos_seed in 0u64..1000,
    ) {
        for k in [1usize, 4, 7] {
            for (kind, plan) in plans_for(&a, k) {
                let cp = std::sync::Arc::new(CompiledPlan::compile(&plan));
                let chaos = ChaosConfig::with_delays(40, chaos_seed);
                let mut op = EndpointOperator::new(std::sync::Arc::clone(&cp), chaos, None);
                for r in [1usize, 4] {
                    let x: Vec<f64> =
                        (0..r as u64).flat_map(|q| x_for(a.ncols(), xseed + q)).collect();
                    let mut want = vec![0.0; a.nrows() * r];
                    ParallelEngine::with_options(
                        std::sync::Arc::clone(&cp),
                        PoolOptions { threads: 1, width: r, ..PoolOptions::default() },
                    )
                    .apply_batch(&x, &mut want, r);
                    let mut y = vec![f64::NAN; a.nrows() * r];
                    op.apply_batch(&x, &mut y, r);
                    prop_assert_eq!(&y, &want, "{} k={} r={}", kind, k, r);
                }
                let x = x_for(a.ncols(), xseed);
                let mut y = vec![0.0; a.nrows()];
                op.apply(&x, &mut y);
                assert_close(&y, &plan.execute_mailbox(&x), kind)?;
            }
        }
    }
}
