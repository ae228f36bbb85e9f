//! Property tests for the SpMV plans and executors: every plan kind on
//! random matrices and partitions must reproduce the serial product, in
//! both the mailbox and the threaded (message-passing) executor, fused
//! plans must conserve volume, and plans must conserve multiply-adds.

use proptest::prelude::*;
use s2d_core::comm::comm_requirements;
use s2d_core::optimal::s2d_optimal;
use s2d_core::partition::SpmvPartition;
use s2d_sparse::{Coo, Csr};
use s2d_spmv::SpmvPlan;

/// Random square matrix with values, plus a symmetric vector partition.
fn instance_strategy(
    max_n: usize,
    max_nnz: usize,
    max_k: usize,
) -> impl Strategy<Value = (Csr, Vec<u32>, usize)> {
    (2..=max_n, 1..=max_k).prop_flat_map(move |(n, k)| {
        let entry = (0..n, 0..n, -4i32..=4);
        let parts = proptest::collection::vec(0..k as u32, n);
        (proptest::collection::vec(entry, 1..=max_nnz), parts).prop_map(move |(es, parts)| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in es {
                coo.push(r, c, f64::from(v) * 0.5 + 0.25);
            }
            coo.compress();
            (coo.to_csr(), parts, k)
        })
    })
}

fn x_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|j| ((j as u64).wrapping_mul(2654435761).wrapping_add(seed) % 101) as f64 / 13.0 - 3.0)
        .collect()
}

fn assert_close(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        prop_assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-phase, two-phase and mesh plans on the optimal s2D
    /// partition all reproduce the serial SpMV under the oracle (the
    /// compiled drivers, endpoint walker included, are held to the
    /// oracle in `crates/engine/tests/props.rs`).
    #[test]
    fn all_plans_match_serial((a, parts, k) in instance_strategy(14, 40, 4), seed in 0u64..50) {
        let p = s2d_optimal(&a, &parts, &parts, k);
        let x = x_for(a.ncols(), seed);
        let want = a.spmv_alloc(&x);
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh_default(&a, &p),
        ] {
            assert_close(&plan.execute_mailbox(&x), &want)?;
            prop_assert_eq!(plan.total_ops(), a.nnz() as u64);
        }
    }

    /// Rowwise (1D) partitions degenerate to expand-only single-phase
    /// plans: no precompute work, volume = x requirements only.
    #[test]
    fn rowwise_plan_has_no_precompute((a, parts, k) in instance_strategy(14, 40, 4)) {
        let p = SpmvPartition::rowwise(&a, parts.clone(), parts.clone(), k);
        let plan = SpmvPlan::single_phase(&a, &p);
        if let s2d_spmv::PlanPhase::Compute(pre) = &plan.phases[0] {
            prop_assert!(pre.iter().all(|t| t.is_empty()), "1D has nothing to precompute");
        } else {
            prop_assert!(false, "phase 0 must be the precompute phase");
        }
        let reqs = comm_requirements(&a, &p);
        prop_assert!(reqs.y_reqs.is_empty(), "1D rowwise folds nothing");
    }

    /// Plan loads match partition loads for every plan kind.
    #[test]
    fn plan_loads_match_partition((a, parts, k) in instance_strategy(14, 40, 4)) {
        let p = s2d_optimal(&a, &parts, &parts, k);
        for plan in [SpmvPlan::single_phase(&a, &p), SpmvPlan::two_phase(&a, &p)] {
            prop_assert_eq!(plan.loads(), p.loads());
        }
    }

    /// Mesh plans never break the `O(√K)` per-processor send bound and
    /// never more than double the direct fused volume.
    #[test]
    fn mesh_plan_latency_and_volume_bounds((a, parts, k) in instance_strategy(14, 40, 6)) {
        let p = s2d_optimal(&a, &parts, &parts, k);
        let single = SpmvPlan::single_phase(&a, &p).comm_stats();
        let mesh = SpmvPlan::mesh_default(&a, &p).comm_stats();
        let (pr, pc) = s2d_core::mesh::mesh_dims(k);
        prop_assert!(mesh.max_send_msgs() as usize <= (pr - 1) + (pc - 1));
        prop_assert!(mesh.total_volume <= 2 * single.total_volume);
    }

    /// Executing a plan twice gives identical results (stateless plans).
    #[test]
    fn execution_is_stateless((a, parts, k) in instance_strategy(12, 30, 3), seed in 0u64..20) {
        let p = s2d_optimal(&a, &parts, &parts, k);
        let plan = SpmvPlan::single_phase(&a, &p);
        let x = x_for(a.ncols(), seed);
        let y1 = plan.execute_mailbox(&x);
        let y2 = plan.execute_mailbox(&x);
        prop_assert_eq!(y1, y2);
    }
}
