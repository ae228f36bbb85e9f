//! s2D-mg: the medium-grain method of Pelt & Bisseling (2014) adapted to
//! produce s2D partitions (Section V of the paper).
//!
//! The matrix is split `A = Ar + Ac` by the shorter-dimension rule; the
//! composite hypergraph amalgamates row `i` of `Ar`, column `i` of `Ac`
//! and the vector entries `x_i, y_i` into one vertex, so any K-way
//! partition decodes to an s2D partition with a symmetric vector
//! partition, and the connectivity−1 cutsize equals its fused-phase
//! communication volume.

use s2d_core::partition::SpmvPartition;
use s2d_hypergraph::models::medium_grain_model;
use s2d_hypergraph::{partition_kway, PartitionConfig};
use s2d_sparse::Csr;

/// Runs the adapted medium-grain partitioner on a square matrix.
///
/// # Panics
/// Panics if `a` is not square.
pub fn partition_s2d_mg(a: &Csr, k: usize, epsilon: f64, seed: u64) -> SpmvPartition {
    let mg = medium_grain_model(a);
    let cfg = PartitionConfig { epsilon, seed };
    let kp = partition_kway(&mg.hg, k, &cfg);
    let parts = kp.parts;

    let mut nz_owner = vec![0u32; a.nnz()];
    for i in 0..a.nrows() {
        for e in a.row_range(i) {
            let j = a.colind()[e] as usize;
            nz_owner[e] = if mg.in_ar[e] { parts[i] } else { parts[j] };
        }
    }
    SpmvPartition { k, x_part: parts.clone(), y_part: parts, nz_owner }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use s2d_core::comm::{comm_requirements, s2d_comm_stats};
    use s2d_hypergraph::connectivity_minus_one;
    use s2d_hypergraph::models::medium_grain_model;
    use s2d_sparse::Coo;

    fn random_sparse(n: usize, per_row: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 1.0);
            for _ in 0..per_row {
                m.push(i, rng.random_range(0..n), 1.0);
            }
        }
        m.compress();
        m.to_csr()
    }

    #[test]
    fn output_is_s2d_with_symmetric_vectors() {
        let a = random_sparse(200, 5, 1);
        let p = partition_s2d_mg(&a, 4, 0.03, 1);
        assert!(p.is_s2d(&a));
        assert_eq!(p.x_part, p.y_part);
    }

    #[test]
    fn cutsize_equals_fused_volume() {
        // The defining property of the composite model.
        let a = random_sparse(150, 4, 2);
        let mg = medium_grain_model(&a);
        let cfg = PartitionConfig { epsilon: 0.03, seed: 2 };
        let kp = partition_kway(&mg.hg, 4, &cfg);
        let p = partition_s2d_mg(&a, 4, 0.03, 2);
        let cut = connectivity_minus_one(&mg.hg, &kp.parts, 4);
        let vol = comm_requirements(&a, &p).total_volume();
        assert_eq!(cut, vol);
    }

    #[test]
    fn balance_counts_assigned_nonzeros() {
        let a = random_sparse(400, 6, 3);
        let p = partition_s2d_mg(&a, 8, 0.03, 3);
        // The model's vertex weights are exactly the decoded loads, so
        // the partitioner's epsilon applies to them (small tolerance
        // violations possible on coarse instances).
        assert!(p.load_imbalance() < 0.25, "LI {}", p.load_imbalance());
    }

    #[test]
    fn single_phase_execution_is_correct() {
        let a = random_sparse(120, 4, 4);
        let p = partition_s2d_mg(&a, 4, 0.03, 4);
        let plan = s2d_spmv::SpmvPlan::single_phase(&a, &p);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.25 - 8.0).collect();
        let y = plan.execute_mailbox(&x);
        let y_ref = a.spmv_alloc(&x);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0));
        }
        let stats = s2d_comm_stats(&a, &p);
        assert_eq!(stats.total_volume, plan.comm_stats().total_volume);
    }
}
