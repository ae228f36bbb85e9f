//! Checkerboard (Cartesian) partitioning — the paper's `2D-b`.
//!
//! Two hypergraph passes: rows are split into `Pr` stripes with the
//! column-net model, then columns into `Pc` stripes with a
//! **multi-constraint** row-net model (one balance constraint per row
//! stripe, so every `(r, c)` block is balanced). Processor `(r, c)` owns
//! block `(r, c)`; expand traffic stays inside mesh columns, fold traffic
//! inside mesh rows, bounding the per-processor message count by
//! `Pr + Pc − 2`.

use s2d_core::mesh::mesh_dims;
use s2d_core::partition::SpmvPartition;
use s2d_hypergraph::models::column_net_model;
use s2d_hypergraph::{partition_kway, Hypergraph, PartitionConfig};
use s2d_sparse::Csr;

/// A checkerboard partition: mesh shape, stripe assignments and the full
/// data partition.
#[derive(Clone, Debug)]
pub struct CheckerboardPartition {
    /// Mesh rows.
    pub pr: usize,
    /// Mesh columns.
    pub pc: usize,
    /// Row stripe of each matrix row.
    pub row_stripe: Vec<u32>,
    /// Column stripe of each matrix column.
    pub col_stripe: Vec<u32>,
    /// The complete partition (`owner(i,j) = stripe(i)·Pc + stripe(j)`).
    pub partition: SpmvPartition,
}

/// Builds the checkerboard partition of a square matrix on the default
/// nearly-square mesh.
///
/// # Panics
/// Panics if `a` is not square (the paper's instances all are).
pub fn partition_checkerboard(a: &Csr, k: usize, epsilon: f64, seed: u64) -> CheckerboardPartition {
    assert_eq!(a.nrows(), a.ncols(), "checkerboard assumes a square matrix");
    let (pr, pc) = mesh_dims(k);

    // Pass 1: rows -> Pr stripes (column-net model, symmetric vectors).
    let cfg1 = PartitionConfig { epsilon, seed };
    let row_stripe = if pr == 1 {
        vec![0u32; a.nrows()]
    } else {
        partition_kway(&column_net_model(a, true), pr, &cfg1).parts
    };

    // Pass 2: columns -> Pc stripes under Pr balance constraints: vertex
    // j (column) has weight vector w[r] = nnz of column j inside row
    // stripe r; nets are rows (pins = columns of the row).
    let col_stripe = if pc == 1 {
        vec![0u32; a.ncols()]
    } else {
        let n = a.ncols();
        let mut vwgt = vec![0u64; n * pr];
        for i in 0..a.nrows() {
            let r = row_stripe[i] as usize;
            for &j in a.row_cols(i) {
                vwgt[j as usize * pr + r] += 1;
            }
        }
        let nets: Vec<Vec<u32>> = (0..a.nrows()).map(|i| a.row_cols(i).to_vec()).collect();
        let ncost = vec![1u64; nets.len()];
        let hg = Hypergraph::new(n, pr, vwgt, &nets, ncost);
        let cfg2 = PartitionConfig { epsilon, seed: seed ^ 0xc13 };
        partition_kway(&hg, pc, &cfg2).parts
    };

    // Assemble: nonzero (i,j) -> processor (row_stripe(i), col_stripe(j)).
    let mut nz_owner = vec![0u32; a.nnz()];
    for i in 0..a.nrows() {
        let r = row_stripe[i] * pc as u32;
        for e in a.row_range(i) {
            nz_owner[e] = r + col_stripe[a.colind()[e] as usize];
        }
    }
    // Vector entries at the "diagonal" processor of their index.
    let x_part: Vec<u32> =
        (0..a.ncols()).map(|j| row_stripe[j] * pc as u32 + col_stripe[j]).collect();
    let y_part = x_part.clone();
    let partition = SpmvPartition { k, x_part, y_part, nz_owner };
    CheckerboardPartition { pr, pc, row_stripe, col_stripe, partition }
}

/// Verifies the checkerboard latency bound on the two-phase statistics:
/// every processor sends at most `Pr − 1` expand and `Pc − 1` fold
/// messages (used by tests and the table harnesses).
pub fn latency_bound_ok(a: &Csr, cb: &CheckerboardPartition) -> bool {
    let reqs = s2d_core::comm::comm_requirements(a, &cb.partition);
    let mut expand_sends = std::collections::BTreeSet::new();
    for &(src, dst, _) in &reqs.x_reqs {
        expand_sends.insert((src, dst));
    }
    let mut fold_sends = std::collections::BTreeSet::new();
    for &(src, dst, _) in &reqs.y_reqs {
        fold_sends.insert((src, dst));
    }
    let mut e_cnt = vec![0usize; cb.partition.k];
    for &(s, _) in &expand_sends {
        e_cnt[s as usize] += 1;
    }
    let mut f_cnt = vec![0usize; cb.partition.k];
    for &(s, _) in &fold_sends {
        f_cnt[s as usize] += 1;
    }
    e_cnt.iter().all(|&c| c <= cb.pr - 1) && f_cnt.iter().all(|&c| c <= cb.pc - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
    fn mesh_block_ownership() {
        let a = random_sparse(128, 4, 1);
        let cb = partition_checkerboard(&a, 4, 0.10, 1);
        assert_eq!((cb.pr, cb.pc), (2, 2));
        for i in 0..a.nrows() {
            for e in a.row_range(i) {
                let j = a.colind()[e] as usize;
                let expect = cb.row_stripe[i] * 2 + cb.col_stripe[j];
                assert_eq!(cb.partition.nz_owner[e], expect);
            }
        }
    }

    #[test]
    fn latency_bound_holds() {
        let a = random_sparse(256, 6, 2);
        let cb = partition_checkerboard(&a, 16, 0.20, 2);
        assert!(latency_bound_ok(&a, &cb));
    }

    #[test]
    fn two_phase_execution_is_correct() {
        let a = random_sparse(96, 3, 3);
        let cb = partition_checkerboard(&a, 4, 0.10, 3);
        let plan = s2d_spmv::SpmvPlan::two_phase(&a, &cb.partition);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin()).collect();
        let y = plan.execute_mailbox(&x);
        let y_ref = a.spmv_alloc(&x);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0));
        }
    }

    #[test]
    fn multiconstraint_balances_blocks_roughly() {
        let a = random_sparse(512, 7, 4);
        let cb = partition_checkerboard(&a, 4, 0.10, 4);
        let loads = cb.partition.loads();
        let avg = loads.iter().sum::<u64>() as f64 / 4.0;
        let max = *loads.iter().max().unwrap() as f64;
        // The paper reports a few percent for uniform matrices; allow a
        // loose envelope for the small instance.
        assert!(max / avg < 1.6, "block imbalance {max}/{avg}");
    }

    #[test]
    fn k_one_is_trivial() {
        let a = random_sparse(32, 2, 5);
        let cb = partition_checkerboard(&a, 1, 0.05, 5);
        assert!(cb.partition.nz_owner.iter().all(|&o| o == 0));
    }
}
