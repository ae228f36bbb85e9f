//! 1D rowwise and columnwise partitioning via hypergraph models.

use s2d_core::partition::SpmvPartition;
use s2d_hypergraph::models::{column_net_model, row_net_model};
use s2d_hypergraph::{partition_kway, PartitionConfig};
use s2d_sparse::Csr;

/// A 1D partition: the vector partitions plus the full data partition.
#[derive(Clone, Debug)]
pub struct OnedPartition {
    /// Owner of `y_i` (and of row `i`'s nonzeros for rowwise).
    pub row_part: Vec<u32>,
    /// Owner of `x_j`.
    pub col_part: Vec<u32>,
    /// The complete partition (rowwise or columnwise).
    pub partition: SpmvPartition,
}

/// 1D rowwise partitioning with the column-net model: rows are hypergraph
/// vertices weighted by their nonzero count; connectivity−1 of the K-way
/// partition equals the expand volume. Square matrices get a symmetric
/// vector partition (`x_j` with row `j`, the diagonal-pin variant);
/// rectangular ones assign each `x_j` to the majority owner of column `j`.
pub fn partition_1d_rowwise(a: &Csr, k: usize, epsilon: f64, seed: u64) -> OnedPartition {
    let square = a.nrows() == a.ncols();
    let hg = column_net_model(a, square);
    let cfg = PartitionConfig { epsilon, seed };
    let kp = partition_kway(&hg, k, &cfg);
    let row_part = kp.parts;
    let col_part = if square { row_part.clone() } else { majority_col_owner(a, &row_part, k) };
    let partition = SpmvPartition::rowwise(a, row_part.clone(), col_part.clone(), k);
    OnedPartition { row_part, col_part, partition }
}

/// 1D columnwise partitioning with the row-net model (dual of rowwise).
pub fn partition_1d_colwise(a: &Csr, k: usize, epsilon: f64, seed: u64) -> OnedPartition {
    let square = a.nrows() == a.ncols();
    let hg = row_net_model(a, square);
    let cfg = PartitionConfig { epsilon, seed };
    let kp = partition_kway(&hg, k, &cfg);
    let col_part = kp.parts;
    let row_part = if square { col_part.clone() } else { majority_row_owner(a, &col_part, k) };
    let partition = SpmvPartition::columnwise(a, row_part.clone(), col_part.clone(), k);
    OnedPartition { row_part, col_part, partition }
}

/// Assigns each column to the most frequent owner among its nonzeros'
/// rows (ties to the smaller part id; empty columns round-robin).
pub fn majority_col_owner(a: &Csr, row_part: &[u32], k: usize) -> Vec<u32> {
    let csc = a.to_csc();
    let mut count = vec![0u32; k];
    let mut out = Vec::with_capacity(a.ncols());
    for j in 0..a.ncols() {
        let rows = csc.col_rows(j);
        if rows.is_empty() {
            out.push((j % k) as u32);
            continue;
        }
        for &i in rows {
            count[row_part[i as usize] as usize] += 1;
        }
        let best = (0..k).max_by_key(|&p| count[p]).expect("k >= 1") as u32;
        for &i in rows {
            count[row_part[i as usize] as usize] = 0;
        }
        out.push(best);
    }
    out
}

/// Assigns each row to the most frequent owner among its nonzeros'
/// columns (dual of [`majority_col_owner`]).
pub fn majority_row_owner(a: &Csr, col_part: &[u32], k: usize) -> Vec<u32> {
    let mut count = vec![0u32; k];
    let mut out = Vec::with_capacity(a.nrows());
    for i in 0..a.nrows() {
        let cols = a.row_cols(i);
        if cols.is_empty() {
            out.push((i % k) as u32);
            continue;
        }
        for &j in cols {
            count[col_part[j as usize] as usize] += 1;
        }
        let best = (0..k).max_by_key(|&p| count[p]).expect("k >= 1") as u32;
        for &j in cols {
            count[col_part[j as usize] as usize] = 0;
        }
        out.push(best);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::comm::{comm_requirements, two_phase_comm_stats};
    use s2d_hypergraph::connectivity_minus_one;
    use s2d_hypergraph::models::column_net_model;
    use s2d_sparse::Coo;

    fn banded(n: usize, half_bw: usize) -> Csr {
        let mut m = Coo::new(n, n);
        for i in 0..n {
            for d in 0..=half_bw {
                if i + d < n {
                    m.push(i, i + d, 1.0);
                    if d > 0 {
                        m.push(i + d, i, 1.0);
                    }
                }
            }
        }
        m.compress();
        m.to_csr()
    }

    #[test]
    fn rowwise_is_valid_and_balanced() {
        let a = banded(256, 2);
        let p = partition_1d_rowwise(&a, 4, 0.05, 1);
        assert!(p.partition.is_s2d(&a));
        assert!(p.partition.is_1d_rowwise(&a));
        assert!(p.partition.load_imbalance() < 0.20, "LI {}", p.partition.load_imbalance());
    }

    #[test]
    fn cut_equals_comm_volume_on_square_symmetric_partition() {
        // The defining property of the column-net model with diagonal
        // pins: connectivity-1 == total expand volume.
        let a = banded(128, 3);
        let p = partition_1d_rowwise(&a, 4, 0.10, 3);
        let hg = column_net_model(&a, true);
        let cut = connectivity_minus_one(&hg, &p.row_part, 4);
        let vol = comm_requirements(&a, &p.partition).total_volume();
        assert_eq!(cut, vol);
    }

    #[test]
    fn banded_matrix_has_small_cut() {
        let a = banded(512, 1);
        let p = partition_1d_rowwise(&a, 4, 0.05, 2);
        let stats = two_phase_comm_stats(&a, &p.partition);
        // A tridiagonal matrix splits with O(1) volume per boundary.
        assert!(stats.total_volume <= 24, "volume {}", stats.total_volume);
    }

    #[test]
    fn colwise_mirrors_rowwise_on_symmetric_matrix() {
        let a = banded(128, 2);
        let p = partition_1d_colwise(&a, 4, 0.05, 1);
        assert!(p.partition.is_s2d(&a));
        assert!(!p.partition.loads().iter().any(|&w| w == 0));
    }

    #[test]
    fn majority_owner_picks_dominant_part() {
        let a = Coo::from_pattern(4, 2, &[(0, 0), (1, 0), (2, 0), (3, 1)]).to_csr();
        let owners = majority_col_owner(&a, &[0, 0, 1, 1], 2);
        assert_eq!(owners[0], 0); // two part-0 rows vs one part-1 row
        assert_eq!(owners[1], 1);
    }
}
