//! Optimal s2D split for a given vector partition (Section IV-A).
//!
//! Independence of off-diagonal blocks lets each be split optimally on its
//! own: compute the Dulmage–Mendelsohn decomposition of `A_ℓk` and assign
//! the horizontal diagonal block `H_ℓk` to the column owner `P_k`, the
//! rest to the row owner `P_ℓ`. The resulting pairwise volume
//! `λ_{k→ℓ} = m̂(H) + n̂(S) + n̂(V)` equals the block's minimum row+column
//! cover (König), hence no s2D split can do better.

use s2d_dm::{dm_decompose, DmLabel};
use s2d_sparse::{BlockStructure, Csr};

use crate::partition::SpmvPartition;

/// The DM-based split of one off-diagonal block. The heuristics price
/// the full alternative family through
/// [`BlockAnalysis`](crate::alternatives::BlockAnalysis) instead; this
/// lighter split keeps only what the optimal assembly needs.
#[derive(Clone, Debug)]
pub(crate) struct BlockSplit {
    /// Column part (owner of `x` entries of the block).
    pub k: u32,
    /// Nonzero ids of the horizontal diagonal block `H_ℓk` — the nonzeros
    /// that move to the column owner under alternative (A2).
    pub h_nz: Vec<u32>,
}

/// Computes the DM split of the block `(_l, k)` holding `nz_ids`.
pub(crate) fn split_block(a: &Csr, _l: u32, k: u32, nz_ids: &[u32]) -> BlockSplit {
    // Compactify the block's rows and columns.
    let mut rows: Vec<u32> = Vec::with_capacity(nz_ids.len());
    let mut cols: Vec<u32> = Vec::with_capacity(nz_ids.len());
    for &e in nz_ids {
        rows.push(a.row_of_nnz(e as usize) as u32);
        cols.push(a.colind()[e as usize]);
    }
    let mut urows = rows.clone();
    urows.sort_unstable();
    urows.dedup();
    let mut ucols = cols.clone();
    ucols.sort_unstable();
    ucols.dedup();
    let edges: Vec<(u32, u32)> = rows
        .iter()
        .zip(&cols)
        .map(|(&r, &c)| {
            let lr = urows.binary_search(&r).expect("row present") as u32;
            let lc = ucols.binary_search(&c).expect("col present") as u32;
            (lr, lc)
        })
        .collect();

    let dm = dm_decompose(urows.len(), ucols.len(), &edges);
    let mut h_nz = Vec::new();
    for (&e, &(_, lc)) in nz_ids.iter().zip(&edges) {
        // An edge lies in the H diagonal block iff its column is in C_H
        // (all edges incident to C_H have rows in R_H).
        if dm.col_label[lc as usize] == DmLabel::Horizontal {
            h_nz.push(e);
        }
    }
    BlockSplit { k, h_nz }
}

/// Builds the volume-optimal s2D partition for the given vector partition
/// (every off-diagonal block split by its DM decomposition; diagonal
/// blocks stay local).
///
/// # Panics
/// Panics if partition arrays don't match `a` or part ids exceed `k`.
pub fn s2d_optimal(a: &Csr, y_part: &[u32], x_part: &[u32], k: usize) -> SpmvPartition {
    let blocks = BlockStructure::build(a, y_part, x_part, k);
    // Start rowwise; off-diagonal H blocks then flip to the column owner.
    let mut p = SpmvPartition::rowwise(a, y_part.to_vec(), x_part.to_vec(), k);
    for ((l, kk), nz) in blocks.iter_off_diagonal() {
        let split = split_block(a, l, kk, nz);
        for &e in &split.h_nz {
            p.nz_owner[e as usize] = split.k;
        }
    }
    debug_assert!(p.is_s2d(a));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{comm_requirements, single_phase_messages, CommStats};
    use s2d_sparse::Coo;

    /// Exhaustive optimal volume over all 2^nnz s2D assignments of one
    /// off-diagonal block (tiny instances only) — the brute-force oracle.
    fn brute_force_block_volume(a: &Csr, y_part: &[u32], x_part: &[u32], k: usize) -> u64 {
        let off: Vec<usize> = (0..a.nrows())
            .flat_map(|i| a.row_range(i).map(move |e| (i, e)))
            .filter(|&(i, e)| y_part[i] != x_part[a.colind()[e] as usize])
            .map(|(_, e)| e)
            .collect();
        let mut best = u64::MAX;
        for mask in 0u32..(1 << off.len()) {
            let mut p = SpmvPartition::rowwise(a, y_part.to_vec(), x_part.to_vec(), k);
            for (b, &e) in off.iter().enumerate() {
                if mask & (1 << b) != 0 {
                    let j = a.colind()[e] as usize;
                    p.nz_owner[e] = x_part[j];
                }
            }
            let reqs = comm_requirements(a, &p);
            best = best.min(reqs.total_volume());
        }
        best
    }

    #[test]
    fn optimal_matches_brute_force_small() {
        // 4x4, rows {0,1} P0 / {2,3} P1, x symmetric; off-diagonal nnz.
        let a = Coo::from_pattern(4, 4, &[(0, 0), (0, 2), (0, 3), (1, 2), (2, 0), (3, 3), (2, 2)])
            .to_csr();
        let y = vec![0, 0, 1, 1];
        let x = vec![0, 0, 1, 1];
        let p = s2d_optimal(&a, &y, &x, 2);
        assert!(p.is_s2d(&a));
        let vol = comm_requirements(&a, &p).total_volume();
        let best = brute_force_block_volume(&a, &y, &x, 2);
        assert_eq!(vol, best, "DM split must reach the optimum");
    }

    #[test]
    fn wide_off_diagonal_block_flips_to_column_owner() {
        // Row 0 (P0) has nonzeros in 3 columns of P1: H = the whole block.
        // (A2) sends 1 partial y instead of 3 x entries.
        let a = Coo::from_pattern(2, 4, &[(0, 1), (0, 2), (0, 3), (1, 0)]).to_csr();
        let y = vec![0, 1];
        let x = vec![1, 1, 1, 1];
        let p = s2d_optimal(&a, &y, &x, 2);
        // Nonzeros of row 0 (ids 0,1,2) should belong to P1 (column owner).
        assert_eq!(&p.nz_owner[0..3], &[1, 1, 1]);
        let stats = CommStats::from_phases(2, &[single_phase_messages(&comm_requirements(&a, &p))]);
        assert_eq!(stats.total_volume, 1); // one partial y_0: P1 -> P0
    }

    #[test]
    fn tall_off_diagonal_block_stays_with_rows() {
        // Column 0 (P1) has nonzeros in rows 0..2 (P0): V block; staying
        // rowwise costs 1 x entry, flipping would cost 3 partials.
        let a = Coo::from_pattern(4, 2, &[(0, 0), (1, 0), (2, 0), (3, 1)]).to_csr();
        let y = vec![0, 0, 0, 1];
        let x = vec![1, 1];
        let p = s2d_optimal(&a, &y, &x, 2);
        assert_eq!(&p.nz_owner[0..3], &[0, 0, 0]);
        let vol = comm_requirements(&a, &p).total_volume();
        assert_eq!(vol, 1);
    }

    #[test]
    fn volume_equals_min_cover_per_block() {
        // Mixed block with H, S and V parts; volume = matching size.
        // Block: rows {0,1,2} (P0) x cols {2,3,4,5} (P1):
        //   row 0: cols 2,3 (horizontal-ish), rows 1,2: col 4 (vertical),
        //   row 1: col 5 (square-ish).
        let a = Coo::from_pattern(
            3,
            6,
            &[(0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (0, 0), (1, 0), (2, 1)],
        )
        .to_csr();
        let y = vec![0, 0, 0];
        let x = vec![0, 0, 1, 1, 1, 1];
        let p = s2d_optimal(&a, &y, &x, 2);
        let vol = comm_requirements(&a, &p).total_volume();
        // DM of the block {(0,2),(0,3),(1,4),(2,4),(1,5)}: maximum matching
        // has size 3 ((0,2),(1,4|5),(2,4) conflicts -> e.g. (0,2),(1,5),(2,4)).
        assert_eq!(vol, 3);
    }

    #[test]
    fn rowwise_partition_of_diagonal_matrix_has_no_comm() {
        let a = Csr::identity(6);
        let y = vec![0, 0, 1, 1, 2, 2];
        let p = s2d_optimal(&a, &y, &y.clone(), 3);
        assert_eq!(comm_requirements(&a, &p).total_volume(), 0);
    }
}
