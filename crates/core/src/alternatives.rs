//! Per-block split alternatives beyond the paper's (A1)/(A2) pair.
//!
//! Section VII suggests "more sophisticated heuristics that also take
//! square and vertical blocks of off-diagonal blocks into account". The
//! DM block-triangular form
//!
//! ```text
//!       [ H  X  Z ]
//! Â  =  [ 0  S  Y ]
//!       [ 0  0  V ]
//! ```
//!
//! admits a *family* of s2D splits per off-diagonal block `A_ℓk`, each a
//! different point on the (communication volume, load moved to the column
//! owner) plane:
//!
//! | alternative | nonzeros moved to `P_k` | pairwise volume `λ_{k→ℓ}` |
//! |---|---|---|
//! | `A1` | none | `n̂(A)` |
//! | `A2` | the `H` diagonal block | `m̂(H) + n̂(S) + n̂(V)` *(minimum)* |
//! | `A4` | all rows of `H` and `S` (i.e. `H,X,Z,S,Y`) | `m̂(H) + m̂(S) + n̂(V)` *(minimum)* |
//! | `A3` | everything | `m̂(A)` |
//!
//! `A2` and `A4` both achieve the DM minimum (`m̂(S) = n̂(S)`), but `A4`
//! moves strictly more work — the extra degree of freedom the generalized
//! heuristic ([`crate::heuristic2`]) uses to fix overloaded row owners
//! without giving up optimal volume. `A3` trades volume for a full
//! offload (useful when the row owner holds a catastrophically dense
//! row), mirroring how `A1` trades volume for zero movement.

use s2d_dm::{dm_decompose, DmDecomposition, DmLabel};
use s2d_sparse::Csr;

/// One of the four split alternatives of an off-diagonal block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Alternative {
    /// Everything stays with the row owner (the paper's (A1)).
    A1,
    /// The `H` diagonal block moves to the column owner (the paper's
    /// (A2)) — volume-optimal with the minimum load transfer.
    A2,
    /// All nonzeros in `H`- and `S`-rows move — volume-optimal with the
    /// maximum load transfer.
    A4,
    /// The whole block moves to the column owner (columnwise flip).
    A3,
}

impl Alternative {
    /// All alternatives in increasing order of load moved.
    pub const ALL: [Alternative; 4] =
        [Alternative::A1, Alternative::A2, Alternative::A4, Alternative::A3];
}

/// DM-derived statistics of one off-diagonal block, sufficient to price
/// every [`Alternative`].
#[derive(Clone, Debug)]
pub struct BlockAnalysis {
    /// Row part (owner of the block's `y` entries).
    pub l: u32,
    /// Column part (owner of the block's `x` entries).
    pub k: u32,
    /// All nonzero ids of the block (CSR indices).
    pub nz: Vec<u32>,
    /// Nonzero ids of the `H` diagonal block (moved by `A2`).
    pub h_diag_nz: Vec<u32>,
    /// Nonzero ids in rows labelled `H` or `S` (moved by `A4`).
    pub hs_rows_nz: Vec<u32>,
    /// Nonempty rows of the whole block.
    pub m_hat: u32,
    /// Nonempty columns of the whole block.
    pub n_hat: u32,
    /// `m̂(H)`.
    pub h_rows: u32,
    /// `n̂(H)`.
    pub h_cols: u32,
    /// `m̂(S) = n̂(S)`.
    pub s_size: u32,
    /// `n̂(V)`.
    pub v_cols: u32,
}

/// Compacts the block holding `nz_ids` of `a` to its nonempty rows and
/// columns, decomposes it (Dulmage–Mendelsohn, label vectors spanning
/// exactly those rows and columns) and hands `visit` each nonzero's
/// local `(row, col)` edge, in `nz_ids` order, with the decomposition.
pub(crate) fn with_block_dm<R>(
    a: &Csr,
    nz_ids: &[u32],
    visit: impl FnOnce(&[(u32, u32)], &DmDecomposition) -> R,
) -> R {
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
    visit(&edges, &dm)
}

impl BlockAnalysis {
    /// Analyzes the off-diagonal block `(l, k)` holding `nz_ids` of `a`.
    pub fn analyze(a: &Csr, l: u32, k: u32, nz_ids: &[u32]) -> Self {
        with_block_dm(a, nz_ids, |edges, dm| {
            let mut h_diag_nz = Vec::new();
            let mut hs_rows_nz = Vec::new();
            for (&e, &(lr, lc)) in nz_ids.iter().zip(edges) {
                let row_label = dm.row_label[lr as usize];
                if row_label != DmLabel::Vertical {
                    hs_rows_nz.push(e);
                }
                if dm.col_label[lc as usize] == DmLabel::Horizontal {
                    debug_assert_eq!(row_label, DmLabel::Horizontal, "H cols pin H rows");
                    h_diag_nz.push(e);
                }
            }
            BlockAnalysis {
                l,
                k,
                nz: nz_ids.to_vec(),
                h_diag_nz,
                hs_rows_nz,
                m_hat: dm.row_label.len() as u32,
                n_hat: dm.col_label.len() as u32,
                h_rows: dm.h_rows as u32,
                h_cols: dm.h_cols as u32,
                s_size: dm.s_size as u32,
                v_cols: dm.v_cols as u32,
            }
        })
    }

    /// Pairwise communication volume `λ_{k→ℓ}` under `alt` (eq. 3).
    pub fn volume(&self, alt: Alternative) -> u64 {
        match alt {
            Alternative::A1 => u64::from(self.n_hat),
            Alternative::A2 | Alternative::A4 => {
                u64::from(self.h_rows) + u64::from(self.s_size) + u64::from(self.v_cols)
            }
            Alternative::A3 => u64::from(self.m_hat),
        }
    }

    /// Nonzeros transferred from the row owner to the column owner.
    pub fn moved(&self, alt: Alternative) -> u64 {
        match alt {
            Alternative::A1 => 0,
            Alternative::A2 => self.h_diag_nz.len() as u64,
            Alternative::A4 => self.hs_rows_nz.len() as u64,
            Alternative::A3 => self.nz.len() as u64,
        }
    }

    /// The nonzero ids transferred under `alt`.
    pub fn moved_nz(&self, alt: Alternative) -> &[u32] {
        match alt {
            Alternative::A1 => &[],
            Alternative::A2 => &self.h_diag_nz,
            Alternative::A4 => &self.hs_rows_nz,
            Alternative::A3 => &self.nz,
        }
    }

    /// The DM-minimum volume of this block (what `A2`/`A4` achieve).
    pub fn min_volume(&self) -> u64 {
        self.volume(Alternative::A2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_sparse::{BlockStructure, Coo};

    /// Analyzes the single off-diagonal block of a 2-part setup.
    fn analyze_single(a: &Csr, y: &[u32], x: &[u32]) -> BlockAnalysis {
        let bs = BlockStructure::build(a, y, x, 2);
        let ((l, k), nz) = bs.iter_off_diagonal().next().expect("one off-diagonal block");
        BlockAnalysis::analyze(a, l, k, nz)
    }

    #[test]
    fn pure_horizontal_block() {
        // Row 0 (P0) spans three P1 columns: all-H block.
        let a = Coo::from_pattern(2, 4, &[(0, 1), (0, 2), (0, 3), (1, 0)]).to_csr();
        let b = analyze_single(&a, &[0, 1], &[1, 1, 1, 1]);
        assert_eq!((b.m_hat, b.n_hat), (1, 3));
        assert_eq!(b.volume(Alternative::A1), 3);
        assert_eq!(b.volume(Alternative::A2), 1);
        assert_eq!(b.volume(Alternative::A3), 1);
        assert_eq!(b.moved(Alternative::A2), 3);
        // A4 moves the same three nonzeros (no S rows here).
        assert_eq!(b.moved(Alternative::A4), 3);
    }

    #[test]
    fn mixed_block_alternatives_are_ordered() {
        // Block with H (row 0 x cols 2,3), S (row 1 x col 4), V (rows 2,3
        // x col 5) parts.
        let a = Coo::from_pattern(
            4,
            6,
            &[(0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (0, 0), (1, 0), (2, 1), (3, 1)],
        )
        .to_csr();
        let y = vec![0, 0, 0, 0];
        let x = vec![0, 0, 1, 1, 1, 1];
        let b = analyze_single(&a, &y, &x);
        assert_eq!(b.volume(Alternative::A1), 4); // cols 2,3,4,5
        assert_eq!(b.min_volume(), 3); // m̂(H)=1 + s=1 + n̂(V)=1
        assert_eq!(b.volume(Alternative::A4), 3);
        assert_eq!(b.volume(Alternative::A3), 4); // rows 0,1,2,3
                                                  // Load moved is monotone across ALL.
        let moved: Vec<u64> = Alternative::ALL.iter().map(|&alt| b.moved(alt)).collect();
        assert!(moved.windows(2).all(|w| w[0] <= w[1]), "{moved:?}");
        assert_eq!(b.moved(Alternative::A2), 2); // H diag: (0,2),(0,3)
        assert_eq!(b.moved(Alternative::A4), 3); // plus S row: (1,4)
        assert_eq!(b.moved(Alternative::A3), 5); // plus V: (2,5),(3,5)
    }

    #[test]
    fn a2_and_a4_volumes_always_agree() {
        // m̂(S) = n̂(S) makes the two optimal alternatives equal in volume
        // on any block; spot-check a few irregular ones.
        let patterns: Vec<Vec<(usize, usize)>> = vec![
            vec![(0, 2), (0, 3), (1, 2), (1, 3)],
            vec![(0, 2), (1, 3), (2, 3)],
            vec![(0, 3), (1, 3), (2, 3), (0, 2)],
        ];
        for pat in patterns {
            let a = Coo::from_pattern(3, 4, &pat).to_csr();
            let b = analyze_single(&a, &[0, 0, 0], &[0, 0, 1, 1]);
            assert_eq!(b.volume(Alternative::A2), b.volume(Alternative::A4), "{pat:?}");
        }
    }

    #[test]
    fn min_volume_bounded_by_endpoints() {
        let a = Coo::from_pattern(3, 5, &[(0, 2), (0, 3), (1, 4), (2, 4), (0, 0), (1, 1), (2, 0)])
            .to_csr();
        let b = analyze_single(&a, &[0, 0, 0], &[0, 0, 1, 1, 1]);
        assert!(b.min_volume() <= b.volume(Alternative::A1));
        assert!(b.min_volume() <= b.volume(Alternative::A3));
    }
}
