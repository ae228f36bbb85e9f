//! Compressed sparse row format — the workhorse format of the workspace.

use crate::{Coo, Csc, Idx};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Column indices within each row are kept sorted and duplicate-free; every
/// constructor establishes this invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<Idx>,
    vals: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from raw arrays without sorting rows.
    ///
    /// Callers that cannot guarantee sorted, duplicate-free rows must call
    /// [`Csr::sort_and_sum_duplicates`] afterwards (as [`Coo::to_csr`] does).
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<Idx>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length must be nrows+1");
        assert_eq!(*rowptr.last().expect("rowptr nonempty"), colind.len());
        assert_eq!(colind.len(), vals.len());
        assert!(rowptr.windows(2).all(|w| w[0] <= w[1]), "rowptr must be nondecreasing");
        assert!(colind.iter().all(|&c| (c as usize) < ncols), "column index out of bounds");
        Csr { nrows, ncols, rowptr, colind, vals }
    }

    /// Builds an empty matrix of the given shape.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Csr { nrows, ncols, rowptr: vec![0; nrows + 1], colind: Vec::new(), vals: Vec::new() }
    }

    /// Builds an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect(),
            colind: (0..n as Idx).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// A 64-bit content fingerprint over the matrix shape, sparsity
    /// structure and value bits. Two matrices fingerprint equally iff
    /// they are bitwise-identical CSR instances (up to hash collision),
    /// which makes the fingerprint a stable cache key for per-matrix
    /// preparation (partitioning, plan compilation) across repeat
    /// registrations.
    ///
    /// The arrays are read as 64-bit words — two column indices per
    /// word — dealt round-robin to four independent lanes of XXH64's
    /// multiply-rotate round, so the multiplies overlap instead of
    /// forming one dependent chain; the lanes are merged and avalanched
    /// at the end.
    pub fn fingerprint(&self) -> u64 {
        let mut h = WordHash::new();
        h.feed::<usize, 1>(&[self.nrows, self.ncols, self.nnz()], |w| w[0] as u64);
        h.feed::<usize, 1>(&self.rowptr, |w| w[0] as u64);
        h.feed::<Idx, 2>(&self.colind, |w| {
            u64::from(w[0]) | w.get(1).map_or(0, |&c| u64::from(c) << 32)
        });
        h.feed::<f64, 1>(&self.vals, |w| w[0].to_bits());
        h.finish()
    }

    /// Row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column indices, row by row.
    #[inline]
    pub fn colind(&self) -> &[Idx] {
        &self.colind
    }

    /// Nonzero values, aligned with [`Csr::colind`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable access to the values (pattern is immutable).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Idx] {
        &self.colind[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.vals[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// The nonzero-id range of row `i` (ids index [`Csr::colind`]).
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.rowptr[i]..self.rowptr[i + 1]
    }

    /// Row index owning nonzero id `e` (binary search; O(log nrows)).
    pub fn row_of_nnz(&self, e: usize) -> usize {
        debug_assert!(e < self.nnz());
        // partition_point returns the first row whose range starts past e.
        self.rowptr.partition_point(|&p| p <= e) - 1
    }

    /// Iterates over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            self.row_cols(i).iter().zip(self.row_vals(i)).map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Sorts each row by column and sums duplicates, re-establishing the
    /// format invariant after a raw build.
    pub fn sort_and_sum_duplicates(&mut self) {
        let mut new_rowptr = Vec::with_capacity(self.nrows + 1);
        new_rowptr.push(0usize);
        let mut out_c: Vec<Idx> = Vec::with_capacity(self.nnz());
        let mut out_v: Vec<f64> = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(Idx, f64)> = Vec::new();
        for i in 0..self.nrows {
            scratch.clear();
            scratch.extend(self.row_cols(i).iter().copied().zip(self.row_vals(i).iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in scratch.iter() {
                if out_c.len() > *new_rowptr.last().expect("nonempty")
                    && *out_c.last().unwrap() == c
                {
                    *out_v.last_mut().unwrap() += v;
                } else {
                    out_c.push(c);
                    out_v.push(v);
                }
            }
            new_rowptr.push(out_c.len());
        }
        self.rowptr = new_rowptr;
        self.colind = out_c;
        self.vals = out_v;
    }

    /// Converts to triplet format.
    pub fn to_coo(&self) -> Coo {
        let mut rows = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            rows.extend(std::iter::repeat_n(i as Idx, self.row_nnz(i)));
        }
        Coo::from_triplets(self.nrows, self.ncols, rows, self.colind.clone(), self.vals.clone())
    }

    /// Converts to compressed sparse column format.
    pub fn to_csc(&self) -> Csc {
        let mut colptr = vec![0usize; self.ncols + 1];
        for &c in &self.colind {
            colptr[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            colptr[j + 1] += colptr[j];
        }
        let mut rowind = vec![0 as Idx; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut next = colptr.clone();
        for i in 0..self.nrows {
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                let slot = next[c as usize];
                rowind[slot] = i as Idx;
                vals[slot] = v;
                next[c as usize] += 1;
            }
        }
        Csc::from_raw(self.nrows, self.ncols, colptr, rowind, vals)
    }

    /// Returns `A^T` in CSR format.
    pub fn transpose(&self) -> Csr {
        let csc = self.to_csc();
        // A CSC of A laid out column-major is exactly the CSR of A^T.
        Csr::from_raw(
            self.ncols,
            self.nrows,
            csc.colptr().to_vec(),
            csc.rowind().to_vec(),
            csc.values().to_vec(),
        )
    }

    /// Dense `y ← A x` against a serial reference; `y` is overwritten.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let mut acc = 0.0;
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                acc += v * x[c as usize];
            }
            y[i] = acc;
        }
    }

    /// Convenience allocating variant of [`Csr::spmv`].
    pub fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// True if the *pattern* is structurally symmetric (square and
    /// `a_ij != 0 ⇔ a_ji != 0`).
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.rowptr == t.rowptr && self.colind == t.colind
    }

    /// Extracts the sub-matrix of the given rows and columns (indices are
    /// renumbered to `0..rows.len()` / `0..cols.len()`).
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Csr {
        let mut colmap = vec![Idx::MAX; self.ncols];
        for (new, &old) in cols.iter().enumerate() {
            colmap[old] = new as Idx;
        }
        let mut out = Coo::new(rows.len(), cols.len());
        for (new_i, &old_i) in rows.iter().enumerate() {
            for (&c, &v) in self.row_cols(old_i).iter().zip(self.row_vals(old_i)) {
                let nc = colmap[c as usize];
                if nc != Idx::MAX {
                    out.push(new_i, nc as usize, v);
                }
            }
        }
        out.to_csr()
    }
}

/// The four-lane word hash behind [`Csr::fingerprint`], with XXH64's
/// primes, round, lane merge and final avalanche.
struct WordHash {
    lanes: [u64; 4],
    words: u64,
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

impl WordHash {
    fn new() -> WordHash {
        WordHash { lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()], words: 0 }
    }

    /// Hashes `items`, `PER` of them to a word (`word` packs them; the
    /// last word may hold fewer), word `w` of the slice into lane
    /// `w % 4`.
    fn feed<T, const PER: usize>(&mut self, items: &[T], word: impl Fn(&[T]) -> u64) {
        let mut blocks = items.chunks_exact(4 * PER);
        for block in blocks.by_ref() {
            for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(PER)) {
                *lane = round(*lane, word(w));
            }
        }
        for (lane, w) in self.lanes.iter_mut().zip(blocks.remainder().chunks(PER)) {
            *lane = round(*lane, word(w));
        }
        self.words += items.len().div_ceil(PER) as u64;
    }

    fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in self.lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h = h.wrapping_add(self.words);
        h = (h ^ (h >> 33)).wrapping_mul(P2);
        h = (h ^ (h >> 29)).wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Coo::from_triplets(3, 3, vec![0, 0, 2, 2], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0])
            .to_csr()
    }

    #[test]
    fn structure_accessors() {
        let a = sample();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.row_nnz(1), 0);
        assert_eq!(a.row_cols(2), &[0, 1]);
        assert_eq!(a.row_vals(0), &[1.0, 2.0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let y = a.spmv_alloc(&[1.0, 10.0, 100.0]);
        assert_eq!(y, vec![201.0, 0.0, 43.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn csc_roundtrip() {
        let a = sample();
        assert_eq!(a.to_csc().to_csr(), a);
    }

    #[test]
    fn row_of_nnz_inverts_row_range() {
        let a = sample();
        for i in 0..a.nrows() {
            for e in a.row_range(i) {
                assert_eq!(a.row_of_nnz(e), i);
            }
        }
    }

    #[test]
    fn pattern_symmetry() {
        assert!(Csr::identity(4).is_pattern_symmetric());
        assert!(!sample().is_pattern_symmetric());
        let mut c = Coo::from_pattern(2, 2, &[(0, 1), (1, 0)]);
        c.compress();
        assert!(c.to_csr().is_pattern_symmetric());
    }

    #[test]
    fn submatrix_renumbers() {
        let a = sample();
        let s = a.submatrix(&[0, 2], &[0, 1]);
        assert_eq!((s.nrows(), s.ncols()), (2, 2));
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![(0, 0, 1.0), (1, 0, 3.0), (1, 1, 4.0)]);
    }

    #[test]
    fn duplicate_summing_via_raw() {
        let mut a = Csr::from_raw(1, 3, vec![0, 3], vec![2, 0, 2], vec![1.0, 5.0, 2.0]);
        a.sort_and_sum_duplicates();
        assert_eq!(a.row_cols(0), &[0, 2]);
        assert_eq!(a.row_vals(0), &[5.0, 3.0]);
    }

    /// Every single-bit change of `rowptr`, `colind` or `vals`, every
    /// swap of two adjacent distinct values or columns, and every
    /// change of shape moves the fingerprint; clones keep it. The
    /// matrices cover odd and even `nnz` (a half-filled last column
    /// word) and both remainder paths of the four lanes.
    #[test]
    fn fingerprint_sees_every_bit() {
        let odd = sample().to_coo();
        let mut even = odd.clone();
        even.push(1, 1, -0.5);
        even.compress();
        let wide = Coo::from_triplets(
            2,
            9,
            vec![0, 0, 0, 0, 0, 1, 1, 1, 1],
            vec![0, 1, 2, 3, 8, 4, 5, 6, 7],
            (1..=9).map(|v| v as f64 * 0.75).collect(),
        );
        for a in [odd.to_csr(), even.to_csr(), wide.to_csr()] {
            let fp = a.fingerprint();
            assert_eq!(a.clone().fingerprint(), fp, "clones fingerprint equally");
            let moved = |edit: &dyn Fn(&mut Csr), what: String| {
                let mut b = a.clone();
                edit(&mut b);
                assert_ne!(b.fingerprint(), fp, "{what} of a {}-nonzero matrix", a.nnz());
            };
            for e in 0..a.rowptr.len() {
                for bit in 0..usize::BITS {
                    moved(&|b| b.rowptr[e] ^= 1 << bit, format!("rowptr[{e}] bit {bit}"));
                }
            }
            for e in 0..a.nnz() {
                for bit in 0..Idx::BITS {
                    moved(&|b| b.colind[e] ^= 1 << bit, format!("colind[{e}] bit {bit}"));
                }
                for bit in 0..64 {
                    let flip =
                        |b: &mut Csr| b.vals[e] = f64::from_bits(b.vals[e].to_bits() ^ 1 << bit);
                    moved(&flip, format!("vals[{e}] bit {bit}"));
                }
            }
            for e in 1..a.nnz() {
                moved(&|b| b.vals.swap(e - 1, e), format!("swapping vals {} and {e}", e - 1));
                moved(&|b| b.colind.swap(e - 1, e), format!("swapping colind {} and {e}", e - 1));
            }
        }
        let empties = [Csr::zero(0, 0), Csr::zero(3, 2), Csr::zero(2, 3), Csr::zero(0, 3)];
        for (n, a) in empties.iter().enumerate() {
            assert_eq!(a.fingerprint(), a.clone().fingerprint());
            for b in &empties[n + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
            }
        }
    }
}
