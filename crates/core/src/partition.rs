//! Partition types for parallel SpMV.

use s2d_sparse::Csr;

/// A full data partition for `y ← Ax`: owners of the input vector, the
/// output vector and every nonzero.
///
/// The same type represents 1D, 2D and s2D partitions; [`SpmvPartition::is_s2d`]
/// distinguishes the class. Nonzero owners are indexed in CSR order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpmvPartition {
    /// Number of processors `K`.
    pub k: usize,
    /// `x_part[j]` owns input entry `x_j` (length `ncols`).
    pub x_part: Vec<u32>,
    /// `y_part[i]` owns output entry `y_i` (length `nrows`).
    pub y_part: Vec<u32>,
    /// `nz_owner[e]` owns the nonzero with CSR index `e` (length `nnz`).
    pub nz_owner: Vec<u32>,
}

/// A violation of the s2D constraint, for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct S2dViolation {
    /// CSR index of the offending nonzero.
    pub nnz_id: usize,
    /// Its row and column.
    pub row: usize,
    /// Its row and column.
    pub col: usize,
    /// The owner it was assigned.
    pub owner: u32,
}

impl SpmvPartition {
    /// Builds a 1D rowwise partition: every nonzero lives with its row;
    /// `x` follows the given column partition.
    pub fn rowwise(a: &Csr, y_part: Vec<u32>, x_part: Vec<u32>, k: usize) -> Self {
        assert_eq!(y_part.len(), a.nrows());
        assert_eq!(x_part.len(), a.ncols());
        let mut nz_owner = vec![0u32; a.nnz()];
        for i in 0..a.nrows() {
            for e in a.row_range(i) {
                nz_owner[e] = y_part[i];
            }
        }
        SpmvPartition { k, x_part, y_part, nz_owner }
    }

    /// Builds a 1D columnwise partition: every nonzero lives with its
    /// column; `y` follows the given row partition.
    pub fn columnwise(a: &Csr, y_part: Vec<u32>, x_part: Vec<u32>, k: usize) -> Self {
        assert_eq!(y_part.len(), a.nrows());
        assert_eq!(x_part.len(), a.ncols());
        let mut nz_owner = vec![0u32; a.nnz()];
        for (e, &j) in a.colind().iter().enumerate() {
            nz_owner[e] = x_part[j as usize];
        }
        SpmvPartition { k, x_part, y_part, nz_owner }
    }

    /// Checks structural consistency against `a` (lengths and ranges):
    /// `Err` names the first misfit, as [`SpmvPartition::assert_shape`]
    /// reports it.
    pub fn check_shape(&self, a: &Csr) -> Result<(), String> {
        let length = |what: &str, got: usize, want: usize| {
            (got != want).then(|| format!("{what}: {got} entries, the matrix needs {want}"))
        };
        let k = self.k as u32;
        let range = |what: &str, parts: &[u32]| {
            parts.iter().any(|&p| p >= k).then(|| format!("{what} (K = {k})"))
        };
        let misfit = length("x partition length", self.x_part.len(), a.ncols())
            .or_else(|| length("y partition length", self.y_part.len(), a.nrows()))
            .or_else(|| length("nonzero owner length", self.nz_owner.len(), a.nnz()))
            .or_else(|| range("x part out of range", &self.x_part))
            .or_else(|| range("y part out of range", &self.y_part))
            .or_else(|| range("nz owner out of range", &self.nz_owner));
        misfit.map_or(Ok(()), Err)
    }

    /// Checks structural consistency against `a` (lengths and ranges).
    ///
    /// # Panics
    /// Panics with [`SpmvPartition::check_shape`]'s message on
    /// inconsistency; used by constructors of downstream plans.
    pub fn assert_shape(&self, a: &Csr) {
        if let Err(misfit) = self.check_shape(a) {
            panic!("{misfit}");
        }
    }

    /// Verifies the s2D property (Problem 1): every nonzero is owned by
    /// the owner of its row's `y` entry or its column's `x` entry.
    /// Returns the first violation, if any.
    pub fn validate_s2d(&self, a: &Csr) -> Result<(), S2dViolation> {
        self.assert_shape(a);
        for i in 0..a.nrows() {
            for e in a.row_range(i) {
                let j = a.colind()[e] as usize;
                let owner = self.nz_owner[e];
                if owner != self.y_part[i] && owner != self.x_part[j] {
                    return Err(S2dViolation { nnz_id: e, row: i, col: j, owner });
                }
            }
        }
        Ok(())
    }

    /// True if the partition satisfies the s2D constraint.
    pub fn is_s2d(&self, a: &Csr) -> bool {
        self.validate_s2d(a).is_ok()
    }

    /// True if every nonzero lives with its row (pure 1D rowwise).
    pub fn is_1d_rowwise(&self, a: &Csr) -> bool {
        (0..a.nrows()).all(|i| a.row_range(i).all(|e| self.nz_owner[e] == self.y_part[i]))
    }

    /// Per-processor computational loads (nonzero counts, eq. 7).
    pub fn loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.k];
        for &o in &self.nz_owner {
            loads[o as usize] += 1;
        }
        loads
    }

    /// Load imbalance `max/avg − 1` (the paper's LI% when ×100).
    pub fn load_imbalance(&self) -> f64 {
        let loads = self.loads();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let avg = total as f64 / self.k as f64;
        *loads.iter().max().expect("k >= 1") as f64 / avg - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_sparse::Coo;

    fn sample() -> Csr {
        Coo::from_pattern(4, 4, &[(0, 0), (0, 2), (1, 1), (2, 3), (3, 0)]).to_csr()
    }

    #[test]
    fn check_shape_names_the_first_misfit() {
        let a = sample();
        let p = SpmvPartition::rowwise(&a, vec![0, 0, 1, 1], vec![0, 1, 0, 1], 2);
        assert_eq!(p.check_shape(&a), Ok(()));
        let short = SpmvPartition { x_part: vec![0; 3], ..p.clone() };
        let err = short.check_shape(&a).expect_err("x is one entry short");
        assert_eq!(err, "x partition length: 3 entries, the matrix needs 4");
        let mut owner = p.clone();
        owner.nz_owner[4] = 2;
        owner.y_part[0] = 2;
        assert_eq!(owner.check_shape(&a), Err("y part out of range (K = 2)".to_string()));
    }

    #[test]
    fn rowwise_is_s2d_and_rowwise() {
        let a = sample();
        let p = SpmvPartition::rowwise(&a, vec![0, 0, 1, 1], vec![0, 1, 0, 1], 2);
        assert!(p.is_s2d(&a));
        assert!(p.is_1d_rowwise(&a));
        assert_eq!(p.loads(), vec![3, 2]);
    }

    #[test]
    fn columnwise_is_s2d() {
        let a = sample();
        let p = SpmvPartition::columnwise(&a, vec![0, 0, 1, 1], vec![0, 1, 0, 1], 2);
        assert!(p.is_s2d(&a));
        assert!(!p.is_1d_rowwise(&a));
        // Nonzero (0,2) owned by x_part[2] = 0 = y_part[0]: still rowwise
        // for that entry; (2,3) owned by x_part[3] = 1 = y_part[2]... the
        // partition as a whole is not rowwise because (3,0) lives with
        // x_part[0] = 0 != y_part[3] = 1.
        assert_eq!(p.nz_owner.last(), Some(&0));
    }

    #[test]
    fn violation_reported_with_location() {
        let a = sample();
        let mut p = SpmvPartition::rowwise(&a, vec![0, 0, 1, 1], vec![0, 1, 0, 1], 2);
        // Assign nonzero (1,1) to a part owning neither x_1 nor y_1.
        // y_part[1] = 0, x_part[1] = 1 -> no part id 2 exists... use k=3.
        p.k = 3;
        p.nz_owner[2] = 2;
        let err = p.validate_s2d(&a).unwrap_err();
        assert_eq!((err.row, err.col, err.owner), (1, 1, 2));
    }

    #[test]
    fn imbalance_of_skewed_loads() {
        let a = sample();
        let mut p = SpmvPartition::rowwise(&a, vec![0, 0, 1, 1], vec![0, 1, 0, 1], 2);
        p.nz_owner = vec![0, 0, 0, 0, 1];
        assert!((p.load_imbalance() - (4.0 / 2.5 - 1.0)).abs() < 1e-12);
    }
}
