//! The shared cache-key core: one type naming the (matrix, workload)
//! combination every per-matrix cache in the workspace keys on.
//!
//! Two caches remember per-matrix decisions: the serving layer's
//! `PlanCache` (prepared partition + compiled kernels) and the tuner's
//! `TuningCache` (measured configuration winners). Both key on the same
//! three facts — *which matrix* ([`Csr::fingerprint`]), *how many
//! processors* and *how wide the batches are* — and before this type
//! existed each cache composed them independently, so the two could
//! silently drift (e.g. one forgetting the width). [`ConfigKey`] is
//! that shared core; the plan cache extends it with the configuration
//! axes that determine a preparation (strategy, plan kind, kernel
//! format), while the tuning cache stores those axes as the *result*.

use s2d_sparse::Csr;

/// The (matrix, workload) half of every per-matrix cache key: content
/// fingerprint, processor count and batch width. Configuration axes
/// (strategy, plan kind, kernel format, backend) are deliberately not
/// part of it — a preparation cache keys on them *in addition*, a
/// tuning cache *produces* them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    /// [`Csr::fingerprint`] of the matrix.
    pub fingerprint: u64,
    /// Number of virtual processors the matrix is partitioned over.
    pub k: usize,
    /// Batch width (right-hand sides per application) of the workload.
    pub width: usize,
}

impl ConfigKey {
    /// The key for running `a` over `k` processors at batch width
    /// `width` (hashes the matrix; reuse the result rather than calling
    /// per lookup).
    pub fn of(a: &Csr, k: usize, width: usize) -> ConfigKey {
        ConfigKey { fingerprint: a.fingerprint(), k, width }
    }
}

impl std::fmt::Display for ConfigKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/k{}/w{}", self.fingerprint, self.k, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::fig1::fig1_matrix;

    #[test]
    fn keys_track_matrix_k_and_width() {
        let a = fig1_matrix();
        let key = ConfigKey::of(&a, 3, 4);
        assert_eq!(key, ConfigKey::of(&a, 3, 4), "deterministic");
        assert_ne!(key, ConfigKey::of(&a, 4, 4), "k must show");
        assert_ne!(key, ConfigKey::of(&a, 3, 1), "width must show");
        let mut b = fig1_matrix();
        b.values_mut()[0] += 1.0;
        assert_ne!(key, ConfigKey::of(&b, 3, 4), "matrix content must show");
        let key = ConfigKey { fingerprint: 7, k: 2, width: 8 };
        assert_eq!(key.to_string(), "0000000000000007/k2/w8");
    }
}
