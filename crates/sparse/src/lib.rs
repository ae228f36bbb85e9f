//! Sparse matrix substrate for the s2D partitioning workspace.
//!
//! Provides the triplet ([`Coo`]), compressed-row ([`Csr`]) and
//! compressed-column ([`Csc`]) formats used throughout the workspace, plus
//! Matrix Market I/O, permutations, degree statistics and the block
//! structure a pair of vector partitions induces on a matrix (the `K × K`
//! grid of Section III of the paper).
//!
//! Indices are stored as `u32` ([`Idx`]): the paper's largest instance has
//! ~1.2 M rows and ~8 M nonzeros, so 32-bit indices halve the memory
//! traffic of every kernel without restricting the reproduction.

#![forbid(unsafe_code)]

pub mod block;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod io;
pub mod perm;
pub mod stats;

pub use block::{BlockId, BlockStructure};
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use io::{
    read_matrix_market, read_matrix_market_file, write_matrix_market, write_matrix_market_file,
    MmError,
};
pub use perm::Permutation;
pub use stats::MatrixStats;

/// Index type for row/column identifiers.
pub type Idx = u32;

/// Casts a `usize` to [`Idx`], panicking on overflow (debug-only cost).
#[inline]
pub fn idx(v: usize) -> Idx {
    debug_assert!(v <= Idx::MAX as usize, "index {v} exceeds u32 range");
    v as Idx
}
