//! Bipartite matching and the Dulmage–Mendelsohn decomposition.
//!
//! Section IV-A of the paper splits every off-diagonal block `A_ℓk` by its
//! DM decomposition: the *horizontal* block `H` goes to the column owner,
//! everything else to the row owner, which is optimal because
//! `m̂(H) + m̂(S) + n̂(V)` equals the minimum number of rows and columns
//! covering all nonzeros (König). This crate provides:
//!
//! * [`matching`] — Hopcroft–Karp maximum bipartite matching (O(E√V)) and a
//!   simple augmenting-path matcher used as a test oracle;
//! * [`decompose`] — the coarse DM decomposition labelling every row and
//!   column as part of the horizontal (`H`), square (`S`) or vertical (`V`)
//!   block.

#![forbid(unsafe_code)]

pub mod decompose;
pub mod matching;

pub use decompose::{dm_decompose, DmDecomposition, DmLabel};
pub use matching::{hopcroft_karp, kuhn_matching, Matching, UNMATCHED};
