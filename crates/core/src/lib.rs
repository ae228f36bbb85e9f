//! Semi-two-dimensional (s2D) sparse matrix partitioning — the paper's
//! contribution.
//!
//! An s2D partition assigns every nonzero `a_ij` to the processor owning
//! `x_j` or the one owning `y_i` (Problem 1 of the paper). This empties
//! the "both vector entries non-local" computation class, so the expand
//! and fold communications of parallel SpMV fuse into a single phase.
//!
//! * [`partition`] — partition types and the s2D validity predicate;
//! * [`comm`] — communication requirements and volume/latency statistics
//!   (eq. 3 of the paper);
//! * [`optimal`] — the optimal per-block split via Dulmage–Mendelsohn
//!   decomposition (Section IV-A);
//! * [`heuristic`] — Algorithm 1, the bi-objective volume/load heuristic
//!   (Section IV-B);
//! * [`mesh`] — s2D-b: mesh-routed two-phase communication bounding the
//!   per-processor message count by `O(√K)` (Section VI-B);
//! * [`fig1`] — the 10×13 running example of Figure 1.
//!
//! The Section VII future-work extensions are implemented too:
//!
//! * [`alternatives`] — the per-block split family `{A1, A2, A4, A3}`
//!   derived from the square and vertical DM blocks;
//! * [`heuristic2`] — "Algorithm 2", the generalized bi-objective
//!   heuristic with a balance pass over that family;
//! * [`sweep`] — the sweep engine both heuristics instantiate (block
//!   analysis, load tracking, the greedy volume pass);
//! * [`iterate`] — alternating vector/nonzero refinement (toward
//!   simultaneous vector + nonzero partitioning).

#![forbid(unsafe_code)]

pub mod alternatives;
pub mod comm;
pub mod fig1;
pub mod heuristic;
pub mod heuristic2;
pub mod iterate;
pub mod mesh;
pub mod optimal;
pub mod partition;
pub mod sweep;

pub use alternatives::{Alternative, BlockAnalysis};
pub use comm::{comm_requirements, CommRequirements, CommStats};
pub use heuristic::{s2d_from_vector_partition, HeuristicConfig};
pub use heuristic2::{s2d_generalized, Heuristic2Config};
pub use iterate::{iterate_s2d, IterateConfig, IterateResult};
pub use mesh::{mesh_dims, MeshRouting};
pub use optimal::s2d_optimal;
pub use partition::SpmvPartition;
pub use sweep::load_limit;
