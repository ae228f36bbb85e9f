//! Iterative solvers on partitioned SpMV.
//!
//! The reason partition quality matters at all is that real applications
//! perform **many** multiplications with the same matrix: Krylov solvers,
//! stationary iterations, eigensolvers, PageRank. This crate provides
//! those downstream workloads on the SpMV plans of `s2d-spmv`:
//!
//! * [`cg_solve_with`] — conjugate gradients for symmetric positive
//!   definite systems;
//! * [`jacobi_solve_with`] — the Jacobi stationary iteration;
//! * [`power_iteration_with`] — power iteration for the dominant
//!   eigenpair, and [`pagerank_with`] — PageRank on column-stochastic
//!   link matrices;
//! * [`block_power_iteration_with`] — block power (subspace) iteration
//!   for the top-`r` eigenpairs, riding the batched multi-RHS SpMV path
//!   (`SpmvOperator::apply_batch`): one `n × r` block per multiply, one
//!   `len × r` message per communication phase.
//!
//! # Operator injection
//!
//! Every solver's math is written once, generic over
//! `s2d_spmv::SpmvOperator` (the multiply) plus [`Reduce`] (the global
//! reductions). Each algorithm has one public entry point, its `*_with`
//! function, which takes any whole-plan operator: every
//! `s2d_engine::Backend` (including `Backend::Threaded`, the compiled
//! rank programs walked over `s2d-runtime` endpoints), an
//! `s2d::Session` built fluently in the facade crate, or the mailbox
//! oracle (`s2d_spmv::MailboxOperator`) — which is how the tests
//! cross-check the compiled paths bitwise. The operator runs in a
//! single-participant world ([`Solo`]) whose reductions are the
//! identity.
//!
//! [`pagerank`] is the one SPMD entry point: the same PageRank core runs
//! on one `s2d-runtime` rank per part of a symmetric vector partition
//! (`x_part == y_part`), each rank walking its compiled slice of the
//! plan through `s2d-engine`'s one endpoint walker and reducing over the
//! runtime's allreduce. Iterates live where the matrix expects its
//! input, so vector updates are purely local and only the dot products
//! and the SpMV itself communicate. This crate contains no plan
//! interpreter of its own.

#![forbid(unsafe_code)]

mod block_power;
mod cg;
mod engine;
mod jacobi;
mod operator;
mod power;

pub use block_power::{block_power_iteration_with, BlockPowerOptions, BlockPowerResult};
pub use cg::{cg_solve_with, CgOptions, CgResult};
pub use jacobi::{diagonal_of, jacobi_solve_with, JacobiOptions, JacobiResult};
pub use operator::{Reduce, Solo};
pub use power::{
    pagerank, pagerank_with, power_iteration_with, to_column_stochastic, PagerankOptions,
    PagerankResult, PowerOptions, PowerResult,
};
