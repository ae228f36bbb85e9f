//! Distributed iterative solvers on partitioned SpMV.
//!
//! The reason partition quality matters at all is that real applications
//! perform **many** multiplications with the same matrix: Krylov solvers,
//! stationary iterations, eigensolvers, PageRank. This crate provides
//! those downstream workloads, running SPMD on the `s2d-runtime`
//! substrate with the SpMV plans of `s2d-spmv`:
//!
//! * [`engine`] — the per-rank SPMD context: the plan is compiled once
//!   and every iteration walks this rank's compiled program through
//!   `s2d-engine`'s one endpoint walker (fresh tags per call), plus the
//!   rank-local vector / reduction toolkit. This crate contains no plan
//!   interpreter of its own — the workspace has one oracle (the mailbox
//!   interpreter in `s2d-spmv`) and one compiled program with three
//!   drivers (in place, pool, endpoints), and the distributed solvers
//!   are the third driver's SPMD form;
//! * [`cg`] — conjugate gradients for symmetric positive definite
//!   systems;
//! * [`jacobi`] — the Jacobi stationary iteration;
//! * [`power`] — power iteration for the dominant eigenpair, and
//!   PageRank on column-stochastic link matrices;
//! * [`block_power`] — block power (subspace) iteration for the top-`r`
//!   eigenpairs, riding the batched multi-RHS SpMV path
//!   ([`RankCtx::spmv_batch`]): one `n × r` block per multiply, one
//!   `len × r` message per communication phase.
//!
//! All solvers require a **symmetric vector partition** (`x_part ==
//! y_part`), which every square-matrix partitioning method in this
//! workspace produces: iterates live where the matrix expects its input,
//! so vector updates (`axpy`, scaling) are purely local and only dot
//! products and the SpMV itself communicate.
//!
//! # Operator injection
//!
//! Every solver's math is written once, generic over
//! `s2d_spmv::SpmvOperator` (the multiply) plus [`operator::Reduce`]
//! (the global reductions), and is reachable two ways:
//!
//! * **distributed** — the classic `cg_solve`/`jacobi_solve`/… entry
//!   points run the core SPMD on [`RankCtx`] (which implements both
//!   traits over its local slices);
//! * **injected** — the `*_with` entry points (`cg_solve_with`,
//!   `jacobi_solve_with`, `power_iteration_with`, `pagerank_with`,
//!   `block_power_iteration_with`) take any whole-plan operator, so
//!   every solver runs on every `s2d_engine::Backend` — or on an
//!   `s2d::Session` built fluently in the facade crate. Injecting the
//!   mailbox oracle (`s2d_spmv::MailboxOperator`) is how the tests
//!   cross-check the compiled paths bitwise.

pub mod block_power;
pub mod cg;
pub mod engine;
pub mod jacobi;
pub mod operator;
pub mod power;

pub use block_power::{
    block_power_iteration, block_power_iteration_with, BlockPowerOptions, BlockPowerResult,
};
pub use cg::{cg_solve, cg_solve_obs, cg_solve_with, CgOptions, CgResult};
pub use engine::{spmd_compute, RankCtx};
pub use jacobi::{diagonal_of, jacobi_solve, jacobi_solve_with, JacobiOptions, JacobiResult};
pub use operator::{Reduce, Solo};
pub use power::{
    pagerank, pagerank_with, power_iteration, power_iteration_with, to_column_stochastic,
    PagerankOptions, PagerankResult, PowerOptions, PowerResult,
};
