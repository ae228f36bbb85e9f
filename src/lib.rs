//! # s2d — semi-two-dimensional sparse matrix partitioning
//!
//! Facade crate for the reproduction of Kayaaslan, Uçar & Aykanat,
//! *"Semi-two-dimensional partitioning for parallel sparse matrix-vector
//! multiplication"* (IPDPSW/PCO 2015).
//!
//! Re-exports every subsystem crate under one roof, and provides the
//! [`Session`] builder — the one-stop entry point tying a matrix, a
//! partitioning strategy ([`Strategy`], or a hand-built partition), a
//! plan kind ([`PlanKind`]), an execution backend ([`Backend`]) and a
//! compiled kernel format ([`KernelFormat`], e.g.
//! `.kernel_format(KernelFormat::Auto)` for the per-rank automatic
//! choice) into a ready [`SpmvOperator`]:
//!
//! * [`sparse`] — COO/CSR/CSC matrices, Matrix Market I/O, block structure.
//! * [`dm`] — Hopcroft–Karp matching, Dulmage–Mendelsohn decomposition.
//! * [`hypergraph`] — multilevel hypergraph partitioner + SpMV models.
//! * [`core`] — the s2D partitioning methods (the paper's contribution).
//! * [`baselines`] — 1D, 2D fine-grain, checkerboard, 1D-b, medium-grain.
//! * [`partition`] — the unified partitioner layer: every method
//!   behind one [`Strategy`] enum, quality reports, cost-model-driven
//!   [`Strategy::Auto`].
//! * [`sim`] — α–β–γ distributed machine model and metrics.
//! * [`spmv`] — the SpMV plan language and the mailbox interpreter (the
//!   one test oracle).
//! * [`engine`] — the compiled execution engine (flat-buffer plan
//!   compiler + one phase-walk body for the compiled rank programs on
//!   the worker pool — a team of one for `CompiledSeq` — plus the
//!   message-passing endpoint walker).
//! * [`runtime`] — the MPI-like message-passing substrate.
//! * [`solver`] — CG, Jacobi, power iteration, block power, PageRank.
//! * [`gen`] — synthetic matrix generators and the paper's two test suites.
//!
//! ## Quickstart
//!
//! Partition once, build a [`Session`] once, then multiply as often as
//! you like — the session owns the built plan and a ready backend
//! operator, so the setup cost (partitioning, plan construction,
//! compilation, buffer allocation) is paid exactly once:
//!
//! ```
//! use s2d::gen::rmat::{rmat, RmatConfig};
//! use s2d::{Backend, PlanKind, Session};
//!
//! // A scale-free matrix, partitioned by the paper's semi-2D heuristic
//! // over 4 processors right inside the builder ("s2d".parse() works
//! // too, and Strategy::Auto lets the cost model choose the method).
//! let a = rmat(&RmatConfig::graph500(8, 8), 42).to_csr();
//! let mut session = Session::builder(&a)
//!     .partitioner("s2d".parse().unwrap(), 4)
//!     .plan_kind(PlanKind::SinglePhase)
//!     .backend(Backend::CompiledSeq)
//!     .build();
//! assert_eq!(session.strategy().map(|s| s.to_string()).as_deref(), Some("s2d"));
//! println!("comm volume per iteration: {} words", session.stats().total_volume);
//!
//! // Steady state: apply into caller-owned buffers, zero allocation.
//! let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64).collect();
//! let mut y = vec![0.0; a.nrows()];
//! session.apply(&x, &mut y);
//! let mut y_ref = vec![0.0; a.nrows()];
//! a.spmv(&x, &mut y_ref);
//! for (u, v) in y.iter().zip(&y_ref) {
//!     assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0));
//! }
//! ```
//!
//! Sessions implement [`SpmvOperator`], so they plug straight into the
//! solvers — and because every backend yields the same operator shape,
//! **every solver runs on every backend**:
//!
//! ```
//! use s2d::sparse::Coo;
//! use s2d::core::partition::SpmvPartition;
//! use s2d::solver::{cg_solve_with, CgOptions};
//! use s2d::{Backend, Session};
//!
//! // A small SPD system, block-partitioned over 2 processors.
//! let mut m = Coo::new(8, 8);
//! for i in 0..8 {
//!     m.push(i, i, 4.0);
//!     if i + 1 < 8 { m.push(i, i + 1, -1.0); m.push(i + 1, i, -1.0); }
//! }
//! m.compress();
//! let a = m.to_csr();
//! let part: Vec<u32> = (0..8).map(|i| (i / 4) as u32).collect();
//! let p = SpmvPartition::rowwise(&a, part.clone(), part, 2);
//!
//! for backend in Backend::all() {
//!     let mut session = Session::builder(&a).partition(&p).backend(backend).build();
//!     let res = cg_solve_with(&mut session, &vec![1.0; 8], &CgOptions::default());
//!     assert!(res.converged);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod key;
pub mod session;

pub use s2d_baselines as baselines;
pub use s2d_core as core;
pub use s2d_dm as dm;
pub use s2d_engine as engine;
pub use s2d_gen as gen;
pub use s2d_hypergraph as hypergraph;
pub use s2d_obs as obs;
pub use s2d_partition as partition;
pub use s2d_runtime as runtime;
pub use s2d_sim as sim;
pub use s2d_solver as solver;
pub use s2d_sparse as sparse;
pub use s2d_spmv as spmv;

pub use key::ConfigKey;
pub use s2d_engine::{Backend, KernelFormat, KernelIsa};
pub use s2d_obs::{ExecutionReport, TelemetrySink};
pub use s2d_partition::{PartitionQuality, PartitionerConfig, S2dVariant, Strategy};
pub use s2d_spmv::{PlanKind, SpmvOperator};
pub use session::{Prepared, Session, SessionBuilder};
