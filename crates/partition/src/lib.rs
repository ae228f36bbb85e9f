//! The unified partitioner layer: one [`Strategy`] enum over the
//! paper's semi-2D methods and every baseline.
//!
//! The paper's contribution *is* the partitioning — semi-2D splitting
//! of dense rows against 1D and 2D baselines — yet historically the
//! partitioners lived behind incompatible ad-hoc entry points scattered
//! across `s2d-core` (heuristic, heuristic2, optimal, iterate),
//! `s2d-baselines` (1D, checkerboard, fine-grain, medium-grain, 1D-b)
//! and `s2d-hypergraph` (the raw k-way engine). This crate gives
//! partitioning the same first-class, enumerable, auto-selectable
//! treatment the engine gives kernels (`KernelFormat::Auto`) and
//! backends (`Backend::auto`):
//!
//! * [`Strategy`] — every partitioning method as one enum variant, with
//!   `FromStr`/`Display`/[`Strategy::all`] so sessions, the CLI, the
//!   benches and the conformance suites sweep the same set; adding a
//!   partitioner means adding a variant and an arm. Strategies that
//!   start from the 1D rowwise vector partition share one run of it
//!   inside one [`Strategy::partition_all`] call.
//! * [`PartitionQuality`] — the paper's reporting columns (communication
//!   volume, load imbalance, message counts, phase counts) priced
//!   through the `s2d-sim` α–β–γ and LogGP machine models.
//! * [`Strategy::Auto`] — cost-model-driven selection: matrix
//!   statistics prune the candidate set, the machine model picks the
//!   winner — the partitioning analogue of `KernelFormat::Auto`.

#![forbid(unsafe_code)]

pub mod quality;
pub mod strategy;

pub use quality::PartitionQuality;
pub use strategy::{AutoPick, PartitionerConfig, S2dVariant, Strategy};
