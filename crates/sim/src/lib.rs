//! Distributed-machine cost models for phase-structured parallel SpMV.
//!
//! The paper's timings come from a Cray XE6 (one core per node, Gemini
//! 3D torus). Offline we substitute analytic models:
//!
//! * [`alpha_beta`] — the classic α–β–γ bulk-synchronous model used by
//!   every headline table;
//! * [`topology`] — a torus-aware variant charging per-hop latency
//!   (XE6-flavoured ablation: does rank ordering survive placement?);
//! * [`loggp`] — a simplified LogGP model charging per-message overhead
//!   on both endpoints (ablation: does it survive a different cost
//!   decomposition?).
//!
//! All models consume the same [`PhaseSpec`] streams, so one plan
//! evaluates under all of them — the machine-model ablation
//! (`s2d reproduce ablation_machine`) relies on this.

#![forbid(unsafe_code)]

pub mod alpha_beta;
pub mod loggp;
pub mod topology;

pub use alpha_beta::{simulate, MachineModel, PhaseSpec, SimReport};
pub use loggp::{simulate_loggp, LogGpModel};
pub use topology::{simulate_on_torus, TorusModel};
