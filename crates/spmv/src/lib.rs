//! Parallel SpMV plans and executors.
//!
//! A [`plan::SpmvPlan`] is a bulk-synchronous program: an alternating
//! sequence of per-processor compute phases (multiply-add task lists) and
//! communication phases (messages carrying `x` values and partial-`y`
//! values). One plan language expresses every algorithm in the paper:
//!
//! * **row-parallel 1D** — expand `x`, compute (a degenerate s2D plan);
//! * **two-phase 2D** — expand `x`, compute, fold `ȳ` (Section I);
//! * **single-phase s2D** — precompute, fused Expand-and-Fold, compute
//!   (Section III);
//! * **mesh-routed s2D-b** — precompute, two mesh hops with partial-sum
//!   aggregation at intermediates, compute (Section VI-B).
//!
//! One executor lives here: the mailbox interpreter behind
//! [`SpmvPlan::execute_mailbox`] and [`MailboxOperator`], a
//! deterministic, deliberately naive sequential interpretation (works
//! for any `K`) kept as the semantic **oracle** every fast path is
//! differentially tested against. Everything else that runs a plan —
//! sequentially, on a worker pool, or with real message passing over
//! `s2d-runtime` — executes its compiled form in `s2d-engine`.
//!
//! The [`operator::SpmvOperator`] trait unifies the oracle with the
//! compiled backends in `s2d-engine` behind one stateful
//! `apply`/`apply_batch` interface writing into caller-owned buffers;
//! `s2d_engine::Backend` selects among all of them, and the
//! `s2d` facade crate's `Session` builder wires matrix + partition +
//! plan kind + backend together fluently.

#![forbid(unsafe_code)]

pub mod bridge;
mod exec;
pub mod operator;
pub mod plan;

pub use bridge::{simulate_plan, to_phase_specs};
pub use operator::{MailboxOperator, SpmvOperator};
pub use plan::{MsgSpec, MultTask, PlanKind, PlanPhase, RowProfile, SpmvPlan};
