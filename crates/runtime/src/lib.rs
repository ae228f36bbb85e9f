//! MPI-like message-passing runtime substrate.
//!
//! The paper's parallel SpMV runs over MPI on a Cray XE6. Offline we
//! substitute this runtime: `K` *ranks* running as OS threads, connected
//! by reliable, order-preserving point-to-point channels, plus the one
//! collective the iterative solvers on top of them need (an allreduce).
//!
//! Design goals, in order:
//!
//! 1. **Faithful semantics** — message matching by `(source, tag)` with
//!    out-of-order buffering, exactly like MPI's envelope matching, so
//!    programs written against this runtime port to MPI mechanically.
//! 2. **Fail, never hang** — a rank that panics tells its peers, and
//!    [`spmd`] re-raises its panic once every rank has stopped.
//! 3. **Hostility on demand** — [`ChaosConfig`] injects random delivery
//!    delays to shake out programs that accidentally rely on timing
//!    instead of matching.
//!
//! Modules:
//!
//! * `endpoint` — the per-rank communication handle [`Endpoint`];
//! * `cluster` — construction of fully-connected endpoint groups
//!   ([`Cluster`]) and the scoped SPMD driver [`spmd`];
//! * `collectives` — [`allreduce`], built from point-to-point messages;
//! * `chaos` — delivery-delay injection for robustness tests.

#![forbid(unsafe_code)]

mod chaos;
mod cluster;
mod collectives;
mod endpoint;

pub use chaos::ChaosConfig;
pub use cluster::{spmd, Cluster};
pub use collectives::allreduce;
pub use endpoint::{Endpoint, Tag};
