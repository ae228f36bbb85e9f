//! MPI-like message-passing runtime substrate.
//!
//! The paper's parallel SpMV runs over MPI on a Cray XE6. Offline we
//! substitute this runtime: `K` *ranks* running as OS threads, connected
//! by reliable, order-preserving point-to-point channels, with the small
//! set of collectives the SpMV algorithms and the iterative solvers on
//! top of them need (barrier, reductions, broadcast, all-to-all).
//!
//! Design goals, in order:
//!
//! 1. **Faithful semantics** — message matching by `(source, tag)` with
//!    out-of-order buffering, exactly like MPI's envelope matching, so
//!    programs written against this runtime port to MPI mechanically.
//! 2. **Observability** — every endpoint counts messages and words sent
//!    and received ([`EndpointStats`]), so tests can cross-validate the
//!    analytic communication statistics (`s2d-core::comm`) against what a
//!    real execution actually shipped.
//! 3. **Hostility on demand** — [`chaos`] injects random delivery delays
//!    to shake out programs that accidentally rely on timing instead of
//!    matching.
//!
//! Modules:
//!
//! * [`endpoint`] — the per-rank communication handle;
//! * [`cluster`] — construction of fully-connected endpoint groups and
//!   the scoped SPMD driver [`cluster::spmd`];
//! * [`collectives`] — barrier, reduce/allreduce, broadcast, gather,
//!   all-to-all built from point-to-point messages;
//! * [`chaos`] — delivery-delay injection for robustness tests.

pub mod chaos;
pub mod cluster;
pub mod collectives;
pub mod endpoint;

pub use chaos::ChaosConfig;
pub use cluster::{spmd, Cluster};
pub use collectives::{ReduceOp, MAX, MIN, SUM};
pub use endpoint::{Endpoint, EndpointStats, Envelope, Tag};
