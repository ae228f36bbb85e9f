//! # s2d-serve — SpMV as a service
//!
//! The long-lived, multi-tenant serving layer over the `s2d` stack:
//! where the rest of the workspace answers *one* solve fast, this crate
//! answers *many concurrent* solves cheaply. Three mechanisms carry the
//! load:
//!
//! * **Preparation cache** ([`PlanCache`]) — partitioning, plan
//!   construction and kernel compilation are cached under
//!   (matrix fingerprint, strategy, k, plan kind, kernel format, batch
//!   width); repeat registrations stamp sessions from the cached
//!   artifact in microseconds. Hit/miss/eviction counters surface
//!   through [`s2d_obs::ServeStats`] into `ExecutionReport`s.
//! * **Admission + queueing** ([`Server`]) — per-session bounded queues
//!   with immediate [`QueueFull`](ServeError::QueueFull) rejection and
//!   per-request deadlines ([`Expired`](ServeError::Expired)), so
//!   overload sheds load instead of stretching latency.
//! * **Natural batching** — a worker runs whatever single-RHS requests
//!   are queued when it comes free (up to
//!   [`max_coalesce`](ServerConfig::max_coalesce)) as a single
//!   `apply_batch` execution (the multi-RHS reuse win measured at
//!   ~2–2.4× on rmat14/K = 16) and scatters back per caller, bitwise
//!   identical to running each request alone. Nothing waits for a batch
//!   to fill; there is no window to tune.
//!
//! Request buffers are recycled (a consumed `x` is a later response's
//! `y`; callers own every `Vec` they get back), and one server-wide
//! core budget keeps the participants of all applies in flight within
//! `available_parallelism()` (both are laid out at the top of
//! `src/server.rs`).
//!
//! Every session executes the cached **compiled plan** — there is no
//! serving-side plan interpreter. In-process sessions walk it on the
//! configured [`Backend`](s2d::Backend) — by default the one
//! [`Backend::auto`](s2d::Backend::auto) picks for the plan; with
//! [`sharded`](ServerConfig::sharded) set, the same compiled rank
//! programs run over `s2d-runtime` endpoints, one rank per thread
//! ([`Backend::Threaded`](s2d::Backend::Threaded)). Every session is
//! stamped by [`Prepared::session`](s2d::Prepared::session) from the
//! cached preparation. Every walker folds partial sums in
//! the compiled receive order, so sharded serving is bitwise identical
//! to a direct `CompiledSeq` session, which the serve differential
//! tests pin down (the engine's own suites pin the endpoint operator
//! under chaos-delayed delivery);
//! and a malformed plan is rejected when it is compiled at
//! registration, never inside a request.

#![forbid(unsafe_code)]

mod cache;
mod server;

pub use cache::{PlanCache, PrepKey};
pub use server::{ServeError, Server, ServerConfig, SessionId, Ticket};
