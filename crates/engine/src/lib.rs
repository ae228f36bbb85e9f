//! Compiled SpMV execution engine.
//!
//! The mailbox interpreter in `s2d-spmv` validates plan *semantics* and
//! stays as the one deliberately naive test oracle; this crate makes
//! plans *fast*, and is the only other thing that executes them. It
//! follows the inspector/executor pattern of the OSKI line and
//! shared-memory SpMV practice: pay a one-time compilation cost per
//! `(matrix, partition)` pair, then run thousands of iterations over
//! flat, cache-friendly arrays. One compiled program per rank
//! ([`RankProgram`]), executed by one phase-walk body on the worker
//! pool (a team of one for `CompiledSeq`) plus the endpoint walker —
//! rather than one executor per schedule, and one lowering rather than
//! one per transport: every `x_j` has a single home (its global column) that
//! every kernel indexes, every partial sum a slot in one `y` arena.
//! Ranks that share memory move no expand word and fold by reading the
//! producer's slot; the endpoint walker runs the same kernels over a
//! private image of the home space that real payloads fill in.
//!
//! The pipeline:
//!
//! ```text
//!   SpmvPlan ──CompiledPlan::compile──▶ CompiledPlan (K RankPrograms)
//!                                          │
//!                     ┌────────────────────┴───────────────────┐
//!          the phase-walk body (exec)                 RankProgram::spmv_over
//!          on the pool (ParallelEngine:              (s2d-runtime endpoints,
//!           caller + persistent workers,              one rank per thread,
//!           phase barriers; CompiledSeq:              private x image,
//!           a team of one, no barrier)                payloads:
//!                    │                                EndpointOperator)
//!                    └────────────────────┬───────────────────┘
//!                    SpmvOperator::apply / apply_batch / apply_batch_iters
//! ```
//!
//! * [`compile`] — lowers compute phases to format-pluggable kernels
//!   over the `x` homes and the rank's block of the `y` arena, and
//!   communication phases to flat message tables plus per-receiver fold
//!   lists — still checking that each rank was *sent* what it reads;
//! * [`formats`] — the kernel storage formats ([`KernelFormat`]):
//!   CSR slices, SELL-C-σ sorted chunks, dense-span splits, and the
//!   per-kernel `auto` selection policy;
//! * `exec` — the phase-walk body, run by every pool participant;
//! * [`pool`] — the [`ParallelEngine`]: the calling thread plus
//!   long-lived, park-when-idle workers, each running the body for the
//!   ranks it owns over the shared `y` arena it reuses across calls,
//!   `apply_batch_iters(.., n)` for solver loops with zero
//!   per-iteration allocation; a team of one is `CompiledSeq`;
//! * [`threaded`] — the endpoint walker ([`RankProgram::spmv_over`])
//!   and [`EndpointOperator`], which runs it on one OS thread per rank.
//!
//! Body and endpoint walker fold a communication phase's partials in
//! the compiled `recvs` order, so on one compiled plan all drivers
//! agree bitwise — whatever the thread count, delivery order or batch
//! width.
//!
//! # Kernel formats
//!
//! The kernel body is a pluggable storage format, not a single CSR
//! loop: [`CompiledPlan::compile_with_isa`] lowers every compute phase to
//! the requested [`KernelFormat`], and the format is baked into the
//! kernel's buffer layout (chunk packing, padding, span tables) —
//! every executor (worker pool at any team size, the solver's
//! per-rank programs) runs whatever format the plan carries through
//! the one [`Kernel::run_batch`] entry point.
//!
//! Selection guidance:
//!
//! * [`KernelFormat::CsrSlice`] (the default) — the PR 1 kernel,
//!   bitwise-preserved; right for mixed/long-row slices and the
//!   baseline every other format is differentially held to.
//! * [`KernelFormat::Sell`] — SELL-C-σ at C = 2, σ = 256: sorts rows
//!   by length inside σ-row windows and packs C-lane padded chunks
//!   that one entry-major loop walks with a uniform trip count; wins
//!   on many short irregular rows (graph matrices), loses when padding
//!   fill gets large.
//! * [`KernelFormat::DenseRowSplit`] — turns runs of consecutive
//!   columns into index-free dense spans; right for heavy split rows
//!   whose share on a rank is a contiguous column range.
//! * [`KernelFormat::Auto`] — per rank × phase choice from compile-time
//!   row-length statistics ([`KernelStats`]); use it unless you are
//!   pinning a format for comparison.
//!
//! All formats preserve per-row entry order and accumulate through a
//! single chain per row, so results are bitwise identical across
//! formats for finite inputs (see the [`formats`] module docs for the
//! exact contract), and [`Kernel::ops`] /
//! [`CompiledPlan::total_ops`] are format-invariant — padding never
//! counts.
//!
//! # Batched (multi-RHS) execution
//!
//! Every compiled path also runs **blocks** of `r` right-hand sides at
//! once (`Y = A·X`): [`Kernel::run_batch`], and `apply_batch` /
//! `apply_batch_iters` on the shared-memory operator, a
//! [`ParallelEngine`] of any team size, built with a width of at least
//! `r` (a wider batch grows the operator's buffers once).
//! The memory layout is row-major everywhere:
//!
//! * global vectors: index `g`, column `q` at `x[g*r + q]` — an `n × r`
//!   block, never `r` separate vectors;
//! * the `y` arena: slot `s` occupies `y[s*r .. (s+1)*r]`, so a rank's
//!   block starts at `y_off × r`;
//! * message payloads (endpoint walker): each [`CompiledMsg`] scales
//!   from `len` to `len × r` words — one message, `r` times wider.
//!
//! One batched iteration therefore walks the matrix values and the
//! fold lists **once** for all `r` columns, reusing
//! each fetched `A` entry `r` times against `r` contiguous `x` words —
//! the register/cache-blocking lever of the OSKI line. The fixed-width
//! inner loops (`r ∈ {1, 2, 4, 8}` specializations in
//! [`Kernel::run_batch`]) are one body per format; for `r ∈ {4, 8}` the
//! same body is also compiled with AVX2 enabled and taken under
//! [`KernelIsa::Auto`] when a runtime CPU probe finds AVX2, never under
//! [`KernelIsa::Scalar`]. The vector lanes map to the batch dimension,
//! so the AVX2 paths are **bitwise identical** to the scalar reference.
//! Per column, results are bitwise identical to the single-RHS path:
//! only the traversal is shared, never the accumulation order.
//!
//! `s2d-solver`'s SPMD `pagerank` runs its per-rank SpMV through the
//! same endpoint walker, and every solver's `*_with` entry point runs on
//! `Backend::Threaded`, which walks it too; the mailbox interpreter
//! remains as the cross-check oracle (see
//! `crates/engine/tests/props.rs` and the differential harness in
//! `crates/engine/tests/differential.rs`).
//!
//! # The unified operator surface
//!
//! The [`backend`] module puts the oracle and the three compiled
//! backends behind `s2d_spmv::SpmvOperator`, selected by the [`Backend`]
//! enum: `Backend::build(&plan, &compiled, width, sink)` pays the
//! remaining setup (buffers, worker threads) once and returns an
//! operator whose `apply`/`apply_batch` write into caller-owned buffers
//! with zero steady-state allocation on the pool.
//! That operator interface is the only public way to run a compiled
//! plan: pay the inspector once, then make one multiply call on one
//! handle. See the [`backend`] module docs for selection guidance (when the pool beats the
//! sequential operator, how to pick a batch width). The conformance
//! suite in `crates/engine/tests/conformance.rs` holds every backend to
//! one shared property set.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod backend;
pub mod compile;
mod exec;
pub mod formats;
pub mod pool;
pub mod telemetry;
pub mod threaded;

pub use backend::Backend;
pub use compile::{CompiledMsg, CompiledPlan, RankProgram, RankStep};
pub use formats::{
    CsrKernel, DenseSplitKernel, Kernel, KernelFormat, KernelIsa, KernelStats, SellKernel, NO_LANE,
};
pub use pool::{ParallelEngine, PoolOptions};
pub use telemetry::ExecTelemetry;
pub use threaded::{EndpointOperator, Payload, RankLocal};

/// The CPUs this process may run on, read once. `available_parallelism`
/// reads the cgroup quota files on every call, and on a thread pinned
/// to one core it would answer 1: every engine constructor reads it
/// here first, before any worker it spawns pins itself.
pub(crate) fn cpu_count() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
