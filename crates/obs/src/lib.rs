//! # s2d-obs — per-rank phase telemetry
//!
//! The measurement substrate for the execution stack: every quantity
//! the paper's cost models *predict* (communication volume, load
//! imbalance, per-iteration time) becomes *observable* here, so the
//! α–β / LogGP predictions in `s2d-partition` can be scored against
//! reality instead of taken on faith.
//!
//! The design center is a [`TelemetrySink`]: one lock-free
//! [`PhaseRecorder`] per virtual processor, each holding monotonic-clock
//! span totals, span counts and a log₂ duration histogram per execution
//! [`Phase`] (compute / gather / scatter / barrier-wait), plus
//! work counters (rows emitted, multiply-adds, staged communication
//! words). Recorders are plain relaxed atomics padded to their own cache
//! lines — engine workers on different ranks never contend and never
//! false-share, and when no sink is attached the execution paths skip
//! every clock read, so telemetry-off runs are bitwise identical to an
//! uninstrumented build.
//!
//! Phase semantics match the engine's staged-exchange structure:
//!
//! * **compute** — kernel execution over local buffers;
//! * **gather** — collecting words *out* of local buffers: input
//!   seeding and send staging;
//! * **scatter** — applying words *into* local buffers: receive
//!   application and output assembly;
//! * **barrier-wait** — time parked at a synchronization barrier (the
//!   worker pool's phase barriers), the direct observation of load
//!   imbalance.
//!
//! [`ExecutionReport::collect`] condenses a sink into the headline
//! artifact: per-rank × per-phase breakdown, observed load imbalance,
//! and — when a model prediction is supplied — observed-vs-modeled
//! ratio columns. The report pretty-prints, and exports a [`Json`]
//! value like every other artifact in the workspace.
//!
//! [`Json`] is the workspace's one JSON value, writer and reader:
//! reports, the paper's reproduction, the tuner's verdicts and its
//! on-disk cache are all built and rendered through it. Every file the
//! CLI writes carries [`SCHEMA_VERSION`]; the tuning cache keeps its
//! own `version`.
//!
//! The [`time`] and [`best_of`] span helpers centralize the ad-hoc
//! `Instant` timing the CLI and the tuner share.

#![forbid(unsafe_code)]

mod json;
mod report;
mod serve;

pub use json::{Json, SCHEMA_VERSION};
pub use report::{
    ExecutionReport, ModelComparison, ModelRef, PhaseTimes, RankReport, WorkerLoadReport,
};
pub use serve::{ServeSnapshot, ServeStats};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One execution phase a span can be attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Kernel execution over local buffers.
    Compute,
    /// Input seeding and send staging (words leave local buffers).
    Gather,
    /// Receive application and output assembly (words enter local
    /// buffers).
    Scatter,
    /// Time parked at a synchronization barrier.
    BarrierWait,
}

impl Phase {
    /// Number of phases (array dimension of per-phase storage).
    pub const COUNT: usize = 4;

    /// Every phase, in storage order.
    pub fn all() -> [Phase; Phase::COUNT] {
        [Phase::Compute, Phase::Gather, Phase::Scatter, Phase::BarrierWait]
    }

    /// Storage index of this phase (dense, `0..Phase::COUNT`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Compute => 0,
            Phase::Gather => 1,
            Phase::Scatter => 2,
            Phase::BarrierWait => 3,
        }
    }

    /// Short stable label (report columns, JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Gather => "gather",
            Phase::Scatter => "scatter",
            Phase::BarrierWait => "barrier",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Log₂ histogram buckets per phase: bucket `i` counts spans whose
/// duration in nanoseconds has bit length `i` (bucket 0 holds 0–1 ns,
/// bucket 31 saturates everything ≥ ~1 s).
pub const HIST_BUCKETS: usize = 32;

#[inline]
fn bucket_of(nanos: u64) -> usize {
    ((u64::BITS - nanos.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// One rank's lock-free telemetry slot: per-phase span totals, counts
/// and log₂ histograms, plus work counters.
///
/// All fields are relaxed atomics — a recorder is written by whichever
/// worker currently owns the rank and read only after the run (the
/// engine's barriers and thread joins provide the ordering). The
/// 128-byte alignment keeps adjacent ranks' recorders off each other's
/// cache lines, so concurrent workers never false-share.
#[repr(align(128))]
pub struct PhaseRecorder {
    nanos: [AtomicU64; Phase::COUNT],
    spans: [AtomicU64; Phase::COUNT],
    hist: [[AtomicU64; HIST_BUCKETS]; Phase::COUNT],
    rows: AtomicU64,
    madds: AtomicU64,
    comm_words: AtomicU64,
}

impl Default for PhaseRecorder {
    fn default() -> PhaseRecorder {
        PhaseRecorder {
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: std::array::from_fn(|_| AtomicU64::new(0)),
            hist: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            rows: AtomicU64::new(0),
            madds: AtomicU64::new(0),
            comm_words: AtomicU64::new(0),
        }
    }
}

impl PhaseRecorder {
    /// Records one span of `nanos` under `phase`.
    #[inline]
    pub fn record(&self, phase: Phase, nanos: u64) {
        let p = phase.index();
        self.nanos[p].fetch_add(nanos, Ordering::Relaxed);
        self.spans[p].fetch_add(1, Ordering::Relaxed);
        self.hist[p][bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates work counters (typically once per iteration with the
    /// plan's static per-iteration amounts).
    #[inline]
    pub fn add_counts(&self, rows: u64, madds: u64, comm_words: u64) {
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.madds.fetch_add(madds, Ordering::Relaxed);
        self.comm_words.fetch_add(comm_words, Ordering::Relaxed);
    }

    /// Total nanoseconds recorded under `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()].load(Ordering::Relaxed)
    }

    /// Number of spans recorded under `phase`.
    pub fn spans(&self, phase: Phase) -> u64 {
        self.spans[phase.index()].load(Ordering::Relaxed)
    }

    /// The log₂ duration histogram of `phase` (see [`HIST_BUCKETS`]).
    pub fn histogram(&self, phase: Phase) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|b| self.hist[phase.index()][b].load(Ordering::Relaxed))
    }

    /// Rows emitted (owner-assembled output rows × iterations × batch).
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Multiply-adds executed (format-invariant, padding excluded).
    pub fn madds(&self) -> u64 {
        self.madds.load(Ordering::Relaxed)
    }

    /// Words staged into communication buffers by this rank.
    pub fn comm_words(&self) -> u64 {
        self.comm_words.load(Ordering::Relaxed)
    }

    fn clear(&self) {
        for p in 0..Phase::COUNT {
            self.nanos[p].store(0, Ordering::Relaxed);
            self.spans[p].store(0, Ordering::Relaxed);
            for b in 0..HIST_BUCKETS {
                self.hist[p][b].store(0, Ordering::Relaxed);
            }
        }
        self.rows.store(0, Ordering::Relaxed);
        self.madds.store(0, Ordering::Relaxed);
        self.comm_words.store(0, Ordering::Relaxed);
    }
}

/// The shared telemetry collection point: one [`PhaseRecorder`] per
/// rank plus run-level counters (iterations and wall time inside
/// instrumented executions).
///
/// Cheap to share (`Arc`) between the control thread and pool workers;
/// all writes are relaxed atomics.
pub struct TelemetrySink {
    ranks: Vec<PhaseRecorder>,
    iterations: AtomicU64,
    wall_nanos: AtomicU64,
}

impl TelemetrySink {
    /// A sink for `k` ranks, all counters zero.
    pub fn new(k: usize) -> TelemetrySink {
        assert!(k >= 1, "telemetry sink needs at least one rank");
        TelemetrySink {
            ranks: (0..k).map(|_| PhaseRecorder::default()).collect(),
            iterations: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
        }
    }

    /// Number of ranks this sink records.
    pub fn k(&self) -> usize {
        self.ranks.len()
    }

    /// Rank `r`'s recorder.
    #[inline]
    pub fn rank(&self, r: usize) -> &PhaseRecorder {
        &self.ranks[r]
    }

    /// Accounts `n` engine iterations (one per pass over the phases).
    #[inline]
    pub fn add_iterations(&self, n: u64) {
        self.iterations.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts wall time spent inside instrumented executions.
    #[inline]
    pub fn add_wall(&self, nanos: u64) {
        self.wall_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Engine iterations accounted so far.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds inside instrumented executions.
    pub fn wall_nanos(&self) -> u64 {
        self.wall_nanos.load(Ordering::Relaxed)
    }

    /// Resets every recorder and counter to zero (e.g. to profile a
    /// steady-state window after warmup).
    pub fn reset(&self) {
        for r in &self.ranks {
            r.clear();
        }
        self.iterations.store(0, Ordering::Relaxed);
        self.wall_nanos.store(0, Ordering::Relaxed);
    }
}

/// Times one call: returns the result and the elapsed wall time.
///
/// The span helper behind every "how long did setup take" measurement
/// in the CLI.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Noise-robust per-call estimate: runs `f` in `reps` batches of
/// `iters` calls and returns the minimum per-call average — the
/// best-of-N idiom (the minimum of averages discards
/// scheduler noise without discarding cache-warm state).
///
/// `reps` and `iters` are clamped to at least 1.
pub fn best_of(reps: usize, iters: u32, mut f: impl FnMut()) -> Duration {
    let (reps, iters) = (reps.max(1), iters.max(1));
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed() / iters
        })
        .min()
        .expect("reps >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_stable() {
        for (i, ph) in Phase::all().into_iter().enumerate() {
            assert_eq!(ph.index(), i);
        }
        assert_eq!(Phase::all().len(), Phase::COUNT);
        assert_eq!(Phase::BarrierWait.label(), "barrier");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn recorder_accumulates_spans_and_counts() {
        let rec = PhaseRecorder::default();
        rec.record(Phase::Compute, 100);
        rec.record(Phase::Compute, 200);
        rec.record(Phase::BarrierWait, 7);
        rec.add_counts(3, 50, 12);
        rec.add_counts(3, 50, 12);
        assert_eq!(rec.nanos(Phase::Compute), 300);
        assert_eq!(rec.spans(Phase::Compute), 2);
        assert_eq!(rec.spans(Phase::BarrierWait), 1);
        assert_eq!(rec.nanos(Phase::Gather), 0);
        assert_eq!((rec.rows(), rec.madds(), rec.comm_words()), (6, 100, 24));
        let h = rec.histogram(Phase::Compute);
        assert_eq!(h.iter().sum::<u64>(), 2);
        assert_eq!(h[bucket_of(100)] + h[bucket_of(200)], 2);
    }

    #[test]
    fn sink_reset_clears_everything() {
        let sink = TelemetrySink::new(2);
        sink.rank(1).record(Phase::Gather, 42);
        sink.add_iterations(5);
        sink.add_wall(1000);
        assert_eq!(sink.k(), 2);
        assert_eq!(sink.iterations(), 5);
        assert_eq!(sink.wall_nanos(), 1000);
        sink.reset();
        assert_eq!(sink.rank(1).nanos(Phase::Gather), 0);
        assert_eq!(sink.rank(1).spans(Phase::Gather), 0);
        assert_eq!(sink.iterations(), 0);
        assert_eq!(sink.wall_nanos(), 0);
    }

    #[test]
    fn span_helpers_time_work() {
        let (value, d) = time(|| 2 + 2);
        assert_eq!(value, 4);
        assert!(d.as_nanos() < 1_000_000_000);
        let mut calls = 0u32;
        let per_call = best_of(2, 3, || calls += 1);
        assert_eq!(calls, 6);
        assert!(per_call.as_nanos() < 1_000_000_000);
        // Degenerate arguments clamp instead of panicking.
        let _ = best_of(0, 0, || ());
    }
}
