//! Engine-side glue for the `s2d-obs` telemetry sink.
//!
//! [`ExecTelemetry`] pairs a shared [`TelemetrySink`] with the plan's
//! *static* per-iteration work profile — rows emitted, multiply-adds
//! and communicated words per rank — precomputed once at operator
//! construction so the hot loop's counter updates are three relaxed
//! atomic adds per rank per iteration, never a plan walk.
//!
//! Phase attribution on the compiled paths (see the `s2d-obs` crate
//! docs for phase semantics):
//!
//! * **compute** — each kernel run: one span per rank and phase;
//! * **gather** — over endpoints, input seeding plus send staging,
//!   under the rank whose `x` image is seeded / whose sends are staged.
//!   The pool seeds and stages nothing — kernels read `x` where it is —
//!   so all that is left here is one span per rank and iteration for
//!   clearing its `y` block;
//! * **scatter** — fold plus emit, under the receiving / owning rank:
//!   over endpoints the application of received payloads, on shared
//!   memory one span per rank and communication step *in which that
//!   rank receives a partial* (`y[own] += y[producer]`), and on every
//!   driver one per rank and iteration for the emit of owned rows (every
//!   team size runs one body, so per-rank gather and scatter span counts
//!   do not depend on it);
//! * **barrier-wait** — time pool participants waited: the barriers
//!   (none at a communication step without folds), and the caller's
//!   wait for the workers to leave the job,
//!   recorded under the first rank the waiting participant owns (a
//!   team of one, `CompiledSeq`, has no barrier and records none).
//!
//! Instrumentation never touches the numeric path: every walker takes
//! an `Option<&ExecTelemetry>` and brackets its seeding / kernel /
//! staging / emit steps with `span_start` / `span_end`, which
//! read the clock only when telemetry is attached — the calls and their
//! order are the same either way, so telemetry-on results are bitwise
//! identical to telemetry-off.

use std::sync::Arc;
use std::time::Instant;

use s2d_obs::{Phase, PhaseRecorder, TelemetrySink};

use crate::compile::{CompiledPlan, RankStep};

/// A telemetry sink bound to one compiled plan: the sink plus the
/// plan's static per-rank, per-iteration work counters.
pub struct ExecTelemetry {
    sink: Arc<TelemetrySink>,
    /// Rows each rank emits per iteration (owner-assembled outputs).
    rows: Vec<u64>,
    /// Multiply-adds each rank executes per iteration
    /// (format-invariant).
    madds: Vec<u64>,
    /// Words of the messages each rank sends per iteration (batch
    /// width 1): the plan's communicated words, what Eq. 3 counts —
    /// also on shared memory, where most of them never move.
    words: Vec<u64>,
}

impl ExecTelemetry {
    /// Binds `sink` to `cp`'s shape, precomputing the per-iteration
    /// work profile.
    ///
    /// # Panics
    /// Panics if the sink was sized for a different rank count.
    pub fn new(cp: &CompiledPlan, sink: Arc<TelemetrySink>) -> ExecTelemetry {
        assert_eq!(sink.k(), cp.k, "telemetry sink sized for a different rank count");
        let mut rows = vec![0u64; cp.k];
        let mut madds = vec![0u64; cp.k];
        let mut words = vec![0u64; cp.k];
        for (rk, rp) in cp.ranks.iter().enumerate() {
            rows[rk] = rp.y_emit.len() as u64;
            for step in &rp.steps {
                match step {
                    RankStep::Compute(kernel) => madds[rk] += kernel.ops() as u64,
                    RankStep::Comm { sends, .. } => {
                        words[rk] += sends.iter().map(|m| m.words() as u64).sum::<u64>();
                    }
                }
            }
        }
        ExecTelemetry { sink, rows, madds, words }
    }

    /// The shared sink.
    pub fn sink(&self) -> &Arc<TelemetrySink> {
        &self.sink
    }

    /// Rank `rk`'s recorder.
    #[inline]
    fn rec(&self, rk: usize) -> &PhaseRecorder {
        self.sink.rank(rk)
    }

    /// Accounts one iteration of rank `rk`'s static work at batch
    /// width `r` (all three counters scale with the batch width — an
    /// `r`-wide iteration does `r×` the single-RHS work).
    #[inline]
    pub(crate) fn bump_iter(&self, rk: usize, r: usize) {
        let r = r as u64;
        self.rec(rk).add_counts(self.rows[rk] * r, self.madds[rk] * r, self.words[rk] * r);
    }
}

/// Opens a span iff telemetry is attached — the off path reads no
/// clock, and with a literal `None` the whole span const-folds away.
#[inline(always)]
pub(crate) fn span_start(obs: Option<&ExecTelemetry>) -> Option<Instant> {
    obs.map(|_| Instant::now())
}

/// Closes a span opened by [`span_start`], recording it under
/// `(rank, phase)`.
#[inline(always)]
pub(crate) fn span_end(obs: Option<&ExecTelemetry>, rk: usize, ph: Phase, t: Option<Instant>) {
    if let (Some(o), Some(t)) = (obs, t) {
        o.rec(rk).record(ph, t.elapsed().as_nanos() as u64);
    }
}

/// Closes a whole-call span opened by [`span_start`]: run-level wall
/// time plus `iters` engine iterations on the sink.
#[inline]
pub(crate) fn call_end(obs: Option<&ExecTelemetry>, t: Option<Instant>, iters: usize) {
    if let (Some(o), Some(t)) = (obs, t) {
        o.sink.add_wall(t.elapsed().as_nanos() as u64);
        o.sink.add_iterations(iters as u64);
    }
}
