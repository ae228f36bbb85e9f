//! The closed-loop sampling loop: operations under test take turns in
//! short blocks over one shared window, so that drift of the machine
//! (frequency, a noisy neighbour) lands on all of them alike instead of
//! on whichever happened to run last.

use std::time::{Duration, Instant};

use crate::trace::{SpanId, Tracer};

/// One operation under test.
pub trait Op {
    /// Runs the operation once. This is the timed part.
    fn call(&mut self);

    /// Untimed work after each call (checking a served response).
    fn after_call(&mut self) {}

    /// Untimed hooks around each block: the pipelined serve client
    /// fills and drains its window of outstanding requests here, the
    /// direct-apply ops check the block's output.
    fn begin_block(&mut self) {}
    fn end_block(&mut self) {}

    /// Operations issued and failed so far, warm-up included.
    fn tally(&self) -> Tally;
}

/// Operations attempted and failed. An output that fails its check, a
/// refused request and a non-converged solve all count as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What the loop recorded for one [`Op`].
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Seconds per timed call, in call order.
    pub secs: Vec<f64>,
    /// `(calls, wall seconds)` per block, hooks included — the basis of
    /// throughput figures.
    pub blocks: Vec<(usize, f64)>,
}

impl Samples {
    /// Calls per second of each block.
    pub fn block_rates(&self) -> Vec<f64> {
        self.blocks.iter().map(|&(calls, wall)| calls as f64 / wall).collect()
    }
}

/// Where [`interleave`] records its timed calls as spans: every call of
/// op `i` becomes a span named `names[i]` under `parent` (ops whose
/// name is `None` stay unrecorded).
pub struct SpanSink<'a> {
    pub tracer: &'a mut Tracer,
    pub names: &'a [Option<&'static str>],
    pub parent: Option<SpanId>,
}

/// Warm calls discarded before sampling (fewer when a call is so slow
/// that fifty of them would eat the window).
const WARM_CALLS: usize = 50;

/// Length of one block in the traced pass, whose figures inform but
/// gate nothing.
pub const BLOCK: Duration = Duration::from_millis(200);

/// Length of one block in the untraced pass. Short, so that the blocks
/// of one round sit within the same burst of machine noise (bursts of
/// half a second are common on the development VM) and the ratios the
/// end-to-end metrics are built from see it on both sides.
pub const SHORT_BLOCK: Duration = Duration::from_millis(50);

/// Runs `ops` round-robin in blocks of `block` until `window` has been spent on
/// timed blocks, after per-op warm-up. When `trace` is given, every
/// timed call is also recorded as a span named `names[i]` under the
/// given parent.
pub fn interleave(
    ops: &mut [&mut dyn Op],
    window: Duration,
    block: Duration,
    mut spans: Option<SpanSink<'_>>,
) -> Vec<Samples> {
    let mut out = vec![Samples::default(); ops.len()];
    if ops.is_empty() {
        return out;
    }
    // Warm-up: at most WARM_CALLS calls and at most a tenth of the
    // op's share of the window, but at least one call.
    let warm_budget = window / (10 * ops.len() as u32);
    for op in ops.iter_mut() {
        let t = Instant::now();
        op.begin_block();
        for done in 0..WARM_CALLS {
            if done > 0 && t.elapsed() >= warm_budget {
                break;
            }
            op.call();
            op.after_call();
        }
        op.end_block();
    }
    let block = block.min(window / (4 * ops.len() as u32)).max(Duration::from_micros(100));
    let mut spent = Duration::ZERO;
    while spent < window {
        for (i, op) in ops.iter_mut().enumerate() {
            let samples = &mut out[i];
            let first = samples.secs.len();
            let block_start = Instant::now();
            op.begin_block();
            let timed_start = Instant::now();
            loop {
                let t0 = Instant::now();
                op.call();
                let t1 = Instant::now();
                samples.secs.push((t1 - t0).as_secs_f64());
                if let Some(sink) = spans.as_mut() {
                    if let Some(name) = sink.names[i] {
                        sink.tracer.record(name, sink.parent, t0, t1);
                    }
                }
                op.after_call();
                if t1 - timed_start >= block {
                    break;
                }
            }
            op.end_block();
            let wall = block_start.elapsed();
            let calls = samples.secs.len() - first;
            samples.blocks.push((calls, wall.as_secs_f64()));
            spent += wall;
        }
    }
    out
}

/// [`interleave`] for a single op.
pub fn sample(op: &mut dyn Op, window: Duration) -> Samples {
    interleave(&mut [op], window, BLOCK, None).pop().expect("one op in, one sample set out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        calls: usize,
        checked: usize,
        begun: usize,
        ended: usize,
    }

    impl Op for Counter {
        fn call(&mut self) {
            self.calls += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
        fn after_call(&mut self) {
            self.checked += 1;
        }
        fn begin_block(&mut self) {
            self.begun += 1;
        }
        fn end_block(&mut self) {
            self.ended += 1;
        }
        fn tally(&self) -> Tally {
            Tally { attempted: self.calls, failed: 0 }
        }
    }

    #[test]
    fn ops_take_turns_in_blocks_and_every_timed_call_is_sampled() {
        let (mut a, mut b) = (Counter::default(), Counter::default());
        let mut tracer = Tracer::new("t");
        let out = interleave(
            &mut [&mut a, &mut b],
            Duration::from_millis(40),
            BLOCK,
            Some(SpanSink { tracer: &mut tracer, names: &[Some("a"), None], parent: None }),
        );
        assert_eq!(out.len(), 2);
        for (s, op) in out.iter().zip([&a, &b]) {
            assert!(s.blocks.len() >= 2, "each op gets several blocks");
            assert_eq!(s.blocks.iter().map(|b| b.0).sum::<usize>(), s.secs.len());
            // One warm-up block on top of the timed ones.
            assert_eq!(op.begun, s.blocks.len() + 1);
            assert_eq!(op.begun, op.ended);
            assert!(op.calls > s.secs.len(), "warm calls are not sampled");
            assert_eq!(op.checked, op.calls);
            assert!(s.block_rates().iter().all(|r| *r > 0.0));
        }
        assert_eq!(tracer.len(), out[0].secs.len(), "only the named op is recorded");
        assert!(out[0].blocks.len().abs_diff(out[1].blocks.len()) <= 1, "blocks alternate");
    }
}
