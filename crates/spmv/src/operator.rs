//! The unified operator abstraction over every SpMV execution backend.
//!
//! A [`SpmvOperator`] is a *stateful, reusable* `y = A·x` (and
//! `Y = A·X`) kernel: whatever setup a backend needs — plan
//! interpretation state, compiled flat buffers, a worker pool — is paid
//! once when the operator is built and reused across every call.
//! `apply` and `apply_batch` write into **caller-owned output buffers**,
//! so the steady-state iteration loop of a solver performs no
//! per-iteration allocation on backends that support it.
//!
//! The one interpreting operator lives here ([`MailboxOperator`], the
//! test oracle); the compiled operators and the `Backend` selector live
//! in `s2d-engine` (`s2d_engine::Backend`), which builds any backend's
//! operator from the same [`SpmvPlan`]. Solvers in
//! `s2d-solver` are generic over this trait, so every solver runs on
//! every backend.

use crate::exec::MailboxState;
use crate::plan::SpmvPlan;

/// A reusable SpMV kernel bound to one `(matrix, partition, plan)`
/// triple.
///
/// # Contract
///
/// * `apply(x, y)` computes `y = A·x`; `x.len() == ncols()`,
///   `y.len() == nrows()`. `y` is fully overwritten.
/// * `apply_batch(x, y, r)` computes `Y = A·X` for `r` right-hand
///   sides in **row-major block layout**: global index `g`, column `q`
///   at `x[g*r + q]` (`x.len() == ncols()*r`, `y.len() == nrows()*r`).
///   Per column the result must agree with `apply` on that column —
///   bitwise when [`SpmvOperator::deterministic`] returns `true`.
/// * Both overwrite **every** element of `y`, rows without nonzeros
///   included, whatever it held before: callers may hand in a recycled
///   buffer without clearing it (`s2d-serve` does). The engine's
///   conformance suite checks this with a `NaN`-filled `y`.
/// * Repeated `apply` calls with the same input yield the same output —
///   bitwise for deterministic backends (every backend in this
///   workspace), within floating-point tolerance otherwise (e.g. an
///   implementation that folds messages in arrival order).
///
/// Implementations may grow internal buffers on the first call at a new
/// batch width; steady-state calls at an already-seen width must not
/// allocate per iteration (interpreting oracles are exempt — they are
/// correctness references, not fast paths).
pub trait SpmvOperator {
    /// Output dimension (rows of `A`).
    fn nrows(&self) -> usize;

    /// Input dimension (columns of `A`).
    fn ncols(&self) -> usize;

    /// `y = A·x` into the caller's buffer.
    fn apply(&mut self, x: &[f64], y: &mut [f64]);

    /// `Y = A·X` over `r` right-hand sides, row-major blocks.
    ///
    /// The default runs the batch column by column through [`apply`]
    /// using one scratch column pair allocated per call (not per
    /// column); backends with a native batched path override this.
    ///
    /// [`apply`]: SpmvOperator::apply
    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        apply_batch_columnwise(self, x, y, r);
    }

    /// `Y = A^iters · X`: `iters` chained batched applications in one
    /// call (power-iteration shape, no normalization). Requires a
    /// square operator for `iters > 1`.
    ///
    /// The default ping-pongs through one internally allocated carrier
    /// block; backends with a native chained path (e.g. the compiled
    /// worker pool, whose workers stay hot across iterations) override
    /// it to keep the whole chain inside one dispatch.
    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        assert!(iters >= 1, "at least one iteration");
        if iters > 1 {
            assert_eq!(self.nrows(), self.ncols(), "chained SpMV needs a square operator");
        }
        self.apply_batch(x, y, r);
        if iters > 1 {
            let mut carrier = vec![0.0; y.len()];
            for _ in 1..iters {
                carrier.copy_from_slice(y);
                self.apply_batch(&carrier, y, r);
            }
        }
    }

    /// Whether repeated applications are bitwise reproducible (true for
    /// every fixed-schedule backend; false when accumulation order
    /// depends on thread scheduling).
    fn deterministic(&self) -> bool {
        true
    }

    /// Planned compute multiply-adds per internal worker per iteration,
    /// one row per compute phase with one entry per worker, for
    /// backends with a fixed worker schedule (the compiled pool); `None`
    /// for backends without one. Σ over phases of each row's max, over
    /// Σ of each row's mean, is the schedule's compute imbalance.
    fn worker_loads(&self) -> Option<Vec<Vec<u64>>> {
        None
    }
}

/// Forwarding impl so `&mut O` is itself an operator — lets callers
/// inject a borrowed operator into generic consumers (solvers, the
/// `Session` facade) without giving up ownership.
impl<O: SpmvOperator + ?Sized> SpmvOperator for &mut O {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }

    fn ncols(&self) -> usize {
        (**self).ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        (**self).apply_batch(x, y, r)
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        (**self).apply_batch_iters(x, y, r, iters)
    }

    fn deterministic(&self) -> bool {
        (**self).deterministic()
    }

    fn worker_loads(&self) -> Option<Vec<Vec<u64>>> {
        (**self).worker_loads()
    }
}

impl<O: SpmvOperator + ?Sized> SpmvOperator for Box<O> {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }

    fn ncols(&self) -> usize {
        (**self).ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        (**self).apply_batch(x, y, r)
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        (**self).apply_batch_iters(x, y, r, iters)
    }

    fn deterministic(&self) -> bool {
        (**self).deterministic()
    }

    fn worker_loads(&self) -> Option<Vec<Vec<u64>>> {
        (**self).worker_loads()
    }
}

/// Shared column-by-column batch fallback: one scratch column pair for
/// all `r` passes (no per-column allocation).
pub(crate) fn apply_batch_columnwise<O: SpmvOperator + ?Sized>(
    op: &mut O,
    x: &[f64],
    y: &mut [f64],
    r: usize,
) {
    assert!(r >= 1, "batch width must be at least 1");
    let (n_in, n_out) = (op.ncols(), op.nrows());
    assert_eq!(x.len(), n_in * r, "input block length mismatch");
    assert_eq!(y.len(), n_out * r, "output block length mismatch");
    let mut xcol = vec![0.0f64; n_in];
    let mut ycol = vec![0.0f64; n_out];
    for q in 0..r {
        for g in 0..n_in {
            xcol[g] = x[g * r + q];
        }
        op.apply(&xcol, &mut ycol);
        for g in 0..n_out {
            y[g * r + q] = ycol[g];
        }
    }
}

/// Checks one operator call's vector shapes against a plan.
fn check_shapes(plan: &SpmvPlan, x: &[f64], y: &[f64], r: usize) {
    assert!(r >= 1, "batch width must be at least 1");
    assert_eq!(x.len(), plan.ncols * r, "input length mismatch");
    assert_eq!(y.len(), plan.nrows * r, "output length mismatch");
}

/// The deterministic mailbox interpreter as an operator.
///
/// Holds the per-processor interpretation state (`MailboxState`)
/// across calls, so repeated applications reuse the hash maps and the
/// flat capture buffer instead of reallocating them — the convenience
/// [`SpmvPlan::execute_mailbox`] method pays that setup on every call.
pub struct MailboxOperator {
    plan: std::sync::Arc<SpmvPlan>,
    state: MailboxState,
}

impl MailboxOperator {
    /// Builds the operator over a shared plan.
    pub fn new(plan: std::sync::Arc<SpmvPlan>) -> MailboxOperator {
        let state = MailboxState::for_plan(&plan);
        MailboxOperator { plan, state }
    }

    /// The plan this operator interprets.
    pub fn plan(&self) -> &SpmvPlan {
        &self.plan
    }
}

impl SpmvOperator for MailboxOperator {
    fn nrows(&self) -> usize {
        self.plan.nrows
    }

    fn ncols(&self) -> usize {
        self.plan.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        check_shapes(&self.plan, x, y, 1);
        crate::exec::execute_mailbox_into(&self.plan, x, y, &mut self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use std::sync::Arc;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    #[test]
    fn mailbox_operator_matches_serial_and_is_bitwise_stable() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        let mut op = MailboxOperator::new(plan);
        let mut y = vec![0.0; a.nrows()];
        op.apply(&x, &mut y);
        assert_close(&y, &a.spmv_alloc(&x));
        let mut y2 = vec![9.0; a.nrows()];
        op.apply(&x, &mut y2);
        assert_eq!(y, y2, "deterministic operator must be bitwise stable");
    }

    #[test]
    fn columnwise_batch_matches_apply_per_column() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let mut op = MailboxOperator::new(plan);
        let (n, r) = (a.ncols(), 3);
        let x: Vec<f64> = (0..n * r).map(|i| ((i * 31) % 17) as f64 / 5.0 - 1.5).collect();
        let mut y = vec![0.0; a.nrows() * r];
        op.apply_batch(&x, &mut y, r);
        for q in 0..r {
            let xq: Vec<f64> = (0..n).map(|g| x[g * r + q]).collect();
            let mut yq = vec![0.0; a.nrows()];
            op.apply(&xq, &mut yq);
            let got: Vec<f64> = (0..a.nrows()).map(|g| y[g * r + q]).collect();
            assert_eq!(got, yq, "column {q} must match single-RHS apply bitwise");
        }
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn shape_mismatch_is_rejected() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let mut op = MailboxOperator::new(Arc::new(SpmvPlan::single_phase(&a, &p)));
        let mut y = vec![0.0; a.nrows()];
        op.apply(&[1.0], &mut y);
    }
}
