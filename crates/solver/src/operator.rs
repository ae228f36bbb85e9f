//! Operator injection: one solver core, every execution backend.
//!
//! The solver math in this crate is written once, generic over two
//! capabilities:
//!
//! * [`SpmvOperator`] (from `s2d-spmv`) — the repeated `y = A·x` /
//!   `Y = A·X` kernel, writing into caller-owned buffers;
//! * [`Reduce`] — the global reductions (sum, fused vector sum) a
//!   distributed solver needs around the multiply.
//!
//! Two families implement both:
//!
//! * the SPMD per-rank context behind [`pagerank`](crate::pagerank):
//!   `apply` runs this rank's slice of the plan (communicating with its
//!   peers), reductions ride the runtime's binomial-tree allreduce.
//!   Vectors are the rank's *local* slices.
//! * [`Solo`] — wraps any whole-plan backend operator
//!   (`s2d_engine::Backend::build` gives one per backend) into a
//!   single-rank world where reductions are the identity. Vectors are
//!   *global*.
//!
//! Because every `s2d_engine::Backend` yields an `SpmvOperator`, every
//! solver (`cg`, `jacobi`, `power`, `pagerank`, `block_power`) runs on
//! every backend through its `*_with` entry point — the property the
//! conformance suite in `crates/solver/tests/backends.rs` pins.

use s2d_spmv::SpmvOperator;

/// Global reductions over however many ranks participate (one, for
/// [`Solo`]). Every rank passes its local contribution and receives the
/// global result; SPMD implementations must be called at the same
/// program points on every rank.
pub trait Reduce {
    /// Global sum of a per-rank scalar.
    fn reduce_sum(&mut self, local: f64) -> f64;

    /// Elementwise global sum of a small dense vector (fused
    /// multi-scalar reduction — one exchange for several scalars).
    fn reduce_sum_vec(&mut self, locals: Vec<f64>) -> Vec<f64>;
}

/// Global dot product `⟨u, v⟩` over the participating ranks.
pub(crate) fn dot<C: Reduce + ?Sized>(c: &mut C, u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    let local: f64 = u.iter().zip(v).map(|(a, b)| a * b).sum();
    c.reduce_sum(local)
}

/// Global `⟨v, v⟩`.
pub(crate) fn dot_self<C: Reduce + ?Sized>(c: &mut C, v: &[f64]) -> f64 {
    let local: f64 = v.iter().map(|a| a * a).sum();
    c.reduce_sum(local)
}

/// A single-rank world: any whole-plan [`SpmvOperator`] plus identity
/// reductions. This is how the global backends plug into the solver
/// cores — `Solo(backend.build(&plan, width))` is a complete solver
/// substrate.
pub struct Solo<O>(pub O);

impl<O: SpmvOperator> SpmvOperator for Solo<O> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }

    fn ncols(&self) -> usize {
        self.0.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y)
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.0.apply_batch(x, y, r)
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        self.0.apply_batch_iters(x, y, r, iters)
    }

    fn deterministic(&self) -> bool {
        self.0.deterministic()
    }

    fn worker_loads(&self) -> Option<Vec<Vec<u64>>> {
        self.0.worker_loads()
    }
}

impl<O> Reduce for Solo<O> {
    fn reduce_sum(&mut self, local: f64) -> f64 {
        local
    }

    fn reduce_sum_vec(&mut self, locals: Vec<f64>) -> Vec<f64> {
        locals
    }
}

/// `y += alpha · x`, purely local.
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `v *= alpha`, purely local.
pub(crate) fn scale(alpha: f64, v: &mut [f64]) {
    for vi in v.iter_mut() {
        *vi *= alpha;
    }
}
