//! Conjugate gradients.
//!
//! Textbook CG for symmetric positive definite `A`. Distributed, the
//! only communication per iteration is the SpMV itself plus two scalar
//! allreduces — precisely the workload whose communication volume and
//! latency the paper's partitionings optimize.

use s2d_spmv::SpmvOperator;

use crate::operator::{axpy, dot, dot_self, Reduce, Solo};

/// Options for [`cg_solve_with`].
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Stop when `‖r‖ ≤ tol · ‖b‖`.
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { tol: 1e-10, max_iters: 500 }
    }
}

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// The assembled global solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// `‖r‖ / ‖b‖` after the last iteration.
    pub relative_residual: f64,
    /// Residual-norm history, one entry per iteration (including entry 0
    /// = initial residual).
    pub history: Vec<f64>,
    /// True if the tolerance was reached within the iteration cap.
    pub converged: bool,
}

/// Solves `A x = b` by CG on any [`SpmvOperator`] — every
/// `s2d_engine::Backend` operator, a `s2d::Session`, or a custom impl.
/// Vectors are global (`b.len() == op.nrows()`).
///
/// # Panics
/// Panics if the operator is not square or `b.len() != op.nrows()`.
pub fn cg_solve_with(op: impl SpmvOperator, b: &[f64], opts: &CgOptions) -> CgResult {
    let mut c = Solo(op);
    assert_eq!(c.nrows(), c.ncols(), "CG needs a square operator");
    assert_eq!(b.len(), c.nrows(), "right-hand side length mismatch");
    cg_core(&mut c, b, opts)
}

/// The CG body, written once against operator injection: `C` supplies
/// the SpMV (this participant's share of it) and the global reductions.
/// Under SPMD every rank executes identical control flow — every branch
/// depends only on globally-reduced scalars. The iteration loop is
/// allocation-free: `Ap` lives in a buffer allocated once up front.
/// The result's `x` is this participant's slice of the iterate.
fn cg_core<C: SpmvOperator + Reduce>(c: &mut C, b_local: &[f64], opts: &CgOptions) -> CgResult {
    let m = b_local.len();
    let mut x = vec![0.0f64; m];
    let mut r = b_local.to_vec();
    let mut pdir = r.clone();
    let mut ap = vec![0.0f64; m];
    let mut rr = dot_self(c, &r);
    let b_norm = dot_self(c, b_local).sqrt().max(f64::MIN_POSITIVE);
    let mut history = vec![rr.sqrt() / b_norm];
    let mut converged = rr.sqrt() <= opts.tol * b_norm;
    let mut iterations = 0usize;

    while !converged && iterations < opts.max_iters {
        c.apply(&pdir, &mut ap);
        let pap = dot(c, &pdir, &ap);
        if pap <= 0.0 {
            // Not SPD (or breakdown): stop with the current iterate.
            break;
        }
        let alpha = rr / pap;
        axpy(alpha, &pdir, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rr_new = dot_self(c, &r);
        let beta = rr_new / rr;
        for (pd, ri) in pdir.iter_mut().zip(&r) {
            *pd = ri + beta * *pd;
        }
        rr = rr_new;
        iterations += 1;
        history.push(rr.sqrt() / b_norm);
        converged = rr.sqrt() <= opts.tol * b_norm;
    }

    CgResult { x, iterations, relative_residual: rr.sqrt() / b_norm, history, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::spmd_solve;
    use s2d_core::partition::SpmvPartition;
    use s2d_sparse::{Coo, Csr};
    use s2d_spmv::SpmvPlan;
    use std::sync::Arc;

    /// 2D 5-point Laplacian on an `s × s` grid (SPD).
    fn laplacian2d(s: usize) -> Csr {
        let n = s * s;
        let mut m = Coo::new(n, n);
        let id = |r: usize, c: usize| r * s + c;
        for r in 0..s {
            for c in 0..s {
                m.push(id(r, c), id(r, c), 4.0);
                if r + 1 < s {
                    m.push(id(r, c), id(r + 1, c), -1.0);
                    m.push(id(r + 1, c), id(r, c), -1.0);
                }
                if c + 1 < s {
                    m.push(id(r, c), id(r, c + 1), -1.0);
                    m.push(id(r, c + 1), id(r, c), -1.0);
                }
            }
        }
        m.compress();
        m.to_csr()
    }

    fn block_rowwise(a: &Csr, k: usize) -> SpmvPartition {
        let n = a.nrows();
        let per = n.div_ceil(k);
        let part: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
        SpmvPartition::rowwise(a, part.clone(), part, k)
    }

    /// The CG core on `k` SPMD ranks over a block-row partition of `a`.
    fn cg_spmd(a: &Csr, k: usize, b: &[f64], opts: &CgOptions) -> CgResult {
        let p = block_rowwise(a, k);
        let plan = SpmvPlan::single_phase(a, &p);
        spmd_solve(
            a,
            &p,
            &plan,
            &[b],
            |r: &mut CgResult| &mut r.x,
            |ctx, b| cg_core(ctx, b[0], opts),
        )
    }

    #[test]
    fn solves_laplacian_to_tolerance() {
        let a = laplacian2d(8);
        // Manufactured solution: x* = (1, 2, ..., n)/n, b = A x*.
        let n = a.nrows();
        let x_star: Vec<f64> = (1..=n).map(|i| i as f64 / n as f64).collect();
        let b = a.spmv_alloc(&x_star);
        let res = cg_spmd(&a, 4, &b, &CgOptions::default());
        assert!(res.converged, "CG must converge on SPD Laplacian");
        for (g, w) in res.x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-7, "{g} vs {w}");
        }
        // Residual really is small w.r.t. the serial matrix.
        let ax = a.spmv_alloc(&res.x);
        let rnorm: f64 = ax.iter().zip(&b).map(|(u, v)| (u - v) * (u - v)).sum::<f64>().sqrt();
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rnorm <= 1e-8 * bnorm, "residual {rnorm} vs {bnorm}");
    }

    #[test]
    fn history_is_monotone_enough_and_reported() {
        let a = laplacian2d(6);
        let b = vec![1.0; a.nrows()];
        let res = cg_spmd(&a, 3, &b, &CgOptions::default());
        assert!(res.converged);
        assert_eq!(res.history.len(), res.iterations + 1);
        assert!(res.history[0] > res.relative_residual);
        // CG on SPD converges within n iterations in exact arithmetic.
        assert!(res.iterations <= a.nrows());
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian2d(4);
        let res = cg_spmd(&a, 2, &vec![0.0; a.nrows()], &CgOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = laplacian2d(10);
        let b = vec![1.0; a.nrows()];
        let res = cg_spmd(&a, 4, &b, &CgOptions { tol: 1e-14, max_iters: 3 });
        assert!(!res.converged);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn non_spd_matrix_breaks_down_gracefully() {
        // A negative-definite diagonal makes p'Ap < 0 on the first step.
        let mut m = Coo::new(6, 6);
        for i in 0..6 {
            m.push(i, i, -1.0);
        }
        m.compress();
        let a = m.to_csr();
        let res = cg_spmd(&a, 2, &vec![1.0; 6], &CgOptions::default());
        assert!(!res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn compiled_engine_matches_interpreted_cross_check() {
        // The acceptance gate for the compiled engine: CG end-to-end on
        // the compiled rank programs — walked over endpoints, the same
        // walker the SPMD solvers run — converges to the same residual
        // (and the same iterate, bitwise — identical accumulation
        // order) as on the interpreting mailbox oracle.
        use s2d_engine::{Backend, CompiledPlan};
        let a = laplacian2d(8);
        let p = block_rowwise(&a, 4);
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let cp = Arc::new(CompiledPlan::compile(&plan));
        let compiled =
            cg_solve_with(Backend::Threaded.build(&plan, &cp, 1, None), &b, &CgOptions::default());
        let interpreted = cg_solve_with(
            s2d_spmv::MailboxOperator::new(Arc::clone(&plan)),
            &b,
            &CgOptions::default(),
        );
        assert!(compiled.converged && interpreted.converged);
        assert_eq!(compiled.iterations, interpreted.iterations);
        assert_eq!(compiled.relative_residual, interpreted.relative_residual);
        assert_eq!(compiled.x, interpreted.x);
        // And the SPMD solve — same walker, distributed reductions —
        // reaches the same solution (reduction order differs, so to
        // tolerance).
        let spmd = cg_spmd(&a, 4, &b, &CgOptions::default());
        assert!(spmd.converged);
        for (u, v) in spmd.x.iter().zip(&interpreted.x) {
            assert!((u - v).abs() <= 1e-8 * v.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn agrees_across_different_processor_counts() {
        let a = laplacian2d(7);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut solutions = Vec::new();
        for k in [1, 2, 4, 7] {
            let res = cg_spmd(&a, k, &b, &CgOptions::default());
            assert!(res.converged, "k={k}");
            solutions.push(res.x);
        }
        for s in &solutions[1..] {
            for (u, v) in s.iter().zip(&solutions[0]) {
                assert!((u - v).abs() < 1e-6, "k-independence: {u} vs {v}");
            }
        }
    }
}
