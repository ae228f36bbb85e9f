//! Jacobi iteration.
//!
//! `x_{t+1} = D⁻¹ (b − R x_t)` with `A = D + R`. Converges for strictly
//! diagonally dominant systems; one SpMV and one scalar allreduce (the
//! convergence check) per sweep. Jacobi is the stationary-iteration
//! counterpart to CG in the solver suite: simpler, slower, and its
//! per-iteration cost is *exactly* one SpMV — which makes it the cleanest
//! demonstration of why SpMV partition quality dominates solver runtime.

use s2d_sparse::Csr;
use s2d_spmv::SpmvOperator;

use crate::operator::{Reduce, Solo};

/// Options for [`jacobi_solve_with`].
#[derive(Clone, Copy, Debug)]
pub struct JacobiOptions {
    /// Stop when `‖x_{t+1} − x_t‖ ≤ tol`.
    pub tol: f64,
    /// Hard sweep cap.
    pub max_iters: usize,
}

impl Default for JacobiOptions {
    fn default() -> Self {
        JacobiOptions { tol: 1e-10, max_iters: 1000 }
    }
}

/// Result of a Jacobi solve.
#[derive(Clone, Debug)]
pub struct JacobiResult {
    /// The assembled global solution.
    pub x: Vec<f64>,
    /// Sweeps performed.
    pub iterations: usize,
    /// `‖x_{t+1} − x_t‖` after the final sweep.
    pub last_update_norm: f64,
    /// True if the update norm reached the tolerance.
    pub converged: bool,
}

/// Solves `A x = b` by Jacobi sweeps on any [`SpmvOperator`]. `diag`
/// is the matrix diagonal (global, `op.nrows()` entries — extract it
/// with [`diagonal_of`] when the matrix is at hand).
///
/// # Panics
/// Panics if the operator is not square, a diagonal entry is zero, or
/// the lengths mismatch.
pub fn jacobi_solve_with(
    op: impl SpmvOperator,
    diag: &[f64],
    b: &[f64],
    opts: &JacobiOptions,
) -> JacobiResult {
    let mut c = Solo(op);
    assert_eq!(c.nrows(), c.ncols(), "Jacobi needs a square operator");
    assert_eq!(b.len(), c.nrows(), "right-hand side length mismatch");
    assert_eq!(diag.len(), c.nrows(), "diagonal length mismatch");
    jacobi_core(&mut c, b, diag, opts)
}

/// Extracts the matrix diagonal, rejecting zero entries (Jacobi's
/// `D⁻¹` needs them all nonzero).
///
/// # Panics
/// Panics on a zero diagonal entry.
pub fn diagonal_of(a: &Csr) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| {
            let d = a
                .row_cols(i)
                .iter()
                .zip(a.row_vals(i))
                .find(|(&j, _)| j as usize == i)
                .map(|(_, &v)| v)
                .unwrap_or(0.0);
            assert!(d != 0.0, "Jacobi requires a nonzero diagonal (row {i})");
            d
        })
        .collect()
}

/// The Jacobi sweep body, written once against operator injection.
/// The loop is allocation-free: `Ax` and the next iterate ping-pong
/// through buffers allocated once up front. The result's `x` is this
/// participant's slice of the iterate.
fn jacobi_core<C: SpmvOperator + Reduce>(
    c: &mut C,
    b_local: &[f64],
    d_local: &[f64],
    opts: &JacobiOptions,
) -> JacobiResult {
    let m = b_local.len();
    let mut x = vec![0.0f64; m];
    let mut x_new = vec![0.0f64; m];
    let mut ax = vec![0.0f64; m];
    let mut iterations = 0usize;
    let mut update = f64::INFINITY;
    while iterations < opts.max_iters {
        // Ax includes the diagonal: R x = A x − D x.
        c.apply(&x, &mut ax);
        let mut delta2 = 0.0f64;
        for i in 0..m {
            let rx = ax[i] - d_local[i] * x[i];
            x_new[i] = (b_local[i] - rx) / d_local[i];
            let d = x_new[i] - x[i];
            delta2 += d * d;
        }
        update = c.reduce_sum(delta2).sqrt();
        std::mem::swap(&mut x, &mut x_new);
        iterations += 1;
        if update <= opts.tol {
            break;
        }
    }
    JacobiResult { x, iterations, last_update_norm: update, converged: update <= opts.tol }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::spmd_solve;
    use s2d_core::partition::SpmvPartition;
    use s2d_sparse::Coo;
    use s2d_spmv::SpmvPlan;

    /// Strictly diagonally dominant test system.
    fn dominant(n: usize) -> Csr {
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 5.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -2.0);
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

    /// The Jacobi core on `k` SPMD ranks over a block-row partition.
    fn jacobi_spmd(a: &Csr, k: usize, b: &[f64], opts: &JacobiOptions) -> JacobiResult {
        let p = block_rowwise(a, k);
        let plan = SpmvPlan::single_phase(a, &p);
        let diag = diagonal_of(a);
        let inputs: [&[f64]; 2] = [b, &diag];
        spmd_solve(
            a,
            &p,
            &plan,
            &inputs,
            |r: &mut JacobiResult| &mut r.x,
            |ctx, v| jacobi_core(ctx, v[0], v[1], opts),
        )
    }

    #[test]
    fn converges_on_dominant_system() {
        let a = dominant(36);
        let x_star: Vec<f64> = (0..36).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.spmv_alloc(&x_star);
        let res = jacobi_spmd(&a, 4, &b, &JacobiOptions::default());
        assert!(res.converged, "Jacobi must converge (update {})", res.last_update_norm);
        for (g, w) in res.x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-7, "{g} vs {w}");
        }
    }

    #[test]
    fn respects_iteration_cap() {
        let a = dominant(20);
        let res = jacobi_spmd(&a, 2, &vec![1.0; 20], &JacobiOptions { tol: 0.0, max_iters: 5 });
        assert_eq!(res.iterations, 5);
        assert!(!res.converged);
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn zero_diagonal_is_rejected() {
        let a = Coo::from_pattern(3, 3, &[(0, 0), (1, 2), (2, 1)]).to_csr();
        let _ = jacobi_spmd(&a, 1, &[1.0, 1.0, 1.0], &JacobiOptions::default());
    }

    #[test]
    fn matches_cg_on_spd_dominant_system() {
        // Symmetrize: A = 5I - tridiag(1): SPD and dominant, so both
        // solvers apply and must agree.
        let n = 25;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 5.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        m.compress();
        let a = m.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xj = jacobi_spmd(&a, 5, &b, &JacobiOptions::default());
        let plan = std::sync::Arc::new(SpmvPlan::single_phase(&a, &block_rowwise(&a, 5)));
        let mailbox = s2d_spmv::MailboxOperator::new(plan);
        let xc = crate::cg_solve_with(mailbox, &b, &crate::CgOptions::default());
        assert!(xj.converged && xc.converged);
        for (u, v) in xj.x.iter().zip(&xc.x) {
            assert!((u - v).abs() < 1e-6, "jacobi {u} vs cg {v}");
        }
    }
}
