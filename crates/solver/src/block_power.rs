//! Block power iteration (subspace / orthogonal iteration).
//!
//! Classic power iteration tracks one dominant eigenvector; block power
//! iteration tracks an `r`-dimensional dominant invariant subspace by
//! repeatedly applying `A` to an orthonormal block `V ∈ ℝ^{n×r}` and
//! re-orthonormalizing. It is the canonical consumer of **batched**
//! SpMV (`SpmvOperator::apply_batch`): every iteration multiplies the
//! same matrix against `r` vectors at once, so each fetched matrix entry
//! is reused `r` times and every communication phase ships one `len × r`
//! block instead of `r` separate messages.
//!
//! Blocks are stored row-major, `len × r` (entry `i`, column `q` at
//! `v[i*r + q]`), matching the batched engine layout end to end — no
//! transposes anywhere in the loop.

use s2d_spmv::SpmvOperator;

use crate::operator::{Reduce, Solo};

/// Options for [`block_power_iteration_with`].
#[derive(Clone, Copy, Debug)]
pub struct BlockPowerOptions {
    /// Stop when every Ritz-value estimate moves less than `tol`
    /// (relative to its magnitude).
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for BlockPowerOptions {
    fn default() -> Self {
        BlockPowerOptions { tol: 1e-10, max_iters: 1000 }
    }
}

/// Result of a block power iteration.
#[derive(Clone, Debug)]
pub struct BlockPowerResult {
    /// Ritz-value estimates `⟨v_q, A v_q⟩`, ordered by dominance
    /// (column 0 converges to the dominant eigenvalue).
    pub eigenvalues: Vec<f64>,
    /// The corresponding orthonormal basis, one global vector per
    /// column.
    pub eigenvectors: Vec<Vec<f64>>,
    /// Iterations performed.
    pub iterations: usize,
    /// True if every Ritz value stabilized within `tol`.
    pub converged: bool,
}

/// Local dot of two columns of row-major `m × r` blocks.
fn col_dot(u: &[f64], v: &[f64], r: usize, cu: usize, cv: usize) -> f64 {
    let m = u.len() / r;
    (0..m).map(|i| u[i * r + cu] * v[i * r + cv]).sum()
}

/// Runs block power iteration for the `r` most dominant eigenpairs of
/// any square [`SpmvOperator`] (the batched `apply_batch` path carries
/// the block), starting from a deterministic full-rank block.
///
/// Each iteration: one batched SpMV (`W = A·V`), one fused `r`-wide
/// reduction for the Ritz values, then a classical Gram-Schmidt
/// re-orthonormalization of `W` (per column: one fused reduction for
/// all projections, one for the norm).
///
/// # Panics
/// Panics if the operator is not square or `r` is 0 or exceeds the
/// dimension.
pub fn block_power_iteration_with(
    op: impl SpmvOperator,
    r: usize,
    opts: &BlockPowerOptions,
) -> BlockPowerResult {
    let mut c = Solo(op);
    assert_eq!(c.nrows(), c.ncols(), "block power iteration needs a square operator");
    let n = c.nrows();
    assert!(r >= 1 && r <= n, "block width must be in 1..=n");
    let v0 = start_block(n, r);
    let (v, lambda, iterations, converged) = block_power_core(&mut c, v0, r, opts);
    let eigenvectors = (0..r).map(|q| (0..n).map(|i| v[i * r + q]).collect()).collect();
    BlockPowerResult { eigenvalues: lambda, eigenvectors, iterations, converged }
}

/// Deterministic full-rank `n × r` start block: column `q` mixes a
/// shifted hash of the row index.
fn start_block(n: usize, r: usize) -> Vec<f64> {
    let mut v = vec![0.0f64; n * r];
    for g in 0..n {
        for q in 0..r {
            let h = (g as u64).wrapping_mul(2654435761).wrapping_add(q as u64 * 40503);
            v[g * r + q] = (h % 1009) as f64 / 1009.0 + 0.1;
        }
    }
    v
}

/// The subspace-iteration body, written once against operator
/// injection: one batched multiply, one fused Ritz reduction and one
/// Gram-Schmidt pass per iteration, ping-ponging `V`/`W = A·V` through
/// two preallocated blocks.
fn block_power_core<C: SpmvOperator + Reduce>(
    c: &mut C,
    mut v: Vec<f64>,
    r: usize,
    opts: &BlockPowerOptions,
) -> (Vec<f64>, Vec<f64>, usize, bool) {
    orthonormalize(c, &mut v, r);
    let mut w = vec![0.0f64; v.len()];
    let mut lambda = vec![0.0f64; r];
    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < opts.max_iters {
        c.apply_batch(&v, &mut w, r);
        // Ritz values: diag(Vᵀ A V) in one fused reduction.
        let locals: Vec<f64> = (0..r).map(|q| col_dot(&v, &w, r, q, q)).collect();
        let ritz = c.reduce_sum_vec(locals);
        let degenerate = !orthonormalize(c, &mut w, r);
        std::mem::swap(&mut v, &mut w);
        iterations += 1;
        let settled = ritz
            .iter()
            .zip(&lambda)
            .all(|(new, old)| (new - old).abs() <= opts.tol * new.abs().max(1.0));
        lambda = ritz;
        if degenerate {
            // A annihilated part of the block: the reachable
            // subspace has lower dimension; stop.
            break;
        }
        if settled {
            converged = true;
            break;
        }
    }
    (v, lambda, iterations, converged)
}

/// Classical Gram-Schmidt over the columns of a row-major `len × r`
/// block: after the call the columns are orthonormal (across all
/// participants). Returns `false` if a column's norm collapsed —
/// that column is left zero and the basis is rank-deficient.
fn orthonormalize<C: Reduce + ?Sized>(c: &mut C, v: &mut [f64], r: usize) -> bool {
    let m = v.len() / r;
    let mut full_rank = true;
    for q in 0..r {
        if q > 0 {
            // All projections ⟨v_q, v_j⟩ for j < q in one reduction.
            let locals: Vec<f64> = (0..q).map(|j| col_dot(v, v, r, q, j)).collect();
            let projs = c.reduce_sum_vec(locals);
            for i in 0..m {
                let mut acc = v[i * r + q];
                for (j, proj) in projs.iter().enumerate() {
                    acc -= proj * v[i * r + j];
                }
                v[i * r + q] = acc;
            }
        }
        let norm2 = c.reduce_sum(col_dot(v, v, r, q, q));
        let norm = norm2.sqrt();
        if norm <= 1e-300 {
            for i in 0..m {
                v[i * r + q] = 0.0;
            }
            full_rank = false;
            continue;
        }
        let inv = 1.0 / norm;
        for i in 0..m {
            v[i * r + q] *= inv;
        }
    }
    full_rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{power_iteration_with, PowerOptions};
    use s2d_core::partition::SpmvPartition;
    use s2d_engine::{Backend, CompiledPlan};
    use s2d_sparse::{Coo, Csr};
    use s2d_spmv::SpmvPlan;

    /// The endpoint walker (one rank per thread) over a block-row
    /// partition of `a` into `k` parts, at batch width `r`.
    fn threaded(a: &Csr, k: usize, r: usize) -> Box<dyn SpmvOperator + Send> {
        let n = a.nrows();
        let part: Vec<u32> = (0..n).map(|i| (i / n.div_ceil(k)) as u32).collect();
        let plan = std::sync::Arc::new(SpmvPlan::single_phase(
            a,
            &SpmvPartition::rowwise(a, part.clone(), part, k),
        ));
        Backend::Threaded.build(&plan, &std::sync::Arc::new(CompiledPlan::compile(&plan)), r, None)
    }

    #[test]
    fn finds_top_r_eigenvalues_of_a_diagonal_matrix() {
        let n = 12;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 1.0 + i as f64);
        }
        m.compress();
        let a = m.to_csr();
        let r = 3;
        let res = block_power_iteration_with(threaded(&a, 3, r), r, &BlockPowerOptions::default());
        assert!(res.converged, "diagonal matrix must converge");
        for (q, want) in [(0usize, 12.0f64), (1, 11.0), (2, 10.0)] {
            assert!(
                (res.eigenvalues[q] - want).abs() < 1e-6,
                "lambda[{q}] = {} want {want}",
                res.eigenvalues[q]
            );
            // Eigenvector q concentrates on coordinate n-1-q (sign-free).
            let v = &res.eigenvectors[q];
            assert!(v[n - 1 - q].abs() > 0.99, "|v[{q}]| peak {}", v[n - 1 - q].abs());
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 16;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, (1 + i % 7) as f64);
            if i + 1 < n {
                m.push(i, i + 1, 0.3);
                m.push(i + 1, i, 0.3);
            }
        }
        m.compress();
        let a = m.to_csr();
        let opts = BlockPowerOptions { tol: 1e-12, max_iters: 500 };
        let res = block_power_iteration_with(threaded(&a, 4, 4), 4, &opts);
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 =
                    res.eigenvectors[i].iter().zip(&res.eigenvectors[j]).map(|(x, y)| x * y).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-8, "⟨v{i}, v{j}⟩ = {dot}");
            }
        }
    }

    #[test]
    fn width_one_block_matches_classic_power_iteration() {
        let n = 12;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 1.0 + i as f64);
        }
        m.compress();
        let a = m.to_csr();
        let block =
            block_power_iteration_with(threaded(&a, 3, 1), 1, &BlockPowerOptions::default());
        let single = power_iteration_with(threaded(&a, 3, 1), &PowerOptions::default());
        assert!(block.converged && single.converged);
        assert!(
            (block.eigenvalues[0] - single.eigenvalue).abs() < 1e-6,
            "{} vs {}",
            block.eigenvalues[0],
            single.eigenvalue
        );
    }
}
