//! Power iteration and PageRank.
//!
//! Power iteration finds the dominant eigenpair of `A` by repeated
//! normalized SpMV — the kernel at the heart of spectral methods and of
//! the scale-free-graph workloads (\[12\], \[19\], \[20\] in the paper) that
//! motivate bounded-latency partitionings. PageRank specializes it to
//! the damped column-stochastic link matrix.

use s2d_core::partition::SpmvPartition;
use s2d_sparse::{Coo, Csr};
use s2d_spmv::{SpmvOperator, SpmvPlan};

use crate::engine::spmd_solve;
use crate::operator::{scale, Reduce, Solo};

/// Options for [`power_iteration_with`].
#[derive(Clone, Copy, Debug)]
pub struct PowerOptions {
    /// Stop when the eigenvalue estimate moves less than `tol`.
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions { tol: 1e-10, max_iters: 1000 }
    }
}

/// Result of a power iteration.
#[derive(Clone, Debug)]
pub struct PowerResult {
    /// Dominant eigenvalue estimate (Rayleigh quotient at exit).
    pub eigenvalue: f64,
    /// The corresponding unit eigenvector (global).
    pub eigenvector: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// True if the eigenvalue estimate stabilized within `tol`.
    pub converged: bool,
}

/// Runs power iteration from the uniform start vector on any square
/// [`SpmvOperator`].
///
/// # Panics
/// Panics if the operator is not square.
pub fn power_iteration_with(op: impl SpmvOperator, opts: &PowerOptions) -> PowerResult {
    let mut c = Solo(op);
    assert_eq!(c.nrows(), c.ncols(), "power iteration needs a square operator");
    let n = c.nrows();
    power_core(&mut c, n, opts)
}

/// The power-iteration body, written once against operator injection.
/// `n` is the *global* dimension (for the uniform start vector); the
/// iterate `v` (the result's `eigenvector`) is this participant's local
/// slice. The loop ping-pongs `v`/`Av` through two buffers — no
/// per-iteration allocation.
fn power_core<C: SpmvOperator + Reduce>(c: &mut C, n: usize, opts: &PowerOptions) -> PowerResult {
    let m = c.ncols();
    let mut v = vec![1.0 / (n as f64).sqrt(); m];
    let mut av = vec![0.0f64; m];
    let mut lambda = 0.0f64;
    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < opts.max_iters {
        c.apply(&v, &mut av);
        // Fused reductions: ⟨v, Av⟩ (Rayleigh) and ⟨Av, Av⟩ (norm).
        let vav_l: f64 = v.iter().zip(&av).map(|(x, y)| x * y).sum();
        let avav_l: f64 = av.iter().map(|x| x * x).sum();
        let sums = c.reduce_sum_vec(vec![vav_l, avav_l]);
        let (rayleigh, av_norm2) = (sums[0], sums[1]);
        let av_norm = av_norm2.sqrt();
        if av_norm == 0.0 {
            // A annihilated v: no dominant direction reachable.
            break;
        }
        std::mem::swap(&mut v, &mut av);
        scale(1.0 / av_norm, &mut v);
        iterations += 1;
        if (rayleigh - lambda).abs() <= opts.tol * rayleigh.abs().max(1.0) {
            lambda = rayleigh;
            converged = true;
            break;
        }
        lambda = rayleigh;
    }
    PowerResult { eigenvalue: lambda, eigenvector: v, iterations, converged }
}

/// Options for [`pagerank`].
#[derive(Clone, Copy, Debug)]
pub struct PagerankOptions {
    /// Damping factor (the classic 0.85).
    pub damping: f64,
    /// Stop when `‖r_{t+1} − r_t‖₁ ≤ tol`.
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for PagerankOptions {
    fn default() -> Self {
        PagerankOptions { damping: 0.85, tol: 1e-12, max_iters: 200 }
    }
}

/// Result of a PageRank computation.
#[derive(Clone, Debug)]
pub struct PagerankResult {
    /// The stationary distribution (sums to 1).
    pub ranks: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// True if the L1 change reached the tolerance.
    pub converged: bool,
}

/// Builds the column-stochastic link matrix `M` of a directed adjacency
/// matrix (`a[i][j] != 0` meaning an edge `j → i` contributes to page
/// `i`'s rank): every nonzero column of `a` is scaled to sum to 1.
/// Returns `(M, dangling)` where `dangling[j]` marks all-zero columns
/// (pages with no outlinks).
pub fn to_column_stochastic(a: &Csr) -> (Csr, Vec<bool>) {
    assert_eq!(a.nrows(), a.ncols(), "link matrix must be square");
    let n = a.ncols();
    let mut col_sum = vec![0.0f64; n];
    for i in 0..n {
        for (c, v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            col_sum[*c as usize] += v.abs();
        }
    }
    let dangling: Vec<bool> = col_sum.iter().map(|&s| s == 0.0).collect();
    let mut m = Coo::with_capacity(n, n, a.nnz());
    for i in 0..n {
        for (c, v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            m.push(i, *c as usize, v.abs() / col_sum[*c as usize]);
        }
    }
    m.compress();
    (m.to_csr(), dangling)
}

/// Distributed PageRank on a column-stochastic `m` (see
/// [`to_column_stochastic`]) over the partition `p` and its `plan`: one
/// rank per part, exchanging messages over `s2d-runtime` endpoints.
/// `dangling` marks zero-outlink pages whose mass is redistributed
/// uniformly.
///
/// # Panics
/// Panics if the matrix is not square, the vector partition is not
/// symmetric, `plan` was not built from `(m, p)`, or `dangling.len()`
/// mismatches.
pub fn pagerank(
    m: &Csr,
    p: &SpmvPartition,
    plan: &SpmvPlan,
    dangling: &[bool],
    opts: &PagerankOptions,
) -> PagerankResult {
    let n = m.nrows();
    let dang = dangling_weights(dangling, n);
    let ranks: fn(&mut PagerankResult) -> &mut Vec<f64> = |r| &mut r.ranks;
    spmd_solve(m, p, plan, &[&dang], ranks, |ctx, d| pagerank_core(ctx, d[0], n, opts))
}

/// [`pagerank`] by **operator injection**: runs the same core on any
/// square [`SpmvOperator`] over the column-stochastic link matrix (see
/// [`to_column_stochastic`]), whole vectors in one participant.
///
/// # Panics
/// Panics if the operator is not square or `dangling.len()` mismatches.
pub fn pagerank_with(
    op: impl SpmvOperator,
    dangling: &[bool],
    opts: &PagerankOptions,
) -> PagerankResult {
    let mut c = Solo(op);
    assert_eq!(c.nrows(), c.ncols(), "PageRank needs a square operator");
    let n = c.nrows();
    pagerank_core(&mut c, &dangling_weights(dangling, n), n, opts)
}

/// The dangling mask as 0/1 weights.
fn dangling_weights(dangling: &[bool], n: usize) -> Vec<f64> {
    assert_eq!(dangling.len(), n, "dangling mask length mismatch");
    dangling.iter().map(|&d| if d { 1.0 } else { 0.0 }).collect()
}

/// The PageRank body, written once against operator injection. `dang`
/// is this participant's slice of the dangling mask as 0/1 weights; `n`
/// the global page count; the result's `ranks` are this participant's
/// slice. `M·r` and the next iterate ping-pong through preallocated
/// buffers.
fn pagerank_core<C: SpmvOperator + Reduce>(
    c: &mut C,
    dang: &[f64],
    n: usize,
    opts: &PagerankOptions,
) -> PagerankResult {
    let ml = c.ncols();
    let mut r = vec![1.0 / n as f64; ml];
    let mut r_new = vec![0.0f64; ml];
    let mut mr = vec![0.0f64; ml];
    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < opts.max_iters {
        // Dangling mass this round (global).
        let dm_local: f64 = r.iter().zip(dang).map(|(ri, di)| ri * di).sum();
        c.apply(&r, &mut mr);
        let mut l1_local = 0.0f64;
        // Defer the dangling term: it needs the global sum.
        let dm = c.reduce_sum(dm_local);
        let teleport = (1.0 - opts.damping) / n as f64 + opts.damping * dm / n as f64;
        for i in 0..ml {
            r_new[i] = opts.damping * mr[i] + teleport;
            l1_local += (r_new[i] - r[i]).abs();
        }
        let l1 = c.reduce_sum(l1_local);
        std::mem::swap(&mut r, &mut r_new);
        iterations += 1;
        if l1 <= opts.tol {
            converged = true;
            break;
        }
    }
    PagerankResult { ranks: r, iterations, converged }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_rowwise(a: &Csr, k: usize) -> SpmvPartition {
        let n = a.nrows();
        let per = n.div_ceil(k);
        let part: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
        SpmvPartition::rowwise(a, part.clone(), part, k)
    }

    /// The power-iteration core on `k` SPMD ranks over a block-row
    /// partition.
    fn power_spmd(a: &Csr, k: usize, opts: &PowerOptions) -> PowerResult {
        let p = block_rowwise(a, k);
        let plan = SpmvPlan::single_phase(a, &p);
        let n = a.nrows();
        let v: fn(&mut PowerResult) -> &mut Vec<f64> = |r| &mut r.eigenvector;
        spmd_solve(a, &p, &plan, &[], v, |ctx, _| power_core(ctx, n, opts))
    }

    #[test]
    fn power_iteration_finds_dominant_eigenvalue() {
        // Diagonal matrix: dominant eigenvalue is the largest entry.
        let n = 12;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 1.0 + i as f64);
        }
        m.compress();
        let a = m.to_csr();
        let res = power_spmd(&a, 3, &PowerOptions::default());
        assert!(res.converged);
        assert!((res.eigenvalue - n as f64).abs() < 1e-6, "lambda {}", res.eigenvalue);
        // Eigenvector concentrates on the last coordinate.
        let last = res.eigenvector[n - 1].abs();
        assert!(last > 0.99, "dominant coordinate {last}");
    }

    #[test]
    fn power_iteration_on_symmetric_graph() {
        // Path graph adjacency: known dominant eigenvalue 2cos(π/(n+1)).
        let n = 16;
        let mut m = Coo::new(n, n);
        for i in 0..n - 1 {
            m.push(i, i + 1, 1.0);
            m.push(i + 1, i, 1.0);
        }
        m.compress();
        let a = m.to_csr();
        let res = power_spmd(&a, 4, &PowerOptions { tol: 1e-12, max_iters: 5000 });
        let expect = 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        assert!((res.eigenvalue - expect).abs() < 1e-6, "{} vs {expect}", res.eigenvalue);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs_higher() {
        // Star: every page links to page 0.
        let n = 10;
        let mut adj = Coo::new(n, n);
        for j in 1..n {
            adj.push(0, j, 1.0); // edge j -> 0
        }
        adj.compress();
        let a = adj.to_csr();
        let (m, dangling) = to_column_stochastic(&a);
        assert!(dangling[0]); // page 0 has no outlinks
        let p = block_rowwise(&m, 2);
        let plan = SpmvPlan::single_phase(&m, &p);
        let res = pagerank(&m, &p, &plan, &dangling, &PagerankOptions::default());
        assert!(res.converged);
        let total: f64 = res.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        for j in 1..n {
            assert!(res.ranks[0] > res.ranks[j], "hub must outrank leaves");
        }
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        // A directed cycle is symmetric under rotation: uniform ranks.
        let n = 8;
        let mut adj = Coo::new(n, n);
        for j in 0..n {
            adj.push((j + 1) % n, j, 1.0);
        }
        adj.compress();
        let a = adj.to_csr();
        let (m, dangling) = to_column_stochastic(&a);
        assert!(dangling.iter().all(|&d| !d));
        let p = block_rowwise(&m, 4);
        let plan = SpmvPlan::single_phase(&m, &p);
        let res = pagerank(&m, &p, &plan, &dangling, &PagerankOptions::default());
        for r in &res.ranks {
            assert!((r - 1.0 / n as f64).abs() < 1e-9, "uniform expected, got {r}");
        }
    }

    #[test]
    fn a_plan_from_another_partition_fails_instead_of_hanging() {
        // The plan gives rank 1 an entry `p` gives rank 0, so only rank
        // 1 panics while rank 0 waits for its message. The watchdog turns
        // a hang into a failure instead of a stuck test binary.
        let n = 8;
        let mut adj = Coo::new(n, n);
        for j in 0..n {
            adj.push((j + 1) % n, j, 1.0);
        }
        adj.compress();
        let (m, dangling) = to_column_stochastic(&adj.to_csr());
        let split = |first: usize| (0..n).map(|i| u32::from(i >= first)).collect::<Vec<u32>>();
        let p = SpmvPartition::rowwise(&m, split(4), split(4), 2);
        let plan = SpmvPlan::single_phase(&m, &SpmvPartition::rowwise(&m, split(3), split(3), 2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                pagerank(&m, &p, &plan, &dangling, &PagerankOptions::default())
            });
            let _ = done_tx.send(run.map_err(|e| e.downcast_ref::<String>().cloned()));
        });
        let run = done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("SPMD PageRank still waiting 5 s after a rank panicked");
        runner.join().expect("the runner catches the panic");
        let msg = run.expect_err("a mismatched plan must fail").unwrap_or_default();
        assert!(msg.contains("local entry must be owned"), "{msg}");
    }

    #[test]
    fn column_stochastic_columns_sum_to_one() {
        let mut adj = Coo::new(4, 4);
        adj.push(0, 1, 2.0);
        adj.push(2, 1, 6.0);
        adj.push(3, 0, 1.0);
        adj.compress();
        let (m, dangling) = to_column_stochastic(&adj.to_csr());
        assert_eq!(dangling, vec![false, false, true, true]);
        let csc = m.to_csc();
        for j in 0..2 {
            let s: f64 = csc.col_vals(j).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "col {j} sums to {s}");
        }
    }
}
