//! Every solver × every backend, via operator injection.
//!
//! The acceptance property of the `SpmvOperator` redesign: the five
//! solvers (`cg`, `jacobi`, `power`, `pagerank`, `block_power`) run
//! unchanged on each of the four execution backends
//! (`s2d_engine::Backend::all()`) through their `*_with` entry points,
//! and the SPMD `pagerank` agrees with them on the same problem.

use std::sync::Arc;

use s2d_core::partition::SpmvPartition;
use s2d_engine::{Backend, CompiledPlan};
use s2d_solver::{
    block_power_iteration_with, cg_solve_with, diagonal_of, jacobi_solve_with, pagerank,
    pagerank_with, power_iteration_with, to_column_stochastic, BlockPowerOptions, CgOptions,
    JacobiOptions, PagerankOptions, PowerOptions,
};
use s2d_sparse::{Coo, Csr};
use s2d_spmv::{PlanKind, SpmvOperator, SpmvPlan};

/// 2D 5-point Laplacian on an `s × s` grid (SPD, nonzero diagonal).
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

/// Compiles `plan` (default kernels) and builds `backend` over it.
fn build(backend: Backend, plan: &Arc<SpmvPlan>, width: usize) -> Box<dyn SpmvOperator + Send> {
    backend.build(plan, &Arc::new(CompiledPlan::compile(plan)), width, None)
}

fn single_phase_arc(a: &Csr, k: usize) -> Arc<SpmvPlan> {
    Arc::new(SpmvPlan::single_phase(a, &block_rowwise(a, k)))
}

#[test]
fn cg_solves_on_every_backend() {
    let a = laplacian2d(8);
    let plan = single_phase_arc(&a, 4);
    let n = a.nrows();
    let x_star: Vec<f64> = (1..=n).map(|i| i as f64 / n as f64).collect();
    let b = a.spmv_alloc(&x_star);
    for backend in Backend::all() {
        let op = build(backend, &plan, 1);
        let res = cg_solve_with(op, &b, &CgOptions::default());
        assert!(res.converged, "{backend}: CG must converge");
        for (g, w) in res.x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-7, "{backend}: {g} vs {w}");
        }
    }
}

#[test]
fn jacobi_solves_on_every_backend() {
    // Strictly diagonally dominant system.
    let n = 36;
    let mut m = Coo::new(n, n);
    for i in 0..n {
        m.push(i, i, 5.0);
        if i + 1 < n {
            m.push(i, i + 1, -1.0);
            m.push(i + 1, i, -2.0);
        }
    }
    m.compress();
    let a = m.to_csr();
    let x_star: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
    let b = a.spmv_alloc(&x_star);
    let diag = diagonal_of(&a);
    let plan = single_phase_arc(&a, 4);
    for backend in Backend::all() {
        let op = build(backend, &plan, 1);
        let res = jacobi_solve_with(op, &diag, &b, &JacobiOptions::default());
        assert!(res.converged, "{backend}: Jacobi must converge");
        for (g, w) in res.x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-7, "{backend}: {g} vs {w}");
        }
    }
}

#[test]
fn power_iteration_finds_dominant_eigenpair_on_every_backend() {
    let n = 12;
    let mut m = Coo::new(n, n);
    for i in 0..n {
        m.push(i, i, 1.0 + i as f64);
    }
    m.compress();
    let a = m.to_csr();
    let plan = single_phase_arc(&a, 3);
    for backend in Backend::all() {
        let op = build(backend, &plan, 1);
        let res = power_iteration_with(op, &PowerOptions::default());
        assert!(res.converged, "{backend}");
        assert!((res.eigenvalue - n as f64).abs() < 1e-6, "{backend}: lambda {}", res.eigenvalue);
        assert!(res.eigenvector[n - 1].abs() > 0.99, "{backend}: dominant coordinate");
    }
}

#[test]
fn pagerank_on_every_backend() {
    // Star: every page links to page 0; page 0 itself dangles.
    let n = 10;
    let mut adj = Coo::new(n, n);
    for j in 1..n {
        adj.push(0, j, 1.0);
    }
    adj.compress();
    let (m, dangling) = to_column_stochastic(&adj.to_csr());
    let plan = single_phase_arc(&m, 2);
    for backend in Backend::all() {
        let op = build(backend, &plan, 1);
        let res = pagerank_with(op, &dangling, &PagerankOptions::default());
        assert!(res.converged, "{backend}");
        let total: f64 = res.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{backend}: mass {total}");
        for j in 1..n {
            assert!(res.ranks[0] > res.ranks[j], "{backend}: hub must outrank leaves");
        }
    }
}

#[test]
fn spmd_pagerank_matches_the_injected_solve_on_every_backend() {
    // An irregular link graph: two outlinks per page, every fifth page
    // dangling, so the teleport and dangling terms both carry mass.
    let n = 60;
    let mut adj = Coo::new(n, n);
    for j in (0..n).filter(|j| j % 5 != 0) {
        adj.push((j * 7 + 3) % n, j, 1.0);
        adj.push((j * j + 1) % n, j, 1.0);
    }
    adj.compress();
    let (m, dangling) = to_column_stochastic(&adj.to_csr());
    let p = block_rowwise(&m, 4);
    let opts = PagerankOptions::default();
    for kind in PlanKind::all() {
        let plan = Arc::new(kind.build(&m, &p));
        let spmd = pagerank(&m, &p, &plan, &dangling, &opts);
        assert!(spmd.converged, "{kind}: SPMD PageRank must converge");
        for backend in Backend::all() {
            let with = pagerank_with(build(backend, &plan, 1), &dangling, &opts);
            assert!(with.iterations.abs_diff(spmd.iterations) <= 1, "{kind}/{backend}");
            for (u, v) in spmd.ranks.iter().zip(&with.ranks) {
                assert!((u - v).abs() <= 1e-9, "{kind}/{backend}: {u} vs {v}");
            }
        }
    }
}

#[test]
fn block_power_finds_top_r_on_every_backend() {
    let n = 12;
    let r = 3;
    let mut m = Coo::new(n, n);
    for i in 0..n {
        m.push(i, i, 1.0 + i as f64);
    }
    m.compress();
    let a = m.to_csr();
    let plan = single_phase_arc(&a, 3);
    for backend in Backend::all() {
        // Width r up front: the batched path carries the whole block.
        let op = build(backend, &plan, r);
        let res = block_power_iteration_with(op, r, &BlockPowerOptions::default());
        assert!(res.converged, "{backend}");
        for (q, want) in [(0usize, 12.0f64), (1, 11.0), (2, 10.0)] {
            assert!(
                (res.eigenvalues[q] - want).abs() < 1e-6,
                "{backend}: lambda[{q}] = {} want {want}",
                res.eigenvalues[q]
            );
        }
    }
}

#[test]
fn session_style_reuse_one_operator_many_solves() {
    // One operator, used mutably across several solver runs — the
    // amortized-session usage pattern (setup cost paid once).
    let a = laplacian2d(6);
    let plan = single_phase_arc(&a, 3);
    let mut op = build(Backend::CompiledSeq, &plan, 1);
    let b = vec![1.0; a.nrows()];
    let first = cg_solve_with(&mut op, &b, &CgOptions::default());
    let second = cg_solve_with(&mut op, &b, &CgOptions::default());
    assert!(first.converged && second.converged);
    assert_eq!(first.x, second.x, "reused operator must be bitwise reproducible");
    let diag = diagonal_of(&a);
    let jac = jacobi_solve_with(&mut op, &diag, &b, &JacobiOptions::default());
    assert!(jac.converged);
    for (u, v) in jac.x.iter().zip(&first.x) {
        assert!((u - v).abs() < 1e-6, "jacobi {u} vs cg {v}");
    }
}

#[test]
fn injected_solvers_work_on_every_plan_kind() {
    let a = laplacian2d(5);
    let p = block_rowwise(&a, 4);
    let n = a.nrows();
    let x_star: Vec<f64> = (1..=n).map(|i| (i as f64).sin()).collect();
    let b = a.spmv_alloc(&x_star);
    for kind in PlanKind::all() {
        let plan = Arc::new(kind.build(&a, &p));
        for backend in Backend::all() {
            let op = build(backend, &plan, 1);
            assert_eq!((op.nrows(), op.ncols()), (n, n));
            let res = cg_solve_with(op, &b, &CgOptions::default());
            assert!(res.converged, "{kind}/{backend}");
            for (g, w) in res.x.iter().zip(&x_star) {
                assert!((g - w).abs() < 1e-6, "{kind}/{backend}: {g} vs {w}");
            }
        }
    }
}
