//! Distributed conjugate gradients — the workload partition quality
//! exists for: one partition, one plan, hundreds of SpMVs plus dot
//! products.
//!
//! Solves a 2D Poisson problem with the `s2d-solver` CG on top of the
//! fused single-phase s2D plan, first with the plan's ranks exchanging
//! messages over the runtime endpoints (`Backend::Threaded`, one OS
//! thread per rank), and shows the per-iteration communication bill the
//! partition bought us.
//!
//! ```text
//! cargo run --release --example cg_solver
//! ```

use s2d::baselines::partition_1d_rowwise;
use s2d::core::heuristic::{s2d_from_vector_partition, HeuristicConfig};
use s2d::solver::{cg_solve_with, CgOptions};
use s2d::sparse::{Coo, Csr};
use s2d::spmv::SpmvPlan;
use s2d::{Backend, Session};

/// 5-point Laplacian on an `s × s` grid.
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

fn main() {
    let s = 64;
    let a = laplacian2d(s);
    println!("Poisson {s}x{s}: n = {}, nnz = {}", a.nrows(), a.nnz());

    let k = 8;
    let oned = partition_1d_rowwise(&a, k, 0.03, 1);
    let s2d =
        s2d_from_vector_partition(&a, &oned.row_part, &oned.col_part, &HeuristicConfig::default());
    let plan = SpmvPlan::single_phase(&a, &s2d);
    let stats = plan.comm_stats();
    println!(
        "partition: K = {k}, LI {:.1}%, {} words / {} messages per SpMV",
        s2d.load_imbalance() * 100.0,
        stats.total_volume,
        stats.total_messages
    );

    // Manufactured solution: x* = sin profile, b = A x*.
    let x_star: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let b = a.spmv_alloc(&x_star);

    let opts = CgOptions { tol: 1e-10, max_iters: 2000 };
    let mut distributed = Session::builder(&a).partition(&s2d).backend(Backend::Threaded).build();
    let res = cg_solve_with(&mut distributed, &b, &opts);
    println!(
        "CG: {} iterations, converged = {}, relative residual {:.2e}",
        res.iterations, res.converged, res.relative_residual
    );
    let err = res.x.iter().zip(&x_star).map(|(g, w)| (g - w).abs()).fold(0.0f64, f64::max);
    println!("max |x - x*| = {err:.2e}");
    println!(
        "communication bill for the whole solve: {} words in {} messages",
        stats.total_volume * res.iterations as u64,
        stats.total_messages * res.iterations as u64
    );
    assert!(res.converged && err < 1e-6);

    // The same solver by operator injection: every backend runs the
    // identical CG core through a Session-built operator.
    println!("\nCG by operator injection, every backend:");
    for backend in Backend::all() {
        let mut session = Session::builder(&a).partition(&s2d).backend(backend).build();
        let t = std::time::Instant::now();
        let inj = cg_solve_with(&mut session, &b, &opts);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {backend:<14} {} iterations, residual {:.2e}, {ms:.1} ms",
            inj.iterations, inj.relative_residual
        );
        assert!(inj.converged, "{backend}: CG must converge");
    }
}
