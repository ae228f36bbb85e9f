//! Regression tests for [`ParallelEngine`] determinism and failure
//! reporting.
//!
//! The pool's schedule is fixed per rank (contiguous rank blocks, one
//! sequential walk per rank, barriers between comm halves), so its
//! results must be **bitwise** reproducible — across thread counts,
//! across repeated jobs on one engine instance, and across batch
//! widths. And when a worker dies, the engine must *say so* on the
//! control thread instead of deadlocking on a barrier.

use s2d_core::optimal::s2d_optimal;
use s2d_engine::{
    CompiledPlan, Kernel, KernelFormat, KernelIsa, ParallelEngine, PoolOptions, RankStep,
};
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_sparse::Coo;
use s2d_spmv::{SpmvOperator, SpmvPlan};

/// A mesh-routed s2D plan on a skewed matrix — the plan kind with the
/// most comm phases, i.e. the most barrier crossings per iteration.
fn mesh_setup() -> (usize, SpmvPlan) {
    let a = rmat(&RmatConfig::graph500(7, 6), 42).to_csr();
    let n = a.nrows();
    let k = 8;
    let per = n.div_ceil(k);
    let parts: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
    let p = s2d_optimal(&a, &parts, &parts, k);
    (n, SpmvPlan::mesh_default(&a, &p))
}

/// [`mesh_setup`]'s matrix with every fifth row emptied, same
/// partition and plan kind.
fn holey_mesh_setup() -> (usize, SpmvPlan) {
    let full = rmat(&RmatConfig::graph500(7, 6), 42).to_csr();
    let n = full.nrows();
    let mut m = Coo::new(n, n);
    for i in (0..n).filter(|i| i % 5 != 3) {
        for e in full.rowptr()[i]..full.rowptr()[i + 1] {
            m.push(i, full.colind()[e] as usize, full.values()[e]);
        }
    }
    m.compress();
    let a = m.to_csr();
    let k = 8;
    let per = n.div_ceil(k);
    let parts: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
    let p = s2d_optimal(&a, &parts, &parts, k);
    (n, SpmvPlan::mesh_default(&a, &p))
}

/// Pool with an explicit worker count and batch capacity
/// (`threads = 0` → default sizing).
fn pool(cp: CompiledPlan, threads: usize, width: usize) -> ParallelEngine {
    ParallelEngine::with_options(cp, PoolOptions { threads, width, ..PoolOptions::default() })
}

fn x_for(n: usize) -> Vec<f64> {
    (0..n).map(|j| ((j * 37) % 19) as f64 / 3.0 - 2.5).collect()
}

#[test]
fn identical_results_across_thread_counts() {
    let (n, plan) = mesh_setup();
    let x = x_for(n);
    let cp = CompiledPlan::compile(&plan);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut reference: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 4, cores] {
        let mut engine = pool(cp.clone(), threads, 1);
        let mut y = vec![0.0; n];
        engine.apply_batch_iters(&x, &mut y, 1, 3);
        match &reference {
            None => reference = Some(y),
            Some(want) => {
                assert_eq!(&y, want, "thread count {threads} changed the result bitwise");
            }
        }
    }
    // The job's final iteration emits straight into the caller's `y`:
    // on a matrix with empty rows, a mixed-width sequence on one engine
    // must write every owned row (materialized or not) at the job's
    // stride into a `y` that starts out as NaN, bitwise as CompiledSeq.
    let (n, plan) = holey_mesh_setup();
    let cp = CompiledPlan::compile(&plan);
    assert!(cp.ranks.iter().any(|rp| !rp.y_zero.is_empty()), "needs never-materialized rows");
    let mut ws = pool(cp.clone(), 1, 8);
    for threads in [1usize, 2, 4, cores] {
        let mut engine = pool(cp.clone(), threads, 8);
        for iters in [1usize, 3] {
            for r in [8usize, 1, 4] {
                let x: Vec<f64> = (0..n * r).map(|i| ((i * 29) % 23) as f64 / 4.0 - 2.0).collect();
                let mut want = vec![f64::NAN; n * r];
                ws.apply_batch_iters(&x, &mut want, r, iters);
                let mut y = vec![f64::NAN; n * r];
                engine.apply_batch_iters(&x, &mut y, r, iters);
                assert_eq!(
                    y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "threads={threads} r={r} iters={iters}"
                );
            }
        }
    }
}

#[test]
fn repeated_jobs_on_one_engine_are_bitwise_stable() {
    let (n, plan) = mesh_setup();
    let x = x_for(n);
    let mut engine = pool(CompiledPlan::compile(&plan), 0, 1);
    let mut first = vec![0.0; n];
    engine.apply_batch_iters(&x, &mut first, 1, 4);
    for round in 0..10 {
        let mut again = vec![0.0; n];
        engine.apply_batch_iters(&x, &mut again, 1, 4);
        assert_eq!(again, first, "round {round}: fixed schedule must be bitwise deterministic");
    }
}

#[test]
fn batch_width_does_not_change_a_column() {
    // The same input run as width-1 and as column 0 of a width-8 batch
    // must match bitwise (the batched kernel accumulates each column
    // independently, in the same order).
    let (n, plan) = mesh_setup();
    let x = x_for(n);
    let cp = CompiledPlan::compile(&plan);
    let mut engine = pool(cp, 0, 8);
    let mut narrow = vec![0.0; n];
    engine.apply(&x, &mut narrow);
    let r = 8;
    let mut block = vec![0.0; n * r];
    for g in 0..n {
        block[g * r] = x[g];
        for q in 1..r {
            block[g * r + q] = x[g] * (q as f64 + 0.5);
        }
    }
    let mut y = vec![0.0; n * r];
    engine.apply_batch(&block, &mut y, r);
    let col0: Vec<f64> = (0..n).map(|g| y[g * r]).collect();
    assert_eq!(col0, narrow, "column 0 of the batch must equal the single-RHS result bitwise");
}

#[test]
fn every_kernel_format_is_bitwise_deterministic_and_reproduces_csr() {
    // Two pins at once: (1) `CompiledPlan::compile` (the CSR default)
    // reproduces `compile_with_isa(_, CsrSlice, Auto)` exactly — today's results
    // are bitwise-preserved; (2) every format's pool result is bitwise
    // stable across thread counts AND bitwise equal to the CSR result
    // on finite inputs (the formats-module contract).
    let (n, plan) = mesh_setup();
    let x = x_for(n);
    let mut want = vec![0.0; n];
    pool(CompiledPlan::compile(&plan), 0, 1).apply_batch_iters(&x, &mut want, 1, 3);
    for format in KernelFormat::all() {
        let cp = CompiledPlan::compile_with_isa(&plan, format, KernelIsa::Auto);
        for threads in [1usize, 3, 8] {
            let mut engine = pool(cp.clone(), threads, 1);
            let mut y = vec![0.0; n];
            engine.apply_batch_iters(&x, &mut y, 1, 3);
            assert_eq!(y, want, "{format} x{threads} threads must match the CSR default bitwise");
        }
    }
}

#[test]
fn poisoned_pool_reports_the_panic_instead_of_hanging() {
    // Corrupt one kernel so a worker panics mid-job (the row_ptr end is
    // bounds-checked at run time, not validated at construction): the
    // control thread must observe a panic on the *same* call, fail fast
    // on every later call, and Drop must still join the workers.
    let (n, plan) = mesh_setup();
    let mut cp = CompiledPlan::compile(&plan);
    let kernel = cp
        .ranks
        .iter_mut()
        .flat_map(|rp| &mut rp.steps)
        .find_map(|s| match s {
            RankStep::Compute(Kernel::Csr(k)) if !k.rows.is_empty() => Some(k),
            _ => None,
        })
        .expect("plan has a nonempty kernel");
    *kernel.row_ptr.last_mut().unwrap() = u32::MAX >> 8;
    let mut engine = pool(cp, 4, 1);
    let x = x_for(n);
    let mut y = vec![0.0; n];
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.apply(&x, &mut y)));
    assert!(first.is_err(), "worker panic must surface on the control thread");
    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.apply_batch_iters(&x, &mut y, 1, 2)
    }));
    assert!(second.is_err(), "poisoned engine must fail fast on reuse");
    drop(engine); // must join, not hang
}
