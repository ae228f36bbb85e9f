//! Raw-speed acceptance: the AVX2 builds of the kernels and the worker
//! pool are *pure speed* features — every test here pins that down with
//! exact (bitwise) equality, not tolerances, and none times anything.
//!
//! * ISA differential: scalar and auto (AVX2) produce byte-identical
//!   blocks for every kernel format and batch width, because both run
//!   the same body, the vector lanes map to the batch dimension (lane
//!   `q` is RHS `q`) and no FMA contraction is used — each column's
//!   accumulation chain is the scalar chain.
//! * Schedule differential: each participant runs its own ranks'
//!   kernels whole, in unit order, so any participant count ×
//!   repetition yields the sequential executor's result exactly.
//! * The per-participant load accounting is conserved: planned
//!   multiply-adds sum to the plan's op count.

use std::sync::Arc;

use s2d_core::optimal::s2d_optimal;
use s2d_core::partition::SpmvPartition;
use s2d_engine::{Backend, CompiledPlan, KernelFormat, KernelIsa, ParallelEngine, PoolOptions};
use s2d_gen::fem::fem_like;
use s2d_gen::powerlaw::power_law;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_obs::WorkerLoadReport;
use s2d_sparse::Csr;
use s2d_spmv::{SpmvOperator, SpmvPlan};

const RS: [usize; 3] = [1, 4, 8];
const MAX_R: usize = 8;

/// The three matrix families the benches run: degree-skewed R-MAT,
/// heavy-tailed power-law, and a regular FEM-like stencil.
fn matrices() -> Vec<(&'static str, Csr)> {
    vec![
        ("rmat", rmat(&RmatConfig::graph500(6, 6), 7).to_csr()),
        ("powerlaw", power_law(96, 6 * 96, 2.5, 48, 11)),
        ("fem", fem_like(64, 7.0, 14, 13)),
    ]
}

fn plan_for(a: &Csr, k: usize) -> SpmvPlan {
    let n = a.nrows();
    let per = n.div_ceil(k);
    let parts: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
    let p: SpmvPartition = s2d_optimal(a, &parts, &parts, k);
    SpmvPlan::single_phase(a, &p)
}

/// Row-major `n × r` block with genuinely distinct columns.
fn block_for(n: usize, r: usize, seed: u64) -> Vec<f64> {
    (0..n * r)
        .map(|i| {
            let (g, q) = (i / r, i % r);
            ((g as u64).wrapping_mul(2654435761).wrapping_add(seed + q as u64) % 101) as f64 / 13.0
                - 3.0
        })
        .collect()
}

/// Both ISA choices: the portable reference, and the probe (the AVX2
/// paths where the CPU has them).
fn isas() -> [KernelIsa; 2] {
    [KernelIsa::Scalar, KernelIsa::Auto]
}

/// Scalar vs auto (AVX2 where available), across every kernel format
/// and batch width, on the sequential compiled path: exact equality,
/// column by column and word by word.
#[test]
fn isa_choice_is_bitwise_invisible_on_the_sequential_path() {
    for (name, a) in matrices() {
        let plan = Arc::new(plan_for(&a, 4));
        for format in KernelFormat::all() {
            let mut reference: Option<Vec<f64>> = None;
            for isa in isas() {
                let cp = CompiledPlan::compile_with_isa(&plan, format, isa);
                assert_eq!(cp.isa, isa, "{name}/{format}: compiled plan must carry its ISA");
                assert_eq!(
                    cp.total_ops(),
                    plan.total_ops(),
                    "{name}/{format}/{isa}: ISA must not change op accounting"
                );
                let mut op = Backend::CompiledSeq.build(&plan, &Arc::new(cp), MAX_R, None);
                let mut all = Vec::new();
                for r in RS {
                    let x = block_for(plan.ncols, r, 23);
                    let mut y = vec![0.0; plan.nrows * r];
                    op.apply_batch(&x, &mut y, r);
                    all.extend(y);
                }
                match &reference {
                    None => reference = Some(all),
                    Some(want) => {
                        assert_eq!(&all, want, "{name}/{format}/{isa}: ISA changed the bits")
                    }
                }
            }
        }
    }
}

/// The same exact-equality contract through the worker pool, where the
/// SIMD kernels run on the participants that own their ranks.
#[test]
fn isa_choice_is_bitwise_invisible_on_the_pool_path() {
    for (name, a) in matrices() {
        let plan = Arc::new(plan_for(&a, 4));
        let mut reference: Option<Vec<f64>> = None;
        for isa in isas() {
            let cp = CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, isa);
            let mut op = ParallelEngine::with_options(
                cp,
                PoolOptions { threads: 3, width: MAX_R, ..PoolOptions::default() },
            );
            let x = block_for(plan.ncols, MAX_R, 29);
            let mut y = vec![0.0; plan.nrows * MAX_R];
            op.apply_batch_iters(&x, &mut y, MAX_R, 3);
            match &reference {
                None => reference = Some(y),
                Some(want) => assert_eq!(&y, want, "{name}/{isa}: pool ISA changed the bits"),
            }
        }
    }
}

/// Whole-rank ownership is bitwise-deterministic: every participant
/// count × repetition reproduces the sequential executor exactly, on
/// every matrix family and under chained iterations (which exercise the
/// seed/sync barrier structure, not just one pass).
#[test]
fn chunked_pool_is_bitwise_across_threads_chunks_and_repeats() {
    for (name, a) in matrices() {
        let plan = Arc::new(plan_for(&a, 4));
        let x = block_for(plan.ncols, 4, 31);
        let want = {
            let cp = CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Auto);
            let mut y = vec![0.0; plan.nrows * 4];
            Backend::CompiledSeq
                .build(&plan, &Arc::new(cp), 4, None)
                .apply_batch_iters(&x, &mut y, 4, 3);
            y
        };
        for threads in [1, 2, 3, 4] {
            let cp = CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Auto);
            let mut engine = ParallelEngine::with_options(
                cp,
                PoolOptions { threads, width: 4, ..PoolOptions::default() },
            );
            for rep in 0..2 {
                let mut y = vec![0.0; plan.nrows * 4];
                engine.apply_batch_iters(&x, &mut y, 4, 3);
                assert_eq!(y, want, "{name}: t={threads} rep={rep} diverged from sequential");
            }
        }
    }
}

/// The fixed rank→participant map conserves work: planned
/// per-participant multiply-adds sum to the compiled plan's total, and
/// the operator surfaces them through the `SpmvOperator` trait.
#[test]
fn worker_loads_are_conserved_and_surface_through_the_operator() {
    let (_, a) = &matrices()[1];
    let plan = Arc::new(plan_for(a, 4));
    let cp = CompiledPlan::compile_with_isa(&plan, KernelFormat::CsrSlice, KernelIsa::Auto);
    let total = cp.total_ops();
    let engine = ParallelEngine::with_options(
        cp.clone(),
        PoolOptions { threads: 3, width: 1, ..PoolOptions::default() },
    );
    let phases = engine.worker_loads().expect("pool operators report loads");
    let loads = WorkerLoadReport::new(phases).madds();
    assert_eq!(
        loads.iter().sum::<u64>(),
        total,
        "planned loads must cover every multiply-add exactly once"
    );
    assert!(loads.iter().max().unwrap() * loads.len() as u64 >= total, "max/mean is at least 1");
    // And through the trait object, the way the profile report gets it.
    let op = ParallelEngine::with_options(cp, PoolOptions { threads: 3, ..PoolOptions::default() });
    let loads = (&op as &dyn SpmvOperator).worker_loads().expect("pool operators report loads");
    assert_eq!(loads.concat().iter().sum::<u64>(), total);
    // The sequential path is a team of one, holding every phase whole.
    let seq = Backend::CompiledSeq.build(&plan, &Arc::new(CompiledPlan::compile(&plan)), 1, None);
    let loads = seq.worker_loads().expect("a team of one reports its loads");
    assert!(loads.iter().all(|phase| phase.len() == 1), "one participant");
    assert_eq!(loads.concat().iter().sum::<u64>(), total);
}

/// A pinned pool (core affinity + first-touch placement) is still
/// bitwise identical — placement must never change the numbers.
#[test]
fn pinned_pool_matches_unpinned_at_plan_level() {
    let (_, a) = &matrices()[0];
    let plan = Arc::new(plan_for(a, 4));
    let x = block_for(plan.ncols, 4, 37);
    let mut outs = Vec::new();
    for pin in [false, true] {
        let cp = CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Auto);
        let mut op = ParallelEngine::with_options(
            cp,
            PoolOptions { threads: 2, width: 4, pin, ..PoolOptions::default() },
        );
        let mut y = vec![0.0; plan.nrows * 4];
        op.apply_batch_iters(&x, &mut y, 4, 2);
        outs.push(y);
    }
    assert_eq!(outs[0], outs[1], "pinning changed the bits");
}
