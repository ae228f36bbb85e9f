//! Engine comparison bench: every `Backend::all()` operator (mailbox
//! interpreter, threaded executor, compiled sequential workspace,
//! compiled persistent pool) measured through the one `SpmvOperator`
//! interface on generator-suite matrices. Compile (inspector) time is
//! reported separately from per-iteration time, and two acceptance
//! ratios —
//! compiled vs mailbox, and batched (r = 8) vs 8 single-RHS compiled
//! executions, both on a 2^14-row R-MAT at K = 16 — are printed and
//! asserted explicitly at the end.
//!
//! Run with `cargo bench -p s2d-bench --bench engine`.
//!
//! **Fast mode** (CI smoke): set `S2D_ENGINE_BENCH_FAST=1` to shrink
//! the R-MAT to 2^11 rows and skip the suite-A matrices. The
//! correctness cross-checks and the batched-reuse assertion still run,
//! so a kernel regression fails the build in under a minute; only the
//! absolute speedup thresholds are relaxed (small matrices leave less
//! room between the interpreter and the compiled path).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use s2d_baselines::partition_1d_rowwise;
use s2d_core::heuristic::{s2d_from_vector_partition, HeuristicConfig};
use s2d_engine::{Backend, CompiledPlan, KernelFormat, ParallelEngine, PoolOptions};
use s2d_gen::fem::fem_like;
use s2d_gen::powerlaw::power_law;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_gen::{suite_a, Scale};
use s2d_obs::{best_of, TelemetrySink};
use s2d_sparse::Csr;
use s2d_spmv::SpmvOperator;
use s2d_spmv::SpmvPlan;

const K: usize = 16;

/// CI smoke mode: smaller matrix, relaxed speedup thresholds.
/// `S2D_ENGINE_BENCH_FAST=0` (or empty) keeps the full run.
fn fast_mode() -> bool {
    std::env::var("S2D_ENGINE_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Kernel format for the per-backend benches, from
/// `S2D_BENCH_KERNEL_FORMAT` (the CI smoke matrix sweeps it); the
/// default CSR keeps bench-id continuity with earlier runs.
fn bench_kernel_format() -> KernelFormat {
    match std::env::var("S2D_BENCH_KERNEL_FORMAT") {
        Ok(v) if !v.is_empty() => {
            v.parse().unwrap_or_else(|e| panic!("S2D_BENCH_KERNEL_FORMAT: {e}"))
        }
        _ => KernelFormat::CsrSlice,
    }
}

/// R-MAT scale for the acceptance matrix (2^14 rows, 2^11 in fast mode).
fn rmat_scale() -> u32 {
    if fast_mode() {
        11
    } else {
        14
    }
}

fn rmat_label() -> String {
    format!("rmat{}", rmat_scale())
}

/// The single-phase s2D plan the paper's workload runs.
fn plan_for(a: &Csr) -> SpmvPlan {
    let oned = partition_1d_rowwise(a, K, 0.03, 1);
    let s2d =
        s2d_from_vector_partition(a, &oned.row_part, &oned.col_part, &HeuristicConfig::default());
    SpmvPlan::single_phase(a, &s2d)
}

fn x_for(n: usize) -> Vec<f64> {
    (0..n).map(|j| ((j * 37) % 19) as f64 - 9.0).collect()
}

/// Compile cost plus one steady-state `apply` measurement per backend
/// for one named matrix — the backends come from `Backend::all()`, so
/// a new execution path is benchmarked by adding its enum variant.
fn bench_matrix(c: &mut Criterion, name: &str, a: &Csr) {
    let plan = plan_for(a);
    let x = x_for(a.ncols());

    c.bench_function(&format!("engine/compile/{name}/k{K}"), |b| {
        b.iter(|| black_box(CompiledPlan::compile(&plan).total_ops()))
    });

    let plan = Arc::new(plan);
    let mut y = vec![0.0; a.nrows()];
    let format = bench_kernel_format();
    let cp = Arc::new(CompiledPlan::compile_with(&plan, format));
    for backend in Backend::all() {
        // Setup (buffers, worker spawn) is paid here, once — the
        // measured loop is the amortized steady state. The compiled
        // backends run whatever kernel format the CI matrix selected;
        // format-suffixed ids keep the trajectories separate.
        let mut op = backend.build(&plan, &cp, 1, None);
        let id = match (backend, format) {
            (Backend::CompiledSeq | Backend::CompiledPool { .. }, f)
                if f != KernelFormat::CsrSlice =>
            {
                format!("engine/{backend}+{}/{name}/k{K}", f.label())
            }
            _ => format!("engine/{backend}/{name}/k{K}"),
        };
        c.bench_function(&id, |b| {
            b.iter(|| {
                op.apply(&x, &mut y);
                black_box(y[0])
            })
        });
    }
}

/// Per-format comparison on three shapes (skewed R-MAT, power-law tail,
/// FEM stencil): the sequential compiled path at r = 1 and r = 8 for
/// every `KernelFormat`. Criterion ids are
/// `engine/format/<fmt>/<matrix>/r<r>`.
fn bench_formats(c: &mut Criterion) {
    // The format *comparison* sweeps every format itself, so it runs on
    // the canonical (csr) leg of the CI matrix only — the other legs
    // would repeat identical measurements into their artifacts.
    if bench_kernel_format() != KernelFormat::CsrSlice {
        return;
    }
    let formats: Vec<KernelFormat> = KernelFormat::all()
        .into_iter()
        .chain([KernelFormat::SellCSigma { c: 8, sigma: 256 }])
        .collect();
    for (name, a) in format_matrices() {
        let plan = plan_for(&a);
        for &format in &formats {
            let cp = CompiledPlan::compile_with(&plan, format);
            for r in [1usize, 8] {
                let x: Vec<f64> =
                    (0..a.ncols() * r).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
                let mut ws = cp.workspace_batch(r);
                let mut y = vec![0.0; a.nrows() * r];
                let label = match format {
                    KernelFormat::SellCSigma { c, .. } => format!("sell{c}"),
                    other => other.label().to_string(),
                };
                c.bench_function(&format!("engine/format/{label}/{name}/r{r}"), |b| {
                    b.iter(|| {
                        cp.execute_batch(&mut ws, &x, &mut y, r);
                        black_box(y[0])
                    })
                });
            }
        }
    }
}

/// The format-comparison matrices at the mode's scale: skewed R-MAT,
/// power-law tail, FEM stencil, and an ultra-sparse power law (mean
/// degree ~2 — the many-tiny-rows shape where per-row loop overhead
/// dominates the CSR slice and sorted chunks pay off).
fn format_matrices() -> Vec<(&'static str, Csr)> {
    let scale = rmat_scale();
    let n = 1usize << scale;
    vec![
        ("rmat", rmat(&RmatConfig::graph500(scale, 8), 1).to_csr()),
        ("powerlaw", power_law(n, 8 * n, 2.2, n / 4, 3)),
        ("fem", fem_like(n, 7.0, 14, 5)),
        ("ultrasparse", power_law(n, 2 * n, 2.6, n / 8, 7)),
    ]
}

fn bench_suite(c: &mut Criterion) {
    if fast_mode() {
        return; // smoke runs cover the R-MAT benches only
    }
    // Two suite-A doubles with different shapes (stencil-ish and
    // dense-row-tailed), at the generator's tiny scale.
    for name in ["crystk02", "c-big"] {
        if let Some(spec) = suite_a().into_iter().find(|s| s.name.eq_ignore_ascii_case(name)) {
            let a = spec.generate(Scale::Tiny, 1);
            bench_matrix(c, name, &a);
        }
    }
}

fn bench_rmat14(c: &mut Criterion) {
    let a = rmat(&RmatConfig::graph500(rmat_scale(), 8), 1).to_csr();
    bench_matrix(c, &rmat_label(), &a);
}

/// Batched comparison: one r-wide block execution vs r single-RHS
/// executions of the same compiled plan (sequential workspace path —
/// the two sides differ only in traversal sharing, not threading).
fn bench_batched(c: &mut Criterion) {
    let a = rmat(&RmatConfig::graph500(rmat_scale(), 8), 1).to_csr();
    let plan = plan_for(&a);
    let cp = CompiledPlan::compile(&plan);
    let name = rmat_label();
    for r in [2usize, 4, 8] {
        let x: Vec<f64> = (0..a.ncols() * r).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let mut ws = cp.workspace_batch(r);
        let mut y = vec![0.0; a.nrows() * r];
        c.bench_function(&format!("engine/compiled-seq-batch{r}/{name}/k{K}"), |b| {
            b.iter(|| {
                cp.execute_batch(&mut ws, &x, &mut y, r);
                black_box(y[0])
            })
        });
        let cols: Vec<Vec<f64>> =
            (0..r).map(|q| (0..a.ncols()).map(|g| x[g * r + q]).collect()).collect();
        let mut ws1 = cp.workspace();
        let mut y1 = vec![0.0; a.nrows()];
        c.bench_function(&format!("engine/compiled-seq-{r}xsingle/{name}/k{K}"), |b| {
            b.iter(|| {
                for col in &cols {
                    cp.execute(&mut ws1, col, &mut y1);
                }
                black_box(y1[0])
            })
        });
    }
}

/// Direct acceptance measurement: ≥ 10× per-iteration speedup of the
/// compiled engine over the mailbox interpreter on rmat14 at K = 16
/// (≥ 3× on the shrunken fast-mode matrix).
fn acceptance_summary(_c: &mut Criterion) {
    let a = rmat(&RmatConfig::graph500(rmat_scale(), 8), 1).to_csr();
    let plan = plan_for(&a);
    let x = x_for(a.ncols());

    // Best-of sampling on both sides: min is the noise-robust estimator
    // for "how fast does this run when the machine cooperates".
    let mut want = Vec::new();
    let mailbox = best_of(3, 1, || want = plan.execute_mailbox(&x));

    let (cp, compile) = s2d_obs::time(|| CompiledPlan::compile(&plan));

    let mut ws = cp.workspace();
    let mut y = vec![0.0; a.nrows()];
    cp.execute(&mut ws, &x, &mut y); // warm the buffers
    let seq = best_of(3, 20, || cp.execute(&mut ws, &x, &mut y));

    let mut pool = ParallelEngine::with_options(cp, PoolOptions::default());
    pool.execute(&x, &mut y);
    let pooled = best_of(3, 20, || pool.execute(&x, &mut y));

    let err =
        y.iter().zip(&want).map(|(g, w)| (g - w).abs() / w.abs().max(1.0)).fold(0.0f64, f64::max);
    assert!(err < 1e-9, "engines disagree: max rel err {err:.2e}");

    let ratio_seq = mailbox.as_secs_f64() / seq.as_secs_f64();
    let ratio_pool = mailbox.as_secs_f64() / pooled.as_secs_f64();
    let name = rmat_label();
    println!("--------------------------------------------------------------");
    println!(
        "acceptance {name}/k16: mailbox {:.2} ms/iter, compile {:.2} ms (one-time),",
        mailbox.as_secs_f64() * 1e3,
        compile.as_secs_f64() * 1e3
    );
    println!(
        "  compiled-seq {:.3} ms/iter ({ratio_seq:.0}x), compiled-pool {:.3} ms/iter ({ratio_pool:.0}x)",
        seq.as_secs_f64() * 1e3,
        pooled.as_secs_f64() * 1e3
    );
    let floor = if fast_mode() { 3.0 } else { 10.0 };
    assert!(
        ratio_seq >= floor,
        "compiled engine must be >= {floor}x mailbox (got {ratio_seq:.1}x)"
    );
    println!("--------------------------------------------------------------");
}

/// Batched acceptance: one r = 8 block execution must beat 8 sequential
/// single-RHS executions of the same compiled plan per iteration — the
/// whole point of the multi-RHS path is A-traversal reuse.
fn batched_acceptance_summary(_c: &mut Criterion) {
    const R: usize = 8;
    let a = rmat(&RmatConfig::graph500(rmat_scale(), 8), 1).to_csr();
    let plan = plan_for(&a);
    let cp = CompiledPlan::compile(&plan);
    let x: Vec<f64> = (0..a.ncols() * R).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
    let cols: Vec<Vec<f64>> =
        (0..R).map(|q| (0..a.ncols()).map(|g| x[g * R + q]).collect()).collect();

    let mut ws = cp.workspace_batch(R);
    let mut y = vec![0.0; a.nrows() * R];
    cp.execute_batch(&mut ws, &x, &mut y, R); // warm the buffers
    let batched = best_of(3, 10, || cp.execute_batch(&mut ws, &x, &mut y, R));

    let mut ws1 = cp.workspace();
    let mut y1 = vec![0.0; a.nrows()];
    cp.execute(&mut ws1, &cols[0], &mut y1); // warm
    let singles = best_of(3, 10, || {
        for col in &cols {
            cp.execute(&mut ws1, col, &mut y1);
        }
    });

    // Columns of the batch must match the last single-RHS run bitwise.
    for g in 0..a.nrows() {
        assert_eq!(y[g * R + R - 1], y1[g], "batched column {} disagrees at row {g}", R - 1);
    }

    let ratio = singles.as_secs_f64() / batched.as_secs_f64();
    println!("--------------------------------------------------------------");
    println!(
        "batched acceptance {}/k16: {R}x single {:.3} ms/iter, batch{R} {:.3} ms/iter ({ratio:.2}x reuse win)",
        rmat_label(),
        singles.as_secs_f64() * 1e3,
        batched.as_secs_f64() * 1e3
    );
    // Fast mode runs on noisy shared CI runners with a small matrix:
    // allow timing jitter without letting a genuinely slower batch
    // path (no reuse ≈ 1.0x or below) slip through.
    let floor = if fast_mode() { 0.9 } else { 1.0 };
    assert!(
        ratio > floor,
        "batched r={R} must beat {R} sequential single-RHS executions (got {ratio:.2}x, floor {floor})"
    );
    println!("--------------------------------------------------------------");
}

/// Format acceptance: on the three comparison shapes at r = 8,
/// (a) SELL-C-σ must beat the CSR slice on at least one matrix, and
/// (b) `auto` must never be slower than the *worst* fixed format
/// (within a noise margin) on any matrix — the selection policy may
/// not pick pathologically.
fn format_acceptance_summary(_c: &mut Criterion) {
    const R: usize = 8;
    // Like bench_formats: one leg of the CI matrix carries the
    // cross-format acceptance; re-asserting it per leg adds wall time
    // without additional signal.
    if bench_kernel_format() != KernelFormat::CsrSlice {
        return;
    }
    println!("--------------------------------------------------------------");
    let mut best_sell_ratio = 0.0f64;
    for (name, a) in format_matrices() {
        let plan = plan_for(&a);
        let x: Vec<f64> = (0..a.ncols() * R).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let time_of = |format: KernelFormat| {
            let cp = CompiledPlan::compile_with(&plan, format);
            let mut ws = cp.workspace_batch(R);
            let mut y = vec![0.0; a.nrows() * R];
            cp.execute_batch(&mut ws, &x, &mut y, R); // warm
            best_of(3, 10, || cp.execute_batch(&mut ws, &x, &mut y, R)).as_secs_f64()
        };
        let csr = time_of(KernelFormat::CsrSlice);
        // The default chunk height (c = 2) keeps the entry-major
        // loop's accumulator block (C × R words) in registers at r = 8;
        // sell:8 is the wide-chunk comparison point (lane-major here).
        let sell = time_of(KernelFormat::DEFAULT_SELL);
        let sell8 = time_of(KernelFormat::SellCSigma { c: 8, sigma: 256 });
        let dense = time_of(KernelFormat::DenseRowSplit);
        let auto = time_of(KernelFormat::Auto);
        best_sell_ratio = best_sell_ratio.max(csr / sell).max(csr / sell8);
        let worst_fixed = csr.max(sell).max(sell8).max(dense);
        let picks = CompiledPlan::compile_with(&plan, KernelFormat::Auto)
            .format_counts()
            .iter()
            .map(|(f, n)| format!("{}x{}", n, f.label()))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "format acceptance {name}/k{K}/r{R}: csr {:.3} ms, sell {:.3} ms ({:.2}x), \
             sell:8 {:.3} ms ({:.2}x), dense-split {:.3} ms, auto {:.3} ms [{picks}]",
            csr * 1e3,
            sell * 1e3,
            csr / sell,
            sell8 * 1e3,
            csr / sell8,
            dense * 1e3,
            auto * 1e3,
        );
        // (b): auto within noise of (or better than) the worst fixed
        // format. The real bar is "never pathological", so the margin
        // only absorbs timing jitter.
        let margin = if fast_mode() { 1.30 } else { 1.15 };
        assert!(
            auto <= worst_fixed * margin,
            "{name}: auto ({auto:.6}s) slower than the worst fixed format ({worst_fixed:.6}s)"
        );
    }
    // (a): the sorted-chunk format must pay off somewhere at r = 8.
    let floor = if fast_mode() { 0.80 } else { 1.0 };
    println!("best sell-vs-csr ratio across matrices: {best_sell_ratio:.2}x (floor {floor})");
    assert!(
        best_sell_ratio > floor,
        "SELL-C-σ must beat the CSR slice on at least one matrix at r = {R} \
         (best ratio {best_sell_ratio:.2}x)"
    );
    println!("--------------------------------------------------------------");
}

/// Telemetry acceptance: instrumentation must be invisible in the
/// results (telemetry-on output bitwise equal to telemetry-off, on
/// both compiled backends) and cheap (< 5% per-iteration overhead on
/// the sequential path; relaxed on the small fast-mode matrix where a
/// handful of clock reads is a visible fraction of an iteration).
fn telemetry_acceptance_summary(_c: &mut Criterion) {
    let a = rmat(&RmatConfig::graph500(rmat_scale(), 8), 1).to_csr();
    let plan = Arc::new(plan_for(&a));
    let x = x_for(a.ncols());
    let cp = Arc::new(CompiledPlan::compile(&plan));

    // Bitwise identity on both compiled backends.
    for backend in [Backend::CompiledSeq, Backend::CompiledPool { threads: 0, pin: false }] {
        let sink = Arc::new(TelemetrySink::new(K));
        let mut plain = backend.build(&plan, &cp, 1, None);
        let mut obs = backend.build(&plan, &cp, 1, Some(Arc::clone(&sink)));
        let mut y_plain = vec![0.0; a.nrows()];
        let mut y_obs = vec![0.0; a.nrows()];
        plain.apply(&x, &mut y_plain);
        obs.apply(&x, &mut y_obs);
        assert_eq!(y_plain, y_obs, "telemetry must be bitwise invisible on {backend}");
        assert!(sink.wall_nanos() > 0, "{backend}: sink recorded nothing");
    }

    // Overhead on the sequential path, best-of-3 batches of 20.
    let sink = Arc::new(TelemetrySink::new(K));
    let mut plain = Backend::CompiledSeq.build(&plan, &cp, 1, None);
    let mut obs = Backend::CompiledSeq.build(&plan, &cp, 1, Some(Arc::clone(&sink)));
    let mut y = vec![0.0; a.nrows()];
    plain.apply(&x, &mut y); // warm
    obs.apply(&x, &mut y);
    let off = best_of(3, 20, || plain.apply(&x, &mut y));
    let on = best_of(3, 20, || obs.apply(&x, &mut y));
    let overhead = on.as_secs_f64() / off.as_secs_f64() - 1.0;
    println!("--------------------------------------------------------------");
    println!(
        "telemetry acceptance {}/k{K}: off {:.3} ms/iter, on {:.3} ms/iter, overhead {:+.2}%",
        rmat_label(),
        off.as_secs_f64() * 1e3,
        on.as_secs_f64() * 1e3,
        overhead * 100.0
    );
    let cap = if fast_mode() { 0.25 } else { 0.05 };
    assert!(
        overhead < cap,
        "telemetry overhead must stay under {:.0}%/iter (got {:+.2}%)",
        cap * 100.0,
        overhead * 100.0
    );
    println!("--------------------------------------------------------------");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_suite, bench_rmat14, bench_batched, bench_formats, acceptance_summary,
        batched_acceptance_summary, format_acceptance_summary, telemetry_acceptance_summary
}
criterion_main!(benches);
