//! Backend conformance: one shared property set, every
//! `Backend::all()` entry × every plan kind.
//!
//! The `SpmvOperator` contract each backend must honor:
//!
//! 1. `apply` agrees with the reference CSR SpMV;
//! 2. `apply_batch` column `q` equals `apply` on column `q` — bitwise
//!    for deterministic backends (all four today: the endpoint walker
//!    folds receives in plan order, so `Backend::Threaded` reports
//!    `deterministic() == true` too), within floating-point tolerance
//!    for any future backend whose accumulation order is run-dependent;
//! 3. repeated `apply` calls are stable (bitwise for deterministic
//!    backends), i.e. an operator's internal state never leaks between
//!    calls;
//! 4. shapes are reported correctly and batch width growth works;
//! 5. `apply` and `apply_batch` overwrite every element of `y` — a
//!    caller may pass a recycled buffer without clearing it.

use std::sync::Arc;

use s2d_core::optimal::s2d_optimal;
use s2d_core::partition::SpmvPartition;
use s2d_engine::{Backend, CompiledPlan, KernelFormat, KernelIsa};
use s2d_gen::fem::fem_like;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_sparse::{Coo, Csr};
use s2d_spmv::{PlanKind, SpmvOperator, SpmvPlan};

/// Batch widths swept per operator — width 5 exceeds the built width
/// (`MAX_R`), so every backend's on-demand growth path (workspace
/// reallocation, pool rebuild) runs under the full conformance matrix.
const WIDTHS: [usize; 4] = [1, 3, 4, 5];
const MAX_R: usize = 4;

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (idx, (u, v)) in a.iter().zip(b).enumerate() {
        assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "{what}: y[{idx}]: {u} vs {v}");
    }
}

/// Deterministic test input, distinct per column.
fn block_for(n: usize, r: usize, seed: u64) -> Vec<f64> {
    (0..n * r)
        .map(|i| {
            let (g, q) = (i / r, i % r);
            ((g as u64).wrapping_mul(2654435761).wrapping_add(q as u64 * 977 + seed) % 211) as f64
                / 17.0
                - 5.0
        })
        .collect()
}

fn column(block: &[f64], n: usize, r: usize, q: usize) -> Vec<f64> {
    (0..n).map(|g| block[g * r + q]).collect()
}

/// Matrices with different shapes: skewed R-MAT, FEM stencil, and an
/// edge matrix with a dense row plus empty rows.
fn matrices() -> Vec<(&'static str, Csr)> {
    let mut edge = Coo::new(16, 16);
    for j in 0..16 {
        edge.push(0, j, 1.0 + j as f64 * 0.25);
    }
    for i in 1..16 {
        if i == 5 || i == 11 {
            continue; // empty rows
        }
        edge.push(i, i, 2.0);
        edge.push(i, (i * 3) % 16, -1.0);
    }
    edge.compress();
    vec![
        ("rmat", rmat(&RmatConfig::graph500(6, 4), 7).to_csr()),
        ("fem", fem_like(48, 6.0, 9, 3)),
        ("edge", edge.to_csr()),
    ]
}

/// s2D partition over block rows (valid for every plan kind).
fn partition_for(a: &Csr, k: usize) -> SpmvPartition {
    let n = a.nrows();
    let per = n.div_ceil(k);
    let parts: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
    s2d_optimal(a, &parts, &parts, k)
}

/// Compiles `plan` to `format` and builds `backend` over the pair.
fn build(
    backend: Backend,
    plan: &Arc<SpmvPlan>,
    width: usize,
    format: KernelFormat,
) -> Box<dyn SpmvOperator + Send> {
    backend.build(
        plan,
        &Arc::new(CompiledPlan::compile_with_isa(plan, format, KernelIsa::Auto)),
        width,
        None,
    )
}

/// Runs the shared property set over one operator.
fn check_operator(op: &mut (dyn SpmvOperator + Send), a: &Csr, label: &str) {
    assert_eq!((op.nrows(), op.ncols()), (a.nrows(), a.ncols()), "{label}: shape");
    let x = block_for(a.ncols(), 1, 1);
    let reference = a.spmv_alloc(&x);

    // Property 1: apply matches the reference CSR SpMV.
    let mut y = vec![0.0; a.nrows()];
    op.apply(&x, &mut y);
    assert_close(&y, &reference, label);

    // Property 3: repeated applications are stable — bitwise when the
    // backend is deterministic (the output buffer is pre-poisoned to
    // catch partial writes).
    let mut again = vec![f64::NAN; a.nrows()];
    op.apply(&x, &mut again);
    if op.deterministic() {
        assert_eq!(y, again, "{label}: repeated apply must be bitwise stable");
    } else {
        assert_close(&again, &y, label);
    }

    // Chained applications in one dispatch match manual chaining
    // (square matrices only — all conformance matrices are square).
    if a.nrows() == a.ncols() {
        let mut chained = vec![0.0; a.nrows()];
        op.apply_batch_iters(&x, &mut chained, 1, 3);
        let mut manual = x.clone();
        let mut step = vec![0.0; a.nrows()];
        for _ in 0..3 {
            op.apply(&manual, &mut step);
            std::mem::swap(&mut manual, &mut step);
        }
        if op.deterministic() {
            assert_eq!(chained, manual, "{label}: apply_batch_iters must match manual chaining");
        } else {
            assert_close(&chained, &manual, label);
        }
    }

    // Property 2: apply_batch column q equals apply on column q, at
    // every width up to (and at one point beyond) the built width.
    for r in WIDTHS {
        let xb = block_for(a.ncols(), r, 3);
        let mut yb = vec![0.0; a.nrows() * r];
        op.apply_batch(&xb, &mut yb, r);
        for q in 0..r {
            let xq = column(&xb, a.ncols(), r, q);
            let mut yq = vec![0.0; a.nrows()];
            op.apply(&xq, &mut yq);
            let got = column(&yb, a.nrows(), r, q);
            if op.deterministic() {
                assert_eq!(got, yq, "{label}: r={r} column {q} must match apply bitwise");
            } else {
                assert_close(&got, &yq, label);
            }
        }
    }
}

#[test]
fn every_backend_conforms_on_every_plan_kind() {
    for (mname, a) in matrices() {
        for k in [1usize, 3, 4] {
            if k > a.nrows() {
                continue;
            }
            let p = partition_for(&a, k);
            for kind in PlanKind::all() {
                let plan = Arc::new(kind.build(&a, &p));
                for backend in Backend::all() {
                    let mut op = build(backend, &plan, MAX_R, KernelFormat::CsrSlice);
                    check_operator(&mut *op, &a, &format!("{mname}/k{k}/{kind}/{backend}"));
                }
            }
        }
    }
}

#[test]
fn every_kernel_format_conforms_on_every_plan_kind() {
    // The full property set (reference agreement, per-column bitwise
    // batch equality at every width incl. on-demand growth, repeated-
    // apply stability, chained iters) for every KernelFormat on both
    // compiled backends — over the same matrix set, whose `edge` entry
    // carries a dense row plus empty rows, and at k = 1 (single rank)
    // and k = 4 (empty-rank programs on the edge matrix).
    for (mname, a) in matrices() {
        for k in [1usize, 4] {
            let p = partition_for(&a, k);
            for kind in PlanKind::all() {
                let plan = Arc::new(kind.build(&a, &p));
                for format in KernelFormat::all() {
                    for backend in
                        [Backend::CompiledSeq, Backend::CompiledPool { threads: 0, pin: false }]
                    {
                        let mut op = build(backend, &plan, MAX_R, format);
                        check_operator(
                            &mut *op,
                            &a,
                            &format!("{mname}/k{k}/{kind}/{backend}/{format}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn apply_overwrites_every_element_of_y() {
    // Property 5, at the widths the serving layer runs (solo and a full
    // coalesced batch): a `y` full of NaN comes back exactly as a
    // zeroed one does. Every backend on CSR slices, and the compiled
    // ones on every other format too; the `edge` matrix has rows
    // without nonzeros, which no kernel visits.
    for (mname, a) in matrices() {
        let p = partition_for(&a, 4);
        for kind in PlanKind::all() {
            let plan = Arc::new(kind.build(&a, &p));
            let mut cases: Vec<(Backend, KernelFormat)> =
                Backend::all().map(|b| (b, KernelFormat::CsrSlice)).to_vec();
            for format in KernelFormat::all() {
                cases.push((Backend::CompiledSeq, format));
                cases.push((Backend::CompiledPool { threads: 0, pin: false }, format));
            }
            for (backend, format) in cases {
                let mut op = build(backend, &plan, 8, format);
                for r in [1, 8] {
                    let x = block_for(a.ncols(), r, 5);
                    let mut clean = vec![0.0; a.nrows() * r];
                    let mut dirty = vec![f64::NAN; a.nrows() * r];
                    if r == 1 {
                        op.apply(&x, &mut clean);
                        op.apply(&x, &mut dirty);
                    } else {
                        op.apply_batch(&x, &mut clean, r);
                        op.apply_batch(&x, &mut dirty, r);
                    }
                    assert_eq!(dirty, clean, "{mname}/{kind}/{backend}/{format} r={r}");
                }
            }
        }
    }
}

#[test]
fn kernel_formats_agree_bitwise_with_csr() {
    // Formats preserve per-row entry order and single-chain
    // accumulation, so on finite inputs every format's result is the
    // CSR slice's result — identical floats, not just within tolerance
    // (the padded-SELL and dense-span contract from the formats docs).
    for (mname, a) in matrices() {
        let p = partition_for(&a, 3);
        for kind in PlanKind::all() {
            let plan = Arc::new(kind.build(&a, &p));
            let x = block_for(a.ncols(), 1, 21);
            let mut want = vec![0.0; a.nrows()];
            build(Backend::CompiledSeq, &plan, 1, KernelFormat::CsrSlice).apply(&x, &mut want);
            for format in KernelFormat::all() {
                let mut y = vec![0.0; a.nrows()];
                build(Backend::CompiledSeq, &plan, 1, format).apply(&x, &mut y);
                assert_eq!(y, want, "{mname}/{kind}/{format} must match CSR bitwise");
            }
        }
    }
}

#[test]
fn explicit_pool_thread_counts_conform() {
    let (_, a) = &matrices()[0];
    let p = partition_for(a, 4);
    let plan = Arc::new(PlanKind::SinglePhase.build(a, &p));
    for threads in 1..=4 {
        let mut op = build(
            Backend::CompiledPool { threads, pin: false },
            &plan,
            MAX_R,
            KernelFormat::CsrSlice,
        );
        check_operator(&mut *op, a, &format!("pool:{threads}"));
    }
}

#[test]
fn backends_agree_bitwise_where_promised() {
    // The two compiled paths and the mailbox interpreter share the
    // per-rank accumulation order — their apply results are identical
    // floats, not just within tolerance.
    let (_, a) = &matrices()[1];
    let p = partition_for(a, 3);
    let plan = Arc::new(PlanKind::SinglePhase.build(a, &p));
    let x = block_for(a.ncols(), 1, 9);
    let mut results = Vec::new();
    for backend in
        [Backend::Mailbox, Backend::CompiledSeq, Backend::CompiledPool { threads: 0, pin: false }]
    {
        let mut op = build(backend, &plan, 1, KernelFormat::CsrSlice);
        let mut y = vec![0.0; a.nrows()];
        op.apply(&x, &mut y);
        results.push((backend, y));
    }
    for (backend, y) in &results[1..] {
        assert_eq!(y, &results[0].1, "{backend} must match mailbox bitwise");
    }
}
