//! Differential harness: **every** execution backend, one plan,
//! pairwise agreement.
//!
//! One driver builds every [`Backend`] operator over the same plan
//! (via `Backend::all()` — mailbox interpreter, threaded executor,
//! compiled pool as a team of one, compiled worker pool) and asserts
//! that every pair agrees on `apply`, and that every backend's
//! `apply_batch` columns agree with the mailbox oracle — property-
//! tested over all four plan kinds, K ∈ {1, 2, 4, 7, 16} and batch
//! widths r ∈ {1, 2, 3, 8} on R-MAT, power-law and FEM-stencil
//! matrices, plus deterministic edge shapes (empty ranks, dense rows,
//! n = 1). On top of the backend set, every non-default `KernelFormat`
//! (SELL-C-σ, dense-split, auto) joins the pairwise matrix through the
//! compiled paths, so a format bug diverges against every backend at
//! once.
//!
//! Any future execution path becomes a `Backend` variant and is
//! differentially tested against every existing path for free — no
//! hand-wired dispatch here to extend.

use std::sync::Arc;

use proptest::prelude::*;
use s2d_core::optimal::s2d_optimal;
use s2d_core::partition::SpmvPartition;
use s2d_engine::{Backend, CompiledPlan, KernelFormat, KernelIsa};
use s2d_gen::fem::fem_like;
use s2d_gen::powerlaw::power_law;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_sparse::{Coo, Csr};
use s2d_spmv::{SpmvOperator, SpmvPlan};

const KS: [usize; 5] = [1, 2, 4, 7, 16];
const RS: [usize; 4] = [1, 2, 3, 8];
/// Operator width able to serve every batch in `RS` from one build
/// (also exercises mixed-width reuse on the pool's shared buffers).
const MAX_R: usize = 8;

/// Random small matrix: R-MAT (degree-skewed), power-law (Chung–Lu
/// tail) or FEM-like 3D stencil, selected and seeded by the strategy.
fn matrix_strategy() -> impl Strategy<Value = Csr> {
    (0u64..1_000_000, 0u8..3, 5u32..7).prop_map(|(seed, family, scale)| {
        let n = 1usize << scale;
        match family {
            0 => rmat(&RmatConfig::graph500(scale, 4), seed).to_csr(),
            1 => power_law(n, 6 * n, 2.5, n / 2, seed),
            _ => fem_like(n.max(8), 7.0, 14, seed),
        }
    })
}

/// Symmetric block vector partition (valid for every plan kind).
fn block_parts(n: usize, k: usize) -> Vec<u32> {
    let per = n.div_ceil(k);
    (0..n).map(|i| (i / per) as u32).collect()
}

/// The four plan kinds over one matrix and processor count.
fn plans_for(a: &Csr, k: usize) -> Vec<(&'static str, SpmvPlan)> {
    let n = a.nrows();
    let parts = block_parts(n, k);
    let p1d = SpmvPartition::rowwise(a, parts.clone(), parts.clone(), k);
    let ps2d = s2d_optimal(a, &parts, &parts, k);
    vec![
        ("1d/single_phase", SpmvPlan::single_phase(a, &p1d)),
        ("2d/two_phase", SpmvPlan::two_phase(a, &ps2d)),
        ("s2d/single_phase", SpmvPlan::single_phase(a, &ps2d)),
        ("s2d-b/mesh", SpmvPlan::mesh_default(a, &ps2d)),
    ]
}

fn x_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|j| ((j as u64).wrapping_mul(2654435761).wrapping_add(seed) % 101) as f64 / 13.0 - 3.0)
        .collect()
}

/// Row-major `n × r` block whose column 0 is `x` and whose other
/// columns are distinct deterministic variants.
fn batch_block(x: &[f64], r: usize) -> Vec<f64> {
    let n = x.len();
    let mut block = vec![0.0; n * r];
    for g in 0..n {
        for q in 0..r {
            block[g * r + q] = x[g] * (1.0 + q as f64 * 0.5) - q as f64 * 0.25;
        }
    }
    block
}

/// Column `q` of a row-major `n × r` block.
fn column(block: &[f64], n: usize, r: usize, q: usize) -> Vec<f64> {
    (0..n).map(|g| block[g * r + q]).collect()
}

fn close(a: &[f64], b: &[f64]) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).position(|(u, v)| (u - v).abs() > 1e-9 * v.abs().max(1.0))
}

/// The harness: every backend on one plan, pairwise agreement on
/// `apply`, per-column agreement of every backend's `apply_batch`
/// against the mailbox oracle.
fn differential_check(
    plan: &SpmvPlan,
    kind: &str,
    x: &[f64],
    rs: &[usize],
) -> Result<(), TestCaseError> {
    let cp = Arc::new(CompiledPlan::compile(plan));
    prop_assert_eq!(cp.total_ops(), plan.total_ops(), "{}: op count drift", kind);
    let plan = Arc::new(plan.clone());
    let mut ops: Vec<(String, Box<dyn SpmvOperator + Send>)> =
        Backend::all().iter().map(|b| (b.to_string(), b.build(&plan, &cp, MAX_R, None))).collect();
    // Kernel-format sweep: every non-default format on the sequential
    // compiled path (the format implementations), plus `auto` on the
    // pool (format × shared-buffer execution). The CSR defaults are
    // already in `Backend::all()`, so every format ends up pairwise-
    // checked against every backend.
    for format in KernelFormat::all() {
        if format == KernelFormat::CsrSlice {
            continue;
        }
        // One compilation per format: checked for op-count invariance
        // (padding never counts), then wrapped as the operator.
        let cpf = CompiledPlan::compile_with_isa(&plan, format, KernelIsa::Auto);
        prop_assert_eq!(cpf.total_ops(), plan.total_ops(), "{}/{}: op count drift", kind, format);
        ops.push((
            format!("compiled-seq/{format}"),
            Backend::CompiledSeq.build(&plan, &Arc::new(cpf), MAX_R, None),
        ));
    }
    ops.push((
        "compiled-pool/auto".to_string(),
        Backend::CompiledPool { threads: 0, pin: false }.build(
            &plan,
            &Arc::new(CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Auto)),
            MAX_R,
            None,
        ),
    ));

    // Single-RHS apply on x: every pair of backends must agree.
    let singles: Vec<(String, Vec<f64>)> = ops
        .iter_mut()
        .map(|(label, op)| {
            let mut y = vec![0.0; plan.nrows];
            op.apply(x, &mut y);
            (label.clone(), y)
        })
        .collect();
    for i in 0..singles.len() {
        for j in i + 1..singles.len() {
            let (la, va) = &singles[i];
            let (lb, vb) = &singles[j];
            if let Some(at) = close(va, vb) {
                return Err(TestCaseError::fail(format!(
                    "{kind}: {la} vs {lb} disagree at y[{at}]: {} vs {}",
                    va[at], vb[at]
                )));
            }
        }
    }

    // Batched paths: every backend's apply_batch, per column, against
    // the mailbox backend's block (whose columns are bitwise the
    // mailbox single-RHS results — its batch fallback is columnwise).
    for &r in rs {
        let block = batch_block(x, r);
        let oracle = {
            let (_, mailbox) = &mut ops[0];
            let mut y = vec![0.0; plan.nrows * r];
            mailbox.apply_batch(&block, &mut y, r);
            y
        };
        for (label, op) in ops.iter_mut().skip(1) {
            let mut y = vec![0.0; plan.nrows * r];
            op.apply_batch(&block, &mut y, r);
            for q in 0..r {
                let got = column(&y, plan.nrows, r, q);
                let want = column(&oracle, plan.nrows, r, q);
                if let Some(at) = close(&got, &want) {
                    return Err(TestCaseError::fail(format!(
                        "{kind}: batch{r}-{label}/col{q} vs mailbox disagree at y[{at}]: {} vs {}",
                        got[at], want[at]
                    )));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All backends × all plan kinds × all K × all r on random matrices.
    #[test]
    fn all_paths_agree_on_random_matrices(a in matrix_strategy(), xseed in 0u64..100) {
        let x = x_for(a.ncols(), xseed);
        for k in KS {
            if k > a.nrows() {
                continue;
            }
            for (kind, plan) in plans_for(&a, k) {
                differential_check(&plan, kind, &x, &RS)?;
            }
        }
    }
}

#[test]
fn all_paths_agree_on_n1() {
    let a = Coo::from_pattern(1, 1, &[(0, 0)]).to_csr();
    let p = SpmvPartition::rowwise(&a, vec![0], vec![0], 1);
    let plan = SpmvPlan::single_phase(&a, &p);
    differential_check(&plan, "n1", &[1.5], &RS).expect("n=1 must agree on all paths");
}

#[test]
fn all_paths_agree_with_empty_ranks() {
    // K = 4 but every row/column lives on rank 0: ranks 1..3 have no
    // work, no footprint and no messages — programs must still align.
    let mut m = Coo::new(6, 6);
    for i in 0..6 {
        m.push(i, i, 1.0 + i as f64);
        m.push(i, (i + 2) % 6, -0.5);
    }
    m.compress();
    let a = m.to_csr();
    let p = SpmvPartition::rowwise(&a, vec![0; 6], vec![0; 6], 4);
    for (kind, plan) in
        [("single", SpmvPlan::single_phase(&a, &p)), ("two", SpmvPlan::two_phase(&a, &p))]
    {
        let x = x_for(6, 3);
        differential_check(&plan, kind, &x, &RS)
            .unwrap_or_else(|e| panic!("empty-rank {kind}: {e}"));
    }
}

#[test]
fn all_paths_agree_on_dense_rows_and_empty_rows() {
    // Row 0 is fully dense (touches every rank's x), rows 7/15 are
    // empty (assemble to zero through NO_SLOT on every path).
    let n = 24;
    let mut m = Coo::new(n, n);
    for j in 0..n {
        m.push(0, j, 1.0 + j as f64 * 0.25);
    }
    for i in 1..n {
        if i == 7 || i == 15 {
            continue;
        }
        m.push(i, i, 2.0);
        m.push(i, (i * 5) % n, -1.0);
    }
    m.compress();
    let a = m.to_csr();
    for (kind, plan) in plans_for(&a, 4) {
        let x = x_for(n, 17);
        differential_check(&plan, kind, &x, &RS)
            .unwrap_or_else(|e| panic!("dense-row {kind}: {e}"));
    }
}
