//! The phase-walk body: what one participant of a
//! [`ParallelEngine`](crate::ParallelEngine) does with the ranks it
//! owns.
//!
//! One iteration of a [`CompiledPlan`] is written **once**, in
//! `phase_walk`: clear the `y` arena → per phase, run each owned rank's
//! kernel whole or fold its received partials in the compiled `recvs`
//! order → emit owned rows into the caller's `y`. Every shared-memory
//! run walks it on the pool: a team of `N` participants, each owning
//! whole ranks (views over the shared arena, a spin barrier at every
//! handoff), and [`Backend::CompiledSeq`](crate::Backend::CompiledSeq)
//! as a team of one, which owns all `K` ranks in ascending order and
//! crosses no barrier. A rank's kernel runs whole, in unit order, on the
//! one participant that owns the rank, so every `y` word has the same
//! accumulation order at every team size.
//!
//! Ranks that share one address space shrink a plan's messages to what
//! still has to happen there. An **expand** word does not move: every
//! kernel indexes the `x` home space, which is the caller's input (from
//! the second chained iteration on, the caller's output — an
//! iteration's kernels all finish before its emit starts). A **fold**
//! word is one `y[own] += y[producer]` on the shared arena. A
//! communication phase without folds costs nothing, so a row-wise 1D
//! plan is kernels plus emit. The endpoint walker
//! ([`RankProgram::spmv_over`](crate::RankProgram)) is the only other
//! place compiled steps execute: the same kernels over a private image
//! of the home space, with real payloads.
//!
//! The arena is the one buffer an iteration writes besides the caller's
//! `y`, so the loop performs **zero heap allocation**. It is allocated
//! for a batch width `r` and everything is a row-major block — see the
//! crate docs: arena slot `s` occupies `y[s*r .. (s+1)*r]`, a rank's
//! block starts at `y_off × r`. Its size follows the ranks' *logical*
//! footprints (`ny` slots, rounded up to a cache line) whatever the
//! plan's [`KernelFormat`](crate::formats::KernelFormat): padded layouts
//! live inside the kernel's own arrays and reference existing columns
//! and slots, so one arena executes the same plan compiled to any
//! format.

use s2d_obs::Phase;

use crate::compile::{CompiledPlan, RankStep};
use crate::pool::PoolWorker;
use crate::telemetry::{span_end, span_start, ExecTelemetry};

/// Words an arena allocation carries beyond its payload, so that the
/// payload can start on a cache line wherever the allocator put it.
pub(crate) const ALIGN_SLACK: usize = 7;

/// How many words into an allocation at `base` the first 64-byte
/// boundary lies (at most [`ALIGN_SLACK`]).
pub(crate) fn align_pad(base: *const f64) -> usize {
    (base as usize).wrapping_neg() % 64 / std::mem::size_of::<f64>()
}

/// Runs `iters` chained iterations of `plan` at batch width `r` as the
/// participant `t`. Monomorphizes the common widths, with telemetry off
/// and on: `phase_walk` is `inline(always)` all the way down, so a
/// constant `r` const-folds the `0..r` block loops in the fold and the
/// emit into straight-line code (at r = 1, exactly a scalar executor),
/// and a constant `None` folds every span away.
pub(crate) fn walk(
    plan: &CompiledPlan,
    t: &mut PoolWorker<'_>,
    r: usize,
    iters: usize,
    obs: Option<&ExecTelemetry>,
) {
    match r {
        1 => walk_fixed::<1>(plan, t, iters, obs),
        2 => walk_fixed::<2>(plan, t, iters, obs),
        4 => walk_fixed::<4>(plan, t, iters, obs),
        8 => walk_fixed::<8>(plan, t, iters, obs),
        _ => phase_walk(plan, t, r, iters, obs),
    }
}

/// Fixed-width instantiations of the body, one per telemetry state (the
/// off one gets a literal `None`).
fn walk_fixed<const R: usize>(
    plan: &CompiledPlan,
    t: &mut PoolWorker<'_>,
    iters: usize,
    obs: Option<&ExecTelemetry>,
) {
    match obs {
        Some(_) => phase_walk(plan, t, R, iters, obs),
        None => phase_walk(plan, t, R, iters, None),
    }
}

/// The one phase-walk body: participant `t`'s share of `iters` chained
/// iterations, every step run for each owned rank in turn. Every
/// handoff between participants crosses `t.sync` (which a team of one
/// skips): clear → compute (from
/// the second iteration on, kernels read the `x` others just emitted),
/// compute → whatever reads those rows next (a fold of another rank,
/// the emit), and fold → the next writer of a producer's block. A
/// communication step in which no rank folds has no work and no
/// barrier. A fold reads slots no participant writes during that step
/// (see `compile.rs`), so only the order within a receiver matters: the
/// compiled `recvs` order.
// manual_memcpy: the `0..r` element loops are deliberate — `r` is
// const-folded by the `walk_fixed::<R>` instantiations, while
// `copy_from_slice` on a runtime-length region lowers to a per-call
// `memcpy` (measured ~25% slower per iteration at r = 1).
#[allow(clippy::manual_memcpy)]
#[inline(always)]
fn phase_walk(
    plan: &CompiledPlan,
    t: &mut PoolWorker<'_>,
    r: usize,
    iters: usize,
    obs: Option<&ExecTelemetry>,
) {
    let my = t.ranks();
    for it in 0..iters {
        for &rk in my {
            let ts = span_start(obs);
            t.own(rk).0.fill(0.0);
            span_end(obs, rk, Phase::Gather, ts);
        }
        if t.sync(obs) {
            return;
        }
        for (p, &folds_here) in plan.fold_steps.iter().enumerate() {
            // Step kinds agree across ranks at a phase index.
            if !folds_here && !matches!(plan.ranks[0].steps[p], RankStep::Compute(_)) {
                continue;
            }
            for &rk in my {
                match &plan.ranks[rk].steps[p] {
                    RankStep::Compute(kernel) => {
                        let ts = span_start(obs);
                        let (x, y) = t.compute(rk, it == 0);
                        kernel.run_batch(x, y, r);
                        span_end(obs, rk, Phase::Compute, ts);
                    }
                    RankStep::Comm { folds, .. } if !folds.is_empty() => {
                        let ts = span_start(obs);
                        let mut y = t.arena();
                        for &(src, dst) in folds {
                            y.fold(dst as usize * r, src as usize * r, r);
                        }
                        span_end(obs, rk, Phase::Scatter, ts);
                    }
                    RankStep::Comm { .. } => {}
                }
            }
            if t.sync(obs) {
                return;
            }
        }
        // Owned rows that end the walk live copy out of `y`; owned rows
        // that do not are written as 0.0 at this job's stride, so the
        // caller's block is fully overwritten (and is a whole input for
        // the next chained iteration).
        for &rk in my {
            let ts = span_start(obs);
            let rp = &plan.ranks[rk];
            let (y, mut out) = t.own(rk);
            for &(g, slot) in &rp.y_emit {
                let (row, s) = (out.region_mut(g as usize * r, r), slot as usize * r);
                for q in 0..r {
                    row[q] = y[s + q];
                }
            }
            for &g in &rp.y_zero {
                out.region_mut(g as usize * r, r).fill(0.0);
            }
            span_end(obs, rk, Phase::Scatter, ts);
            if let Some(o) = obs {
                o.bump_iter(rk, r);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pool::{ParallelEngine, PoolOptions};
    use crate::KernelIsa;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_spmv::{SpmvOperator, SpmvPlan};

    /// The sequential operator — a team of one — over a copy of `cp`,
    /// sized for batches of up to `width`.
    pub(crate) fn seq(cp: &CompiledPlan, width: usize) -> ParallelEngine {
        ParallelEngine::with_options(
            cp.clone(),
            PoolOptions { threads: 1, width, ..PoolOptions::default() },
        )
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    #[test]
    fn all_plan_kinds_match_mailbox_on_fig1() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
            SpmvPlan::mesh(&a, &p, 1, 3),
        ] {
            let cp = CompiledPlan::compile(&plan);
            let mut y = vec![0.0; a.nrows()];
            seq(&cp, 1).apply(&x, &mut y);
            assert_close(&y, &plan.execute_mailbox(&x));
        }
    }

    #[test]
    fn compiled_matches_mailbox_bit_for_bit_on_fig1() {
        // Same accumulation order → identical floating point, not just
        // within tolerance.
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| 1.0 / (j as f64 + 1.0)).collect();
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        let mut y = vec![0.0; a.nrows()];
        seq(&cp, 1).apply(&x, &mut y);
        assert_eq!(y, plan.execute_mailbox(&x));
    }

    #[test]
    fn workspace_is_reusable_across_inputs() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        let mut op = seq(&cp, 1);
        let mut y = vec![0.0; a.nrows()];
        for seed in 0..5 {
            let x: Vec<f64> = (0..a.ncols()).map(|j| ((j + seed) % 7) as f64 - 3.0).collect();
            op.apply(&x, &mut y);
            assert_close(&y, &a.spmv_alloc(&x));
        }
    }

    /// Square tridiagonal system with a symmetric block partition
    /// (chained iterations need nrows == ncols).
    pub(crate) fn square_setup(n: usize, k: usize) -> (s2d_sparse::Csr, SpmvPlan) {
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 2.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        m.compress();
        let a = m.to_csr();
        let per = n.div_ceil(k);
        let part: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
        let p = SpmvPartition::rowwise(&a, part.clone(), part, k);
        let plan = SpmvPlan::single_phase(&a, &p);
        (a, plan)
    }

    #[test]
    fn execute_iters_chains_applications() {
        let (a, plan) = square_setup(12, 3);
        let cp = CompiledPlan::compile(&plan);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).cos()).collect();
        let mut y = vec![0.0; a.nrows()];
        seq(&cp, 1).apply_batch_iters(&x, &mut y, 1, 3);
        let want = a.spmv_alloc(&a.spmv_alloc(&a.spmv_alloc(&x)));
        assert_close(&y, &want);
    }

    #[test]
    fn empty_rows_assemble_to_zero() {
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let a = Coo::from_pattern(3, 3, &[(0, 0)]).to_csr();
        let p = SpmvPartition::rowwise(&a, vec![0, 1, 1], vec![0, 0, 1], 2);
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        let mut y = vec![9.0; 3];
        seq(&cp, 1).apply(&[2.0, 3.0, 4.0], &mut y);
        assert_eq!(y, vec![2.0, 0.0, 0.0]);
    }

    #[test]
    fn mixed_width_jobs_do_not_leak_stale_words() {
        // Row 1 is empty (never materialized, `y_zero`) and column 1
        // feeds row 2: a chained job reads x1 from the word of `y` the
        // emit must have zeroed at *this* job's stride — `y` arrives
        // full of 9.0.
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let mut m = Coo::new(4, 4);
        m.push(0, 0, 2.0);
        m.push(2, 1, 3.0);
        m.push(3, 3, 4.0);
        m.compress();
        let a = m.to_csr();
        let parts = vec![0, 0, 1, 1];
        let p = SpmvPartition::rowwise(&a, parts.clone(), parts, 2);
        let cp = CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p));
        assert_eq!(cp.ranks[0].y_zero, vec![1]);
        let mut ws = seq(&cp, 8);
        let mut pool = ParallelEngine::with_options(
            cp.clone(),
            PoolOptions { threads: 2, width: 8, ..PoolOptions::default() },
        );
        for iters in [1usize, 3] {
            for r in [8usize, 3, 1] {
                let x = batch_input(4, r, 1);
                let mut got = vec![9.0; 4 * r];
                ws.apply_batch_iters(&x, &mut got, r, iters);
                let mut fresh = vec![9.0; 4 * r];
                seq(&cp, r).apply_batch_iters(&x, &mut fresh, r, iters);
                assert_eq!(got, fresh, "r={r} iters={iters}: reused vs fresh arena");
                let mut pooled = vec![9.0; 4 * r];
                pool.apply_batch_iters(&x, &mut pooled, r, iters);
                assert_eq!(got, pooled, "r={r} iters={iters}: team of one vs pool");
            }
        }
    }

    /// Row-major `n × r` batch whose column `q` is a deterministic
    /// irregular vector (column 0 equals `base` when provided).
    pub(crate) fn batch_input(n: usize, r: usize, seed: u64) -> Vec<f64> {
        (0..n * r)
            .map(|i| {
                let (g, q) = (i / r, i % r);
                ((g as u64).wrapping_mul(2654435761).wrapping_add(q as u64 * 977 + seed) % 211)
                    as f64
                    / 17.0
                    - 5.0
            })
            .collect()
    }

    /// Column `q` of a row-major `n × r` block.
    pub(crate) fn column(block: &[f64], n: usize, r: usize, q: usize) -> Vec<f64> {
        (0..n).map(|g| block[g * r + q]).collect()
    }

    #[test]
    fn every_kernel_format_matches_csr_bitwise_on_fig1() {
        use crate::formats::KernelFormat;
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| 1.0 / (j as f64 + 1.0)).collect();
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
        ] {
            let mut want = vec![0.0; a.nrows()];
            let csr = CompiledPlan::compile(&plan);
            seq(&csr, 1).apply(&x, &mut want);
            for format in KernelFormat::all() {
                let cp = CompiledPlan::compile_with_isa(&plan, format, KernelIsa::Auto);
                assert_eq!(cp.format, format);
                assert_eq!(cp.total_ops(), csr.total_ops(), "{format}: ops format-invariant");
                for r in [1usize, 3, 8] {
                    let xb = batch_input(a.ncols(), r, 5);
                    let mut got = vec![0.0; a.nrows() * r];
                    seq(&cp, r).apply_batch(&xb, &mut got, r);
                    let mut wb = vec![0.0; a.nrows() * r];
                    seq(&csr, r).apply_batch(&xb, &mut wb, r);
                    assert_eq!(got, wb, "{format} r={r} must match CSR bitwise");
                }
            }
        }
    }

    #[test]
    fn batched_columns_match_single_rhs_bitwise() {
        let a = fig1_matrix();
        let p = fig1_partition();
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
        ] {
            let cp = CompiledPlan::compile(&plan);
            for r in [1usize, 2, 3, 4, 5, 8] {
                let x = batch_input(a.ncols(), r, 7);
                let mut y = vec![0.0; a.nrows() * r];
                seq(&cp, r).apply_batch(&x, &mut y, r);
                let mut single = seq(&cp, 1);
                for q in 0..r {
                    let xq = column(&x, a.ncols(), r, q);
                    let mut yq = vec![0.0; a.nrows()];
                    single.apply(&xq, &mut yq);
                    assert_eq!(column(&y, a.nrows(), r, q), yq, "r={r} column {q}");
                }
            }
        }
    }

    #[test]
    fn batched_iters_chain_like_single_rhs() {
        let (a, plan) = square_setup(18, 4);
        let cp = CompiledPlan::compile(&plan);
        let r = 3;
        let x = batch_input(a.ncols(), r, 11);
        let mut y = vec![0.0; a.nrows() * r];
        seq(&cp, r).apply_batch_iters(&x, &mut y, r, 3);
        for q in 0..r {
            let xq = column(&x, a.ncols(), r, q);
            let want = a.spmv_alloc(&a.spmv_alloc(&a.spmv_alloc(&xq)));
            assert_close(&column(&y, a.nrows(), r, q), &want);
        }
    }

    #[test]
    fn oversized_workspace_accepts_smaller_batches() {
        let (a, plan) = square_setup(10, 2);
        let cp = CompiledPlan::compile(&plan);
        let mut op = seq(&cp, 8);
        for r in [1usize, 2, 5, 8] {
            let x = batch_input(a.ncols(), r, 3);
            let mut y = vec![0.0; a.nrows() * r];
            op.apply_batch(&x, &mut y, r);
            for q in 0..r {
                let xq = column(&x, a.ncols(), r, q);
                assert_close(&column(&y, a.nrows(), r, q), &a.spmv_alloc(&xq));
            }
        }
    }
}
