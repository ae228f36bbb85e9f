//! What the shared-memory lowering must not lose.
//!
//! Between ranks that share an address space an expand word is not
//! moved and a fold reads the producer's partial in place. These plans
//! are the ones on which that could show: a partial drained and
//! received for the same row in one communication phase, partials
//! forwarded and re-aggregated across two phases, and the dense-row
//! regime walked over real (chaos-delayed) messages by the same
//! kernels — all held **bitwise** to the mailbox oracle, or, where the
//! existing suites already pin `CompiledSeq` to it, to `CompiledSeq`.
//! And the plan stays a distributed-memory plan: an `x` read before it
//! was sent is still a compile-time "plan bug", and the pool — at every
//! team size, `CompiledSeq` included — refuses hand-built folds that
//! would make two participants touch one slot.

use std::sync::Arc;

use s2d_core::fig1::{fig1_matrix, fig1_partition};
use s2d_core::optimal::s2d_optimal;
use s2d_engine::{
    Backend, CompiledPlan, EndpointOperator, KernelFormat, KernelIsa, ParallelEngine, PoolOptions,
    RankStep,
};
use s2d_gen::denserow::{dense_row_matrix, DenseRowConfig};
use s2d_runtime::ChaosConfig;
use s2d_spmv::{MailboxOperator, MsgSpec, MultTask, PlanPhase, SpmvOperator, SpmvPlan};

/// Row-major `n × r` block of irregular finite values.
fn input(n: usize, r: usize) -> Vec<f64> {
    (0..n * r).map(|i| ((i as u64).wrapping_mul(2654435761) % 193) as f64 / 13.0 - 7.0).collect()
}

/// Three ranks A, B, C = 0, 1, 2 on a 3 × 3 matrix, every rank owning
/// the column of its number. Row 0 belongs to C and all three hold a
/// partial of it; in the first fold phase B drains its partial to C
/// **and** receives A's, which it forwards in the second; then B
/// accumulates into the twice-drained row once more and sends that too.
/// Row 2 makes B multiply by an expanded `x2`.
fn relay_plan() -> SpmvPlan {
    let t = |row, col, val| MultTask { row, col, val };
    let msg = |src, dst, x_cols: &[u32], y_rows: &[u32]| MsgSpec {
        src,
        dst,
        x_cols: x_cols.to_vec(),
        y_rows: y_rows.to_vec(),
    };
    SpmvPlan {
        k: 3,
        nrows: 3,
        ncols: 3,
        x_part: vec![0, 1, 2],
        y_part: vec![2, 0, 1],
        phases: vec![
            PlanPhase::Comm(vec![msg(2, 1, &[2], &[])]),
            PlanPhase::Compute(vec![
                vec![t(0, 0, 1.5), t(1, 0, -0.75)],
                vec![t(0, 1, 2.25), t(2, 1, 0.3), t(2, 2, 1.7)],
                vec![t(0, 2, -3.1)],
            ]),
            PlanPhase::Comm(vec![msg(1, 2, &[], &[0]), msg(0, 1, &[], &[0])]),
            PlanPhase::Comm(vec![msg(1, 2, &[], &[0])]),
            PlanPhase::Compute(vec![vec![], vec![t(0, 1, 0.5)], vec![]]),
            PlanPhase::Comm(vec![msg(1, 2, &[], &[0])]),
        ],
    }
}

/// A mesh-routed s2D plan on a small dense-row matrix: partials hop
/// along mesh columns, are re-aggregated, and hop along mesh rows.
fn mesh_plan() -> SpmvPlan {
    let (n, k) = (96, 6);
    let cfg = DenseRowConfig { n, nnz: 6 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true };
    let a = dense_row_matrix(&cfg, 5);
    let parts: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
    SpmvPlan::mesh(&a, &s2d_optimal(&a, &parts, &parts, k), 2, 3)
}

/// The step indices at which rank `rk` folds.
fn fold_steps(cp: &CompiledPlan, rk: usize) -> Vec<usize> {
    cp.ranks[rk]
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, RankStep::Comm { folds, .. } if !folds.is_empty()))
        .map(|(p, _)| p)
        .collect()
}

/// As `CompiledSeq`, on the pool with 1, 2 and 3 participants, and over
/// endpoints, at r ∈ {1, 3, 8} and over 3 chained iterations: every
/// output equals the mailbox oracle's bit for bit.
fn assert_every_driver_matches_the_mailbox(plan: SpmvPlan, what: &str) {
    let plan = Arc::new(plan);
    let n = plan.nrows;
    let mut oracle = MailboxOperator::new(Arc::clone(&plan));
    for format in [KernelFormat::CsrSlice, KernelFormat::Auto] {
        let cp = Arc::new(CompiledPlan::compile_with_isa(&plan, format, KernelIsa::Auto));
        let mut ws = Backend::CompiledSeq.build(&plan, &cp, 8, None);
        let mut pools: Vec<ParallelEngine> = (1..=3)
            .map(|threads| {
                let opts = PoolOptions { threads, width: 8, ..PoolOptions::default() };
                ParallelEngine::with_options(Arc::clone(&cp), opts)
            })
            .collect();
        let mut endpoints = EndpointOperator::new(Arc::clone(&cp), ChaosConfig::off(), None);
        for iters in [1usize, 3] {
            for r in [1usize, 3, 8] {
                let at = format!("{what}/{format}/r={r}/iters={iters}");
                let x = input(n, r);
                let mut want = vec![f64::NAN; n * r];
                oracle.apply_batch_iters(&x, &mut want, r, iters);
                let mut y = vec![f64::NAN; n * r];
                ws.apply_batch_iters(&x, &mut y, r, iters);
                assert_eq!(y, want, "{at}: compiled-seq");
                for pool in &mut pools {
                    y.fill(f64::NAN);
                    pool.apply_batch_iters(&x, &mut y, r, iters);
                    assert_eq!(y, want, "{at}: pool of {}", pool.threads());
                }
                y.fill(f64::NAN);
                endpoints.apply_batch_iters(&x, &mut y, r, iters);
                assert_eq!(y, want, "{at}: endpoints");
            }
        }
    }
}

#[test]
fn a_row_drained_and_received_in_one_phase_matches_the_mailbox() {
    let plan = relay_plan();
    // The hazard is really there: B folds at the step it drains in, and
    // into another slot than the one C reads meanwhile.
    let cp = CompiledPlan::compile(&plan);
    let RankStep::Comm { sends, y_slots, folds, .. } = &cp.ranks[1].steps[2] else {
        panic!("step 2 is a comm step");
    };
    let drained = y_slots[sends[0].y.start as usize] + cp.ranks[1].y_off as u32;
    assert_eq!(folds.len(), 1, "B receives A's partial");
    assert_ne!(folds[0].1, drained, "the partial B receives must not land in the slot C reads");
    assert_every_driver_matches_the_mailbox(plan, "relay");
}

#[test]
fn partials_forwarded_across_two_phases_match_the_mailbox() {
    let plan = mesh_plan();
    let cp = CompiledPlan::compile(&plan);
    assert!(
        (0..cp.k).any(|rk| fold_steps(&cp, rk).len() >= 2),
        "the test needs a rank that re-aggregates: folds in two comm steps"
    );
    assert_every_driver_matches_the_mailbox(plan, "mesh 2x3");
}

/// The endpoint walker runs the pool's kernels over a
/// private image of the `x` home space: on the dense-row regime at
/// K = 16, quiet or under delivery delays, it must agree with
/// `CompiledSeq` bit for bit.
#[test]
fn endpoint_walker_under_chaos_equals_compiled_seq_on_dense_rows() {
    let (n, k) = (256, 16);
    let cfg = DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true };
    let a = dense_row_matrix(&cfg, 9);
    let parts: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
    let plan = Arc::new(SpmvPlan::single_phase(&a, &s2d_optimal(&a, &parts, &parts, k)));
    for format in KernelFormat::all() {
        let cp = Arc::new(CompiledPlan::compile_with_isa(&plan, format, KernelIsa::Auto));
        for r in [1usize, 4] {
            let x = input(n, r);
            let mut want = vec![0.0; n * r];
            Backend::CompiledSeq.build(&plan, &cp, r, None).apply_batch(&x, &mut want, r);
            let configs = std::iter::once(ChaosConfig::off())
                .chain((0..3).map(|seed| ChaosConfig::with_delays(120, seed)));
            for chaos in configs {
                let mut op = EndpointOperator::new(Arc::clone(&cp), chaos, None);
                let mut y = vec![f64::NAN; n * r];
                op.apply_batch(&x, &mut y, r);
                assert_eq!(y, want, "{format}/r={r}/{chaos:?}");
            }
        }
    }
}

/// Shared memory would have produced the right number — the kernel
/// reads x0 from its home — but rank 1 multiplies by it one phase
/// before it is sent: not a plan a distributed machine can run.
#[test]
#[should_panic(expected = "processor 1 lacks x[0] to multiply: plan bug")]
fn an_x_sent_one_phase_too_late_is_rejected_at_compile_time() {
    let plan = SpmvPlan {
        k: 2,
        nrows: 1,
        ncols: 1,
        x_part: vec![0],
        y_part: vec![1],
        phases: vec![
            PlanPhase::Compute(vec![vec![], vec![MultTask { row: 0, col: 0, val: 1.0 }]]),
            PlanPhase::Comm(vec![MsgSpec { src: 0, dst: 1, x_cols: vec![0], y_rows: vec![] }]),
        ],
    };
    let _ = CompiledPlan::compile(&plan);
}

/// Fig. 1's single-phase plan.
fn fig1_plan() -> SpmvPlan {
    SpmvPlan::single_phase(&fig1_matrix(), &fig1_partition())
}

/// Fig. 1's single-phase plan compiled and, per receiving rank, its
/// first fold pair: `(rank, step, (source, destination))`.
fn fig1_folds() -> (CompiledPlan, Vec<(usize, usize, (u32, u32))>) {
    let cp = CompiledPlan::compile(&fig1_plan());
    let firsts: Vec<_> = (0..cp.k)
        .filter_map(|rk| {
            cp.ranks[rk].steps.iter().enumerate().find_map(|(p, s)| match s {
                RankStep::Comm { folds, .. } => folds.first().map(|&pair| (rk, p, pair)),
                RankStep::Compute(_) => None,
            })
        })
        .collect();
    assert!(firsts.len() >= 2, "the tests need two ranks that fold");
    (cp, firsts)
}

/// A pool of `backend`'s team size over `cp` with the source of rank
/// `rk`'s first fold pair at step `p` overwritten: must refuse to be
/// built.
fn pool_with_fold_source(backend: Backend, mut cp: CompiledPlan, rk: usize, p: usize, src: u32) {
    match &mut cp.ranks[rk].steps[p] {
        RankStep::Comm { folds, .. } => folds[0].0 = src,
        RankStep::Compute(_) => panic!("not a comm step"),
    }
    let _ = backend.build(&Arc::new(fig1_plan()), &Arc::new(cp), 1, None);
}

const TWO: Backend = Backend::CompiledPool { threads: 2, pin: false };

/// A receiver's exclusive view of its own slot and its read-only view
/// of the "producer's" would alias.
#[test]
#[should_panic(expected = "fold source inside the own block")]
fn a_fold_from_the_own_block_is_rejected_by_the_pool() {
    let (cp, firsts) = fig1_folds();
    let (rk, p, (_, dst)) = firsts[0];
    pool_with_fold_source(TWO, cp, rk, p, dst);
}

/// The sequential backend is the pool as a team of one: it validates
/// the hand-built plan like any team and refuses the same fold.
#[test]
#[should_panic(expected = "fold source inside the own block")]
fn a_fold_from_the_own_block_is_rejected_by_compiled_seq() {
    let (cp, firsts) = fig1_folds();
    let (rk, p, (_, dst)) = firsts[0];
    pool_with_fold_source(Backend::CompiledSeq, cp, rk, p, dst);
}

/// Rank A would read the slot rank B folds into with no barrier between
/// them. The compiler never emits this (a partial arriving for a row
/// drained in the same phase gets a fresh slot), so the pool refuses
/// such a plan instead of staging it.
#[test]
#[should_panic(expected = "a fold source is a destination of the same step")]
fn a_fold_from_a_same_step_destination_is_rejected_by_the_pool() {
    let (cp, firsts) = fig1_folds();
    let ((a, p, _), (_, q, (_, b_dst))) = (firsts[0], firsts[1]);
    assert_eq!(p, q, "single-phase: one comm step");
    pool_with_fold_source(TWO, cp, a, p, b_dst);
}
