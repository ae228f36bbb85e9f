//! Telemetry acceptance: instrumentation must observe, never perturb.
//!
//! * telemetry-on results are **bitwise identical** to telemetry-off
//!   for every deterministic backend (all four today);
//! * on the compiled sequential path, per-phase time sums approximate
//!   recorded wall time (phases partition the iteration loop);
//! * recorded counters match the plan's static work profile and scale
//!   with batch width and iteration count.

use std::sync::Arc;

use s2d_core::optimal::s2d_optimal;
use s2d_engine::{Backend, CompiledPlan, KernelFormat, KernelIsa};
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_obs::{Phase, TelemetrySink};
use s2d_sparse::Csr;
use s2d_spmv::{PlanKind, SpmvOperator};

const K: usize = 4;

fn matrix() -> Csr {
    rmat(&RmatConfig::graph500(7, 6), 11).to_csr()
}

fn plan_for(a: &Csr) -> Arc<s2d_spmv::SpmvPlan> {
    let n = a.nrows();
    let per = n.div_ceil(K);
    let parts: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
    let p = s2d_optimal(a, &parts, &parts, K);
    Arc::new(PlanKind::SinglePhase.build(a, &p))
}

/// Compiles `plan` to `format` and builds `backend` over the pair,
/// recording on `sink` when given.
fn build(
    backend: Backend,
    plan: &Arc<s2d_spmv::SpmvPlan>,
    width: usize,
    format: KernelFormat,
    sink: Option<&Arc<TelemetrySink>>,
) -> Box<dyn SpmvOperator + Send> {
    let cp = Arc::new(CompiledPlan::compile_with_isa(plan, format, KernelIsa::Auto));
    backend.build(plan, &cp, width, sink.map(Arc::clone))
}

fn input(n: usize, r: usize) -> Vec<f64> {
    (0..n * r).map(|i| ((i as u64).wrapping_mul(48271) % 101) as f64 / 13.0 - 3.5).collect()
}

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (idx, (u, v)) in a.iter().zip(b).enumerate() {
        assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "{what}: y[{idx}]: {u} vs {v}");
    }
}

/// Telemetry on vs off across every backend: identical results
/// (bitwise when the backend is deterministic), for plain, batched and
/// chained applications.
#[test]
fn telemetry_is_bitwise_invisible() {
    let a = matrix();
    let plan = plan_for(&a);
    let n = a.nrows();
    for backend in Backend::all() {
        let label = backend.label();
        let mut plain = build(backend, &plan, 4, KernelFormat::CsrSlice, None);
        let sink = Arc::new(TelemetrySink::new(K));
        let mut obs = build(backend, &plan, 4, KernelFormat::Auto, Some(&sink));

        let x = input(n, 1);
        let (mut y0, mut y1) = (vec![0.0; n], vec![f64::NAN; n]);
        plain.apply(&x, &mut y0);
        obs.apply(&x, &mut y1);
        if obs.deterministic() {
            assert_eq!(y0, y1, "{label}: apply must be bitwise identical under telemetry");
        } else {
            assert_close(&y0, &y1, label);
        }

        let xb = input(n, 3);
        let (mut b0, mut b1) = (vec![0.0; n * 3], vec![f64::NAN; n * 3]);
        plain.apply_batch(&xb, &mut b0, 3);
        obs.apply_batch(&xb, &mut b1, 3);
        if obs.deterministic() {
            assert_eq!(b0, b1, "{label}: apply_batch must be bitwise identical under telemetry");
        } else {
            assert_close(&b0, &b1, label);
        }

        let (mut c0, mut c1) = (vec![0.0; n * 2], vec![f64::NAN; n * 2]);
        plain.apply_batch_iters(&input(n, 2), &mut c0, 2, 5);
        obs.apply_batch_iters(&input(n, 2), &mut c1, 2, 5);
        if obs.deterministic() {
            assert_eq!(
                c0, c1,
                "{label}: apply_batch_iters must be bitwise identical under telemetry"
            );
        } else {
            assert_close(&c0, &c1, label);
        }

        // Something was recorded: wall time and iteration counts moved.
        assert!(sink.wall_nanos() > 0, "{label}: no wall time recorded");
        assert!(sink.iterations() >= 7, "{label}: iterations undercounted");
    }
}

/// On the compiled sequential path, the per-phase spans partition the
/// iteration loop: their sum must land in a sane band around the
/// recorded wall time (below it, since wall also covers dispatch, but
/// not vanishingly below).
#[test]
fn phase_times_sum_to_wall_seq() {
    let a = matrix();
    let plan = plan_for(&a);
    let n = a.nrows();
    let sink = Arc::new(TelemetrySink::new(K));
    let mut op = build(Backend::CompiledSeq, &plan, 1, KernelFormat::Auto, Some(&sink));
    let x = input(n, 1);
    let mut y = vec![0.0; n];
    op.apply_batch_iters(&x, &mut y, 1, 50);

    let wall = sink.wall_nanos();
    assert!(wall > 0);
    let phase_sum: u64 = (0..K).flat_map(|rk| Phase::all().map(|p| sink.rank(rk).nanos(p))).sum();
    assert!(phase_sum <= wall * 11 / 10, "phase sum {phase_sum} exceeds wall {wall} by >10%");
    assert!(
        phase_sum * 2 >= wall,
        "phase sum {phase_sum} is under half of wall {wall}: instrumentation gaps"
    );
    // The compute phase dominates a sequential in-core run's phases.
    let compute: u64 = (0..K).map(|rk| sink.rank(rk).nanos(Phase::Compute)).sum();
    assert!(compute > 0, "no compute time recorded");
}

/// Counters match the plan's static work profile, scaled by batch
/// width × iterations, on both compiled paths.
#[test]
fn counters_match_static_profile() {
    let a = matrix();
    let plan = plan_for(&a);
    let cp = CompiledPlan::compile(&plan);
    let want_madds: u64 = cp.total_ops() as u64;
    let n = a.nrows();
    for backend in [Backend::CompiledSeq, Backend::CompiledPool { threads: 2, pin: false }] {
        let sink = Arc::new(TelemetrySink::new(K));
        let mut op = build(backend, &plan, 2, KernelFormat::CsrSlice, Some(&sink));
        let (r, iters) = (2usize, 3usize);
        let x = input(n, r);
        let mut y = vec![0.0; n * r];
        op.apply_batch_iters(&x, &mut y, r, iters);

        let scale = (r * iters) as u64;
        let madds: u64 = (0..K).map(|rk| sink.rank(rk).madds()).sum();
        assert_eq!(madds, want_madds * scale, "{}: madds", backend.label());
        // Rows: emitted rows per rank (rows with no contributions are
        // never emitted, so this can undershoot nrows).
        let want_rows: u64 = cp.ranks.iter().map(|rp| rp.y_emit.len() as u64).sum();
        let rows: u64 = (0..K).map(|rk| sink.rank(rk).rows()).sum();
        assert_eq!(rows, want_rows * scale, "{}: rows", backend.label());
        // Comm words: every rank's staged sends, summed, × scale.
        let want_words: u64 = (0..K)
            .map(|rk| {
                cp.ranks[rk]
                    .steps
                    .iter()
                    .map(|s| match s {
                        s2d_engine::RankStep::Comm { sends, .. } => {
                            sends.iter().map(|m| m.words() as u64).sum()
                        }
                        _ => 0u64,
                    })
                    .sum::<u64>()
            })
            .sum();
        let words: u64 = (0..K).map(|rk| sink.rank(rk).comm_words()).sum();
        assert_eq!(words, want_words * scale, "{}: comm words", backend.label());
        assert_eq!(sink.iterations(), iters as u64, "{}: iterations", backend.label());
    }
}

/// The in-place and pool drivers run one phase-walk body, so they
/// attribute alike: per rank, the same work counters and the same
/// number of compute, gather and scatter spans (each rank's kernels,
/// clear and emit run on its owner on both), and the in-place driver
/// never waits at a barrier.
#[test]
fn seq_and_pool_attribute_alike() {
    let a = matrix();
    let plan = plan_for(&a);
    let cp = Arc::new(CompiledPlan::compile(&plan));
    let n = a.nrows();
    let observe = |backend: Backend, r: usize, iters: usize| {
        let sink = Arc::new(TelemetrySink::new(K));
        let mut op = backend.build(&plan, &cp, 4, Some(Arc::clone(&sink)));
        let mut y = vec![0.0; n * r];
        op.apply_batch_iters(&input(n, r), &mut y, r, iters);
        sink
    };
    for (r, iters) in [(1, 1), (1, 3), (4, 1), (4, 3)] {
        let seq = observe(Backend::CompiledSeq, r, iters);
        for threads in [1, 3] {
            let pool = observe(Backend::CompiledPool { threads, pin: false }, r, iters);
            for rk in 0..K {
                let (s, p) = (seq.rank(rk), pool.rank(rk));
                let what = format!("r={r} iters={iters} threads={threads} rank {rk}");
                assert_eq!(s.spans(Phase::BarrierWait), 0, "{what}: a team of one never waits");
                assert_eq!(s.rows(), p.rows(), "{what}: rows");
                assert_eq!(s.madds(), p.madds(), "{what}: madds");
                assert_eq!(s.comm_words(), p.comm_words(), "{what}: comm words");
                assert_eq!(s.spans(Phase::Compute), p.spans(Phase::Compute), "{what}: compute");
                assert_eq!(s.spans(Phase::Gather), p.spans(Phase::Gather), "{what}: gather");
                assert_eq!(s.spans(Phase::Scatter), p.spans(Phase::Scatter), "{what}: scatter");
            }
        }
    }
}

/// `TelemetrySink::reset` rearms a sink for reuse without rebuilding
/// the operator.
#[test]
fn sink_reset_between_runs() {
    let a = matrix();
    let plan = plan_for(&a);
    let n = a.nrows();
    let sink = Arc::new(TelemetrySink::new(K));
    let mut op = build(Backend::CompiledSeq, &plan, 1, KernelFormat::Auto, Some(&sink));
    let x = input(n, 1);
    let mut y = vec![0.0; n];
    op.apply(&x, &mut y);
    let first = sink.iterations();
    assert_eq!(first, 1);
    sink.reset();
    assert_eq!(sink.iterations(), 0);
    assert_eq!(sink.wall_nanos(), 0);
    op.apply(&x, &mut y);
    assert_eq!(sink.iterations(), 1);
}
