//! End-to-end pipeline tests: generate → partition → plan → execute,
//! checked against the serial SpMV reference on every partition class the
//! paper evaluates.

use s2d::baselines::{
    partition_1d_b, partition_1d_rowwise, partition_2d_fine_grain, partition_checkerboard,
    partition_s2d_mg,
};
use s2d::core::heuristic::{s2d_from_vector_partition, HeuristicConfig};
use s2d::core::optimal::s2d_optimal;
use s2d::gen::{suite_a, suite_b, Scale};
use s2d::sparse::Csr;
use s2d::spmv::SpmvPlan;

fn input_vector(n: usize) -> Vec<f64> {
    // Deterministic, irregular, sign-mixed values so cancellation bugs and
    // misrouted entries cannot hide behind symmetric inputs.
    (0..n).map(|j| ((j * 2654435761) % 1000) as f64 / 97.0 - 5.0).collect()
}

fn assert_close(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-9 * w.abs().max(1.0);
        assert!((g - w).abs() <= tol, "{ctx}: y[{i}] = {g}, want {w}");
    }
}

/// One multiply on the compiled plan with real message passing: one
/// OS thread per rank over the runtime's endpoints.
fn execute_threaded(plan: &SpmvPlan, x: &[f64]) -> Vec<f64> {
    use s2d::engine::{CompiledPlan, EndpointOperator};
    use s2d::SpmvOperator;
    let chaos = s2d::runtime::ChaosConfig::off();
    let mut y = vec![0.0; plan.nrows];
    EndpointOperator::new(CompiledPlan::compile(plan), chaos, None).apply(x, &mut y);
    y
}

/// Runs every SpMV algorithm legal for the partition and compares against
/// the serial reference.
fn check_all_executors(a: &Csr, p: &s2d::core::SpmvPartition, ctx: &str) {
    let x = input_vector(a.ncols());
    let want = a.spmv_alloc(&x);

    let two = SpmvPlan::two_phase(a, p);
    assert_close(&two.execute_mailbox(&x), &want, &format!("{ctx}/two-phase/mailbox"));

    if p.is_s2d(a) {
        let single = SpmvPlan::single_phase(a, p);
        assert_close(&single.execute_mailbox(&x), &want, &format!("{ctx}/single/mailbox"));
        assert_close(&execute_threaded(&single, &x), &want, &format!("{ctx}/single/threaded"));

        let mesh = SpmvPlan::mesh_default(a, p);
        assert_close(&mesh.execute_mailbox(&x), &want, &format!("{ctx}/mesh/mailbox"));
        assert_close(&execute_threaded(&mesh, &x), &want, &format!("{ctx}/mesh/threaded"));
    }
}

#[test]
fn suite_a_pipeline_all_methods() {
    let k = 8;
    for spec in suite_a() {
        let a = spec.generate(Scale::Tiny, 7);
        let oned = partition_1d_rowwise(&a, k, 0.03, 7);
        check_all_executors(&a, &oned.partition, &format!("{}/1D", spec.name));

        let heur = s2d_from_vector_partition(
            &a,
            &oned.row_part,
            &oned.col_part,
            &HeuristicConfig::default(),
        );
        assert!(heur.is_s2d(&a), "{}: heuristic must be s2D", spec.name);
        check_all_executors(&a, &heur, &format!("{}/s2D", spec.name));
    }
}

#[test]
fn suite_b_pipeline_s2d_and_mesh() {
    let k = 16;
    for spec in suite_b().into_iter().take(4) {
        let a = spec.generate(Scale::Tiny, 3);
        let oned = partition_1d_rowwise(&a, k, 0.03, 3);
        let heur = s2d_from_vector_partition(
            &a,
            &oned.row_part,
            &oned.col_part,
            &HeuristicConfig::default(),
        );
        check_all_executors(&a, &heur, &format!("{}/s2D-b", spec.name));
    }
}

#[test]
fn fine_grain_two_phase_executes_correctly() {
    for spec in suite_a().into_iter().take(3) {
        let a = spec.generate(Scale::Tiny, 11);
        let p = partition_2d_fine_grain(&a, 8, 0.03, 11);
        check_all_executors(&a, &p, &format!("{}/2D", spec.name));
    }
}

#[test]
fn medium_grain_is_s2d_and_executes() {
    for spec in suite_a().into_iter().take(3) {
        let a = spec.generate(Scale::Tiny, 5);
        let p = partition_s2d_mg(&a, 8, 0.03, 5);
        assert!(p.is_s2d(&a), "{}: s2D-mg must satisfy the s2D property", spec.name);
        check_all_executors(&a, &p, &format!("{}/s2D-mg", spec.name));
    }
}

#[test]
fn checkerboard_two_phase_executes() {
    for spec in suite_a().into_iter().take(2) {
        let a = spec.generate(Scale::Tiny, 13);
        let cb = partition_checkerboard(&a, 16, 0.10, 13);
        check_all_executors(&a, &cb.partition, &format!("{}/2D-b", spec.name));
    }
}

#[test]
fn boman_1d_b_executes() {
    for spec in suite_b().into_iter().take(2) {
        let a = spec.generate(Scale::Tiny, 17);
        let oned = partition_1d_rowwise(&a, 16, 0.03, 17);
        let p = partition_1d_b(&a, &oned.row_part, 16);
        check_all_executors(&a, &p, &format!("{}/1D-b", spec.name));
    }
}

#[test]
fn optimal_split_executes_on_suite_matrices() {
    for spec in suite_a().into_iter().take(3) {
        let a = spec.generate(Scale::Tiny, 23);
        let oned = partition_1d_rowwise(&a, 8, 0.03, 23);
        let p = s2d_optimal(&a, &oned.row_part, &oned.col_part, 8);
        assert!(p.is_s2d(&a));
        check_all_executors(&a, &p, &format!("{}/s2D-opt", spec.name));
    }
}

#[test]
fn batched_pipeline_matches_r_independent_serial_spmvs() {
    // The full generate → partition → plan → compile → execute-batch
    // pipeline: Y = A·X for an r-column X must equal r independent
    // serial SpMVs, on both the sequential executor and the
    // worker pool, for specialized (2, 8) and generic (3) widths.
    use s2d::engine::{CompiledPlan, ParallelEngine, PoolOptions};
    use s2d::SpmvOperator;
    let k = 8;
    for spec in suite_a().into_iter().take(2) {
        let a = spec.generate(Scale::Tiny, 19);
        let oned = partition_1d_rowwise(&a, k, 0.03, 19);
        let heur = s2d_from_vector_partition(
            &a,
            &oned.row_part,
            &oned.col_part,
            &HeuristicConfig::default(),
        );
        let plan = SpmvPlan::single_phase(&a, &heur);
        let cp = CompiledPlan::compile(&plan);
        for r in [2usize, 3, 8] {
            let n = a.ncols();
            // Row-major n×r block with genuinely distinct columns.
            let x: Vec<f64> = (0..n * r)
                .map(|i| {
                    let (g, q) = (i / r, i % r);
                    ((g * 2654435761 + q * 97) % 1000) as f64 / 97.0 - 5.0
                })
                .collect();
            let mut y_seq = vec![0.0; a.nrows() * r];
            ParallelEngine::with_options(
                cp.clone(),
                PoolOptions { threads: 1, width: r, ..PoolOptions::default() },
            )
            .apply_batch(&x, &mut y_seq, r);
            let mut pool = ParallelEngine::with_options(
                cp.clone(),
                PoolOptions { width: r, ..PoolOptions::default() },
            );
            let mut y_pool = vec![0.0; a.nrows() * r];
            pool.apply_batch(&x, &mut y_pool, r);
            for q in 0..r {
                let xq: Vec<f64> = (0..n).map(|g| x[g * r + q]).collect();
                let want = a.spmv_alloc(&xq);
                let got_seq: Vec<f64> = (0..a.nrows()).map(|g| y_seq[g * r + q]).collect();
                let got_pool: Vec<f64> = (0..a.nrows()).map(|g| y_pool[g * r + q]).collect();
                let ctx = format!("{}/batch r={r} col {q}", spec.name);
                assert_close(&got_seq, &want, &format!("{ctx}/seq"));
                assert_close(&got_pool, &want, &format!("{ctx}/pool"));
            }
        }
    }
}

#[test]
fn repeated_spmv_is_stateless() {
    // Executing the same plan twice (iterative-solver usage) must give
    // identical answers: no partial-accumulator state leaks between runs.
    let spec = &suite_a()[1];
    let a = spec.generate(Scale::Tiny, 29);
    let oned = partition_1d_rowwise(&a, 8, 0.03, 29);
    let p =
        s2d_from_vector_partition(&a, &oned.row_part, &oned.col_part, &HeuristicConfig::default());
    let plan = SpmvPlan::single_phase(&a, &p);
    let x = input_vector(a.ncols());
    let y1 = plan.execute_mailbox(&x);
    let y2 = plan.execute_mailbox(&x);
    assert_eq!(y1, y2);
    // The endpoint walker keeps the oracle's accumulation order.
    assert_eq!(execute_threaded(&plan, &x), y1, "threaded repeat");
}

#[test]
fn rectangular_matrix_pipeline() {
    // The paper's formulation covers m×n matrices; exercise a wide and a
    // tall instance through the full pipeline.
    use s2d::sparse::Coo;
    let mut wide = Coo::new(40, 100);
    for i in 0..40 {
        for d in 0..5 {
            wide.push(i, (i * 2 + d * 19) % 100, (i + d) as f64 + 0.5);
        }
    }
    wide.compress();
    let wide = wide.to_csr();
    let oned = partition_1d_rowwise(&wide, 4, 0.10, 31);
    let p = s2d_from_vector_partition(
        &wide,
        &oned.row_part,
        &oned.col_part,
        &HeuristicConfig::default(),
    );
    check_all_executors(&wide, &p, "wide/s2D");

    let tall = wide.transpose();
    let oned_t = partition_1d_rowwise(&tall, 4, 0.10, 31);
    let pt = s2d_optimal(&tall, &oned_t.row_part, &oned_t.col_part, 4);
    check_all_executors(&tall, &pt, "tall/s2D-opt");
}
