//! Raw-speed bench: the explicit-SIMD kernel paths (scalar vs AVX2)
//! and the NNZ-chunked worker pool on the three matrix families the
//! kernels were built for — degree-skewed R-MAT, heavy-tailed
//! power-law, regular FEM stencil.
//!
//! Beyond the criterion trajectories, one acceptance ratio is measured
//! directly and asserted:
//!
//! * **ISA**: at r = 8 the AVX2 batch kernels must beat the scalar
//!   reference by ≥ 1.2× on at least one family (skipped with a notice
//!   when the CPU has no AVX2 — the portable path is then the only
//!   path). This holds on a single core: it is pure kernel throughput.
//!
//! The measured matrix is also written as a small JSON artifact
//! (`BENCH_ISA.json`, or the path in `S2D_BENCH_ISA_JSON`) for CI to
//! upload next to the criterion estimates.
//!
//! Run with `cargo bench -p s2d-bench --bench raw_speed`. Fast mode
//! (CI smoke): `S2D_BENCH_FAST=1` shrinks the matrices to 2^11 rows
//! and relaxes the ISA floor for runner jitter.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use s2d_baselines::partition_1d_rowwise;
use s2d_core::heuristic::{s2d_from_vector_partition, HeuristicConfig};
use s2d_engine::{Backend, CompiledPlan, KernelFormat, KernelIsa, ParallelEngine, PoolOptions};
use s2d_gen::fem::fem_like;
use s2d_gen::powerlaw::power_law;
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_obs::best_of;
use s2d_sparse::Csr;
use s2d_spmv::SpmvPlan;

const K: usize = 16;
const R: usize = 8;

/// CI smoke mode: 2^11-row matrices, relaxed assertion floors.
fn fast_mode() -> bool {
    std::env::var("S2D_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn scale() -> u32 {
    if fast_mode() {
        11
    } else {
        14
    }
}

/// The three bench families at the mode's scale.
fn matrices() -> Vec<(&'static str, Csr)> {
    let s = scale();
    let n = 1usize << s;
    vec![
        ("rmat", rmat(&RmatConfig::graph500(s, 8), 1).to_csr()),
        ("powerlaw", power_law(n, 8 * n, 2.2, n / 4, 3)),
        ("fem", fem_like(n, 7.0, 14, 5)),
    ]
}

fn plan_for(a: &Csr) -> SpmvPlan {
    let oned = partition_1d_rowwise(a, K, 0.03, 1);
    let s2d =
        s2d_from_vector_partition(a, &oned.row_part, &oned.col_part, &HeuristicConfig::default());
    SpmvPlan::single_phase(a, &s2d)
}

fn block(n: usize, r: usize) -> Vec<f64> {
    (0..n * r).map(|i| ((i * 37) % 19) as f64 - 9.0).collect()
}

/// The ISAs this machine can run, paired with their bench labels.
fn isas() -> Vec<KernelIsa> {
    if KernelIsa::avx2_available() {
        vec![KernelIsa::Scalar, KernelIsa::Avx2]
    } else {
        vec![KernelIsa::Scalar]
    }
}

/// Criterion trajectories: `raw/isa/<isa>/<matrix>/r<r>` — the
/// sequential compiled path, so the numbers isolate kernel throughput
/// from scheduling.
fn bench_isa(c: &mut Criterion) {
    for (name, a) in matrices() {
        let plan = plan_for(&a);
        for isa in isas() {
            let cp = CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, isa);
            for r in [1usize, R] {
                let x = block(a.ncols(), r);
                let mut ws = cp.workspace_batch(r);
                let mut y = vec![0.0; a.nrows() * r];
                c.bench_function(&format!("raw/isa/{isa}/{name}/r{r}"), |b| {
                    b.iter(|| {
                        cp.execute_batch(&mut ws, &x, &mut y, r);
                        black_box(y[0])
                    })
                });
            }
        }
    }
}

/// Criterion trajectories: `raw/pool/<matrix>/r8` — the persistent
/// pool (NNZ-chunked schedule) at the machine's core count.
fn bench_pool(c: &mut Criterion) {
    for (name, a) in matrices() {
        let mut engine = pool_for(&plan_for(&a));
        let x = block(a.ncols(), R);
        let mut y = vec![0.0; a.nrows() * R];
        engine.execute_batch(&x, &mut y, R); // spawn + warm
        c.bench_function(&format!("raw/pool/{name}/r{R}"), |b| {
            b.iter(|| {
                engine.execute_batch(&x, &mut y, R);
                black_box(y[0])
            })
        });
    }
}

/// The default pool over `plan`, sized for r = 8.
fn pool_for(plan: &SpmvPlan) -> ParallelEngine {
    ParallelEngine::with_options(
        CompiledPlan::compile(plan),
        PoolOptions { width: R, ..PoolOptions::default() },
    )
}

/// One acceptance row: best-of timings for a family at r = 8.
struct Row {
    name: &'static str,
    scalar: f64,
    avx2: Option<f64>,
    pool: f64,
}

impl Row {
    fn isa_ratio(&self) -> Option<f64> {
        self.avx2.map(|v| self.scalar / v)
    }

    fn json(&self) -> String {
        let avx2 = match self.avx2 {
            Some(v) => format!("{v:e}"),
            None => "null".to_string(),
        };
        let ratio = match self.isa_ratio() {
            Some(r) => format!("{r:.4}"),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"matrix\":\"{}\",\"r\":{},\"scalar_secs\":{:e},\"avx2_secs\":{},",
                "\"isa_ratio\":{},\"nnz_chunked_secs\":{:e}}}"
            ),
            self.name, R, self.scalar, avx2, ratio, self.pool,
        )
    }
}

/// Best-of measurement of one (family, isa) sequential leg at r = 8.
fn time_isa(plan: &SpmvPlan, a: &Csr, isa: KernelIsa) -> f64 {
    let cp = CompiledPlan::compile_with_isa(plan, KernelFormat::Auto, isa);
    let x = block(a.ncols(), R);
    let mut ws = cp.workspace_batch(R);
    let mut y = vec![0.0; a.nrows() * R];
    cp.execute_batch(&mut ws, &x, &mut y, R); // warm
    best_of(3, 10, || cp.execute_batch(&mut ws, &x, &mut y, R)).as_secs_f64()
}

/// Best-of measurement of one family's pool leg at r = 8.
fn time_pool(plan: &SpmvPlan, a: &Csr) -> f64 {
    let mut engine = pool_for(plan);
    let x = block(a.ncols(), R);
    let mut y = vec![0.0; a.nrows() * R];
    engine.execute_batch(&x, &mut y, R); // spawn + warm
    best_of(3, 10, || engine.execute_batch(&x, &mut y, R)).as_secs_f64()
}

/// The acceptance matrix itself: ISA legs plus the pool on every
/// family, the asserted ISA ratio, and the JSON artifact for CI.
fn raw_speed_acceptance(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let avx2 = KernelIsa::avx2_available();
    let mut rows = Vec::new();
    println!("--------------------------------------------------------------");
    for (name, a) in matrices() {
        let plan = plan_for(&a);
        let scalar = time_isa(&plan, &a, KernelIsa::Scalar);
        let avx2_t = avx2.then(|| time_isa(&plan, &a, KernelIsa::Avx2));
        let row = Row { name, scalar, avx2: avx2_t, pool: time_pool(&plan, &a) };
        let isa = match row.isa_ratio() {
            Some(r) => format!("avx2 {:.3} ms ({r:.2}x)", row.avx2.unwrap() * 1e3),
            None => "no AVX2 on this CPU".to_string(),
        };
        println!(
            "raw {name}/k{K}/r{R}: scalar {:.3} ms, {isa} | pool {:.3} ms ({cores} cores)",
            scalar * 1e3,
            row.pool * 1e3,
        );
        rows.push(row);
    }
    println!(
        "pool crossover: scalar plans above {:.2e} madds/iter, SIMD plans above {:.2e} \
         (the faster kernels raise the bar for spawning workers)",
        Backend::POOL_OPS_CROSSOVER as f64,
        Backend::POOL_OPS_CROSSOVER_SIMD as f64,
    );

    // JSON artifact for CI upload.
    let path = std::env::var("S2D_BENCH_ISA_JSON").unwrap_or_else(|_| "BENCH_ISA.json".into());
    let body: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\"avx2_available\":{avx2},\"cores\":{cores},\"fast\":{},\"rows\":[{}]}}\n",
        fast_mode(),
        body.join(",")
    );
    if let Err(e) = std::fs::write(&path, &json) {
        println!("note: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }

    // ISA acceptance: AVX2 must pay off at r = 8 on at least one
    // family. Pure kernel throughput — asserted even on one core.
    if avx2 {
        let best = rows.iter().filter_map(Row::isa_ratio).fold(0.0f64, f64::max);
        let floor = if fast_mode() { 1.05 } else { 1.2 };
        println!("best avx2-vs-scalar ratio: {best:.2}x (floor {floor})");
        assert!(
            best >= floor,
            "AVX2 kernels must beat scalar by >= {floor}x at r = {R} on at least one \
             family (best {best:.2}x)"
        );
    } else {
        println!("AVX2 unavailable: ISA acceptance skipped (scalar is the only path)");
    }

    println!("--------------------------------------------------------------");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_isa, bench_pool, raw_speed_acceptance
}
criterion_main!(benches);
