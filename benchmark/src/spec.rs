//! What the benchmark declares: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is this table written out (`--emit-spec`); a test keeps
//! the two equal.

use crate::json::Json;
use crate::workloads::Kind;

/// The invocation recorded in `BENCHMARK.json`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Seconds one run spends in its timed windows.
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// What generates and drives it.
    pub kind: Kind,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "fem-steady",
        why: "27-point stencil, 65.6k rows, 1.68M nnz, s2d K=8: negligible comm volume, so the engine's kernels, formats and seq-vs-pool choice do the steady-state work; matrix (20 MB) exceeds total L2",
        kind: Kind::FemSteady,
    },
    WorkloadSpec {
        name: "denserow-k64",
        why: "dense-row matrix n=16384, dmax=n/2, s2d K=64: the regime the paper exists for; hypergraph dominates set-up, core decides quality, steady state is gather/scatter plus imbalance",
        kind: Kind::DenserowK64,
    },
    WorkloadSpec {
        name: "rmat-pagerank",
        why: "R-MAT scale 12 link matrix, s2d K=16, PageRank to 1e-10: strong-scaling regime of ~50 chained 70 us applies, so solver vector ops and plan-walk overhead dominate, not bandwidth",
        kind: Kind::RmatPagerank,
    },
    WorkloadSpec {
        name: "serve-closed",
        why: "27-point stencil, 32.8k rows, through s2d-serve with closed-loop clients: window 1 exposes queue, batch-window and copy overhead; window 16 exposes coalescing into r<=8 batches",
        kind: Kind::ServeClosed,
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` on per-layer
    /// metrics, which gate nothing.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; every workload reports all of
/// them (README.md says what `request` and `batched` mean on each, and
/// how each bound follows from the spread measured over ten seeds).
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("plan_setup_spmvs", "spmv", Lower, 0.25),
    e2e("request_spmvs", "spmv", Lower, 0.25),
    e2e("batched_speedup", "x", Higher, 0.25),
    e2e("comm_volume_words", "words", Lower, 0.12),
    e2e("max_load_pct", "%", Lower, 0.08),
    e2e("max_send_msgs", "count", Lower, 0.05),
    e2e("model_speedup", "x", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Metrics of single layers (layer = crate name), from the traced run.
/// A metric a workload does not exercise reads 0 there; README.md has
/// the table of which workload measures what.
pub const PER_LAYER: [MetricSpec; 73] = [
    layer("gen.generate_ms", "ms", Lower),
    layer("sparse.serial_spmv_ms", "ms", Lower),
    layer("sparse.fingerprint_ms", "ms", Lower),
    layer("sparse.mtx_write_ms", "ms", Lower),
    layer("sparse.mtx_read_ms", "ms", Lower),
    layer("sparse.mtx_bytes", "B", Lower),
    layer("hypergraph.oned_partition_s", "s", Lower),
    layer("hypergraph.oned_volume_words", "words", Lower),
    layer("hypergraph.oned_max_load_pct", "%", Lower),
    layer("core.s2d_heuristic_ms", "ms", Lower),
    layer("core.volume_vs_1d", "ratio", Lower),
    layer("core.s2d_optimal_ms", "ms", Lower),
    layer("core.optimal_volume_words", "words", Lower),
    layer("partition.s2d_total_s", "s", Lower),
    layer("partition.quality_measure_ms", "ms", Lower),
    layer("sim.alpha_beta_iter_us", "us", Lower),
    layer("sim.loggp_iter_us", "us", Lower),
    layer("sim.model_residual", "ratio", Lower),
    layer("spmv.plan_build_ms", "ms", Lower),
    layer("spmv.plan_messages", "count", Lower),
    layer("spmv.plan_phases", "count", Lower),
    layer("spmv.mailbox_apply_ms", "ms", Lower),
    layer("engine.compile_ms", "ms", Lower),
    layer("engine.session_build_ms", "ms", Lower),
    layer("engine.first_apply_ms", "ms", Lower),
    layer("engine.workspace_bytes", "B", Lower),
    layer("engine.auto_is_pool", "count", Higher),
    layer("engine.seq_apply_r1_ms", "ms", Lower),
    layer("engine.seq_apply_r8_ms", "ms", Lower),
    layer("engine.pool_apply_r1_ms", "ms", Lower),
    layer("engine.pool_apply_r8_ms", "ms", Lower),
    layer("engine.pool_planned_imbalance", "ratio", Lower),
    layer("engine.fmt_csr_r8_ms", "ms", Lower),
    layer("engine.fmt_sell_r8_ms", "ms", Lower),
    layer("engine.fmt_dense_r8_ms", "ms", Lower),
    layer("engine.isa_scalar_r8_ms", "ms", Lower),
    layer("engine.madds_per_iter", "count", Lower),
    layer("engine.bytes_per_iter", "B", Lower),
    layer("engine.gmadds_per_s", "Gmadd/s", Higher),
    layer("engine.gbytes_per_s", "GB/s", Higher),
    layer("engine.triad_gbytes_per_s", "GB/s", Higher),
    layer("engine.bw_frac", "ratio", Higher),
    layer("obs.compute_share", "ratio", Higher),
    layer("obs.gather_share", "ratio", Lower),
    layer("obs.scatter_share", "ratio", Lower),
    layer("obs.barrier_share", "ratio", Lower),
    layer("obs.observed_imbalance", "ratio", Lower),
    layer("obs.telemetry_overhead_pct", "%", Lower),
    layer("solver.pagerank_iters", "count", Lower),
    layer("solver.iter_us", "us", Lower),
    layer("solver.overhead_frac", "ratio", Lower),
    layer("runtime.words_per_iter", "words", Lower),
    layer("runtime.messages_per_iter", "count", Lower),
    layer("runtime.spmd_solve_ms", "ms", Lower),
    layer("serve.register_hit_ms", "ms", Lower),
    layer("serve.cache_hit_rate", "ratio", Higher),
    layer("serve.coalescing_rate", "ratio", Higher),
    layer("serve.solo_overhead_ms", "ms", Lower),
    layer("serve.solo_latency_p99_ms", "ms", Lower),
    layer("serve.pipelined_latency_p50_ms", "ms", Lower),
    layer("serve.pipelined_latency_p99_ms", "ms", Lower),
    layer("serve.uncoalesced_rps", "1/s", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.expired", "count", Lower),
    layer("serve.sharded_apply_ms", "ms", Lower),
    layer("tune.cold_search_s", "s", Lower),
    layer("tune.replay_us", "us", Lower),
    layer("tune.candidates", "count", Lower),
    layer("tune.winner_over_model", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.setup_span_s", "s", Lower),
    layer("trace.setup_children_share", "ratio", Higher),
    layer("trace.spans", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    let metric = |m: &MetricSpec| {
        let mut o = Json::obj();
        o.set("name", m.name).set("unit", m.unit).set("better", m.better.label());
        if let Some(b) = m.bound {
            o.set("bound", b);
        }
        o
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = Json::obj();
            o.set("name", w.name).set("why", w.why);
            o
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("command", strs(&COMMAND))
        .set("paths", strs(&PATHS))
        .set("run_seconds", RUN_SECONDS)
        .set("workloads", Json::Arr(workloads))
        .set("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect()))
        .set("per_layer", Json::Arr(PER_LAYER.iter().map(metric).collect()));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `-- --emit-spec > BENCHMARK.json`");
    }

    #[test]
    fn the_table_keeps_the_builders_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks the limits");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }
}
