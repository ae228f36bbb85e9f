//! One workload run: the untraced pass that produces the end-to-end
//! metrics ([`end_to_end`]) and the traced pass that wraps every layer
//! call in a span and produces the per-layer metrics ([`per_layer`]).
//!
//! Thread discipline: the pool's idle workers spin on a barrier, so at
//! most one pool-backed session is alive at a time and never while
//! something else is being timed.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use s2d::baselines::partition_1d_rowwise;
use s2d::core::comm::s2d_comm_stats;
use s2d::core::heuristic::{s2d_heuristic_kway, HeuristicConfig};
use s2d::core::optimal::s2d_optimal;
use s2d::core::partition::SpmvPartition;
use s2d::engine::CompiledPlan;
use s2d::obs::Phase;
use s2d::solver::pagerank;
use s2d::sparse::io::{read_matrix_market, write_matrix_market};
use s2d::sparse::Csr;
use s2d::spmv::plan::volume_matches_eq3;
use s2d::{
    Backend, KernelFormat, KernelIsa, PartitionQuality, PartitionerConfig, PlanKind, Prepared,
    Session,
};
use s2d_serve::{Server, ServerConfig};
use s2d_tune::{TuneBudget, Tuner};

use crate::machine::{peak_rss_mb, triad_pass};
use crate::measure::{interleave, sample, Op, Samples, SpanSink, Tally, BLOCK, SHORT_BLOCK};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{
    close, generate, reference, rhs, strategy, ApplyOp, Input, Kind, ServeOp, ServeVectors,
    SessionSlot, SolveOp, BATCH, PIPELINE_DEPTH, TOL,
};

pub struct RunConfig {
    pub kind: Kind,
    pub name: &'static str,
    pub seed: u64,
    /// Seconds spent in timed windows.
    pub seconds: f64,
    pub smoke: bool,
}

/// What one pass produced.
pub struct Outcome {
    /// One entry per declared metric, in declaration order.
    pub metrics: Vec<(&'static MetricSpec, Summary)>,
    pub tally: Tally,
    /// False when an invariant of the paper does not hold (the run
    /// fails outright, whatever the operation counts say).
    pub correct: bool,
    /// Absolute figures behind the normalised end-to-end metrics
    /// (`(name, summary, unit)`): printed and kept in result files,
    /// but not part of the gated metric set.
    pub info: Vec<(&'static str, Summary, &'static str)>,
    /// Human-readable findings: broken invariants, coverage gaps.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

/// Metric values collected during a pass; [`Metrics::finish`] lines
/// them up with the declared table.
struct Metrics {
    table: &'static [MetricSpec],
    values: Vec<(&'static str, Summary)>,
}

impl Metrics {
    fn new(table: &'static [MetricSpec]) -> Metrics {
        Metrics { table, values: Vec::new() }
    }

    fn set(&mut self, name: &'static str, summary: Summary) {
        assert!(self.table.iter().any(|m| m.name == name), "{name} is not a declared metric");
        self.values.push((name, summary));
    }

    fn value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// Records seconds per call as a millisecond metric; returns the
    /// median in seconds.
    fn timing_ms(&mut self, name: &'static str, secs: &[f64]) -> f64 {
        let s = Summary::of(secs);
        self.set(name, s.scaled(1e3));
        s.median
    }

    /// Declared metrics the workload does not exercise read 0.
    fn finish(self) -> Vec<(&'static MetricSpec, Summary)> {
        self.table
            .iter()
            .map(|spec| {
                let found = self.values.iter().rev().find(|(n, _)| *n == spec.name);
                (spec, found.map_or(Summary::single(0.0), |(_, s)| s.clone()))
            })
            .collect()
    }
}

/// Up to three cold set-ups, stopping early once another one would
/// take the set-up phase past this many seconds (the dense-row input
/// needs 11 to 13 s per set-up; one is then all a run can afford).
const SETUP_BUDGET: Duration = Duration::from_secs(14);
const MAX_SETUPS: usize = 3;

/// Repeats `setup` under the [`SETUP_BUDGET`] rule; each call must
/// build fresh objects. Returns seconds per set-up and the last result
/// (earlier ones are dropped before the next is timed).
fn cold_setups<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::new();
    let phase = Instant::now();
    loop {
        let t = Instant::now();
        let built = setup();
        let took = t.elapsed();
        secs.push(took.as_secs_f64());
        if secs.len() >= MAX_SETUPS || phase.elapsed() + took > SETUP_BUDGET {
            return (secs, built);
        }
        drop(built);
    }
}

/// Matrix in hand → operator ready, the way a library user does it.
fn direct_setup(a: &Csr, k: usize) -> (Prepared, Session) {
    let prep =
        Session::builder(a).partitioner(strategy(), k).kernel_format(KernelFormat::Auto).prepare();
    let session = auto_session(&prep);
    (prep, session)
}

/// Partition in hand → ready session (the CLI's `spmv m.mtx p.s2dpart`
/// path and the tuner's per-candidate cost), once; returns its seconds.
/// The session is dropped again before returning.
fn plan_setup(a: &Csr, p: &SpmvPartition) -> f64 {
    let t = Instant::now();
    let prep = Session::builder(a).partition(p).kernel_format(KernelFormat::Auto).prepare();
    let session = auto_session(&prep);
    let secs = t.elapsed().as_secs_f64();
    drop(session);
    secs
}

/// The paper's invariants on a partition and its plan; a violation
/// fails the run outright.
fn check_invariants(a: &Csr, prep: &Prepared, notes: &mut Vec<String>) -> bool {
    let mut ok = true;
    if !prep.partition().is_s2d(a) {
        notes.push("INVARIANT BROKEN: the partition is not s2D".to_string());
        ok = false;
    }
    if !volume_matches_eq3(a, prep.partition(), prep.plan()) {
        notes.push("INVARIANT BROKEN: plan volume differs from equation (3)".to_string());
        ok = false;
    }
    ok
}

/// `max_load_pct`: the heaviest rank's load as a percentage of the
/// average (100 + the paper's LI). Spelled this way because LI itself
/// sits near zero on balanced inputs, where a relative bound on it
/// would mean nothing.
fn max_load_pct(q: &PartitionQuality) -> f64 {
    100.0 * (1.0 + q.load_imbalance)
}

fn quality_metrics(m: &mut Metrics, q: &PartitionQuality) {
    m.value("comm_volume_words", q.volume as f64);
    m.value("max_load_pct", max_load_pct(q));
    m.value("max_send_msgs", f64::from(q.max_send_msgs));
    m.value("model_speedup", q.speedup);
}

fn window(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// The plain serial CSR product, written out here so that no change
/// to the repo can move the yardstick: `y = A·x`, one thread, no
/// partition, no plan.
fn plain_spmv(a: &Csr, x: &[f64], y: &mut [f64]) {
    let (rowptr, colind, values) = (a.rowptr(), a.colind(), a.values());
    for (i, yi) in y.iter_mut().enumerate() {
        let mut sum = 0.0;
        for e in rowptr[i]..rowptr[i + 1] {
            sum += values[e] * x[colind[e] as usize];
        }
        *yi = sum;
    }
}

/// The yardstick of the untraced pass: seconds per [`plain_spmv`] of
/// the workload's own matrix, sampled in blocks that take turns with
/// the measured ones. Timings are reported as multiples of it. On the
/// development VM a noisy neighbour slows everything by 20 to 100 % for
/// minutes at a time; that lands on the yardstick as it lands on the
/// measurement and drops out of their ratio (absolute medians moved by
/// up to 39 % between two sets of ten runs, the ratios by under 5 %).
///
/// While a yardstick block runs nothing else may be runnable. A
/// pool-backed session keeps spinning workers, so the yardstick takes
/// the session out of its slot for the length of its block and puts a
/// fresh one (same preparation, same backend) back afterwards.
struct Yardstick<'a> {
    a: &'a Csr,
    x: Vec<f64>,
    y: Vec<f64>,
    calls: usize,
    park: Option<(&'a SessionSlot, &'a Prepared)>,
}

impl Op for Yardstick<'_> {
    fn begin_block(&mut self) {
        if let Some((slot, _)) = self.park {
            slot.borrow_mut().take();
        }
    }
    fn call(&mut self) {
        plain_spmv(self.a, &self.x, &mut self.y);
        self.calls += 1;
    }
    fn end_block(&mut self) {
        if let Some((slot, prep)) = self.park {
            *slot.borrow_mut() = Some(auto_session(prep));
        }
    }
    fn tally(&self) -> Tally {
        Tally { attempted: self.calls, failed: 0 }
    }
}

impl<'a> Yardstick<'a> {
    fn new(a: &'a Csr, tally: &mut Tally) -> Yardstick<'a> {
        let x = rhs(a.ncols(), 1, 1);
        let mut y = vec![0.0; a.nrows()];
        plain_spmv(a, &x, &mut y);
        tally.attempted += 1;
        if !close(&y, &a.spmv_alloc(&x), TOL) {
            tally.failed += 1;
        }
        Yardstick { a, x, y, calls: 0, park: None }
    }

    /// Median seconds of a burst of at least three calls and 20 ms.
    fn burst(&mut self) -> f64 {
        let mut secs = Vec::new();
        let start = Instant::now();
        while secs.len() < 3 || start.elapsed() < Duration::from_millis(20) {
            let t = Instant::now();
            self.call();
            secs.push(t.elapsed().as_secs_f64());
        }
        median(&secs)
    }
}

/// A session of the auto-picked backend, sized for [`BATCH`].
fn auto_session(prep: &Prepared) -> Session {
    prep.session(Backend::auto(prep.compiled()), BATCH)
}

/// The quartile of per-block figures that stands for the blocks the
/// machine left alone: the lower one for times, the upper one for
/// rates. Besides the slow drift the yardstick takes out, noise on the
/// development VM comes in bursts of 50 to 500 ms that hit a fifth to a
/// half of a window's blocks, one at a time, and only ever add time. The
/// median over blocks then moves with how many were hit; this quartile
/// does not, as long as a quarter of the blocks ran undisturbed.
fn undisturbed_time(per_block: &[f64]) -> f64 {
    percentile(&sorted(per_block), 25.0)
}

fn undisturbed_rate(per_block: &[f64]) -> f64 {
    percentile(&sorted(per_block), 75.0)
}

/// A summary whose value is the given figure and whose sample count is
/// the number of blocks behind it.
fn blocks_summary(per_block: &[f64], value: f64) -> Summary {
    Summary { median: value, tail: None, samples: per_block.len() }
}

/// Median seconds per call of each block.
fn block_medians(s: &Samples) -> Vec<f64> {
    let mut at = 0;
    s.blocks
        .iter()
        .map(|&(calls, _)| {
            at += calls;
            median(&s.secs[at - calls..at])
        })
        .collect()
}

/// The untraced pass: every end-to-end metric of one workload.
pub fn end_to_end(cfg: &RunConfig) -> Outcome {
    let input = generate(cfg.kind, cfg.seed, cfg.smoke);
    let (a, k) = (&input.a, cfg.kind.k());
    let mut m = Metrics::new(&END_TO_END);
    let mut info = Vec::new();
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    // Where the session under test lives once it exists (declared here
    // because the yardstick, which parks it, must not outlive it).
    let slot: SessionSlot = RefCell::new(None);
    let mut yard = Yardstick::new(a, &mut tally);

    // Cold set-ups. On the serving workload that is a registration on
    // a fresh server (empty plan cache); the direct preparation then
    // supplies the partition-level metrics and what each response must
    // equal (same strategy, k and partitioner seed as the server's,
    // hence the same partition).
    let mut served = None;
    let prep = if cfg.kind == Kind::ServeClosed {
        let (setups, registered) = cold_setups(|| {
            let server = Server::new(ServerConfig::default());
            let sid = server.register(a, strategy(), k);
            (server, sid)
        });
        m.set("setup_s", Summary::of(&setups));
        served = Some(registered);
        direct_setup(a, k).0
    } else {
        let (setups, (prep, session)) = cold_setups(|| direct_setup(a, k));
        m.set("setup_s", Summary::of(&setups));
        drop(session);
        prep
    };
    let correct = check_invariants(a, &prep, &mut notes);
    quality_metrics(&mut m, &PartitionQuality::measure(a, prep.partition(), "s2d"));

    // Partition in hand -> ready session, priced in plain SpMVs
    // measured in a burst after each repetition.
    let (mut plan_secs, mut plan_yard) = (Vec::new(), Vec::new());
    let budget = Duration::from_millis(if cfg.smoke { 50 } else { 1000 });
    let phase = Instant::now();
    while plan_secs.len() < 5 || (phase.elapsed() < budget && plan_secs.len() < 50) {
        let secs = plan_setup(a, prep.partition());
        plan_secs.push(secs);
        plan_yard.push(yard.burst());
    }
    let spmvs = undisturbed_time(&plan_secs) / undisturbed_time(&plan_yard);
    m.set("plan_setup_spmvs", blocks_summary(&plan_secs, spmvs));
    info.push(("plan_setup_ms", Summary::of(&plan_secs).scaled(1e3), "ms"));

    // The steady-state window: request, batched and yardstick blocks
    // take turns, on a session of the auto-picked backend (on the
    // serving workload that session only supplies the expected outputs;
    // the requests go through the server).
    let session = auto_session(&prep);
    let (request_secs, request_blocks, batched_rates, yard_blocks);
    if let Some((server, sid)) = &served {
        let vectors = serve_vectors(a, session, &mut tally);
        let mut solo = ServeOp::new(server, *sid, &vectors, 1);
        let mut piped = ServeOp::new(server, *sid, &vectors, PIPELINE_DEPTH);
        let out = interleave(
            &mut [&mut solo, &mut piped, &mut yard],
            window(cfg.seconds),
            SHORT_BLOCK,
            None,
        );
        tally += solo.tally();
        tally += piped.tally();
        let snap = server.snapshot();
        if snap.rejected_full + snap.expired > 0 {
            notes.push(format!("{} rejected, {} expired", snap.rejected_full, snap.expired));
        }
        // Entry 0 of the client's per-block records is the warm-up.
        request_blocks = solo.latencies[1..].iter().map(|b| median(b)).collect::<Vec<_>>();
        request_secs = solo.timed_latencies();
        batched_rates = piped.timed_rates().to_vec();
        yard_blocks = block_medians(&out[2]);
    } else {
        *slot.borrow_mut() = Some(session);
        yard.park = Some((&slot, &prep));
        let mut batched = ApplyOp::new(&slot, a, BATCH);
        let mut single = ApplyOp::new(&slot, a, 1);
        let mut solve;
        let request: &mut dyn Op = if cfg.kind == Kind::RmatPagerank {
            solve = SolveOp::new(&slot, &input);
            &mut solve
        } else {
            &mut single
        };
        let out = interleave(
            &mut [&mut *request, &mut batched, &mut yard],
            window(cfg.seconds),
            SHORT_BLOCK,
            None,
        );
        tally += request.tally();
        tally += batched.tally();
        request_blocks = block_medians(&out[0]);
        request_secs = out[0].secs.clone();
        batched_rates = out[1].block_rates().iter().map(|calls| calls * BATCH as f64).collect();
        yard_blocks = block_medians(&out[2]);
        yard.park = None;
    }
    tally += yard.tally();

    let serial = undisturbed_time(&yard_blocks);
    let request = undisturbed_time(&request_blocks) / serial;
    m.set("request_spmvs", blocks_summary(&request_blocks, request));
    let speedup = undisturbed_rate(&batched_rates) * serial;
    m.set("batched_speedup", blocks_summary(&batched_rates, speedup));
    m.value("peak_rss_mb", peak_rss_mb());
    info.push(("serial_spmv_ms", blocks_summary(&yard_blocks, serial * 1e3), "ms"));
    info.push(("request_p50_ms", Summary::of(&request_secs).scaled(1e3), "ms"));
    info.push(("batched_rhs_per_s", Summary::of(&batched_rates), "1/s"));
    Outcome { metrics: m.finish(), info, tally, correct, notes, tracer: None }
}

/// Four fixed right-hand sides and the direct session's output for
/// each, every one held against the serial product. Consumes the
/// session so that no pool outlives this call.
fn serve_vectors(a: &Csr, mut session: Session, tally: &mut Tally) -> ServeVectors {
    let xs: Vec<Vec<f64>> = (0..4).map(|i| rhs(a.ncols(), 1, 100 + i)).collect();
    let wants = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; a.nrows()];
            session.apply(x, &mut y);
            tally.attempted += 1;
            if !close(&y, &reference(a, x, 1), TOL) {
                tally.failed += 1;
            }
            y
        })
        .collect();
    ServeVectors { xs, wants }
}

/// One triad pass over arrays with the matrix's footprint.
struct TriadOp {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    calls: usize,
}

impl Op for TriadOp {
    fn call(&mut self) {
        triad_pass(&mut self.a, &self.b, &self.c, 3.0);
        std::hint::black_box(&mut self.a);
        self.calls += 1;
    }
    fn tally(&self) -> Tally {
        Tally { attempted: self.calls, failed: 0 }
    }
}

/// The plain single-thread CSR product of the same problem.
struct SerialOp<'a> {
    a: &'a Csr,
    x: Vec<f64>,
    y: Vec<f64>,
    calls: usize,
}

impl Op for SerialOp<'_> {
    fn call(&mut self) {
        self.a.spmv(&self.x, &mut self.y);
        self.calls += 1;
    }
    fn tally(&self) -> Tally {
        Tally { attempted: self.calls, failed: 0 }
    }
}

/// Bytes one `r`-wide apply moves, computed (not measured): 12 B per
/// stored nonzero, `8·r` B per x/y word and 4 B per gather/scatter
/// index, where the words are the global vectors plus each
/// communicated word once staged out and once staged in.
fn computed_bytes(madds: u64, nrows: usize, ncols: usize, comm_words: u64, r: usize) -> f64 {
    let words = (nrows + ncols) as f64 + 2.0 * comm_words as f64;
    12.0 * madds as f64 + (8.0 * r as f64 + 4.0) * words
}

/// Share of `phase` in the time all ranks recorded.
fn phase_share(report: &s2d::ExecutionReport, phase: Phase) -> f64 {
    let of = |ph: Phase| -> u64 { report.ranks.iter().map(|r| r.phases[ph.index()].nanos).sum() };
    let total: u64 = Phase::all().into_iter().map(of).sum();
    if total == 0 {
        0.0
    } else {
        of(phase) as f64 / total as f64
    }
}

const POOL: Backend = Backend::CompiledPool { threads: 0, pin: false };

/// A full slot.
fn in_slot(session: Session) -> SessionSlot {
    RefCell::new(Some(session))
}

/// The traced pass: every per-layer metric of one workload. Each call
/// into a layer is wrapped in a span by this file; nothing inside the
/// crates is instrumented.
pub fn per_layer(cfg: &RunConfig, scratch: &std::path::Path) -> Outcome {
    let mut tr = Tracer::new(cfg.name);
    let mut m = Metrics::new(&PER_LAYER);
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let mut correct = true;
    let k = cfg.kind.k();
    let root = tr.open("workload", None);

    let (input, secs) =
        tr.within("gen.generate", Some(root), || generate(cfg.kind, cfg.seed, cfg.smoke));
    m.value("gen.generate_ms", secs * 1e3);
    let a = &input.a;

    // sparse: fingerprint and a Matrix Market round trip in memory.
    let (_, secs) =
        tr.within("sparse.fingerprint", Some(root), || std::hint::black_box(a.fingerprint()));
    m.value("sparse.fingerprint_ms", secs * 1e3);
    let coo = a.to_coo();
    let mut text = Vec::new();
    let (wrote, secs) =
        tr.within("sparse.mtx_write", Some(root), || write_matrix_market(&coo, &mut text));
    m.value("sparse.mtx_write_ms", secs * 1e3);
    m.value("sparse.mtx_bytes", text.len() as f64);
    let (back, secs) = tr.within("sparse.mtx_read", Some(root), || read_matrix_market(&text[..]));
    m.value("sparse.mtx_read_ms", secs * 1e3);
    tally.attempted += 1;
    let same_shape = back.as_ref().is_ok_and(|b| {
        let b = b.to_csr();
        (b.nrows(), b.ncols(), b.nnz()) == (a.nrows(), a.ncols(), a.nnz())
    });
    if wrote.is_err() || !same_shape {
        tally.failed += 1;
    }
    drop((coo, text, back));

    // The set-up tree, assembled from the calls the builder makes:
    // setup -> partition.s2d -> {hypergraph.oned_partition,
    // core.s2d_heuristic}, session.prepare, engine.session_build.
    let pcfg = PartitionerConfig::default();
    let setup = tr.open("setup", Some(root));
    let part = tr.open("partition.s2d", Some(setup));
    let (oned, secs) = tr.within("hypergraph.oned_partition", Some(part), || {
        partition_1d_rowwise(a, k, pcfg.epsilon, pcfg.seed)
    });
    m.value("hypergraph.oned_partition_s", secs);
    let (p, secs) = tr.within("core.s2d_heuristic", Some(part), || {
        let hcfg = HeuristicConfig { epsilon: pcfg.epsilon, ..Default::default() };
        s2d_heuristic_kway(a, &oned.row_part, &oned.col_part, k, &hcfg)
    });
    m.value("core.s2d_heuristic_ms", secs * 1e3);
    m.value("partition.s2d_total_s", tr.close(part));
    let (prep, _) = tr.within("session.prepare", Some(setup), || {
        Session::builder(a).partition(&p).kernel_format(KernelFormat::Auto).prepare()
    });
    let auto = Backend::auto(prep.compiled());
    let (mut first_session, secs) =
        tr.within("engine.session_build", Some(setup), || prep.session(auto, BATCH));
    m.value("engine.session_build_ms", secs * 1e3);
    let setup_secs = tr.close(setup);
    m.value("trace.setup_span_s", setup_secs);
    m.value("engine.auto_is_pool", f64::from(u8::from(auto != Backend::CompiledSeq)));

    // First apply on the fresh session, then let it go (it may be a pool).
    let x1 = rhs(a.ncols(), 1, 1);
    let mut y1 = vec![0.0; a.nrows()];
    let (_, secs) =
        tr.within("engine.first_apply", Some(root), || first_session.apply(&x1, &mut y1));
    m.value("engine.first_apply_ms", secs * 1e3);
    tally.attempted += 1;
    if !close(&y1, &reference(a, &x1, 1), TOL) {
        tally.failed += 1;
    }
    m.value("runtime.words_per_iter", first_session.stats().total_volume as f64);
    m.value("runtime.messages_per_iter", first_session.stats().total_messages as f64);
    drop(first_session);

    // The two halves of `prepare`, called directly.
    let (plan, secs) =
        tr.within("spmv.plan_build", Some(root), || Arc::new(PlanKind::auto(a, &p).build(a, &p)));
    m.value("spmv.plan_build_ms", secs * 1e3);
    m.value("spmv.plan_messages", plan.comm_stats().total_messages as f64);
    m.value("spmv.plan_phases", plan.phases.len() as f64);
    let (compiled, secs) = tr.within("engine.compile", Some(root), || {
        CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Auto)
    });
    m.value("engine.compile_ms", secs * 1e3);
    m.value("engine.workspace_bytes", compiled.workspace_bytes() as f64);
    let madds = compiled.total_ops();
    m.value("engine.madds_per_iter", madds as f64);
    drop((plan, compiled));

    // Quality of the 1D step and of the s2D result; the paper's
    // invariants.
    correct &= check_invariants(a, &prep, &mut notes);
    let q1d = PartitionQuality::measure(a, &oned.partition, "1d");
    m.value("hypergraph.oned_volume_words", q1d.volume as f64);
    m.value("hypergraph.oned_max_load_pct", max_load_pct(&q1d));
    let (q, secs) = tr.within("partition.quality_measure", Some(root), || {
        PartitionQuality::measure(a, &p, "s2d")
    });
    m.value("partition.quality_measure_ms", secs * 1e3);
    m.value("core.volume_vs_1d", q.volume as f64 / (q1d.volume as f64).max(1.0));
    m.value("sim.alpha_beta_iter_us", q.alpha_beta_time * 1e6);
    m.value("sim.loggp_iter_us", q.loggp_time * 1e6);
    if cfg.kind == Kind::DenserowK64 {
        let (opt, secs) = tr.within("core.s2d_optimal", Some(root), || {
            s2d_optimal(a, &oned.row_part, &oned.col_part, k)
        });
        let opt_volume = s2d_comm_stats(a, &opt).total_volume;
        m.value("core.s2d_optimal_ms", secs * 1e3);
        m.value("core.optimal_volume_words", opt_volume as f64);
        if opt_volume > q.volume {
            notes.push(format!(
                "INVARIANT BROKEN: optimal volume {opt_volume} > heuristic {}",
                q.volume
            ));
            correct = false;
        }
    }
    drop(oned);

    // Steady state. The window is shared out per timed operation.
    let extra = match cfg.kind {
        Kind::RmatPagerank => 2,
        Kind::ServeClosed => 4,
        _ => 0,
    };
    let per = cfg.seconds / (14 + extra) as f64;
    let bytes_r1 = computed_bytes(madds, a.nrows(), a.ncols(), q.volume, 1);
    m.value("engine.bytes_per_iter", bytes_r1);

    // The existing `.telemetry(true)` switch; no span inside a crate.
    let telemetry = |backend: Backend| {
        let session = Session::builder(a)
            .partition(&p)
            .kernel_format(KernelFormat::Auto)
            .backend(backend)
            .batch_width(BATCH)
            .telemetry(true)
            .build();
        in_slot(session)
    };
    let reset = |slot: &SessionSlot| {
        let slot = slot.borrow();
        slot.as_ref()
            .and_then(Session::telemetry_sink)
            .expect("telemetry session has a sink")
            .reset();
    };
    let shares = |m: &mut Metrics, slot: &SessionSlot| {
        let report =
            slot.borrow().as_ref().and_then(Session::report).expect("telemetry session reports");
        m.value("obs.compute_share", phase_share(&report, Phase::Compute));
        m.value("obs.gather_share", phase_share(&report, Phase::Gather));
        m.value("obs.scatter_share", phase_share(&report, Phase::Scatter));
        m.value("obs.barrier_share", phase_share(&report, Phase::BarrierWait));
        m.value("obs.observed_imbalance", report.load_imbalance);
        report.workers.map_or(0.0, |w| w.imbalance())
    };
    let pool_is_auto = auto != Backend::CompiledSeq;

    // Phase A: everything sequential, interleaved in one window. Every
    // op is recorded as spans except `seq_r1`, whose span-recorded
    // `twin` and telemetry-on `observed` siblings give the two
    // overhead figures (sequential timings can be read to a few per
    // cent; the pool's cannot).
    let steady = tr.open("steady", Some(root));
    let seq = in_slot(prep.session(Backend::CompiledSeq, BATCH));
    let fmt = |f: KernelFormat| in_slot(prep.with_format(f).session(Backend::CompiledSeq, BATCH));
    let (csr, sell, dense) = (
        fmt(KernelFormat::CsrSlice),
        fmt(KernelFormat::DEFAULT_SELL),
        fmt(KernelFormat::DenseRowSplit),
    );
    let scalar = in_slot(prep.with_isa(KernelIsa::Scalar).session(Backend::CompiledSeq, BATCH));
    let observed = telemetry(Backend::CompiledSeq);
    let mut serial = SerialOp { a, x: x1.clone(), y: vec![0.0; a.nrows()], calls: 0 };
    let len = (bytes_r1 as usize / 24).max(1024);
    let mut triad = TriadOp { a: vec![0.0; len], b: vec![1.0; len], c: vec![2.0; len], calls: 0 };
    let mut seq_r1 = ApplyOp::new(&seq, a, 1);
    let mut seq_r8 = ApplyOp::new(&seq, a, BATCH);
    let mut csr_r8 = ApplyOp::new(&csr, a, BATCH);
    let mut sell_r8 = ApplyOp::new(&sell, a, BATCH);
    let mut dense_r8 = ApplyOp::new(&dense, a, BATCH);
    let mut scalar_r8 = ApplyOp::new(&scalar, a, BATCH);
    let mut twin = ApplyOp::new(&seq, a, 1);
    let mut observed_r1 = ApplyOp::new(&observed, a, 1);
    reset(&observed);
    let names = [
        Some("sparse.serial_spmv"),
        Some("engine.triad"),
        None,
        Some("engine.seq_apply_r8"),
        Some("engine.fmt_csr_r8"),
        Some("engine.fmt_sell_r8"),
        Some("engine.fmt_dense_r8"),
        Some("engine.isa_scalar_r8"),
        Some("engine.seq_apply_r1"),
        Some("obs.telemetry_apply_r1"),
    ];
    let out = interleave(
        &mut [
            &mut serial,
            &mut triad,
            &mut seq_r1,
            &mut seq_r8,
            &mut csr_r8,
            &mut sell_r8,
            &mut dense_r8,
            &mut scalar_r8,
            &mut twin,
            &mut observed_r1,
        ],
        window(per * names.len() as f64),
        SHORT_BLOCK,
        Some(SpanSink { tracer: &mut tr, names: &names, parent: Some(steady) }),
    );
    // Cross-format and cross-ISA outputs must equal the base bitwise.
    for (label, op) in
        [("csr", &csr_r8), ("sell", &sell_r8), ("dense", &dense_r8), ("scalar", &scalar_r8)]
    {
        tally.attempted += 1;
        if op.output() != seq_r8.output() {
            tally.failed += 1;
            notes.push(format!("{label} r8 output differs bitwise from the auto-format output"));
        }
    }
    let seq_output_r1 = seq_r1.output().to_vec();
    let seq_output_r8 = seq_r8.output().to_vec();
    for op in [&seq_r1, &seq_r8, &csr_r8, &sell_r8, &dense_r8, &scalar_r8, &twin, &observed_r1] {
        tally += op.tally();
    }
    tally += serial.tally();
    tally += triad.tally();
    m.timing_ms("sparse.serial_spmv_ms", &out[0].secs);
    let triad_gbs = (len * 24) as f64 / median(&out[1].secs) / 1e9;
    m.value("engine.triad_gbytes_per_s", triad_gbs);
    let seq_r1_secs = m.timing_ms("engine.seq_apply_r1_ms", &out[2].secs);
    m.timing_ms("engine.seq_apply_r8_ms", &out[3].secs);
    m.timing_ms("engine.fmt_csr_r8_ms", &out[4].secs);
    m.timing_ms("engine.fmt_sell_r8_ms", &out[5].secs);
    m.timing_ms("engine.fmt_dense_r8_ms", &out[6].secs);
    m.timing_ms("engine.isa_scalar_r8_ms", &out[7].secs);
    // The two overheads are a few per cent, less than a burst of noise
    // moves a median: read them off the undisturbed blocks.
    let quiet = |s: &Samples| undisturbed_time(&block_medians(s));
    let overhead_pct = |with: f64, without: f64| (with / without - 1.0) * 100.0;
    m.value("trace.overhead_pct", overhead_pct(quiet(&out[8]), quiet(&out[2])));
    m.value("obs.telemetry_overhead_pct", overhead_pct(quiet(&out[9]), quiet(&out[2])));
    m.value("sim.model_residual", seq_r1_secs / q.alpha_beta_time);
    if !pool_is_auto {
        shares(&mut m, &observed);
    }
    drop((serial, triad, seq_r8, csr_r8, sell_r8, dense_r8, scalar_r8, twin, observed_r1));
    drop((csr, sell, dense, scalar, observed));

    // Phase B: the pool, alone (its idle workers spin, so nothing
    // else is timed while it lives).
    let pool_r1_secs = {
        let pool = in_slot(prep.session(POOL, BATCH));
        let mut pool_r1 = ApplyOp::new(&pool, a, 1);
        let mut pool_r8 = ApplyOp::new(&pool, a, BATCH);
        let out = interleave(
            &mut [&mut pool_r1, &mut pool_r8],
            window(per * 2.0),
            BLOCK,
            Some(SpanSink {
                tracer: &mut tr,
                names: &[Some("engine.pool_apply_r1"), Some("engine.pool_apply_r8")],
                parent: Some(steady),
            }),
        );
        tally.attempted += 1;
        if pool_r1.output() != seq_output_r1 || pool_r8.output() != seq_output_r8 {
            tally.failed += 1;
            notes.push("pool output differs bitwise from the sequential output".to_string());
        }
        tally += pool_r1.tally();
        tally += pool_r8.tally();
        m.timing_ms("engine.pool_apply_r8_ms", &out[1].secs);
        m.timing_ms("engine.pool_apply_r1_ms", &out[0].secs)
    };
    let auto_r1_secs = if pool_is_auto { pool_r1_secs } else { seq_r1_secs };
    m.value("engine.gmadds_per_s", madds as f64 / auto_r1_secs / 1e9);
    let gbs = bytes_r1 / auto_r1_secs / 1e9;
    m.value("engine.gbytes_per_s", gbs);
    m.value("engine.bw_frac", gbs / triad_gbs);

    // Phase C: telemetry on the pool, for the planned chunk imbalance
    // and, when the pool is the auto pick, the phase shares (barrier
    // wait only exists there).
    {
        let pooled = telemetry(POOL);
        let mut op = ApplyOp::new(&pooled, a, 1);
        if pool_is_auto {
            reset(&pooled);
            sample(&mut op, window(per));
        }
        tally += op.tally();
        let planned = if pool_is_auto {
            shares(&mut m, &pooled)
        } else {
            let report = pooled.borrow().as_ref().and_then(Session::report);
            report.and_then(|r| r.workers).map_or(0.0, |w| w.imbalance())
        };
        m.value("engine.pool_planned_imbalance", planned);
    }

    // Phase D: the oracle interpreter.
    {
        let mailbox = in_slot(prep.session(Backend::Mailbox, 1));
        let mut op = ApplyOp::new(&mailbox, a, 1);
        let s = sample(&mut op, window(per));
        tally += op.tally();
        m.timing_ms("spmv.mailbox_apply_ms", &s.secs);
    }

    let rest = Rest {
        tr: &mut tr,
        m: &mut m,
        tally: &mut tally,
        notes: &mut notes,
        steady,
        per,
        seq_r1_secs,
    };
    match cfg.kind {
        Kind::RmatPagerank => solver_layer(&input, &prep, &seq, rest),
        Kind::ServeClosed => serve_layer(a, &prep, scratch, rest),
        _ => {}
    }
    drop(seq_r1);
    tr.close(steady);
    tr.close(root);

    let self_secs = tr.self_seconds();
    m.value("trace.setup_children_share", 1.0 - self_secs["setup"] / setup_secs);
    m.value("trace.spans", tr.len() as f64);
    Outcome { metrics: m.finish(), info: Vec::new(), tally, correct, notes, tracer: Some(tr) }
}

/// What the workload-specific tails of the traced pass share with its
/// body.
struct Rest<'a> {
    tr: &'a mut Tracer,
    m: &'a mut Metrics,
    tally: &'a mut Tally,
    notes: &'a mut Vec<String>,
    /// Parent of every steady-state span.
    steady: SpanId,
    /// Seconds of window per timed operation.
    per: f64,
    /// Median sequential `apply`, the baseline of the overhead figures.
    seq_r1_secs: f64,
}

/// `solver` / `runtime` on the PageRank workload: solves on the ready
/// sequential session, and one SPMD solve over K rank threads
/// (oversubscribed on purpose: informational).
fn solver_layer(input: &Input, prep: &Prepared, seq: &SessionSlot, rest: Rest<'_>) {
    let Rest { tr, m, tally, notes, steady, per, seq_r1_secs } = rest;
    let mut solve = SolveOp::new(seq, input);
    let s = interleave(
        &mut [&mut solve],
        window(per * 2.0),
        BLOCK,
        Some(SpanSink { tracer: tr, names: &[Some("solver.pagerank")], parent: Some(steady) }),
    );
    *tally += solve.tally();
    let solve_secs = median(&s[0].secs);
    let iters = solve.iterations as f64;
    m.value("solver.pagerank_iters", iters);
    m.set("solver.iter_us", Summary::of(&s[0].secs).scaled(1e6 / iters));
    m.value("solver.overhead_frac", 1.0 - iters * seq_r1_secs / solve_secs);

    let (res, secs) = tr.within("runtime.spmd_solve", Some(steady), || {
        pagerank(
            &input.a,
            prep.partition(),
            prep.plan(),
            &input.dangling,
            &crate::workloads::PAGERANK,
        )
    });
    m.value("runtime.spmd_solve_ms", secs * 1e3);
    tally.attempted += 1;
    let (want, _) = crate::workloads::serial_pagerank(&input.a, &input.dangling);
    if !(res.converged && close(&res.ranks, &want, TOL)) {
        tally.failed += 1;
        notes.push("SPMD PageRank disagrees with the serial iteration".to_string());
    }
}

/// `serve` / `tune` on the serving workload.
fn serve_layer(a: &Csr, prep: &Prepared, scratch: &std::path::Path, rest: Rest<'_>) {
    let Rest { tr, m, tally, notes, steady, per, seq_r1_secs } = rest;
    let k = prep.partition().k;
    let vectors = serve_vectors(a, prep.session(Backend::CompiledSeq, 1), tally);

    // Default configuration: solo and pipelined, interleaved.
    {
        let server = Server::new(ServerConfig::default());
        let (sid, _) =
            tr.within("serve.register_cold", Some(steady), || server.register(a, strategy(), k));
        let (hit, secs) =
            tr.within("serve.register_hit", Some(steady), || server.register(a, strategy(), k));
        m.value("serve.register_hit_ms", secs * 1e3);
        server.unregister(hit);
        let mut solo = ServeOp::new(&server, sid, &vectors, 1);
        let mut piped = ServeOp::new(&server, sid, &vectors, PIPELINE_DEPTH);
        interleave(
            &mut [&mut solo, &mut piped],
            window(per * 2.0),
            BLOCK,
            Some(SpanSink {
                tracer: tr,
                names: &[Some("serve.solo_request"), Some("serve.pipelined_request")],
                parent: Some(steady),
            }),
        );
        *tally += solo.tally();
        *tally += piped.tally();
        let solo_secs = sorted(&solo.timed_latencies());
        m.value("serve.solo_overhead_ms", (percentile(&solo_secs, 50.0) - seq_r1_secs) * 1e3);
        m.value("serve.solo_latency_p99_ms", percentile(&solo_secs, 99.0) * 1e3);
        let piped_secs = sorted(&piped.timed_latencies());
        m.set("serve.pipelined_latency_p50_ms", Summary::of(&piped_secs).scaled(1e3));
        m.value("serve.pipelined_latency_p99_ms", percentile(&piped_secs, 99.0) * 1e3);
        let snap = server.snapshot();
        m.value("serve.cache_hit_rate", snap.cache_hit_rate());
        m.value("serve.coalescing_rate", snap.coalescing_rate());
        m.value("serve.rejected", snap.rejected_full as f64);
        m.value("serve.expired", snap.expired as f64);
        if snap.rejected_full + snap.expired > 0 {
            notes.push(format!("serve: {} rejected, {} expired", snap.rejected_full, snap.expired));
        }
    }
    // Coalescing off: the same pipelined client.
    {
        let server = Server::new(ServerConfig { max_coalesce: 1, ..ServerConfig::default() });
        let sid = server.register(a, strategy(), k);
        let mut piped = ServeOp::new(&server, sid, &vectors, PIPELINE_DEPTH);
        sample(&mut piped, window(per));
        *tally += piped.tally();
        m.set("serve.uncoalesced_rps", Summary::of(piped.timed_rates()));
    }
    // Rank-sharded execution: K threads per request (oversubscribed).
    {
        let server = Server::new(ServerConfig { sharded: true, ..ServerConfig::default() });
        let sid = server.register(a, strategy(), k);
        let mut solo = ServeOp::new(&server, sid, &vectors, 1);
        sample(&mut solo, window(per));
        *tally += solo.tally();
        m.set("serve.sharded_apply_ms", Summary::of(&solo.timed_latencies()).scaled(1e3));
    }

    // tune: a cold search and its replay from the on-disk cache; the
    // verdict is discarded.
    let cache = scratch.join("tuning-cache.json");
    let _ = std::fs::remove_file(&cache);
    let tuner = || Tuner::new(a, k).width(BATCH).budget(TuneBudget::fast()).cache(&cache);
    let (cold, secs) = tr.within("tune.cold_search", Some(steady), || tuner().run());
    m.value("tune.cold_search_s", secs);
    m.value("tune.candidates", cold.measurements.len() as f64);
    m.value("tune.winner_over_model", cold.speedup_over_model());
    let (replay, secs) = tr.within("tune.replay", Some(steady), || tuner().run());
    m.value("tune.replay_us", secs * 1e6);
    tally.attempted += 1;
    if cold.cache_hit || !replay.cache_hit {
        tally.failed += 1;
        notes.push("tune: the second run did not replay the cached verdict".to_string());
    }
    let _ = std::fs::remove_file(&cache);
}
