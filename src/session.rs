//! The [`Session`] facade: matrix + partition (hand-built, or produced
//! in-build by a partitioning [`Strategy`]) + plan kind + backend +
//! batch width, chosen fluently, yielding a ready [`SpmvOperator`] plus
//! plan statistics.
//!
//! A session is the unit of amortization: plan construction, backend
//! setup (compilation, buffer allocation, worker threads) and stats
//! extraction happen once in [`SessionBuilder::build`]; afterwards
//! every [`Session::apply`] / [`Session::apply_batch`] runs at
//! steady-state cost. Sessions implement [`SpmvOperator`] themselves,
//! so they inject directly into the `s2d-solver` `*_with` entry points.

use std::sync::Arc;

use s2d_core::comm::CommStats;
use s2d_core::partition::SpmvPartition;
use s2d_engine::{Backend, CompiledPlan, KernelFormat, KernelIsa};
use s2d_obs::{ExecutionReport, ModelRef, TelemetrySink, WorkerLoadReport};
use s2d_partition::{PartitionQuality, PartitionerConfig, Strategy};
use s2d_sparse::Csr;
use s2d_spmv::{PlanKind, SpmvOperator, SpmvPlan};

/// Fluent configuration for a [`Session`]. Start from
/// [`Session::builder`].
pub struct SessionBuilder<'a> {
    a: &'a Csr,
    partition: Option<&'a SpmvPartition>,
    strategy: Option<(Strategy, usize)>,
    partitioner_cfg: PartitionerConfig,
    plan_kind: Option<PlanKind>,
    /// `None`: [`Backend::auto`] decides once the plan is compiled.
    backend: Option<Backend>,
    kernel_format: KernelFormat,
    kernel_isa: KernelIsa,
    batch_width: usize,
    telemetry: bool,
}

impl<'a> SessionBuilder<'a> {
    /// The partition to run on. Either this or
    /// [`SessionBuilder::partitioner`] is required.
    pub fn partition(mut self, p: &'a SpmvPartition) -> Self {
        self.partition = Some(p);
        self
    }

    /// Partition the matrix inside [`SessionBuilder::build`] with
    /// `strategy` over `k` processors — the alternative to hand-building
    /// a partition first. [`Strategy::Auto`] runs the cost-model-driven
    /// selection.
    pub fn partitioner(mut self, strategy: Strategy, k: usize) -> Self {
        assert!(k >= 1, "partitioner needs at least one processor");
        self.strategy = Some((strategy, k));
        self
    }

    /// Knobs for [`SessionBuilder::partitioner`] (ε tolerance, seed);
    /// ignored when an explicit partition is supplied.
    pub fn partitioner_config(mut self, cfg: PartitionerConfig) -> Self {
        self.partitioner_cfg = cfg;
        self
    }

    /// The plan construction to use. Defaults to the best legal one:
    /// single-phase when the partition satisfies the s2D property,
    /// two-phase otherwise ([`PlanKind::build_auto`], one s2D pass).
    pub fn plan_kind(mut self, kind: PlanKind) -> Self {
        self.plan_kind = Some(kind);
        self
    }

    /// The execution backend (default [`Backend::CompiledSeq`] — see
    /// the `s2d_engine::backend` docs for selection guidance).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Let [`Backend::auto`] pick the sequential team of one or a pool
    /// inside [`SessionBuilder::build`], from the compiled plan's op
    /// count and this machine's cores (the CLI's `--engine auto`).
    pub fn auto_backend(mut self) -> Self {
        self.backend = None;
        self
    }

    /// The [`KernelFormat`] compiled kernels are lowered to (default
    /// [`KernelFormat::CsrSlice`]; [`KernelFormat::Auto`] picks per
    /// rank × phase from compile-time row statistics — see the
    /// `s2d_engine::formats` docs for selection guidance). The
    /// mailbox oracle has no kernels and ignores it.
    pub fn kernel_format(mut self, format: KernelFormat) -> Self {
        self.kernel_format = format;
        self
    }

    /// The [`KernelIsa`] compiled kernels select batch paths with
    /// (default [`KernelIsa::Auto`]: probe the CPU once at compile time
    /// and use the AVX2 paths when available). Results are bitwise
    /// identical across ISAs — the SIMD lanes map to the batch
    /// dimension — so this knob only changes speed. The mailbox oracle
    /// ignores it.
    pub fn kernel_isa(mut self, isa: KernelIsa) -> Self {
        self.kernel_isa = isa;
        self
    }

    /// Widest multi-RHS batch the session will run (default 1).
    /// Buffers are sized for it up front; wider batches later still
    /// work but pay a one-time regrowth.
    pub fn batch_width(mut self, width: usize) -> Self {
        assert!(width >= 1, "batch width must be at least 1");
        self.batch_width = width;
        self
    }

    /// Collect execution telemetry (default off). When on, the built
    /// operator records per-rank phase spans, work counters and wall
    /// time on a shared `s2d_obs::TelemetrySink`, and
    /// [`Session::report`] renders them against the partition's cost-
    /// model prediction. Results are bitwise identical either way;
    /// instrumentation adds only clock reads around the numeric steps.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Runs the expensive per-matrix preparation — partitioning, plan
    /// construction, kernel compilation — and returns the reusable
    /// [`Prepared`] artifact *without* building an operator. This is
    /// the cacheable half of [`SessionBuilder::build`]: a serving layer
    /// keys the result on (matrix fingerprint, strategy, k, plan kind,
    /// kernel format) and later stamps out any number of independent
    /// sessions from it via [`Prepared::session`], skipping every step
    /// this method performed. Backend, batch width and telemetry
    /// settings on the builder are deliberately *not* baked in — they
    /// are per-session choices made at stamp-out time.
    ///
    /// # Panics
    /// As [`SessionBuilder::build`].
    pub fn prepare(self) -> Prepared {
        let (partition, strategy) = match (self.partition, self.strategy) {
            (Some(p), None) => (Arc::new(p.clone()), None),
            (None, Some((s, k))) => {
                (Arc::new(s.partition_with(self.a, k, &self.partitioner_cfg)), Some(s))
            }
            (Some(_), Some(_)) => {
                panic!("SessionBuilder: choose either .partition() or .partitioner(), not both")
            }
            (None, None) => panic!("SessionBuilder: a partition or a partitioner is required"),
        };
        let (kind, plan) = match self.plan_kind {
            Some(kind) => (kind, kind.build(self.a, &partition)),
            None => PlanKind::build_auto(self.a, &partition),
        };
        let plan = Arc::new(plan);
        let compiled =
            Arc::new(CompiledPlan::compile_with_isa(&plan, self.kernel_format, self.kernel_isa));
        Prepared {
            fingerprint: self.a.fingerprint(),
            partition,
            strategy,
            kind,
            stats: plan.comm_stats(),
            plan,
            compiled,
        }
    }

    /// Builds the plan, pays the backend's setup cost, and returns the
    /// ready session: [`SessionBuilder::prepare`] followed by
    /// [`Prepared::session`] with the builder's backend and batch
    /// width (and, with [`SessionBuilder::telemetry`], a fresh sink).
    /// When a [`SessionBuilder::partitioner`] strategy was chosen, the
    /// partitioning runs here too.
    ///
    /// # Panics
    /// Panics if neither a partition nor a partitioner was supplied
    /// (or both were), the partition doesn't fit the matrix, or the
    /// chosen plan kind's prerequisites fail (e.g.
    /// [`PlanKind::SinglePhase`] on a non-s2D partition).
    pub fn build(self) -> Session {
        let (a, backend, batch_width, telemetry) =
            (self.a, self.backend, self.batch_width, self.telemetry);
        let prepared = self.prepare();
        let backend = backend.unwrap_or_else(|| Backend::auto(&prepared.compiled));
        let telemetry = telemetry.then(|| {
            let Prepared { partition, strategy, kind, plan, .. } = &prepared;
            let label = strategy.map_or_else(|| "explicit".to_string(), |s| s.to_string());
            let quality = PartitionQuality::measure_plan(a, partition, *kind, plan, label);
            (Arc::new(TelemetrySink::new(partition.k)), quality)
        });
        prepared.stamp(backend, batch_width, telemetry)
    }
}

/// The cacheable product of [`SessionBuilder::prepare`]: partition,
/// plan, its communication statistics and compiled kernels for one
/// (matrix, strategy/partition, plan kind, kernel format) combination.
/// Immutable, and cheap to clone: partition, plan and compiled kernels
/// are shared behind `Arc`s, and only the O(k) statistics are copied.
/// [`Prepared::session`] stamps out independent ready-to-run sessions
/// from it without re-partitioning or recompiling; each session holds a
/// clone, so the partition and plan are shared, not copied, by every
/// session and re-lowered preparation made from it.
#[derive(Clone)]
pub struct Prepared {
    fingerprint: u64,
    partition: Arc<SpmvPartition>,
    strategy: Option<Strategy>,
    kind: PlanKind,
    plan: Arc<SpmvPlan>,
    /// By value: a session copies these few O(k) vectors after its
    /// operator is built, and those last, small blocks keep the
    /// set-up's large freed blocks in the heap for the next set-up
    /// (behind an `Arc`, repeated `fem-steady` set-ups re-faulted
    /// ~13 k pages each and took ~40 % longer).
    stats: CommStats,
    compiled: Arc<CompiledPlan>,
}

impl Prepared {
    /// The source matrix's [`Csr::fingerprint`], captured at prepare
    /// time — the matrix half of a cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The partition the preparation ran on.
    pub fn partition(&self) -> &SpmvPartition {
        &self.partition
    }

    /// The plan kind that was built.
    pub fn plan_kind(&self) -> PlanKind {
        self.kind
    }

    /// The built (uncompiled) plan.
    pub fn plan(&self) -> &Arc<SpmvPlan> {
        &self.plan
    }

    /// The kernel format the plan was compiled with.
    pub fn kernel_format(&self) -> KernelFormat {
        self.compiled.format
    }

    /// The kernel ISA policy the plan was compiled with.
    pub fn kernel_isa(&self) -> KernelIsa {
        self.compiled.isa
    }

    /// The compiled artifact itself — e.g. to read its
    /// [`kernel_stats`](CompiledPlan::kernel_stats) when shortlisting
    /// kernel formats, or its op count for [`Backend::auto`]. Shared,
    /// not copied, by every session stamped from this preparation.
    pub fn compiled(&self) -> &Arc<CompiledPlan> {
        &self.compiled
    }

    /// A new preparation over the *same* partition and plan with the
    /// kernels re-lowered to `format`. This is the cheap leg of a
    /// configuration search: partitioning and plan construction (the
    /// expensive steps) are reused; only kernel compilation runs again.
    pub fn with_format(&self, format: KernelFormat) -> Prepared {
        self.recompiled(format, self.kernel_isa())
    }

    /// Like [`Prepared::with_format`], but re-lowering to the same
    /// format under a different [`KernelIsa`] — the other cheap leg of
    /// a configuration search (results are bitwise identical across
    /// ISAs, so only timing differs).
    pub fn with_isa(&self, isa: KernelIsa) -> Prepared {
        self.recompiled(self.kernel_format(), isa)
    }

    fn recompiled(&self, format: KernelFormat, isa: KernelIsa) -> Prepared {
        let compiled = Arc::new(CompiledPlan::compile_with_isa(&self.plan, format, isa));
        Prepared { compiled, ..self.clone() }
    }

    /// Builds a ready [`Session`] from the cached artifacts: only the
    /// backend's buffer/worker setup cost is paid here — no
    /// partitioning, no plan construction, no kernel compilation. Each
    /// call yields an independent session, so concurrent workers can
    /// each hold one over the same `Prepared`.
    pub fn session(&self, backend: Backend, batch_width: usize) -> Session {
        self.stamp(backend, batch_width, None)
    }

    fn stamp(
        &self,
        backend: Backend,
        batch_width: usize,
        telemetry: Option<(Arc<TelemetrySink>, PartitionQuality)>,
    ) -> Session {
        let sink = telemetry.as_ref().map(|(sink, _)| Arc::clone(sink));
        Session {
            operator: backend.build(&self.plan, &self.compiled, batch_width, sink),
            // Cloned after the build: see the `stats` field.
            prepared: self.clone(),
            backend,
            batch_width,
            telemetry,
        }
    }
}

/// A ready-to-run SpMV session: the [`Prepared`] it was stamped from
/// (partition, plan, communication statistics, compiled kernels) plus
/// one backend operator with all setup cost paid.
pub struct Session {
    prepared: Prepared,
    operator: Box<dyn SpmvOperator + Send>,
    backend: Backend,
    batch_width: usize,
    /// Telemetry sink plus the partition's modeled quality, present
    /// when the session was built with `.telemetry(true)`.
    telemetry: Option<(Arc<TelemetrySink>, PartitionQuality)>,
}

impl Session {
    /// Starts configuring a session over `a`.
    pub fn builder(a: &Csr) -> SessionBuilder<'_> {
        SessionBuilder {
            a,
            partition: None,
            strategy: None,
            partitioner_cfg: PartitionerConfig::default(),
            plan_kind: None,
            backend: Some(Backend::CompiledSeq),
            kernel_format: KernelFormat::CsrSlice,
            kernel_isa: KernelIsa::Auto,
            batch_width: 1,
            telemetry: false,
        }
    }

    /// `y = A·x` (see [`SpmvOperator::apply`]).
    pub fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.operator.apply(x, y)
    }

    /// `Y = A·X` over `r` right-hand sides, row-major blocks (see
    /// [`SpmvOperator::apply_batch`]).
    pub fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.operator.apply_batch(x, y, r)
    }

    /// The built plan.
    pub fn plan(&self) -> &SpmvPlan {
        self.prepared.plan()
    }

    /// Per-iteration communication statistics of the plan (computed
    /// once, by [`SessionBuilder::prepare`]).
    pub fn stats(&self) -> &CommStats {
        &self.prepared.stats
    }

    /// The partition the session runs on (hand-built or produced by the
    /// chosen [`Strategy`]).
    pub fn partition(&self) -> &SpmvPartition {
        self.prepared.partition()
    }

    /// The partitioning strategy that produced the session's partition,
    /// when one was chosen through [`SessionBuilder::partitioner`]
    /// (`None` for hand-built partitions). For [`Strategy::Auto`] this
    /// reports `Auto`, not the concrete winner — use
    /// [`Strategy::auto_pick`] directly when the choice matters.
    pub fn strategy(&self) -> Option<Strategy> {
        self.prepared.strategy
    }

    /// The plan kind that was built.
    pub fn plan_kind(&self) -> PlanKind {
        self.prepared.plan_kind()
    }

    /// The backend executing this session.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// See [`Prepared::kernel_format`] (compiled backends only).
    pub fn kernel_format(&self) -> KernelFormat {
        self.prepared.kernel_format()
    }

    /// See [`Prepared::kernel_isa`] (compiled backends only).
    pub fn kernel_isa(&self) -> KernelIsa {
        self.prepared.kernel_isa()
    }

    /// The batch width requested at build time (what the buffers were
    /// initially sized for — a wider `apply_batch` later grows the
    /// operator's buffers without updating this).
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// The telemetry sink, when the session was built with
    /// [`SessionBuilder::telemetry`] — e.g. to `reset()` between
    /// measured windows.
    pub fn telemetry_sink(&self) -> Option<&Arc<TelemetrySink>> {
        self.telemetry.as_ref().map(|(sink, _)| sink)
    }

    /// The partition's modeled quality (measured at build time), when
    /// the session was built with [`SessionBuilder::telemetry`].
    pub fn quality(&self) -> Option<&PartitionQuality> {
        self.telemetry.as_ref().map(|(_, q)| q)
    }

    /// Snapshot of everything observed so far as an
    /// [`ExecutionReport`]: per-rank × per-phase times and histograms,
    /// observed load imbalance, and observed communication words held
    /// against the partition's α–β / LogGP cost-model prediction.
    /// `None` unless the session was built with
    /// [`SessionBuilder::telemetry`].
    pub fn report(&self) -> Option<ExecutionReport> {
        self.telemetry.as_ref().map(|(sink, quality)| {
            let model = ModelRef {
                comm_words: quality.volume,
                alpha_beta_secs: quality.alpha_beta_time,
                loggp_secs: quality.loggp_time,
            };
            let report = ExecutionReport::collect(sink, self.backend.label(), Some(model));
            match self.operator.worker_loads() {
                // The pool path: the loads are the planned == achieved
                // multiply-adds of the fixed rank→worker map.
                Some(phases) => report.with_workers(WorkerLoadReport::new(phases)),
                None => report,
            }
        })
    }
}

/// Sessions are themselves operators — inject them straight into the
/// solver `*_with` entry points.
impl SpmvOperator for Session {
    fn nrows(&self) -> usize {
        self.prepared.plan.nrows
    }

    fn ncols(&self) -> usize {
        self.prepared.plan.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.operator.apply(x, y)
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.operator.apply_batch(x, y, r)
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        self.operator.apply_batch_iters(x, y, r, iters)
    }

    fn deterministic(&self) -> bool {
        self.operator.deterministic()
    }

    fn worker_loads(&self) -> Option<Vec<Vec<u64>>> {
        self.operator.worker_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};

    #[test]
    fn builder_defaults_pick_the_best_legal_plan() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let mut s = Session::builder(&a).partition(&p).build();
        assert_eq!(s.plan_kind(), PlanKind::SinglePhase, "fig1 partition is s2D");
        assert_eq!(s.backend(), Backend::CompiledSeq);
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 - 5.0).collect();
        let mut y = vec![0.0; a.nrows()];
        s.apply(&x, &mut y);
        let want = a.spmv_alloc(&x);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
        assert!(s.stats().total_volume > 0);
        // A handful of multiply-adds is far below the pool crossover.
        let auto = Session::builder(&a).partition(&p).auto_backend().build();
        assert_eq!(auto.backend(), Backend::CompiledSeq);
    }

    #[test]
    fn every_backend_and_kind_builds_through_the_facade() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| 0.25 * j as f64 - 1.0).collect();
        let want = a.spmv_alloc(&x);
        for kind in PlanKind::all() {
            for backend in Backend::all() {
                let mut s = Session::builder(&a)
                    .partition(&p)
                    .plan_kind(kind)
                    .backend(backend)
                    .batch_width(2)
                    .build();
                let mut y = vec![0.0; a.nrows()];
                s.apply(&x, &mut y);
                for (g, w) in y.iter().zip(&want) {
                    assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{kind}/{backend}");
                }
            }
        }
    }

    #[test]
    fn kernel_formats_flow_through_the_facade() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 - 5.0).collect();
        let mut want = vec![0.0; a.nrows()];
        Session::builder(&a).partition(&p).build().apply(&x, &mut want);
        for format in KernelFormat::all() {
            let mut s = Session::builder(&a).partition(&p).kernel_format(format).build();
            assert_eq!(s.kernel_format(), format);
            let mut y = vec![0.0; a.nrows()];
            s.apply(&x, &mut y);
            assert_eq!(y, want, "{format} must match the CSR default bitwise");
        }
    }

    #[test]
    fn sessions_inject_into_solvers() {
        use s2d_solver::{cg_solve_with, CgOptions};
        use s2d_sparse::Coo;
        let n = 16;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 4.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        m.compress();
        let a = m.to_csr();
        let part: Vec<u32> = (0..n).map(|i| (i / 4) as u32).collect();
        let p = SpmvPartition::rowwise(&a, part.clone(), part, 4);
        let mut s = Session::builder(&a)
            .partition(&p)
            .backend(Backend::CompiledPool { threads: 2, pin: false })
            .build();
        let b = vec![1.0; n];
        let res = cg_solve_with(&mut s, &b, &CgOptions::default());
        assert!(res.converged);
        let ax = a.spmv_alloc(&res.x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn telemetry_sessions_report_and_stay_bitwise_identical() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 - 5.0).collect();
        let mut want = vec![0.0; a.nrows()];
        Session::builder(&a).partition(&p).build().apply(&x, &mut want);

        for backend in Backend::all() {
            let mut s = Session::builder(&a).partition(&p).backend(backend).telemetry(true).build();
            assert!(s.telemetry_sink().is_some());
            let mut y = vec![f64::NAN; a.nrows()];
            s.apply(&x, &mut y);
            s.apply(&x, &mut y);
            if s.deterministic() {
                assert_eq!(y, want, "{backend}: telemetry must not perturb results");
            }
            let report = s.report().expect("telemetry session must report");
            assert_eq!(report.backend, backend.label());
            assert_eq!(report.k, p.k);
            assert_eq!(report.iterations, 2);
            assert!(report.wall_nanos > 0, "{backend}: no wall time");
            let model = report.model.as_ref().expect("session reports carry the model");
            assert_eq!(model.modeled_comm_words, s.quality().unwrap().volume);
            // The report renders and serializes without panicking.
            assert!(report.render().contains(backend.label()));
            let json = crate::obs::Json::parse(&report.to_json().to_string());
            assert_eq!(json.map(|j| j.get("k").and_then(|k| k.as_u64())), Ok(Some(p.k as u64)));
        }

        // Telemetry off: no sink, no report.
        let s = Session::builder(&a).partition(&p).build();
        assert!(s.telemetry_sink().is_none());
        assert!(s.report().is_none());
    }

    #[test]
    fn prepared_sessions_match_direct_builds_bitwise() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 - 5.0).collect();
        let mut want = vec![0.0; a.nrows()];
        Session::builder(&a).partition(&p).build().apply(&x, &mut want);

        let prep = Session::builder(&a).partition(&p).prepare();
        assert_eq!(prep.fingerprint(), a.fingerprint());
        assert_eq!(prep.plan_kind(), PlanKind::SinglePhase);
        // Stamp out several independent sessions from one preparation.
        for backend in [Backend::CompiledSeq, Backend::CompiledPool { threads: 2, pin: false }] {
            let mut s = prep.session(backend, 1);
            assert_eq!(s.backend(), backend);
            let mut y = vec![0.0; a.nrows()];
            s.apply(&x, &mut y);
            assert_eq!(y, want, "{backend}: prepared session must match direct build");
        }
    }

    #[test]
    fn wrapped_pool_sessions_report_the_pools_loads() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let prep = Session::builder(&a).partition(&p).prepare();
        let pool = Backend::CompiledPool { threads: 2, pin: false };
        let want = pool.build(prep.plan(), prep.compiled(), 1, None).worker_loads();
        assert!(want.is_some(), "the pool has a fixed worker schedule");
        let mut s = prep.session(pool, 1);
        assert_eq!((&mut s as &mut dyn SpmvOperator).worker_loads(), want);
        let mut solo = s2d_solver::Solo(prep.session(pool, 1));
        assert_eq!((&mut solo as &mut dyn SpmvOperator).worker_loads(), want);
        // A team of one holds every phase's whole load.
        let whole: Vec<Vec<u64>> =
            want.unwrap().iter().map(|phase| vec![phase.iter().sum()]).collect();
        let mut seq = prep.session(Backend::CompiledSeq, 1);
        assert_eq!((&mut seq as &mut dyn SpmvOperator).worker_loads(), Some(whole));
    }

    #[test]
    fn default_plan_kind_matches_auto_then_build() {
        let a = fig1_matrix();
        // Break the s2D property: row 0 / column 0 both live on P1, the
        // nonzero moves to P3.
        let mut broken = fig1_partition();
        broken.nz_owner[0] = 2;
        // A fine-grain 2D partition places nonzeros freely.
        let graph =
            crate::gen::rmat::rmat(&crate::gen::rmat::RmatConfig::graph500(7, 8), 5).to_csr();
        let fine = crate::baselines::partition_2d_fine_grain(&graph, 4, 0.03, 5);
        for (a, p, want_kind) in [
            (&a, &fig1_partition(), PlanKind::SinglePhase),
            (&a, &broken, PlanKind::TwoPhase),
            (&graph, &fine, PlanKind::TwoPhase),
        ] {
            let kind = PlanKind::auto(a, p);
            assert_eq!(kind, want_kind);
            let want = format!("{:?}", kind.build(a, p));
            let prep = Session::builder(a).partition(p).prepare();
            assert_eq!((prep.plan_kind(), format!("{:?}", prep.plan())), (kind, want.clone()));
            let s = Session::builder(a).partition(p).build();
            assert_eq!((s.plan_kind(), format!("{:?}", s.plan())), (kind, want));
        }
    }

    #[test]
    fn sessions_share_the_prepared_partition() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let prep = Session::builder(&a).partition(&p).prepare();
        for backend in [Backend::CompiledSeq, Backend::Mailbox] {
            assert!(std::ptr::eq(prep.session(backend, 1).partition(), prep.partition()));
        }
        for relowered in [prep.with_format(KernelFormat::Sell), prep.with_isa(KernelIsa::Scalar)] {
            assert!(std::ptr::eq(relowered.partition(), prep.partition()));
            let s = relowered.session(Backend::CompiledSeq, 1);
            assert!(std::ptr::eq(s.partition(), prep.partition()));
        }
    }

    #[test]
    fn fingerprints_distinguish_structure_and_values() {
        let a = fig1_matrix();
        assert_eq!(a.fingerprint(), fig1_matrix().fingerprint(), "deterministic");
        let mut b = fig1_matrix();
        b.values_mut()[0] += 1.0;
        assert_ne!(a.fingerprint(), b.fingerprint(), "value change must show");
    }

    #[test]
    #[should_panic(expected = "partition or a partitioner is required")]
    fn missing_partition_is_rejected() {
        let a = fig1_matrix();
        let _ = Session::builder(&a).build();
    }

    #[test]
    #[should_panic(expected = "not both")]
    fn partition_and_partitioner_together_are_rejected() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let _ = Session::builder(&a).partition(&p).partitioner(Strategy::OneDRow, 2).build();
    }

    #[test]
    fn partitioner_strategies_build_ready_sessions() {
        let a = fig1_matrix();
        let x: Vec<f64> = (0..a.ncols()).map(|j| 0.5 * j as f64 - 2.0).collect();
        let want = a.spmv_alloc(&x);
        for strategy in Strategy::all() {
            if strategy.requires_square() {
                continue; // fig1 is 10×13
            }
            let mut s = Session::builder(&a).partitioner(strategy, 3).build();
            assert_eq!(s.strategy(), Some(strategy));
            assert_eq!(s.partition().k, 3);
            if strategy.claims_s2d() {
                assert_eq!(s.plan_kind(), PlanKind::SinglePhase, "{strategy}");
            }
            let mut y = vec![0.0; a.nrows()];
            s.apply(&x, &mut y);
            for (g, w) in y.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{strategy}: {g} vs {w}");
            }
        }
    }
}
