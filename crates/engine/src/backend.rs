//! The [`Backend`] selector and the compiled [`SpmvOperator`]
//! implementations.
//!
//! The workspace executes a plan in exactly two ways: the mailbox
//! **oracle** (`s2d-spmv`'s deliberately naive interpreter, kept as the
//! semantic reference every other path is differentially held to) and
//! the **compiled rank programs** of one [`CompiledPlan`]. Those are
//! executed by one phase-walk body under two transports (in place,
//! pool — see the `exec` module) plus the endpoint walker.
//! [`Backend::build`] puts all four behind a boxed [`SpmvOperator`];
//! consumers (solvers, the CLI, benches, the differential and
//! conformance harnesses) select a backend by value or by name and
//! stay otherwise backend-agnostic.
//!
//! # Choosing a backend
//!
//! * [`Backend::Mailbox`] — the oracle: deterministic sequential
//!   interpretation of the uncompiled plan. Slowest by far (hash maps
//!   everywhere); never a fast path.
//! * [`Backend::CompiledSeq`] — the phase-walk body over the **in
//!   place** transport ([`CompiledSeqOperator`]): one thread, all
//!   ranks, one plain `y` arena, no barrier and no atomic anywhere. Zero
//!   allocation per iteration; the choice on one core, for small plans
//!   (an iteration of a few tens of thousands of multiply-adds costs
//!   less than the pool's 2 + folding-steps barrier crossings) and the
//!   right baseline for kernel work.
//! * [`Backend::CompiledPool`] — the same body over the **pool**
//!   transport ([`ParallelEngine`]): the calling thread and the
//!   persistent workers each run it for their rank range and their
//!   NNZ-balanced chunk bucket, with a barrier at every handoff; the
//!   team size is [`Backend::participants`]. With two participants on
//!   two cores it measured 0.19 vs 0.17 ms per iteration at 131 k
//!   multiply-adds and 0.71 vs 1.30 ms at 1.68 M (the ledger's
//!   `engine.pool_apply_*` / `seq_apply_*` columns); never ask for
//!   more participants than cores.
//! * [`Backend::Threaded`] — the same programs over message-passing
//!   **endpoints**, one OS thread per rank ([`EndpointOperator`]).
//!   Spawns its threads per call: the distributed-execution shape
//!   (sharded serving sessions and the SPMD solvers run the same
//!   walker) and the concurrent validation of a plan's message
//!   structure, not a fast path.
//!
//! Body and endpoint walker run the same kernels and fold partials in
//! the compiled `recvs` order, so all three compiled backends
//! agree **bitwise** with each other on the same compiled plan — and,
//! with the default CSR-slice kernels, with the oracle. Plan errors
//! surface when the plan is compiled, never inside an `apply`.
//!
//! Undecided? [`Backend::auto`] applies the seq-vs-pool crossover rule
//! to a compiled plan (`--engine auto` on the CLI). It is also what
//! `s2d-serve` runs every session on unless told otherwise
//! (`ServerConfig::backend: None`), with the team capped to the
//! server's core budget so that concurrent sessions never hold more
//! participants than there are cores. Kernel format and ISA are
//! properties of the [`CompiledPlan`] handed to [`Backend::build`] —
//! see the `formats` module docs.
//!
//! Batch width: pass the widest `r` you will use to [`Backend::build`]
//! so buffers are sized once. Widths 1, 2, 4 and 8 run fixed-width
//! specialized inner loops — prefer them over odd widths; wider batches
//! amortize matrix traversal (r = 8 measures ~2–2.4× faster than 8
//! single applications on rmat14/K = 16) at the cost of `r×` vector
//! memory. Operators grow on demand if a wider batch shows up later
//! (a [`ParallelEngine`] rebuilds its team to do so — pay that once,
//! up front, by building with the right width).

use std::sync::Arc;
use std::time::Instant;

use s2d_obs::{Phase, TelemetrySink};
use s2d_runtime::ChaosConfig;
use s2d_spmv::{MailboxOperator, SpmvOperator, SpmvPlan};

use crate::compile::CompiledPlan;
use crate::exec::CompiledSeqOperator;
use crate::pool::{ParallelEngine, PoolOptions};
use crate::threaded::EndpointOperator;

/// Selects one of the four SpMV execution backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic sequential interpreter (the semantic oracle).
    Mailbox,
    /// Compiled plan over message-passing endpoints, one OS thread per
    /// rank.
    Threaded,
    /// Compiled plan, sequential zero-alloc execution over one arena.
    CompiledSeq,
    /// Compiled plan on the persistent pool — the calling thread as
    /// participant 0 plus spawned workers — running the NNZ-chunked
    /// compute schedule.
    CompiledPool {
        /// Requested participant count, the caller included; 0 selects
        /// the default sizing. The team actually run is
        /// [`Backend::participants`].
        threads: usize,
        /// Pin spawned worker `w ≥ 1` to CPU `w` (CLI spelling
        /// `pool:N@pin`); the caller's affinity is never touched.
        /// Linux-only performance hint, a no-op elsewhere.
        pin: bool,
    },
}

impl Backend {
    /// Every backend, with default parameters — the iteration set for
    /// conformance and differential sweeps.
    pub fn all() -> [Backend; 4] {
        [
            Backend::Mailbox,
            Backend::Threaded,
            Backend::CompiledSeq,
            Backend::CompiledPool { threads: 0, pin: false },
        ]
    }

    /// Short stable label (bench ids, CLI output, test diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Mailbox => "mailbox",
            Backend::Threaded => "threaded",
            Backend::CompiledSeq => "compiled-seq",
            Backend::CompiledPool { .. } => "compiled-pool",
        }
    }

    /// Builds this backend's operator, sized for batches of up to
    /// `width` right-hand sides, from a plan and its **already
    /// compiled** form (`cp` must have been compiled from `plan`; the
    /// kernel format and ISA are whatever it was compiled with).
    ///
    /// Only buffer allocation and worker-thread spawn happen here, so
    /// any number of independent operators can be stamped from one
    /// cached `(plan, cp)` pair — the compiled drivers share `cp`, the
    /// oracle shares `plan`.
    ///
    /// With a `sink`, the compiled drivers record per-rank phase spans
    /// and work counters; the oracle (which has no phase structure to
    /// hook) accounts whole applications as compute spans under rank
    /// 0. Results are bitwise identical to the sink-less build.
    ///
    /// # Panics
    /// Panics if `width` is 0 or the sink was sized for a rank count
    /// other than the plan's.
    pub fn build(
        &self,
        plan: &Arc<SpmvPlan>,
        cp: &Arc<CompiledPlan>,
        width: usize,
        sink: Option<Arc<TelemetrySink>>,
    ) -> Box<dyn SpmvOperator + Send> {
        assert!(width >= 1, "batch width must be at least 1");
        let cp = Arc::clone(cp);
        match *self {
            Backend::Mailbox => {
                let op = MailboxOperator::new(Arc::clone(plan));
                match sink {
                    Some(s) => Box::new(ObservedOperator::new(op, s)),
                    None => Box::new(op),
                }
            }
            Backend::Threaded => Box::new(EndpointOperator::new(cp, ChaosConfig::off(), sink)),
            Backend::CompiledSeq => Box::new(CompiledSeqOperator::new(cp, width, sink)),
            Backend::CompiledPool { threads, pin } => Box::new(ParallelEngine::with_options(
                cp,
                PoolOptions { threads, width, pin, sink, ..PoolOptions::default() },
            )),
        }
    }

    /// Default seq-vs-pool crossover for [`Backend::auto`] on
    /// scalar-kernel plans, in multiply-adds per iteration. PR 1
    /// measured the pool's barrier round trips amortizing around
    /// ≈ 5·10⁵ madds; the NNZ-chunked schedule removes the
    /// serialize-on-the-heaviest-rank penalty that dominated that
    /// figure, pulling the break-even 4× lower. (With the caller as
    /// participant 0 the measured break-even sits lower still — see
    /// ROADMAP for the table and the pending re-derivation.) This is a
    /// *model* constant, measured on one machine — when an `s2d-tune`
    /// tuning-cache entry exists for a matrix, its measured backend
    /// pick takes precedence over this threshold.
    pub const POOL_OPS_CROSSOVER: u64 = 125_000;

    /// Crossover for SIMD-kernel plans: AVX2 speeds up the *sequential*
    /// baseline at batched widths, so the pool needs more per-iteration
    /// work before its barriers amortize. The factor of 2 over
    /// [`Backend::POOL_OPS_CROSSOVER`] is an upper estimate: on the four
    /// benchmark workloads (2-vCPU x86-64 VM with AVX2, medians of three
    /// traced passes) the scalar r = 8 apply took 1.1–1.3× as long as
    /// the AVX2 one (`engine.isa_scalar_r8_ms / engine.seq_apply_r8_ms`:
    /// 1.10 on `fem-steady`, 1.24 on `denserow-k64`, 1.16 on
    /// `rmat-pagerank`, 1.27 on `serve-closed`).
    pub const POOL_OPS_CROSSOVER_SIMD: u64 = 250_000;

    /// The one team-size rule: how many participants, the calling
    /// thread included, run a plan of `k ≥ 1` ranks on `cores` CPUs.
    /// Mailbox and seq run 1; Threaded runs one OS thread per rank;
    /// the default pool (`threads: 0`) runs `min(k, cores)`, at least
    /// 1; `threads: t` runs `t` clamped to `1..=k`, never capped at
    /// `cores`. A pool of `N` participants spawns `N − 1` OS threads.
    pub fn participants(&self, k: usize, cores: usize) -> usize {
        match *self {
            Backend::Mailbox | Backend::CompiledSeq => 1,
            Backend::Threaded => k,
            Backend::CompiledPool { threads: 0, .. } => k.min(cores).max(1),
            Backend::CompiledPool { threads, .. } => threads.clamp(1, k),
        }
    }

    /// Picks the compiled backend an already-compiled plan should run
    /// on, on this machine: the persistent pool wins only when its
    /// default team ([`Backend::participants`]) has at least two
    /// participants — on one core, or with one rank, a team is pure
    /// overhead — and one iteration carries enough work to amortize
    /// its barrier round trips. Everything else runs faster on the
    /// sequential operator.
    ///
    /// ISA-aware: a plan whose kernels resolved to SIMD
    /// ([`CompiledPlan`]'s `isa`, `Auto` on an AVX2 machine) uses
    /// [`Backend::POOL_OPS_CROSSOVER_SIMD`], a scalar plan
    /// [`Backend::POOL_OPS_CROSSOVER`].
    ///
    /// This is the rule behind the CLI's `--engine auto`.
    pub fn auto(cp: &CompiledPlan) -> Backend {
        auto_for(cp, std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// [`Backend::auto`]'s rule as a pure function of the plan and the core
/// count.
fn auto_for(cp: &CompiledPlan, cores: usize) -> Backend {
    let crossover =
        if cp.isa.simd() { Backend::POOL_OPS_CROSSOVER_SIMD } else { Backend::POOL_OPS_CROSSOVER };
    let pool = Backend::CompiledPool { threads: 0, pin: false };
    if pool.participants(cp.k, cores) >= 2 && cp.total_ops() >= crossover {
        pool
    } else {
        Backend::CompiledSeq
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    /// Parses the CLI spelling: `mailbox`, `threaded`, `compiled-seq`
    /// (alias `seq`), `compiled-pool` / `pool` with an optional worker
    /// count as `pool:N` and an optional `@pin` suffix for core
    /// pinning (`pool:4@pin`), and the legacy alias `compiled` for the
    /// pool.
    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "mailbox" => return Ok(Backend::Mailbox),
            "threaded" => return Ok(Backend::Threaded),
            "compiled-seq" | "seq" => return Ok(Backend::CompiledSeq),
            _ => {}
        }
        let (body, pin) = match s.strip_suffix("@pin") {
            Some(body) => (body, true),
            None => (s, false),
        };
        match body {
            "compiled" | "compiled-pool" | "pool" => Ok(Backend::CompiledPool { threads: 0, pin }),
            other => {
                if let Some(n) =
                    other.strip_prefix("pool:").or(other.strip_prefix("compiled-pool:"))
                {
                    let threads: usize = n
                        .parse()
                        .map_err(|_| format!("bad worker count in {s:?} (want pool:N[@pin])"))?;
                    return Ok(Backend::CompiledPool { threads, pin });
                }
                Err(format!(
                    "unknown engine {s:?} (mailbox|threaded|compiled-seq|compiled-pool[:N][@pin])"
                ))
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::CompiledPool { threads, pin } if *threads > 0 || *pin => {
                f.write_str("compiled-pool")?;
                if *threads > 0 {
                    write!(f, ":{threads}")?;
                }
                if *pin {
                    f.write_str("@pin")?;
                }
                Ok(())
            }
            other => f.write_str(other.label()),
        }
    }
}

/// Whole-application telemetry for operators with no internal phase
/// structure to hook (the mailbox oracle): each apply is
/// recorded as one compute span under rank 0, plus run-level wall
/// time and iteration counts on the sink.
///
/// Purely additive — the wrapped operator's results (and its
/// [`SpmvOperator::deterministic`] contract) pass through untouched.
struct ObservedOperator<O> {
    inner: O,
    sink: Arc<TelemetrySink>,
}

impl<O: SpmvOperator> ObservedOperator<O> {
    /// Wraps `inner` so every application is accounted on `sink`.
    fn new(inner: O, sink: Arc<TelemetrySink>) -> ObservedOperator<O> {
        ObservedOperator { inner, sink }
    }

    fn observe(&mut self, iters: u64, body: impl FnOnce(&mut O)) {
        let t = Instant::now();
        body(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        self.sink.rank(0).record(Phase::Compute, ns);
        self.sink.add_wall(ns);
        self.sink.add_iterations(iters);
    }
}

impl<O: SpmvOperator> SpmvOperator for ObservedOperator<O> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.observe(1, |op| op.apply(x, y));
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.observe(1, |op| op.apply_batch(x, y, r));
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        self.observe(iters as u64, |op| op.apply_batch_iters(x, y, r, iters));
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn worker_loads(&self) -> Option<Vec<u64>> {
        self.inner.worker_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::KernelFormat;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};

    /// Compiles `plan` to `format` and builds `backend` over the pair.
    fn build(
        backend: Backend,
        plan: &Arc<SpmvPlan>,
        width: usize,
        format: KernelFormat,
    ) -> Box<dyn SpmvOperator + Send> {
        backend.build(plan, &Arc::new(CompiledPlan::compile_with(plan, format)), width, None)
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    #[test]
    fn every_backend_builds_and_matches_serial() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        let want = a.spmv_alloc(&x);
        for backend in Backend::all() {
            let mut op = build(backend, &plan, 1, KernelFormat::CsrSlice);
            assert_eq!((op.nrows(), op.ncols()), (a.nrows(), a.ncols()));
            let mut y = vec![0.0; a.nrows()];
            op.apply(&x, &mut y);
            assert_close(&y, &want);
        }
    }

    #[test]
    fn backend_parse_roundtrip() {
        for (s, want) in [
            ("mailbox", Backend::Mailbox),
            ("threaded", Backend::Threaded),
            ("compiled-seq", Backend::CompiledSeq),
            ("seq", Backend::CompiledSeq),
            ("compiled", Backend::CompiledPool { threads: 0, pin: false }),
            ("compiled-pool", Backend::CompiledPool { threads: 0, pin: false }),
            ("pool", Backend::CompiledPool { threads: 0, pin: false }),
            ("pool:4", Backend::CompiledPool { threads: 4, pin: false }),
            ("compiled-pool:2", Backend::CompiledPool { threads: 2, pin: false }),
            ("pool@pin", Backend::CompiledPool { threads: 0, pin: true }),
            ("pool:4@pin", Backend::CompiledPool { threads: 4, pin: true }),
            ("compiled-pool:2@pin", Backend::CompiledPool { threads: 2, pin: true }),
        ] {
            assert_eq!(s.parse::<Backend>().unwrap(), want, "{s}");
        }
        assert!("warp".parse::<Backend>().is_err());
        assert!("pool:x".parse::<Backend>().is_err());
        assert!("mailbox@pin".parse::<Backend>().is_err(), "@pin is a pool-only suffix");
        assert!("seq@pin".parse::<Backend>().is_err());
        assert_eq!(Backend::CompiledPool { threads: 3, pin: false }.to_string(), "compiled-pool:3");
        assert_eq!(Backend::CompiledPool { threads: 0, pin: false }.to_string(), "compiled-pool");
        assert_eq!(
            Backend::CompiledPool { threads: 4, pin: true }.to_string(),
            "compiled-pool:4@pin"
        );
        assert_eq!(
            Backend::CompiledPool { threads: 0, pin: true }.to_string(),
            "compiled-pool@pin"
        );
        for backend in Backend::all() {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
    }

    #[test]
    fn build_with_runs_every_kernel_format() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        let mut want = vec![0.0; a.nrows()];
        build(Backend::CompiledSeq, &plan, 1, KernelFormat::CsrSlice).apply(&x, &mut want);
        for backend in [Backend::CompiledSeq, Backend::CompiledPool { threads: 2, pin: false }] {
            for format in KernelFormat::all() {
                let mut op = build(backend, &plan, 1, format);
                let mut y = vec![0.0; a.nrows()];
                op.apply(&x, &mut y);
                assert_eq!(y, want, "{backend}/{format} must match the CSR default bitwise");
            }
        }
    }

    #[test]
    fn build_from_compiled_matches_fresh_builds_bitwise() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let cp = Arc::new(CompiledPlan::compile_with(&plan, KernelFormat::CsrSlice));
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        for backend in Backend::all() {
            let mut fresh = build(backend, &plan, 1, KernelFormat::CsrSlice);
            // Two operators over the same cached artifact, as serve
            // workers would hold them.
            let mut cached_a = backend.build(&plan, &cp, 1, None);
            let mut cached_b = backend.build(&plan, &cp, 1, None);
            let mut want = vec![0.0; a.nrows()];
            let mut got_a = vec![0.0; a.nrows()];
            let mut got_b = vec![0.0; a.nrows()];
            fresh.apply(&x, &mut want);
            cached_a.apply(&x, &mut got_a);
            cached_b.apply(&x, &mut got_b);
            assert!(fresh.deterministic(), "{backend}: every backend is deterministic");
            assert_eq!(got_a, want, "{backend}");
            assert_eq!(got_b, want, "{backend}");
        }
    }

    #[test]
    fn auto_backend_follows_the_ops_crossover() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        // fig1 is tiny: far below the pool's amortization floor, on any
        // machine.
        assert_eq!(Backend::auto(&cp), Backend::CompiledSeq);
        for cores in [1, 2, 8] {
            assert_eq!(auto_for(&cp, cores), Backend::CompiledSeq, "{cores} cores");
        }
        // Inflate the op count artificially: the decision flips —
        // wherever a second participant has a core to run on.
        let mut big = cp.clone();
        if let Some(crate::RankStep::Compute(crate::Kernel::Csr(k))) =
            big.ranks[0].steps.first_mut()
        {
            let (row, col, val) = (k.rows[0], k.cols[0], 1.0);
            for _ in 0..600_000 {
                k.cols.push(col);
                k.vals.push(val);
            }
            *k.row_ptr.last_mut().unwrap() = k.cols.len() as u32;
            let _ = row;
        } else {
            panic!("fig1 plan starts with a compute phase");
        }
        assert_eq!(auto_for(&big, 1), Backend::CompiledSeq, "one core: a team is pure overhead");
        for cores in [2, 8] {
            assert_eq!(
                auto_for(&big, cores),
                Backend::CompiledPool { threads: 0, pin: false },
                "{cores} cores"
            );
        }
        // One rank leaves nothing to share out, however many cores.
        let mut lone = big.clone();
        lone.k = 1;
        assert_eq!(auto_for(&lone, 8), Backend::CompiledSeq);
    }

    #[test]
    fn team_size_follows_one_rule() {
        let pool = |threads| Backend::CompiledPool { threads, pin: false };
        // (backend, k, cores) -> participants
        for (backend, k, cores, want) in [
            (Backend::Mailbox, 8, 4, 1),
            (Backend::CompiledSeq, 8, 4, 1),
            (Backend::CompiledSeq, 1, 1, 1),
            (Backend::Threaded, 8, 2, 8),
            (Backend::Threaded, 1, 8, 1),
            (pool(0), 8, 2, 2),
            (pool(0), 3, 16, 3),
            (pool(0), 8, 1, 1),
            (pool(0), 1, 8, 1),
            (pool(6), 8, 4, 6),
            (pool(6), 2, 4, 2),
            (pool(32), 8, 64, 8),
            (pool(4), 1, 8, 1),
            (pool(4), 8, 1, 4),
            (Backend::CompiledPool { threads: 3, pin: true }, 8, 2, 3),
        ] {
            assert_eq!(backend.participants(k, cores), want, "{backend} k={k} cores={cores}");
        }
    }

    #[test]
    fn compiled_operators_grow_to_wider_batches() {
        // The sequential half; the pool's is `pool_grows_to_wider_batches`.
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = Arc::new(SpmvPlan::single_phase(&a, &p));
        let mut op = build(Backend::CompiledSeq, &plan, 1, KernelFormat::CsrSlice);
        let r = 3;
        let x: Vec<f64> = (0..a.ncols() * r).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut y = vec![0.0; a.nrows() * r];
        op.apply_batch(&x, &mut y, r); // width 1 → grows to 3
        for q in 0..r {
            let xq: Vec<f64> = (0..a.ncols()).map(|g| x[g * r + q]).collect();
            let mut yq = vec![0.0; a.nrows()];
            op.apply(&xq, &mut yq);
            let got: Vec<f64> = (0..a.nrows()).map(|g| y[g * r + q]).collect();
            assert_eq!(got, yq, "column {q}");
        }
    }
}
