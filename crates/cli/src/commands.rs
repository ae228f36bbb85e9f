//! Subcommand dispatch and implementations.

use std::time::{Duration, Instant};

use s2d::{Session, SessionBuilder};
use s2d_core::comm::{comm_requirements, single_phase_messages, two_phase_messages, CommStats};
use s2d_core::partition::SpmvPartition;
use s2d_engine::{Backend, KernelFormat, KernelIsa};
use s2d_gen::rmat::{rmat, RmatConfig};
use s2d_gen::{suite_a, suite_b, Scale};
use s2d_obs::{Json, ServeSnapshot, SCHEMA_VERSION};
use s2d_partition::quality::{fmt_quality_row, quality_header};
use s2d_partition::{PartitionQuality, PartitionerConfig, Strategy};
use s2d_serve::{ServeError, Server, ServerConfig, SessionId};
use s2d_sim::MachineModel;
use s2d_sparse::{read_matrix_market_file, write_matrix_market_file, Csr, MatrixStats};
use s2d_spmv::{simulate_plan, PlanKind, SpmvOperator};

use crate::args::Args;
use crate::partfile::{read_partition_file, write_partition_file};

const HELP: &str = "\
s2d — semi-two-dimensional sparse matrix partitioning

USAGE
  s2d gen       --name <suite matrix> [--scale tiny|small|paper] [--seed N] --out m.mtx
  s2d gen       --list
  s2d partition <m.mtx> --method <M> --k <K> [--epsilon E] [--seed N]
                [--out p.s2dpart] [--quality] [--json report.json]
  s2d reproduce [<table>|all] [--scale tiny|small|paper] [--seeds N]
                [--k K] [--suite a|b|both] [--method <M>]
                [--json REPRODUCTION.json] [--check] [--against OLD.json]
  s2d analyze   <m.mtx> <p.s2dpart> [--alg single|two|mesh] [--json out.json]
  s2d spmv      <m.mtx> [p.s2dpart] [--alg single|two|mesh]
                [--partitioner <M> --k K] [--engine <backend>]
                [--kernel-format <fmt>] [--isa auto|scalar]
                [--iters N] [--rhs R]
  s2d profile   <m.mtx> [p.s2dpart] [--partitioner <M> --k K]
                [--engine E[,E...]] [--kernel-format <fmt>]
                [--isa auto|scalar]
                [--iters N] [--rhs R] [--json PROFILE.json]
  s2d serve     <m.mtx> [--partitioner <M>] [--k K] [--clients N]
                [--requests N] [--wide-every W] [--engine <backend>]
                [--kernel-format <fmt>] [--max-coalesce R]
                [--queue Q] [--cache-capacity C]
                [--tuning-cache FILE]
                [--sharded]
                [--json SERVE.json]
  s2d tune      <m.mtx> | --rmat SCALE [--edge-factor F] [--seed N]
                [--k K] [--rhs R] [--budget standard|fast]
                [--epsilon E] [--cache tuning-cache.json]
                [--json TUNE.json]
  s2d help

METHODS (--method / --partitioner) — the unified Strategy enum
  s2d      semi-2D, Algorithm 1 (the paper's headline method)
  s2d-gen  semi-2D, generalized heuristic w/ balance pass
  s2d-opt  semi-2D, per-block DM optimum
  s2d-it   semi-2D, alternating vector/nonzero refinement (square only)
  1d       1D rowwise (column-net model)       1d-col  1D columnwise
  2d       2D fine-grain (nonzero-based)       2d-b    checkerboard (square)
  s2d-mg   medium-grain adapted to s2D (square) 1d-b   Boman mesh post-proc (square)
  hg-kway  raw multilevel k-way engine
  auto     cost-model-driven selection (stats prune, alpha-beta model picks)

`partition --quality` prints the full quality report (volume, LI,
messages, phase count, modeled alpha-beta/LogGP per-iteration times);
`--json` writes it as one JSON object.

`reproduce` regenerates the paper's tables (table1..table7), figure1,
the five ablation_* entries and the `partitioners` strategy sweep as
views over one quality sweep: each (suite matrix, K, seed, method) cell
is partitioned and priced once. Every table prints its measured
columns, the paper's own rows and the verdicts of its expectations
(orderings and trends, never digits); --check exits non-zero naming the
failing expectation, table and cell; --k / --suite / --method narrow a
table. --json writes every cell and verdict as one versioned document:
REPRODUCTION.json at the repo root is `reproduce all --scale tiny
--seeds 1`, and CI regenerates and `cmp`s it. --against OLD.json
compares the run with an earlier document: per table and (suite, K) the
geomean new/old ratios of volume, max load and messages, then every
cell that moved and every verdict that flipped.

ENGINES (--engine <backend>)
  mailbox            deterministic sequential interpreter (the oracle)
  threaded           compiled plan, one OS thread per rank over message passing
  compiled-seq       compiled plan on a pool of one: this thread, no workers
  compiled-pool[:N][@pin]  compiled plan on the persistent pool: this
                     thread plus N-1 workers that park when idle
                     (N participants; team size: see
                      Backend::participants; `@pin` pins spawned worker
                      w >= 1 to core w; `compiled` and `pool` are
                      accepted aliases)
  auto               compile, then pick compiled-seq or compiled-pool
                     from the core count and the plan's op count (the
                     pool needs a default team of two participants and
                     ~1.25e5 multiply-adds per iteration scalar, ~2.5e5
                     when the SIMD kernels are active)

KERNEL FORMATS (--kernel-format, compiled engines only)
  csr                run-length grouped CSR slices (default, bitwise
                     reference)
  sell               SELL-C-sigma (C = 2, sigma = 256): sigma-windowed
                     row sort, C-lane padded chunks (uniform inner
                     trip count)
  dense-split        consecutive-column runs become index-free dense
                     spans (the split-dense-row shape)
  auto               per rank x phase choice from compile-time
                     row-length statistics

KERNEL ISA (--isa, compiled engines only)
  auto               probe the CPU once at compile time, use AVX2
                     batch kernels when available (default)
  scalar             portable reference loops only
  The SIMD lanes map to the batch dimension (no FMA contraction), so
  both produce bitwise-identical results; --isa only changes
  speed, and only for --rhs 4 or 8.

--rhs R runs a batched multi-RHS SpMV (Y = A·X with R columns). The
compiled backends execute the whole block at once (row-major X, one
len x R message block per exchange); the mailbox oracle runs column by
column.

`profile` runs the multiply with telemetry on for each engine of a
comma-separated list (default compiled-seq,compiled-pool), checks it
against the serial product, and prints the execution report: per-rank
phase times (compute / gather / scatter / barrier), observed
load imbalance, and observed communication words held against the
alpha-beta / LogGP cost-model predictions; `--json` writes one report
object per engine. `analyze --json` writes the full partition-quality
report plus the per-rank row profiles. Every --json file is one object
carrying `schema_version` (1).

`serve` registers the matrix with the serving layer (s2d-serve) and
drives a burst of concurrent requests through it from --clients client
threads: the session worker runs whatever single-RHS requests are
queued when it comes free (up to --max-coalesce) as one batched
execution and scatters the columns back — batching is automatic, there
is no window to set. --engine and --kernel-format default to auto (the
engine's own seq-vs-pool and per-kernel format picks); a pool team is
capped to the machine's cores. --wide-every W makes every
Wth request a pre-batched width-2 block (mixed-width traffic);
--sharded runs the session rank-sharded over the runtime endpoints
(results stay bitwise identical). One solve is cross-checked against the serial
reference before the burst; the summary reports throughput plus the
admission / coalescing / preparation-cache counters; --json writes
them as SERVE.json (a CI cli-smoke artifact).

`tune` runs the measurement-based autotuner (s2d-tune) on a matrix
file or a generated R-MAT (--rmat SCALE): it expands the static
models' shortlist into (strategy x kernel-format x backend)
candidates, the pool at no more participants than cores, times every
one at the --rhs width through the real Session stack, and prints the
candidate table with the measured winner and the models' own pick
flagged. --cache persists the verdict in the on-disk
tuning cache, so the next tune of the same (matrix, k, rhs) — and any
server started with --tuning-cache pointing at the same file — replays
it without measuring. --budget fast is the 1-trial smoke budget
(default: standard); --json writes the full verdict as TUNE.json (a CI
cli-smoke artifact). `serve
--tuning-cache FILE` makes registrations consult the same cache:
measured verdicts override the configured strategy/format/backend,
counted as tuner hits/misses in the serve counters.

Matrices for `gen --name` come from the paper's two suites (Table I and
Table IV); `gen --list` prints them. Partition files are plain text
(see crates/cli/src/partfile.rs).
";

/// Entry point: dispatches `raw` to a subcommand. Exits the process on
/// user error (bad flags, missing files) with a diagnostic.
pub fn run(raw: Vec<String>) {
    let args = Args::parse(&raw);
    let cmd = args.positional.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "gen" => cmd_gen(&args),
        "partition" => cmd_partition(&args),
        "reproduce" => crate::reproduce::cmd_reproduce(&args),
        "analyze" => cmd_analyze(&args),
        "spmv" => cmd_spmv(&args),
        "profile" => cmd_profile(&args),
        "serve" => cmd_serve(&args),
        "tune" => cmd_tune(&args),
        "help" | "--help" | "-h" => print!("{HELP}"),
        other => {
            eprintln!("error: unknown subcommand {other:?}\n");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    }
}

pub(crate) fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// `body`'s fields behind a leading `schema_version`: the top level of
/// every JSON file the CLI writes.
pub(crate) fn versioned(body: Json) -> Json {
    let Json::Obj(fields) = body else { unreachable!("an artifact is an object") };
    let doc = Json::obj().set("schema_version", SCHEMA_VERSION);
    fields.into_iter().fold(doc, |doc, (key, value)| doc.set(&key, value))
}

/// Writes [`versioned`]`(body)` to `path`, one element per line `depth`
/// levels deep (see [`Json::to_lines`]), or exits with a diagnostic.
pub(crate) fn write_artifact(path: &str, body: Json, depth: usize) {
    if let Err(e) = std::fs::write(path, versioned(body).to_lines(depth) + "\n") {
        fail(format!("cannot write {path}: {e}"));
    }
}

fn load_matrix(path: &str) -> Csr {
    read_matrix_market_file(path)
        .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
        .to_csr()
}

fn load_partition(path: &str) -> SpmvPartition {
    read_partition_file(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

fn cmd_gen(args: &Args) {
    let specs: Vec<_> = suite_a().into_iter().chain(suite_b()).collect();
    if args.has("list") {
        println!("{:<14} {:>9} {:>10} {:>7} {:>8}  source", "name", "n", "nnz", "davg", "dmax");
        for s in &specs {
            println!(
                "{:<14} {:>9} {:>10} {:>7.1} {:>8}  {}",
                s.name, s.paper.n, s.paper.nnz, s.paper.davg, s.paper.dmax, s.application
            );
        }
        return;
    }
    let name = args.get("name").unwrap_or_else(|| fail("gen requires --name (or --list)"));
    let out = args.get("out").unwrap_or_else(|| fail("gen requires --out <file.mtx>"));
    let scale: Scale = args.get_or("scale", "small").parse().unwrap_or_else(|e: String| fail(e));
    let seed = args.parse_or("seed", 1u64);
    let spec = specs
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| fail(format!("unknown matrix {name:?}; try `s2d gen --list`")));
    let a = spec.generate(scale, seed);
    let stats = MatrixStats::of(&a);
    if let Err(e) = write_matrix_market_file(&a.to_coo(), out) {
        fail(format!("cannot write {out}: {e}"));
    }
    println!(
        "{}: wrote {} ({}x{}, {} nnz, davg {:.1}, dmax {})",
        spec.name, out, stats.nrows, stats.ncols, stats.nnz, stats.row_davg, stats.row_dmax
    );
}

fn cmd_partition(args: &Args) {
    let path =
        args.positional.get(1).unwrap_or_else(|| fail("partition requires a matrix file argument"));
    let method = args.get_or("method", "s2d");
    let k = args.parse_or("k", 16usize);
    let epsilon = args.parse_or("epsilon", 0.03f64);
    let seed = args.parse_or("seed", 1u64);

    let a = load_matrix(path);
    let (p, q) = build_partition_measured(&a, method, k, epsilon, seed);
    if let Some(out) = args.get("out") {
        if let Err(e) = write_partition_file(&p, out) {
            fail(format!("cannot write {out}: {e}"));
        }
    }
    let chosen = if q.strategy == method { String::new() } else { format!(" -> {}", q.strategy) };
    println!(
        "{method}{chosen}: K={k}, LI {:.1}%, volume {} words, s2D {}",
        q.load_imbalance * 100.0,
        q.volume,
        if q.s2d { "yes" } else { "no" }
    );
    if args.has("quality") {
        println!("{}", quality_header());
        println!("{}", fmt_quality_row(&q));
    }
    if let Some(json) = args.get("json") {
        write_artifact(json, q.to_json(), 0);
    }
}

/// Parses `method` into a [`Strategy`] that can partition `a`, or
/// exits with a diagnostic: on an unknown name, and on a square-only
/// method ([`Strategy::requires_square`]) for a rectangular matrix.
fn strategy_for(a: &Csr, method: &str) -> Strategy {
    let strategy: Strategy = method.parse().unwrap_or_else(|e| fail(e));
    let (m, n) = (a.nrows(), a.ncols());
    if strategy.requires_square() && m != n {
        fail(format!("method {method} requires a square matrix, not {m}x{n}"));
    }
    strategy
}

/// Partitions by `method` ([`strategy_for`]) and measures the quality.
/// For `auto` the quality's strategy label reports the concrete winner,
/// and the measurement `auto_pick` already made is reused rather than
/// repeated.
fn build_partition_measured(
    a: &Csr,
    method: &str,
    k: usize,
    epsilon: f64,
    seed: u64,
) -> (SpmvPartition, PartitionQuality) {
    let strategy = strategy_for(a, method);
    let cfg = PartitionerConfig { epsilon, seed };
    if strategy == Strategy::Auto {
        let pick = Strategy::auto_pick(a, k, &cfg);
        (pick.partition, pick.quality)
    } else {
        let p = strategy.partition_with(a, k, &cfg);
        let q = PartitionQuality::measure(a, &p, strategy.to_string());
        (p, q)
    }
}

/// Partitions by `method` ([`strategy_for`]), for `spmv` / `profile
/// --partitioner`.
fn build_partition(a: &Csr, method: &str, k: usize, epsilon: f64, seed: u64) -> SpmvPartition {
    strategy_for(a, method).partition_with(a, k, &PartitionerConfig { epsilon, seed })
}

/// Resolves the `--alg` name to a plan kind; `auto` is `None`, the
/// best legal kind, decided while the plan is built
/// ([`PlanKind::build_auto`]).
fn kind_for(alg: &str) -> Option<PlanKind> {
    (alg != "auto").then(|| alg.parse().unwrap_or_else(|e| fail(e)))
}

fn cmd_analyze(args: &Args) {
    let mpath = args.positional.get(1).unwrap_or_else(|| fail("analyze requires a matrix file"));
    let ppath = args.positional.get(2).unwrap_or_else(|| fail("analyze requires a partition file"));
    let a = load_matrix(mpath);
    let p = load_partition(ppath);
    fits(&p, &a);
    let alg = args.get_or("alg", "auto");
    let (kind, plan) = match kind_for(alg) {
        Some(kind) => (kind, kind.build(&a, &p)),
        None => PlanKind::build_auto(&a, &p),
    };
    let stats: CommStats = plan.comm_stats();
    let report = simulate_plan(&plan, &MachineModel::cray_xe6());

    println!("matrix      : {} x {}, {} nnz", a.nrows(), a.ncols(), a.nnz());
    println!("partition   : K = {}, s2D = {}", p.k, p.is_s2d(&a));
    println!(
        "load        : LI {:.1}%  (max {} avg {:.1})",
        p.load_imbalance() * 100.0,
        p.loads().iter().max().copied().unwrap_or(0),
        a.nnz() as f64 / p.k as f64
    );
    // Row-length skew across ranks — the shape the engine's kernel-
    // format auto-selection keys on (split dense rows vs. regular
    // slices).
    let profiles = plan.row_profiles();
    let max_row = profiles.iter().map(|pr| pr.max_row).max().unwrap_or(0);
    let mean_row = {
        let (rows, ops): (usize, u64) =
            profiles.iter().fold((0, 0), |(r, o), pr| (r + pr.rows, o + pr.ops));
        if rows > 0 {
            ops as f64 / rows as f64
        } else {
            0.0
        }
    };
    println!(
        "row profile : longest row segment {max_row}, mean {mean_row:.1} \
         (per-rank max {})",
        profiles.iter().map(|pr| pr.max_row.to_string()).collect::<Vec<_>>().join("/")
    );
    println!(
        "comm        : volume {} words, messages {} (avg {:.1} / max {} per proc)",
        stats.total_volume,
        stats.total_messages,
        stats.avg_send_msgs(),
        stats.max_send_msgs()
    );
    let reqs = comm_requirements(&a, &p);
    let single = single_phase_messages(&reqs).len();
    let [e, f] = two_phase_messages(&reqs);
    println!(
        "fusion      : {} fused messages vs {} unfused (expand {} + fold {})",
        single,
        e.len() + f.len(),
        e.len(),
        f.len()
    );
    println!(
        "model (XE6) : parallel {:.1} us, speedup {:.1} over serial",
        report.parallel_time * 1e6,
        report.speedup()
    );
    // The full partition-quality report (same columns as `partition
    // --quality` / `reproduce partitioners`), priced off the plan already
    // built above: per-processor bottlenecks and the second machine
    // model, so one command covers partition + kernel quality.
    let q = PartitionQuality::measure_plan(&a, &p, kind, &plan, "partition");
    println!(
        "quality     : max send {} words / {} msgs, recv {} msgs; {} comm phase(s); LogGP {:.1} us",
        q.max_send_volume,
        q.max_send_msgs,
        stats.recv_msgs.iter().max().copied().unwrap_or(0),
        q.comm_phases,
        q.loggp_time * 1e6,
    );
    // One JSON object bundling everything machine-readable the command
    // printed: matrix shape, the full quality report, and the per-rank
    // row profiles the kernel auto-selection keys on.
    if let Some(json) = args.get("json") {
        let rows = profiles.iter().map(|pr| {
            Json::obj()
                .set("rank", pr.rank)
                .set("rows", pr.rows)
                .set("ops", pr.ops)
                .set("max_row", pr.max_row)
                .set("mean_row", Json::fixed(pr.mean_row, 3))
        });
        let matrix =
            Json::obj().set("nrows", a.nrows()).set("ncols", a.ncols()).set("nnz", a.nnz());
        let body = Json::obj()
            .set("matrix", matrix)
            .set("quality", q.to_json())
            .set("row_profiles", rows.collect::<Vec<_>>());
        write_artifact(json, body, 0);
        println!("wrote {json}");
    }
}

/// The partition `spmv` / `profile` run on: read from the file
/// argument, or built in-process by any Strategy via `--partitioner`
/// (then no partition file is needed).
fn partition_arg(args: &Args, a: &Csr) -> SpmvPartition {
    let p = match (args.positional.get(2), args.get("partitioner")) {
        (Some(_), Some(_)) => fail("give either a partition file or --partitioner, not both"),
        (Some(ppath), None) => load_partition(ppath),
        (None, Some(method)) => {
            let k = args.parse_or("k", 16usize);
            let epsilon = args.parse_or("epsilon", 0.03f64);
            let seed = args.parse_or("seed", 1u64);
            build_partition(a, method, k, epsilon, seed)
        }
        (None, None) => fail(format!(
            "{} requires a partition file or --partitioner <method>",
            args.positional[0]
        )),
    };
    fits(&p, a);
    p
}

/// Exits 1 naming the misfit when `p` is not a partition of `a`.
fn fits(p: &SpmvPartition, a: &Csr) {
    if let Err(misfit) = p.check_shape(a) {
        fail(format!("the partition does not fit the matrix: {misfit}"));
    }
}

/// What `spmv` and `profile` execute: the plan kind (`None`: the
/// session builder's default, the best legal one), the kernel lowering,
/// and `iters` chained applications of an `rhs`-wide block.
struct RunOpts {
    kind: Option<PlanKind>,
    format: KernelFormat,
    isa: KernelIsa,
    iters: usize,
    rhs: usize,
}

impl RunOpts {
    fn parse(args: &Args, a: &Csr, default_iters: usize) -> RunOpts {
        let opts = RunOpts {
            kind: kind_for(args.get_or("alg", "auto")),
            format: args.get_or("kernel-format", "csr").parse().unwrap_or_else(|e| fail(e)),
            isa: args.get_or("isa", "auto").parse().unwrap_or_else(|e| fail(e)),
            iters: args.parse_or("iters", default_iters),
            rhs: args.parse_or("rhs", 1usize),
        };
        if opts.iters == 0 || opts.rhs == 0 {
            fail("--iters and --rhs must be >= 1");
        }
        if opts.iters > 1 && a.nrows() != a.ncols() {
            fail("--iters > 1 needs a square matrix (chained applications)");
        }
        opts
    }

    /// The session builder for `--engine <engine>`: any [`Backend`]
    /// spelling, or `auto` for [`Backend::auto`] over the compiled
    /// plan. The compiled backends run the batch natively with kernels
    /// lowered to `format`; the mailbox interpreter runs column by
    /// column (it is the oracle, not the fast path).
    fn session<'a>(&self, a: &'a Csr, p: &'a SpmvPartition, engine: &str) -> SessionBuilder<'a> {
        let mut builder = Session::builder(a)
            .partition(p)
            .kernel_format(self.format)
            .kernel_isa(self.isa)
            .batch_width(self.rhs);
        if let Some(kind) = self.kind {
            builder = builder.plan_kind(kind);
        }
        match engine {
            "auto" => builder.auto_backend(),
            name => builder.backend(name.parse().unwrap_or_else(|e| fail(e))),
        }
    }

    /// The row-major `ncols × rhs` input block (column q shifts the
    /// pattern so the columns are genuinely different vectors) and its
    /// per-column serial reference after `iters` chained applications —
    /// numbers are only worth reporting for a run that computed the
    /// right answer.
    fn probe(&self, a: &Csr) -> (Vec<f64>, Vec<f64>) {
        let rhs = self.rhs;
        let x: Vec<f64> = (0..a.ncols() * rhs)
            .map(|i| {
                let (g, q) = (i / rhs, i % rhs);
                ((g * 37 + q * 11) % 19) as f64 - 9.0
            })
            .collect();
        let mut want = vec![0.0; a.nrows() * rhs];
        for q in 0..rhs {
            let mut col: Vec<f64> = (0..a.ncols()).map(|g| x[g * rhs + q]).collect();
            for _ in 0..self.iters {
                col = a.spmv_alloc(&col);
            }
            for (g, val) in col.into_iter().enumerate() {
                want[g * rhs + q] = val;
            }
        }
        (x, want)
    }
}

fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    got.iter().zip(want).map(|(g, w)| (g - w).abs() / w.abs().max(1.0)).fold(0.0f64, f64::max)
}

fn cmd_spmv(args: &Args) {
    let mpath = args.positional.get(1).unwrap_or_else(|| fail("spmv requires a matrix file"));
    let a = load_matrix(mpath);
    let p = partition_arg(args, &a);
    let opts = RunOpts::parse(args, &a, 1);
    let alg = args.get_or("alg", "auto");
    let engine = args.get_or("engine", "threaded");
    let (x, want) = opts.probe(&a);
    let RunOpts { format, iters, rhs, .. } = opts;
    let mut got = vec![0.0; a.nrows() * rhs];
    let start = Instant::now();
    // The whole session setup (plan, compilation, buffers, workers) is
    // the one-time cost a session amortizes.
    let (mut session, setup) = s2d_obs::time(|| opts.session(&a, &p, engine).build());
    // One dispatch for the whole chain: the compiled pool keeps its
    // workers hot across iterations instead of paying a barrier
    // wake/seed/assemble round trip per application.
    session.apply_batch_iters(&x, &mut got, rhs, iters);
    let elapsed = start.elapsed();
    let max_err = max_rel_err(&got, &want);
    let compile_note =
        if matches!(session.backend(), Backend::CompiledSeq | Backend::CompiledPool { .. }) {
            format!(", {format} kernels, setup {:.1} ms", setup.as_secs_f64() * 1e3)
        } else {
            String::new()
        };
    let rhs_note = if rhs > 1 { format!(" x{rhs} rhs") } else { String::new() };
    println!(
        "executed {alg} plan x{iters}{rhs_note} on {} ranks ({engine} engine, {:.1} ms{compile_note}): \
         max relative error {max_err:.2e} {}",
        p.k,
        elapsed.as_secs_f64() * 1e3,
        if max_err < 1e-9 { "(ok)" } else { "(FAILED)" }
    );
    if max_err >= 1e-9 {
        std::process::exit(1);
    }
}

/// `s2d profile`: runs the multiply through the [`Session`] facade
/// with telemetry on for each engine in the `--engine` list (default
/// the two compiled backends), prints one execution report per engine,
/// and optionally writes them to one JSON file (`--json`).
fn cmd_profile(args: &Args) {
    let mpath = args.positional.get(1).unwrap_or_else(|| fail("profile requires a matrix file"));
    let a = load_matrix(mpath);
    let p = partition_arg(args, &a);
    let opts = RunOpts::parse(args, &a, 10);
    let (x, want) = opts.probe(&a);
    let RunOpts { format, iters, rhs, .. } = opts;

    let engines = args.get_or("engine", "compiled-seq,compiled-pool");
    let mut reports = Vec::new();
    for (i, name) in engines.split(',').map(str::trim).filter(|s| !s.is_empty()).enumerate() {
        let (mut session, setup) =
            s2d_obs::time(|| opts.session(&a, &p, name).telemetry(true).build());
        let mut y = vec![0.0; a.nrows() * rhs];
        session.apply_batch_iters(&x, &mut y, rhs, iters);
        let max_err = max_rel_err(&y, &want);
        if max_err >= 1e-9 {
            fail(format!("{name}: max relative error {max_err:.2e} — refusing to report"));
        }
        let report = session.report().expect("telemetry was requested");
        if i > 0 {
            println!();
        }
        println!(
            "setup {:.1} ms ({} plan, {format} kernels)",
            setup.as_secs_f64() * 1e3,
            session.plan_kind().label()
        );
        print!("{}", report.render());
        reports.push(report.to_json());
    }
    if reports.is_empty() {
        fail("--engine lists no engines");
    }
    if let Some(json) = args.get("json") {
        let n = reports.len();
        write_artifact(json, Json::obj().set("reports", reports), 2);
        println!("\nwrote {n} report(s) to {json}");
    }
}

/// One load burst against a registered serving session: `clients`
/// threads each fire `per_client` requests — width 1, except every
/// `wide_every`th (when `wide_every > 0`), which goes in as a
/// pre-batched width-2 block — then wait for every ticket. QueueFull
/// submissions retry after a yield: the burst measures throughput, not
/// admission policy. Returns the burst's wall time.
fn drive_burst(
    server: &Server,
    sid: SessionId,
    ncols: usize,
    clients: usize,
    per_client: usize,
    wide_every: usize,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut tickets = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let width =
                        if wide_every > 0 && i % wide_every == wide_every - 1 { 2 } else { 1 };
                    let x: Vec<f64> = (0..ncols * width)
                        .map(|j| ((j * 31 + c * 13 + i * 17) % 23) as f64 - 11.0)
                        .collect();
                    loop {
                        let res = if width == 1 {
                            server.submit(sid, x.clone())
                        } else {
                            server.submit_batch(sid, x.clone(), width)
                        };
                        match res {
                            Ok(t) => {
                                tickets.push(t);
                                break;
                            }
                            Err(ServeError::QueueFull) => std::thread::yield_now(),
                            Err(e) => fail(format!("submit: {e}")),
                        }
                    }
                }
                for t in tickets {
                    if let Err(e) = t.wait() {
                        fail(format!("serve request failed: {e}"));
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// Cross-checks one served solve against the serial reference —
/// serving numbers are only worth reporting for a server that returns
/// right answers.
fn check_served_solve(server: &Server, sid: SessionId, a: &Csr) {
    let x: Vec<f64> = (0..a.ncols()).map(|j| ((j * 37) % 19) as f64 - 9.0).collect();
    let want = a.spmv_alloc(&x);
    let got = match server.solve(sid, x) {
        Ok(y) => y,
        Err(e) => fail(format!("reference solve: {e}")),
    };
    let max_err = max_rel_err(&got, &want);
    if max_err >= 1e-9 {
        fail(format!("served result off by {max_err:.2e} — refusing to report"));
    }
}

fn cmd_serve(args: &Args) {
    let mpath = args.positional.get(1).unwrap_or_else(|| fail("serve requires a matrix file"));
    let a = load_matrix(mpath);
    let method = args.get_or("partitioner", "s2d");
    let strategy = strategy_for(&a, method);
    let k = args.parse_or("k", 16usize);
    let clients = args.parse_or("clients", 4usize);
    let per_client = args.parse_or("requests", 32usize);
    let wide_every = args.parse_or("wide-every", 0usize);
    if args.has("window-us") {
        fail("--window-us is gone: batching is automatic (a worker runs whatever is queued)");
    }
    if args.has("chaos-us") || args.has("chaos-seed") {
        fail("--chaos-us / --chaos-seed are gone: sharded sessions deliver without delays");
    }
    let backend: Option<Backend> = match args.get_or("engine", "auto") {
        "auto" => None,
        name => Some(name.parse().unwrap_or_else(|e| fail(e))),
    };
    let format: KernelFormat =
        args.get_or("kernel-format", "auto").parse().unwrap_or_else(|e| fail(e));
    let sharded = args.has("sharded");
    let config = ServerConfig {
        backend,
        format,
        tuning_cache: args.get("tuning-cache").map(std::path::PathBuf::from),
        queue_capacity: args.parse_or("queue", (clients * per_client).max(64)),
        max_coalesce: args.parse_or("max-coalesce", 8usize),
        cache_capacity: args.parse_or("cache-capacity", 8usize),
        sharded,
    };
    let server = Server::new(config);
    let (sid, reg) = s2d_obs::time(|| server.register(&a, strategy, k));
    check_served_solve(&server, sid, &a);

    let elapsed = drive_burst(&server, sid, a.ncols(), clients, per_client, wide_every);
    let snap = server.snapshot();
    server.shutdown();

    let total = clients * per_client;
    let rps = total as f64 / elapsed.as_secs_f64();
    println!(
        "serve {mpath}: {}x{} over {method}/k{k}, register {:.1} ms{}",
        a.nrows(),
        a.ncols(),
        reg.as_secs_f64() * 1e3,
        if sharded { " (sharded)" } else { "" }
    );
    println!(
        "serve: {total} requests from {clients} clients in {:.3} s — {rps:.0} req/s",
        elapsed.as_secs_f64()
    );
    println!(
        "serve: {} admitted, {} completed, {} rejected (queue full), {} expired, {} worker deaths",
        snap.admitted, snap.completed, snap.rejected_full, snap.expired, snap.worker_deaths
    );
    println!(
        "serve: {} batches / {} requests ({:.2}x coalescing), cache {}/{} hits, {} evicted",
        snap.batches,
        snap.coalesced,
        snap.coalescing_rate(),
        snap.cache_hits,
        snap.cache_hits + snap.cache_misses,
        snap.cache_evictions
    );
    if let Some(path) = args.get("json") {
        write_artifact(path, serve_json(mpath, method, k, clients, total, elapsed, &snap), 0);
        println!("wrote {path}");
    }
}

/// SERVE.json's body: the burst that was driven and the serving
/// counters after it.
fn serve_json(
    matrix: &str,
    method: &str,
    k: usize,
    clients: usize,
    requests: usize,
    elapsed: Duration,
    snap: &ServeSnapshot,
) -> Json {
    let secs = elapsed.as_secs_f64();
    Json::obj()
        .set("matrix", matrix)
        .set("method", method)
        .set("k", k)
        .set("clients", clients)
        .set("requests", requests)
        .set("seconds", secs)
        .set("requests_per_sec", requests as f64 / secs)
        .set("serve", snap.to_json())
}

fn cmd_tune(args: &Args) {
    use s2d_tune::{TuneBudget, Tuner};
    let (a, label) = if let Some(scale) = args.get("rmat") {
        let scale: u32 =
            scale.parse().unwrap_or_else(|_| fail(format!("bad --rmat scale {scale:?}")));
        let ef = args.parse_or("edge-factor", 8usize);
        let seed = args.parse_or("seed", 42u64);
        (rmat(&RmatConfig::graph500(scale, ef), seed).to_csr(), format!("rmat-{scale}"))
    } else {
        let mpath = args
            .positional
            .get(1)
            .unwrap_or_else(|| fail("tune requires a matrix file or --rmat SCALE"));
        (load_matrix(mpath), mpath.clone())
    };
    let k = args.parse_or("k", 16usize);
    let r = args.parse_or("rhs", 1usize);
    let budget = match args.get_or("budget", "standard") {
        "standard" => TuneBudget::standard(),
        "fast" => TuneBudget::fast(),
        other => fail(format!("unknown --budget {other:?} (standard|fast)")),
    };
    let cfg = PartitionerConfig {
        epsilon: args.parse_or("epsilon", PartitionerConfig::default().epsilon),
        ..PartitionerConfig::default()
    };
    let mut tuner = Tuner::new(&a, k).width(r).budget(budget).partitioner_config(cfg);
    if let Some(path) = args.get("cache") {
        tuner = tuner.cache(path);
    }
    let (verdict, took) = s2d_obs::time(|| tuner.run());
    println!("tune {label}: {}x{} ({} nnz) over k{k}, rhs {r}", a.nrows(), a.ncols(), a.nnz());
    print!("{}", verdict.render());
    println!(
        "tune: {} in {:.1} ms",
        if verdict.cache_hit { "cache replay" } else { "measured search" },
        took.as_secs_f64() * 1e3
    );
    if let Some(json) = args.get("json") {
        write_artifact(json, verdict.to_json(), 0);
        println!("wrote {json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_sparse::Coo;

    fn grid(n: usize) -> Csr {
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 4.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        m.compress();
        m.to_csr()
    }

    /// `iters` chained applications of the row-major `rhs`-wide `x` on
    /// `--engine <engine>`, the way `spmv` runs them; also returns the
    /// backend the engine name resolved to.
    fn run(
        a: &Csr,
        p: &SpmvPartition,
        engine: &str,
        format: KernelFormat,
        x: &[f64],
        iters: usize,
        rhs: usize,
    ) -> (Vec<f64>, Backend) {
        let opts = RunOpts { kind: None, format, isa: KernelIsa::Auto, iters, rhs };
        let mut session = opts.session(a, p, engine).build();
        let mut y = vec![0.0; a.nrows() * rhs];
        session.apply_batch_iters(x, &mut y, rhs, iters);
        (y, session.backend())
    }

    #[test]
    fn build_partition_every_method_is_valid() {
        let a = grid(64);
        // Legacy spellings and the unified Strategy names both work.
        for method in [
            "1d", "1d-col", "2d", "s2d", "s2d-opt", "s2d-mg", "2d-b", "1d-b", "s2d-gen", "s2d-it",
            "hg-kway", "auto",
        ] {
            let p = build_partition(&a, method, 4, 0.10, 3);
            p.assert_shape(&a);
            assert_eq!(p.k, 4, "{method}");
        }
    }

    #[test]
    fn build_partition_matches_the_strategy_enum() {
        // The CLI path is the enum path: same name, same partition.
        let a = grid(48);
        for s in Strategy::fixed() {
            let name = s.to_string();
            let want = s.partition_with(&a, 4, &PartitionerConfig { epsilon: 0.10, seed: 5 });
            assert_eq!(build_partition(&a, &name, 4, 0.10, 5), want, "{name}");
        }
    }

    #[test]
    fn s2d_methods_produce_s2d_partitions() {
        let a = grid(48);
        for method in ["1d", "s2d", "s2d-gen", "s2d-it", "s2d-opt", "s2d-mg", "hg-kway"] {
            let p = build_partition(&a, method, 4, 0.10, 5);
            assert!(p.is_s2d(&a), "{method} must satisfy the s2D property");
        }
    }

    #[test]
    fn every_engine_reproduces_the_serial_product() {
        let a = grid(48);
        let p = build_partition(&a, "s2d", 4, 0.10, 3);
        let x: Vec<f64> = (0..a.ncols()).map(|j| ((j * 37) % 19) as f64 - 9.0).collect();
        let want = a.spmv_alloc(&a.spmv_alloc(&x));
        for backend in Backend::all() {
            let engine = backend.to_string();
            let (got, built) = run(&a, &p, &engine, KernelFormat::CsrSlice, &x, 2, 1);
            assert_eq!(built, backend, "{engine}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{engine}: {g} vs {w}");
            }
        }
        // Legacy alias still routes somewhere sensible.
        let (got, built) = run(&a, &p, "compiled", KernelFormat::CsrSlice, &x, 2, 1);
        assert!(matches!(built, Backend::CompiledPool { .. }));
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "compiled alias: {g} vs {w}");
        }
    }

    #[test]
    fn every_kernel_format_reproduces_the_serial_product() {
        let a = grid(48);
        let p = build_partition(&a, "s2d", 4, 0.10, 3);
        let x: Vec<f64> = (0..a.ncols()).map(|j| ((j * 37) % 19) as f64 - 9.0).collect();
        let want = a.spmv_alloc(&x);
        for engine in ["compiled-seq", "compiled-pool", "auto"] {
            for format in KernelFormat::all() {
                let (got, _) = run(&a, &p, engine, format, &x, 1, 1);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{engine}/{format}");
                }
            }
        }
    }

    #[test]
    fn auto_engine_picks_seq_for_small_plans() {
        // A tiny plan sits far below the pool's amortization floor, so
        // `auto` must resolve to the sequential path.
        let a = grid(16);
        let p = build_partition(&a, "s2d", 2, 0.10, 1);
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 * 0.5).collect();
        let (got, built) = run(&a, &p, "auto", KernelFormat::CsrSlice, &x, 1, 1);
        assert_eq!(built, Backend::CompiledSeq);
        let want = a.spmv_alloc(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0));
        }
    }

    #[test]
    fn batched_engines_agree_with_per_column_serial() {
        let a = grid(40);
        let p = build_partition(&a, "s2d", 4, 0.10, 3);
        let rhs = 3;
        let x: Vec<f64> = (0..a.ncols() * rhs)
            .map(|i| ((i / rhs * 37 + i % rhs * 11) % 19) as f64 - 9.0)
            .collect();
        // Per-column chained serial reference (2 applications).
        let mut want = vec![0.0; a.nrows() * rhs];
        for q in 0..rhs {
            let col: Vec<f64> = (0..a.ncols()).map(|g| x[g * rhs + q]).collect();
            let y = a.spmv_alloc(&a.spmv_alloc(&col));
            for (g, val) in y.into_iter().enumerate() {
                want[g * rhs + q] = val;
            }
        }
        for backend in Backend::all() {
            let engine = backend.to_string();
            let (got, _) = run(&a, &p, &engine, KernelFormat::CsrSlice, &x, 2, rhs);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{engine}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn serve_artifact_spells_any_path_as_valid_json() {
        // A decomposed (NFD) accent, a quote and a backslash: Rust's
        // `Debug` escaping turns the first into `\u{301}`, which is not JSON.
        let path = "data/cafe\u{301} \"v2\"\\m.mtx";
        let snap = ServeSnapshot { admitted: 16, completed: 16, ..ServeSnapshot::default() };
        let body = serve_json(path, "s2d", 8, 2, 16, Duration::from_millis(250), &snap);
        let doc = Json::parse(&versioned(body).to_string()).expect("valid JSON");
        assert_eq!(doc.get("matrix").and_then(Json::as_str), Some(path));
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("requests_per_sec").and_then(Json::as_f64), Some(64.0));
        assert_eq!(doc.get("serve").and_then(|s| s.get("completed")), Some(&Json::Int(16)));
    }

    #[test]
    fn partition_file_roundtrip_through_cli_types() {
        let a = grid(32);
        let p = build_partition(&a, "s2d", 4, 0.10, 7);
        let dir = std::env::temp_dir().join("s2d-cli-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("grid.s2dpart");
        crate::partfile::write_partition_file(&p, &path).expect("write");
        let back = crate::partfile::read_partition_file(&path).expect("read");
        assert_eq!(back, p);
        std::fs::remove_file(&path).ok();
    }
}
