//! The persistent worker-pool runtime for [`CompiledPlan`]s.
//!
//! A [`ParallelEngine`] owns long-lived OS threads (spawned once,
//! parked on a spin barrier between jobs) and the shared flat buffers a
//! compiled plan executes over. Running an iteration involves **no
//! channels, no hashing and no allocation**: the control thread
//! publishes a job descriptor, releases the workers through an atomic
//! gate, and each worker runs the one phase-walk body
//! (`crate::exec`) as a `PoolWorker` transport — its rank range, its
//! baked chunk bucket, range views over the shared buffers, and a
//! sense-reversing barrier at every handoff the body marks.
//!
//! # Sharing discipline (why the `unsafe` here is sound)
//!
//! All mutable state lives in `ShBuf`s — `UnsafeCell` words reached
//! only through three kinds of view, built in `PoolWorker` (and, while
//! no job runs, by the first touch before the first gate and the
//! copy-out after the completion gate). Each rests on a spatial
//! invariant (who may touch the range) and a temporal one (which
//! barrier orders the handoff):
//!
//! 1. **Range views of a rank's own `x` / `y`** (`region_mut` over the
//!    first `nx × r` / `ny × r` words) while seeding, staging, applying
//!    and emitting. Spatial: those steps stay with the worker that owns
//!    the rank. Temporal: the barriers on either side of every compute
//!    phase separate them from the chunks other workers run on the
//!    same buffers.
//! 2. **Range views of a shared buffer**: a message's staging region
//!    (`region_mut`, for its one sender while staging and its one
//!    receiver while applying), the gathered block row by row
//!    (`region_mut` for the owner of the row), the whole gathered block
//!    and a rank's `x` read-only (`region`) while re-seeding resp.
//!    computing. Spatial: send regions are pairwise disjoint, so are
//!    receive regions, and emitted rows are owned by the emitting rank,
//!    hence disjoint across workers. Temporal: stage → apply, apply →
//!    next stage into the same buffer, emit → re-seed and seed →
//!    compute each cross a barrier, so a range is never written while
//!    another view of it is live.
//! 3. **The one aliased view**: a compute chunk's `y`
//!    (`as_mut_slice`, whole buffer), held by every worker running a
//!    chunk of that rank. It cannot be a range — a chunk writes the
//!    *row slots* of its units, not a contiguous run. Spatial: the
//!    schedule only splits [`Kernel::splittable`](crate::Kernel::splittable)
//!    kernels, whose units never share a row, so per element the view
//!    is uniquely live. Temporal: barriers before and after the phase.
//!
//! Every barrier is release/acquire, so there is no unsynchronized
//! cross-thread access to the same element. View bounds are checked on
//! construction (a corrupt offset panics, it cannot reach out of
//! bounds). The compiler produces plans with the spatial shape above,
//! and because every `CompiledPlan` field is public (the endpoint
//! walker's callers consume the per-rank programs directly),
//! [`ParallelEngine::with_options`] re-validates it instead of
//! trusting the caller — a hand-built plan that overlaps send regions
//! or emits a row it does not own is rejected before any thread runs.
//! If a worker panics, the barriers are *poisoned*: every waiter bails
//! out immediately, no further shared-buffer access happens, and the
//! control thread re-raises the failure instead of deadlocking.
//!
//! # NNZ-chunked scheduling
//!
//! Giving each worker whole ranks serializes on the heaviest rank —
//! exactly the skewed dense-row regime semi-2D partitions target. The
//! schedule therefore splits every splittable compute kernel at unit
//! (row-segment / SELL-chunk) boundaries into chunks of at least a
//! target multiply-add count and packs the chunks onto workers with a
//! greedy LPT (heaviest-first, least-loaded-worker) pass at
//! construction time. The chunk→worker map is **fixed** — no work
//! stealing — so the hot loop stays allocation-free and results are
//! bitwise reproducible across runs *and across worker counts*: each
//! `y` slot is written by exactly one chunk, and a chunk's accumulation
//! order is the kernel's own unit order regardless of which worker
//! runs it.
//!
//! # NUMA placement
//!
//! Buffers are allocated zeroed (untouched pages) and each worker
//! **first-touches** the `x`/`y` buffers of the ranks it owns before
//! its first job, so on a first-touch NUMA system the pages land on
//! the node of the worker that seeds, stages and emits them. Optional
//! core pinning (`PoolOptions::pin`, CLI `pool:N@pin`) binds worker
//! `w` to CPU `w` via `sched_setaffinity` on Linux (a no-op
//! elsewhere), keeping those pages node-local for the pool's lifetime.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use s2d_obs::{Phase, TelemetrySink};

use crate::compile::{CompiledPlan, RankStep};
use crate::exec::{walk, Region, Transport};
use crate::formats::KernelFormat;
use crate::telemetry::{call_end, span_end, span_start, ExecTelemetry};

/// A flat `f64` buffer shareable across worker threads, reached only
/// through range views (see the module docs for the access discipline
/// that makes them sound). View bounds are always checked, so a corrupt
/// offset panics safely instead of reaching out of bounds.
struct ShBuf(Box<[UnsafeCell<f64>]>);

// SAFETY: all access goes through the views below under the spatial and
// temporal invariants documented on the module.
unsafe impl Sync for ShBuf {}

impl ShBuf {
    fn new(len: usize) -> ShBuf {
        // `vec![0.0; n]` allocates through `alloc_zeroed`, leaving
        // fresh pages untouched until a worker first-touches them (the
        // NUMA placement lever); the obvious per-element
        // `UnsafeCell::new` collect would fault every page on the
        // control thread instead.
        let raw = Box::into_raw(vec![0.0f64; len].into_boxed_slice());
        // SAFETY: same allocation; UnsafeCell<f64> is repr(transparent)
        // over f64, so `[f64]` and `[UnsafeCell<f64>]` have identical
        // layout.
        ShBuf(unsafe { Box::from_raw(raw as *mut [UnsafeCell<f64>]) })
    }

    /// Read-only view of words `lo..lo + len`; panics when the range
    /// leaves the buffer. Callers hold it only while no thread writes
    /// the range (module invariants).
    #[inline]
    fn region(&self, lo: usize, len: usize) -> &[f64] {
        let cells = &self.0[lo..lo + len];
        // SAFETY: UnsafeCell<f64> is repr(transparent) over f64, and by
        // the module invariants the range has no concurrent writer.
        unsafe { std::slice::from_raw_parts(cells.as_ptr() as *const f64, len) }
    }

    /// Exclusive view of words `lo..lo + len`; panics when the range
    /// leaves the buffer. Callers hold it only while they are the
    /// range's unique accessor (module invariants).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn region_mut(&self, lo: usize, len: usize) -> &mut [f64] {
        let cells = &self.0[lo..lo + len];
        // SAFETY: as in `region`, and by the module invariants no other
        // view of the range is live.
        unsafe { std::slice::from_raw_parts_mut(cells.as_ptr() as *mut f64, len) }
    }

    /// Whole-buffer view for a compute chunk's `y`, the one view that
    /// is *aliased*: chunks of one rank run on several workers at once.
    ///
    /// # Safety
    /// For every element the returned slice is actually used to access,
    /// the caller must be the unique accessor for the slice's lifetime:
    /// each chunk reads and writes only its own units' row slots, which
    /// are pairwise disjoint across the phase's chunks (spatial
    /// invariant) but not a contiguous range, with barriers ordering
    /// every cross-thread handoff.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn as_mut_slice(&self) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.0.as_ptr() as *mut f64, self.0.len())
    }
}

/// Sense-reversing spin barrier (falls back to `yield_now` so it stays
/// live when workers outnumber cores). `wait` takes the engine's poison
/// flag: once poisoned, every wait returns `true` immediately and the
/// barrier's counts stop meaning anything — the engine is dead and only
/// shuts down from there.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier { arrived: AtomicUsize::new(0), generation: AtomicUsize::new(0), total }
    }

    /// Blocks until all `total` participants arrive, or until `poison`
    /// is raised (returns `true` in that case). Release/acquire on the
    /// generation counter orders all pre-barrier writes before all
    /// post-barrier reads.
    #[must_use]
    fn wait(&self, poison: &AtomicBool) -> bool {
        if poison.load(Ordering::Acquire) {
            return true;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            false
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if poison.load(Ordering::Acquire) {
                    return true;
                }
                spins += 1;
                if spins < 1 << 14 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

/// Construction knobs for [`ParallelEngine::with_options`]. The
/// `Default` value is default worker sizing, width 1, the automatic
/// chunk target, no pinning, no telemetry.
#[derive(Clone, Default)]
pub struct PoolOptions {
    /// Worker count; `0` selects the default sizing
    /// (`min(plan.k, available CPUs)`).
    pub threads: usize,
    /// Batch capacity the shared buffers are sized for (`0` is treated
    /// as 1).
    pub width: usize,
    /// Minimum stored multiply-adds per compute chunk of the
    /// NNZ-chunked schedule (see the module docs); `0` picks a target
    /// from each phase's total work and the worker count. Results are
    /// bitwise identical at any worker count or chunk size.
    pub chunk_ops: usize,
    /// Pin worker `w` to CPU `w` at startup (Linux `sched_setaffinity`;
    /// a silent no-op elsewhere or on failure — affinity is a
    /// performance hint, never a correctness requirement).
    pub pin: bool,
    /// Optional telemetry sink: workers time their compute / gather /
    /// scatter work per owned rank and their barrier waits (recorded
    /// under the first rank of each worker's range) into it. Results
    /// are bitwise identical to an uninstrumented pool.
    pub sink: Option<Arc<TelemetrySink>>,
}

/// One contiguous run `lo..hi` of one compute kernel's units, executed
/// by a fixed worker every iteration.
#[derive(Clone, Copy, Debug)]
struct ChunkRun {
    rank: u32,
    lo: u32,
    hi: u32,
}

/// The baked chunk→worker map: for every phase index, per worker, the
/// chunk list it executes (empty at comm phase indices), plus the
/// per-worker planned stored multiply-adds per iteration.
struct ChunkSchedule {
    phases: Vec<Vec<Vec<ChunkRun>>>,
    planned: Vec<u64>,
}

/// Floor on the automatic chunk target: below this, barrier and
/// cache-line traffic beats any balance win from finer chunks.
const MIN_CHUNK_OPS: usize = 2048;

/// The automatic target aims for about this many chunks per worker per
/// phase — enough granularity for LPT to balance a skewed rank, few
/// enough to keep the per-chunk dispatch cost invisible.
const CHUNKS_PER_WORKER: usize = 4;

/// Builds the NNZ-chunked schedule for `plan` on `threads` workers.
/// Fully deterministic: chunk boundaries follow kernel unit order and
/// every LPT tie (equal weight, equal load) is broken by fixed
/// `(rank, lo)` / lowest-worker-index orderings.
fn chunk_schedule(plan: &CompiledPlan, threads: usize, chunk_ops: usize) -> ChunkSchedule {
    let num_phases = plan.ranks.first().map_or(0, |rp| rp.steps.len());
    let mut phases = Vec::with_capacity(num_phases);
    let mut planned = vec![0u64; threads];
    for p in 0..num_phases {
        let mut buckets: Vec<Vec<ChunkRun>> = vec![Vec::new(); threads];
        // Step kinds agree across ranks at a phase index (validated).
        if matches!(plan.ranks.first().map(|rp| &rp.steps[p]), Some(RankStep::Compute(_))) {
            let phase_ops: usize = plan
                .ranks
                .iter()
                .map(|rp| match &rp.steps[p] {
                    RankStep::Compute(k) => (0..k.units()).map(|u| k.unit_ops(u)).sum(),
                    RankStep::Comm { .. } => 0,
                })
                .sum();
            let target = if chunk_ops > 0 {
                chunk_ops
            } else {
                (phase_ops / (threads * CHUNKS_PER_WORKER).max(1)).max(MIN_CHUNK_OPS)
            };
            let mut chunks: Vec<(u64, ChunkRun)> = Vec::new();
            for (rk, rp) in plan.ranks.iter().enumerate() {
                let RankStep::Compute(kernel) = &rp.steps[p] else { continue };
                let units = kernel.units();
                if units == 0 {
                    continue;
                }
                if !kernel.splittable() {
                    // Duplicate-row kernels would put one row's
                    // accumulation chain in two chunks — keep them
                    // whole so the spatial invariant holds.
                    let ops: usize = (0..units).map(|u| kernel.unit_ops(u)).sum();
                    chunks
                        .push((ops as u64, ChunkRun { rank: rk as u32, lo: 0, hi: units as u32 }));
                    continue;
                }
                let (mut lo, mut acc) = (0usize, 0usize);
                for u in 0..units {
                    acc += kernel.unit_ops(u);
                    if acc >= target || u + 1 == units {
                        chunks.push((
                            acc as u64,
                            ChunkRun { rank: rk as u32, lo: lo as u32, hi: (u + 1) as u32 },
                        ));
                        lo = u + 1;
                        acc = 0;
                    }
                }
            }
            // Greedy LPT: heaviest chunk first onto the least-loaded
            // (lowest-index on ties) worker.
            chunks.sort_by(|a, b| {
                b.0.cmp(&a.0).then(a.1.rank.cmp(&b.1.rank)).then(a.1.lo.cmp(&b.1.lo))
            });
            let mut load = vec![0u64; threads];
            for &(ops, run) in &chunks {
                let w = (0..threads).min_by_key(|&w| (load[w], w)).expect("at least one worker");
                load[w] += ops;
                buckets[w].push(run);
            }
            // The map is what balances; each worker still walks its
            // chunks in storage order to stay cache-friendly.
            for b in &mut buckets {
                b.sort_unstable_by_key(|c| (c.rank, c.lo));
            }
            for (pl, ld) in planned.iter_mut().zip(&load) {
                *pl += ld;
            }
        }
        phases.push(buckets);
    }
    ChunkSchedule { phases, planned }
}

/// Best-effort bind of the calling thread to CPU `core` (modulo the
/// machine size). Direct `sched_setaffinity` syscall wrapper — std
/// already links libc, no new dependency.
#[cfg(target_os = "linux")]
fn pin_to_core(core: usize) {
    const MASK_WORDS: usize = 16; // covers 1024 CPUs
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()).min(MASK_WORDS * 64);
    let core = core % cpus;
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] |= 1u64 << (core % 64);
    // SAFETY: pid 0 is the calling thread; the mask buffer is live and
    // sized as declared. Failure (e.g. a restricted cpuset) is ignored.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) {}

/// State shared between the control thread and the workers.
struct Shared {
    plan: Arc<CompiledPlan>,
    /// Batch capacity the shared buffers were sized for.
    width: usize,
    /// Per-rank local vectors (`nx × width` / `ny × width` words).
    x: Vec<ShBuf>,
    y: Vec<ShBuf>,
    /// Per-communication-phase staging buffers (`words × width`).
    staging: Vec<ShBuf>,
    /// The assembled global block (gather target, reseed source).
    global: ShBuf,
    /// Contiguous rank range per worker (ownership: seeding, staging,
    /// emitting).
    assign: Vec<Range<usize>>,
    /// Baked chunk→worker compute map (its `planned` loads are also
    /// the achieved ones — the map is fixed).
    chunks: ChunkSchedule,
    /// Pin worker `w` to CPU `w` at startup.
    pin: bool,
    /// Job descriptor: input pointer + chained iteration count + batch
    /// width. Written by the control thread before the gate, read by
    /// workers after it.
    job_x: AtomicPtr<f64>,
    job_iters: AtomicUsize,
    job_width: AtomicUsize,
    shutdown: AtomicBool,
    /// Raised when a worker panics; poisons both barriers.
    poisoned: AtomicBool,
    /// Control + workers: job start and job completion.
    gate: SpinBarrier,
    /// Workers only: phase-internal synchronization.
    sync: SpinBarrier,
    /// Optional telemetry (fixed at construction — `Shared` is
    /// immutable once workers spawn). `None` keeps the job loop free
    /// of clock reads.
    obs: Option<ExecTelemetry>,
}

/// A persistent pool of worker threads executing one compiled plan.
///
/// Construction validates the plan's sharing invariants, spawns the
/// threads and allocates every buffer;
/// [`ParallelEngine::execute`] and [`execute_iters`](ParallelEngine::execute_iters)
/// then run with zero heap allocation.
pub struct ParallelEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Checks the structural invariants the worker pool's unsafe sharing
/// relies on (every field of [`CompiledPlan`] is public, so the plan
/// cannot be trusted to come from the compiler).
///
/// # Panics
/// Panics with a description of the violated invariant.
fn validate_for_pool(plan: &CompiledPlan) {
    let num_phases = plan.ranks.first().map_or(0, |rp| rp.steps.len());
    assert_eq!(plan.y_part.len(), plan.nrows, "y_part length mismatch");
    // Per comm phase: the regions its sends write, the regions its
    // receives read.
    let mut regions: Vec<[Vec<(u32, u32)>; 2]> = vec![Default::default(); plan.staging_words.len()];
    for (r, rp) in plan.ranks.iter().enumerate() {
        assert_eq!(rp.steps.len(), num_phases, "rank {r}: misaligned step count");
        // Seeds index the job's input block and the rank's x view.
        assert!(
            rp.x_seed.iter().all(|&(g, s)| (g as usize) < plan.ncols && (s as usize) < rp.nx),
            "rank {r}: x_seed entry out of range"
        );
        // Ownership (y_part is a function of the row) makes emitted
        // rows (y_emit and y_zero) pairwise disjoint across ranks — two
        // workers writing the same `global` element concurrently would
        // be a data race.
        assert!(
            rp.y_emit.iter().all(|&(g, s)| {
                (g as usize) < plan.nrows
                    && (s as usize) < rp.ny
                    && plan.y_part[g as usize] as usize == r
            }),
            "rank {r}: y_emit entry out of range or not owned"
        );
        assert!(
            rp.y_zero.iter().all(|&g| plan.y_part.get(g as usize) == Some(&(r as u32))),
            "rank {r}: y_zero row out of range or not owned"
        );
        for (p, step) in rp.steps.iter().enumerate() {
            match step {
                RankStep::Compute(kernel) => {
                    // Per-format structural checks (array shapes, slot
                    // ranges, chunk/span bounds) — see Kernel::validate.
                    if let Err(e) = kernel.validate(rp.nx, rp.ny) {
                        panic!("rank {r} phase {p}: {e}");
                    }
                }
                RankStep::Comm { phase, sends, recvs } => {
                    let ph = *phase as usize;
                    assert!(ph < plan.staging_words.len(), "rank {r} phase {p}: bad comm ordinal");
                    let limit = plan.staging_words[ph] as u32;
                    for m in sends.iter().chain(recvs) {
                        assert!(
                            m.x_idx.iter().all(|&s| (s as usize) < rp.nx)
                                && m.y_idx.iter().all(|&s| (s as usize) < rp.ny),
                            "rank {r} phase {p}: message slot out of range"
                        );
                        assert!(
                            m.offset.checked_add(m.words() as u32).is_some_and(|end| end <= limit),
                            "rank {r} phase {p}: staging region out of bounds"
                        );
                    }
                    for (side, msgs) in [sends, recvs].into_iter().enumerate() {
                        regions[ph][side].extend(msgs.iter().map(|m| (m.offset, m.words() as u32)));
                    }
                }
            }
        }
    }
    // Kind/ordinal agreement across ranks per phase index (workers read
    // the step kind from their first rank only).
    if let Some(first) = plan.ranks.first() {
        for other in &plan.ranks[1..] {
            for (p, (a, b)) in first.steps.iter().zip(&other.steps).enumerate() {
                let agree = match (a, b) {
                    (RankStep::Compute(_), RankStep::Compute(_)) => true,
                    (RankStep::Comm { phase: pa, .. }, RankStep::Comm { phase: pb, .. }) => {
                        pa == pb
                    }
                    _ => false,
                };
                assert!(agree, "phase {p}: step kinds disagree across ranks");
            }
        }
    }
    // Send regions must be pairwise disjoint, and so must receive
    // regions — two workers would otherwise hold exclusive views of the
    // same staging elements at once.
    for (ph, sides) in regions.into_iter().enumerate() {
        for mut side in sides {
            side.sort_unstable();
            for pair in side.windows(2) {
                assert!(
                    pair[0].0 + pair[0].1 <= pair[1].0,
                    "comm phase {ph}: overlapping staging regions at offset {}",
                    pair[1].0
                );
            }
        }
    }
}

impl ParallelEngine {
    /// Builds the pool over `plan`: every knob (worker count, batch
    /// capacity, chunk target, core pinning, telemetry) comes from one
    /// [`PoolOptions`]. Ranks are distributed over workers in
    /// contiguous blocks; an explicit worker count is clamped to
    /// `1..=plan.k`.
    ///
    /// # Panics
    /// Panics if `plan` violates the invariants the shared-buffer
    /// execution depends on (see `validate_for_pool` in the source) —
    /// plans produced by [`CompiledPlan::compile`] always satisfy them.
    pub fn with_options(plan: impl Into<Arc<CompiledPlan>>, opts: PoolOptions) -> ParallelEngine {
        let plan = plan.into();
        validate_for_pool(&plan);
        let threads = if opts.threads == 0 {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            plan.k.min(cpus).max(1)
        } else {
            opts.threads
        };
        let obs = opts.sink.map(|sink| ExecTelemetry::new(&plan, sink));
        let (width, pin) = (opts.width.max(1), opts.pin);
        let k = plan.k;
        let threads = threads.clamp(1, k);
        // Balanced contiguous split; threads ≤ k keeps every range
        // non-empty (workers index `plan.ranks[my.start]` for the step
        // kind, so an empty range would be out of bounds).
        let base = k / threads;
        let extra = k % threads;
        let mut next = 0;
        let assign: Vec<Range<usize>> = (0..threads)
            .map(|w| {
                let len = base + usize::from(w < extra);
                let range = next..next + len;
                next += len;
                range
            })
            .collect();
        let chunks = chunk_schedule(&plan, threads, opts.chunk_ops);
        let shared = Arc::new(Shared {
            width,
            x: plan.ranks.iter().map(|r| ShBuf::new(r.nx * width)).collect(),
            y: plan.ranks.iter().map(|r| ShBuf::new(r.ny * width)).collect(),
            staging: plan.staging_words.iter().map(|&w| ShBuf::new(w * width)).collect(),
            global: ShBuf::new(plan.nrows * width),
            assign,
            chunks,
            pin,
            job_x: AtomicPtr::new(std::ptr::null_mut()),
            job_iters: AtomicUsize::new(0),
            job_width: AtomicUsize::new(1),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            gate: SpinBarrier::new(threads + 1),
            sync: SpinBarrier::new(threads),
            obs,
            plan,
        });
        let workers = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("s2d-engine-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn engine worker")
            })
            .collect();
        ParallelEngine { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Batch capacity this pool's buffers were sized for.
    pub fn width(&self) -> usize {
        self.shared.width
    }

    /// The compiled plan this pool executes.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.shared.plan
    }

    /// The [`KernelFormat`] policy the plan (and thus every job this
    /// pool runs) was compiled with — the format travels with the plan
    /// inside the job descriptor, workers never re-decide it.
    pub fn kernel_format(&self) -> KernelFormat {
        self.shared.plan.format
    }

    /// Planned compute multiply-adds per worker per iteration. The
    /// chunk→worker map is fixed (no work stealing), so planned load is
    /// also the achieved per-iteration load — multiply by iterations ×
    /// batch width for executed madds.
    pub fn worker_loads(&self) -> &[u64] {
        &self.shared.chunks.planned
    }

    /// Compute imbalance: `max / mean` of
    /// [`worker_loads`](ParallelEngine::worker_loads) (1.0 = perfectly
    /// balanced; a pool with no compute work also reports 1.0).
    pub fn load_imbalance(&self) -> f64 {
        let loads = self.worker_loads();
        let total: u64 = loads.iter().sum();
        if loads.is_empty() || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        *loads.iter().max().expect("nonempty") as f64 / mean
    }

    /// One SpMV: `y = A·x` on the pool.
    pub fn execute(&mut self, x: &[f64], y: &mut [f64]) {
        self.execute_iters(x, y, 1);
    }

    /// `iters` chained applications: `y = A^iters · x` with one
    /// dispatch — workers stay hot across iterations, nothing
    /// allocates, and only the final assembled vector is copied out.
    ///
    /// # Panics
    /// Panics if a worker thread panicked (the engine is then poisoned
    /// and every later call fails fast).
    pub fn execute_iters(&mut self, x: &[f64], y: &mut [f64], iters: usize) {
        self.execute_batch_iters(x, y, 1, iters);
    }

    /// One batched SpMV: `Y = A·X` over `r` right-hand sides (row-major
    /// `ncols × r` input, `nrows × r` output).
    pub fn execute_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.execute_batch_iters(x, y, r, 1);
    }

    /// `iters` chained batched applications: `Y = A^iters · X` with one
    /// dispatch.
    ///
    /// # Panics
    /// Panics if `r` exceeds the width the pool was built with
    /// ([`PoolOptions::width`]), or if a worker thread panicked.
    pub fn execute_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        let plan = &self.shared.plan;
        assert!(iters >= 1, "at least one iteration");
        assert!(r >= 1, "batch width must be at least 1");
        assert!(
            r <= self.shared.width,
            "pool was built for batches of {} (got {r}); raise PoolOptions::width",
            self.shared.width
        );
        assert_eq!(x.len(), plan.ncols * r, "input length mismatch");
        assert_eq!(y.len(), plan.nrows * r, "output length mismatch");
        if iters > 1 {
            assert_eq!(plan.nrows, plan.ncols, "chained SpMV needs a square plan");
        }
        assert!(
            !self.shared.poisoned.load(Ordering::Acquire),
            "engine poisoned: a worker thread panicked in an earlier call"
        );
        self.shared.job_x.store(x.as_ptr() as *mut f64, Ordering::Relaxed);
        self.shared.job_iters.store(iters, Ordering::Relaxed);
        self.shared.job_width.store(r, Ordering::Relaxed);
        let t = span_start(self.shared.obs.as_ref());
        let _ = self.shared.gate.wait(&self.shared.poisoned); // release the workers
        let _ = self.shared.gate.wait(&self.shared.poisoned); // wait for completion
        assert!(
            !self.shared.poisoned.load(Ordering::Acquire),
            "engine poisoned: a worker thread panicked (see stderr for its message)"
        );
        // Every worker passed the completion gate: no writer is left.
        y.copy_from_slice(self.shared.global.region(0, y.len()));
        call_end(self.shared.obs.as_ref(), t, iters);
    }
}

impl Drop for ParallelEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.gate.wait(&self.shared.poisoned);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker's side of the [`Transport`] seam for one job at batch
/// width `r`: its contiguous rank range, its baked chunk bucket, range
/// views over the shared buffers and the workers' phase barrier. Each
/// view below names the module invariant it rests on.
struct PoolWorker<'a> {
    shared: &'a Shared,
    w: usize,
    /// The job's input block (`ncols × r` words).
    x: &'a [f64],
    r: usize,
}

impl PoolWorker<'_> {
    /// Exclusive views of the first `nx × r` / `ny × r` words of owned
    /// rank `rk`'s `x` / `y`. Spatial: outside compute phases only the
    /// rank's owner touches them; temporal: a barrier separates every
    /// such step from the compute phases around it.
    #[inline(always)]
    fn local(&self, rk: usize) -> (&mut [f64], &mut [f64]) {
        let (sh, rp) = (self.shared, &self.shared.plan.ranks[rk]);
        (sh.x[rk].region_mut(0, rp.nx * self.r), sh.y[rk].region_mut(0, rp.ny * self.r))
    }
}

/// The per-message / per-row views of a staging buffer or the gathered
/// block (kind 2 in the module docs).
impl Region for &ShBuf {
    #[inline(always)]
    fn region_mut(&mut self, lo: usize, len: usize) -> &mut [f64] {
        ShBuf::region_mut(self, lo, len)
    }
}

impl Transport for PoolWorker<'_> {
    type Buf<'a>
        = &'a ShBuf
    where
        Self: 'a;

    #[inline(always)]
    fn ranks(&self) -> Range<usize> {
        self.shared.assign[self.w].clone()
    }

    /// The wait is recorded under the first rank of this worker's range.
    #[inline(always)]
    fn sync(&mut self, obs: Option<&ExecTelemetry>) -> bool {
        let t = span_start(obs);
        let poisoned = self.shared.sync.wait(&self.shared.poisoned);
        span_end(obs, self.shared.assign[self.w].start, Phase::BarrierWait, t);
        poisoned
    }

    #[inline(always)]
    fn seed(&mut self, rk: usize, first: bool) -> (&[f64], &mut [f64], &mut [f64]) {
        // The gathered block is only read while re-seeding: the emit
        // that wrote it and the next emit are both a barrier away.
        let (sh, (x, y)) = (self.shared, self.local(rk));
        (if first { self.x } else { sh.global.region(0, sh.plan.nrows * self.r) }, x, y)
    }

    #[inline(always)]
    fn chunk(&mut self, p: usize, i: usize) -> Option<(usize, Range<usize>, &[f64], &mut [f64])> {
        let (sh, run) = (self.shared, self.shared.chunks.phases[p][self.w].get(i)?);
        let rk = run.rank as usize;
        let x = sh.x[rk].region(0, sh.plan.ranks[rk].nx * self.r);
        // SAFETY: a chunk reads and writes only the y row slots of its
        // own units, which are pairwise disjoint across the phase's
        // chunks (only splittable kernels are split); x is read-only
        // for the whole phase; and the barriers before and after the
        // phase order every cross-worker handoff — so per element this
        // view is uniquely live. Running through plain slices shares
        // one kernel implementation (every KernelFormat) with the
        // in-place transport.
        let y = unsafe { sh.y[rk].as_mut_slice() };
        Some((rk, run.lo as usize..run.hi as usize, x, y))
    }

    #[inline(always)]
    fn comm(&mut self, rk: usize, ph: usize) -> (&mut [f64], &mut [f64], &ShBuf) {
        // A message's region is touched by its one sender while staging
        // and its one receiver while applying (send regions and receive
        // regions are each validated pairwise disjoint), a barrier
        // apart.
        let (x, y) = self.local(rk);
        (x, y, &self.shared.staging[ph])
    }

    #[inline(always)]
    fn emit(&mut self, rk: usize, _last: bool) -> (&[f64], &ShBuf) {
        // Emitted rows are owned (validated), hence disjoint across
        // workers; the seed barrier ordered this iteration's reads of
        // the gathered block before these writes.
        (self.local(rk).1, &self.shared.global)
    }
}

/// The worker main loop: park at the gate, run the published job, park
/// again. Lives until the engine drops. A panic in the job body poisons
/// the engine instead of deadlocking it.
fn worker_loop(shared: &Shared, w: usize) {
    if shared.pin {
        pin_to_core(w);
    }
    // First-touch the buffers this worker owns: allocation left the
    // pages untouched (alloc_zeroed), so writing them here — strictly
    // before the first job gate, hence with no concurrent accessor —
    // places them on this worker's NUMA node under a first-touch
    // policy.
    for rk in shared.assign[w].clone() {
        let rp = &shared.plan.ranks[rk];
        shared.x[rk].region_mut(0, rp.nx * shared.width).fill(0.0);
        shared.y[rk].region_mut(0, rp.ny * shared.width).fill(0.0);
    }
    loop {
        if shared.gate.wait(&shared.poisoned) {
            // Poisoned: the gate no longer synchronizes anything. Idle
            // until the engine shuts down.
            while !shared.shutdown.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let iters = shared.job_iters.load(Ordering::Relaxed);
        let xp = shared.job_x.load(Ordering::Relaxed) as *const f64;
        let r = shared.job_width.load(Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: the control thread keeps the input slice — `ncols
            // × r` words by the execute asserts — alive and unmodified
            // until the completion gate.
            let x = unsafe { std::slice::from_raw_parts(xp, shared.plan.ncols * r) };
            // A poisoned barrier makes the walk return early, without
            // touching the shared buffers again.
            walk(&shared.plan, &mut PoolWorker { shared, w, x, r }, r, iters, shared.obs.as_ref());
        }));
        if outcome.is_err() {
            shared.poisoned.store(true, Ordering::Release);
        }
        let _ = shared.gate.wait(&shared.poisoned); // completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_spmv::SpmvPlan;

    /// Pool with an explicit worker count and batch capacity
    /// (`threads = 0` → default sizing).
    fn pool(cp: CompiledPlan, threads: usize, width: usize) -> ParallelEngine {
        ParallelEngine::with_options(cp, PoolOptions { threads, width, ..PoolOptions::default() })
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    #[test]
    fn pool_matches_mailbox_on_all_plan_kinds() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
        ] {
            let want = plan.execute_mailbox(&x);
            let mut engine = pool(CompiledPlan::compile(&plan), 0, 1);
            let mut y = vec![0.0; a.nrows()];
            engine.execute(&x, &mut y);
            assert_close(&y, &want);
        }
    }

    #[test]
    fn pool_is_reusable_and_deterministic() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::single_phase(&a, &p);
        let mut engine = pool(CompiledPlan::compile(&plan), 0, 1);
        let x: Vec<f64> = (0..a.ncols()).map(|j| 1.0 / (j + 1) as f64).collect();
        let mut first = vec![0.0; a.nrows()];
        engine.execute(&x, &mut first);
        for _ in 0..10 {
            let mut again = vec![0.0; a.nrows()];
            engine.execute(&x, &mut again);
            assert_eq!(first, again, "fixed schedule → bitwise deterministic");
        }
    }

    #[test]
    fn every_thread_count_gives_the_same_answer() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::mesh(&a, &p, 1, 3);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin() + 2.0).collect();
        let want = plan.execute_mailbox(&x);
        let cp = CompiledPlan::compile(&plan);
        for threads in 1..=4 {
            let mut engine = pool(cp.clone(), threads, 1);
            let mut y = vec![0.0; a.nrows()];
            engine.execute(&x, &mut y);
            assert_close(&y, &want);
        }
    }

    #[test]
    fn execute_iters_matches_sequential_chaining() {
        let (a, plan) = crate::exec::tests::square_setup(14, 4);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).cos()).collect();
        let cp = CompiledPlan::compile(&plan);
        let mut ws = cp.workspace();
        let mut want = vec![0.0; a.nrows()];
        cp.execute_iters(&mut ws, &x, &mut want, 4);
        let mut engine = pool(cp, 0, 1);
        let mut y = vec![0.0; a.nrows()];
        engine.execute_iters(&x, &mut y, 4);
        assert_close(&y, &want);
    }

    #[test]
    fn batched_pool_matches_per_column_sequential() {
        let a = fig1_matrix();
        let p = fig1_partition();
        for plan in [SpmvPlan::single_phase(&a, &p), SpmvPlan::mesh(&a, &p, 3, 1)] {
            let cp = CompiledPlan::compile(&plan);
            for r in [2usize, 3, 8] {
                let x = crate::exec::tests::batch_input(a.ncols(), r, 5);
                let mut engine = pool(cp.clone(), 3, r);
                let mut y = vec![0.0; a.nrows() * r];
                engine.execute_batch(&x, &mut y, r);
                let mut ws = cp.workspace();
                for q in 0..r {
                    let xq = crate::exec::tests::column(&x, a.ncols(), r, q);
                    let mut yq = vec![0.0; a.nrows()];
                    cp.execute(&mut ws, &xq, &mut yq);
                    assert_eq!(
                        crate::exec::tests::column(&y, a.nrows(), r, q),
                        yq,
                        "r={r} column {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_iters_match_sequential_batched_iters() {
        let (a, plan) = crate::exec::tests::square_setup(16, 4);
        let cp = CompiledPlan::compile(&plan);
        let r = 4;
        let x = crate::exec::tests::batch_input(a.ncols(), r, 9);
        let mut ws = cp.workspace_batch(r);
        let mut want = vec![0.0; a.nrows() * r];
        cp.execute_batch_iters(&mut ws, &x, &mut want, r, 3);
        let mut engine = pool(cp, 2, r);
        let mut y = vec![0.0; a.nrows() * r];
        engine.execute_batch_iters(&x, &mut y, r, 3);
        assert_eq!(y, want, "pool batch-iters must match the workspace executor bitwise");
    }

    #[test]
    fn mixed_width_jobs_do_not_leak_stale_words() {
        // A matrix with an empty row (never materialized, `y_zero`): a
        // wide job writes global words at stride r; a later narrow job
        // must still see 0.0 for the empty row, not a stale word.
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let mut m = Coo::new(4, 4);
        m.push(0, 0, 2.0);
        m.push(2, 1, 3.0);
        m.push(3, 3, 4.0); // row 1 is empty
        m.compress();
        let a = m.to_csr();
        let parts = vec![0, 0, 1, 1];
        let p = SpmvPartition::rowwise(&a, parts.clone(), parts, 2);
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        let mut engine = pool(cp, 2, 4);
        let x4 = crate::exec::tests::batch_input(4, 4, 1);
        let mut y4 = vec![0.0; 16];
        engine.execute_batch(&x4, &mut y4, 4);
        // Narrow job on the same engine: empty row must assemble to 0.
        let x1 = vec![1.0, 1.0, 1.0, 1.0];
        let mut y1 = vec![9.0; 4];
        engine.execute(&x1, &mut y1);
        assert_eq!(y1, vec![2.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn every_kernel_format_agrees_on_the_pool() {
        // The pool shares one kernel implementation with the sequential
        // executor (slice views over the shared buffers), so every
        // format must agree bitwise with the CSR pool result.
        let (a, plan) = crate::exec::tests::square_setup(24, 4);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin() * 2.0).collect();
        let mut want = vec![0.0; a.nrows()];
        pool(CompiledPlan::compile(&plan), 3, 1).execute(&x, &mut want);
        for format in KernelFormat::all() {
            let cp = CompiledPlan::compile_with(&plan, format);
            let mut engine = pool(cp, 3, 1);
            assert_eq!(engine.kernel_format(), format);
            let mut y = vec![0.0; a.nrows()];
            engine.execute(&x, &mut y);
            assert_eq!(y, want, "{format}");
        }
    }

    #[test]
    fn chunked_schedule_matches_rank_split_bitwise() {
        // The acceptance bar for the NNZ-chunked schedule: bitwise
        // equality with the sequential executor (the reference the
        // retired rank-split schedule was itself held to) at every
        // worker count and chunk size, including chained iterations.
        let (a, plan) = crate::exec::tests::square_setup(24, 4);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin() + 0.25).collect();
        let cp = CompiledPlan::compile(&plan);
        let mut want = vec![0.0; a.nrows()];
        cp.execute_iters(&mut cp.workspace(), &x, &mut want, 3);
        for threads in [1usize, 2, 3, 4] {
            for chunk_ops in [0usize, 1, 7, 1 << 20] {
                let mut engine = ParallelEngine::with_options(
                    cp.clone(),
                    PoolOptions { threads, chunk_ops, ..PoolOptions::default() },
                );
                let mut y = vec![0.0; a.nrows()];
                engine.execute_iters(&x, &mut y, 3);
                assert_eq!(y, want, "threads={threads} chunk_ops={chunk_ops}");
            }
        }
    }

    #[test]
    fn worker_loads_cover_every_planned_madd() {
        let (_a, plan) = crate::exec::tests::square_setup(24, 4);
        let cp = CompiledPlan::compile(&plan);
        let total = cp.total_ops();
        assert!(total > 0, "test matrix must have work");
        for chunk_ops in [0usize, 1] {
            let engine = ParallelEngine::with_options(
                cp.clone(),
                PoolOptions { threads: 3, chunk_ops, ..PoolOptions::default() },
            );
            assert_eq!(
                engine.worker_loads().iter().sum::<u64>(),
                total,
                "chunk_ops={chunk_ops}: every madd is scheduled exactly once"
            );
            assert!(engine.load_imbalance() >= 1.0);
        }
    }

    #[test]
    fn pinned_pool_matches_unpinned() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::mesh(&a, &p, 3, 1);
        let x: Vec<f64> = (0..a.ncols()).map(|j| 0.5 * j as f64 - 1.0).collect();
        let cp = CompiledPlan::compile(&plan);
        let mut want = vec![0.0; a.nrows()];
        pool(cp.clone(), 2, 1).execute(&x, &mut want);
        let mut pinned = ParallelEngine::with_options(
            cp,
            PoolOptions { threads: 2, pin: true, ..PoolOptions::default() },
        );
        let mut y = vec![0.0; a.nrows()];
        pinned.execute(&x, &mut y);
        assert_eq!(y, want, "pinning is placement-only, never numeric");
    }

    #[test]
    #[should_panic(expected = "pool was built for batches of 1")]
    fn oversized_batch_is_rejected() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let mut engine = pool(CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p)), 0, 1);
        let x = vec![0.0; a.ncols() * 2];
        let mut y = vec![0.0; a.nrows() * 2];
        engine.execute_batch(&x, &mut y, 2);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let engine = pool(CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p)), 0, 1);
        assert!(engine.threads() >= 1);
        drop(engine); // must not hang
    }

    #[test]
    #[should_panic(expected = "overlapping staging regions")]
    fn overlapping_send_regions_are_rejected() {
        // Hand-built plan whose two sends share a staging region — the
        // exact shape that would race two writers on one cell.
        let (_a, plan) = crate::exec::tests::square_setup(8, 4);
        let mut cp = CompiledPlan::compile(&plan);
        let mut clobbered = false;
        for rp in &mut cp.ranks {
            for step in &mut rp.steps {
                if let RankStep::Comm { sends, .. } = step {
                    for m in sends {
                        m.offset = 0;
                        clobbered = true;
                    }
                }
            }
        }
        assert!(clobbered, "test needs a plan with at least two sends");
        let _ = pool(cp, 2, 1);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn out_of_range_slots_are_rejected() {
        let (_a, plan) = crate::exec::tests::square_setup(8, 2);
        let mut cp = CompiledPlan::compile(&plan);
        let slot = cp
            .ranks
            .iter_mut()
            .flat_map(|rp| &mut rp.steps)
            .find_map(|s| match s {
                RankStep::Compute(crate::formats::Kernel::Csr(k)) => k.cols.first_mut(),
                _ => None,
            })
            .expect("plan has a nonempty kernel");
        *slot = u32::MAX;
        let _ = pool(cp, 1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_region_is_rejected() {
        let _ = ShBuf::new(4).region_mut(2, 3);
    }

    #[test]
    fn worker_panic_poisons_instead_of_hanging() {
        // Force a genuine panic inside a worker thread: `row_ptr`
        // segment bounds are not pre-validated (indexing `vals` is
        // bounds-checked at run time), so an oversized end pointer
        // panics mid-job. The engine must surface the failure on the
        // control thread and Drop must still join — not deadlock.
        let (a, plan) = crate::exec::tests::square_setup(12, 3);
        let mut cp = CompiledPlan::compile(&plan);
        let kernel = cp
            .ranks
            .iter_mut()
            .flat_map(|rp| &mut rp.steps)
            .find_map(|s| match s {
                RankStep::Compute(crate::formats::Kernel::Csr(k)) if !k.rows.is_empty() => Some(k),
                _ => None,
            })
            .expect("plan has a nonempty kernel");
        *kernel.row_ptr.last_mut().unwrap() = u32::MAX >> 8;
        let mut engine = pool(cp, 2, 1);
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64).collect();
        let mut y = vec![0.0; a.nrows()];
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.execute(&x, &mut y)));
        assert!(result.is_err(), "worker panic must reach the control thread");
        let again =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.execute(&x, &mut y)));
        assert!(again.is_err(), "poisoned engine must fail fast on reuse");
        drop(engine); // and Drop must not hang
    }
}
