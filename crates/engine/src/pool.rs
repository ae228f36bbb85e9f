//! The persistent worker-pool runtime for [`CompiledPlan`]s.
//!
//! A [`ParallelEngine`] runs a compiled plan on `N` **participants**:
//! the thread that calls one of its [`SpmvOperator`] methods is
//! participant 0 and `N − 1` long-lived OS threads (spawned once,
//! parked while the pool is idle) are participants `1..N` — the way an
//! OpenMP team includes the thread that opened the parallel region.
//! There are never more runnable threads than the caller asked for.
//! Running an iteration involves **no channels, no hashing and no
//! allocation**: the caller writes a job descriptor, publishes a job
//! epoch, and every participant — itself included — runs the one
//! phase-walk body (`crate::exec`) as a `PoolWorker`: the ranks it
//! owns, views over the shared `y` arena and over the job's own `x` and
//! `y`, and a sense-reversing barrier at every handoff the body marks.
//!
//! A **team of one** is the sequential backend: [`Backend::CompiledSeq`]
//! builds a one-participant pool, which spawns no thread, owns every
//! rank in ascending order and — decided from the team size, not from
//! an option — crosses no barrier and records no barrier-wait span.
//!
//! # Job hand-off
//!
//! * **Start — a published epoch.** The caller stores the descriptor,
//!   sets the completion count to `N − 1` and bumps `epoch`. An idle
//!   worker spins on the epoch for a bounded budget and then parks:
//!   it raises its `parked` flag, re-checks epoch and shutdown, and
//!   only then calls `park`. The publisher bumps the epoch first and
//!   reads the flags second, and unparks exactly the flagged workers;
//!   all four accesses are `SeqCst`, so either the worker's re-check
//!   sees the new epoch or the publisher sees the flag (an `unpark`
//!   that lands before the `park` leaves a token and the `park`
//!   returns at once) — no wake-up is lost. Shutdown takes the same
//!   path. A live-but-idle pool therefore costs no CPU.
//! * **Finish — a counted completion.** Every worker decrements the
//!   count on its way out of the job through a drop guard (normal
//!   return, poisoned early return or panic alike), and the caller
//!   waits for zero **unconditionally** — also when the engine is
//!   poisoned, also when its own share panicked (the panic is caught,
//!   poison raised, and the original payload re-raised only after the
//!   count reached zero). The decrement is `AcqRel`, the caller's read
//!   `Acquire`: everything a worker wrote happens-before the caller's
//!   return.
//! * **Inside a job** the phase barrier (`SpinBarrier`, all `N`
//!   participants) spins and then yields — never parks; jobs are short
//!   and every participant is runnable.
//!
//! # Sharing discipline (why the `unsafe` here is sound)
//!
//! The `x` home space is the job's input (its output from the second
//! chained iteration on) and is only read while kernels run; every
//! partial sum lives in **one `y` arena**, rank `q`'s block being words
//! `y_off(q) × r .. (y_off(q) + ny(q)) × r`. All mutable state is
//! reached through `ShBuf` — `UnsafeCell` words behind bounds-checked
//! range views — in two kinds of view, built in `PoolWorker` (and,
//! while no job runs, by the first touch each participant of a larger
//! team gives its own ranks' blocks before it first arrives at a
//! barrier). Each is a range that no other participant writes between
//! two barriers, and rests on
//! a spatial invariant (who may touch the range; the quoted
//! `validate_for_pool` check enforces it) and a temporal one (which
//! barrier, or the counted completion, orders the handoff):
//!
//! 1. **Range views of the arena** (`region` / `region_mut`, directly
//!    or through a `ShView` based at the arena): a rank's own block,
//!    exclusively, while clearing, computing and emitting; during a
//!    fold single slots, an own one exclusively and a *producer's*
//!    read-only. Spatial: every arena block has exactly one writer —
//!    clear, compute, fold and emit all stay with the participant that
//!    owns the rank (`assign` is a partition of the ranks); blocks are
//!    disjoint ("y blocks overlap"); a kernel's row slots lie inside
//!    its block and its columns inside the home space
//!    (`Kernel::validate`); a fold writes only inside the own block
//!    ("fold destination outside the own block"), reads only outside it
//!    ("fold source inside the own block"), and never reads a slot
//!    anyone writes in that step ("a fold source is a destination of
//!    the same step" — the compiler opens a fresh slot for a partial
//!    that arrives for a row drained in the same step, so nothing needs
//!    staging). Temporal: the barrier after every compute phase orders
//!    the kernel that produced a partial before the fold that reads it,
//!    and the barrier after every fold step orders that read before the
//!    block's next writer. A step in which no rank folds (all expand)
//!    touches nothing and has no barrier; "fold_steps disagrees" keeps
//!    every participant's barrier count the same.
//! 2. **The job's own vectors**, rebuilt by every participant from the
//!    raw pointers in the job descriptor: the caller's `x` read-only (a
//!    plain slice) and the caller's `y` as a borrowed `ShBuf`, into
//!    which **every** iteration emits row by row and which the next
//!    chained iteration's kernels read whole — no carrier, no gathered
//!    copy to hand back. Spatial: `x` is never written; `y` is written
//!    only at emitted rows (`y_emit` ∪ `y_zero`), owned ("… not owned")
//!    and hence disjoint across participants; the view lengths are the
//!    ones `ParallelEngine::run` asserted. Temporal: an iteration's
//!    kernels finish a barrier before its emit; the barrier after the
//!    next clear orders the emit before the kernels that read it; and
//!    the **counted completion** — the caller neither returns nor
//!    unwinds out of `ParallelEngine::run` before every worker has left
//!    the job, so both borrows outlive every view derived from them,
//!    and the caller does not touch `y` itself in between.
//!
//! Every barrier and the completion count are release/acquire, so there
//! is no unsynchronized cross-thread access to the same element. View
//! bounds are checked on construction (a corrupt offset panics, it
//! cannot reach out of bounds). The compiler produces plans with the
//! spatial shape above, and because the `CompiledPlan` fields are
//! public, [`ParallelEngine::with_options`] re-validates it instead of
//! trusting the caller — a hand-built plan that folds from its own
//! block or emits a row it does not own is rejected before any thread
//! runs. If a participant panics — a worker or the caller's own share —
//! the engine is *poisoned*: every barrier wait bails out immediately,
//! no further shared-buffer access happens, each participant still
//! leaves through the counted completion, and the caller re-raises the
//! failure (its own panic with the original payload) instead of
//! deadlocking. Workers of a poisoned engine go back to idling — that
//! is, they park — until the engine drops.
//!
//! # The partition is the schedule
//!
//! Balancing each rank's multiply-adds is the partitioner's job — the
//! point of the s2D partition — so the pool does not re-split kernels
//! at run time. Each participant owns whole ranks, packed once at
//! construction by a greedy LPT pass (heaviest rank first onto the
//! least-loaded participant) over each rank's stored multiply-adds,
//! and runs every kernel of its ranks whole, in unit order. The
//! rank→participant map is **fixed** — no work stealing — so the hot
//! loop stays allocation-free and results are bitwise reproducible
//! across runs *and across participant counts*: each `y` word's
//! accumulation order is its kernel's own, whoever owns the rank. What
//! the map cannot do is rescue a badly balanced partition: the
//! heaviest rank bounds the phase.
//!
//! # NUMA placement
//!
//! The arena is allocated zeroed (untouched pages) and each participant
//! of a larger team **first-touches** its ranks' blocks (as laid out at
//! full width) before its first job (the caller's at construction, on
//! the constructing thread), so on a first-touch NUMA system the pages
//! land on the node of the thread that writes them. A team of one has
//! no placement to make: its first job touches the pages. Optional core
//! pinning (`PoolOptions::pin`, CLI `pool:N@pin`) binds spawned worker
//! `w ≥ 1` to CPU `w` via `sched_setaffinity` on Linux (a no-op
//! elsewhere), keeping those pages node-local for the pool's lifetime;
//! the caller's affinity is the caller's business and is never touched.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use s2d_obs::{Phase, TelemetrySink};
use s2d_spmv::SpmvOperator;

use crate::backend::Backend;
use crate::compile::{CompiledPlan, RankStep};
use crate::exec::{align_pad, walk, ALIGN_SLACK};
use crate::telemetry::{call_end, span_end, span_start, ExecTelemetry};

/// Flat `f64` words shareable across participants, reached only through
/// range views (see the module docs for the access discipline that
/// makes them sound). Owned as `Box<ShBuf>` (the engine's `y` arena) or
/// borrowed over a caller's slice for the length of a job. View bounds
/// are always checked, so a corrupt offset panics safely instead of
/// reaching out of bounds.
#[repr(transparent)]
struct ShBuf([UnsafeCell<f64>]);

// SAFETY: all access goes through the views below under the spatial and
// temporal invariants documented on the module.
unsafe impl Sync for ShBuf {}

impl ShBuf {
    fn new(len: usize) -> Box<ShBuf> {
        // `vec![0.0; n]` allocates through `alloc_zeroed`, leaving
        // fresh pages untouched until a participant first-touches them
        // (the NUMA placement lever); the obvious per-element
        // `UnsafeCell::new` collect would fault every page on the
        // constructing thread instead.
        let raw = Box::into_raw(vec![0.0f64; len].into_boxed_slice());
        // SAFETY: same allocation; `ShBuf` is repr(transparent) over
        // `[UnsafeCell<f64>]` and UnsafeCell<f64> over f64, so `[f64]`
        // and `ShBuf` have identical layout and pointer metadata.
        unsafe { Box::from_raw(raw as *mut ShBuf) }
    }

    /// Borrowed view of `len` caller-owned words at `ptr` (view kind 2).
    ///
    /// # Safety
    /// The words must be valid for reads and writes for `'a`, and for
    /// that long be accessed only through views derived from this call
    /// (or sibling calls on the same words) under the module's
    /// invariants.
    unsafe fn from_raw_parts<'a>(ptr: *mut f64, len: usize) -> &'a ShBuf {
        // SAFETY: `ShBuf` is repr(transparent) over `[UnsafeCell<f64>]`,
        // which has `[f64]`'s layout, so the cast keeps pointer and
        // length; validity and access for `'a` are the caller's contract.
        unsafe { &*(std::ptr::slice_from_raw_parts_mut(ptr, len) as *const ShBuf) }
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
}

/// Busy-wait budget, in `spin_loop` hints, before a waiter gives up its
/// core: a barrier waiter then yields between polls (it stays live when
/// participants outnumber cores), an idle worker parks.
const SPIN_BUDGET: u32 = 1 << 14;

/// One turn of a wait that never sleeps: a `spin_loop` hint while the
/// budget lasts, a `yield_now` after.
#[inline]
fn spin_or_yield(spins: &mut u32) {
    *spins += 1;
    if *spins < SPIN_BUDGET {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Where one participant stands in one barrier crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Crossing {
    /// Everyone arrived: proceed.
    Released,
    /// The engine is poisoned: bail out without touching a buffer.
    Poisoned,
    /// Arrived; keep polling for the end of this generation.
    Pending(usize),
}

/// Sense-reversing barrier among the `total` participants of a job.
/// Every step takes the engine's poison flag: once poisoned, every
/// arrival and every poll reports [`Crossing::Poisoned`] and the
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

    /// Registers the caller at the barrier. The last arrival resets the
    /// count and releases the generation. Release/acquire on the
    /// generation counter orders all pre-barrier writes before all
    /// post-barrier reads.
    fn arrive(&self, poison: &AtomicBool) -> Crossing {
        if poison.load(Ordering::Acquire) {
            return Crossing::Poisoned;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            Crossing::Released
        } else {
            Crossing::Pending(gen)
        }
    }

    /// One look at a crossing `arrive` left pending on generation `gen`.
    fn poll(&self, gen: usize, poison: &AtomicBool) -> Crossing {
        if poison.load(Ordering::Acquire) {
            Crossing::Poisoned
        } else if self.generation.load(Ordering::Acquire) != gen {
            Crossing::Released
        } else {
            Crossing::Pending(gen)
        }
    }

    /// Blocks until all `total` participants arrive, or until `poison`
    /// is raised (returns `true` in that case): `arrive`, then `poll`
    /// spinning for [`SPIN_BUDGET`] and yielding after.
    #[must_use]
    fn wait(&self, poison: &AtomicBool) -> bool {
        let mut crossing = self.arrive(poison);
        let mut spins = 0u32;
        loop {
            match crossing {
                Crossing::Released => return false,
                Crossing::Poisoned => return true,
                Crossing::Pending(gen) => {
                    spin_or_yield(&mut spins);
                    crossing = self.poll(gen, poison);
                }
            }
        }
    }
}

/// What ends a worker's idle wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Wake {
    /// A job was published under this epoch.
    Job(usize),
    /// The engine is dropping.
    Shutdown,
}

/// The job hand-off between the caller (participant 0, the publisher)
/// and the spawned workers, as single non-blocking steps plus the
/// blocking loops the engine composes from them — the steps are what
/// the exhaustive interleaving test drives. Orderings: `epoch`,
/// `shutdown` and the `parked` flags are `SeqCst` (the flag → re-check
/// / publish → read-flag pair needs store-load ordering); `pending` is
/// `AcqRel` on the workers' decrement and `Acquire` on the caller's
/// read; `poisoned` is `Release` / `Acquire`.
struct Control {
    /// Bumped once per job, after the descriptor is written.
    epoch: AtomicUsize,
    /// Workers still inside the current job (the counted completion).
    pending: AtomicUsize,
    /// Per spawned worker (participant `i + 1`): about to park, or
    /// parked.
    parked: Box<[AtomicBool]>,
    shutdown: AtomicBool,
    /// Raised when a participant panics; poisons the phase barrier.
    poisoned: AtomicBool,
    /// All participants: phase-internal synchronization.
    sync: SpinBarrier,
}

impl Control {
    fn new(participants: usize) -> Control {
        Control {
            epoch: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            parked: (1..participants).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            sync: SpinBarrier::new(participants),
        }
    }

    /// Publisher: opens a job for every spawned worker. The caller
    /// follows up with [`Control::is_parked`] per worker.
    fn publish(&self) {
        self.pending.store(self.parked.len(), Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Publisher: tells every worker to exit; followed by the same
    /// [`Control::is_parked`] sweep as a publish.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Publisher, after `publish` / `shut_down`: does worker `i` need
    /// an `unpark`?
    fn is_parked(&self, i: usize) -> bool {
        self.parked[i].load(Ordering::SeqCst)
    }

    /// Publisher: has every worker left the current job?
    fn job_done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    /// Worker: one look for something newer than epoch `seen`.
    fn poll_idle(&self, seen: usize) -> Option<Wake> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Some(Wake::Shutdown);
        }
        let epoch = self.epoch.load(Ordering::SeqCst);
        (epoch != seen).then_some(Wake::Job(epoch))
    }

    /// Worker `i`: raise the flag *before* the re-check that precedes
    /// `park`, clear it after waking.
    fn set_parked(&self, i: usize, parked: bool) {
        self.parked[i].store(parked, Ordering::SeqCst);
    }

    /// Worker: leaves the current job; `true` for the last one out.
    fn leave(&self) -> bool {
        self.pending.fetch_sub(1, Ordering::AcqRel) == 1
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Worker `i`'s idle wait: spin on the epoch for [`SPIN_BUDGET`],
    /// then flag → re-check → `park` until a publish or shutdown shows.
    /// A stale `unpark` token only costs one extra trip round the loop.
    fn await_job(&self, i: usize, seen: usize) -> Wake {
        let mut spins = 0u32;
        loop {
            if let Some(wake) = self.poll_idle(seen) {
                return wake;
            }
            spins += 1;
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
                continue;
            }
            self.set_parked(i, true);
            let wake = self.poll_idle(seen);
            if wake.is_none() {
                std::thread::park();
            }
            self.set_parked(i, false);
            if let Some(wake) = wake {
                return wake;
            }
        }
    }

    /// The caller's completion wait. Never parks: the workers it waits
    /// for are inside a job, i.e. runnable.
    fn await_done(&self) {
        let mut spins = 0u32;
        while !self.job_done() {
            spin_or_yield(&mut spins);
        }
    }
}

/// Construction knobs for [`ParallelEngine::with_options`]. The
/// `Default` value is default participant sizing, width 1, no pinning,
/// no telemetry.
#[derive(Clone, Default)]
pub struct PoolOptions {
    /// Requested participant count, **including the calling thread**:
    /// the thread that applies the operator works as participant 0, so
    /// `N` participants spawn `N − 1` OS threads. `0` selects the
    /// default sizing; the team actually run is
    /// [`Backend::participants`] of `Backend::CompiledPool { threads, .. }`.
    pub threads: usize,
    /// Batch capacity the shared buffers are sized for (`0` is treated
    /// as 1).
    pub width: usize,
    /// Pin spawned worker `w ≥ 1` to CPU `w` at startup (Linux
    /// `sched_setaffinity`; a silent no-op elsewhere or on failure —
    /// affinity is a performance hint, never a correctness
    /// requirement). The calling thread's affinity is never touched.
    pub pin: bool,
    /// Optional telemetry sink: participants time their compute /
    /// gather / scatter work per owned rank and their barrier waits —
    /// the caller's completion wait included; a team of one has none —
    /// (recorded under each participant's first owned rank) into it.
    /// Results are bitwise identical to an uninstrumented pool.
    pub sink: Option<Arc<TelemetrySink>>,
}

/// Stored multiply-adds one step executes per iteration (0 for a
/// communication step).
fn step_ops(step: &RankStep) -> u64 {
    match step {
        RankStep::Compute(kernel) => kernel.stored_ops() as u64,
        RankStep::Comm { .. } => 0,
    }
}

/// Stored multiply-adds rank `rk` executes per iteration, over all its
/// compute phases.
fn rank_ops(plan: &CompiledPlan, rk: usize) -> u64 {
    plan.ranks[rk].steps.iter().map(step_ops).sum()
}

/// Rank ownership on `threads` participants: one greedy LPT pass over
/// [`rank_ops`] — heaviest rank first (lowest rank on ties) onto the
/// least-loaded participant (on ties one that owns nothing yet, then
/// the lowest index) — with each participant's ranks kept ascending.
/// At `threads ≤ k` every participant owns at least one rank.
fn owners(plan: &CompiledPlan, threads: usize) -> Vec<Vec<usize>> {
    let ops: Vec<u64> = (0..plan.k).map(|rk| rank_ops(plan, rk)).collect();
    let mut order: Vec<usize> = (0..plan.k).collect();
    order.sort_by_key(|&rk| (std::cmp::Reverse(ops[rk]), rk));
    let mut load = vec![0u64; threads];
    let mut assign = vec![Vec::new(); threads];
    for rk in order {
        let w = (0..threads)
            .min_by_key(|&w| (load[w], !assign[w].is_empty(), w))
            .expect("at least one participant");
        load[w] += ops[rk];
        assign[w].push(rk);
    }
    for ranks in &mut assign {
        ranks.sort_unstable();
    }
    assign
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
    let cpus = crate::cpu_count().min(MASK_WORDS * 64);
    let core = core % cpus;
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] |= 1u64 << (core % 64);
    // SAFETY: pid 0 is the calling thread; the mask buffer is live and
    // sized as declared. Failure (e.g. a restricted cpuset) is ignored.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) {}

/// State shared between the caller and the spawned workers.
struct Shared {
    plan: Arc<CompiledPlan>,
    /// Batch capacity the arena was sized for.
    width: usize,
    /// The `y` arena: `arena_slots × width` words from word `pad` (a
    /// cache-line boundary) on, in [`ALIGN_SLACK`] more.
    y: Box<ShBuf>,
    pad: usize,
    /// The ranks each participant owns, ascending: it clears, computes,
    /// folds and emits for them (see [`owners`]).
    assign: Vec<Vec<usize>>,
    /// Pin spawned worker `w` to CPU `w` at startup.
    pin: bool,
    /// Job descriptor: input and output pointers + chained iteration
    /// count + batch width. Written by the caller before it publishes
    /// the epoch, read by every participant after it.
    job_x: AtomicPtr<f64>,
    job_y: AtomicPtr<f64>,
    job_iters: AtomicUsize,
    job_width: AtomicUsize,
    /// Job start, job completion, poison, phase barrier.
    ctl: Control,
    /// Optional telemetry (fixed at construction — `Shared` is
    /// immutable once workers spawn). `None` keeps the job loop free
    /// of clock reads.
    obs: Option<ExecTelemetry>,
}

/// A persistent team executing one compiled plan: the calling thread
/// plus `threads() − 1` spawned workers.
///
/// Construction validates the plan's sharing invariants, spawns the
/// workers and allocates every buffer; the [`SpmvOperator`] methods
/// then run with zero heap allocation at any batch width up to
/// [`PoolOptions::width`]. A wider batch rebuilds the team once.
pub struct ParallelEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Checks the structural invariants the worker pool's unsafe sharing
/// relies on (every field of [`CompiledPlan`] a walker reads is public,
/// so the plan cannot be trusted to come from the compiler): the
/// interval arithmetic behind the module's views.
///
/// # Panics
/// Panics with a description of the violated invariant.
fn validate_for_pool(plan: &CompiledPlan) {
    let num_phases = plan.fold_steps.len();
    assert_eq!(plan.y_part.len(), plan.nrows, "y_part length mismatch");
    // Blocks lie in rank order, so the arena ends after the last one.
    let mut end = 0;
    for (r, rp) in plan.ranks.iter().enumerate() {
        assert_eq!(rp.steps.len(), num_phases, "rank {r}: misaligned step count");
        assert!(rp.y_off >= end, "rank {r}: y blocks overlap");
        end = rp.y_off + rp.ny;
        let own = rp.y_off..end;
        // Ownership (y_part is a function of the row) makes emitted
        // rows (y_emit and y_zero) pairwise disjoint across ranks — two
        // participants writing the same element of the job's `y`
        // concurrently would be a data race.
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
            // Workers read the step kind from rank 0 only.
            assert!(
                matches!(step, RankStep::Compute(_))
                    == matches!(plan.ranks[0].steps[p], RankStep::Compute(_)),
                "phase {p}: step kinds disagree across ranks"
            );
            match step {
                RankStep::Compute(kernel) => {
                    // Per-format structural checks (array shapes,
                    // columns inside the x home space, row slots inside
                    // the block) — see Kernel::validate.
                    if let Err(e) = kernel.validate(plan.ncols, rp.ny) {
                        panic!("rank {r} phase {p}: {e}");
                    }
                }
                RankStep::Comm { folds, .. } => {
                    for &(src, dst) in folds {
                        assert!(
                            own.contains(&(dst as usize)),
                            "rank {r} phase {p}: fold destination outside the own block"
                        );
                        assert!(
                            !own.contains(&(src as usize)) && (src as usize) < plan.arena_slots(),
                            "rank {r} phase {p}: fold source inside the own block or past the arena"
                        );
                    }
                }
            }
        }
    }
    // Per step: what one rank reads from a producer's block while
    // folding, no rank writes; and every participant agrees on whether
    // the step has a barrier at all.
    let mut written = vec![false; plan.arena_slots()];
    for (p, &folds_here) in plan.fold_steps.iter().enumerate() {
        let folds = || {
            plan.ranks.iter().flat_map(|rp| match &rp.steps[p] {
                RankStep::Comm { folds, .. } => &folds[..],
                RankStep::Compute(_) => &[],
            })
        };
        folds().for_each(|&(_, dst)| written[dst as usize] = true);
        assert!(
            folds().all(|&(src, _)| !written[src as usize]),
            "phase {p}: a fold source is a destination of the same step"
        );
        assert_eq!(folds_here, folds().next().is_some(), "phase {p}: fold_steps disagrees");
        folds().for_each(|&(_, dst)| written[dst as usize] = false);
    }
}

impl ParallelEngine {
    /// Builds the pool over `plan`: every knob (participant count,
    /// batch capacity, core pinning, telemetry) comes from one
    /// [`PoolOptions`]. The team size is [`Backend::participants`];
    /// each participant owns whole ranks, balanced by stored
    /// multiply-adds (see the module docs).
    ///
    /// # Panics
    /// Panics if `plan` violates the invariants the shared-buffer
    /// execution depends on (see `validate_for_pool` in the source) —
    /// plans produced by [`CompiledPlan::compile`] always satisfy them.
    pub fn with_options(plan: impl Into<Arc<CompiledPlan>>, opts: PoolOptions) -> ParallelEngine {
        let plan = plan.into();
        validate_for_pool(&plan);
        let (width, pin, k) = (opts.width.max(1), opts.pin, plan.k);
        let threads = Backend::CompiledPool { threads: opts.threads, pin }
            .participants(k, crate::cpu_count());
        let obs = opts.sink.map(|sink| ExecTelemetry::new(&plan, sink));
        // threads ≤ k: every participant owns a rank to record its
        // barrier waits under.
        let assign = owners(&plan, threads);
        let y = ShBuf::new(plan.arena_slots() * width + ALIGN_SLACK);
        let shared = Arc::new(Shared {
            width,
            pad: align_pad(y.0.as_ptr() as *const f64),
            y,
            assign,
            pin,
            job_x: AtomicPtr::new(std::ptr::null_mut()),
            job_y: AtomicPtr::new(std::ptr::null_mut()),
            job_iters: AtomicUsize::new(0),
            job_width: AtomicUsize::new(1),
            ctl: Control::new(threads),
            obs,
            plan,
        });
        let mut engine = ParallelEngine { shared, workers: Vec::new() };
        engine.spawn();
        engine
    }

    /// Number of participants: the calling thread plus the spawned
    /// workers.
    pub fn threads(&self) -> usize {
        self.shared.assign.len()
    }

    /// Batch capacity this pool's buffers are sized for.
    pub fn width(&self) -> usize {
        self.shared.width
    }

    /// Spawns participants `1..threads()` and, next to them,
    /// first-touches participant 0's blocks on the calling thread —
    /// normally the one that will execute.
    fn spawn(&mut self) {
        self.workers = (1..self.threads())
            .map(|w| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("s2d-engine-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn engine worker")
            })
            .collect();
        if !self.workers.is_empty() {
            self.shared.first_touch(0);
        }
    }

    /// Shuts the team down: every worker leaves its idle wait and is
    /// joined.
    fn join_workers(&mut self) {
        self.shared.ctl.shut_down();
        self.unpark_flagged();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Re-sizes the shared buffers for batches of `width` — the one way
    /// to widen a pool, so build with the widest batch you plan to use.
    /// The old team goes first (workers joined, arena freed): the new
    /// one must not spawn and first-touch next to a live team. Plan,
    /// rank ownership, pinning and telemetry carry over; the job hand-off (and any poison) starts afresh.
    fn grow(&mut self, width: usize) {
        self.join_workers();
        let sh = Arc::get_mut(&mut self.shared).expect("joined workers hold no state");
        // Free the old arena before allocating the new one.
        sh.y = ShBuf::new(0);
        sh.y = ShBuf::new(sh.plan.arena_slots() * width + ALIGN_SLACK);
        sh.pad = align_pad(sh.y.0.as_ptr() as *const f64);
        sh.width = width;
        sh.ctl = Control::new(sh.assign.len());
        self.spawn();
    }

    /// `iters` chained batched applications: `Y = A^iters · X` over `r`
    /// right-hand sides (row-major `ncols × r` input, `nrows × r`
    /// output) with one dispatch — participants stay hot across
    /// iterations, nothing allocates, and `y` itself carries the
    /// iterate. The calling thread works as participant 0 and does not
    /// return — nor unwind — before every worker has left the job.
    ///
    /// # Panics
    /// Panics if `r` exceeds the width the pool was built with, or if a
    /// participant panicked: a panic in the caller's own share
    /// resurfaces with its original message, a worker's as "engine
    /// poisoned" (its message is on stderr), and every later call fails
    /// fast.
    fn run(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        let sh = &*self.shared;
        assert!(iters >= 1, "at least one iteration");
        assert!(r >= 1, "batch width must be at least 1");
        assert!(
            r <= sh.width,
            "pool was built for batches of {} (got {r}); raise PoolOptions::width",
            sh.width
        );
        assert_eq!(x.len(), sh.plan.ncols * r, "input length mismatch");
        assert_eq!(y.len(), sh.plan.nrows * r, "output length mismatch");
        if iters > 1 {
            assert_eq!(sh.plan.nrows, sh.plan.ncols, "chained SpMV needs a square plan");
        }
        assert!(
            !sh.ctl.is_poisoned(),
            "engine poisoned: a participant panicked in an earlier call"
        );
        sh.job_x.store(x.as_ptr() as *mut f64, Ordering::Relaxed);
        sh.job_y.store(y.as_mut_ptr(), Ordering::Relaxed);
        sh.job_iters.store(iters, Ordering::Relaxed);
        sh.job_width.store(r, Ordering::Relaxed);
        let t = span_start(sh.obs.as_ref());
        sh.ctl.publish();
        self.unpark_flagged();
        let outcome = sh.run_share(0);
        // Unconditionally: workers hold views derived from `x` and `y`
        // until they leave, so this frame must outlive the count. A
        // team of one waits for nobody and records no wait.
        let obs = sh.obs.as_ref().filter(|_| !self.workers.is_empty());
        let tw = span_start(obs);
        sh.ctl.await_done();
        span_end(obs, sh.assign[0][0], Phase::BarrierWait, tw);
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
        assert!(
            !sh.ctl.is_poisoned(),
            "engine poisoned: a worker thread panicked (see stderr for its message)"
        );
        call_end(sh.obs.as_ref(), t, iters);
    }

    /// Unparks the workers that flagged themselves parked; follows
    /// every `publish` / `shut_down` (see [`Control`]).
    fn unpark_flagged(&self) {
        for (i, worker) in self.workers.iter().enumerate() {
            if self.shared.ctl.is_parked(i) {
                worker.thread().unpark();
            }
        }
    }
}

impl SpmvOperator for ParallelEngine {
    fn nrows(&self) -> usize {
        self.shared.plan.nrows
    }

    fn ncols(&self) -> usize {
        self.shared.plan.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.run(x, y, 1, 1);
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.apply_batch_iters(x, y, r, 1);
    }

    fn apply_batch_iters(&mut self, x: &[f64], y: &mut [f64], r: usize, iters: usize) {
        if r > self.width() {
            self.grow(r);
        }
        // Native chained path: one dispatch, participants stay hot
        // across iterations.
        self.run(x, y, r, iters);
    }

    /// Planned stored multiply-adds per iteration, one row per compute
    /// phase with one entry per participant (index 0 = the caller): the
    /// sum over the ranks it owns. Phases are separated by barriers, so
    /// each row's maximum is what that phase costs. The
    /// rank→participant map is fixed (no work stealing), so planned
    /// load is also the achieved per-iteration load — multiply by
    /// iterations × batch width for executed madds.
    fn worker_loads(&self) -> Option<Vec<Vec<u64>>> {
        let sh = &*self.shared;
        let compute = (0..sh.plan.fold_steps.len())
            .filter(|&p| matches!(sh.plan.ranks[0].steps[p], RankStep::Compute(_)));
        Some(
            compute
                .map(|p| {
                    let load = |ranks: &Vec<usize>| {
                        ranks.iter().map(|&rk| step_ops(&sh.plan.ranks[rk].steps[p])).sum()
                    };
                    sh.assign.iter().map(load).collect()
                })
                .collect(),
        )
    }
}

impl Drop for ParallelEngine {
    fn drop(&mut self) {
        self.join_workers();
    }
}

/// One participant's share of one job at batch width `r`, as the
/// phase-walk body (`crate::exec`) sees it: the ranks it owns, range
/// views over the shared arena and the job's vectors, and the phase
/// barrier. Each view below names the module invariant it rests on.
pub(crate) struct PoolWorker<'a> {
    shared: &'a Shared,
    w: usize,
    /// The job's input block (`ncols × r` words).
    x: &'a [f64],
    /// The job's output block (`nrows × r` words), view kind 2.
    y: &'a ShBuf,
    r: usize,
}

impl<'a> PoolWorker<'a> {
    /// Rank `rk`'s block in the arena buffer: first word and length.
    #[inline(always)]
    fn block(&self, rk: usize) -> (usize, usize) {
        let block = self.shared.plan.ranks[rk].block(self.r);
        (self.shared.pad + block.start, block.len())
    }

    /// The ranks this participant clears, computes, folds and emits
    /// for, ascending.
    #[inline(always)]
    pub(crate) fn ranks(&self) -> &'a [usize] {
        &self.shared.assign[self.w]
    }

    /// Barrier among the participants, recorded under this
    /// participant's first owned rank as a barrier-wait span when `obs`
    /// is attached. `true` means a peer died: the caller must return
    /// without touching any buffer again. A team of one has no peer to
    /// wait for: it returns at once, touching no atomic and recording
    /// no span.
    #[inline(always)]
    pub(crate) fn sync(&mut self, obs: Option<&ExecTelemetry>) -> bool {
        if self.shared.assign.len() == 1 {
            return false;
        }
        let t = span_start(obs);
        let poisoned = self.shared.ctl.sync.wait(&self.shared.ctl.poisoned);
        span_end(obs, self.shared.assign[self.w][0], Phase::BarrierWait, t);
        poisoned
    }

    /// Owned rank `rk`'s kernel operands: the `x` home space (the job's
    /// input on the `first` iteration, its output after) and the rank's
    /// `y` block, exclusively.
    ///
    /// View kinds 1 and 2. The home space: nobody writes the job's `x`,
    /// and the job's `y` is written only by emits, a barrier away on
    /// either side. The block: only the rank's owner writes it, and
    /// producers' slots are read in a fold only a barrier later.
    #[inline(always)]
    pub(crate) fn compute(&mut self, rk: usize, first: bool) -> (&[f64], &mut [f64]) {
        let x = if first { self.x } else { self.y.region(0, self.shared.plan.ncols * self.r) };
        let (lo, len) = self.block(rk);
        (x, self.shared.y.region_mut(lo, len))
    }

    /// The whole `y` arena, for folding into owned ranks' slots from
    /// their producers'.
    #[inline(always)]
    pub(crate) fn arena(&mut self) -> ShView<'_> {
        ShView { buf: &self.shared.y, base: self.shared.pad }
    }

    /// Owned rank `rk`'s `y` block, exclusively (to clear, to emit
    /// from), and the job's output block, of which the rank writes its
    /// owned rows.
    ///
    /// View kinds 1 and 2. The block: only the rank's owner touches
    /// it, but for producers' slots read in a fold, and a barrier
    /// separates every clear and emit from the folds around it. The
    /// job's `y`: emitted rows are owned (validated), hence disjoint
    /// across participants, and every kernel that read it as its `x`
    /// finished a barrier ago.
    #[inline(always)]
    pub(crate) fn own(&mut self, rk: usize) -> (&mut [f64], ShView<'_>) {
        let (lo, len) = self.block(rk);
        (self.shared.y.region_mut(lo, len), ShView { buf: self.y, base: 0 })
    }
}

/// A shared buffer from word `base` on: the arena past its alignment
/// pad (view kind 1), the job's `y` from 0 (kind 2).
pub(crate) struct ShView<'a> {
    buf: &'a ShBuf,
    base: usize,
}

impl ShView<'_> {
    /// Words `lo..lo + len`, exclusively; panics when out of bounds.
    #[inline(always)]
    pub(crate) fn region_mut(&mut self, lo: usize, len: usize) -> &mut [f64] {
        self.buf.region_mut(self.base + lo, len)
    }

    /// `self[dst..dst + r] += self[src..src + r]`: one fold word at
    /// batch width `r` — an own slot exclusively, a producer's slot
    /// read-only (disjoint: validated), both while no one else writes
    /// either.
    #[inline(always)]
    pub(crate) fn fold(&mut self, dst: usize, src: usize, r: usize) {
        let from = self.buf.region(self.base + src, r);
        for (acc, w) in self.buf.region_mut(self.base + dst, r).iter_mut().zip(from) {
            *acc += w;
        }
    }
}

/// Decrements the completion count when a worker leaves a job, however
/// it leaves.
struct Leave<'a>(&'a Control);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

impl Shared {
    /// First-touches the blocks participant `w` owns, where they lie
    /// at full width: allocation left the pages untouched
    /// (alloc_zeroed), so writing them here — strictly before `w` first
    /// arrives at a barrier, and nobody else reaches a rank's block
    /// before its owner crossed one — places them on this thread's NUMA
    /// node under a first-touch policy.
    fn first_touch(&self, w: usize) {
        for &rk in &self.assign[w] {
            let block = self.plan.ranks[rk].block(self.width);
            self.y.region_mut(self.pad + block.start, block.len()).fill(0.0);
        }
    }

    /// Participant `w`'s share of the published job. A panic poisons
    /// the engine (so nobody waits at a barrier for this participant)
    /// and is handed back instead of unwinding further.
    fn run_share(&self, w: usize) -> std::thread::Result<()> {
        let iters = self.job_iters.load(Ordering::Relaxed);
        let r = self.job_width.load(Ordering::Relaxed);
        let xp = self.job_x.load(Ordering::Relaxed) as *const f64;
        let yp = self.job_y.load(Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: (view kind 2) the pointers are the caller's `x`
            // and `y`, `ncols × r` and `nrows × r` words by the `run`
            // asserts. Temporal: the caller stays inside
            // `ParallelEngine::run`, not touching either, until the
            // completion count reaches zero, and this participant
            // leaves the job only after `walk` returned. Spatial: `x`
            // is only read; `y` is written only at this participant's
            // owned rows (`validate_for_pool`: y_emit ∪ y_zero owned),
            // and read whole only while nobody emits.
            let (x, y) = unsafe {
                (
                    std::slice::from_raw_parts(xp, self.plan.ncols * r),
                    ShBuf::from_raw_parts(yp, self.plan.nrows * r),
                )
            };
            // A poisoned barrier makes the walk return early, without
            // touching the shared buffers again.
            walk(
                &self.plan,
                &mut PoolWorker { shared: self, w, x, y, r },
                r,
                iters,
                self.obs.as_ref(),
            );
        }));
        if outcome.is_err() {
            self.ctl.poison();
        }
        outcome
    }
}

/// A spawned worker's main loop: idle (spin, then park) until a job is
/// published, run its share, leave through the counted completion,
/// idle again. Lives until the engine drops. A panic in the job body
/// poisons the engine instead of deadlocking it; the worker then idles
/// like any other.
fn worker_loop(shared: &Shared, w: usize) {
    if shared.pin {
        pin_to_core(w);
    }
    shared.first_touch(w);
    let mut seen = 0;
    while let Wake::Job(epoch) = shared.ctl.await_job(w - 1, seen) {
        seen = epoch;
        let _leave = Leave(&shared.ctl);
        let _ = shared.run_share(w);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exec::tests::seq;
    use crate::KernelIsa;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_spmv::SpmvPlan;

    /// Words of `engine`'s `y` arena allocation, alignment slack
    /// included.
    pub(crate) fn arena_len(engine: &ParallelEngine) -> usize {
        engine.shared.y.0.len()
    }

    /// Per-participant multiply-adds over all compute phases.
    fn totals(engine: &ParallelEngine) -> Vec<u64> {
        s2d_obs::WorkerLoadReport::new(engine.worker_loads().unwrap()).madds()
    }

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

    /// Square tridiagonal system with every fifth row empty (such rows
    /// never materialize: the owner emits them through `y_zero`),
    /// block-partitioned into `k` parts.
    fn holey_setup(n: usize, k: usize) -> (s2d_sparse::Csr, CompiledPlan) {
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let mut m = Coo::new(n, n);
        for i in (0..n).filter(|i| i % 5 != 2) {
            m.push(i, i, 2.0 + i as f64 / 7.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
            }
            if i > 0 {
                m.push(i, i - 1, -0.5);
            }
        }
        m.compress();
        let a = m.to_csr();
        let per = n.div_ceil(k);
        let part: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
        let p = SpmvPartition::rowwise(&a, part.clone(), part, k);
        let cp = CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p));
        assert!(cp.ranks.iter().any(|rp| !rp.y_zero.is_empty()), "needs never-materialized rows");
        (a, cp)
    }

    /// Runs `f` on a thread of its own and fails the test, instead of
    /// hanging it, when `f` has not finished after 60 s.
    fn with_watchdog(what: String, f: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => runner.join().expect("scenario thread"),
            // A dropped sender without a message is a panic inside `f`:
            // surface it. Only a timeout is a hang.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("scenario panicked"))
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what}: hung"),
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
            engine.apply(&x, &mut y);
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
        engine.apply(&x, &mut first);
        for _ in 0..10 {
            let mut again = vec![0.0; a.nrows()];
            engine.apply(&x, &mut again);
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
            engine.apply(&x, &mut y);
            assert_close(&y, &want);
        }
    }

    #[test]
    fn execute_iters_matches_sequential_chaining() {
        let (a, plan) = crate::exec::tests::square_setup(14, 4);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).cos()).collect();
        let cp = CompiledPlan::compile(&plan);
        let mut want = vec![0.0; a.nrows()];
        seq(&cp, 1).apply_batch_iters(&x, &mut want, 1, 4);
        let mut engine = pool(cp, 0, 1);
        let mut y = vec![0.0; a.nrows()];
        engine.apply_batch_iters(&x, &mut y, 1, 4);
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
                engine.apply_batch(&x, &mut y, r);
                let mut single = seq(&cp, 1);
                for q in 0..r {
                    let xq = crate::exec::tests::column(&x, a.ncols(), r, q);
                    let mut yq = vec![0.0; a.nrows()];
                    single.apply(&xq, &mut yq);
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
        let mut want = vec![0.0; a.nrows() * r];
        seq(&cp, r).apply_batch_iters(&x, &mut want, r, 3);
        let mut engine = pool(cp, 2, r);
        let mut y = vec![0.0; a.nrows() * r];
        engine.apply_batch_iters(&x, &mut y, r, 3);
        assert_eq!(y, want, "pool batch-iters must match the sequential executor bitwise");
    }

    #[test]
    fn every_kernel_format_agrees_on_the_pool() {
        // The pool runs the kernel bodies over the owners' blocks of the
        // shared arena: every format and ISA, at every specialized width
        // and the strided fallback, spread over 1-3 participants, must
        // match a team of one bitwise on the same compiled plan. The
        // dense rows cover most columns, so the split rows keep runs of
        // at least DENSE_MIN_RUN consecutive columns.
        use crate::formats::{KernelFormat, KernelIsa};
        use s2d_core::optimal::s2d_optimal;
        use s2d_gen::denserow::{dense_row_matrix, DenseRowConfig};
        let (n, k) = (96, 4);
        let cfg =
            DenseRowConfig { n, nnz: 6 * n, dmax: n - 8, tail_decay: 0.5, mirror_cols: false };
        let a = dense_row_matrix(&cfg, 3);
        let parts: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
        let plan = SpmvPlan::single_phase(&a, &s2d_optimal(&a, &parts, &parts, k));
        for format in KernelFormat::all() {
            for isa in [KernelIsa::Auto, KernelIsa::Scalar] {
                let cp = Arc::new(CompiledPlan::compile_with_isa(&plan, format, isa));
                for threads in 1..=3 {
                    let opts = PoolOptions { threads, width: 8, ..PoolOptions::default() };
                    let mut engine = ParallelEngine::with_options(Arc::clone(&cp), opts);
                    assert_eq!(engine.shared.plan.format, format);
                    for r in [1usize, 2, 3, 4, 8] {
                        let x = crate::exec::tests::batch_input(n, r, 4);
                        let mut want = vec![0.0; n * r];
                        seq(&cp, r).apply_batch(&x, &mut want, r);
                        let mut y = vec![f64::NAN; n * r];
                        engine.apply_batch(&x, &mut y, r);
                        assert_eq!(
                            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "{format} {isa} threads={threads} r={r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_schedule_matches_rank_split_bitwise() {
        // The acceptance bar for whole-rank ownership: bitwise equality
        // with the sequential executor at every participant count,
        // including chained iterations.
        let (a, plan) = crate::exec::tests::square_setup(24, 4);
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).sin() + 0.25).collect();
        let cp = CompiledPlan::compile(&plan);
        let mut want = vec![0.0; a.nrows()];
        seq(&cp, 1).apply_batch_iters(&x, &mut want, 1, 3);
        for threads in [1usize, 2, 3, 4] {
            let mut engine = pool(cp.clone(), threads, 1);
            let mut y = vec![0.0; a.nrows()];
            engine.apply_batch_iters(&x, &mut y, 1, 3);
            assert_eq!(y, want, "threads={threads}");
        }
        // Every iteration emits straight into the caller's `y`: a
        // mixed-width sequence on one engine must write every owned row
        // at the job's stride — `y` starts out as NaN.
        let (a, cp) = holey_setup(23, 4);
        let mut ws = seq(&cp, 8);
        for threads in [1usize, 2, 3, 4] {
            let mut engine = pool(cp.clone(), threads, 8);
            for iters in [1usize, 3] {
                for r in [8usize, 1, 4] {
                    let x = crate::exec::tests::batch_input(a.ncols(), r, 3);
                    let mut want = vec![f64::NAN; a.nrows() * r];
                    ws.apply_batch_iters(&x, &mut want, r, iters);
                    let mut y = vec![f64::NAN; a.nrows() * r];
                    engine.apply_batch_iters(&x, &mut y, r, iters);
                    assert_eq!(
                        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "threads={threads} r={r} iters={iters}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_loads_are_the_parents() {
        // The rank→participant map is a pure function of the plan and
        // the team size: literal loads and owners.
        let (_a, plan) = crate::exec::tests::square_setup(24, 4);
        let engine = pool(CompiledPlan::compile(&plan), 3, 1);
        assert_eq!(engine.worker_loads().unwrap(), [[0, 0, 0], [18, 18, 34]]);
        assert_eq!(engine.shared.assign, [vec![1], vec![2], vec![0, 3]]);
        let (_a, plan) = crate::exec::tests::square_setup(26, 6);
        let engine = pool(CompiledPlan::compile(&plan), 4, 1);
        assert_eq!(engine.worker_loads().unwrap(), [[0, 0, 0, 0], [29, 17, 15, 15]]);
        assert_eq!(engine.shared.assign, [vec![0, 1], vec![2, 5], vec![3], vec![4]]);
    }

    #[test]
    fn worker_loads_cover_every_planned_madd() {
        let (_a, plan) = crate::exec::tests::square_setup(24, 4);
        let cp = CompiledPlan::compile(&plan);
        let total = cp.total_ops();
        assert!(total > 0, "test matrix must have work");
        let loads = totals(&pool(cp, 3, 1));
        assert_eq!(loads.iter().sum::<u64>(), total, "every madd is owned exactly once");
        // max / mean is at least 1.
        assert!(loads.iter().max().unwrap() * loads.len() as u64 >= total);
        // One row per compute phase, one entry per participant: on
        // Fig. 1's s2D plan both compute phases carry work.
        let cp = CompiledPlan::compile(&SpmvPlan::single_phase(&fig1_matrix(), &fig1_partition()));
        let loads = pool(cp.clone(), 2, 1).worker_loads().unwrap();
        assert_eq!(loads.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2]);
        assert!(loads.iter().all(|row| row.iter().sum::<u64>() > 0));
        assert_eq!(loads.concat().iter().sum::<u64>(), cp.total_ops());
    }

    /// A power-law matrix, block-partitioned into `k` parts, as a
    /// single-phase plan: ranks of very different weight.
    fn skewed_plan(k: usize, format: crate::formats::KernelFormat) -> CompiledPlan {
        use s2d_core::partition::SpmvPartition;
        let a = s2d_gen::powerlaw::power_law(240, 8 * 240, 2.1, 200, 5);
        let n = a.nrows();
        let part: Vec<u32> = (0..n).map(|i| (i * k / n) as u32).collect();
        let p = SpmvPartition::rowwise(&a, part.clone(), part, k);
        CompiledPlan::compile_with_isa(&SpmvPlan::single_phase(&a, &p), format, KernelIsa::Auto)
    }

    #[test]
    fn every_rank_has_exactly_one_owner() {
        use crate::formats::KernelFormat;
        // Ranks 2 and 3 own no rows at all: zero-weight ranks must still
        // leave no participant empty.
        let idle = {
            use s2d_core::partition::SpmvPartition;
            let (a, _) = crate::exec::tests::square_setup(12, 2);
            let part: Vec<u32> = (0..12).map(|i| (i / 6) as u32).collect();
            let p = SpmvPartition::rowwise(&a, part.clone(), part, 4);
            CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p))
        };
        for cp in [
            CompiledPlan::compile(&crate::exec::tests::square_setup(26, 6).1),
            skewed_plan(8, KernelFormat::Auto),
            idle,
        ] {
            for threads in 1..=cp.k {
                let engine = pool(cp.clone(), threads, 1);
                let assign = &engine.shared.assign;
                assert_eq!(assign.len(), threads);
                assert!(assign.iter().all(|ranks| !ranks.is_empty()), "threads={threads}");
                assert!(assign.iter().all(|ranks| ranks.windows(2).all(|w| w[0] < w[1])));
                let mut all: Vec<usize> = assign.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..cp.k).collect::<Vec<_>>(), "threads={threads}");
            }
        }
    }

    #[test]
    fn worker_loads_sum_to_the_stored_work() {
        // SELL padding is work a participant executes: the loads count
        // stored multiply-adds, which the CSR slice and the dense-split
        // format keep equal to the plan's real ones.
        use crate::formats::KernelFormat;
        for format in KernelFormat::all() {
            let cp = skewed_plan(8, format);
            let stored: u64 = cp
                .ranks
                .iter()
                .flat_map(|rp| &rp.steps)
                .map(|step| match step {
                    RankStep::Compute(kernel) => kernel.stored_ops() as u64,
                    RankStep::Comm { .. } => 0,
                })
                .sum();
            assert!(stored >= cp.total_ops(), "{format}");
            if format != KernelFormat::Sell {
                assert_eq!(stored, cp.total_ops(), "{format}");
            }
            for threads in 1..=4 {
                let loads = totals(&pool(cp.clone(), threads, 1));
                assert_eq!(loads.iter().sum::<u64>(), stored, "{format} threads={threads}");
            }
        }
    }

    #[test]
    fn ownership_balances_no_worse_than_a_count_split() {
        // The count-contiguous split: `k / threads` consecutive ranks
        // per participant, the first `k % threads` one more.
        let count_split = |cp: &CompiledPlan, threads: usize| -> u64 {
            let (base, extra) = (cp.k / threads, cp.k % threads);
            let mut next = 0;
            (0..threads)
                .map(|w| {
                    let len = base + usize::from(w < extra);
                    next += len;
                    (next - len..next).map(|rk| rank_ops(cp, rk)).sum::<u64>()
                })
                .max()
                .unwrap()
        };
        let skewed = skewed_plan(8, crate::formats::KernelFormat::Auto);
        let square = CompiledPlan::compile(&crate::exec::tests::square_setup(26, 6).1);
        for (cp, threads) in [(&skewed, 3), (&skewed, 2), (&square, 3)] {
            let lpt = *totals(&pool(cp.clone(), threads, 1)).iter().max().unwrap();
            let split = count_split(cp, threads);
            assert!(lpt <= split, "k={} threads={threads}: LPT {lpt} vs count split {split}", cp.k);
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
        pool(cp.clone(), 2, 1).apply(&x, &mut want);
        let mut pinned = ParallelEngine::with_options(
            cp,
            PoolOptions { threads: 2, pin: true, ..PoolOptions::default() },
        );
        let mut y = vec![0.0; a.nrows()];
        pinned.apply(&x, &mut y);
        assert_eq!(y, want, "pinning is placement-only, never numeric");
    }

    #[test]
    fn pool_grows_to_wider_batches() {
        // Built at width 1, applied at r = 3: the rebuilt team must
        // agree bitwise with its own single-column applications.
        let a = fig1_matrix();
        let p = fig1_partition();
        let mut engine = pool(CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p)), 2, 1);
        let r = 3;
        let x: Vec<f64> = (0..a.ncols() * r).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut y = vec![0.0; a.nrows() * r];
        engine.apply_batch(&x, &mut y, r); // width 1 → grows to 3
        assert_eq!((engine.width(), engine.threads()), (r, 2));
        assert_eq!(engine.workers.len(), 1, "the old team was joined, not kept");
        for q in 0..r {
            let xq: Vec<f64> = (0..a.ncols()).map(|g| x[g * r + q]).collect();
            let mut yq = vec![0.0; a.nrows()];
            engine.apply(&xq, &mut yq);
            let got: Vec<f64> = (0..a.nrows()).map(|g| y[g * r + q]).collect();
            assert_eq!(got, yq, "column {q}");
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let engine = pool(CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p)), 0, 1);
        assert!(engine.threads() >= 1);
        assert_eq!(engine.workers.len(), engine.threads() - 1, "the caller is participant 0");
        drop(engine); // must not hang
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
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.apply(&x, &mut y)));
        assert!(result.is_err(), "worker panic must reach the control thread");
        let again =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.apply(&x, &mut y)));
        assert!(again.is_err(), "poisoned engine must fail fast on reuse");
        drop(engine); // and Drop must not hang
    }

    /// The panic message of a caught unwind.
    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panic_in_any_share_poisons_instead_of_hanging() {
        // `row_ptr`'s end one past `vals` panics (bounds check) in the
        // rank's last segment and leaves its stored work as it was, so
        // the rank keeps its owner. Pick, from the ownership map, a
        // rank owned by the caller (`on` = 0) resp. by a spawned worker
        // (`on` ≥ 1).
        // Five ranks of five rows and one of a single row: the
        // heaviest rank always goes to participant 0, the lightest to
        // whoever is least loaded by then.
        let (a, plan) = crate::exec::tests::square_setup(26, 6);
        let clean = CompiledPlan::compile(&plan);
        for threads in [1usize, 2, 3] {
            for on_caller in [true, false] {
                if threads == 1 && !on_caller {
                    continue; // nothing is spawned
                }
                let built = (0..clean.k).find_map(|rk| {
                    let mut cp = clean.clone();
                    cp.ranks[rk].steps.iter_mut().find_map(|s| match s {
                        RankStep::Compute(crate::formats::Kernel::Csr(k)) if !k.rows.is_empty() => {
                            *k.row_ptr.last_mut().unwrap() += 1;
                            Some(())
                        }
                        _ => None,
                    })?;
                    let engine = pool(cp, threads, 1);
                    let on = engine
                        .shared
                        .assign
                        .iter()
                        .position(|ranks| ranks.contains(&rk))
                        .expect("every rank is owned");
                    ((on == 0) == on_caller).then_some(engine)
                });
                let mut engine = built.expect("some rank's chunk runs on the wanted side");
                let n = a.nrows();
                with_watchdog(format!("threads={threads} on_caller={on_caller}"), move || {
                    let x: Vec<f64> = (0..n).map(|j| j as f64).collect();
                    let mut y = vec![0.0; n];
                    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.apply(&x, &mut y)
                    }))
                    .expect_err("the panic must surface on the calling thread");
                    // The caller's own panic keeps its message; a
                    // worker's is reported as poison.
                    assert_eq!(
                        message(&*first).contains("engine poisoned"),
                        !on_caller,
                        "threads={threads} on_caller={on_caller}: {:?}",
                        message(&*first)
                    );
                    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.apply(&x, &mut y)
                    }))
                    .expect_err("a poisoned engine must fail fast");
                    assert!(message(&*second).contains("engine poisoned"));
                    drop(engine); // joins (parked) workers
                });
            }
        }
    }

    /// Exhaustive single-threaded model of the job hand-off: the caller
    /// and `n − 1` workers as small state machines whose transitions
    /// are the real [`Control`] / [`SpinBarrier`] steps (`thread::park`
    /// and `unpark` become a token per worker), explored over **every**
    /// interleaving of two consecutive jobs of two barrier crossings
    /// each — with a participant panicking (poison) at every position
    /// inside a job, and the caller shutting down instead of
    /// publishing at every position between jobs.
    mod protocol {
        use super::super::*;
        use std::collections::HashSet;

        const JOBS: usize = 2;
        const CROSSINGS: usize = 2;

        /// Where a participant stands inside a job.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Body {
            Arrive(usize),
            Poll(usize, usize),
            Done,
        }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Caller {
            /// Between jobs: publish job `j`, or shut down.
            Choose(usize),
            /// After `publish`: the unpark sweep, worker by worker.
            Sweep(usize, usize),
            Body(usize, Body),
            AwaitDone(usize),
            ShutdownSweep(usize),
            Join,
            Done,
        }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Worker {
            /// Spinning on the epoch (may give up and flag at any time).
            Idle,
            /// Flag raised; the re-check comes next.
            Flagged,
            /// Inside `park`.
            Parked,
            /// Awake; the flag is lowered next, then `Some` is acted on.
            Unflag(Option<Wake>),
            Body(Body),
            Leaving,
            Exited,
        }

        /// Everything but the atomics.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Plain {
            caller: Caller,
            workers: Vec<Worker>,
            seen: Vec<usize>,
            tokens: Vec<bool>,
            /// Arrivals the barrier counted, per (job, crossing).
            arrivals: [usize; JOBS * CROSSINGS],
            /// Jobs each worker has left.
            left: Vec<usize>,
            /// Times the completion count hit zero, per job.
            zeroed: [usize; JOBS],
            published: usize,
        }

        struct State {
            ctl: Control,
            at: Plain,
        }

        fn atomics(c: &Control) -> Vec<usize> {
            let o = Ordering::Relaxed;
            let mut v = vec![
                c.epoch.load(o),
                c.pending.load(o),
                c.shutdown.load(o) as usize,
                c.poisoned.load(o) as usize,
                c.sync.arrived.load(o),
                c.sync.generation.load(o),
            ];
            v.extend(c.parked.iter().map(|p| p.load(o) as usize));
            v
        }

        impl State {
            fn new(n: usize) -> State {
                State {
                    ctl: Control::new(n),
                    at: Plain {
                        caller: Caller::Choose(0),
                        workers: vec![Worker::Idle; n - 1],
                        seen: vec![0; n - 1],
                        tokens: vec![false; n - 1],
                        arrivals: [0; JOBS * CROSSINGS],
                        left: vec![0; n - 1],
                        zeroed: [0; JOBS],
                        published: 0,
                    },
                }
            }

            fn fork(&self) -> State {
                let v = atomics(&self.ctl);
                let ctl = Control::new(self.at.workers.len() + 1);
                let o = Ordering::Relaxed;
                ctl.epoch.store(v[0], o);
                ctl.pending.store(v[1], o);
                ctl.shutdown.store(v[2] != 0, o);
                ctl.poisoned.store(v[3] != 0, o);
                ctl.sync.arrived.store(v[4], o);
                ctl.sync.generation.store(v[5], o);
                for (p, &f) in ctl.parked.iter().zip(&v[6..]) {
                    p.store(f != 0, o);
                }
                State { ctl, at: self.at.clone() }
            }

            fn key(&self) -> (Vec<usize>, Plain) {
                (atomics(&self.ctl), self.at.clone())
            }

            /// One barrier step of a participant inside `job`; `None`
            /// when the poll left it waiting (no state change).
            fn body_step(&mut self, job: usize, at: Body) -> Option<Body> {
                let n = self.at.workers.len() + 1;
                let poisoned_before = self.ctl.is_poisoned();
                let (c, verdict) = match at {
                    Body::Arrive(c) => (c, self.ctl.sync.arrive(&self.ctl.poisoned)),
                    Body::Poll(c, gen) => (c, self.ctl.sync.poll(gen, &self.ctl.poisoned)),
                    Body::Done => unreachable!("a finished body takes no barrier step"),
                };
                if poisoned_before {
                    assert_eq!(verdict, Crossing::Poisoned, "after poison every step says so");
                }
                let slot = job * CROSSINGS + c;
                if matches!(at, Body::Arrive(_)) && verdict != Crossing::Poisoned {
                    self.at.arrivals[slot] += 1;
                }
                match (verdict, at) {
                    (Crossing::Poisoned, _) => Some(Body::Done),
                    (Crossing::Released, _) => {
                        assert_eq!(self.at.arrivals[slot], n, "released before everyone arrived");
                        Some(if c + 1 == CROSSINGS { Body::Done } else { Body::Arrive(c + 1) })
                    }
                    (Crossing::Pending(gen), Body::Arrive(_)) => Some(Body::Poll(c, gen)),
                    (Crossing::Pending(_), _) => None,
                }
            }

            /// Worker `i` acts on what ended its idle wait.
            fn wake(&mut self, i: usize, wake: Wake) {
                self.at.workers[i] = match wake {
                    Wake::Shutdown => Worker::Exited,
                    Wake::Job(epoch) => {
                        assert_eq!(epoch, self.at.seen[i] + 1, "every epoch is seen exactly once");
                        self.at.seen[i] = epoch;
                        Worker::Body(Body::Arrive(0))
                    }
                };
            }

            /// The publisher's look at worker `i` after a publish or a
            /// shutdown.
            fn unpark_if_flagged(&mut self, i: usize) {
                if self.ctl.is_parked(i) {
                    self.at.tokens[i] = true;
                }
            }

            /// No wake-up was lost: once the sweep is over, whoever is
            /// inside `park` with news to wake up to holds a token.
            fn assert_parked_have_tokens(&self) {
                for (i, w) in self.at.workers.iter().enumerate() {
                    let news = self.ctl.poll_idle(self.at.seen[i]).is_some();
                    assert!(
                        !(*w == Worker::Parked && news) || self.at.tokens[i],
                        "worker {i} sleeps through a publish / shutdown: {:?}",
                        self.at
                    );
                }
            }

            /// Alternative `alt` of the caller's next step; `false` when
            /// there is none or it is blocked.
            fn caller_step(&mut self, alt: usize) -> bool {
                let workers = self.at.workers.len();
                let shut_down = |s: &mut State| {
                    s.ctl.shut_down();
                    s.at.caller = Caller::ShutdownSweep(0);
                };
                match (self.at.caller, alt) {
                    // A poisoned engine fails fast: no further publish.
                    (Caller::Choose(j), 0) if j < JOBS && !self.ctl.is_poisoned() => {
                        self.ctl.publish();
                        self.at.published += 1;
                        self.at.caller = Caller::Sweep(j, 0);
                    }
                    (Caller::Choose(_), 1) => shut_down(self),
                    (Caller::Sweep(j, i), 0) => {
                        self.unpark_if_flagged(i);
                        self.at.caller = if i + 1 == workers {
                            self.assert_parked_have_tokens();
                            Caller::Body(j, Body::Arrive(0))
                        } else {
                            Caller::Sweep(j, i + 1)
                        };
                    }
                    (Caller::Body(j, Body::Done), 0) => self.at.caller = Caller::AwaitDone(j),
                    (Caller::Body(j, at), 0) => match self.body_step(j, at) {
                        Some(next) => self.at.caller = Caller::Body(j, next),
                        None => return false,
                    },
                    // The caller's own share panics here.
                    (Caller::Body(j, at), 1) if at != Body::Done && !self.ctl.is_poisoned() => {
                        self.ctl.poison();
                        self.at.caller = Caller::Body(j, Body::Done);
                    }
                    (Caller::AwaitDone(j), 0) => {
                        if !self.ctl.job_done() {
                            return false;
                        }
                        // The temporal invariant of view kind 2: the
                        // caller gets out only after every worker did.
                        assert!(
                            self.at.left.iter().all(|&l| l == j + 1),
                            "caller left job {j} with a worker inside: {:?}",
                            self.at
                        );
                        self.at.caller = Caller::Choose(j + 1);
                    }
                    (Caller::ShutdownSweep(i), 0) => {
                        self.unpark_if_flagged(i);
                        self.at.caller = if i + 1 == workers {
                            self.assert_parked_have_tokens();
                            Caller::Join
                        } else {
                            Caller::ShutdownSweep(i + 1)
                        };
                    }
                    (Caller::Join, 0) => {
                        if self.at.workers.iter().any(|w| *w != Worker::Exited) {
                            return false;
                        }
                        self.at.caller = Caller::Done;
                    }
                    _ => return false,
                }
                true
            }

            /// Alternative `alt` of worker `i`'s next step.
            fn worker_step(&mut self, i: usize, alt: usize) -> bool {
                match (self.at.workers[i], alt) {
                    (Worker::Idle, 0) => match self.ctl.poll_idle(self.at.seen[i]) {
                        Some(wake) => self.wake(i, wake),
                        None => return false,
                    },
                    // Spin budget spent (whatever the last poll saw).
                    (Worker::Idle, 1) => {
                        self.ctl.set_parked(i, true);
                        self.at.workers[i] = Worker::Flagged;
                    }
                    (Worker::Flagged, 0) => {
                        self.at.workers[i] = match self.ctl.poll_idle(self.at.seen[i]) {
                            None => Worker::Parked,
                            some => Worker::Unflag(some),
                        };
                    }
                    (Worker::Parked, 0) => {
                        if !self.at.tokens[i] {
                            return false;
                        }
                        self.at.tokens[i] = false;
                        self.at.workers[i] = Worker::Unflag(None);
                    }
                    (Worker::Unflag(wake), 0) => {
                        self.ctl.set_parked(i, false);
                        match wake {
                            Some(wake) => self.wake(i, wake),
                            None => self.at.workers[i] = Worker::Idle,
                        }
                    }
                    (Worker::Body(Body::Done), 0) => self.at.workers[i] = Worker::Leaving,
                    (Worker::Body(at), 0) => match self.body_step(self.at.seen[i] - 1, at) {
                        Some(next) => self.at.workers[i] = Worker::Body(next),
                        None => return false,
                    },
                    // This worker's share panics here.
                    (Worker::Body(at), 1) if at != Body::Done && !self.ctl.is_poisoned() => {
                        self.ctl.poison();
                        self.at.workers[i] = Worker::Body(Body::Done);
                    }
                    (Worker::Leaving, 0) => {
                        if self.ctl.leave() {
                            self.at.zeroed[self.at.seen[i] - 1] += 1;
                        }
                        self.at.left[i] += 1;
                        self.at.workers[i] = Worker::Idle;
                    }
                    _ => return false,
                }
                true
            }
        }

        /// Explores every reachable state; returns how many there are.
        fn explore(n: usize) -> usize {
            let root = State::new(n);
            let mut seen = HashSet::from([root.key()]);
            let mut stack = vec![root];
            let (mut clean, mut poisoned, mut early) = (0, 0, 0);
            while let Some(state) = stack.pop() {
                let mut moved = false;
                for who in 0..n {
                    for alt in 0..2 {
                        let mut next = state.fork();
                        let stepped = match who {
                            0 => next.caller_step(alt),
                            w => next.worker_step(w - 1, alt),
                        };
                        moved |= stepped;
                        if stepped && seen.insert(next.key()) {
                            stack.push(next);
                        }
                    }
                }
                if moved {
                    continue;
                }
                // Nobody can move: this must be the orderly end.
                let at = &state.at;
                assert_eq!(at.caller, Caller::Done, "everyone is blocked: {at:?}");
                assert!(at.workers.iter().all(|w| *w == Worker::Exited), "{at:?}");
                for j in 0..at.published {
                    assert_eq!(at.zeroed[j], 1, "job {j}: the count hits zero exactly once");
                    assert!(at.left.iter().all(|&l| l == at.published), "{at:?}");
                }
                match (state.ctl.is_poisoned(), at.published) {
                    (true, _) => poisoned += 1,
                    (false, JOBS) => clean += 1,
                    (false, _) => early += 1,
                }
            }
            assert!(clean > 0 && poisoned > 0 && early > 0, "the model lost a scenario");
            seen.len()
        }

        #[test]
        fn every_interleaving_of_two_participants() {
            assert!(explore(2) > 100);
        }

        #[test]
        fn every_interleaving_of_three_participants() {
            assert!(explore(3) > 10_000);
        }
    }
}
