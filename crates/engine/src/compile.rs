//! The plan compiler: `SpmvPlan` → [`CompiledPlan`].
//!
//! The interpreting oracle (`s2d-spmv`'s mailbox executor) resolves
//! every multiply-add and every message word through per-rank
//! `HashMap<u32, f64>` lookups. That is the right tool for validating
//! plan semantics and exactly the wrong one for the workload the paper
//! cares about — thousands of SpMV iterations against one matrix.
//!
//! Compilation pays a one-time inspector cost per plan (the OSKI /
//! inspector-executor pattern) and produces flat buffers:
//!
//! * every `x_j` has exactly **one home**, its global column, which
//!   every kernel of every rank indexes directly. Between ranks that
//!   share memory the home space *is* the caller's input and an expand
//!   word is never moved; a rank that shares nothing (the endpoint
//!   walker) keeps a private image of it and writes received words in
//!   at the same indices;
//! * every rank's partial-`y` footprint is renumbered into dense local
//!   slots `0..ny`, and the `K` blocks are ranges of **one `y` arena**
//!   at the cache-line-aligned slot offsets [`RankProgram::y_off`];
//! * compute phases are lowered to CSR-slice kernels — run-length
//!   grouped rows over `row_ptr` / `cols` / `vals` arrays of home
//!   columns and local row slots, preserving the interpreter's
//!   accumulation order exactly;
//! * a communication phase becomes flat tables: one list of the homes
//!   of all its expand words (both ends of a message read one range of
//!   it), per rank one list of own `y` slots, per message two ranges —
//!   the endpoint walker's payload layout — and per receiver the
//!   `(producer slot, own slot)` arena pairs that are the whole phase
//!   on shared memory: `y[own] += y[producer]`, in `recvs` order.
//!
//! The plan stays a distributed-memory plan: the compiler tracks which
//! rank holds which `x_j` when, so every "processor lacks `x[j]`"
//! condition the interpreter detects at run time is detected here, once
//! — also for a word shared memory would have delivered anyway. A
//! drained partial *moves*: its slot is dead from then on, and a later
//! accumulation into that row on that rank (mesh forwarding, or a
//! partial received in the very phase that drained it) opens a fresh
//! slot, starting from the `+0.0` the interpreter's re-inserted entry
//! starts from. So within a phase no fold source is anybody's fold
//! destination, and the pool folds without staging.
//!
//! That bookkeeping is hash-free and linear in the plan size. Per rank
//! the compiler keeps append-only logs — the owned columns it seeds,
//! the columns it received, the `(row, slot)` of every slot it opened
//! and which slots are live — and each thread of the walk keeps two
//! dense stamped views (column → held, global row → slot) that it
//! reloads from one rank's logs whenever it turns to that rank: once
//! per compute phase, once per side of a communication phase, once for
//! the output emit. Every array a communication table holds is counted
//! before it is allocated, at its final size; a kernel's arrays are
//! allocated at their final size once the walk has found its segments.
//!
//! A compute phase's ranks are independent: lowering a rank writes its
//! own logs only, and the one array shared across ranks, which owned
//! columns are seeded already, only at the columns that rank owns. So
//! a team lowers them: the caller and up to `available_parallelism()
//! − 1` scoped helpers, each on a contiguous group of ranks with about
//! an equal share of the phase's tasks and on views of its own, one
//! helper per `TEAM_MIN_TASKS` tasks of the plan. Kernels and statistics
//! are put back in rank order, so the compiled plan is the one a team
//! of one builds, bit for bit. Communication phases, the arena layout
//! and the emit stay on the caller.
//!
//! # Kernel formats
//!
//! The walk over a compute phase leaves, per rank, only a segment
//! table: run-length grouped rows as boundaries into the rank's task
//! list, the local slot of each segment, and whether a slot repeats
//! (the task list interleaved a row). Each kernel is then built once,
//! straight from the task list into the requested [`KernelFormat`]
//! (see [`CompiledPlan::compile_with`]) at its final size: an
//! order-preserving CSR slice ([`CsrKernel`]), SELL-C-σ chunks for
//! short irregular rows, dense spans for split dense rows, or a
//! per-kernel automatic choice driven by [`KernelStats`], gathered once
//! from the segment table. No intermediate copy of the entries is made,
//! and the format is baked into the kernel's buffer layout here, so
//! execution never branches on it per entry.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use s2d_spmv::{MsgSpec, MultTask, PlanPhase, SpmvPlan};

use crate::formats::{
    CsrKernel, DenseRuns, Kernel, KernelFormat, KernelIsa, KernelStats, Segmented,
};

/// `y`-arena slots per cache line: every rank's block starts on one.
const LINE_SLOTS: usize = 8;

/// One [`MsgSpec`] as seen from one of its ends: two ranges into the
/// tables of the [`RankStep::Comm`] it belongs to. The payload is the
/// `x` words (same homes at both ends), then the `y` words (the sender's
/// drained slots, accumulated into the receiver's).
#[derive(Clone, Debug)]
pub struct CompiledMsg {
    /// The other endpoint: destination for sends, source for receives.
    pub peer: u32,
    /// This message's expand words, as a range of the step's `x_homes`.
    pub x: Range<u32>,
    /// This message's fold words, as a range of the step's `y_slots`.
    pub y: Range<u32>,
}

impl CompiledMsg {
    /// Message size in words.
    pub fn words(&self) -> usize {
        self.x.len() + self.y.len()
    }

    /// This message's homes and own slots, out of its step's tables.
    pub(crate) fn lists<'a>(
        &self,
        x_homes: &'a [u32],
        y_slots: &'a [u32],
    ) -> (&'a [u32], &'a [u32]) {
        let at = |r: &Range<u32>| r.start as usize..r.end as usize;
        (&x_homes[at(&self.x)], &y_slots[at(&self.y)])
    }
}

/// One rank's view of one plan phase.
#[derive(Clone, Debug)]
pub enum RankStep {
    /// Run the kernel on the `x` home space and the rank's `y` block.
    Compute(Kernel),
    /// Exchange messages: `sends` / `recvs` over `x_homes` and `y_slots`
    /// for the endpoint walker, `folds` — all that is left of the phase
    /// — between ranks that share the `y` arena.
    Comm {
        /// Outgoing messages, in plan order.
        sends: Vec<CompiledMsg>,
        /// Incoming messages, in plan order — the fold order.
        recvs: Vec<CompiledMsg>,
        /// Home index of every expand word of the phase, message by
        /// message; one list shared by all ranks.
        x_homes: Arc<[u32]>,
        /// This rank's own `y` slots, message by message: the slots its
        /// sends drain, then the slots its receives accumulate into.
        y_slots: Vec<u32>,
        /// `(producer's arena slot, own arena slot)` per received fold
        /// word, in `recvs` order.
        folds: Vec<(u32, u32)>,
    },
}

/// One rank's complete compiled program.
#[derive(Clone, Debug)]
pub struct RankProgram {
    /// Size of the rank's `y` block, in slots.
    pub ny: usize,
    /// Slot offset of the rank's block in the `y` arena (a multiple of
    /// a cache line).
    pub y_off: usize,
    /// The owned columns this rank multiplies by or sends: what a rank
    /// that does not share the caller's `x` seeds its image with.
    pub x_seed: Vec<u32>,
    /// `(global row, local slot)` pairs this rank contributes to the
    /// assembled output (rows it owns that end the walk live).
    pub y_emit: Vec<(u32, u32)>,
    /// Global rows this rank owns that end the walk without a live
    /// partial (never touched, or drained and not accumulated into
    /// again): emitted as 0.0, matching the interpreter.
    pub y_zero: Vec<u32>,
    /// One step per plan phase, in plan order.
    pub steps: Vec<RankStep>,
}

impl RankProgram {
    /// The rank's word range of the `y` arena at batch width `r`.
    #[inline(always)]
    pub(crate) fn block(&self, r: usize) -> Range<usize> {
        self.y_off * r..(self.y_off + self.ny) * r
    }
}

/// A fully compiled plan: per-rank programs plus the shared layout
/// needed to execute them.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// Number of virtual processors.
    pub k: usize,
    /// Output dimension.
    pub nrows: usize,
    /// Input dimension, and the size of the `x` home space.
    pub ncols: usize,
    /// Per-rank programs, indexed by rank.
    pub ranks: Vec<RankProgram>,
    /// Number of communication phases (one message tag each).
    pub comm_phases: usize,
    /// Owner rank of every output row (copied from the plan).
    pub y_part: Vec<u32>,
    /// The [`KernelFormat`] the plan was compiled with (the *policy* —
    /// under [`KernelFormat::Auto`] each [`Kernel`] variant is that
    /// kernel's concrete choice).
    pub format: KernelFormat,
    /// The [`KernelIsa`] policy the plan was compiled with (the
    /// CPU-resolved verdict lives in each kernel's `simd` flag).
    pub isa: KernelIsa,
    /// Per step index: does any rank fold there? Shared-memory
    /// transports skip a communication step that is all expand, barrier
    /// included (the pool re-derives and checks this).
    pub(crate) fold_steps: Vec<bool>,
    /// Row-length statistics of every nonempty compute kernel (phase-
    /// major, rank order), gathered from each kernel's segment table
    /// before it is built — populated only by [`KernelFormat::Auto`]
    /// compiles. See [`CompiledPlan::kernel_stats`].
    stats: Vec<KernelStats>,
}

/// A dense map over keys `0..len` that empties in O(1): an entry
/// counts only while its tag is the current one.
struct StampMap {
    tag: u32,
    tags: Vec<u32>,
    vals: Vec<u32>,
}

impl StampMap {
    fn new(len: usize) -> StampMap {
        StampMap { tag: 0, tags: vec![0; len], vals: vec![0; len] }
    }

    /// Forgets every entry.
    fn clear(&mut self) {
        if self.tag == u32::MAX {
            self.tags.fill(0);
            self.tag = 0;
        }
        self.tag += 1;
    }

    fn get(&self, key: u32) -> Option<u32> {
        (self.tags[key as usize] == self.tag).then(|| self.vals[key as usize])
    }

    fn insert(&mut self, key: u32, val: u32) {
        self.tags[key as usize] = self.tag;
        self.vals[key as usize] = val;
    }
}

/// What the walk has recorded for one rank so far: append-only logs
/// that only the rank's own lowering writes.
#[derive(Default)]
struct RankLog {
    /// The owned columns the rank reads, in the order it first reads
    /// them: its `x_seed`.
    x_seed: Vec<u32>,
    /// Every column received so far (repeats allowed).
    received: Vec<u32>,
    /// `(global row, slot)` of every slot opened so far, in order — a
    /// row's last entry is its current (or last) partial.
    opened: Vec<(u32, u32)>,
    /// Per slot: holds a live partial sum at this point.
    live: Vec<bool>,
}

/// The dense views one thread of the walk loads a rank's logs into.
struct Views {
    /// Columns the focused rank has received (values unused).
    held: StampMap,
    /// The focused rank's global row → slot.
    slot: StampMap,
    /// Rows that head a segment of the kernel being lowered (values
    /// unused).
    kernel_rows: StampMap,
}

impl Views {
    fn new(ncols: usize, nrows: usize) -> Views {
        Views {
            held: StampMap::new(ncols),
            slot: StampMap::new(nrows),
            kernel_rows: StampMap::new(nrows),
        }
    }
}

/// Who holds what at this point of the walk. Per rank, the `x` columns
/// it received (kept only to reject plans that work because memory
/// happens to be shared) and its `y` renumbering live in the rank's
/// [`RankLog`]; [`Walk::focus`] loads one rank's logs into two dense
/// views, and every check and slot lookup goes through those. The walk
/// visits ranks one at a time per thread (per compute phase, per side
/// of a communication phase), so each log is reloaded a bounded number
/// of times and the state stays O(n + K + plan size) per thread — no
/// per-rank hash maps.
struct Walk<'a> {
    x_part: &'a [u32],
    /// Per column: its owner already reads it (it is in the owner's
    /// `x_seed`). Only the owner's lowering reads or writes an entry,
    /// so ranks lowered on different threads share the array at
    /// disjoint entries, and scope spawn and join order the phases:
    /// `Relaxed`.
    seeded: Vec<AtomicBool>,
    logs: Vec<RankLog>,
    /// The caller's views.
    views: Views,
    /// One set of views per helper that lowered a compute phase so
    /// far, kept for the next phase. The caller allocates them, so
    /// they come from (and go back to) its own allocator arena.
    spare: Vec<Views>,
}

impl<'a> Walk<'a> {
    fn new(x_part: &'a [u32], nrows: usize, k: usize) -> Walk<'a> {
        Walk {
            x_part,
            seeded: x_part.iter().map(|_| AtomicBool::new(false)).collect(),
            logs: (0..k).map(|_| RankLog::default()).collect(),
            views: Views::new(x_part.len(), nrows),
            spare: Vec::new(),
        }
    }

    /// Points the caller's views at `rank`.
    fn focus(&mut self, rank: usize) -> Focus<'_> {
        Focus::new(rank, self.x_part, &self.seeded, &mut self.logs[rank], &mut self.views)
    }
}

/// One rank in focus: its logs, loaded into one thread's views.
struct Focus<'w> {
    rank: usize,
    x_part: &'w [u32],
    seeded: &'w [AtomicBool],
    log: &'w mut RankLog,
    views: &'w mut Views,
}

impl<'w> Focus<'w> {
    /// Loads `log`, rank `rank`'s logs, into `views`.
    fn new(
        rank: usize,
        x_part: &'w [u32],
        seeded: &'w [AtomicBool],
        log: &'w mut RankLog,
        views: &'w mut Views,
    ) -> Focus<'w> {
        views.held.clear();
        for &j in &log.received {
            views.held.insert(j, 0);
        }
        views.slot.clear();
        for &(i, s) in &log.opened {
            views.slot.insert(i, s);
        }
        Focus { rank, x_part, seeded, log, views }
    }

    /// The rank reads `x[j]`: it must own it or have received it.
    fn read(&mut self, j: u32, what: &str) {
        let rank = self.rank;
        if self.x_part[j as usize] as usize == rank {
            let seeded = &self.seeded[j as usize];
            if !seeded.load(Relaxed) {
                seeded.store(true, Relaxed);
                self.log.x_seed.push(j);
            }
        } else if self.views.held.get(j).is_none() {
            panic!("processor {rank} lacks x[{j}] {what}: plan bug");
        }
    }

    /// The rank's live slot of `y[i]`, if it holds one.
    fn live(&self, i: u32) -> Option<u32> {
        self.views.slot.get(i).filter(|&s| self.log.live[s as usize])
    }

    /// The rank's slot for accumulating into `y[i]`: the live one,
    /// else a fresh one (first touch, or the old partial was drained —
    /// like the interpreter's `entry().or_insert(0.0)` after its
    /// `remove`).
    fn accum(&mut self, i: u32) -> u32 {
        self.live(i).unwrap_or_else(|| {
            let s = self.log.live.len() as u32;
            self.log.live.push(true);
            self.log.opened.push((i, s));
            self.views.slot.insert(i, s);
            s
        })
    }

    /// The rank's slot for draining `y[i]` into a message: must be
    /// live, and is dead afterwards.
    fn drain(&mut self, i: u32) -> u32 {
        let s = self.live(i).unwrap_or_else(|| {
            panic!("processor {} lacks partial y[{i}] to send: plan bug", self.rank)
        });
        self.log.live[s as usize] = false;
        s
    }
}

impl CompiledPlan {
    /// Compiles `plan` with the default [`KernelFormat::CsrSlice`]
    /// kernels — bitwise-identical to the interpreting oracle.
    ///
    /// # Panics
    /// Panics with a "plan bug" message if the plan reads an `x` value
    /// or drains a partial `y` its rank cannot hold — the same
    /// conditions the interpreting oracle detects mid-run.
    pub fn compile(plan: &SpmvPlan) -> CompiledPlan {
        CompiledPlan::compile_with(plan, KernelFormat::CsrSlice)
    }

    /// Compiles `plan`, lowering every compute kernel to `format`
    /// ([`KernelFormat::Auto`] decides per kernel from row-length
    /// statistics). One pass over the plan; cost is proportional to the
    /// plan size (nnz + communication volume).
    ///
    /// # Panics
    /// Same contract as [`CompiledPlan::compile`].
    pub fn compile_with(plan: &SpmvPlan, format: KernelFormat) -> CompiledPlan {
        CompiledPlan::compile_with_isa(plan, format, KernelIsa::Auto)
    }

    /// [`CompiledPlan::compile_with`] with an explicit instruction-set
    /// choice for the fixed-width batch loops. The default elsewhere is
    /// [`KernelIsa::Auto`] — AVX2 whenever the CPU has it — which is
    /// always safe because the SIMD paths are bitwise identical to the
    /// scalar reference; [`KernelIsa::Scalar`] pins the reference loops
    /// for differential runs.
    ///
    /// Every compile entry lands here. A large plan's compute phases are
    /// lowered by the calling thread and up to
    /// `available_parallelism() − 1` scoped helpers (see the module
    /// docs); the compiled plan is the same at any team size.
    ///
    /// # Panics
    /// Same contract as [`CompiledPlan::compile`].
    pub fn compile_with_isa(plan: &SpmvPlan, format: KernelFormat, isa: KernelIsa) -> CompiledPlan {
        let team = match plan.total_ops() as usize / TEAM_MIN_TASKS {
            0 => 1,
            helpers => {
                std::thread::available_parallelism().map_or(1, NonZeroUsize::get).min(helpers + 1)
            }
        };
        CompiledPlan::compile_on(plan, format, isa, team)
    }

    /// [`CompiledPlan::compile_with_isa`] on a team of `team` threads,
    /// the caller included, taken as given (the size floor applies
    /// where the default team is chosen): see [`lower_phase`].
    pub(crate) fn compile_on(
        plan: &SpmvPlan,
        format: KernelFormat,
        isa: KernelIsa,
        team: usize,
    ) -> CompiledPlan {
        let k = plan.k;
        let mut walk = Walk::new(&plan.x_part, plan.nrows, k);
        let mut programs: Vec<Vec<RankStep>> =
            (0..k).map(|_| Vec::with_capacity(plan.phases.len())).collect();
        let mut comm_phases = 0;
        let mut stats = Vec::new();

        for phase in &plan.phases {
            match phase {
                PlanPhase::Compute(tasks) => {
                    let kernels = lower_phase(tasks, &mut walk, format, isa, team);
                    for (program, (kernel, st)) in programs.iter_mut().zip(kernels) {
                        stats.extend(st.filter(|st| st.ops > 0));
                        program.push(RankStep::Compute(kernel));
                    }
                }
                PlanPhase::Comm(msgs) => {
                    comm_phases += 1;
                    for (program, step) in programs.iter_mut().zip(lower_comm(msgs, &mut walk)) {
                        program.push(step);
                    }
                }
            }
        }

        // The arena layout is known only now (a rank's block grows
        // through the whole walk): place the blocks, then turn the
        // folds' rank-local slots into arena slots.
        let mut y_off = Vec::with_capacity(k);
        let mut end = 0;
        for log in &walk.logs {
            y_off.push(end);
            end += log.live.len().next_multiple_of(LINE_SLOTS);
        }
        assert!(end <= u32::MAX as usize, "y arena exceeds the u32 slot space");
        for (r, steps) in programs.iter_mut().enumerate() {
            for step in steps {
                let RankStep::Comm { recvs, folds, .. } = step else { continue };
                let mut pairs = folds.iter_mut();
                for m in recvs.iter() {
                    for (src, dst) in pairs.by_ref().take(m.y.len()) {
                        *src += y_off[m.peer as usize] as u32;
                        *dst += y_off[r] as u32;
                    }
                }
            }
        }
        let fold_steps = plan
            .phases
            .iter()
            .map(|ph| matches!(ph, PlanPhase::Comm(msgs) if msgs.iter().any(|m| !m.y_rows.is_empty())))
            .collect();

        // Output emit: each row copies out of its owner's live slot;
        // rows whose owner holds no live partial are emitted as 0.
        // Rows are grouped by owner (ascending within each), so every
        // owner's view is loaded once.
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, &owner) in plan.y_part.iter().enumerate() {
            owned[owner as usize].push(i as u32);
        }
        let mut y_emit: Vec<Vec<(u32, u32)>> = Vec::with_capacity(k);
        let mut y_zero: Vec<Vec<u32>> = Vec::with_capacity(k);
        for (r, rows) in owned.iter().enumerate() {
            let rank = walk.focus(r);
            y_emit.push(rows.iter().filter_map(|&i| rank.live(i).map(|s| (i, s))).collect());
            y_zero.push(rows.iter().copied().filter(|&i| rank.live(i).is_none()).collect());
        }

        let ranks = programs
            .into_iter()
            .enumerate()
            .map(|(r, steps)| RankProgram {
                ny: walk.logs[r].live.len(),
                y_off: y_off[r],
                x_seed: std::mem::take(&mut walk.logs[r].x_seed),
                y_emit: std::mem::take(&mut y_emit[r]),
                y_zero: std::mem::take(&mut y_zero[r]),
                steps,
            })
            .collect();

        CompiledPlan {
            k,
            nrows: plan.nrows,
            ncols: plan.ncols,
            ranks,
            comm_phases,
            y_part: plan.y_part.clone(),
            format,
            isa,
            fold_steps,
            stats,
        }
    }

    /// Total multiply-adds across all ranks (must equal the plan's).
    ///
    /// Format-invariant: [`Kernel::ops`] counts real multiply-adds only,
    /// never SELL padding entries, so this total is identical whatever
    /// [`KernelFormat`] the plan was compiled with.
    pub fn total_ops(&self) -> u64 {
        self.ranks
            .iter()
            .flat_map(|rp| &rp.steps)
            .map(|s| match s {
                RankStep::Compute(kernel) => kernel.ops() as u64,
                RankStep::Comm { .. } => 0,
            })
            .sum()
    }

    /// Row-length statistics of every nonempty compute kernel, flattened
    /// over ranks and phases — the compile-time evidence the `auto`
    /// policy decided from, gathered once per kernel from its segment
    /// table and task list *before* the kernel is built (so they
    /// describe the task lists, not any padded layout). Recorded only by
    /// [`KernelFormat::Auto`] compiles; fixed-format compiles skip the
    /// gathering (it costs a σ-sort per kernel) and report an empty
    /// slice.
    pub fn kernel_stats(&self) -> &[KernelStats] {
        &self.stats
    }

    /// Size of the `y` arena in slots: the end of the last rank's
    /// (line-padded) block.
    pub(crate) fn arena_slots(&self) -> usize {
        self.ranks.last().map_or(0, |rp| rp.y_off + rp.ny.next_multiple_of(LINE_SLOTS))
    }

    /// Bytes a single-RHS [`ParallelEngine`](crate::ParallelEngine) — at
    /// any team size, `CompiledSeq` included — allocates for this plan's
    /// buffers: the `y` arena plus the slack that lets it start on a
    /// cache line — `x` is read where the caller put it.
    pub fn workspace_bytes(&self) -> usize {
        (self.arena_slots() + crate::exec::ALIGN_SLACK) * std::mem::size_of::<f64>()
    }
}

/// One rank's compute kernel as the walk leaves it: the segment table
/// over its task list, from which [`Kernel::lower`] builds the kernel.
struct TaskSegments<'t> {
    tasks: &'t [MultTask],
    /// Segment boundaries into `tasks`.
    bounds: Vec<u32>,
    /// Local `y` slot per segment.
    slots: Vec<u32>,
    /// Some row heads more than one segment.
    repeats: bool,
    /// Consecutive-column runs, counted as the walk reads the columns.
    dense: DenseRuns,
}

impl<'t> TaskSegments<'t> {
    /// The table of no segments yet over `tasks`.
    fn new(tasks: &'t [MultTask]) -> TaskSegments<'t> {
        TaskSegments {
            tasks,
            bounds: vec![0],
            slots: Vec::new(),
            repeats: false,
            dense: DenseRuns::default(),
        }
    }
}

impl Segmented for TaskSegments<'_> {
    fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    fn slots(&self) -> &[u32] {
        &self.slots
    }

    fn col(&self, e: usize) -> u32 {
        self.tasks[e].col
    }

    fn val(&self, e: usize) -> f64 {
        self.tasks[e].val
    }

    fn repeats(&self) -> bool {
        self.repeats
    }

    fn dense_entries(&self) -> usize {
        self.dense.entries
    }

    fn into_csr(mut self) -> CsrKernel {
        self.bounds.shrink_to_fit();
        self.slots.shrink_to_fit();
        let mut kernel = CsrKernel::default();
        kernel.cols = self.tasks.iter().map(|t| t.col).collect();
        kernel.vals = self.tasks.iter().map(|t| t.val).collect();
        kernel.row_ptr = self.bounds;
        kernel.rows = self.slots;
        kernel
    }
}

/// Walks one rank's task list in one pass: checks that the rank holds
/// every `x` it multiplies by, opens its `y` slots, groups the tasks
/// into run-length segments over home columns and local row slots (the
/// order-preserving form every [`KernelFormat`] is built from), and
/// counts the consecutive-column runs for [`KernelStats`]. Within one
/// compute phase no slot is drained, so a slot repeats exactly when a
/// row heads two segments. Only the walk finds the segments, so their
/// table grows as it goes.
fn lower_tasks<'t>(tasks: &'t [MultTask], rank: &mut Focus) -> TaskSegments<'t> {
    let mut kernel = TaskSegments::new(tasks);
    rank.views.kernel_rows.clear();
    let mut end = 0;
    for run in tasks.chunk_by(|a, b| a.row == b.row) {
        for t in run {
            rank.read(t.col, "to multiply");
        }
        kernel.dense.segment(run.iter().map(|t| t.col));
        let row = run[0].row;
        kernel.repeats |= rank.views.kernel_rows.get(row).is_some();
        rank.views.kernel_rows.insert(row, 0);
        kernel.slots.push(rank.accum(row));
        end += run.len();
        kernel.bounds.push(end as u32);
    }
    kernel
}

/// The tasks a plan needs per helper that lowers its compute phases.
/// A helper costs about a megabyte of resident memory: its stack and
/// thread state, and a glibc arena of its own that keeps what the
/// helper allocated (the kernels of its ranks) where the calling thread
/// cannot reuse it. Below this size that is a large share of what a
/// set-up holds, and the time saved (a task takes about 15 ns to walk
/// and lower, a helper 30–55 µs to start and join on a 2-vCPU x86-64
/// VM) is small; the caller lowers every rank. Counting helpers by
/// tasks also bounds their views (24 bytes per row and column each)
/// on a machine with many cores.
const TEAM_MIN_TASKS: usize = 1 << 18;

/// Cuts ranks `0..tasks.len()` into `team` contiguous groups of about
/// equal task counts: the end of each group, the last one's being the
/// rank count. Groups may be empty.
fn group_ends(tasks: &[Vec<MultTask>], team: usize) -> Vec<usize> {
    let total: usize = tasks.iter().map(Vec::len).sum();
    let mut ends = Vec::with_capacity(team);
    let mut done = 0;
    for (r, list) in tasks.iter().enumerate() {
        done += list.len();
        while ends.len() + 1 < team && done * team >= (ends.len() + 1) * total {
            ends.push(r + 1);
        }
    }
    ends.resize(team, tasks.len());
    ends
}

/// Lowers one compute phase: per rank, in rank order, its kernel and
/// (under [`KernelFormat::Auto`]) its statistics.
///
/// With a `team` of two or more, the ranks are cut into `team`
/// contiguous groups of about equal task counts ([`group_ends`]). The
/// caller lowers the first group, and one scoped helper per other
/// nonempty group lowers that one on views of its own. A rank's
/// lowering writes only its own [`RankLog`], and `seeded` only at the
/// columns the rank owns, so the kernels, the statistics and the logs
/// are those a team of one leaves, whatever the team. If lowerings
/// panic, the first group's panic is raised, with its own payload: the
/// one a team of one meets first.
fn lower_phase(
    tasks: &[Vec<MultTask>],
    walk: &mut Walk,
    format: KernelFormat,
    isa: KernelIsa,
    team: usize,
) -> Vec<(Kernel, Option<KernelStats>)> {
    let (x_part, seeded) = (walk.x_part, &walk.seeded[..]);
    let lower = |first: usize, logs: &mut [RankLog], views: &mut Views| {
        let lower_rank = |(rank, log): (usize, &mut RankLog)| {
            let list = &tasks[rank];
            let segments = if list.is_empty() {
                TaskSegments::new(list)
            } else {
                lower_tasks(list, &mut Focus::new(rank, x_part, seeded, log, views))
            };
            // Statistics (a σ-sort plus a dense-run scan per kernel)
            // are gathered only when the policy needs them — a
            // fixed-format compile stays one pass proportional to the
            // plan size.
            Kernel::lower(segments, format, isa)
        };
        (first..).zip(logs).map(lower_rank).collect::<Vec<_>>()
    };
    let team = team.min(tasks.len());
    if team < 2 {
        return lower(0, &mut walk.logs, &mut walk.views);
    }
    let ends = group_ends(tasks, team);
    let (nrows, ncols) = (walk.views.slot.tags.len(), x_part.len());
    walk.spare.resize_with(walk.spare.len().max(team - 1), || Views::new(ncols, nrows));
    let (own, mut rest) = walk.logs.split_at_mut(ends[0]);
    std::thread::scope(|scope| {
        let lower = &lower;
        let mut helpers = Vec::with_capacity(team - 1);
        for (bounds, views) in ends.windows(2).zip(&mut walk.spare) {
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(bounds[1] - bounds[0]);
            rest = tail;
            if !group.is_empty() {
                helpers.push(scope.spawn(move || lower(bounds[0], group, views)));
            }
        }
        let mut kernels = lower(0, own, &mut walk.views);
        for helper in helpers {
            kernels.extend(helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        kernels
    })
}

/// Per rank, the indices of the messages it appears in on one side, in
/// plan order, each list allocated at its final size.
fn by_rank(msgs: &[MsgSpec], k: usize, side: impl Fn(&MsgSpec) -> u32) -> Vec<Vec<usize>> {
    let mut count = vec![0usize; k];
    for m in msgs {
        count[side(m) as usize] += 1;
    }
    let mut lists: Vec<Vec<usize>> = count.into_iter().map(Vec::with_capacity).collect();
    for (n, m) in msgs.iter().enumerate() {
        lists[side(m) as usize].push(n);
    }
    lists
}

/// Lowers one communication phase to one [`RankStep::Comm`] per rank.
/// All sends are lowered before any receive so the drain/define
/// bookkeeping matches the simultaneous-exchange semantics (payloads
/// capture the pre-phase state): a row drained and received in the same
/// phase folds into a fresh slot, never into the one being read. Each
/// side is walked rank by rank — a rank's own lists keep plan order,
/// which is all its slot numbering depends on. Fold pairs are
/// rank-local here; the caller rebases them once the arena layout is
/// known.
fn lower_comm(msgs: &[MsgSpec], walk: &mut Walk) -> Vec<RankStep> {
    let k = walk.logs.len();
    let mut homes = Vec::with_capacity(msgs.iter().map(|m| m.x_cols.len()).sum());
    let x_ranges: Vec<Range<u32>> = msgs
        .iter()
        .map(|m| {
            let start = homes.len() as u32;
            homes.extend_from_slice(&m.x_cols);
            start..homes.len() as u32
        })
        .collect();
    let x_homes: Arc<[u32]> = homes.into();
    let (by_src, by_dst) = (by_rank(msgs, k, |m| m.src), by_rank(msgs, k, |m| m.dst));
    let words = |list: &[usize]| list.iter().map(|&n| msgs[n].y_rows.len()).sum::<usize>();
    let mut y_slots: Vec<Vec<u32>> =
        (0..k).map(|r| Vec::with_capacity(words(&by_src[r]) + words(&by_dst[r]))).collect();
    let mut sends: Vec<Vec<CompiledMsg>> = Vec::with_capacity(k);
    // Per message: where its drained slots start in the sender's `y_slots`.
    let mut drained = vec![0u32; msgs.len()];
    for (src, list) in by_src.iter().enumerate() {
        let mut rank = (!list.is_empty()).then(|| walk.focus(src));
        sends.push(
            list.iter()
                .map(|&n| {
                    let (m, rank) = (&msgs[n], rank.as_mut().expect("focused"));
                    for &j in &m.x_cols {
                        rank.read(j, "to send");
                    }
                    let y0 = y_slots[src].len() as u32;
                    for &i in &m.y_rows {
                        y_slots[src].push(rank.drain(i));
                    }
                    drained[n] = y0;
                    CompiledMsg {
                        peer: m.dst,
                        x: x_ranges[n].clone(),
                        y: y0..y_slots[src].len() as u32,
                    }
                })
                .collect(),
        );
    }
    let mut steps = Vec::with_capacity(k);
    for (dst, list) in by_dst.iter().enumerate() {
        let mut rank = (!list.is_empty()).then(|| walk.focus(dst));
        let mut folds = Vec::with_capacity(words(list));
        let recvs = list
            .iter()
            .map(|&n| {
                let (m, rank) = (&msgs[n], rank.as_mut().expect("focused"));
                rank.log.received.extend_from_slice(&m.x_cols);
                let y0 = y_slots[dst].len() as u32;
                for (o, &i) in m.y_rows.iter().enumerate() {
                    let from = y_slots[m.src as usize][drained[n] as usize + o];
                    let into = rank.accum(i);
                    y_slots[dst].push(into);
                    folds.push((from, into));
                }
                CompiledMsg {
                    peer: m.src,
                    x: x_ranges[n].clone(),
                    y: y0..y_slots[dst].len() as u32,
                }
            })
            .collect();
        steps.push((recvs, folds));
    }
    sends
        .into_iter()
        .zip(steps)
        .zip(y_slots)
        .map(|((sends, (recvs, folds)), y_slots)| RankStep::Comm {
            sends,
            recvs,
            x_homes: Arc::clone(&x_homes),
            y_slots,
            folds,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{oracle, DENSE_MIN_RUN, SELL_SIGMA};
    use proptest::prelude::*;

    /// Cases per oracle property.
    const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 256 } else { 2048 };

    /// The walk as it was before it left only a segment table: the
    /// task list copied into a CSR slice.
    fn lower_tasks_reference(tasks: &[MultTask], rank: usize, walk: &mut Walk) -> CsrKernel {
        let segments = tasks.chunk_by(|a, b| a.row == b.row).count();
        let mut kernel = CsrKernel::default();
        kernel.row_ptr.reserve_exact(segments + 1);
        kernel.rows.reserve_exact(segments);
        kernel.cols.reserve_exact(tasks.len());
        kernel.vals.reserve_exact(tasks.len());
        kernel.row_ptr.push(0);
        if tasks.is_empty() {
            return kernel;
        }
        let mut rank = walk.focus(rank);
        for run in tasks.chunk_by(|a, b| a.row == b.row) {
            for t in run {
                rank.read(t.col, "to multiply");
                kernel.cols.push(t.col);
                kernel.vals.push(t.val);
            }
            kernel.rows.push(rank.accum(run[0].row));
            kernel.row_ptr.push(kernel.cols.len() as u32);
        }
        kernel
    }

    /// Columns of the generated kernels' home space.
    const NX: u32 = 96;

    /// A random task list over rows `0..nrows`: 1–3 segments (`shape`
    /// 0), a few dozen (1), or more than one σ window (2). Segments are
    /// short scattered runs or consecutive-column runs around
    /// [`DENSE_MIN_RUN`]; with `interleave` the rows are drawn from a
    /// small pool, so rows recur in separate segments.
    fn task_list(shape: usize, interleave: bool, seed: u64, nrows: u32) -> Vec<MultTask> {
        let mut rng = TestRng::for_case("task_list", seed);
        let nseg = match shape {
            0 => 1 + rng.below(3),
            1 => 4 + rng.below(40),
            _ => SELL_SIGMA as u64 + 1 + rng.below(100),
        } as u32;
        let offset = rng.below(u64::from(nrows)) as u32;
        let mut tasks = Vec::new();
        for s in 0..nseg {
            // 7919 is a prime above `nrows`: distinct `s`, distinct rows.
            let row = if interleave {
                rng.below(u64::from(nseg / 2 + 1)) as u32
            } else {
                (s * 7919 + offset) % nrows
            };
            let mut push = |col: u32, rng: &mut TestRng| {
                let val = (rng.below(17) as f64 - 8.0) * 0.25;
                tasks.push(MultTask { row, col, val });
            };
            if rng.below(4) == 0 {
                let len = DENSE_MIN_RUN as u32 - 1 + rng.below(12) as u32;
                let c0 = rng.below(u64::from(NX - len)) as u32;
                for col in c0..c0 + len {
                    push(col, &mut rng);
                }
            } else {
                for _ in 0..1 + rng.below(6) {
                    let col = rng.below(u64::from(NX)) as u32;
                    push(col, &mut rng);
                }
            }
        }
        tasks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

        /// Every format under both ISAs: the kernel built straight from
        /// the segment table, and its `auto` statistics, equal the old
        /// CSR-first lowering's — for a kernel whose slots are all new
        /// and for a second one on the same rank that reuses some. The
        /// CSR wrappers (`from_csr_isa`, `KernelStats::of`) are held to
        /// the same oracle.
        #[test]
        fn lowering_matches_the_oracle(
            (shape, interleave, seeds) in (0..3usize, 0..2u8, (0..u64::MAX, 0..u64::MAX))
        ) {
            let nrows = 2 * SELL_SIGMA as u32 + 256;
            let first = task_list(shape, interleave == 1, seeds.0, nrows);
            let second = task_list(2 - shape, interleave == 0, seeds.1, nrows);
            let x_part = vec![0; NX as usize];
            for format in KernelFormat::all() {
                for isa in [KernelIsa::Auto, KernelIsa::Scalar] {
                    let mut walk = Walk::new(&x_part, nrows as usize, 1);
                    let mut old_walk = Walk::new(&x_part, nrows as usize, 1);
                    for tasks in [&first, &second] {
                        let (got, stats) = Kernel::lower(lower_tasks(tasks, &mut walk.focus(0)), format, isa);
                        let csr = lower_tasks_reference(tasks, 0, &mut old_walk);
                        let want_stats = (format == KernelFormat::Auto).then(|| oracle::stats_of(&csr));
                        prop_assert_eq!(format!("{stats:?}"), format!("{want_stats:?}"));
                        prop_assert_eq!(
                            format!("{:?}", KernelStats::of(&csr)),
                            format!("{:?}", oracle::stats_of(&csr))
                        );
                        let wrapped = Kernel::from_csr_isa(csr.clone(), format, isa);
                        let want = format!("{:?}", oracle::from_csr_isa(csr, format, isa));
                        prop_assert_eq!(format!("{got:?}"), want.clone(), "{} {}", format, isa);
                        prop_assert_eq!(format!("{wrapped:?}"), want, "{} {} wrapper", format, isa);
                    }
                }
            }
        }
    }

    /// Single-phase, two-phase and mesh plans of a stencil, a dense-row
    /// matrix at `K = 64` and an R-MAT graph, on s2D partitions (a block
    /// split of the rows by nonzero count, refined by Algorithm 1).
    /// `compile_on` takes the team as given, so helpers lower all of
    /// them, also below [`TEAM_MIN_TASKS`].
    fn team_plans() -> Vec<(String, SpmvPlan)> {
        use s2d_core::heuristic::{s2d_heuristic_kway, HeuristicConfig};
        use s2d_gen::denserow::{dense_row_matrix, DenseRowConfig};
        use s2d_gen::fem::fem_like;
        use s2d_gen::rmat::{rmat, RmatConfig};
        let n = 1 << 12;
        let dense =
            DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true };
        let inputs = [
            ("stencil", fem_like(1 << 14, 27.0, 27, 3), 8),
            ("denserow", dense_row_matrix(&dense, 3), 64),
            ("rmat", rmat(&RmatConfig::graph500(10, 8), 3).to_csr(), 16),
        ];
        let mut plans = Vec::new();
        for (name, a, k) in inputs {
            let nnz = a.nnz().max(1);
            let parts: Vec<u32> = (0..a.nrows())
                .map(|i| {
                    let r = a.row_range(i);
                    ((r.start + r.end) / 2 * k / nnz).min(k - 1) as u32
                })
                .collect();
            let p = s2d_heuristic_kway(&a, &parts, &parts, k, &HeuristicConfig::default());
            plans.push((format!("{name} single"), SpmvPlan::single_phase(&a, &p)));
            plans.push((format!("{name} two"), SpmvPlan::two_phase(&a, &p)));
            plans.push((format!("{name} mesh"), SpmvPlan::mesh_default(&a, &p)));
        }
        plans
    }

    /// The panic message `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the compile must panic");
        payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
    }

    /// Every plan a team of 2–4 compiles equals a team of one's, bit
    /// for bit (`Debug` texts compared), in every format (the dense-row
    /// plans' dense-split kernels hold dense spans).
    #[test]
    fn compiled_plans_are_identical_at_every_team_size() {
        let mut dense_spans = false;
        for (name, plan) in team_plans() {
            for format in KernelFormat::all() {
                let alone = CompiledPlan::compile_on(&plan, format, KernelIsa::Scalar, 1);
                dense_spans |= alone.ranks.iter().flat_map(|rp| &rp.steps).any(|step| {
                    matches!(step, RankStep::Compute(Kernel::DenseSplit(k))
                        if k.span_col0.iter().any(|&c| c != crate::formats::NO_LANE))
                });
                let want = format!("{alone:?}");
                for team in 2..=4 {
                    let got = CompiledPlan::compile_on(&plan, format, KernelIsa::Scalar, team);
                    assert!(format!("{got:?}") == want, "{name} {format} team {team}");
                }
            }
        }
        assert!(dense_spans, "some dense-split kernel holds a dense span");
    }

    /// Drops the expand words of one message to `dst` in a single-phase
    /// plan's communication phase: `dst` then multiplies by an `x` it
    /// lacks.
    fn starve(plan: &mut SpmvPlan, dst: u32) {
        let PlanPhase::Comm(msgs) = &mut plan.phases[1] else { panic!("single-phase plan") };
        let m = msgs.iter_mut().find(|m| m.dst == dst && !m.x_cols.is_empty());
        m.expect("a message with expand words").x_cols.clear();
    }

    /// A plan bug found by a helper is raised with its own message, and
    /// when several ranks fail, with the message of the rank a team of
    /// one meets first.
    #[test]
    fn plan_bugs_raise_the_same_panic_at_every_team_size() {
        let (_, mut plan) = team_plans().swap_remove(0);
        let compile = |plan: &SpmvPlan, team| {
            panic_message(|| {
                drop(CompiledPlan::compile_on(plan, KernelFormat::Auto, KernelIsa::Scalar, team))
            })
        };
        // At team 2 the last rank is a helper's, the first the caller's.
        let last = plan.k as u32 - 1;
        for dst in [last, 0] {
            starve(&mut plan, dst);
            let alone = compile(&plan, 1);
            assert!(alone.contains(&format!("processor {dst} lacks x")), "{alone}");
            assert_eq!(compile(&plan, 2), alone);
        }
    }

    /// A tiny hand-built two-rank plan: rank 0 computes y0 += 2·x0,
    /// ships x0 and its partial y1 to rank 1; rank 1 finishes y1.
    fn tiny_plan() -> SpmvPlan {
        SpmvPlan {
            k: 2,
            nrows: 2,
            ncols: 2,
            x_part: vec![0, 1],
            y_part: vec![0, 1],
            phases: vec![
                PlanPhase::Compute(vec![
                    vec![
                        MultTask { row: 0, col: 0, val: 2.0 },
                        MultTask { row: 1, col: 0, val: 3.0 },
                    ],
                    vec![],
                ]),
                PlanPhase::Comm(vec![MsgSpec { src: 0, dst: 1, x_cols: vec![0], y_rows: vec![1] }]),
                PlanPhase::Compute(vec![vec![], vec![MultTask { row: 1, col: 1, val: 5.0 }]]),
            ],
        }
    }

    #[test]
    fn footprints_are_dense_and_minimal() {
        let cp = CompiledPlan::compile(&tiny_plan());
        assert_eq!(cp.ranks[0].ny, 2, "rank 0 accumulates y0 and the y1 partial");
        assert_eq!(cp.ranks[1].ny, 1);
        assert_eq!((cp.ranks[0].y_off, cp.ranks[1].y_off), (0, LINE_SLOTS), "line-aligned blocks");
        assert_eq!((cp.comm_phases, &cp.fold_steps[..]), (1, &[false, true, false][..]));
        assert_eq!(cp.total_ops(), 3);
        // The arena and its alignment slack are all a team of one
        // holds.
        let arena = |width| crate::pool::tests::arena_len(&crate::exec::tests::seq(&cp, width));
        assert_eq!(arena(1) * 8, cp.workspace_bytes(), "accounted to the word");
        assert_eq!(arena(3), 2 * LINE_SLOTS * 3 + 7);
    }

    #[test]
    fn seeds_cover_only_used_owned_entries() {
        let cp = CompiledPlan::compile(&tiny_plan());
        // x0 reaches rank 1 in a message: read there, but not a seed.
        assert_eq!((&cp.ranks[0].x_seed, &cp.ranks[1].x_seed), (&vec![0], &vec![1]));
    }

    #[test]
    fn drained_partials_are_tracked() {
        let cp = CompiledPlan::compile(&tiny_plan());
        match (&cp.ranks[0].steps[1], &cp.ranks[1].steps[1]) {
            (
                RankStep::Comm { sends, recvs, x_homes, y_slots, .. },
                RankStep::Comm { x_homes: same, folds, .. },
            ) => {
                assert_eq!((sends.len(), recvs.len()), (1, 0));
                assert_eq!(sends[0].lists(x_homes, y_slots), (&[0][..], &[1][..]));
                // Both ends read one home list; the fold is rank 0's slot
                // 1 into rank 1's slot 0, as arena slots.
                assert!(Arc::ptr_eq(x_homes, same));
                assert_eq!(folds, &[(1, LINE_SLOTS as u32)]);
            }
            other => panic!("expected comm steps, got {other:?}"),
        }
        // y1 is emitted by rank 1 (its owner), not by rank 0 whose
        // partial was drained.
        assert_eq!(cp.ranks[0].y_emit, vec![(0, 0)]);
        assert_eq!(cp.ranks[1].y_emit, vec![(1, 0)]);
    }

    #[test]
    fn kernel_grouping_preserves_task_order() {
        // Tasks interleave rows: 0, 1, 0 — three segments, order kept.
        let tasks = vec![
            MultTask { row: 0, col: 0, val: 1.0 },
            MultTask { row: 1, col: 0, val: 2.0 },
            MultTask { row: 0, col: 0, val: 4.0 },
        ];
        let segments = lower_tasks(&tasks, &mut Walk::new(&[0], 2, 1).focus(0));
        assert!(segments.repeats, "row 0 heads two segments");
        let kernel = segments.into_csr();
        assert_eq!(kernel.rows, vec![0, 1, 0]);
        assert_eq!(kernel.row_ptr, vec![0, 1, 2, 3]);
        let mut y = vec![0.0, 0.0];
        Kernel::Csr(kernel).run_batch(&[10.0], &mut y, 1);
        assert_eq!(y, vec![50.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "plan bug")]
    fn missing_x_is_rejected_at_compile_time() {
        let plan = SpmvPlan {
            k: 2,
            nrows: 2,
            ncols: 2,
            x_part: vec![0, 1],
            y_part: vec![0, 1],
            phases: vec![PlanPhase::Compute(vec![
                vec![MultTask { row: 0, col: 1, val: 1.0 }],
                vec![],
            ])],
        };
        let _ = CompiledPlan::compile(&plan);
    }

    #[test]
    #[should_panic(expected = "plan bug")]
    fn double_drain_is_rejected_at_compile_time() {
        let plan = SpmvPlan {
            k: 2,
            nrows: 1,
            ncols: 1,
            x_part: vec![0],
            y_part: vec![1],
            phases: vec![
                PlanPhase::Compute(vec![vec![MultTask { row: 0, col: 0, val: 1.0 }], vec![]]),
                PlanPhase::Comm(vec![
                    MsgSpec { src: 0, dst: 1, x_cols: vec![], y_rows: vec![0] },
                    MsgSpec { src: 0, dst: 1, x_cols: vec![], y_rows: vec![0] },
                ]),
            ],
        };
        let _ = CompiledPlan::compile(&plan);
    }
}
