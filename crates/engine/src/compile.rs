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
//! That bookkeeping is hash-free and linear in the plan size. A rank's
//! lowering depends on the other ranks only through the producer slot
//! of each fold it receives, so each rank's whole program — every
//! compute phase, its own sends and then its own receives in each
//! communication phase, and its output emit — is lowered in one go on
//! one thread's dense views (column → held, global row → slot), which
//! are cleared in O(1) when the thread turns to its next rank. The
//! tables every rank reads are built once before that and only read
//! after: per communication phase the homes of its expand words, the
//! message ranges and the per-rank send and receive lists, and per
//! rank the rows it owns. Every array a communication table holds is
//! counted before it is allocated, at its final size; a kernel's
//! arrays are allocated at their final size once the walk has found
//! its segments.
//!
//! So a team lowers the ranks: the caller and up to
//! `available_parallelism() − 1` scoped helpers in one
//! `std::thread::scope` per compile, one helper per `TEAM_MIN_TASKS`
//! tasks of the plan, each on a contiguous group of ranks with about
//! an equal share of the plan's tasks. The one array shared across
//! ranks, which owned columns are seeded already, is written by each
//! rank only at the columns it owns. Each thread builds its group's
//! kernels after the group's walks, one phase at a time — the order
//! the apply runs them in. The caller then stitches: it places every
//! rank's block in the `y` arena and gives each fold its producer's
//! slot, read from the sender's lowered send. The compiled plan is
//! the one a team of one builds, bit for bit.
//!
//! # Kernel formats
//!
//! The walk over a compute phase leaves, per rank, only a segment
//! table: run-length grouped rows as boundaries into the rank's task
//! list, the local slot of each segment, and whether a slot repeats
//! (the task list interleaved a row). Each kernel is then built once,
//! straight from the task list into the requested [`KernelFormat`]
//! (see [`CompiledPlan::compile_with_isa`]) at its final size: an
//! order-preserving CSR slice ([`CsrKernel`](crate::CsrKernel)), SELL-C-σ chunks for
//! short irregular rows, dense spans for split dense rows, or a
//! per-kernel automatic choice driven by [`KernelStats`], gathered once
//! from the segment table. No intermediate copy of the entries is made,
//! and the format is baked into the kernel's buffer layout here, so
//! execution never branches on it per entry.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use s2d_spmv::{MsgSpec, MultTask, PlanPhase, SpmvPlan};

use crate::formats::{Kernel, KernelFormat, KernelIsa, KernelStats, TaskSegments};

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

/// The dense views one thread lowers a rank on, cleared in O(1) when
/// it turns to the next rank.
struct Views {
    /// Columns the rank has received (values unused).
    held: StampMap,
    /// The rank's global row → slot.
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

/// One rank's lowering in progress: who holds what at this point of
/// its program. The `x` columns it received (kept only to reject plans
/// that work because memory happens to be shared) and its `y`
/// renumbering live in one thread's [`Views`], so the state is
/// O(n + K + plan size) per thread — no per-rank hash maps.
struct Lowering<'a> {
    rank: usize,
    x_part: &'a [u32],
    /// Per column: its owner already reads it (it is in the owner's
    /// `x_seed`). Only the owner's lowering reads or writes an entry,
    /// so ranks lowered on different threads share the array at
    /// disjoint entries: `Relaxed`.
    seeded: &'a [AtomicBool],
    views: &'a mut Views,
    /// The owned columns the rank reads, in the order it first reads
    /// them.
    x_seed: Vec<u32>,
    /// Per slot: holds a live partial sum at this point.
    live: Vec<bool>,
}

impl<'a> Lowering<'a> {
    /// Starts lowering rank `rank` on `views`.
    fn new(
        rank: usize,
        x_part: &'a [u32],
        seeded: &'a [AtomicBool],
        views: &'a mut Views,
    ) -> Lowering<'a> {
        views.held.clear();
        views.slot.clear();
        Lowering { rank, x_part, seeded, views, x_seed: Vec::new(), live: Vec::new() }
    }

    /// The rank reads `x[j]`: it must own it or have received it.
    fn read(&mut self, j: u32, what: &str) {
        let rank = self.rank;
        if self.x_part[j as usize] as usize == rank {
            let seeded = &self.seeded[j as usize];
            if !seeded.load(Relaxed) {
                seeded.store(true, Relaxed);
                self.x_seed.push(j);
            }
        } else if self.views.held.get(j).is_none() {
            panic!("processor {rank} lacks x[{j}] {what}: plan bug");
        }
    }

    /// The rank's live slot of `y[i]`, if it holds one.
    fn live(&self, i: u32) -> Option<u32> {
        self.views.slot.get(i).filter(|&s| self.live[s as usize])
    }

    /// The rank's slot for accumulating into `y[i]`: the live one,
    /// else a fresh one (first touch, or the old partial was drained —
    /// like the interpreter's `entry().or_insert(0.0)` after its
    /// `remove`).
    fn accum(&mut self, i: u32) -> u32 {
        self.live(i).unwrap_or_else(|| {
            let s = self.live.len() as u32;
            self.live.push(true);
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
        self.live[s as usize] = false;
        s
    }

    /// Walks the rank's task list of one compute phase in one pass:
    /// checks that the rank holds every `x` it multiplies by, opens its
    /// `y` slots and groups the tasks into run-length segments over
    /// home columns and local row slots (the order-preserving form
    /// every [`KernelFormat`] is built from). Within one compute phase
    /// no slot is drained, so a slot repeats exactly when a row heads
    /// two segments.
    fn tasks<'t>(&mut self, tasks: &'t [MultTask]) -> TaskSegments<'t> {
        let mut kernel = TaskSegments::new(tasks);
        self.views.kernel_rows.clear();
        for run in tasks.chunk_by(|a, b| a.row == b.row) {
            for t in run {
                self.read(t.col, "to multiply");
            }
            let row = run[0].row;
            let repeat = self.views.kernel_rows.get(row).is_some();
            self.views.kernel_rows.insert(row, 0);
            kernel.push(run, self.accum(row), repeat);
        }
        kernel
    }

    /// Lowers the rank's side of one communication phase: its sends,
    /// then its receives, each in plan order. Sends go first so the
    /// drain/define bookkeeping matches the simultaneous-exchange
    /// semantics (payloads capture the pre-phase state): a row drained
    /// and received in the same phase folds into a fresh slot, never
    /// into the one being read. The folds are left empty: only the
    /// stitch knows the producers' slots.
    fn comm(&mut self, table: &CommTable) -> RankStep {
        let (msgs, rank) = (table.msgs, self.rank);
        let (out, inc) = (&table.by_src[rank], &table.by_dst[rank]);
        let words =
            |list: &[u32]| list.iter().map(|&n| msgs[n as usize].y_rows.len()).sum::<usize>();
        let mut y_slots = Vec::with_capacity(words(out) + words(inc));
        let msg = |n: u32, peer: u32, y: Range<usize>| CompiledMsg {
            peer,
            x: table.x_ranges[n as usize].clone(),
            y: y.start as u32..y.end as u32,
        };
        let sends = out
            .iter()
            .map(|&n| {
                let m = &msgs[n as usize];
                for &j in &m.x_cols {
                    self.read(j, "to send");
                }
                let y0 = y_slots.len();
                for &i in &m.y_rows {
                    y_slots.push(self.drain(i));
                }
                msg(n, m.dst, y0..y_slots.len())
            })
            .collect();
        let recvs = inc
            .iter()
            .map(|&n| {
                let m = &msgs[n as usize];
                for &j in &m.x_cols {
                    self.views.held.insert(j, 0);
                }
                let y0 = y_slots.len();
                for &i in &m.y_rows {
                    y_slots.push(self.accum(i));
                }
                msg(n, m.src, y0..y_slots.len())
            })
            .collect();
        RankStep::Comm {
            sends,
            recvs,
            x_homes: Arc::clone(&table.x_homes),
            y_slots,
            folds: Vec::new(),
        }
    }
}

/// What one communication phase is to every rank, built before any
/// rank is lowered and only read after that.
struct CommTable<'p> {
    msgs: &'p [MsgSpec],
    /// Home index of every expand word of the phase, message by
    /// message.
    x_homes: Arc<[u32]>,
    /// Per message: its range of `x_homes`.
    x_ranges: Vec<Range<u32>>,
    /// Per rank: the messages it sends, in plan order.
    by_src: Vec<Vec<u32>>,
    /// Per rank: the messages it receives, in plan order.
    by_dst: Vec<Vec<u32>>,
}

impl<'p> CommTable<'p> {
    fn new(msgs: &'p [MsgSpec], k: usize) -> CommTable<'p> {
        let mut homes = Vec::with_capacity(msgs.iter().map(|m| m.x_cols.len()).sum());
        let x_ranges = msgs
            .iter()
            .map(|m| {
                let start = homes.len() as u32;
                homes.extend_from_slice(&m.x_cols);
                start..homes.len() as u32
            })
            .collect();
        CommTable {
            msgs,
            x_homes: homes.into(),
            x_ranges,
            by_src: by_rank(k, msgs.iter().map(|m| m.src)),
            by_dst: by_rank(k, msgs.iter().map(|m| m.dst)),
        }
    }
}

/// One plan phase as every rank's lowering reads it.
enum Phase<'p> {
    Compute(&'p [Vec<MultTask>]),
    Comm(CommTable<'p>),
}

/// Everything the lowering of one rank reads besides its own state:
/// built once per compile, shared by the whole team.
struct Tables<'p> {
    x_part: &'p [u32],
    phases: Vec<Phase<'p>>,
    /// Per rank: the rows it owns, ascending — what it emits.
    owned: Vec<Vec<u32>>,
    seeded: Vec<AtomicBool>,
    format: KernelFormat,
    isa: KernelIsa,
}

impl Tables<'_> {
    /// Lowers ranks `ranks` on `views`: each rank's whole program in
    /// plan order, then its emit. The kernels are built after all the
    /// group's walks, one phase at a time — the order the apply runs
    /// them in. Per rank: its program, with no arena offset and no
    /// folds yet, and (under [`KernelFormat::Auto`]) the statistics of
    /// each compute phase's kernel.
    fn lower_group(
        &self,
        ranks: Range<usize>,
        views: &mut Views,
    ) -> Vec<(RankProgram, Vec<KernelStats>)> {
        let mut walked: Vec<_> = ranks
            .map(|rank| {
                let (program, segments) = self.walk(rank, views);
                (program, segments, Vec::new())
            })
            .collect();
        for (p, phase) in self.phases.iter().enumerate() {
            if let Phase::Compute(_) = phase {
                for (program, segments, stats) in &mut walked {
                    let segments = segments.next().expect("one table per compute phase");
                    // Statistics (a σ-sort plus a dense-run scan per
                    // kernel) are gathered only when the policy needs
                    // them — a fixed-format compile stays one pass
                    // proportional to the plan size.
                    let (kernel, st) = Kernel::lower(segments, self.format, self.isa);
                    program.steps[p] = RankStep::Compute(kernel);
                    stats.extend(st);
                }
            }
        }
        walked.into_iter().map(|(program, _, stats)| (program, stats)).collect()
    }

    /// Walks rank `rank`'s whole program: its steps (each compute step
    /// a placeholder, its segment table returned beside), then its
    /// output emit — each owned row copies out of the rank's live slot,
    /// or is emitted as 0 where the rank holds no live partial.
    fn walk<'p>(
        &'p self,
        rank: usize,
        views: &mut Views,
    ) -> (RankProgram, std::vec::IntoIter<TaskSegments<'p>>) {
        let mut lowering = Lowering::new(rank, self.x_part, &self.seeded, views);
        let mut steps = Vec::with_capacity(self.phases.len());
        let mut segments = Vec::new();
        for phase in &self.phases {
            steps.push(match phase {
                Phase::Compute(tasks) => {
                    segments.push(lowering.tasks(&tasks[rank]));
                    RankStep::Compute(Kernel::default())
                }
                Phase::Comm(table) => lowering.comm(table),
            });
        }
        let rows = &self.owned[rank];
        let program = RankProgram {
            ny: lowering.live.len(),
            y_off: 0,
            y_emit: rows.iter().filter_map(|&i| lowering.live(i).map(|s| (i, s))).collect(),
            y_zero: rows.iter().copied().filter(|&i| lowering.live(i).is_none()).collect(),
            x_seed: lowering.x_seed,
            steps,
        };
        (program, segments.into_iter())
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
        CompiledPlan::compile_with_isa(plan, KernelFormat::CsrSlice, KernelIsa::Auto)
    }

    /// Compiles `plan`, lowering every compute kernel to `format`
    /// ([`KernelFormat::Auto`] decides per kernel from row-length
    /// statistics), with the instruction-set choice `isa` for the
    /// fixed-width batch loops. [`KernelIsa::Auto`] — AVX2 whenever the
    /// CPU has it — is always safe because the SIMD paths are bitwise
    /// identical to the scalar reference; [`KernelIsa::Scalar`] pins
    /// the reference loops for differential runs. One pass over the
    /// plan; cost is proportional to the plan size (nnz + communication
    /// volume).
    ///
    /// Every compile entry lands here. A large plan's ranks are lowered
    /// by the calling thread and up to `available_parallelism() − 1`
    /// scoped helpers (see the module docs); the compiled plan is the
    /// same at any team size.
    ///
    /// # Panics
    /// Same contract as [`CompiledPlan::compile`].
    pub fn compile_with_isa(plan: &SpmvPlan, format: KernelFormat, isa: KernelIsa) -> CompiledPlan {
        let team = match plan.total_ops() as usize / TEAM_MIN_TASKS {
            0 => 1,
            helpers => crate::cpu_count().min(helpers + 1),
        };
        CompiledPlan::compile_on(plan, format, isa, team)
    }

    /// [`CompiledPlan::compile_with_isa`] on a team of `team` threads,
    /// the caller included, taken as given (the size floor applies
    /// where the default team is chosen) and capped at the rank count.
    ///
    /// The ranks are cut into contiguous groups of about equal task
    /// counts ([`group_ends`]). The caller lowers the first group, and
    /// one scoped helper per other nonempty group lowers that one on
    /// views the caller allocated for it. A rank's lowering writes only
    /// its own program, and `seeded` only at the columns the rank owns,
    /// so the programs and statistics are those a team of one leaves,
    /// whatever the team. If lowerings panic, the first group's panic
    /// is raised, with its own payload: the one a team of one meets
    /// first.
    pub(crate) fn compile_on(
        plan: &SpmvPlan,
        format: KernelFormat,
        isa: KernelIsa,
        team: usize,
    ) -> CompiledPlan {
        let k = plan.k;
        let tables = Tables {
            x_part: &plan.x_part,
            phases: plan
                .phases
                .iter()
                .map(|phase| match phase {
                    PlanPhase::Compute(tasks) => Phase::Compute(tasks),
                    PlanPhase::Comm(msgs) => Phase::Comm(CommTable::new(msgs, k)),
                })
                .collect(),
            owned: by_rank(k, plan.y_part.iter().copied()),
            seeded: plan.x_part.iter().map(|_| AtomicBool::new(false)).collect(),
            format,
            isa,
        };
        let views = || Views::new(plan.ncols, plan.nrows);
        let team = team.min(k).max(1);
        let lowered = if team < 2 {
            tables.lower_group(0..k, &mut views())
        } else {
            let tasks = |r: usize, phase: &Phase| match phase {
                Phase::Compute(tasks) => tasks[r].len(),
                Phase::Comm(_) => 0,
            };
            let work: Vec<usize> =
                (0..k).map(|r| tables.phases.iter().map(|ph| tasks(r, ph)).sum()).collect();
            let ends = group_ends(&work, team);
            let mut spare: Vec<Views> = (1..team).map(|_| views()).collect();
            std::thread::scope(|scope| {
                let tables = &tables;
                let helpers: Vec<_> = ends
                    .windows(2)
                    .zip(&mut spare)
                    .filter(|(bounds, _)| bounds[0] < bounds[1])
                    .map(|(bounds, views)| {
                        let group = bounds[0]..bounds[1];
                        scope.spawn(move || tables.lower_group(group, views))
                    })
                    .collect();
                let mut lowered = tables.lower_group(0..ends[0], &mut views());
                for helper in helpers {
                    lowered.extend(helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
                }
                lowered
            })
        };
        let (mut ranks, rank_stats): (Vec<RankProgram>, Vec<Vec<KernelStats>>) =
            lowered.into_iter().unzip();

        // The stitch. The arena layout is known only now (a rank's
        // block grows through its whole program): place the blocks,
        // then give every receiver its folds, the producer's drained
        // slots paired with its own, as arena slots.
        let mut end = 0;
        for rp in &mut ranks {
            rp.y_off = end;
            end += rp.ny.next_multiple_of(LINE_SLOTS);
        }
        assert!(end <= u32::MAX as usize, "y arena exceeds the u32 slot space");
        for (p, phase) in tables.phases.iter().enumerate() {
            let Phase::Comm(table) = phase else { continue };
            let folds = stitch(&ranks, p, table);
            for (rp, pairs) in ranks.iter_mut().zip(folds) {
                if let RankStep::Comm { folds, .. } = &mut rp.steps[p] {
                    *folds = pairs;
                }
            }
        }
        let fold_steps = plan
            .phases
            .iter()
            .map(|ph| matches!(ph, PlanPhase::Comm(msgs) if msgs.iter().any(|m| !m.y_rows.is_empty())))
            .collect();
        // Phase-major, rank order; empty kernels are left out.
        let compute_phases = rank_stats.first().map_or(0, Vec::len);
        let stats = (0..compute_phases)
            .flat_map(|c| rank_stats.iter().map(move |st| st[c]))
            .filter(|st| st.ops > 0)
            .collect();

        CompiledPlan {
            k,
            nrows: plan.nrows,
            ncols: plan.ncols,
            ranks,
            comm_phases: plan.phases.iter().filter(|ph| matches!(ph, PlanPhase::Comm(_))).count(),
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

/// Cuts ranks `0..work.len()` into `team` contiguous groups of about
/// equal `work` (task counts): the end of each group, the last one's
/// being the rank count. Groups may be empty.
fn group_ends(work: &[usize], team: usize) -> Vec<usize> {
    let total: usize = work.iter().sum();
    let mut ends = Vec::with_capacity(team);
    let mut done = 0;
    for (r, w) in work.iter().enumerate() {
        done += w;
        while ends.len() + 1 < team && done * team >= (ends.len() + 1) * total {
            ends.push(r + 1);
        }
    }
    ends.resize(team, work.len());
    ends
}

/// Per rank, the items it owns, in order, each list allocated at its
/// final size: `owners` yields the owner of items `0, 1, ..`.
fn by_rank(k: usize, owners: impl Iterator<Item = u32> + Clone) -> Vec<Vec<u32>> {
    let mut count = vec![0usize; k];
    for r in owners.clone() {
        count[r as usize] += 1;
    }
    let mut lists: Vec<Vec<u32>> = count.into_iter().map(Vec::with_capacity).collect();
    for (n, r) in owners.enumerate() {
        lists[r as usize].push(n as u32);
    }
    lists
}

/// Every rank's folds of communication phase `p` (described by
/// `table`), once all ranks are lowered and placed: per received fold
/// word, `(producer's arena slot, own arena slot)`, in `recvs` order.
/// The producer's slot is the one its lowered send drained.
fn stitch(ranks: &[RankProgram], p: usize, table: &CommTable) -> Vec<Vec<(u32, u32)>> {
    let step = |r: usize| match &ranks[r].steps[p] {
        RankStep::Comm { sends, recvs, y_slots, .. } => (sends, recvs, y_slots),
        RankStep::Compute(_) => unreachable!("phase {p} is a communication phase"),
    };
    // Per message: where its drained slots start in its sender's
    // `y_slots`.
    let mut drained = vec![0u32; table.msgs.len()];
    for (src, list) in table.by_src.iter().enumerate() {
        for (&n, send) in list.iter().zip(step(src).0) {
            drained[n as usize] = send.y.start;
        }
    }
    (0..ranks.len())
        .map(|dst| {
            let (_, recvs, own) = step(dst);
            let mut folds = Vec::with_capacity(recvs.iter().map(|m| m.y.len()).sum());
            for (&n, m) in table.by_dst[dst].iter().zip(recvs) {
                let src = m.peer as usize;
                let from = &step(src).2[drained[n as usize] as usize..];
                let into = &own[m.y.start as usize..m.y.end as usize];
                folds.extend(into.iter().zip(from).map(|(&into, &from)| {
                    (ranks[src].y_off as u32 + from, ranks[dst].y_off as u32 + into)
                }));
            }
            folds
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{oracle, DENSE_MIN_RUN, SELL_SIGMA};
    use crate::CsrKernel;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Cases per oracle property.
    const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 256 } else { 2048 };

    /// The CSR slice of `tasks` on a rank whose rows take slots in
    /// first-touch order (`slots`, kept across kernels): what the
    /// walk's segment table must lower to.
    fn csr_reference(tasks: &[MultTask], slots: &mut HashMap<u32, u32>) -> CsrKernel {
        let mut kernel = CsrKernel::default();
        kernel.row_ptr.push(0);
        for run in tasks.chunk_by(|a, b| a.row == b.row) {
            let next = slots.len() as u32;
            kernel.rows.push(*slots.entry(run[0].row).or_insert(next));
            kernel.cols.extend(run.iter().map(|t| t.col));
            kernel.vals.extend(run.iter().map(|t| t.val));
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
        /// the walk's segment table, and its `auto` statistics, equal
        /// the oracle's CSR-first lowering — for a kernel whose slots
        /// are all new and for a second one on the same rank that
        /// reuses some.
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
                    let seeded: Vec<AtomicBool> = x_part.iter().map(|_| AtomicBool::new(false)).collect();
                    let mut views = Views::new(NX as usize, nrows as usize);
                    let mut rank = Lowering::new(0, &x_part, &seeded, &mut views);
                    let mut slots = HashMap::new();
                    for tasks in [&first, &second] {
                        let (got, stats) = Kernel::lower(rank.tasks(tasks), format, isa);
                        let csr = csr_reference(tasks, &mut slots);
                        let want_stats = (format == KernelFormat::Auto).then(|| oracle::stats_of(&csr));
                        prop_assert_eq!(format!("{stats:?}"), format!("{want_stats:?}"));
                        let want = format!("{:?}", oracle::from_csr_isa(csr, format, isa));
                        prop_assert_eq!(format!("{got:?}"), want, "{} {}", format, isa);
                    }
                }
            }
        }
    }

    /// Single-phase, two-phase and mesh plans of `a` on an s2D
    /// partition into `k` parts (a block split of the rows by nonzero
    /// count, refined by Algorithm 1).
    fn s2d_plans(name: &str, a: &s2d_sparse::Csr, k: usize) -> Vec<(String, SpmvPlan)> {
        use s2d_core::heuristic::{s2d_heuristic_kway, HeuristicConfig};
        let nnz = a.nnz().max(1);
        let parts: Vec<u32> = (0..a.nrows())
            .map(|i| {
                let r = a.row_range(i);
                ((r.start + r.end) / 2 * k / nnz).min(k - 1) as u32
            })
            .collect();
        let p = s2d_heuristic_kway(a, &parts, &parts, k, &HeuristicConfig::default());
        vec![
            (format!("{name} single"), SpmvPlan::single_phase(a, &p)),
            (format!("{name} two"), SpmvPlan::two_phase(a, &p)),
            (format!("{name} mesh"), SpmvPlan::mesh_default(a, &p)),
        ]
    }

    /// The plans of a stencil, a dense-row matrix at `K = 64` and an
    /// R-MAT graph. `compile_on` takes the team as given, so helpers
    /// lower all of them, also below [`TEAM_MIN_TASKS`].
    fn team_plans() -> Vec<(String, SpmvPlan)> {
        use s2d_gen::denserow::{dense_row_matrix, DenseRowConfig};
        use s2d_gen::fem::fem_like;
        use s2d_gen::rmat::{rmat, RmatConfig};
        let n = 1 << 12;
        let dense =
            DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true };
        let mut plans = s2d_plans("stencil", &fem_like(1 << 14, 27.0, 27, 3), 8);
        plans.extend(s2d_plans("denserow", &dense_row_matrix(&dense, 3), 64));
        plans.extend(s2d_plans("rmat", &rmat(&RmatConfig::graph500(10, 8), 3).to_csr(), 16));
        plans
    }

    /// A plan of `k ≥ 2` ranks whose tasks all sit on the last rank.
    /// The others own columns and rows and only exchange messages:
    /// expand words to the last rank, its partials of their rows back.
    fn last_rank_plan(k: usize) -> SpmvPlan {
        let (n, last) = (64u32, k as u32 - 1);
        let x_part: Vec<u32> = (0..n).map(|j| j % k as u32).collect();
        let y_part: Vec<u32> = (0..n).map(|i| i / 3 % k as u32).collect();
        let mut tasks = Vec::new();
        for row in 0..n {
            for col in [row, (row * 7 + 1) % n, (row * 13 + 5) % n] {
                tasks.push(MultTask { row, col, val: f64::from(row + col) * 0.5 });
            }
        }
        let owned_by = |part: &[u32], r: u32| (0..n).filter(|&i| part[i as usize] == r).collect();
        let mut compute = vec![Vec::new(); k];
        compute[k - 1] = tasks;
        let expand = (0..last)
            .map(|src| MsgSpec { src, dst: last, x_cols: owned_by(&x_part, src), y_rows: vec![] })
            .collect();
        let fold = (0..last)
            .map(|dst| MsgSpec { src: last, dst, x_cols: vec![], y_rows: owned_by(&y_part, dst) })
            .collect();
        SpmvPlan {
            k,
            nrows: n as usize,
            ncols: n as usize,
            phases: vec![
                PlanPhase::Comm(expand),
                PlanPhase::Compute(compute),
                PlanPhase::Comm(fold),
            ],
            x_part,
            y_part,
        }
    }

    /// The panic message `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the compile must panic");
        payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
    }

    /// Every plan a team of 2–4 compiles equals a team of one's, bit
    /// for bit (`Debug` texts compared), in every format (the dense-row
    /// plans' dense-split kernels hold dense spans): the large plans,
    /// plans of 1–3 ranks (teams wider than `K`), and plans whose
    /// tasks all sit on the last rank (empty groups; ranks that have
    /// messages but no tasks).
    #[test]
    fn compiled_plans_are_identical_at_every_team_size() {
        let stencil = s2d_gen::fem::fem_like(1 << 10, 27.0, 27, 3);
        let mut plans = team_plans();
        for k in 1..=3 {
            plans.extend(s2d_plans(&format!("stencil k={k}"), &stencil, k));
        }
        for k in [2, 4] {
            plans.push((format!("last rank k={k}"), last_rank_plan(k)));
        }
        let mut dense_spans = false;
        for (name, plan) in plans {
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

    /// The last-rank plan compiles to what its shape says: only the
    /// last rank multiplies, the others send, fold and emit.
    #[test]
    fn ranks_without_tasks_send_fold_and_emit() {
        let cp = CompiledPlan::compile(&last_rank_plan(4));
        for (r, rp) in cp.ranks.iter().enumerate() {
            let RankStep::Compute(kernel) = &rp.steps[1] else { panic!("a compute step") };
            assert_eq!(kernel.ops() > 0, r == 3, "rank {r}");
            if r < 3 {
                let RankStep::Comm { folds, .. } = &rp.steps[2] else { panic!("a comm step") };
                assert_eq!(folds.len(), rp.y_emit.len(), "rank {r} folds every row it owns");
                assert!(folds.iter().all(|&(from, _)| from as usize >= cp.ranks[3].y_off));
            }
        }
        assert_eq!(cp.total_ops(), 3 * 64);
    }

    /// Ranks with no work do not pull the cut: every group but those
    /// left empty holds about an equal share of the work.
    #[test]
    fn groups_are_cut_over_zero_work_ranks() {
        assert_eq!(group_ends(&[0, 0, 5, 0, 0, 5, 0], 2), [3, 7]);
        assert_eq!(group_ends(&[0, 0, 4, 4], 2), [3, 4]);
        // All the work on the last rank: the caller's group takes it.
        assert_eq!(group_ends(&[0, 0, 0, 9], 4), [4, 4, 4, 4]);
        // No work at all: every rank still falls into a group.
        assert_eq!(group_ends(&[0, 0, 0], 3), [1, 1, 3]);
        assert_eq!(group_ends(&[], 2), [0, 0]);
    }

    /// Drops the expand words of one message to `dst` in a single-phase
    /// plan's communication phase: `dst` then multiplies by an `x` it
    /// lacks in the last phase.
    fn starve(plan: &mut SpmvPlan, dst: u32) {
        let PlanPhase::Comm(msgs) = &mut plan.phases[1] else { panic!("single-phase plan") };
        let m = msgs.iter_mut().find(|m| m.dst == dst && !m.x_cols.is_empty());
        m.expect("a message with expand words").x_cols.clear();
    }

    /// Gives rank `rank` a task in a single-phase plan's first phase
    /// that reads a column another rank owns: it lacks it there.
    fn misread(plan: &mut SpmvPlan, rank: u32) {
        let j = plan.x_part.iter().position(|&o| o != rank).expect("a foreign column") as u32;
        let PlanPhase::Compute(tasks) = &mut plan.phases[0] else { panic!("single-phase plan") };
        tasks[rank as usize].push(MultTask { row: 0, col: j, val: 1.0 });
    }

    /// A plan bug found by a helper is raised with its own message, and
    /// when several ranks fail, in one phase or in different ones, with
    /// the message of the rank a team of one lowers first: the lowest.
    #[test]
    fn plan_bugs_raise_the_same_panic_at_every_team_size() {
        let (_, plan) = team_plans().swap_remove(0);
        let last = plan.k as u32 - 1;
        let compile = |plan: &SpmvPlan, team| {
            panic_message(|| {
                drop(CompiledPlan::compile_on(plan, KernelFormat::Auto, KernelIsa::Scalar, team))
            })
        };
        let same_at_every_team = |plan: &SpmvPlan, rank: u32| {
            let alone = compile(plan, 1);
            assert!(alone.contains(&format!("processor {rank} lacks x")), "{alone}");
            for team in 2..=4 {
                assert_eq!(compile(plan, team), alone, "team {team}");
            }
        };
        // At team 2 the last rank is a helper's, the first the caller's.
        let mut both = plan.clone();
        for dst in [last, 0] {
            starve(&mut both, dst);
            same_at_every_team(&both, dst);
        }
        // Two bugs on different ranks and phases: the lower rank's is
        // raised, whether its phase comes first or last.
        for (early, late) in [(2, last), (last, 1)] {
            let mut two = plan.clone();
            misread(&mut two, early);
            starve(&mut two, late);
            same_at_every_team(&two, early.min(late));
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
        let (x_part, seeded, mut views) = ([0], [AtomicBool::new(false)], Views::new(1, 2));
        let segments = Lowering::new(0, &x_part, &seeded, &mut views).tasks(&tasks);
        // Row 0 heads two segments, so SELL falls back to the CSR slice.
        let (kernel, _) = Kernel::lower(segments, KernelFormat::Sell, KernelIsa::Scalar);
        let Kernel::Csr(csr) = &kernel else { panic!("a CSR slice, got {kernel:?}") };
        assert_eq!(csr.rows, vec![0, 1, 0]);
        assert_eq!(csr.row_ptr, vec![0, 1, 2, 3]);
        let mut y = vec![0.0, 0.0];
        kernel.run_batch(&[10.0], &mut y, 1);
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
