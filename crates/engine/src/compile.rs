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
//! * every rank's `x` and `y` footprint is renumbered into dense local
//!   indices `0..nx` / `0..ny`, so vector storage becomes two flat
//!   `f64` arrays per rank;
//! * compute phases are lowered to CSR-slice kernels — run-length
//!   grouped rows over `row_ptr` / `cols` / `vals` arrays of local
//!   indices, preserving the interpreter's accumulation order exactly;
//! * every [`MsgSpec`] becomes a pair of index lists (gather at the
//!   sender, scatter at the receiver) plus a precomputed offset into a
//!   per-phase staging buffer, so a communication phase is just indexed
//!   copies through preallocated memory.
//!
//! All "processor lacks `x[j]`" conditions the interpreter detects at run
//! time are detected here at compile time, once — the execution paths
//! (the phase-walk body and the endpoint walker) contain no fallible
//! lookups at all.
//!
//! # Kernel formats
//!
//! Compute phases are first lowered to order-preserving CSR slices
//! ([`CsrKernel`]) and then converted to the requested
//! [`KernelFormat`] (see [`CompiledPlan::compile_with`]): SELL-C-σ
//! chunks for short irregular rows, dense spans for split dense rows,
//! or a per-kernel automatic choice driven by [`KernelStats`] — the
//! format is baked into the kernel's buffer layout here, so execution
//! never branches on it per entry.

use std::collections::HashMap;

use s2d_spmv::{MsgSpec, PlanPhase, SpmvPlan};

use crate::formats::{CsrKernel, Kernel, KernelFormat, KernelIsa, KernelStats};

/// One [`MsgSpec`] lowered to local index lists.
///
/// At the sender the lists *gather*: `x_idx` slots are copied into the
/// staging buffer, `y_idx` slots are copied and then zeroed (the
/// partial sums move, they are not duplicated — that is what makes
/// intermediate aggregation in mesh plans work). At the receiver the
/// same lists *scatter*: `x_idx` slots are overwritten, `y_idx` slots
/// accumulated into.
#[derive(Clone, Debug)]
pub struct CompiledMsg {
    /// The other endpoint: destination for sends, source for receives.
    pub peer: u32,
    /// Word offset of this message's region in the phase staging buffer.
    pub offset: u32,
    /// Local `x` slots (sender: gather; receiver: scatter).
    pub x_idx: Vec<u32>,
    /// Local `y` slots (sender: drain; receiver: accumulate).
    pub y_idx: Vec<u32>,
}

impl CompiledMsg {
    /// Message size in words.
    pub fn words(&self) -> usize {
        self.x_idx.len() + self.y_idx.len()
    }
}

/// One rank's view of one plan phase.
#[derive(Clone, Debug)]
pub enum RankStep {
    /// Run the kernel on local buffers.
    Compute(Kernel),
    /// Exchange staged messages; `phase` indexes the staging buffer.
    Comm {
        /// Ordinal of this communication phase within the plan.
        phase: u32,
        /// Outgoing messages (gather + drain into staging).
        sends: Vec<CompiledMsg>,
        /// Incoming messages (scatter + accumulate from staging).
        recvs: Vec<CompiledMsg>,
    },
}

/// One rank's complete compiled program.
#[derive(Clone, Debug)]
pub struct RankProgram {
    /// Size of the rank's local `x` array.
    pub nx: usize,
    /// Size of the rank's local `y` array.
    pub ny: usize,
    /// `(global column, local slot)` pairs seeded from the input vector
    /// at the start of every iteration (the rank's *used* owned entries).
    pub x_seed: Vec<(u32, u32)>,
    /// `(global row, local slot)` pairs this rank contributes to the
    /// assembled output (rows it owns and actually materializes).
    pub y_emit: Vec<(u32, u32)>,
    /// Global rows this rank owns that never materialize (no multiply
    /// and no received partial touches them): emitted as 0.0, matching
    /// the interpreter.
    pub y_zero: Vec<u32>,
    /// One step per plan phase, in plan order.
    pub steps: Vec<RankStep>,
}

/// A fully compiled plan: per-rank programs plus the shared layout
/// needed to execute them (staging sizes, row ownership).
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// Number of virtual processors.
    pub k: usize,
    /// Output dimension.
    pub nrows: usize,
    /// Input dimension.
    pub ncols: usize,
    /// Per-rank programs, indexed by rank.
    pub ranks: Vec<RankProgram>,
    /// Staging buffer size in words, one entry per communication phase.
    pub staging_words: Vec<usize>,
    /// Owner rank of every output row (copied from the plan).
    pub y_part: Vec<u32>,
    /// The [`KernelFormat`] the plan was compiled with (the *policy* —
    /// under [`KernelFormat::Auto`] each [`Kernel`] variant is that
    /// kernel's concrete choice).
    pub format: KernelFormat,
    /// The [`KernelIsa`] policy the plan was compiled with (the
    /// CPU-resolved verdict lives in each kernel's `simd` flag).
    pub isa: KernelIsa,
    /// Row-length statistics of every nonempty compute kernel (phase-
    /// major, rank order), gathered from the CSR lowering before format
    /// conversion — populated only by [`KernelFormat::Auto`] compiles.
    /// See [`CompiledPlan::kernel_stats`].
    stats: Vec<KernelStats>,
}

/// Per-rank renumbering state used only during compilation.
#[derive(Default)]
struct RankState {
    /// global x id → local slot.
    xmap: HashMap<u32, u32>,
    /// Local x slots with a defined value at this point of the walk.
    xdef: Vec<bool>,
    /// global y id → local slot.
    ymap: HashMap<u32, u32>,
    /// Local y slots currently holding a live partial sum.
    ylive: Vec<bool>,
    x_seed: Vec<(u32, u32)>,
}

impl RankState {
    /// Slot for reading `x[j]` on rank `r`: must be owned (seeded) or
    /// previously received.
    fn x_read(&mut self, j: u32, rank: usize, owned: bool, what: &str) -> u32 {
        if let Some(&slot) = self.xmap.get(&j) {
            if !self.xdef[slot as usize] {
                panic!("processor {rank} lacks x[{j}] {what}: plan bug");
            }
            return slot;
        }
        if !owned {
            panic!("processor {rank} lacks x[{j}] {what}: plan bug");
        }
        let slot = self.xmap.len() as u32;
        self.xmap.insert(j, slot);
        self.xdef.push(true);
        self.x_seed.push((j, slot));
        slot
    }

    /// Slot for receiving `x[j]` (defines the value).
    fn x_write(&mut self, j: u32) -> u32 {
        if let Some(&slot) = self.xmap.get(&j) {
            self.xdef[slot as usize] = true;
            return slot;
        }
        let slot = self.xmap.len() as u32;
        self.xmap.insert(j, slot);
        self.xdef.push(true);
        slot
    }

    /// Slot for accumulating into `y[i]` (creates the partial on first
    /// touch, like the interpreter's `entry().or_insert(0.0)`).
    fn y_accum(&mut self, i: u32) -> u32 {
        if let Some(&slot) = self.ymap.get(&i) {
            self.ylive[slot as usize] = true;
            return slot;
        }
        let slot = self.ymap.len() as u32;
        self.ymap.insert(i, slot);
        self.ylive.push(true);
        slot
    }

    /// Slot for draining `y[i]` into a message: must be live.
    fn y_drain(&mut self, i: u32, rank: usize) -> u32 {
        match self.ymap.get(&i) {
            Some(&slot) if self.ylive[slot as usize] => {
                self.ylive[slot as usize] = false;
                slot
            }
            _ => panic!("processor {rank} lacks partial y[{i}] to send: plan bug"),
        }
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
    /// # Panics
    /// Same contract as [`CompiledPlan::compile`].
    pub fn compile_with_isa(plan: &SpmvPlan, format: KernelFormat, isa: KernelIsa) -> CompiledPlan {
        let k = plan.k;
        let mut states: Vec<RankState> = (0..k).map(|_| RankState::default()).collect();
        let mut programs: Vec<Vec<RankStep>> = (0..k).map(|_| Vec::new()).collect();
        let mut staging_words = Vec::new();
        let mut stats = Vec::new();

        for phase in &plan.phases {
            match phase {
                PlanPhase::Compute(tasks) => {
                    for (r, list) in tasks.iter().enumerate() {
                        let csr = lower_tasks(list, r, &mut states[r], &plan.x_part);
                        // Statistics (a σ-sort plus a dense-run scan per
                        // kernel) are gathered only when the policy
                        // needs them — a fixed-format compile stays one
                        // pass proportional to the plan size. The pick
                        // is resolved here so `from_csr_isa` never
                        // recomputes the same stats.
                        let concrete = if format == KernelFormat::Auto && csr.ops() > 0 {
                            let st = KernelStats::of(&csr);
                            stats.push(st);
                            crate::formats::auto_pick(&st)
                        } else {
                            format
                        };
                        programs[r]
                            .push(RankStep::Compute(Kernel::from_csr_isa(csr, concrete, isa)));
                    }
                }
                PlanPhase::Comm(msgs) => {
                    let ordinal = staging_words.len() as u32;
                    let (sends, recvs, words) = lower_comm(msgs, k, &mut states, &plan.x_part);
                    staging_words.push(words);
                    for (r, (s, v)) in sends.into_iter().zip(recvs).enumerate() {
                        programs[r].push(RankStep::Comm { phase: ordinal, sends: s, recvs: v });
                    }
                }
            }
        }

        // Output emit: each row copies out of its owner's local slot;
        // rows the owner never materializes are emitted as 0.
        let mut y_zero: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, &owner) in plan.y_part.iter().enumerate() {
            if !states[owner as usize].ymap.contains_key(&(i as u32)) {
                y_zero[owner as usize].push(i as u32);
            }
        }

        let ranks = states
            .into_iter()
            .zip(programs)
            .zip(y_zero)
            .enumerate()
            .map(|(r, ((st, steps), y_zero))| {
                let mut y_emit: Vec<(u32, u32)> = st
                    .ymap
                    .iter()
                    .filter(|&(&i, _)| plan.y_part[i as usize] as usize == r)
                    .map(|(&i, &slot)| (i, slot))
                    .collect();
                y_emit.sort_unstable();
                RankProgram {
                    nx: st.xmap.len(),
                    ny: st.ymap.len(),
                    x_seed: st.x_seed,
                    y_emit,
                    y_zero,
                    steps,
                }
            })
            .collect();

        CompiledPlan {
            k,
            nrows: plan.nrows,
            ncols: plan.ncols,
            ranks,
            staging_words,
            y_part: plan.y_part.clone(),
            format,
            isa,
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
    /// policy decided from, gathered from the CSR lowering *before*
    /// format conversion (so they describe the task lists, not any
    /// padded layout). Recorded only by [`KernelFormat::Auto`] compiles;
    /// fixed-format compiles skip the gathering (it costs a σ-sort per
    /// kernel) and report an empty slice.
    pub fn kernel_stats(&self) -> &[KernelStats] {
        &self.stats
    }

    /// Bytes of flat buffer storage one workspace for this plan needs —
    /// the compiled footprint reported by benchmarks.
    pub fn workspace_bytes(&self) -> usize {
        let vectors: usize = self.ranks.iter().map(|r| r.nx + r.ny).sum();
        let staging: usize = self.staging_words.iter().sum();
        (vectors + staging + self.nrows) * std::mem::size_of::<f64>()
    }
}

/// Lowers one rank's task list into a run-length grouped CSR slice
/// (the canonical order-preserving form every [`KernelFormat`] is
/// converted from).
fn lower_tasks(
    tasks: &[s2d_spmv::MultTask],
    rank: usize,
    st: &mut RankState,
    x_part: &[u32],
) -> CsrKernel {
    let mut kernel = CsrKernel::default();
    kernel.row_ptr.push(0);
    let mut current: Option<u32> = None;
    for t in tasks {
        let col = st.x_read(t.col, rank, x_part[t.col as usize] as usize == rank, "to multiply");
        let row = st.y_accum(t.row);
        if current != Some(row) {
            if current.is_some() {
                kernel.row_ptr.push(kernel.cols.len() as u32);
            }
            kernel.rows.push(row);
            current = Some(row);
        }
        kernel.cols.push(col);
        kernel.vals.push(t.val);
    }
    if current.is_some() {
        kernel.row_ptr.push(kernel.cols.len() as u32);
    }
    kernel
}

/// Lowers one communication phase: per-rank send and receive lists plus
/// the staging footprint. All sends are lowered before any receive so
/// the drain/define bookkeeping matches the simultaneous-exchange
/// semantics (payloads capture the pre-phase state).
#[allow(clippy::type_complexity)]
fn lower_comm(
    msgs: &[MsgSpec],
    k: usize,
    states: &mut [RankState],
    x_part: &[u32],
) -> (Vec<Vec<CompiledMsg>>, Vec<Vec<CompiledMsg>>, usize) {
    let mut sends: Vec<Vec<CompiledMsg>> = (0..k).map(|_| Vec::new()).collect();
    let mut recvs: Vec<Vec<CompiledMsg>> = (0..k).map(|_| Vec::new()).collect();
    let mut offset = 0u32;
    let mut offsets = Vec::with_capacity(msgs.len());
    for m in msgs {
        let src = m.src as usize;
        let st = &mut states[src];
        let x_idx: Vec<u32> = m
            .x_cols
            .iter()
            .map(|&j| st.x_read(j, src, x_part[j as usize] as usize == src, "to send"))
            .collect();
        let y_idx: Vec<u32> = m.y_rows.iter().map(|&i| st.y_drain(i, src)).collect();
        offsets.push(offset);
        sends[src].push(CompiledMsg { peer: m.dst, offset, x_idx, y_idx });
        offset += (m.x_cols.len() + m.y_rows.len()) as u32;
    }
    for (m, &off) in msgs.iter().zip(&offsets) {
        let dst = m.dst as usize;
        let st = &mut states[dst];
        let x_idx: Vec<u32> = m.x_cols.iter().map(|&j| st.x_write(j)).collect();
        let y_idx: Vec<u32> = m.y_rows.iter().map(|&i| st.y_accum(i)).collect();
        recvs[dst].push(CompiledMsg { peer: m.src, offset: off, x_idx, y_idx });
    }
    (sends, recvs, offset as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_spmv::{MultTask, SpmvPlan};

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
        assert_eq!(cp.ranks[0].nx, 1, "rank 0 only ever holds x0");
        assert_eq!(cp.ranks[0].ny, 2, "rank 0 accumulates y0 and the y1 partial");
        assert_eq!(cp.ranks[1].nx, 2, "rank 1 holds x1 and the received x0");
        assert_eq!(cp.ranks[1].ny, 1);
        assert_eq!(cp.staging_words, vec![2]);
        assert_eq!(cp.total_ops(), 3);
    }

    #[test]
    fn seeds_cover_only_used_owned_entries() {
        let cp = CompiledPlan::compile(&tiny_plan());
        assert_eq!(cp.ranks[0].x_seed, vec![(0, 0)]);
        // Rank 1 first *uses* x1 in the final compute, after receiving
        // x0 — so x0 takes local slot 0 and the owned x1 slot 1.
        assert_eq!(cp.ranks[1].x_seed, vec![(1, 1)]);
    }

    #[test]
    fn drained_partials_are_tracked() {
        let cp = CompiledPlan::compile(&tiny_plan());
        match &cp.ranks[0].steps[1] {
            RankStep::Comm { sends, recvs, .. } => {
                assert_eq!(sends.len(), 1);
                assert_eq!(sends[0].x_idx.len(), 1);
                assert_eq!(sends[0].y_idx.len(), 1);
                assert!(recvs.is_empty());
            }
            other => panic!("expected comm step, got {other:?}"),
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
        let mut st = RankState::default();
        let kernel = lower_tasks(&tasks, 0, &mut st, &[0]);
        assert_eq!(kernel.rows, vec![0, 1, 0]);
        assert_eq!(kernel.row_ptr, vec![0, 1, 2, 3]);
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
