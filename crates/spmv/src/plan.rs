//! The SpMV plan language and the four plan builders.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;

use s2d_core::comm::{
    comm_requirements, pair_runs, single_phase_messages, CommRequirements, CommStats,
};
use s2d_core::mesh::MeshRouting;
use s2d_core::partition::{S2dViolation, SpmvPartition};
use s2d_sparse::Csr;

/// One multiply-add: `ȳ[row] += val · x[col]`, executed by the processor
/// that owns the task.
#[derive(Clone, Copy, Debug)]
pub struct MultTask {
    /// Output row.
    pub row: u32,
    /// Input column.
    pub col: u32,
    /// Matrix value.
    pub val: f64,
}

/// A message: `src` ships the listed `x` values and drains the listed
/// partial-`y` accumulators to `dst` (which adds them into its own).
#[derive(Clone, Debug)]
pub struct MsgSpec {
    /// Sender.
    pub src: u32,
    /// Receiver.
    pub dst: u32,
    /// Columns whose `x` value travels.
    pub x_cols: Vec<u32>,
    /// Rows whose partial `ȳ` travels (moved, not copied).
    pub y_rows: Vec<u32>,
}

impl MsgSpec {
    /// Message size in words.
    pub fn words(&self) -> u64 {
        (self.x_cols.len() + self.y_rows.len()) as u64
    }
}

/// A bulk-synchronous phase of the plan.
#[derive(Clone, Debug)]
pub enum PlanPhase {
    /// Per-processor multiply-add lists (indexed by processor).
    Compute(Vec<Vec<MultTask>>),
    /// Simultaneous message exchange.
    Comm(Vec<MsgSpec>),
}

/// A complete bulk-synchronous SpMV program for `K` virtual processors.
#[derive(Clone, Debug)]
pub struct SpmvPlan {
    /// Number of processors.
    pub k: usize,
    /// Output size.
    pub nrows: usize,
    /// Input size.
    pub ncols: usize,
    /// Owner of each `x_j` (initial placement of the input).
    pub x_part: Vec<u32>,
    /// Owner of each `y_i` (final placement of the output).
    pub y_part: Vec<u32>,
    /// The program.
    pub phases: Vec<PlanPhase>,
}

/// Per-processor task lists.
type Tasks = Vec<Vec<MultTask>>;

/// The fewest nonzeros for which the single-phase split and the
/// requirement lists are built side by side. A helper costs about a
/// megabyte of resident memory: its stack and thread state, and a
/// glibc arena of its own that keeps what the helper allocated (here
/// the requirement lists) where the calling thread cannot reuse it.
/// Below this size that is a large share of what a set-up holds, and
/// the time saved (each pass takes 4–30 ns per nonzero, a helper
/// 30–55 µs to start and join on a 2-vCPU x86-64 VM) is small; the
/// caller builds both.
const SIDE_BY_SIDE_MIN_NNZ: usize = 1 << 18;

/// The team that builds a plan of `a`: the caller alone below
/// [`SIDE_BY_SIDE_MIN_NNZ`] nonzeros, else as many threads as the
/// process may run at once.
fn plan_team(a: &Csr) -> usize {
    if a.nnz() < SIDE_BY_SIDE_MIN_NNZ {
        1
    } else {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }
}

/// Splits the owned nonzeros into (precompute, rest) per processor:
/// rest = `y` local, precompute = `y` non-local, computed before the
/// fused communication — which is legal only if `x` is local, the s2D
/// condition. A counting pass checks it (returning the first violation
/// in CSR order) and sizes every list; a second pass fills them.
///
/// The split does not wait for `comm_requirements` to check the
/// partition in full, so it checks what it relies on itself: the
/// lengths, and each owner it reads. A misfit panics through
/// [`SpmvPartition::assert_shape`], which names it.
fn split_tasks(a: &Csr, p: &SpmvPartition) -> Result<(Tasks, Tasks), S2dViolation> {
    if p.x_part.len() != a.ncols() || p.y_part.len() != a.nrows() || p.nz_owner.len() != a.nnz() {
        p.assert_shape(a);
    }
    let mut sizes = vec![(0usize, 0usize); p.k];
    for i in 0..a.nrows() {
        for e in a.row_range(i) {
            let owner = p.nz_owner[e];
            if owner as usize >= p.k {
                p.assert_shape(a);
            }
            let j = a.colind()[e] as usize;
            if owner == p.y_part[i] {
                sizes[owner as usize].1 += 1;
            } else if owner == p.x_part[j] {
                sizes[owner as usize].0 += 1;
            } else {
                return Err(S2dViolation { nnz_id: e, row: i, col: j, owner });
            }
        }
    }
    let (mut pre, mut rest): (Tasks, Tasks) =
        sizes.iter().map(|&(n, m)| (Vec::with_capacity(n), Vec::with_capacity(m))).unzip();
    for i in 0..a.nrows() {
        for e in a.row_range(i) {
            let owner = p.nz_owner[e];
            let task = MultTask { row: i as u32, col: a.colind()[e], val: a.values()[e] };
            if owner == p.y_part[i] {
                rest[owner as usize].push(task);
            } else {
                pre[owner as usize].push(task);
            }
        }
    }
    Ok((pre, rest))
}

/// The single-phase split of `(a, p)` beside its requirement lists.
/// Both passes only read `a` and `p`: on a `team` of two or more, a
/// scoped helper builds the lists while the caller splits. The team is
/// taken as given; [`plan_team`] applies the size floor. A misfit
/// panics as it does on a team of one, with the split's message, else
/// the lists' (a helper's panic is re-raised with its own payload).
fn split_and_requirements(
    a: &Csr,
    p: &SpmvPartition,
    team: usize,
) -> (Result<(Tasks, Tasks), S2dViolation>, CommRequirements) {
    if team < 2 {
        return (split_tasks(a, p), comm_requirements(a, p));
    }
    std::thread::scope(|scope| {
        let reqs = scope.spawn(|| comm_requirements(a, p));
        let split = split_tasks(a, p);
        (split, reqs.join().unwrap_or_else(|payload| resume_unwind(payload)))
    })
}

/// Builds one `[x̂, ŷ]` message per `(src, dst)` pair of the sorted
/// requirement lists (pass an empty list for an expand-only or a
/// fold-only phase).
fn messages(x_reqs: &[(u32, u32, u32)], y_reqs: &[(u32, u32, u32)]) -> Vec<MsgSpec> {
    let items = |run: &[(u32, u32, u32)]| run.iter().map(|&(_, _, item)| item).collect();
    pair_runs(x_reqs, y_reqs)
        .map(|((src, dst), x, y)| MsgSpec { src, dst, x_cols: items(x), y_rows: items(y) })
        .collect()
}

impl SpmvPlan {
    /// The single-phase s2D algorithm (Section III): Precompute →
    /// Expand-and-Fold → Compute.
    ///
    /// # Panics
    /// Panics if `p` is not a valid s2D partition of `a`.
    pub fn single_phase(a: &Csr, p: &SpmvPartition) -> Self {
        Self::single_phase_on(a, p, plan_team(a))
    }

    /// [`SpmvPlan::single_phase`] on an explicit team.
    fn single_phase_on(a: &Csr, p: &SpmvPartition, team: usize) -> Self {
        let (split, reqs) = split_and_requirements(a, p, team);
        let (pre, rest) = split.expect("single-phase SpMV requires an s2D partition");
        Self::fused(a, p, pre, rest, &reqs)
    }

    /// The single-phase program over a split and its requirement lists.
    fn fused(a: &Csr, p: &SpmvPartition, pre: Tasks, rest: Tasks, reqs: &CommRequirements) -> Self {
        let comm = messages(&reqs.x_reqs, &reqs.y_reqs);
        Self::over(
            a,
            p,
            vec![PlanPhase::Compute(pre), PlanPhase::Comm(comm), PlanPhase::Compute(rest)],
        )
    }

    /// The standard two-phase algorithm for arbitrary 2D partitions
    /// (Section I): Expand → Compute → Fold.
    pub fn two_phase(a: &Csr, p: &SpmvPartition) -> Self {
        Self::expand_fold(a, p, &comm_requirements(a, p))
    }

    /// The two-phase program over the requirement lists of `(a, p)`.
    fn expand_fold(a: &Csr, p: &SpmvPartition, reqs: &CommRequirements) -> Self {
        let mut all: Tasks =
            p.loads().into_iter().map(|n| Vec::with_capacity(n as usize)).collect();
        for i in 0..a.nrows() {
            for e in a.row_range(i) {
                all[p.nz_owner[e] as usize].push(MultTask {
                    row: i as u32,
                    col: a.colind()[e],
                    val: a.values()[e],
                });
            }
        }
        let phases = vec![
            PlanPhase::Comm(messages(&reqs.x_reqs, &[])),
            PlanPhase::Compute(all),
            PlanPhase::Comm(messages(&[], &reqs.y_reqs)),
        ];
        Self::over(a, p, phases)
    }

    /// The mesh-routed s2D-b algorithm (Section VI-B): Precompute →
    /// mesh-column hop → mesh-row hop (with aggregation) → Compute.
    ///
    /// # Panics
    /// Panics if `p` is not s2D or `pr·pc != k`.
    pub fn mesh(a: &Csr, p: &SpmvPartition, pr: usize, pc: usize) -> Self {
        Self::mesh_on(a, p, pr, pc, plan_team(a))
    }

    /// [`SpmvPlan::mesh`] on an explicit team.
    fn mesh_on(a: &Csr, p: &SpmvPartition, pr: usize, pc: usize, team: usize) -> Self {
        let (split, reqs) = split_and_requirements(a, p, team);
        let (pre, rest) = split.expect("s2D-b requires an s2D partition");
        let routing = MeshRouting::build(p.k, pr, pc, &reqs);
        let phase1: Vec<MsgSpec> = routing
            .phase1
            .iter()
            .map(|m| MsgSpec {
                src: m.src,
                dst: m.mid,
                x_cols: m.x_items.iter().map(|&(j, _)| j).collect(),
                y_rows: m.y_items.iter().map(|&(i, _)| i).collect(),
            })
            .collect();
        let phase2: Vec<MsgSpec> = routing
            .phase2
            .iter()
            .map(|m| MsgSpec {
                src: m.src,
                dst: m.dst,
                x_cols: m.x_items.clone(),
                y_rows: m.y_items.clone(),
            })
            .collect();
        let phases = vec![
            PlanPhase::Compute(pre),
            PlanPhase::Comm(phase1),
            PlanPhase::Comm(phase2),
            PlanPhase::Compute(rest),
        ];
        Self::over(a, p, phases)
    }

    /// The plan running `phases` over `a` with `p`'s vector placement.
    fn over(a: &Csr, p: &SpmvPartition, phases: Vec<PlanPhase>) -> Self {
        SpmvPlan {
            k: p.k,
            nrows: a.nrows(),
            ncols: a.ncols(),
            x_part: p.x_part.clone(),
            y_part: p.y_part.clone(),
            phases,
        }
    }

    /// [`SpmvPlan::mesh`] with the default nearly-square mesh.
    pub fn mesh_default(a: &Csr, p: &SpmvPartition) -> Self {
        let (pr, pc) = s2d_core::mesh::mesh_dims(p.k);
        Self::mesh(a, p, pr, pc)
    }

    /// Communication statistics of the plan's comm phases.
    pub fn comm_stats(&self) -> CommStats {
        let phases: Vec<Vec<(u32, u32, u64)>> = self
            .phases
            .iter()
            .filter_map(|ph| match ph {
                PlanPhase::Comm(msgs) => {
                    Some(msgs.iter().map(|m| (m.src, m.dst, m.words())).collect())
                }
                PlanPhase::Compute(_) => None,
            })
            .collect();
        CommStats::from_phases(self.k, &phases)
    }

    /// Total multiply-adds across compute phases (must equal `nnz`).
    pub fn total_ops(&self) -> u64 {
        self.phases
            .iter()
            .map(|ph| match ph {
                PlanPhase::Compute(tasks) => tasks.iter().map(|t| t.len() as u64).sum(),
                PlanPhase::Comm(_) => 0,
            })
            .sum()
    }

    /// Per-processor multiply-add counts (the computational loads, eq. 7).
    pub fn loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.k];
        for ph in &self.phases {
            if let PlanPhase::Compute(tasks) = ph {
                for (p, t) in tasks.iter().enumerate() {
                    loads[p] += t.len() as u64;
                }
            }
        }
        loads
    }

    /// Per-processor row-length profiles over all compute phases — the
    /// shape evidence behind kernel-format selection: semi-2D
    /// partitions deliberately give some ranks split dense rows (few
    /// rows, huge `max_row`) and others regular sparse slices (many
    /// rows near `mean_row`), and the compiled engine's
    /// `KernelFormat::Auto` policy keys on exactly this skew.
    ///
    /// A "row" here is one `(phase, output row)` run of tasks on the
    /// rank — the same granularity the engine's kernels segment by.
    pub fn row_profiles(&self) -> Vec<RowProfile> {
        let mut profiles: Vec<RowProfile> =
            (0..self.k).map(|rank| RowProfile { rank, ..RowProfile::default() }).collect();
        for ph in &self.phases {
            if let PlanPhase::Compute(tasks) = ph {
                for (p, list) in tasks.iter().enumerate() {
                    let prof = &mut profiles[p];
                    let mut current: Option<u32> = None;
                    let mut len = 0usize;
                    for t in list {
                        if current == Some(t.row) {
                            len += 1;
                        } else {
                            if current.is_some() {
                                prof.rows += 1;
                                prof.max_row = prof.max_row.max(len);
                            }
                            current = Some(t.row);
                            len = 1;
                        }
                    }
                    if current.is_some() {
                        prof.rows += 1;
                        prof.max_row = prof.max_row.max(len);
                    }
                    prof.ops += list.len() as u64;
                }
            }
        }
        for prof in &mut profiles {
            prof.mean_row = if prof.rows > 0 { prof.ops as f64 / prof.rows as f64 } else { 0.0 };
        }
        profiles
    }

    /// Executes the plan with the deterministic mailbox executor.
    ///
    /// Allocates fresh interpretation state on every call; for
    /// repeated applications build a
    /// [`MailboxOperator`](crate::operator::MailboxOperator) instead (it
    /// reuses the interpretation state across calls).
    pub fn execute_mailbox(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0f64; self.nrows];
        crate::exec::execute_mailbox_into(
            self,
            x,
            &mut y,
            &mut crate::exec::MailboxState::for_plan(self),
        );
        y
    }
}

/// Row-length profile of one processor's compute work — see
/// [`SpmvPlan::row_profiles`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RowProfile {
    /// The processor.
    pub rank: usize,
    /// Row segments (`(phase, row)` task runs) on this rank.
    pub rows: usize,
    /// Multiply-adds on this rank (equals its entry in
    /// [`SpmvPlan::loads`]).
    pub ops: u64,
    /// Longest row segment.
    pub max_row: usize,
    /// Mean row segment length (0 when the rank has no work).
    pub mean_row: f64,
}

/// Which plan construction a [`Session`-style] consumer wants — the
/// paper's three algorithm families behind one selector, mirroring the
/// [`SpmvPlan`] constructors.
///
/// [`Session`-style]: SpmvPlan
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// Fused single-phase s2D (Section III) — requires an s2D partition.
    SinglePhase,
    /// Two-phase Expand / Fold (works for any partition).
    TwoPhase,
    /// Mesh-routed s2D-b on the default nearly-square mesh (an explicit
    /// `pr × pc` mesh is [`SpmvPlan::mesh`]).
    Mesh,
}

impl PlanKind {
    /// Builds the plan of this kind for `(a, p)`.
    ///
    /// # Panics
    /// Panics if the partition does not satisfy the kind's
    /// prerequisites (e.g. [`PlanKind::SinglePhase`] on a non-s2D
    /// partition) — same contract as the underlying constructors.
    pub fn build(&self, a: &Csr, p: &SpmvPartition) -> SpmvPlan {
        match *self {
            PlanKind::SinglePhase => SpmvPlan::single_phase(a, p),
            PlanKind::TwoPhase => SpmvPlan::two_phase(a, p),
            PlanKind::Mesh => SpmvPlan::mesh_default(a, p),
        }
    }

    /// Every kind, for conformance/differential sweeps.
    pub fn all() -> [PlanKind; 3] {
        [PlanKind::SinglePhase, PlanKind::TwoPhase, PlanKind::Mesh]
    }

    /// The best legal kind for `(a, p)`: fused single-phase when the
    /// partition satisfies the s2D property, two-phase otherwise. The
    /// one rule behind the CLI's `--alg auto` and the `Session`
    /// builder's default. To build the plan as well, use
    /// [`PlanKind::build_auto`], which decides in the same pass.
    pub fn auto(a: &Csr, p: &SpmvPartition) -> PlanKind {
        if p.is_s2d(a) {
            PlanKind::SinglePhase
        } else {
            PlanKind::TwoPhase
        }
    }

    /// [`PlanKind::auto`] followed by [`PlanKind::build`], in one s2D
    /// pass: the single-phase split checks the property as it counts,
    /// and a violation falls back to the two-phase plan, over the same
    /// requirement lists.
    pub fn build_auto(a: &Csr, p: &SpmvPartition) -> (PlanKind, SpmvPlan) {
        PlanKind::build_auto_on(a, p, plan_team(a))
    }

    /// [`PlanKind::build_auto`] on an explicit team. The requirement
    /// lists are built once, beside the split, and serve either plan.
    fn build_auto_on(a: &Csr, p: &SpmvPartition, team: usize) -> (PlanKind, SpmvPlan) {
        let (split, reqs) = split_and_requirements(a, p, team);
        match split {
            Ok((pre, rest)) => (PlanKind::SinglePhase, SpmvPlan::fused(a, p, pre, rest, &reqs)),
            Err(_) => (PlanKind::TwoPhase, SpmvPlan::expand_fold(a, p, &reqs)),
        }
    }

    /// Short stable label (used in bench ids and test diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            PlanKind::SinglePhase => "single_phase",
            PlanKind::TwoPhase => "two_phase",
            PlanKind::Mesh => "mesh",
        }
    }
}

impl std::str::FromStr for PlanKind {
    type Err = String;

    /// Parses the CLI `--alg` names: `single`, `two`, `mesh` (also
    /// accepts the long labels `single_phase` / `two_phase`).
    fn from_str(s: &str) -> Result<PlanKind, String> {
        match s {
            "single" | "single_phase" | "single-phase" => Ok(PlanKind::SinglePhase),
            "two" | "two_phase" | "two-phase" => Ok(PlanKind::TwoPhase),
            "mesh" => Ok(PlanKind::Mesh),
            other => Err(format!("unknown plan kind {other:?} (single|two|mesh)")),
        }
    }
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Consistency check used by tests: the plan's single-phase volume must
/// match equation (3) computed from the requirement sets directly.
pub fn volume_matches_eq3(a: &Csr, p: &SpmvPartition, plan: &SpmvPlan) -> bool {
    let reqs = comm_requirements(a, p);
    let merged = single_phase_messages(&reqs);
    let direct: u64 = merged.iter().map(|&(_, _, w)| w).sum();
    plan.comm_stats().total_volume == direct
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_sparse::Coo;

    /// Cases per oracle property (matrices of at most 40 × 40).
    const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 256 } else { 2048 };

    /// The original split: tasks pushed into growing lists.
    fn split_tasks_reference(a: &Csr, p: &SpmvPartition) -> (Tasks, Tasks) {
        let mut pre: Tasks = vec![Vec::new(); p.k];
        let mut rest: Tasks = vec![Vec::new(); p.k];
        for i in 0..a.nrows() {
            for e in a.row_range(i) {
                let task = MultTask { row: i as u32, col: a.colind()[e], val: a.values()[e] };
                if p.y_part[i] == p.nz_owner[e] {
                    rest[p.nz_owner[e] as usize].push(task);
                } else {
                    pre[p.nz_owner[e] as usize].push(task);
                }
            }
        }
        (pre, rest)
    }

    /// The original grouping: per `(src, dst)` through a `BTreeMap`.
    fn combined_messages_reference(reqs: &CommRequirements) -> Vec<MsgSpec> {
        use std::collections::BTreeMap;
        let mut by_pair: BTreeMap<(u32, u32), (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for &(src, dst, j) in &reqs.x_reqs {
            by_pair.entry((src, dst)).or_default().0.push(j);
        }
        for &(src, dst, i) in &reqs.y_reqs {
            by_pair.entry((src, dst)).or_default().1.push(i);
        }
        by_pair
            .into_iter()
            .map(|((src, dst), (x_cols, y_rows))| MsgSpec { src, dst, x_cols, y_rows })
            .collect()
    }

    /// A random rectangular matrix with blanked rows and columns, and a
    /// partition over `K ∈ {1, 2, 17, 65, 130}` parts: s2D, or (about
    /// every other case) arbitrary 2D.
    fn instance() -> impl Strategy<Value = (Csr, SpmvPartition)> {
        (0..5usize, 1..=40usize, 1..=40usize, 0..2u8).prop_flat_map(|(ki, nrows, ncols, s2d)| {
            let k = [1, 2, 17, 65, 130][ki];
            (
                collection::vec((0..nrows, 0..ncols, 1..8u8), 0..=150),
                collection::vec(0..4u8, nrows + ncols),
                collection::vec(0..k as u32, nrows + ncols),
                collection::vec(0..k as u32, 150),
            )
                .prop_map(move |(entries, blank, vector_parts, owners)| {
                    let mut coo = Coo::new(nrows, ncols);
                    for (r, c, v) in entries {
                        if blank[r] != 0 && blank[nrows + c] != 0 {
                            coo.push(r, c, f64::from(v) * 0.5);
                        }
                    }
                    coo.compress();
                    let a = coo.to_csr();
                    let (y_part, x_part) = vector_parts.split_at(nrows);
                    let nz_owner = (0..a.nrows())
                        .flat_map(|i| a.row_range(i).map(move |e| (i, e)))
                        .map(|(i, e)| match (s2d, owners[e] % 2) {
                            (1, 0) => y_part[i],
                            (1, _) => x_part[a.colind()[e] as usize],
                            _ => owners[e],
                        })
                        .collect();
                    let (x_part, y_part) = (x_part.to_vec(), y_part.to_vec());
                    (a, SpmvPartition { k, x_part, y_part, nz_owner })
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

        /// The counted split finds exactly `validate_s2d`'s first
        /// violation and otherwise equals the pushed one; the linear
        /// merges equal the `BTreeMap` grouping, for the fused plan and
        /// for both phases of the two-phase plan.
        #[test]
        fn split_and_messages_match_reference((a, p) in instance()) {
            let reqs = comm_requirements(&a, &p);
            match (split_tasks(&a, &p), p.validate_s2d(&a)) {
                (Ok(split), Ok(())) => prop_assert_eq!(
                    format!("{split:?}"),
                    format!("{:?}", split_tasks_reference(&a, &p))
                ),
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert!(false, "split {got:?}, validate {want:?}"),
            }
            prop_assert_eq!(
                format!("{:?}", messages(&reqs.x_reqs, &reqs.y_reqs)),
                format!("{:?}", combined_messages_reference(&reqs))
            );
            let plan = SpmvPlan::two_phase(&a, &p);
            let only = |x_reqs, y_reqs| {
                combined_messages_reference(&CommRequirements { x_reqs, y_reqs })
            };
            prop_assert_eq!(
                format!("{:?}", plan.phases[0]),
                format!("{:?}", PlanPhase::Comm(only(reqs.x_reqs.clone(), Vec::new())))
            );
            prop_assert_eq!(
                format!("{:?}", plan.phases[2]),
                format!("{:?}", PlanPhase::Comm(only(Vec::new(), reqs.y_reqs.clone())))
            );
        }

        /// One s2D pass decides the kind and builds the plan exactly as
        /// the separate scan followed by the build does.
        #[test]
        fn build_auto_is_auto_then_build((a, p) in instance()) {
            let (kind, plan) = PlanKind::build_auto(&a, &p);
            prop_assert_eq!(kind, PlanKind::auto(&a, &p));
            prop_assert_eq!(format!("{plan:?}"), format!("{:?}", kind.build(&a, &p)));
        }
    }

    /// A stencil, a dense-row matrix at `K = 64` and an R-MAT graph,
    /// each with an s2D partition (a block split of the rows by nonzero
    /// count, refined by Algorithm 1) and a 2D one that is not s2D. The
    /// `*_on` entries take the team as given, so the helper runs on
    /// all three, also below [`SIDE_BY_SIDE_MIN_NNZ`].
    fn team_inputs() -> Vec<(&'static str, Csr, SpmvPartition, SpmvPartition)> {
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
        inputs
            .into_iter()
            .map(|(name, a, k)| {
                let nnz = a.nnz().max(1);
                let parts: Vec<u32> = (0..a.nrows())
                    .map(|i| {
                        let r = a.row_range(i);
                        ((r.start + r.end) / 2 * k / nnz).min(k - 1) as u32
                    })
                    .collect();
                let cfg = HeuristicConfig::default();
                let s2d = s2d_heuristic_kway(&a, &parts, &parts, k, &cfg);
                let owners = (0..a.nnz()).map(|e| (e * 2_654_435_761 % k) as u32).collect();
                let fine = SpmvPartition { nz_owner: owners, ..s2d.clone() };
                assert!(s2d.is_s2d(&a) && !fine.is_s2d(&a), "{name}");
                (name, a, s2d, fine)
            })
            .collect()
    }

    /// The panic message `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the build must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("a panic message")
    }

    /// Every plan a team of 2–4 builds equals a team of one's, bit for
    /// bit (`Debug` texts compared): single-phase, mesh, and the
    /// automatic choice on an s2D and on a non-s2D partition (the
    /// two-phase fallback).
    #[test]
    fn plans_are_identical_at_every_team_size() {
        for (name, a, s2d, fine) in team_inputs() {
            let (pr, pc) = s2d_core::mesh::mesh_dims(s2d.k);
            let plans = |team| {
                let single = SpmvPlan::single_phase_on(&a, &s2d, team);
                let mesh = SpmvPlan::mesh_on(&a, &s2d, pr, pc, team);
                let auto = PlanKind::build_auto_on(&a, &s2d, team);
                let fallback = PlanKind::build_auto_on(&a, &fine, team);
                assert_eq!((auto.0, fallback.0), (PlanKind::SinglePhase, PlanKind::TwoPhase));
                format!("{single:?} {mesh:?} {:?} {:?}", auto.1, fallback.1)
            };
            let alone = plans(1);
            for team in 2..=4 {
                assert!(plans(team) == alone, "{name}: team {team}");
            }
        }
    }

    /// A partition that does not fit the matrix panics with the
    /// message a team of one raises, whether the caller's split finds
    /// the misfit or the helper's requirement lists do.
    #[test]
    fn misfits_raise_the_same_panic_at_every_team_size() {
        let (_, a, s2d, _) = team_inputs().swap_remove(0);
        let mut owner = s2d.clone();
        *owner.nz_owner.last_mut().expect("nonzeros") = s2d.k as u32;
        let mut column = s2d.clone();
        column.x_part[a.colind()[0] as usize] = s2d.k as u32;
        for (misfit, expected) in
            [(owner, "nz owner out of range"), (column, "x part out of range")]
        {
            let alone = panic_message(|| drop(PlanKind::build_auto_on(&a, &misfit, 1)));
            assert!(alone.contains(expected), "{alone}");
            let team = panic_message(|| drop(PlanKind::build_auto_on(&a, &misfit, 2)));
            assert_eq!(team, alone);
        }
    }

    #[test]
    fn fig1_single_phase_structure() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::single_phase(&a, &p);
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.total_ops(), a.nnz() as u64);
        assert!(volume_matches_eq3(&a, &p, &plan));
        // Messages: P2->P1 carries [x5, y2] (2 words).
        if let PlanPhase::Comm(msgs) = &plan.phases[1] {
            let m = msgs.iter().find(|m| m.src == 1 && m.dst == 0).expect("P2->P1");
            assert_eq!(m.x_cols, vec![4]);
            assert_eq!(m.y_rows, vec![1]);
        } else {
            panic!("phase 1 must be the fused communication");
        }
    }

    #[test]
    fn two_phase_conserves_ops() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::two_phase(&a, &p);
        assert_eq!(plan.total_ops(), a.nnz() as u64);
        assert_eq!(plan.loads(), p.loads());
    }

    #[test]
    fn single_and_two_phase_volumes_agree_on_s2d() {
        // For an s2D partition the fused plan moves exactly the same words
        // as the two-phase plan; only message counts differ.
        let a = fig1_matrix();
        let p = fig1_partition();
        let single = SpmvPlan::single_phase(&a, &p).comm_stats();
        let two = SpmvPlan::two_phase(&a, &p).comm_stats();
        assert_eq!(single.total_volume, two.total_volume);
        assert!(single.total_messages <= two.total_messages);
    }

    #[test]
    fn mesh_plan_conserves_ops_and_routes_all() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::mesh(&a, &p, 1, 3);
        assert_eq!(plan.total_ops(), a.nnz() as u64);
        // On a 1x3 mesh every processor shares the single row: all traffic
        // is direct phase-2.
        if let PlanPhase::Comm(msgs) = &plan.phases[1] {
            assert!(msgs.is_empty());
        }
    }

    #[test]
    fn row_profiles_match_loads() {
        let a = fig1_matrix();
        let p = fig1_partition();
        for plan in [SpmvPlan::single_phase(&a, &p), SpmvPlan::two_phase(&a, &p)] {
            let profiles = plan.row_profiles();
            assert_eq!(profiles.len(), plan.k);
            let loads = plan.loads();
            for prof in &profiles {
                assert_eq!(prof.ops, loads[prof.rank], "rank {}", prof.rank);
                if prof.rows > 0 {
                    assert!(prof.max_row >= 1);
                    assert!((prof.mean_row * prof.rows as f64 - prof.ops as f64).abs() < 1e-9);
                    assert!(prof.max_row as f64 >= prof.mean_row);
                }
            }
            let total: u64 = profiles.iter().map(|pr| pr.ops).sum();
            assert_eq!(total, a.nnz() as u64);
        }
    }

    #[test]
    #[should_panic(expected = "nz owner out of range")]
    fn split_names_an_owner_out_of_range() {
        let a = fig1_matrix();
        let mut p = fig1_partition();
        p.nz_owner[0] = 99;
        let _ = PlanKind::build_auto(&a, &p);
    }

    #[test]
    #[should_panic(expected = "s2D")]
    fn single_phase_rejects_non_s2d() {
        let a = fig1_matrix();
        let mut p = fig1_partition();
        // Break the property: nonzero of row 0 (P1) col 0 (P1) moved to P3.
        p.nz_owner[0] = 2;
        let _ = SpmvPlan::single_phase(&a, &p);
    }
}
