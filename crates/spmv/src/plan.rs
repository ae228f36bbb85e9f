//! The SpMV plan language and the four plan builders.

use s2d_core::comm::{comm_requirements, single_phase_messages, CommRequirements, CommStats};
use s2d_core::mesh::MeshRouting;
use s2d_core::partition::SpmvPartition;
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

/// Splits the owned nonzeros into (precompute, rest) per processor:
/// precompute = `x` local and `y` non-local (computed before the fused
/// communication), rest = `y` local.
fn split_tasks(a: &Csr, p: &SpmvPartition) -> (Vec<Vec<MultTask>>, Vec<Vec<MultTask>>) {
    let mut pre: Vec<Vec<MultTask>> = vec![Vec::new(); p.k];
    let mut rest: Vec<Vec<MultTask>> = vec![Vec::new(); p.k];
    for i in 0..a.nrows() {
        let yi = p.y_part[i];
        for e in a.row_range(i) {
            let j = a.colind()[e];
            let owner = p.nz_owner[e] as usize;
            let task = MultTask { row: i as u32, col: j, val: a.values()[e] };
            if p.y_part[i] == p.nz_owner[e] {
                rest[owner].push(task);
            } else {
                debug_assert_eq!(
                    p.x_part[j as usize], p.nz_owner[e],
                    "nonzero ({i},{j}) violates the s2D constraint"
                );
                pre[owner].push(task);
            }
            let _ = yi;
        }
    }
    (pre, rest)
}

/// Builds combined `[x̂, ŷ]` messages from requirement lists.
fn combined_messages(reqs: &CommRequirements) -> Vec<MsgSpec> {
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

impl SpmvPlan {
    /// The single-phase s2D algorithm (Section III): Precompute →
    /// Expand-and-Fold → Compute.
    ///
    /// # Panics
    /// Panics if `p` is not a valid s2D partition of `a`.
    pub fn single_phase(a: &Csr, p: &SpmvPartition) -> Self {
        p.validate_s2d(a).expect("single-phase SpMV requires an s2D partition");
        let (pre, rest) = split_tasks(a, p);
        let reqs = comm_requirements(a, p);
        let phases = vec![
            PlanPhase::Compute(pre),
            PlanPhase::Comm(combined_messages(&reqs)),
            PlanPhase::Compute(rest),
        ];
        SpmvPlan {
            k: p.k,
            nrows: a.nrows(),
            ncols: a.ncols(),
            x_part: p.x_part.clone(),
            y_part: p.y_part.clone(),
            phases,
        }
    }

    /// The standard two-phase algorithm for arbitrary 2D partitions
    /// (Section I): Expand → Compute → Fold.
    pub fn two_phase(a: &Csr, p: &SpmvPartition) -> Self {
        p.assert_shape(a);
        let reqs = comm_requirements(a, p);
        let mut all: Vec<Vec<MultTask>> = vec![Vec::new(); p.k];
        for i in 0..a.nrows() {
            for e in a.row_range(i) {
                all[p.nz_owner[e] as usize].push(MultTask {
                    row: i as u32,
                    col: a.colind()[e],
                    val: a.values()[e],
                });
            }
        }
        let expand: Vec<MsgSpec> = group_pairwise(&reqs.x_reqs)
            .into_iter()
            .map(|((src, dst), cols)| MsgSpec { src, dst, x_cols: cols, y_rows: Vec::new() })
            .collect();
        let fold: Vec<MsgSpec> = group_pairwise(&reqs.y_reqs)
            .into_iter()
            .map(|((src, dst), rows)| MsgSpec { src, dst, x_cols: Vec::new(), y_rows: rows })
            .collect();
        let phases = vec![PlanPhase::Comm(expand), PlanPhase::Compute(all), PlanPhase::Comm(fold)];
        SpmvPlan {
            k: p.k,
            nrows: a.nrows(),
            ncols: a.ncols(),
            x_part: p.x_part.clone(),
            y_part: p.y_part.clone(),
            phases,
        }
    }

    /// The mesh-routed s2D-b algorithm (Section VI-B): Precompute →
    /// mesh-column hop → mesh-row hop (with aggregation) → Compute.
    ///
    /// # Panics
    /// Panics if `p` is not s2D or `pr·pc != k`.
    pub fn mesh(a: &Csr, p: &SpmvPartition, pr: usize, pc: usize) -> Self {
        p.validate_s2d(a).expect("s2D-b requires an s2D partition");
        let (pre, rest) = split_tasks(a, p);
        let reqs = comm_requirements(a, p);
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
    /// Convenience wrapper over
    /// [`execute_mailbox_into`](crate::exec::execute_mailbox_into); for
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
    /// Mesh-routed s2D-b with an explicit `pr × pc` processor mesh.
    Mesh {
        /// Mesh rows.
        pr: usize,
        /// Mesh columns.
        pc: usize,
    },
    /// Mesh-routed s2D-b on the default nearly-square mesh.
    MeshAuto,
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
            PlanKind::Mesh { pr, pc } => SpmvPlan::mesh(a, p, pr, pc),
            PlanKind::MeshAuto => SpmvPlan::mesh_default(a, p),
        }
    }

    /// The three parameter-free kinds, for conformance/differential
    /// sweeps (explicit meshes are covered by [`PlanKind::MeshAuto`]'s
    /// default dimensions).
    pub fn all() -> [PlanKind; 3] {
        [PlanKind::SinglePhase, PlanKind::TwoPhase, PlanKind::MeshAuto]
    }

    /// The best legal kind for `(a, p)`: fused single-phase when the
    /// partition satisfies the s2D property, two-phase otherwise. The
    /// one rule behind the CLI's `--alg auto` and the `Session`
    /// builder's default.
    pub fn auto(a: &Csr, p: &SpmvPartition) -> PlanKind {
        if p.is_s2d(a) {
            PlanKind::SinglePhase
        } else {
            PlanKind::TwoPhase
        }
    }

    /// Short stable label (used in bench ids and test diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            PlanKind::SinglePhase => "single_phase",
            PlanKind::TwoPhase => "two_phase",
            PlanKind::Mesh { .. } | PlanKind::MeshAuto => "mesh",
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
            "mesh" => Ok(PlanKind::MeshAuto),
            other => Err(format!("unknown plan kind {other:?} (single|two|mesh)")),
        }
    }
}

impl std::fmt::Display for PlanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanKind::Mesh { pr, pc } => write!(f, "mesh({pr}x{pc})"),
            other => f.write_str(other.label()),
        }
    }
}

fn group_pairwise(reqs: &[(u32, u32, u32)]) -> std::collections::BTreeMap<(u32, u32), Vec<u32>> {
    let mut map: std::collections::BTreeMap<(u32, u32), Vec<u32>> =
        std::collections::BTreeMap::new();
    for &(src, dst, item) in reqs {
        map.entry((src, dst)).or_default().push(item);
    }
    map
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
    use s2d_core::fig1::{fig1_matrix, fig1_partition};

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
    #[should_panic(expected = "s2D")]
    fn single_phase_rejects_non_s2d() {
        let a = fig1_matrix();
        let mut p = fig1_partition();
        // Break the property: nonzero of row 0 (P1) col 0 (P1) moved to P3.
        p.nz_owner[0] = 2;
        let _ = SpmvPlan::single_phase(&a, &p);
    }
}
