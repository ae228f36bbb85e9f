//! The per-rank distributed compute engine.
//!
//! [`spmd_compute`] spawns one rank per processor of a partition, hands
//! each a [`RankCtx`], and runs a closure SPMD-style; [`spmd_solve`]
//! adds the scatter of global inputs and the gather of the result. The
//! context holds the rank's compiled slice of the SpMV plan and
//! implements the two traits the solver cores are generic over:
//!
//! * `SpmvOperator` — execute the plan's phases for this rank (tags are
//!   drawn from a per-context allocator, so repeated calls never
//!   cross-talk);
//! * [`Reduce`] — global sums over the runtime's binomial-tree
//!   allreduce.
//!
//! Distributed vectors are plain `Vec<f64>` aligned with the rank's
//! sorted list of owned global indices ([`RankCtx::owned`]).
//!
//! # Execution
//!
//! `apply` is the workspace's one endpoint walker,
//! [`s2d_engine::RankProgram::spmv_over`], called on this rank's
//! compiled program: dense local renumbering, format-lowered kernels
//! (CSR slices here — the plan is compiled with the default format),
//! message payloads staged by precomputed gather lists and applied by
//! precomputed scatter lists in the compiled receive order. No hashing
//! anywhere in the iteration path, and — because that receive order is
//! the one every compiled driver uses — a distributed multiply is
//! bitwise identical to `Backend::CompiledSeq` and to the mailbox
//! oracle on the same plan.

use s2d_core::partition::SpmvPartition;
use s2d_engine::{CompiledPlan, Payload, RankLocal};
use s2d_runtime::{allreduce, spmd, Cluster, Endpoint};
use s2d_sparse::Csr;
use s2d_spmv::{SpmvOperator, SpmvPlan};

use crate::operator::Reduce;

/// The per-rank compute context passed to [`spmd_compute`] closures.
pub(crate) struct RankCtx<'a> {
    ep: &'a mut Endpoint<Payload>,
    /// Next unused message tag; every rank draws the same sequence
    /// because SPMD ranks execute the same call sites in the same order.
    next_tag: u32,
    /// Sorted global indices owned by this rank (`x` and `y` coincide —
    /// symmetric vector partition).
    pub(crate) owned: Vec<u32>,
    /// The whole compiled plan, shared across ranks (each rank walks
    /// only its own `RankProgram` — no per-rank deep copy).
    compiled: &'a CompiledPlan,
    /// Walker state: local blocks plus the maps between positions in
    /// `owned` and this rank's local slots.
    local: RankLocal,
}

impl<'a> RankCtx<'a> {
    fn new(compiled: &'a CompiledPlan, owned: Vec<u32>, ep: &'a mut Endpoint<Payload>) -> Self {
        let prog = &compiled.ranks[ep.rank() as usize];
        let pos = |g: u32| owned.binary_search(&g).expect("local entry must be owned") as u32;
        let seed = prog.x_seed.iter().map(|&g| (pos(g), g)).collect();
        let emit = prog.y_emit.iter().map(|&(g, slot)| (pos(g), slot)).collect();
        let local = RankLocal::new(compiled.ncols, seed, emit);
        RankCtx { ep, next_tag: 0, owned, compiled, local }
    }

    /// Reserves `n` consecutive message tags.
    fn take_tags(&mut self, n: u32) -> u32 {
        let t = self.next_tag;
        self.next_tag = t.checked_add(n).expect("tag space exhausted");
        t
    }
}

/// The per-rank context *is* an SpMV operator over the rank's local
/// vectors: `apply_batch` executes this rank's slice of the distributed
/// plan (communicating with its peers — every rank must call it at the
/// same program point). `x` is a row-major `owned.len() × r` block;
/// every message carries `len × r` words, one exchange round per
/// communication phase regardless of `r`.
impl SpmvOperator for RankCtx<'_> {
    /// Local output dimension (= the rank's owned-entry count; the
    /// vector partition is symmetric).
    fn nrows(&self) -> usize {
        self.owned.len()
    }

    fn ncols(&self) -> usize {
        self.owned.len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.apply_batch(x, y, 1);
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        assert!(r >= 1, "batch width must be at least 1");
        assert_eq!(x.len(), self.owned.len() * r, "local block length mismatch");
        assert_eq!(y.len(), self.owned.len() * r, "output block length mismatch");
        let tag0 = self.take_tags((self.compiled.comm_phases as u32).max(1));
        let prog = &self.compiled.ranks[self.ep.rank() as usize];
        prog.spmv_over(self.ep, &mut self.local, x, y, r, tag0, None);
    }
}

/// Reductions ride the runtime's binomial-tree allreduce, one fresh
/// tag pair per call.
impl Reduce for RankCtx<'_> {
    fn reduce_sum(&mut self, local: f64) -> f64 {
        self.reduce_sum_vec(vec![local])[0]
    }

    fn reduce_sum_vec(&mut self, locals: Vec<f64>) -> Vec<f64> {
        let tag = self.take_tags(2);
        allreduce(self.ep, tag, locals, |a, b| {
            assert_eq!(a.len(), b.len(), "reduction vectors must have equal length");
            a.iter().zip(&b).map(|(u, v)| u + v).collect()
        })
    }
}

/// Validates the solver preconditions and derives per-rank owned-index
/// lists from the (symmetric) vector partition.
fn owned_indices(plan: &SpmvPlan, p: &SpmvPartition) -> Vec<Vec<u32>> {
    assert_eq!(
        plan.nrows, plan.ncols,
        "iterative solvers need a square matrix (got {}x{})",
        plan.nrows, plan.ncols
    );
    assert_eq!(
        p.x_part, p.y_part,
        "iterative solvers need a symmetric vector partition (x_part == y_part)"
    );
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); plan.k];
    for (j, &o) in p.x_part.iter().enumerate() {
        owned[o as usize].push(j as u32);
    }
    owned
}

/// Runs `body` SPMD on `plan.k` ranks, each with a [`RankCtx`] over
/// its compiled slice of `plan`; returns the per-rank results in rank
/// order.
///
/// `a` is used only for shape checks; `plan` must have been built from
/// `(a, p)`.
///
/// # Panics
/// Panics if the matrix is not square or the vector partition is not
/// symmetric (`x_part != y_part`).
pub(crate) fn spmd_compute<R, F>(a: &Csr, p: &SpmvPartition, plan: &SpmvPlan, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    assert_eq!(a.nrows(), plan.nrows);
    assert_eq!(a.ncols(), plan.ncols);
    let owned = owned_indices(plan, p);
    let compiled = CompiledPlan::compile(plan);
    spmd(Cluster::<Payload>::new(plan.k), |ep| {
        let mine = owned[ep.rank() as usize].clone();
        body(&mut RankCtx::new(&compiled, mine, ep))
    })
}

/// [`spmd_compute`] for a solver core: each rank's `core` gets its
/// slices of the global `inputs` (aligned with [`RankCtx::owned`]) and
/// returns a result whose `vector` is a local slice. The ranks agree on
/// every other field, so the answer is rank 0's result with `vector`
/// assembled into the global vector.
pub(crate) fn spmd_solve<R, F>(
    a: &Csr,
    p: &SpmvPartition,
    plan: &SpmvPlan,
    inputs: &[&[f64]],
    vector: fn(&mut R) -> &mut Vec<f64>,
    core: F,
) -> R
where
    R: Send,
    F: Fn(&mut RankCtx, &[&[f64]]) -> R + Sync,
{
    for v in inputs {
        assert_eq!(v.len(), a.nrows(), "input vector length mismatch");
    }
    let mut out = spmd_compute(a, p, plan, |ctx| {
        let mine: Vec<Vec<f64>> =
            inputs.iter().map(|v| ctx.owned.iter().map(|&g| v[g as usize]).collect()).collect();
        let mine: Vec<&[f64]> = mine.iter().map(Vec::as_slice).collect();
        (ctx.owned.clone(), core(ctx, &mine))
    });
    let mut global = vec![0.0; a.nrows()];
    for (owned, res) in &mut out {
        for (&g, &v) in owned.iter().zip(vector(res).iter()) {
            global[g as usize] = v;
        }
    }
    let mut lead = out.swap_remove(0).1;
    *vector(&mut lead) = global;
    lead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{axpy, dot, dot_self, scale};
    use s2d_core::partition::SpmvPartition;
    use s2d_sparse::Coo;
    use std::sync::Arc;

    /// 1D Laplacian (SPD, diagonally dominant).
    fn laplacian(n: usize) -> Csr {
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 2.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        m.compress();
        m.to_csr()
    }

    fn setup(n: usize, k: usize) -> (Csr, SpmvPartition, SpmvPlan) {
        let a = laplacian(n);
        let per = n.div_ceil(k);
        let part: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
        let p = SpmvPartition::rowwise(&a, part.clone(), part, k);
        let plan = SpmvPlan::single_phase(&a, &p);
        (a, p, plan)
    }

    /// `times` chained distributed products `A(A(…x))`, assembled.
    fn spmd_powers(
        a: &Csr,
        p: &SpmvPartition,
        plan: &SpmvPlan,
        x: &[f64],
        times: usize,
    ) -> Vec<f64> {
        spmd_solve(
            a,
            p,
            plan,
            &[x],
            |y| y,
            |ctx, x| {
                let mut y = x[0].to_vec();
                for _ in 0..times {
                    let v = std::mem::take(&mut y);
                    y = vec![0.0; v.len()];
                    ctx.apply(&v, &mut y);
                }
                y
            },
        )
    }

    /// Runs `r`-wide products of the row-major global block `x` on every
    /// rank (`times` chained) and reassembles the global block.
    fn spmd_batch(
        a: &Csr,
        p: &SpmvPartition,
        plan: &SpmvPlan,
        x: &[f64],
        r: usize,
        times: usize,
    ) -> Vec<f64> {
        let out = spmd_compute(a, p, plan, |ctx| {
            let mut y: Vec<f64> =
                ctx.owned.iter().flat_map(|&g| &x[g as usize * r..][..r]).copied().collect();
            for _ in 0..times {
                let v = std::mem::take(&mut y);
                y = vec![0.0; v.len()];
                ctx.apply_batch(&v, &mut y, r);
            }
            (ctx.owned.clone(), y)
        });
        let mut got = vec![0.0; x.len()];
        for (idx, vals) in &out {
            for (i, &g) in idx.iter().enumerate() {
                got[g as usize * r..][..r].copy_from_slice(&vals[i * r..][..r]);
            }
        }
        got
    }

    #[test]
    fn distributed_spmv_matches_serial() {
        let (a, p, plan) = setup(40, 4);
        let x: Vec<f64> = (0..40).map(|i| (i as f64).cos()).collect();
        let want = a.spmv_alloc(&x);
        let got = spmd_powers(&a, &p, &plan, &x, 1);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    /// The interpreting oracle applied to a global row-major block.
    fn mailbox_apply(plan: &SpmvPlan, x: &[f64], r: usize) -> Vec<f64> {
        let mut op = s2d_spmv::MailboxOperator::new(Arc::new(plan.clone()));
        let mut y = vec![0.0; plan.nrows * r];
        op.apply_batch(x, &mut y, r);
        y
    }

    #[test]
    fn compiled_and_interpreted_paths_agree_bitwise() {
        let (a, p, plan) = setup(36, 5);
        let x: Vec<f64> = (0..36).map(|i| ((i * 13) % 11) as f64 / 7.0 - 0.6).collect();
        let compiled = spmd_powers(&a, &p, &plan, &x, 2); // chained: A(Ax)
        let interpreted = mailbox_apply(&plan, &mailbox_apply(&plan, &x, 1), 1);
        // Same plan, same per-rank accumulation order → identical floats.
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn repeated_spmv_calls_are_independent() {
        let (a, p, plan) = setup(24, 3);
        let x: Vec<f64> = (0..24).map(|i| i as f64 * 0.1).collect();
        let want = a.spmv_alloc(&x);
        let y1 = spmd_solve(
            &a,
            &p,
            &plan,
            &[&x],
            |y| y,
            |ctx, v| {
                let v = v[0];
                let mut y1 = vec![0.0; v.len()];
                ctx.apply(v, &mut y1);
                let mut y2 = vec![0.0; v.len()];
                ctx.apply(v, &mut y2);
                assert_eq!(y1, y2, "same input, same output");
                y1
            },
        );
        for (g, w) in y1.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
        // And chaining: A(Ax) through fresh tags.
        let want3 = a.spmv_alloc(&want);
        for (g, w) in spmd_powers(&a, &p, &plan, &x, 2).iter().zip(&want3) {
            assert!((g - w).abs() < 1e-12, "A²x: {g} vs {w}");
        }
    }

    #[test]
    fn batched_spmv_matches_per_column_serial() {
        let (a, p, plan) = setup(40, 4);
        let r = 3;
        let n = a.nrows();
        // Row-major n×r block, deterministic per (index, column).
        let xblock: Vec<f64> = (0..n * r).map(|i| ((i * 131) % 17) as f64 / 5.0 - 1.4).collect();
        let got = spmd_batch(&a, &p, &plan, &xblock, r, 1);
        for q in 0..r {
            let xq: Vec<f64> = (0..n).map(|g| xblock[g * r + q]).collect();
            let want = a.spmv_alloc(&xq);
            for g in 0..n {
                let v = got[g * r + q];
                assert!((v - want[g]).abs() < 1e-12, "col {q} row {g}: {v} vs {}", want[g]);
            }
        }
    }

    #[test]
    fn batched_compiled_and_interpreted_paths_agree_bitwise() {
        let (a, p, plan) = setup(36, 5);
        let r = 4;
        let n = a.nrows();
        let xblock: Vec<f64> = (0..n * r).map(|i| ((i * 37) % 23) as f64 / 7.0 - 1.5).collect();
        let compiled = spmd_batch(&a, &p, &plan, &xblock, r, 2); // chained: A(AX)
        let interpreted = mailbox_apply(&plan, &mailbox_apply(&plan, &xblock, r), r);
        // Same per-rank accumulation order per column → identical floats.
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn dot_and_norm_reduce_globally() {
        let (a, p, plan) = setup(30, 5);
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let serial_dot: f64 = x.iter().map(|v| v * v).sum();
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let v: Vec<f64> = ctx.owned.iter().map(|&g| x[g as usize]).collect();
            (dot(ctx, &v, &v), dot_self(ctx, &v).sqrt())
        });
        for (dot, norm) in out {
            assert!((dot - serial_dot).abs() < 1e-9);
            assert!((norm - serial_dot.sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_vec_fuses_multiple_reductions() {
        let (a, p, plan) = setup(16, 4);
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let r = ctx.ep.rank() as f64;
            ctx.reduce_sum_vec(vec![r, 2.0 * r, 1.0])
        });
        for v in out {
            assert_eq!(v, vec![6.0, 12.0, 4.0]); // Σr, 2Σr, K
        }
    }

    #[test]
    #[should_panic(expected = "symmetric vector partition")]
    fn asymmetric_partition_is_rejected() {
        let a = laplacian(8);
        let y_part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let x_part = vec![1, 1, 1, 1, 0, 0, 0, 0];
        let p = SpmvPartition::rowwise(&a, y_part, x_part, 2);
        let plan = SpmvPlan::single_phase(&a, &p);
        let _ = spmd_compute(&a, &p, &plan, |_| ());
    }

    #[test]
    fn local_axpy_and_scale() {
        // Rank-local vector updates: no communication involved.
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![10.5, 21.0]);
    }
}
