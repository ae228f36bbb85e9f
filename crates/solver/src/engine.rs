//! The per-rank distributed compute engine.
//!
//! [`spmd_compute`] spawns one rank per processor of a partition, hands
//! each a [`RankCtx`], and runs a user closure SPMD-style. The context
//! owns the rank's compiled slice of the SpMV plan and its share of every
//! distributed vector, and provides:
//!
//! * `spmv` — execute the plan's phases for this rank (tags are drawn
//!   from a per-context allocator, so repeated calls never cross-talk);
//! * `dot`, `norm2`, `sum`, `max` — global reductions over the runtime's
//!   binomial-tree collectives;
//! * local vector helpers (`axpy`, `scale`) that need no communication.
//!
//! Distributed vectors are plain `Vec<f64>` aligned with the rank's
//! sorted list of owned global indices ([`RankCtx::owned`]).
//!
//! # Execution
//!
//! `spmv` is the workspace's one endpoint walker,
//! [`s2d_engine::RankProgram::spmv_over`], called on this rank's
//! compiled program: dense local renumbering, format-lowered kernels
//! (CSR slices here — the plan is compiled with the default format),
//! message payloads staged by precomputed gather lists and applied by
//! precomputed scatter lists in the compiled receive order. No hashing
//! anywhere in the iteration path, and — because that receive order is
//! the one every compiled driver uses — a distributed multiply is
//! bitwise identical to `Backend::CompiledSeq` and to the mailbox
//! oracle on the same plan.
//!
//! Solver math does not live here: the cores in
//! `cg`/`jacobi`/`power`/`block_power` are generic over
//! `SpmvOperator + Reduce` (see [`crate::operator`]), which [`RankCtx`]
//! implements — the same cores also run solo on any whole-plan
//! `s2d_engine::Backend` operator.

use std::sync::Arc;

use s2d_core::partition::SpmvPartition;
use s2d_engine::telemetry::{span_end, span_start};
use s2d_engine::{CompiledPlan, ExecTelemetry, Payload, RankLocal};
use s2d_obs::{Phase, TelemetrySink};
use s2d_runtime::collectives::{allreduce, combine_vec};
use s2d_runtime::{spmd, Cluster, Endpoint, MAX, SUM};
use s2d_sparse::Csr;
use s2d_spmv::SpmvPlan;

/// Hands out unique message tags; every rank draws the same sequence
/// because SPMD ranks execute the same call sites in the same order.
struct TagAlloc {
    next: u32,
}

impl TagAlloc {
    fn take(&mut self, n: u32) -> u32 {
        let t = self.next;
        self.next = self.next.checked_add(n).expect("tag space exhausted");
        t
    }
}

/// The per-rank compute context passed to [`spmd_compute`] closures.
pub struct RankCtx {
    ep: Endpoint<Payload>,
    tags: TagAlloc,
    /// Sorted global indices owned by this rank (`x` and `y` coincide —
    /// symmetric vector partition).
    pub owned: Vec<u32>,
    /// The whole compiled plan, shared across ranks (each rank walks
    /// only its own `RankProgram` — no per-rank deep copy).
    compiled: Arc<CompiledPlan>,
    /// Walker state: local blocks plus the maps between positions in
    /// `owned` and this rank's local slots.
    local: RankLocal,
    /// Shared telemetry; this rank records under its own recorder.
    obs: Option<Arc<ExecTelemetry>>,
}

impl RankCtx {
    fn new(
        compiled: &Arc<CompiledPlan>,
        owned: Vec<u32>,
        ep: Endpoint<Payload>,
        obs: Option<Arc<ExecTelemetry>>,
    ) -> Self {
        let prog = &compiled.ranks[ep.rank() as usize];
        let pos = |g: u32| owned.binary_search(&g).expect("local entry must be owned") as u32;
        let seed = prog.x_seed.iter().map(|&g| (pos(g), g)).collect();
        let emit = prog.y_emit.iter().map(|&(g, slot)| (pos(g), slot)).collect();
        RankCtx {
            ep,
            tags: TagAlloc { next: 0 },
            owned,
            compiled: Arc::clone(compiled),
            local: RankLocal::new(compiled.ncols, seed, emit),
            obs,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.ep.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.ep.size()
    }

    /// Number of vector entries owned by this rank.
    pub fn local_len(&self) -> usize {
        self.owned.len()
    }

    /// Executes one distributed SpMV: `v` holds the values of the owned
    /// `x` entries (aligned with [`RankCtx::owned`]); the result holds
    /// the owned `y` entries in the same alignment.
    ///
    /// Allocating convenience over [`RankCtx::spmv_batch_into`] — the
    /// solver cores use the out-param form (via the `SpmvOperator`
    /// impl) to keep iteration loops allocation-free.
    pub fn spmv(&mut self, v: &[f64]) -> Vec<f64> {
        self.spmv_batch(v, 1)
    }

    /// Executes one distributed **batched** SpMV over `r` right-hand
    /// sides, allocating the output block. See
    /// [`RankCtx::spmv_batch_into`].
    pub fn spmv_batch(&mut self, v: &[f64], r: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.owned.len() * r];
        self.spmv_batch_into(v, &mut out, r);
        out
    }

    /// Executes one distributed batched SpMV over `r` right-hand sides
    /// into the caller's buffer. `v` is a row-major `local_len × r`
    /// block (owned entry `i` occupies `v[i*r .. (i+1)*r]`); `out` has
    /// the same layout for the owned `y` entries and is fully
    /// overwritten.
    ///
    /// Every message carries `len × r` words — one exchange round per
    /// communication phase regardless of `r` — and the kernels run the
    /// fixed-width batched inner loops. With telemetry attached (see
    /// [`cg_solve_obs`](crate::cg_solve_obs)), gather / compute /
    /// scatter spans and work counters are recorded under this rank's
    /// recorder.
    pub fn spmv_batch_into(&mut self, v: &[f64], out: &mut [f64], r: usize) {
        assert!(r >= 1, "batch width must be at least 1");
        assert_eq!(v.len(), self.owned.len() * r, "local block length mismatch");
        assert_eq!(out.len(), self.owned.len() * r, "output block length mismatch");
        let comm_phases = self.compiled.comm_phases as u32;
        let tag0 = self.tags.take(comm_phases.max(1));
        let prog = &self.compiled.ranks[self.ep.rank() as usize];
        prog.spmv_over(&mut self.ep, &mut self.local, v, out, r, tag0, self.obs.as_deref());
    }

    /// Global dot product `⟨u, v⟩` over all ranks' owned entries.
    pub fn dot(&mut self, u: &[f64], v: &[f64]) -> f64 {
        debug_assert_eq!(u.len(), v.len());
        let local: f64 = u.iter().zip(v).map(|(a, b)| a * b).sum();
        self.sum(local)
    }

    /// Global Euclidean norm of `v`.
    pub fn norm2(&mut self, v: &[f64]) -> f64 {
        self.dot_self(v).sqrt()
    }

    /// Global `⟨v, v⟩`.
    pub fn dot_self(&mut self, v: &[f64]) -> f64 {
        let local: f64 = v.iter().map(|a| a * a).sum();
        self.sum(local)
    }

    /// Global sum of a per-rank scalar.
    pub fn sum(&mut self, local: f64) -> f64 {
        self.sum_vec(vec![local])[0]
    }

    /// Global max of a per-rank scalar.
    pub fn max(&mut self, local: f64) -> f64 {
        self.reduce(vec![local], |a, b| combine_vec(MAX, a, b))[0]
    }

    /// Global elementwise-sum allreduce of a small dense vector (every
    /// rank contributes and receives `vals.len()` entries). Used for
    /// fused multi-scalar reductions (e.g. CG's `(r·r, p·Ap)` pair).
    pub fn sum_vec(&mut self, vals: Vec<f64>) -> Vec<f64> {
        self.reduce(vals, |a, b| combine_vec(SUM, a, b))
    }

    /// One allreduce under a fresh tag pair, recorded as a
    /// [`Phase::Reduce`] span when telemetry is attached.
    fn reduce(&mut self, vals: Payload, combine: impl Fn(Payload, Payload) -> Payload) -> Payload {
        let tag = self.tags.take(2);
        let t = span_start(self.obs.as_deref());
        let out = allreduce(&mut self.ep, tag, vals, combine);
        span_end(self.obs.as_deref(), self.ep.rank() as usize, Phase::Reduce, t);
        out
    }

    /// `y += alpha · x`, purely local.
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        crate::operator::axpy(alpha, x, y)
    }

    /// `v *= alpha`, purely local.
    pub fn scale(alpha: f64, v: &mut [f64]) {
        crate::operator::scale(alpha, v)
    }
}

/// The per-rank context *is* an SpMV operator over the rank's local
/// vectors: `apply` executes this rank's slice of the distributed plan
/// (communicating with its peers — every rank must call it at the same
/// program point). This is what lets the solver cores be written once,
/// generic over `SpmvOperator + Reduce`, and run both SPMD-distributed
/// and solo on any whole-plan backend.
impl s2d_spmv::SpmvOperator for RankCtx {
    /// Local output dimension (= the rank's owned-entry count; the
    /// vector partition is symmetric).
    fn nrows(&self) -> usize {
        self.owned.len()
    }

    fn ncols(&self) -> usize {
        self.owned.len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmv_batch_into(x, y, 1);
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        self.spmv_batch_into(x, y, r);
    }
}

/// Reductions ride the runtime's binomial-tree collectives.
impl crate::operator::Reduce for RankCtx {
    fn reduce_sum(&mut self, local: f64) -> f64 {
        self.sum(local)
    }

    fn reduce_sum_vec(&mut self, locals: Vec<f64>) -> Vec<f64> {
        self.sum_vec(locals)
    }

    fn reduce_max(&mut self, local: f64) -> f64 {
        self.max(local)
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
pub fn spmd_compute<R, F>(a: &Csr, p: &SpmvPartition, plan: &SpmvPlan, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    spmd_compute_inner(a, p, plan, None, body)
}

/// The one SPMD launcher behind [`spmd_compute`]. With a `sink` (sized
/// for `plan.k` ranks) each rank records its SpMV phase spans, work
/// counters and reduction spans under its own recorder — purely
/// observational, results stay bitwise identical.
pub(crate) fn spmd_compute_inner<R, F>(
    a: &Csr,
    p: &SpmvPartition,
    plan: &SpmvPlan,
    sink: Option<&Arc<TelemetrySink>>,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    assert_eq!(a.nrows(), plan.nrows);
    assert_eq!(a.ncols(), plan.ncols);
    let owned = owned_indices(plan, p);
    let compiled = Arc::new(CompiledPlan::compile(plan));
    let obs = sink.map(|sink| Arc::new(ExecTelemetry::new(&compiled, Arc::clone(sink))));
    let owned_ref = parking_lot::Mutex::new(owned);
    spmd(Cluster::<Payload>::new(plan.k), |ep| {
        let my_owned = std::mem::take(&mut owned_ref.lock()[ep.rank() as usize]);
        // Endpoint moves into the context; the context lives for the
        // whole body.
        let ep = std::mem::replace(ep, dummy_endpoint());
        body(&mut RankCtx::new(&compiled, my_owned, ep, obs.clone()))
    })
}

/// A placeholder endpoint used to move the real one into [`RankCtx`]
/// (rank 0 of a private single-rank cluster; never communicated on).
fn dummy_endpoint() -> Endpoint<Payload> {
    Cluster::new(1).into_endpoints().remove(0)
}

/// Scatters a global vector into per-rank local slices (aligned with the
/// sorted owned indices that [`spmd_compute`] hands each rank).
pub fn scatter(global: &[f64], p: &SpmvPartition) -> Vec<Vec<f64>> {
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); p.k];
    for (j, &v) in global.iter().enumerate() {
        parts[p.x_part[j] as usize].push(v);
    }
    parts
}

/// Gathers per-rank local slices back into a global vector.
pub fn gather_global(locals: &[(Vec<u32>, Vec<f64>)], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for (idx, vals) in locals {
        for (&g, &v) in idx.iter().zip(vals) {
            out[g as usize] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_core::partition::SpmvPartition;
    use s2d_sparse::Coo;

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

    fn block_partition(n: usize, k: usize) -> SpmvPartition {
        let per = n.div_ceil(k);
        let part: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
        SpmvPartition {
            k,
            x_part: part.clone(),
            y_part: part.clone(),
            nz_owner: Vec::new(), // filled by rowwise below
        }
    }

    fn setup(n: usize, k: usize) -> (Csr, SpmvPartition, SpmvPlan) {
        let a = laplacian(n);
        let base = block_partition(n, k);
        let p = SpmvPartition::rowwise(&a, base.y_part.clone(), base.x_part.clone(), k);
        let plan = SpmvPlan::single_phase(&a, &p);
        (a, p, plan)
    }

    #[test]
    fn distributed_spmv_matches_serial() {
        let (a, p, plan) = setup(40, 4);
        let x: Vec<f64> = (0..40).map(|i| (i as f64).cos()).collect();
        let want = a.spmv_alloc(&x);
        let locals = scatter(&x, &p);
        let locals = parking_lot::Mutex::new(locals);
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let v = std::mem::take(&mut locals.lock()[ctx.rank() as usize]);
            let y = ctx.spmv(&v);
            (ctx.owned.clone(), y)
        });
        let got = gather_global(&out, 40);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    /// The interpreting oracle applied to a global row-major block.
    fn mailbox_apply(plan: &SpmvPlan, x: &[f64], r: usize) -> Vec<f64> {
        use s2d_spmv::SpmvOperator;
        let mut op = s2d_spmv::MailboxOperator::new(Arc::new(plan.clone()));
        let mut y = vec![0.0; plan.nrows * r];
        op.apply_batch(x, &mut y, r);
        y
    }

    #[test]
    fn compiled_and_interpreted_paths_agree_bitwise() {
        let (a, p, plan) = setup(36, 5);
        let x: Vec<f64> = (0..36).map(|i| ((i * 13) % 11) as f64 / 7.0 - 0.6).collect();
        let locals = parking_lot::Mutex::new(scatter(&x, &p));
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let v = std::mem::take(&mut locals.lock()[ctx.rank() as usize]);
            let y1 = ctx.spmv(&v);
            let y2 = ctx.spmv(&y1); // chained: A(Ax)
            (ctx.owned.clone(), y2)
        });
        let compiled = gather_global(&out, 36);
        let interpreted = mailbox_apply(&plan, &mailbox_apply(&plan, &x, 1), 1);
        // Same plan, same per-rank accumulation order → identical floats.
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn repeated_spmv_calls_are_independent() {
        let (a, p, plan) = setup(24, 3);
        let x: Vec<f64> = (0..24).map(|i| i as f64 * 0.1).collect();
        let want = a.spmv_alloc(&x);
        let locals = scatter(&x, &p);
        let locals = parking_lot::Mutex::new(locals);
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let v = std::mem::take(&mut locals.lock()[ctx.rank() as usize]);
            let y1 = ctx.spmv(&v);
            let y2 = ctx.spmv(&v);
            assert_eq!(y1, y2, "same input, same output");
            // And chaining: y3 = A(Ax) must differ from Ax in general.
            let y3 = ctx.spmv(&y1);
            (ctx.owned.clone(), y1, y3)
        });
        let got = gather_global(
            &out.iter().map(|(o, y1, _)| (o.clone(), y1.clone())).collect::<Vec<_>>(),
            24,
        );
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
        let got3 =
            gather_global(&out.into_iter().map(|(o, _, y3)| (o, y3)).collect::<Vec<_>>(), 24);
        let want3 = a.spmv_alloc(&want);
        for (g, w) in got3.iter().zip(&want3) {
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
        let locals = parking_lot::Mutex::new({
            // Scatter the block: rank gets owned rows' r-word groups.
            let mut parts: Vec<Vec<f64>> = vec![Vec::new(); p.k];
            for g in 0..n {
                parts[p.x_part[g] as usize].extend_from_slice(&xblock[g * r..(g + 1) * r]);
            }
            parts
        });
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let v = std::mem::take(&mut locals.lock()[ctx.rank() as usize]);
            let y = ctx.spmv_batch(&v, r);
            (ctx.owned.clone(), y)
        });
        // Reassemble the global block and check each column.
        let mut got = vec![0.0; n * r];
        for (idx, vals) in &out {
            for (i, &g) in idx.iter().enumerate() {
                got[g as usize * r..(g as usize + 1) * r]
                    .copy_from_slice(&vals[i * r..(i + 1) * r]);
            }
        }
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
        let locals = parking_lot::Mutex::new({
            let mut parts: Vec<Vec<f64>> = vec![Vec::new(); p.k];
            for g in 0..n {
                parts[p.x_part[g] as usize].extend_from_slice(&xblock[g * r..(g + 1) * r]);
            }
            parts
        });
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let v = std::mem::take(&mut locals.lock()[ctx.rank() as usize]);
            let y1 = ctx.spmv_batch(&v, r);
            let y2 = ctx.spmv_batch(&y1, r); // chained: A(AX)
            (ctx.owned.clone(), y2)
        });
        let mut compiled = vec![0.0; n * r];
        for (idx, vals) in &out {
            for (i, &g) in idx.iter().enumerate() {
                compiled[g as usize * r..(g as usize + 1) * r]
                    .copy_from_slice(&vals[i * r..(i + 1) * r]);
            }
        }
        let interpreted = mailbox_apply(&plan, &mailbox_apply(&plan, &xblock, r), r);
        // Same per-rank accumulation order per column → identical floats.
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn dot_and_norm_reduce_globally() {
        let (a, p, plan) = setup(30, 5);
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let serial_dot: f64 = x.iter().map(|v| v * v).sum();
        let locals = scatter(&x, &p);
        let locals = parking_lot::Mutex::new(locals);
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let v = std::mem::take(&mut locals.lock()[ctx.rank() as usize]);
            (ctx.dot(&v, &v), ctx.norm2(&v), ctx.max(v.iter().copied().fold(0.0, f64::max)))
        });
        for (dot, norm, max) in out {
            assert!((dot - serial_dot).abs() < 1e-9);
            assert!((norm - serial_dot.sqrt()).abs() < 1e-9);
            assert!((max - 29.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_vec_fuses_multiple_reductions() {
        let (a, p, plan) = setup(16, 4);
        let out = spmd_compute(&a, &p, &plan, |ctx| {
            let r = ctx.rank() as f64;
            ctx.sum_vec(vec![r, 2.0 * r, 1.0])
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
        let mut y = vec![1.0, 2.0];
        RankCtx::axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
        RankCtx::scale(0.5, &mut y);
        assert_eq!(y, vec![10.5, 21.0]);
    }
}
