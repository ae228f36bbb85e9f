//! The phase-walk body every shared-memory driver runs, the
//! `Transport` seam it runs over, and the in-place transport over a
//! reusable [`Workspace`].
//!
//! One iteration of a [`CompiledPlan`] is written **once**, in
//! `phase_walk`: seed owned `x` and clear `y` → per phase, run compute
//! chunks or stage sends / apply receives in the compiled `recvs` order
//! → emit owned rows → optionally re-seed for chained iterations. What
//! differs between drivers is only *whose* ranks and chunks a
//! participant runs, how a buffer range is reached and who waits at a
//! barrier — that is the crate-private `Transport` trait, with exactly
//! two implementations:
//!
//! * `InPlace` (here): one participant owning all `K` ranks over the
//!   plain `Vec<f64>` buffers of a `&mut Workspace`, every kernel run
//!   whole in rank order, and a `sync` that is a literal `false` — so
//!   barriers, atomics and barrier-wait spans const-fold out of the
//!   sequential path;
//! * the pool worker (`pool.rs`): a contiguous rank range, a baked
//!   chunk bucket, range views over shared buffers, a spin barrier.
//!
//! The endpoint walker ([`RankProgram::spmv_over`](crate::RankProgram))
//! is the only other place compiled steps execute; it shares
//! `stage_send` / `apply_recv` with the body.
//!
//! The workspace owns every buffer an in-place iteration touches —
//! per-rank local `x`/`y` arrays and one staging buffer per
//! communication phase — so the iteration loop performs **zero heap
//! allocation**: seeding, kernels, staged copies and the emit all write
//! into memory allocated once per (plan, workspace) pair.
//!
//! # Batched (multi-RHS) layout
//!
//! A workspace is allocated for a batch width `r` (1 for the classic
//! single-vector case). All vectors are **row-major blocks**: global
//! index `g` of an `r`-column input `X` occupies `x[g*r .. (g+1)*r]`,
//! local slot `s` occupies `buf[s*r .. (s+1)*r]`, and each message's
//! staging region scales from `len` words to `len × r` words (offset
//! `m.offset * r`). One batched iteration walks every matrix entry and
//! every gather/scatter list once and moves `r` words per touch — the
//! register/cache reuse that makes block SpMV cheaper than `r`
//! single-vector passes.
//!
//! # Kernel formats and workspace sizing
//!
//! Workspace buffers are sized by the rank's *logical* footprint
//! (`nx`/`ny` local slots × batch width) regardless of the plan's
//! [`KernelFormat`](crate::formats::KernelFormat): padded layouts
//! (SELL chunk fill, whole padding lanes) live inside the kernel's own
//! value/column arrays and reference existing local slots, so seeding,
//! scatter and the emit are format-oblivious — one workspace executes
//! the same plan compiled to any format.

use std::ops::Range;

use s2d_obs::Phase;

use crate::compile::{CompiledMsg, CompiledPlan, RankStep};
use crate::telemetry::{call_end, span_end, span_start, ExecTelemetry};

/// Preallocated buffers for executing one [`CompiledPlan`] at batch
/// widths up to the allocated `width`.
///
/// A workspace is tied to the layout of the plan that created it;
/// executing a different plan through it panics on a size check.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// Batch capacity the buffers were sized for.
    pub(crate) width: usize,
    /// Per-rank local `x` blocks (`nx × width` words each).
    pub(crate) x: Vec<Vec<f64>>,
    /// Per-rank local `y` blocks (`ny × width` words each).
    pub(crate) y: Vec<Vec<f64>>,
    /// One staging buffer per communication phase (`words × width`).
    pub(crate) staging: Vec<Vec<f64>>,
    /// Emitted-output carrier for chained iterations.
    pub(crate) carrier: Vec<f64>,
}

impl Workspace {
    /// Allocates a single-RHS workspace sized for `plan`.
    pub fn for_plan(plan: &CompiledPlan) -> Workspace {
        Workspace::for_plan_batch(plan, 1)
    }

    /// Allocates a workspace able to run batches of up to `width`
    /// right-hand sides through `plan`.
    pub fn for_plan_batch(plan: &CompiledPlan, width: usize) -> Workspace {
        assert!(width >= 1, "batch width must be at least 1");
        Workspace {
            width,
            x: plan.ranks.iter().map(|r| vec![0.0; r.nx * width]).collect(),
            y: plan.ranks.iter().map(|r| vec![0.0; r.ny * width]).collect(),
            staging: plan.staging_words.iter().map(|&w| vec![0.0; w * width]).collect(),
            carrier: vec![0.0; plan.nrows * width],
        }
    }

    /// The batch capacity this workspace was allocated for.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// A buffer the body takes per-message or per-row sub-ranges of: a
/// plain slice in place, the pool's shared buffer on a worker.
pub(crate) trait Region {
    /// Words `lo..lo + len`, exclusively; panics when out of bounds.
    fn region_mut(&mut self, lo: usize, len: usize) -> &mut [f64];
}

impl Region for &mut [f64] {
    #[inline(always)]
    fn region_mut(&mut self, lo: usize, len: usize) -> &mut [f64] {
        &mut self[lo..lo + len]
    }
}

/// What the phase-walk body needs from the memory it runs over: which
/// ranks and compute chunks this participant runs, views of the buffers
/// one step touches, and the barrier between steps. Every view method
/// returns all the buffers of one rank's step at once, so the body
/// holds them side by side (and in registers across the step's inner
/// loop) without re-borrowing the transport. Rank-local `x` / `y` views
/// cover at least the first `nx × r` / `ny × r` words.
pub(crate) trait Transport {
    /// A buffer shared between ranks: a comm phase's staging buffer,
    /// the block an iteration emits into.
    type Buf<'a>: Region
    where
        Self: 'a;

    /// The ranks this participant seeds, stages, applies and emits for.
    fn ranks(&self) -> Range<usize>;

    /// Barrier among the participants, recorded as a barrier-wait span
    /// when `obs` is attached. `true` means a peer died: the caller
    /// must return without touching any buffer again.
    fn sync(&mut self, obs: Option<&ExecTelemetry>) -> bool;

    /// Seeding view of owned rank `rk`: the global block to seed from
    /// (the job input on the `first` iteration, the emitted block of
    /// the previous iteration after), then the rank's `x` and `y`.
    fn seed(&mut self, rk: usize, first: bool) -> (&[f64], &mut [f64], &mut [f64]);

    /// The `i`-th compute chunk of phase `p` this participant runs, or
    /// `None` past the last: its rank, its kernel-unit range (the body
    /// clamps the end to the kernel's unit count, so `0..usize::MAX` is
    /// the whole kernel), the rank's `x` and the `y` its units write.
    fn chunk(&mut self, p: usize, i: usize) -> Option<(usize, Range<usize>, &[f64], &mut [f64])>;

    /// Comm view of owned rank `rk`, for staging its sends or applying
    /// its receives: its `x`, its `y`, and comm phase `ph`'s staging
    /// buffer, of which each message has its own region.
    fn comm(&mut self, rk: usize, ph: usize) -> (&mut [f64], &mut [f64], Self::Buf<'_>);

    /// Emit view of owned rank `rk`: its `y`, and the block this
    /// iteration emits its owned rows into (`last` = the job's final
    /// iteration).
    fn emit(&mut self, rk: usize, last: bool) -> (&[f64], Self::Buf<'_>);
}

/// The in-place transport: one participant, all ranks, plain vectors.
/// Non-final iterations emit into the workspace carrier, the final one
/// straight into the caller's `y`.
struct InPlace<'a> {
    ws: &'a mut Workspace,
    x: &'a [f64],
    y: &'a mut [f64],
}

impl Transport for InPlace<'_> {
    type Buf<'a>
        = &'a mut [f64]
    where
        Self: 'a;

    #[inline(always)]
    fn ranks(&self) -> Range<usize> {
        0..self.ws.x.len()
    }

    #[inline(always)]
    fn sync(&mut self, _obs: Option<&ExecTelemetry>) -> bool {
        false
    }

    #[inline(always)]
    fn seed(&mut self, rk: usize, first: bool) -> (&[f64], &mut [f64], &mut [f64]) {
        let src = if first { self.x } else { &self.ws.carrier };
        (src, &mut self.ws.x[rk], &mut self.ws.y[rk])
    }

    #[inline(always)]
    fn chunk(&mut self, _p: usize, i: usize) -> Option<(usize, Range<usize>, &[f64], &mut [f64])> {
        let ws = &mut *self.ws;
        (i < ws.x.len()).then(|| (i, 0..usize::MAX, &ws.x[i][..], &mut ws.y[i][..]))
    }

    #[inline(always)]
    fn comm(&mut self, rk: usize, ph: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (&mut self.ws.x[rk], &mut self.ws.y[rk], &mut self.ws.staging[ph])
    }

    #[inline(always)]
    fn emit(&mut self, rk: usize, last: bool) -> (&[f64], &mut [f64]) {
        (&self.ws.y[rk], if last { &mut *self.y } else { &mut self.ws.carrier })
    }
}

impl CompiledPlan {
    /// Allocates a single-RHS [`Workspace`] for this plan.
    pub fn workspace(&self) -> Workspace {
        Workspace::for_plan(self)
    }

    /// Allocates a [`Workspace`] for batches of up to `width` RHS.
    pub fn workspace_batch(&self, width: usize) -> Workspace {
        Workspace::for_plan_batch(self, width)
    }

    /// Executes one SpMV: `y = A·x`, sequentially, through `ws`.
    ///
    /// Matches `execute_mailbox` exactly (same accumulation order), at
    /// flat-array speed and with no allocation.
    ///
    /// # Panics
    /// Panics if `x`/`y` lengths don't match the plan or `ws` was built
    /// for a different plan.
    pub fn execute(&self, ws: &mut Workspace, x: &[f64], y: &mut [f64]) {
        self.execute_batch(ws, x, y, 1);
    }

    /// Executes one batched SpMV: `Y = A·X` for `r` right-hand sides.
    ///
    /// `x` is row-major `ncols × r`, `y` row-major `nrows × r` (column
    /// `q` of global index `g` lives at `g*r + q`). Per column the
    /// result is bitwise identical to `r` single-RHS executions — the
    /// accumulation order per (row, column) pair is unchanged; only the
    /// traversal is shared.
    ///
    /// # Panics
    /// Panics if `x`/`y` lengths don't match `r` copies of the plan's
    /// dimensions, or `ws` was allocated for a smaller width.
    pub fn execute_batch(&self, ws: &mut Workspace, x: &[f64], y: &mut [f64], r: usize) {
        self.execute_batch_iters(ws, x, y, r, 1);
    }

    /// `iters` chained applications: `y = A^iters · x` (power-iteration
    /// shape, no normalization). Requires a square plan for `iters > 1`.
    ///
    /// The workspace's carrier buffer ferries the emitted vector
    /// between iterations; zero allocation beyond the workspace.
    pub fn execute_iters(&self, ws: &mut Workspace, x: &[f64], y: &mut [f64], iters: usize) {
        self.execute_batch_iters(ws, x, y, 1, iters);
    }

    /// `iters` chained batched applications: `Y = A^iters · X` over `r`
    /// right-hand sides at once.
    pub fn execute_batch_iters(
        &self,
        ws: &mut Workspace,
        x: &[f64],
        y: &mut [f64],
        r: usize,
        iters: usize,
    ) {
        self.execute_batch_iters_obs(ws, x, y, r, iters, None);
    }

    /// [`CompiledPlan::execute_batch_iters`] with optional telemetry:
    /// with a sink attached, per-rank phase spans and work counters are
    /// recorded along the way (see the `telemetry` module docs for the
    /// phase attribution). The numeric path is the same code either way
    /// — results are bitwise identical with and without a sink.
    pub fn execute_batch_iters_obs(
        &self,
        ws: &mut Workspace,
        x: &[f64],
        y: &mut [f64],
        r: usize,
        iters: usize,
        obs: Option<&ExecTelemetry>,
    ) {
        self.check_batch(ws, x, y, r, iters);
        let t = span_start(obs);
        walk(self, &mut InPlace { ws, x, y }, r, iters, obs);
        call_end(obs, t, iters);
    }

    fn check_batch(&self, ws: &Workspace, x: &[f64], y: &[f64], r: usize, iters: usize) {
        assert!(iters >= 1, "at least one iteration");
        assert!(r >= 1, "batch width must be at least 1");
        assert_eq!(x.len(), self.ncols * r, "input length mismatch");
        assert_eq!(y.len(), self.nrows * r, "output length mismatch");
        assert_eq!(ws.x.len(), self.k, "workspace belongs to a different plan");
        debug_assert!(
            self.ranks.iter().zip(&ws.x).all(|(rp, x)| x.len() == rp.nx * ws.width),
            "workspace belongs to a different plan"
        );
        assert!(ws.width >= r, "workspace width {} cannot hold a batch of {r}", ws.width);
        if iters > 1 {
            assert_eq!(self.nrows, self.ncols, "chained SpMV needs a square plan");
        }
    }
}

/// Runs `iters` chained iterations of `plan` at batch width `r` as the
/// participant `t`. Monomorphizes the common widths, with telemetry off
/// and on: `phase_walk` is `inline(always)` all the way down, so a
/// constant `r` const-folds the `0..r` block loops in seeding, staging
/// and the emit into straight-line code (at r = 1, exactly a scalar
/// executor), and a constant `None` folds every span away.
pub(crate) fn walk<T: Transport>(
    plan: &CompiledPlan,
    t: &mut T,
    r: usize,
    iters: usize,
    obs: Option<&ExecTelemetry>,
) {
    match r {
        1 => walk_fixed::<T, 1>(plan, t, iters, obs),
        2 => walk_fixed::<T, 2>(plan, t, iters, obs),
        4 => walk_fixed::<T, 4>(plan, t, iters, obs),
        8 => walk_fixed::<T, 8>(plan, t, iters, obs),
        _ => phase_walk(plan, t, r, iters, obs),
    }
}

/// Fixed-width instantiations of the body, one per telemetry state (the
/// off one gets a literal `None`).
fn walk_fixed<T: Transport, const R: usize>(
    plan: &CompiledPlan,
    t: &mut T,
    iters: usize,
    obs: Option<&ExecTelemetry>,
) {
    match obs {
        Some(_) => phase_walk(plan, t, R, iters, obs),
        None => phase_walk(plan, t, R, iters, None),
    }
}

/// The one phase-walk body: participant `t`'s share of `iters` chained
/// iterations. Within a communication phase all sends stage (and
/// drain) before any receive applies — the simultaneous-exchange
/// semantics — and every handoff between participants crosses
/// `t.sync`: seed → compute (chunks read `x` and write `y` other
/// participants seeded), compute → stage, stage → apply, apply → the
/// next writer of the staging buffer, emit → re-seed.
// manual_memcpy: the `0..r` element loops are deliberate — `r` is
// const-folded by the `walk_fixed::<R>` instantiations, while
// `copy_from_slice` on a runtime-length region lowers to a per-call
// `memcpy` (measured ~25% slower per iteration at r = 1).
#[allow(clippy::manual_memcpy)]
#[inline(always)]
fn phase_walk<T: Transport>(
    plan: &CompiledPlan,
    t: &mut T,
    r: usize,
    iters: usize,
    obs: Option<&ExecTelemetry>,
) {
    let my = t.ranks();
    let num_phases = plan.ranks.first().map_or(0, |rp| rp.steps.len());
    for it in 0..iters {
        for rk in my.clone() {
            let ts = span_start(obs);
            let rp = &plan.ranks[rk];
            let (src, x, y) = t.seed(rk, it == 0);
            for &(g, slot) in &rp.x_seed {
                let (s, d) = (g as usize * r, slot as usize * r);
                for q in 0..r {
                    x[d + q] = src[s + q];
                }
            }
            y[..rp.ny * r].fill(0.0);
            span_end(obs, rk, Phase::Gather, ts);
        }
        if t.sync(obs) {
            return;
        }
        for p in 0..num_phases {
            // Step kinds agree across ranks at a phase index.
            if matches!(plan.ranks[my.start].steps[p], RankStep::Compute(_)) {
                let mut i = 0;
                while let Some((rk, units, x, y)) = t.chunk(p, i) {
                    let ts = span_start(obs);
                    if let RankStep::Compute(kernel) = &plan.ranks[rk].steps[p] {
                        kernel.run_batch_range(x, y, r, units.start, units.end.min(kernel.units()));
                    }
                    span_end(obs, rk, Phase::Compute, ts);
                    i += 1;
                }
                if t.sync(obs) {
                    return;
                }
                continue;
            }
            for rk in my.clone() {
                if let RankStep::Comm { phase, sends, .. } = &plan.ranks[rk].steps[p] {
                    let ts = span_start(obs);
                    let (x, y, mut staging) = t.comm(rk, *phase as usize);
                    for m in sends {
                        let region = staging.region_mut(m.offset as usize * r, m.words() * r);
                        stage_send(m, x, y, region, r);
                    }
                    span_end(obs, rk, Phase::Gather, ts);
                }
            }
            if t.sync(obs) {
                return;
            }
            for rk in my.clone() {
                if let RankStep::Comm { phase, recvs, .. } = &plan.ranks[rk].steps[p] {
                    let ts = span_start(obs);
                    let (x, y, mut staging) = t.comm(rk, *phase as usize);
                    for m in recvs {
                        let region = staging.region_mut(m.offset as usize * r, m.words() * r);
                        apply_recv(m, x, y, region, r);
                    }
                    span_end(obs, rk, Phase::Scatter, ts);
                }
            }
            if t.sync(obs) {
                return;
            }
        }
        // Owned rows that materialize copy out of `y`; owned rows that
        // never do are written as 0.0 at this job's stride (a previous
        // job of another width may have left stale words there).
        let last = it + 1 == iters;
        for rk in my.clone() {
            let ts = span_start(obs);
            let rp = &plan.ranks[rk];
            let (y, mut out) = t.emit(rk, last);
            for &(g, slot) in &rp.y_emit {
                let (row, s) = (out.region_mut(g as usize * r, r), slot as usize * r);
                for q in 0..r {
                    row[q] = y[s + q];
                }
            }
            for &g in &rp.y_zero {
                out.region_mut(g as usize * r, r).fill(0.0);
            }
            span_end(obs, rk, Phase::Scatter, ts);
            if let Some(o) = obs {
                o.bump_iter(rk, r);
            }
        }
        if !last && t.sync(obs) {
            return;
        }
    }
}

/// Copies a send's `x` gather and `y` drain into `region`, the
/// message's own staging region or payload (`r` consecutive words per
/// listed slot).
#[allow(clippy::manual_memcpy)] // see `phase_walk`
#[inline(always)]
pub(crate) fn stage_send(m: &CompiledMsg, x: &[f64], y: &mut [f64], region: &mut [f64], r: usize) {
    let mut w = 0;
    for &slot in &m.x_idx {
        let s = slot as usize * r;
        for q in 0..r {
            region[w + q] = x[s + q];
        }
        w += r;
    }
    for &slot in &m.y_idx {
        let s = slot as usize * r;
        for q in 0..r {
            region[w + q] = y[s + q];
            y[s + q] = 0.0; // moved, not copied
        }
        w += r;
    }
}

/// Applies a receive's `region` (see [`stage_send`]): overwrite `x`,
/// accumulate `y`.
#[allow(clippy::manual_memcpy)] // see `phase_walk`
#[inline(always)]
pub(crate) fn apply_recv(m: &CompiledMsg, x: &mut [f64], y: &mut [f64], region: &[f64], r: usize) {
    let mut w = 0;
    for &slot in &m.x_idx {
        let s = slot as usize * r;
        for q in 0..r {
            x[s + q] = region[w + q];
        }
        w += r;
    }
    for &slot in &m.y_idx {
        let s = slot as usize * r;
        for q in 0..r {
            y[s + q] += region[w + q];
        }
        w += r;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_spmv::SpmvPlan;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    #[test]
    fn all_plan_kinds_match_mailbox_on_fig1() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64) * 0.5 - 3.0).collect();
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
            SpmvPlan::mesh(&a, &p, 1, 3),
        ] {
            let cp = CompiledPlan::compile(&plan);
            let mut ws = cp.workspace();
            let mut y = vec![0.0; a.nrows()];
            cp.execute(&mut ws, &x, &mut y);
            assert_close(&y, &plan.execute_mailbox(&x));
        }
    }

    #[test]
    fn compiled_matches_mailbox_bit_for_bit_on_fig1() {
        // Same accumulation order → identical floating point, not just
        // within tolerance.
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| 1.0 / (j as f64 + 1.0)).collect();
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        let mut ws = cp.workspace();
        let mut y = vec![0.0; a.nrows()];
        cp.execute(&mut ws, &x, &mut y);
        assert_eq!(y, plan.execute_mailbox(&x));
    }

    #[test]
    fn workspace_is_reusable_across_inputs() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        let mut ws = cp.workspace();
        let mut y = vec![0.0; a.nrows()];
        for seed in 0..5 {
            let x: Vec<f64> = (0..a.ncols()).map(|j| ((j + seed) % 7) as f64 - 3.0).collect();
            cp.execute(&mut ws, &x, &mut y);
            assert_close(&y, &a.spmv_alloc(&x));
        }
    }

    /// Square tridiagonal system with a symmetric block partition
    /// (chained iterations need nrows == ncols).
    pub(crate) fn square_setup(n: usize, k: usize) -> (s2d_sparse::Csr, SpmvPlan) {
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let mut m = Coo::new(n, n);
        for i in 0..n {
            m.push(i, i, 2.0);
            if i + 1 < n {
                m.push(i, i + 1, -1.0);
                m.push(i + 1, i, -1.0);
            }
        }
        m.compress();
        let a = m.to_csr();
        let per = n.div_ceil(k);
        let part: Vec<u32> = (0..n).map(|i| (i / per) as u32).collect();
        let p = SpmvPartition::rowwise(&a, part.clone(), part, k);
        let plan = SpmvPlan::single_phase(&a, &p);
        (a, plan)
    }

    #[test]
    fn execute_iters_chains_applications() {
        let (a, plan) = square_setup(12, 3);
        let cp = CompiledPlan::compile(&plan);
        let mut ws = cp.workspace();
        let x: Vec<f64> = (0..a.ncols()).map(|j| (j as f64).cos()).collect();
        let mut y = vec![0.0; a.nrows()];
        cp.execute_iters(&mut ws, &x, &mut y, 3);
        let want = a.spmv_alloc(&a.spmv_alloc(&a.spmv_alloc(&x)));
        assert_close(&y, &want);
    }

    #[test]
    fn empty_rows_assemble_to_zero() {
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let a = Coo::from_pattern(3, 3, &[(0, 0)]).to_csr();
        let p = SpmvPartition::rowwise(&a, vec![0, 1, 1], vec![0, 0, 1], 2);
        let plan = SpmvPlan::single_phase(&a, &p);
        let cp = CompiledPlan::compile(&plan);
        let mut ws = cp.workspace();
        let mut y = vec![9.0; 3];
        cp.execute(&mut ws, &[2.0, 3.0, 4.0], &mut y);
        assert_eq!(y, vec![2.0, 0.0, 0.0]);
    }

    #[test]
    fn mixed_width_jobs_do_not_leak_stale_words() {
        // Row 1 is empty (never materialized, `y_zero`) and column 1
        // feeds row 2: a chained job re-seeds x1 from a carrier word
        // the emit must have zeroed at *this* job's stride — a wider
        // earlier job left row 0's words there.
        use crate::pool::{ParallelEngine, PoolOptions};
        use s2d_core::partition::SpmvPartition;
        use s2d_sparse::Coo;
        let mut m = Coo::new(4, 4);
        m.push(0, 0, 2.0);
        m.push(2, 1, 3.0);
        m.push(3, 3, 4.0);
        m.compress();
        let a = m.to_csr();
        let parts = vec![0, 0, 1, 1];
        let p = SpmvPartition::rowwise(&a, parts.clone(), parts, 2);
        let cp = CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p));
        assert_eq!(cp.ranks[0].y_zero, vec![1]);
        let mut ws = cp.workspace_batch(8);
        let mut pool = ParallelEngine::with_options(
            cp.clone(),
            PoolOptions { threads: 2, width: 8, ..PoolOptions::default() },
        );
        for iters in [1usize, 3] {
            for r in [8usize, 3, 1] {
                let x = batch_input(4, r, 1);
                let mut got = vec![9.0; 4 * r];
                cp.execute_batch_iters(&mut ws, &x, &mut got, r, iters);
                let mut fresh = vec![9.0; 4 * r];
                cp.execute_batch_iters(&mut cp.workspace_batch(r), &x, &mut fresh, r, iters);
                assert_eq!(got, fresh, "r={r} iters={iters}: reused vs fresh workspace");
                let mut pooled = vec![9.0; 4 * r];
                pool.execute_batch_iters(&x, &mut pooled, r, iters);
                assert_eq!(got, pooled, "r={r} iters={iters}: in place vs pool");
            }
        }
    }

    /// Row-major `n × r` batch whose column `q` is a deterministic
    /// irregular vector (column 0 equals `base` when provided).
    pub(crate) fn batch_input(n: usize, r: usize, seed: u64) -> Vec<f64> {
        (0..n * r)
            .map(|i| {
                let (g, q) = (i / r, i % r);
                ((g as u64).wrapping_mul(2654435761).wrapping_add(q as u64 * 977 + seed) % 211)
                    as f64
                    / 17.0
                    - 5.0
            })
            .collect()
    }

    /// Column `q` of a row-major `n × r` block.
    pub(crate) fn column(block: &[f64], n: usize, r: usize, q: usize) -> Vec<f64> {
        (0..n).map(|g| block[g * r + q]).collect()
    }

    #[test]
    fn every_kernel_format_matches_csr_bitwise_on_fig1() {
        use crate::formats::KernelFormat;
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| 1.0 / (j as f64 + 1.0)).collect();
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
        ] {
            let mut want = vec![0.0; a.nrows()];
            let csr = CompiledPlan::compile(&plan);
            csr.execute(&mut csr.workspace(), &x, &mut want);
            for format in KernelFormat::all() {
                let cp = CompiledPlan::compile_with(&plan, format);
                assert_eq!(cp.format, format);
                assert_eq!(cp.total_ops(), csr.total_ops(), "{format}: ops format-invariant");
                for r in [1usize, 3, 8] {
                    let xb = batch_input(a.ncols(), r, 5);
                    let mut got = vec![0.0; a.nrows() * r];
                    cp.execute_batch(&mut cp.workspace_batch(r), &xb, &mut got, r);
                    let mut wb = vec![0.0; a.nrows() * r];
                    csr.execute_batch(&mut csr.workspace_batch(r), &xb, &mut wb, r);
                    assert_eq!(got, wb, "{format} r={r} must match CSR bitwise");
                }
            }
        }
    }

    #[test]
    fn batched_columns_match_single_rhs_bitwise() {
        let a = fig1_matrix();
        let p = fig1_partition();
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
        ] {
            let cp = CompiledPlan::compile(&plan);
            for r in [1usize, 2, 3, 4, 5, 8] {
                let x = batch_input(a.ncols(), r, 7);
                let mut ws = cp.workspace_batch(r);
                let mut y = vec![0.0; a.nrows() * r];
                cp.execute_batch(&mut ws, &x, &mut y, r);
                let mut ws1 = cp.workspace();
                for q in 0..r {
                    let xq = column(&x, a.ncols(), r, q);
                    let mut yq = vec![0.0; a.nrows()];
                    cp.execute(&mut ws1, &xq, &mut yq);
                    assert_eq!(column(&y, a.nrows(), r, q), yq, "r={r} column {q}");
                }
            }
        }
    }

    #[test]
    fn batched_iters_chain_like_single_rhs() {
        let (a, plan) = square_setup(18, 4);
        let cp = CompiledPlan::compile(&plan);
        let r = 3;
        let x = batch_input(a.ncols(), r, 11);
        let mut ws = cp.workspace_batch(r);
        let mut y = vec![0.0; a.nrows() * r];
        cp.execute_batch_iters(&mut ws, &x, &mut y, r, 3);
        for q in 0..r {
            let xq = column(&x, a.ncols(), r, q);
            let want = a.spmv_alloc(&a.spmv_alloc(&a.spmv_alloc(&xq)));
            assert_close(&column(&y, a.nrows(), r, q), &want);
        }
    }

    #[test]
    fn oversized_workspace_accepts_smaller_batches() {
        let (a, plan) = square_setup(10, 2);
        let cp = CompiledPlan::compile(&plan);
        let mut ws = cp.workspace_batch(8);
        for r in [1usize, 2, 5, 8] {
            let x = batch_input(a.ncols(), r, 3);
            let mut y = vec![0.0; a.nrows() * r];
            cp.execute_batch(&mut ws, &x, &mut y, r);
            for q in 0..r {
                let xq = column(&x, a.ncols(), r, q);
                assert_close(&column(&y, a.nrows(), r, q), &a.spmv_alloc(&xq));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold a batch")]
    fn undersized_workspace_is_rejected() {
        let (a, plan) = square_setup(10, 2);
        let cp = CompiledPlan::compile(&plan);
        let mut ws = cp.workspace_batch(2);
        let x = batch_input(a.ncols(), 4, 3);
        let mut y = vec![0.0; a.nrows() * 4];
        cp.execute_batch(&mut ws, &x, &mut y, 4);
    }
}
