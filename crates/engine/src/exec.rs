//! Sequential execution of a [`CompiledPlan`] over a reusable
//! [`Workspace`].
//!
//! The workspace owns every buffer an iteration touches — per-rank
//! local `x`/`y` arrays and one staging buffer per communication phase
//! — so the iteration loop performs **zero heap allocation**: seeding,
//! kernels, staged copies and output assembly all write into memory
//! allocated once per (plan, workspace) pair.
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
//! scatter and assembly are format-oblivious — one workspace executes
//! the same plan compiled to any format.

use s2d_obs::Phase;

use crate::compile::{CompiledMsg, CompiledPlan, RankStep, NO_SLOT};
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
    /// Assembled-output carrier for chained iterations.
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

    /// Seeds owned `x` entries and resets the partial sums.
    // manual_memcpy: the `0..r` element loops are deliberate — `r` is
    // const-folded by the `pass::<R>` instantiations, while
    // `copy_from_slice` on a runtime-length region lowers to a per-call
    // `memcpy` (measured ~25% slower per iteration at r = 1).
    #[allow(clippy::manual_memcpy)]
    #[inline(always)]
    fn seed_rank(&self, ws: &mut Workspace, x: &[f64], r: usize, rk: usize) {
        let rp = &self.ranks[rk];
        debug_assert_eq!(ws.x[rk].len(), rp.nx * ws.width, "workspace belongs to a different plan");
        let xloc = &mut ws.x[rk];
        // Element loops, not `copy_from_slice`: the region length
        // `r` is a runtime value, so slice copies lower to per-call
        // `memcpy` — measurably slower at the common small widths.
        for &(g, slot) in &rp.x_seed {
            let (src, dst) = (g as usize * r, slot as usize * r);
            for q in 0..r {
                xloc[dst + q] = x[src + q];
            }
        }
        ws.y[rk][..rp.ny * r].fill(0.0);
    }

    #[inline(always)]
    fn seed(&self, ws: &mut Workspace, x: &[f64], r: usize, obs: Option<&ExecTelemetry>) {
        for rk in 0..self.ranks.len() {
            let t = span_start(obs);
            self.seed_rank(ws, x, r, rk);
            span_end(obs, rk, Phase::Gather, t);
        }
    }

    /// Runs all phases over the workspace buffers.
    #[inline(always)]
    fn run_phases(&self, ws: &mut Workspace, r: usize, obs: Option<&ExecTelemetry>) {
        // Phases in plan order; within a communication phase all sends
        // stage (and drain) before any receive applies, which is the
        // simultaneous-exchange semantics.
        let num_phases = self.ranks.first().map_or(0, |rp| rp.steps.len());
        for p in 0..num_phases {
            let mut is_comm = false;
            for (rk, rp) in self.ranks.iter().enumerate() {
                let t = span_start(obs);
                match &rp.steps[p] {
                    RankStep::Compute(kernel) => {
                        kernel.run_batch(&ws.x[rk], &mut ws.y[rk], r);
                        span_end(obs, rk, Phase::Compute, t);
                    }
                    RankStep::Comm { phase, sends, .. } => {
                        is_comm = true;
                        let staging = &mut ws.staging[*phase as usize];
                        for m in sends {
                            let base = m.offset as usize * r;
                            stage_send(m, &ws.x[rk], &mut ws.y[rk], staging, base, r);
                        }
                        span_end(obs, rk, Phase::Gather, t);
                    }
                }
            }
            if is_comm {
                for (rk, rp) in self.ranks.iter().enumerate() {
                    if let RankStep::Comm { phase, recvs, .. } = &rp.steps[p] {
                        let t = span_start(obs);
                        let staging = &ws.staging[*phase as usize];
                        for m in recvs {
                            let base = m.offset as usize * r;
                            apply_recv(m, &mut ws.x[rk], &mut ws.y[rk], staging, base, r);
                        }
                        span_end(obs, rk, Phase::Scatter, t);
                    }
                }
            }
        }
        if let Some(o) = obs {
            for rk in 0..self.ranks.len() {
                o.bump_iter(rk, r);
            }
        }
    }

    /// Assembles the output from each row's owner slot.
    #[allow(clippy::manual_memcpy)] // see `seed`
    #[inline(always)]
    fn assemble(&self, ws: &Workspace, y: &mut [f64], r: usize) {
        for i in 0..self.nrows {
            let slot = self.y_slot[i];
            let dst = i * r;
            if slot == NO_SLOT {
                for q in 0..r {
                    y[dst + q] = 0.0;
                }
            } else {
                let yloc = &ws.y[self.y_part[i] as usize];
                let src = slot as usize * r;
                for q in 0..r {
                    y[dst + q] = yloc[src + q];
                }
            }
        }
    }

    /// `iters` chained applications: `y = A^iters · x` (power-iteration
    /// shape, no normalization). Requires a square plan for `iters > 1`.
    ///
    /// The workspace's carrier buffer ferries the assembled vector
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
        // Monomorphize the common widths, with telemetry off and on:
        // `pass_impl` is `inline(always)` all the way down, so a
        // constant `r` const-folds the `0..r` block loops in seed /
        // staging / assembly into straight-line code (at r = 1, exactly
        // the pre-batching scalar executor), and a constant `None`
        // folds every span away.
        match (r, obs.is_some()) {
            (1, false) => self.pass::<1, false>(ws, x, y, iters, obs),
            (2, false) => self.pass::<2, false>(ws, x, y, iters, obs),
            (4, false) => self.pass::<4, false>(ws, x, y, iters, obs),
            (8, false) => self.pass::<8, false>(ws, x, y, iters, obs),
            (1, true) => self.pass::<1, true>(ws, x, y, iters, obs),
            (2, true) => self.pass::<2, true>(ws, x, y, iters, obs),
            (4, true) => self.pass::<4, true>(ws, x, y, iters, obs),
            (8, true) => self.pass::<8, true>(ws, x, y, iters, obs),
            _ => self.pass_impl(ws, x, y, r, iters, obs),
        }
        call_end(obs, t, iters);
    }

    fn check_batch(&self, ws: &Workspace, x: &[f64], y: &[f64], r: usize, iters: usize) {
        assert!(iters >= 1, "at least one iteration");
        assert!(r >= 1, "batch width must be at least 1");
        assert_eq!(x.len(), self.ncols * r, "input length mismatch");
        assert_eq!(y.len(), self.nrows * r, "output length mismatch");
        assert_eq!(ws.x.len(), self.k, "workspace belongs to a different plan");
        assert!(ws.width >= r, "workspace width {} cannot hold a batch of {r}", ws.width);
        if iters > 1 {
            assert_eq!(self.nrows, self.ncols, "chained SpMV needs a square plan");
        }
    }

    /// Fixed-width instantiation of the iteration pass; `OBS = false`
    /// hands `pass_impl` a literal `None`.
    fn pass<const R: usize, const OBS: bool>(
        &self,
        ws: &mut Workspace,
        x: &[f64],
        y: &mut [f64],
        iters: usize,
        obs: Option<&ExecTelemetry>,
    ) {
        self.pass_impl(ws, x, y, R, iters, if OBS { obs } else { None });
    }

    /// The one pass body; callers provide `r` and `obs` as literal
    /// constants (via [`CompiledPlan::pass`]) or as runtime values.
    /// Whole-output assembly is recorded under rank 0.
    #[inline(always)]
    fn pass_impl(
        &self,
        ws: &mut Workspace,
        x: &[f64],
        y: &mut [f64],
        r: usize,
        iters: usize,
        obs: Option<&ExecTelemetry>,
    ) {
        let mut carrier = std::mem::take(&mut ws.carrier);
        self.seed(ws, x, r, obs);
        self.run_phases(ws, r, obs);
        for _ in 1..iters {
            let t = span_start(obs);
            self.assemble(ws, &mut carrier[..self.nrows * r], r);
            span_end(obs, 0, Phase::Scatter, t);
            self.seed(ws, &carrier[..self.nrows * r], r, obs);
            self.run_phases(ws, r, obs);
        }
        let t = span_start(obs);
        self.assemble(ws, y, r);
        span_end(obs, 0, Phase::Scatter, t);
        ws.carrier = carrier;
    }
}

/// Copies a send's `x` gather and `y` drain into the message's region
/// of `staging`, starting at word `base` (`r` consecutive words per
/// listed slot). The in-place executor passes the phase staging buffer
/// and `m.offset * r`; the endpoint walker a per-message payload and 0.
#[allow(clippy::manual_memcpy)] // see `CompiledPlan::seed`
#[inline(always)]
pub(crate) fn stage_send(
    m: &CompiledMsg,
    x: &[f64],
    y: &mut [f64],
    staging: &mut [f64],
    base: usize,
    r: usize,
) {
    let mut w = base;
    for &slot in &m.x_idx {
        let s = slot as usize * r;
        for q in 0..r {
            staging[w + q] = x[s + q];
        }
        w += r;
    }
    for &slot in &m.y_idx {
        let s = slot as usize * r;
        for q in 0..r {
            staging[w + q] = y[s + q];
            y[s + q] = 0.0; // moved, not copied
        }
        w += r;
    }
}

/// Applies a receive's region of `staging` (see [`stage_send`] for
/// `base`): overwrite `x`, accumulate `y`.
#[allow(clippy::manual_memcpy)] // see `CompiledPlan::seed`
#[inline(always)]
pub(crate) fn apply_recv(
    m: &CompiledMsg,
    x: &mut [f64],
    y: &mut [f64],
    staging: &[f64],
    base: usize,
    r: usize,
) {
    let mut w = base;
    for &slot in &m.x_idx {
        let s = slot as usize * r;
        for q in 0..r {
            x[s + q] = staging[w + q];
        }
        w += r;
    }
    for &slot in &m.y_idx {
        let s = slot as usize * r;
        for q in 0..r {
            y[s + q] += staging[w + q];
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
