//! The message-passing driver: compiled [`RankProgram`]s walked over
//! `s2d-runtime` endpoints, one rank per OS thread.
//!
//! [`RankProgram::spmv_over`] is the **one** endpoint walker in the
//! workspace. [`EndpointOperator`] drives it for whole-plan execution
//! ([`Backend::Threaded`](crate::Backend), rank-sharded serving
//! sessions), and `s2d-solver`'s SPMD `pagerank` calls it per rank
//! inside its solver loop. A rank that panics fails the whole apply
//! (the runtime's `spmd` re-raises its panic) instead of leaving its
//! peers waiting on a message.
//!
//! Every message is tagged `tag0 + phase` and received with a targeted
//! `recv_match(peer, tag)` in the compiled `recvs` order. Two
//! properties follow by construction:
//!
//! * **no phase cross-talk** — a fast rank's phase-2 message cannot be
//!   consumed by a peer still in phase 1 (the runtime parks early
//!   arrivals until their envelope is asked for), which is what mesh
//!   plans that forward partial sums between consecutive communication
//!   phases need;
//! * **bitwise determinism under any delivery interleaving** — the
//!   fold order of partial sums is the plan's `recvs` order, never the
//!   arrival order, and that is the same order the pool applies at
//!   every team size. A chaos-delayed run, a quiet run and
//!   a [`Backend::CompiledSeq`](crate::Backend) run of the same
//!   compiled plan produce the same bits, at every batch width.
//!
//! Plan errors (a rank reading an `x` it never holds, draining a
//! partial it never accumulated) cannot surface here: the compiler
//! rejects them in [`CompiledPlan::compile`](crate::CompiledPlan).

use std::sync::{Arc, Mutex};

use s2d_obs::{Phase, TelemetrySink};
use s2d_runtime::{spmd, ChaosConfig, Cluster, Endpoint, Tag};
use s2d_spmv::SpmvOperator;

use crate::compile::{CompiledPlan, RankProgram, RankStep};
use crate::telemetry::{call_end, span_end, span_start, ExecTelemetry};

/// Message payload: the message's `x` words then its partial-`y` words,
/// `r` per listed index.
pub type Payload = Vec<f64>;

/// Encodes a send: the `x` words at the message's `homes`, then the
/// `y` words of the `slots` it drains. A drained slot is dead — nothing
/// reads it again — so it is copied, not cleared.
fn stage_send((homes, slots): (&[u32], &[u32]), x: &[f64], y: &[f64], r: usize) -> Payload {
    let mut payload = Vec::with_capacity((homes.len() + slots.len()) * r);
    payload.extend(homes.iter().flat_map(|&h| &x[h as usize * r..][..r]));
    payload.extend(slots.iter().flat_map(|&s| &y[s as usize * r..][..r]));
    payload
}

/// Decodes a received `payload` (see [`stage_send`]): overwrite `x` at
/// the message's `homes`, accumulate into its `y` `slots`.
fn apply_recv(lists: (&[u32], &[u32]), x: &mut [f64], y: &mut [f64], payload: &[f64], r: usize) {
    let (homes, slots) = lists;
    let (xs, ys) = payload.split_at(homes.len() * r);
    for (&h, words) in homes.iter().zip(xs.chunks_exact(r)) {
        x[h as usize * r..][..r].copy_from_slice(words);
    }
    for (&s, words) in slots.iter().zip(ys.chunks_exact(r)) {
        for (acc, w) in y[s as usize * r..][..r].iter_mut().zip(words) {
            *acc += w;
        }
    }
}

/// One rank's state for [`RankProgram::spmv_over`]: its private image
/// of the `x` home space and its `y` block (grown on first use of a
/// wider batch) plus the index maps tying them to the caller's vectors.
pub struct RankLocal {
    /// Size of the `x` home space (the plan's `ncols`).
    nx: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    /// `(index into the caller's input, x home)` seeding pairs.
    seed: Vec<(u32, u32)>,
    /// `(index into the caller's output, local y slot)` copy-out pairs;
    /// output entries no pair names are written as 0.
    emit: Vec<(u32, u32)>,
}

impl RankLocal {
    /// State for a rank of a plan with `nx` columns whose caller
    /// indexes its input by `seed` and its output by `emit` (see the
    /// field docs). Homes must lie below `nx`, slots inside the `y`
    /// block, indices inside the vectors later passed to `spmv_over`.
    pub fn new(nx: usize, seed: Vec<(u32, u32)>, emit: Vec<(u32, u32)>) -> RankLocal {
        RankLocal { nx, x: Vec::new(), y: Vec::new(), seed, emit }
    }
}

impl RankProgram {
    /// Executes this rank's share of one batched SpMV over `ep`: seed
    /// the owned entries of the private `x` image from `v`, walk the
    /// steps (the plan's kernels on image and `y` block; sends encoded
    /// and posted, then receives decoded in `recvs` order — expand words
    /// land in the image at their homes), copy the emitted rows out to
    /// `out` (fully overwritten). `v` and
    /// `out` are row-major blocks of width `r`; every message of
    /// communication phase `p` travels under tag `tag0 + p`, so callers
    /// sharing the endpoint with other traffic reserve one tag per
    /// communication phase. Every rank of the plan must make the
    /// matching call.
    ///
    /// Payload vectors are the only per-call allocations (they move
    /// into the runtime's channels). With `obs` attached, spans are
    /// recorded under `ep.rank()`: seeding and send staging as gather,
    /// kernels as compute, receive application and copy-out as scatter.
    #[allow(clippy::too_many_arguments)]
    pub fn spmv_over(
        &self,
        ep: &mut Endpoint<Payload>,
        local: &mut RankLocal,
        v: &[f64],
        out: &mut [f64],
        r: usize,
        tag0: Tag,
        obs: Option<&ExecTelemetry>,
    ) {
        let rk = ep.rank() as usize;
        let RankLocal { nx, x, y, seed, emit } = local;
        let t = span_start(obs);
        // Grow only: stride-r addressing ignores any excess tail from a
        // wider earlier batch.
        x.resize(x.len().max(*nx * r), 0.0);
        y.resize(y.len().max(self.ny * r), 0.0);
        // Debug builds forget the previous call's image first: a kernel
        // reading a word no message delivered must not pass a bitwise
        // suite on a stale copy of the right number.
        if cfg!(debug_assertions) {
            x.fill(f64::NAN);
        }
        for &(i, home) in seed.iter() {
            let (src, dst) = (i as usize * r, home as usize * r);
            x[dst..dst + r].copy_from_slice(&v[src..src + r]);
        }
        y[..self.ny * r].fill(0.0);
        span_end(obs, rk, Phase::Gather, t);
        let mut tag = tag0;
        for step in &self.steps {
            match step {
                RankStep::Compute(kernel) => {
                    let t = span_start(obs);
                    kernel.run_batch(x, y, r);
                    span_end(obs, rk, Phase::Compute, t);
                }
                RankStep::Comm { sends, recvs, x_homes, y_slots, .. } => {
                    let t = span_start(obs);
                    for m in sends {
                        ep.send(m.peer, tag, stage_send(m.lists(x_homes, y_slots), x, y, r));
                    }
                    span_end(obs, rk, Phase::Gather, t);
                    // All sends are posted; targeted receives can land
                    // in spec order without deadlock.
                    let t = span_start(obs);
                    for m in recvs {
                        let payload = ep.recv_match(m.peer, tag);
                        assert_eq!(payload.len(), m.words() * r, "message size mismatch");
                        apply_recv(m.lists(x_homes, y_slots), x, y, &payload, r);
                    }
                    span_end(obs, rk, Phase::Scatter, t);
                    tag += 1;
                }
            }
        }
        let t = span_start(obs);
        out.fill(0.0);
        for &(i, slot) in emit.iter() {
            let (src, dst) = (slot as usize * r, i as usize * r);
            out[dst..dst + r].copy_from_slice(&y[src..src + r]);
        }
        span_end(obs, rk, Phase::Scatter, t);
        if let Some(o) = obs {
            o.bump_iter(rk, r);
        }
    }
}

/// The compiled plan driven over endpoints as a whole-plan operator:
/// every application runs `plan.k` ranks on scoped OS threads, each
/// walking its [`RankProgram`] through [`RankProgram::spmv_over`].
///
/// Thread spawn is inherent to each call — this is the distributed-
/// execution path (and the concurrent validation of the plan's message
/// structure), not the fast path; per-rank buffers persist across
/// calls. Results are bitwise identical to the sequential executor's
/// whatever the delivery order (see the module docs).
pub struct EndpointOperator {
    cp: Arc<CompiledPlan>,
    chaos: ChaosConfig,
    /// Per rank: walker state plus the dense block of its emitted rows
    /// (aligned with `y_emit`). Each rank thread locks only its own
    /// entry, so the mutexes are never contended.
    ranks: Vec<Mutex<(RankLocal, Vec<f64>)>>,
    obs: Option<ExecTelemetry>,
}

impl EndpointOperator {
    /// Operator over `cp` with `chaos` delivery-delay injection
    /// ([`ChaosConfig::off`] for none — delays change timing, never a
    /// result bit) and optional telemetry.
    pub fn new(
        cp: impl Into<Arc<CompiledPlan>>,
        chaos: ChaosConfig,
        sink: Option<Arc<TelemetrySink>>,
    ) -> EndpointOperator {
        let cp = cp.into();
        let ranks = cp
            .ranks
            .iter()
            .map(|rp| {
                let emit = rp.y_emit.iter().enumerate().map(|(i, &(_, s))| (i as u32, s)).collect();
                let seed = rp.x_seed.iter().map(|&g| (g, g)).collect();
                Mutex::new((RankLocal::new(cp.ncols, seed, emit), Vec::new()))
            })
            .collect();
        let obs = sink.map(|sink| ExecTelemetry::new(&cp, sink));
        EndpointOperator { cp, chaos, ranks, obs }
    }
}

impl SpmvOperator for EndpointOperator {
    fn nrows(&self) -> usize {
        self.cp.nrows
    }

    fn ncols(&self) -> usize {
        self.cp.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.apply_batch(x, y, 1);
    }

    fn apply_batch(&mut self, x: &[f64], y: &mut [f64], r: usize) {
        let cp = &*self.cp;
        assert!(r >= 1, "batch width must be at least 1");
        assert_eq!(x.len(), cp.ncols * r, "input length mismatch");
        assert_eq!(y.len(), cp.nrows * r, "output length mismatch");
        let obs = self.obs.as_ref();
        let t = span_start(obs);
        let ranks = &self.ranks;
        spmd(Cluster::<Payload>::with_chaos(cp.k, self.chaos), |ep| {
            let rp = &cp.ranks[ep.rank() as usize];
            let mut state = ranks[ep.rank() as usize].lock().expect("rank state lock");
            let (local, out) = &mut *state;
            out.resize(rp.y_emit.len() * r, 0.0);
            rp.spmv_over(ep, local, x, out, r, 0, obs);
            debug_assert!(ep.drained(), "rank {} exits with unconsumed messages", ep.rank());
        });
        // Rows no rank materializes assemble to 0.
        y.fill(0.0);
        for (rp, state) in cp.ranks.iter().zip(&mut self.ranks) {
            let (_, out) = state.get_mut().expect("rank state lock");
            for (i, &(g, _)) in rp.y_emit.iter().enumerate() {
                y[g as usize * r..][..r].copy_from_slice(&out[i * r..][..r]);
            }
        }
        call_end(obs, t, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::batch_input;
    use crate::formats::{KernelFormat, KernelIsa};
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_core::optimal::s2d_optimal;
    use s2d_core::partition::SpmvPartition;
    use s2d_sparse::{Coo, Csr};
    use s2d_spmv::{PlanKind, SpmvPlan};

    fn quiet(cp: CompiledPlan) -> EndpointOperator {
        EndpointOperator::new(cp, ChaosConfig::off(), None)
    }

    /// The walker's acceptance bar: for every kernel format and
    /// r ∈ {1, 4}, a quiet run and `seeds` chaos-delayed runs are all
    /// **bitwise equal** to the sequential executor on the same
    /// compiled plan.
    fn assert_bitwise_seq_under_chaos(plan: &SpmvPlan, max_delay_us: u32, seeds: u64, what: &str) {
        for format in KernelFormat::all() {
            let cp = Arc::new(CompiledPlan::compile_with_isa(plan, format, KernelIsa::Auto));
            for r in [1usize, 4] {
                let x = batch_input(plan.ncols, r, 13);
                let mut want = vec![0.0; plan.nrows * r];
                crate::exec::tests::seq(&cp, r).apply_batch(&x, &mut want, r);
                let configs = std::iter::once(ChaosConfig::off())
                    .chain((0..seeds).map(|seed| ChaosConfig::with_delays(max_delay_us, seed)));
                for chaos in configs {
                    let mut op = EndpointOperator::new(Arc::clone(&cp), chaos, None);
                    let mut y = vec![f64::NAN; plan.nrows * r];
                    op.apply_batch(&x, &mut y, r);
                    assert_eq!(y, want, "{what}/{format}/r={r}/{chaos:?}");
                }
            }
        }
    }

    #[test]
    fn threaded_matches_mailbox_on_all_plan_kinds() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64 - 6.0).collect();
        let reference = a.spmv_alloc(&x);
        for plan in [
            SpmvPlan::single_phase(&a, &p),
            SpmvPlan::two_phase(&a, &p),
            SpmvPlan::mesh(&a, &p, 3, 1),
            SpmvPlan::mesh(&a, &p, 1, 3),
        ] {
            let mut y = vec![0.0; a.nrows()];
            quiet(CompiledPlan::compile(&plan)).apply(&x, &mut y);
            // CSR-slice kernels keep the oracle's accumulation order.
            assert_eq!(y, plan.execute_mailbox(&x));
            for (u, v) in y.iter().zip(&reference) {
                assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "{u} vs {v}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_consistent() {
        // One operator, reused: per-rank buffers persist across calls
        // and widths, and spec-order receives make every run bitwise
        // identical however the threads interleave.
        let a = fig1_matrix();
        let p = fig1_partition();
        let x: Vec<f64> = (0..a.ncols()).map(|j| 1.0 / (j + 1) as f64).collect();
        let mut op = quiet(CompiledPlan::compile(&SpmvPlan::single_phase(&a, &p)));
        let mut y1 = vec![0.0; a.nrows()];
        op.apply(&x, &mut y1);
        let xb = batch_input(a.ncols(), 3, 5);
        let mut yb = vec![0.0; a.nrows() * 3];
        op.apply_batch(&xb, &mut yb, 3); // grows the buffers in between
        for _ in 0..4 {
            let mut y2 = vec![f64::NAN; a.nrows()];
            op.apply(&x, &mut y2);
            assert_eq!(y1, y2);
        }
    }

    #[test]
    fn mesh_plan_survives_chaotic_delivery() {
        // Regression: the pre-runtime executor matched messages by
        // arrival order only; a rank racing ahead into the second mesh
        // hop could starve a slower peer of a phase-1 contribution, which
        // then shipped an incomplete partial sum (or panicked, wedging
        // the remaining ranks). Phase tags make every interleaving —
        // here aggressively randomized — deliver the exact result.
        let a = fig1_matrix();
        let p = fig1_partition();
        assert_bitwise_seq_under_chaos(&SpmvPlan::mesh(&a, &p, 3, 1), 200, 8, "mesh3x1");
        assert_bitwise_seq_under_chaos(&PlanKind::Mesh.build(&a, &p), 200, 2, "mesh");
    }

    #[test]
    fn two_phase_plan_survives_chaotic_delivery() {
        let a = fig1_matrix();
        let p = fig1_partition();
        for kind in [PlanKind::TwoPhase, PlanKind::SinglePhase] {
            assert_bitwise_seq_under_chaos(&kind.build(&a, &p), 150, 4, kind.label());
        }
    }

    /// `nrows × ncols` matrix with an irregular pattern, s2D-partitioned
    /// over `k` ranks with independent row and column block splits.
    fn rectangular(nrows: usize, ncols: usize, k: usize) -> (Csr, SpmvPartition) {
        let mut m = Coo::new(nrows, ncols);
        for i in 0..nrows {
            for t in 0..4 {
                let j = (i * 7 + t * 13 + (i * t) % 5) % ncols;
                m.push(i, j, 1.0 + ((i + 3 * j) % 11) as f64 / 4.0);
            }
        }
        m.compress();
        let a = m.to_csr();
        let split = |n: usize| (0..n).map(|i| (i * k / n) as u32).collect::<Vec<u32>>();
        let p = s2d_optimal(&a, &split(nrows), &split(ncols), k);
        (a, p)
    }

    #[test]
    fn rectangular_plans_match_compiled_seq_under_chaos() {
        for (what, nrows, ncols) in [("wide", 12, 40), ("tall", 40, 12)] {
            let (a, p) = rectangular(nrows, ncols, 4);
            for kind in PlanKind::all() {
                let plan = kind.build(&a, &p);
                assert_bitwise_seq_under_chaos(&plan, 100, 2, &format!("{what}/{kind}"));
                let x: Vec<f64> = (0..ncols).map(|j| (j as f64).cos()).collect();
                let mut y = vec![0.0; nrows];
                quiet(CompiledPlan::compile(&plan)).apply(&x, &mut y);
                for (u, v) in y.iter().zip(&a.spmv_alloc(&x)) {
                    assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "{what}/{kind}: {u} vs {v}");
                }
            }
        }
    }
}
