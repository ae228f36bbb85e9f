//! Deterministic mailbox executor.
//!
//! Interprets a plan phase by phase on `K` virtual processor memories.
//! Communication phases are simultaneous: every send captures the
//! pre-phase state, then all deliveries land. Partial-`y` words are
//! *moved* (drained at the sender, accumulated at the receiver), which is
//! what makes intermediate aggregation in s2D-b work for free.

use std::collections::HashMap;

use crate::plan::{PlanPhase, SpmvPlan};

/// Reusable interpretation state for the mailbox executor: per-processor
/// `x`/`y` hash maps and the flat communication capture buffer.
///
/// Building the state once (see
/// [`MailboxOperator`](crate::operator::MailboxOperator)) and reusing it
/// across calls keeps the per-call cost to clearing the maps instead of
/// reallocating them.
#[derive(Clone, Debug)]
pub(crate) struct MailboxState {
    xbuf: Vec<HashMap<u32, f64>>,
    ybuf: Vec<HashMap<u32, f64>>,
    captured: Vec<f64>,
}

impl MailboxState {
    /// Allocates state sized for `plan` (capture buffer sized for the
    /// largest communication phase up front).
    pub(crate) fn for_plan(plan: &SpmvPlan) -> MailboxState {
        let max_words = plan
            .phases
            .iter()
            .map(|ph| match ph {
                PlanPhase::Comm(msgs) => msgs.iter().map(|m| m.x_cols.len() + m.y_rows.len()).sum(),
                PlanPhase::Compute(_) => 0,
            })
            .max()
            .unwrap_or(0);
        MailboxState {
            xbuf: vec![HashMap::new(); plan.k],
            ybuf: vec![HashMap::new(); plan.k],
            captured: Vec::with_capacity(max_words),
        }
    }
}

/// Executes `plan` on input `x`, writing the assembled result into the
/// caller's `y` buffer (`y.len() == plan.nrows`, fully overwritten).
/// `state` is cleared and reused — no per-call map allocation.
///
/// # Panics
/// Panics if a multiply-add needs an `x` value its processor does not
/// hold — that is a plan construction bug, not a data error.
pub(crate) fn execute_mailbox_into(
    plan: &SpmvPlan,
    x: &[f64],
    y: &mut [f64],
    state: &mut MailboxState,
) {
    assert_eq!(x.len(), plan.ncols, "input length mismatch");
    assert_eq!(y.len(), plan.nrows, "output length mismatch");
    assert_eq!(state.xbuf.len(), plan.k, "state belongs to a different plan");
    let MailboxState { xbuf, ybuf, captured } = state;
    for buf in xbuf.iter_mut().chain(ybuf.iter_mut()) {
        buf.clear();
    }
    for (j, &xj) in x.iter().enumerate() {
        xbuf[plan.x_part[j] as usize].insert(j as u32, xj);
    }

    for (phase_idx, phase) in plan.phases.iter().enumerate() {
        match phase {
            PlanPhase::Compute(tasks) => {
                for (p, list) in tasks.iter().enumerate() {
                    for t in list {
                        let xv = *xbuf[p].get(&t.col).unwrap_or_else(|| {
                            panic!(
                                "processor {p} lacks x[{}] in phase {phase_idx}: plan bug",
                                t.col
                            )
                        });
                        *ybuf[p].entry(t.row).or_insert(0.0) += t.val * xv;
                    }
                }
            }
            PlanPhase::Comm(msgs) => {
                // Simultaneous exchange: capture the whole phase once
                // into the flat buffer (draining moved partials), then
                // deliver. The message specs themselves carry the ids,
                // so the capture holds values only — no per-message
                // allocation.
                captured.clear();
                for m in msgs {
                    let src = m.src as usize;
                    for &j in &m.x_cols {
                        captured.push(*xbuf[src].get(&j).unwrap_or_else(|| {
                            panic!("processor {src} lacks x[{j}] to send in phase {phase_idx}")
                        }));
                    }
                    for &i in &m.y_rows {
                        captured.push(ybuf[src].remove(&i).unwrap_or_else(|| {
                            panic!(
                                "processor {src} lacks partial y[{i}] to send in phase {phase_idx}"
                            )
                        }));
                    }
                }
                let mut w = 0;
                for m in msgs {
                    let dst = m.dst as usize;
                    for &j in &m.x_cols {
                        xbuf[dst].insert(j, captured[w]);
                        w += 1;
                    }
                    for &i in &m.y_rows {
                        *ybuf[dst].entry(i).or_insert(0.0) += captured[w];
                        w += 1;
                    }
                }
            }
        }
    }

    for (i, yi) in y.iter_mut().enumerate() {
        *yi = *ybuf[plan.y_part[i] as usize].get(&(i as u32)).unwrap_or(&0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SpmvPlan;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};
    use s2d_core::partition::SpmvPartition;
    use s2d_sparse::{Coo, Csr};

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (u, v)) in a.iter().zip(b).enumerate() {
            assert!((u - v).abs() <= 1e-9 * v.abs().max(1.0), "y[{idx}]: {u} vs {v}");
        }
    }

    fn x_for(n: usize) -> Vec<f64> {
        (0..n).map(|j| (j as f64) * 0.5 - 3.0).collect()
    }

    /// Out-param execution with throwaway state (test convenience).
    fn mailbox(plan: &SpmvPlan, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; plan.nrows];
        execute_mailbox_into(plan, x, &mut y, &mut MailboxState::for_plan(plan));
        y
    }

    #[test]
    fn fig1_single_phase_matches_serial() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x = x_for(a.ncols());
        let y = mailbox(&SpmvPlan::single_phase(&a, &p), &x);
        assert_close(&y, &a.spmv_alloc(&x));
    }

    #[test]
    fn fig1_two_phase_matches_serial() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x = x_for(a.ncols());
        let y = mailbox(&SpmvPlan::two_phase(&a, &p), &x);
        assert_close(&y, &a.spmv_alloc(&x));
    }

    #[test]
    fn fig1_mesh_matches_serial() {
        let a = fig1_matrix();
        let p = fig1_partition();
        let x = x_for(a.ncols());
        for (pr, pc) in [(1, 3), (3, 1)] {
            let y = mailbox(&SpmvPlan::mesh(&a, &p, pr, pc), &x);
            assert_close(&y, &a.spmv_alloc(&x));
        }
    }

    #[test]
    fn empty_rows_yield_zero() {
        let a = Coo::from_pattern(3, 3, &[(0, 0)]).to_csr();
        let p = SpmvPartition::rowwise(&a, vec![0, 1, 1], vec![0, 0, 1], 2);
        let x = vec![2.0, 3.0, 4.0];
        let y = mailbox(&SpmvPlan::single_phase(&a, &p), &x);
        assert_eq!(y, vec![2.0, 0.0, 0.0]);
    }

    #[test]
    fn identity_under_scattered_partition() {
        let a = Csr::identity(8);
        let y_part: Vec<u32> = (0..8).map(|i| (i % 4) as u32).collect();
        let x_part: Vec<u32> = (0..8).map(|i| ((i + 1) % 4) as u32).collect();
        // Identity nonzero (i,i): owner must be y_part[i] or x_part[i].
        let p = SpmvPartition::rowwise(&a, y_part, x_part, 4);
        let x = x_for(8);
        let y = mailbox(&SpmvPlan::single_phase(&a, &p), &x);
        assert_close(&y, &x);
    }

    #[test]
    #[should_panic(expected = "plan bug")]
    fn missing_x_value_is_a_plan_bug() {
        use crate::plan::{MultTask, PlanPhase};
        // Hand-build a broken plan: proc 0 multiplies with x[1] it never
        // receives.
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
        let _ = mailbox(&plan, &[1.0, 2.0]);
    }

    #[test]
    fn reused_state_matches_fresh_state() {
        // One MailboxState across calls (the MailboxOperator pattern)
        // must give the same answer as a throwaway state per call.
        let a = fig1_matrix();
        let p = fig1_partition();
        let plan = SpmvPlan::single_phase(&a, &p);
        let mut state = MailboxState::for_plan(&plan);
        for seed in 0..3 {
            let x: Vec<f64> = (0..a.ncols()).map(|j| ((j + seed) % 5) as f64 - 2.0).collect();
            let mut y = vec![0.0; plan.nrows];
            execute_mailbox_into(&plan, &x, &mut y, &mut state);
            assert_eq!(y, mailbox(&plan, &x));
        }
    }
}
