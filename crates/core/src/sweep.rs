//! Shared machinery of the bi-objective sweep heuristics.
//!
//! Algorithm 1 ([`crate::heuristic`]) and the generalized "Algorithm 2"
//! ([`crate::heuristic2`]) are the same search skeleton instantiated
//! with different per-block alternative families:
//!
//! 1. DM-analyze every off-diagonal block of the vector partition
//!    (`analyze_blocks` — one [`BlockAnalysis`] per block);
//! 2. sweep the blocks in decreasing order of the volume reduction
//!    `λ⁻ = n̂(A) − min-volume`, flipping a block to the cheapest
//!    feasible alternative under the load cap `max{W̃, W_lim}`; flips
//!    are final and sweeps repeat until one makes no flip
//!    (`volume_sweeps`).
//!
//! Algorithm 1 restricts the family to `{A1, A2}` (keep, or move the
//! `H` diagonal block); Algorithm 2 passes its configured family and
//! follows up with a balance pass. Both track processor loads through
//! `LoadTracker`, a multiset with `O(log K)` max updates.

use std::collections::BTreeMap;

use s2d_sparse::{BlockStructure, Csr};

use crate::alternatives::{Alternative, BlockAnalysis};

/// The paper's load bound `W_lim = ⌈(1+ε)·nnz/K⌉`.
pub fn load_limit(nnz: usize, k: usize, epsilon: f64) -> u64 {
    ((1.0 + epsilon) * nnz as f64 / k as f64).ceil() as u64
}

/// Multiset of processor loads supporting O(log K) updates of the max.
pub(crate) struct LoadTracker {
    pub(crate) loads: Vec<u64>,
    histogram: BTreeMap<u64, u32>,
}

impl LoadTracker {
    pub(crate) fn new(loads: Vec<u64>) -> Self {
        let mut histogram = BTreeMap::new();
        for &w in &loads {
            *histogram.entry(w).or_insert(0u32) += 1;
        }
        LoadTracker { loads, histogram }
    }

    pub(crate) fn max(&self) -> u64 {
        self.histogram.keys().next_back().copied().unwrap_or(0)
    }

    pub(crate) fn get(&self, p: usize) -> u64 {
        self.loads[p]
    }

    /// The most loaded processor and its load. Ties go to the largest
    /// id — the behavior of `Iterator::max_by_key` the balance pass
    /// historically relied on; changing the tie-break would silently
    /// change which processor gets offloaded first on tied loads.
    pub(crate) fn argmax(&self) -> Option<(u32, u64)> {
        let w = self.max();
        self.loads.iter().rposition(|&l| l == w).map(|p| (p as u32, w))
    }

    pub(crate) fn transfer(&mut self, from: usize, to: usize, amount: u64) {
        for (p, delta_neg) in [(from, true), (to, false)] {
            let old = self.loads[p];
            let new = if delta_neg { old - amount } else { old + amount };
            self.loads[p] = new;
            let cnt = self.histogram.get_mut(&old).expect("old load present");
            *cnt -= 1;
            if *cnt == 0 {
                self.histogram.remove(&old);
            }
            *self.histogram.entry(new).or_insert(0) += 1;
        }
    }
}

/// State of one off-diagonal block during the sweep search.
pub(crate) struct BlockState {
    pub(crate) analysis: BlockAnalysis,
    pub(crate) chosen: Alternative,
}

/// DM-analyzes every off-diagonal block of the `(y_part, x_part)` vector
/// partition. Returns the sweep states (all starting at `A1`) and the
/// loads of the 1D rowwise start.
pub(crate) fn analyze_blocks(
    a: &Csr,
    y_part: &[u32],
    x_part: &[u32],
    k: usize,
) -> (Vec<BlockState>, LoadTracker) {
    let blocks = BlockStructure::build(a, y_part, x_part, k);
    let states: Vec<BlockState> = blocks
        .iter_off_diagonal()
        .map(|((l, kk), nz)| BlockState {
            analysis: BlockAnalysis::analyze(a, l, kk, nz),
            chosen: Alternative::A1,
        })
        .collect();
    (states, LoadTracker::new(blocks.rowwise_loads()))
}

/// The shared volume pass: sweeps blocks in decreasing `λ⁻` order
/// (deterministic `(l, k)` tiebreak), flipping each at most once to the
/// cheapest-volume, then least-moved feasible alternative from
/// `alternatives`. A flip is feasible when the destination load stays
/// within `max{W̃, W_lim}` — as the paper notes, when the initial
/// maximum load already exceeds `W_lim` this degenerates to "do not
/// exceed the current maximum", which monotonically improves the
/// balance of overloaded instances. Sweeps repeat until none flips (or
/// `max_sweeps`).
pub(crate) fn volume_sweeps(
    states: &mut [BlockState],
    tracker: &mut LoadTracker,
    w_lim: u64,
    max_sweeps: usize,
    alternatives: &[Alternative],
) {
    let mut order: Vec<usize> = (0..states.len())
        .filter(|&b| {
            let a = &states[b].analysis;
            a.volume(Alternative::A1) > a.min_volume()
        })
        .collect();
    order.sort_unstable_by_key(|&b| {
        let a = &states[b].analysis;
        (std::cmp::Reverse(a.volume(Alternative::A1) - a.min_volume()), a.l, a.k)
    });

    for _sweep in 0..max_sweeps {
        let mut flag = false;
        for &b in &order {
            let st = &states[b];
            if st.chosen != Alternative::A1 {
                continue;
            }
            let a = &st.analysis;
            let w_tilde = tracker.max();
            // Cheapest-volume, then least-moved feasible alternative.
            let pick = alternatives
                .iter()
                .copied()
                .filter(|&alt| alt != Alternative::A1)
                .filter(|&alt| tracker.get(a.k as usize) + a.moved(alt) <= w_tilde.max(w_lim))
                .min_by_key(|&alt| (a.volume(alt), a.moved(alt)));
            if let Some(alt) = pick {
                if a.volume(alt) < a.volume(Alternative::A1) {
                    let moved = a.moved(alt);
                    let (from, to) = (a.l as usize, a.k as usize);
                    states[b].chosen = alt;
                    tracker.transfer(from, to, moved);
                    flag = true;
                }
            }
        }
        if !flag {
            break;
        }
    }
}

/// Writes the chosen alternatives into the nonzero owners of `p`
/// (blocks left at `A1` move nothing).
pub(crate) fn apply_choices(states: &[BlockState], p: &mut crate::partition::SpmvPartition) {
    for st in states {
        for &e in st.analysis.moved_nz(st.chosen) {
            p.nz_owner[e as usize] = st.analysis.k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_tracker_transfers() {
        let mut t = LoadTracker::new(vec![10, 20, 30]);
        assert_eq!(t.max(), 30);
        t.transfer(2, 0, 15);
        assert_eq!(t.max(), 25);
        assert_eq!(t.get(0), 25);
        assert_eq!(t.get(2), 15);
        t.transfer(1, 1, 5); // self-transfer keeps totals
        assert_eq!(t.get(1), 20);
        assert_eq!(t.argmax(), Some((0, 25)));
        // Ties break to the largest id (Iterator::max_by_key behavior).
        assert_eq!(LoadTracker::new(vec![9, 9, 3]).argmax(), Some((1, 9)));
    }

    #[test]
    fn load_limit_matches_paper_formula() {
        assert_eq!(load_limit(14, 2, 0.03), 8); // ceil(1.03 * 7)
        assert_eq!(load_limit(100, 4, 0.0), 25);
    }
}
