//! Fiduccia–Mattheyses bisection refinement and the gain engine under it.
//!
//! [`Gains`] holds the textbook delta-gain rules and a lazy max-heap
//! (entries carry a per-vertex version stamp; stale entries are skipped on
//! pop) once, for both users: FM refinement here and greedy growing in
//! `initial`. FM adds hill climbing with best-prefix rollback and a
//! balance mode that lets infeasible partitions walk back into the
//! balance envelope by accepting overweight-reducing moves regardless of
//! gain.

use std::collections::BinaryHeap;

use crate::hg::Hypergraph;

/// Incremental state of a bisection: side of every vertex, per-net pin
/// counts per side, per-side weights and the current cut-net cutsize.
pub(crate) struct BisectState<'a> {
    hg: &'a Hypergraph,
    /// Side (0 or 1) of every vertex.
    pub(crate) side: Vec<u8>,
    pins: [Vec<u32>; 2],
    /// Per-side, per-constraint weights.
    pub(crate) part_w: [Vec<u64>; 2],
    /// Per-side vertex counts (moves must never empty a side — an empty
    /// part is always a worse partition than any balanced one).
    pub(crate) count: [usize; 2],
    /// Current cut-net cutsize.
    pub(crate) cut: u64,
}

impl<'a> BisectState<'a> {
    /// Builds the incremental state for an assignment.
    pub(crate) fn new(hg: &'a Hypergraph, side: Vec<u8>) -> Self {
        assert_eq!(side.len(), hg.nvtx());
        let ncon = hg.ncon();
        let mut part_w = [vec![0u64; ncon], vec![0u64; ncon]];
        for v in 0..hg.nvtx() {
            for c in 0..ncon {
                part_w[side[v] as usize][c] += hg.vweight(v)[c];
            }
        }
        let mut pins = [vec![0u32; hg.nnets()], vec![0u32; hg.nnets()]];
        for n in 0..hg.nnets() {
            for &p in hg.pins_of(n) {
                pins[side[p as usize] as usize][n] += 1;
            }
        }
        let cut = (0..hg.nnets())
            .filter(|&n| pins[0][n] > 0 && pins[1][n] > 0)
            .map(|n| hg.ncost(n))
            .sum();
        let mut count = [0usize; 2];
        for &s in &side {
            count[s as usize] += 1;
        }
        BisectState { hg, side, pins, part_w, count, cut }
    }

    /// Pin count of net `n` on side `s`.
    #[inline]
    fn pins_on(&self, n: usize, s: u8) -> u32 {
        self.pins[s as usize][n]
    }

    /// FM gain of moving `v` to the other side (cut reduction, may be
    /// negative).
    pub(crate) fn gain(&self, v: usize) -> i64 {
        let from = self.side[v] as usize;
        let to = 1 - from;
        let mut g = 0i64;
        for &n in self.hg.nets_of(v) {
            let n = n as usize;
            let c = self.hg.ncost(n) as i64;
            if self.pins[from][n] == 1 && self.pins[to][n] > 0 {
                g += c;
            } else if self.pins[to][n] == 0 && self.pins[from][n] > 1 {
                g -= c;
            }
        }
        g
    }

    /// Moves `v` to the other side, updating pin counts, weights and cut.
    /// Applying the same move twice restores the previous state.
    pub(crate) fn apply_move(&mut self, v: usize) {
        let from = self.side[v] as usize;
        let to = 1 - from;
        for &n in self.hg.nets_of(v) {
            let n = n as usize;
            let f = self.pins[from][n];
            let t = self.pins[to][n];
            if t == 0 && f > 1 {
                self.cut += self.hg.ncost(n); // newly cut
            } else if f == 1 && t > 0 {
                self.cut -= self.hg.ncost(n); // newly uncut
            }
            self.pins[from][n] -= 1;
            self.pins[to][n] += 1;
        }
        for c in 0..self.hg.ncon() {
            let w = self.hg.vweight(v)[c];
            self.part_w[from][c] -= w;
            self.part_w[to][c] += w;
        }
        self.count[from] -= 1;
        self.count[to] += 1;
        self.side[v] = to as u8;
    }

    /// Total amount by which the two sides exceed `maxw` (0 = feasible).
    pub(crate) fn overweight(&self, maxw: &[Vec<u64>; 2]) -> u64 {
        let mut over = 0u64;
        for s in 0..2 {
            for c in 0..self.hg.ncon() {
                over += self.part_w[s][c].saturating_sub(maxw[s][c]);
            }
        }
        over
    }
}

/// Maximum FM passes per level (a pass that improves nothing ends the
/// level early).
const FM_PASSES: usize = 3;

/// The gain engine shared by FM refinement and greedy growing: every
/// vertex's FM gain, kept current by the textbook delta-gain rules (a
/// move touches a net's pins only at the net's critical transitions),
/// plus a lazy max-heap of candidates. Heap entries are `(gain, vertex,
/// version)`; [`Gains::push`] stamps a fresh version, so a vertex has at
/// most one live entry and [`Gains::pop`] returns the arg-max gain with
/// ties to the highest vertex id. Moved vertices are locked.
pub(crate) struct Gains {
    gain: Vec<i64>,
    version: Vec<u32>,
    locked: Vec<bool>,
    heap: BinaryHeap<(i64, u32, u32)>,
}

impl Gains {
    /// Gains of every vertex of `state`, in one sweep over nets. Nothing
    /// is a candidate until pushed.
    pub(crate) fn new(state: &BisectState<'_>) -> Self {
        let hg = state.hg;
        let mut gain = vec![0i64; hg.nvtx()];
        for n in 0..hg.nnets() {
            let (p0, p1) = (state.pins_on(n, 0), state.pins_on(n, 1));
            let c = hg.ncost(n) as i64;
            if p0 > 0 && p1 > 0 {
                if p0 == 1 || p1 == 1 {
                    for &u in hg.pins_of(n) {
                        let s = state.side[u as usize];
                        if (s == 0 && p0 == 1) || (s == 1 && p1 == 1) {
                            gain[u as usize] += c;
                        }
                    }
                }
            } else if hg.net_size(n) > 1 {
                for &u in hg.pins_of(n) {
                    gain[u as usize] -= c;
                }
            }
        }
        Gains {
            gain,
            version: vec![0; hg.nvtx()],
            locked: vec![false; hg.nvtx()],
            heap: BinaryHeap::new(),
        }
    }

    /// Current gain of `v` (meaningful while `v` is unlocked).
    #[cfg(test)]
    pub(crate) fn gain(&self, v: usize) -> i64 {
        self.gain[v]
    }

    /// Makes `v` a candidate at its current gain, superseding any earlier
    /// entry for it.
    pub(crate) fn push(&mut self, v: usize) {
        self.version[v] += 1;
        self.heap.push((self.gain[v], v as u32, self.version[v]));
    }

    /// Removes and returns the best candidate, or `None` when none is left.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        while let Some((_, v, ver)) = self.heap.pop() {
            if self.version[v as usize] == ver && !self.locked[v as usize] {
                return Some(v as usize);
            }
        }
        None
    }

    /// Moves `v` to the other side and locks it, updating the gains of
    /// its unlocked net-mates and making each updated one a candidate.
    pub(crate) fn move_vertex(&mut self, state: &mut BisectState<'_>, v: usize) {
        debug_assert_eq!(self.gain[v], state.gain(v), "stale gain for vertex {v}");
        let from = state.side[v];
        self.net_rules(state, v, 1 - from, 1);
        state.apply_move(v);
        self.locked[v] = true;
        self.net_rules(state, v, from, -1);
    }

    /// The delta-gain rules for the nets of `v`, read off their pin count
    /// on side `s`: a net with no pin there changes every other pin's gain
    /// by `sign · cost`, a net with one changes that pin's by the opposite.
    /// Before a move `s` is the target side and `sign` is `+1`; after it
    /// `s` is the side just left and `sign` is `-1`.
    fn net_rules(&mut self, state: &BisectState<'_>, v: usize, s: u8, sign: i64) {
        let hg = state.hg;
        for &n in hg.nets_of(v) {
            let n = n as usize;
            let c = sign * hg.ncost(n) as i64;
            match state.pins_on(n, s) {
                0 => {
                    for &u in hg.pins_of(n) {
                        let u = u as usize;
                        if u != v && !self.locked[u] {
                            self.gain[u] += c;
                            self.push(u);
                        }
                    }
                }
                1 => {
                    for &u in hg.pins_of(n) {
                        let u = u as usize;
                        if u != v && !self.locked[u] && state.side[u] == s {
                            self.gain[u] -= c;
                            self.push(u);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Runs up to [`FM_PASSES`] FM passes on `side`, respecting the per-side,
/// per-constraint weight limits `maxw`. Returns the `(overweight, cut)`
/// of the result — the key by which bisections are compared.
///
/// The refined assignment is written back into `side`.
pub(crate) fn fm_refine(hg: &Hypergraph, side: &mut [u8], maxw: &[Vec<u64>; 2]) -> (u64, u64) {
    let mut state = BisectState::new(hg, side.to_vec());
    for _ in 0..FM_PASSES {
        if !fm_pass(&mut state, maxw) {
            break;
        }
    }
    side.copy_from_slice(&state.side);
    (state.overweight(maxw), state.cut)
}

/// One FM pass. Returns true if the pass improved (cut or overweight).
fn fm_pass(state: &mut BisectState<'_>, maxw: &[Vec<u64>; 2]) -> bool {
    let hg = state.hg;
    let nvtx = hg.nvtx();
    if nvtx == 0 {
        return false;
    }
    let mut gains = Gains::new(state);

    // Seed with boundary vertices; in infeasible states also seed the
    // overweight side so balance can be restored even with zero cut.
    let infeasible_side = |state: &BisectState<'_>| -> Option<u8> {
        for s in 0..2u8 {
            for c in 0..hg.ncon() {
                if state.part_w[s as usize][c] > maxw[s as usize][c] {
                    return Some(s);
                }
            }
        }
        None
    };
    let mut seeded = vec![false; nvtx];
    for n in 0..hg.nnets() {
        if state.pins_on(n, 0) > 0 && state.pins_on(n, 1) > 0 {
            for &u in hg.pins_of(n) {
                if !seeded[u as usize] {
                    seeded[u as usize] = true;
                    gains.push(u as usize);
                }
            }
        }
    }
    if let Some(heavy) = infeasible_side(state) {
        for v in 0..nvtx {
            if state.side[v] == heavy && !seeded[v] {
                gains.push(v);
            }
        }
    }

    // Move loop with best-prefix tracking.
    let start_cut = state.cut;
    let start_over = state.overweight(maxw);
    let mut best_key = (start_over, start_cut);
    let mut history: Vec<u32> = Vec::new();
    let mut best_len = 0usize;
    let abort_limit = 300.max(nvtx / 8);
    let mut deferred: Vec<usize> = Vec::new();

    while let Some(v) = gains.pop() {
        let from = state.side[v];
        let to = 1 - from;
        // A move may never empty a side: with both sides nonempty on
        // entry, any all-on-one-side assignment is strictly worse for the
        // recursive K-way driver (an empty part), whatever its cut.
        if state.count[from as usize] == 1 {
            continue;
        }
        // Feasibility: target side must stay within limits, or the move
        // must strictly reduce total overweight (rebalancing mode).
        let to_fits = (0..hg.ncon())
            .all(|c| state.part_w[to as usize][c] + hg.vweight(v)[c] <= maxw[to as usize][c]);
        let cur_over = state.overweight(maxw);
        let reduces_over = if cur_over == 0 {
            false
        } else {
            let mut new_over = 0u64;
            for c in 0..hg.ncon() {
                let w = hg.vweight(v)[c];
                new_over +=
                    (state.part_w[from as usize][c] - w).saturating_sub(maxw[from as usize][c]);
                new_over += (state.part_w[to as usize][c] + w).saturating_sub(maxw[to as usize][c]);
            }
            new_over < cur_over
        };
        if !to_fits && !reduces_over {
            deferred.push(v);
            continue;
        }

        gains.move_vertex(state, v);
        history.push(v as u32);

        // Weight distribution changed: deferred moves may fit now.
        for u in deferred.drain(..) {
            gains.push(u);
        }

        let key = (state.overweight(maxw), state.cut);
        if key < best_key {
            best_key = key;
            best_len = history.len();
        } else if history.len() - best_len > abort_limit {
            break;
        }
    }

    // Roll back to the best prefix (apply_move is an involution).
    for &v in history[best_len..].iter().rev() {
        state.apply_move(v as usize);
    }
    best_key < (start_over, start_cut)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Random hypergraph for the engine's property tests: vertex weights
    /// 1–3, net costs 1–4, nets of 1–6 distinct pins (single-pin nets
    /// included), and few enough nets that many cases are disconnected or
    /// have isolated vertices (down to no nets at all).
    pub(crate) fn weighted_hg_strategy(
        max_vtx: usize,
        max_nets: usize,
    ) -> impl Strategy<Value = Hypergraph> {
        (2..=max_vtx).prop_flat_map(move |nv| {
            let net = (proptest::collection::vec(0..nv as u32, 1..=nv.min(6)), 1u64..=4);
            let nets = proptest::collection::vec(net, 0..=max_nets);
            (nets, proptest::collection::vec(1u64..=3, nv)).prop_map(move |(nets, vwgt)| {
                let (mut pins, costs): (Vec<Vec<u32>>, Vec<u64>) = nets.into_iter().unzip();
                for net in &mut pins {
                    net.sort_unstable();
                    net.dedup();
                }
                Hypergraph::new(nv, 1, vwgt, &pins, costs)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After any sequence of engine moves, the gain of every unlocked
        /// vertex equals the from-scratch recompute, and the candidates
        /// come out best-first, each once, never a moved vertex.
        #[test]
        fn engine_gains_match_recompute(
            hg in weighted_hg_strategy(14, 20),
            seed in 0u64..1000,
            picks in proptest::collection::vec(0usize..1000, 0..=14),
        ) {
            let nvtx = hg.nvtx();
            let side: Vec<u8> =
                (0..nvtx).map(|v| ((v as u64 * 2654435761 + seed) >> 3) as u8 & 1).collect();
            let mut state = BisectState::new(&hg, side);
            let mut gains = Gains::new(&state);
            let mut unlocked: Vec<usize> = (0..nvtx).collect();
            for pick in picks {
                if unlocked.is_empty() {
                    break;
                }
                let v = unlocked.swap_remove(pick % unlocked.len());
                gains.move_vertex(&mut state, v);
                let fresh = BisectState::new(&hg, state.side.clone());
                prop_assert_eq!(state.cut, fresh.cut);
                for &u in &unlocked {
                    prop_assert_eq!(gains.gain(u), fresh.gain(u), "vertex {} after moving {}", u, v);
                }
            }
            let mut last = None;
            while let Some(v) = gains.pop() {
                prop_assert!(unlocked.contains(&v), "popped moved vertex {}", v);
                let key = (gains.gain(v), v);
                prop_assert!(last.is_none_or(|l| key < l), "pop order: {:?} after {:?}", key, last);
                last = Some(key);
            }
        }
    }

    fn path_hg(n: usize) -> Hypergraph {
        let nets: Vec<Vec<u32>> = (0..n as u32 - 1).map(|i| vec![i, i + 1]).collect();
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(n, 1, vec![1; n], &nets, costs)
    }

    fn limits(hg: &Hypergraph, eps: f64) -> [Vec<u64>; 2] {
        let w: Vec<u64> = hg
            .total_weights()
            .iter()
            .map(|&t| ((t as f64 / 2.0) * (1.0 + eps)).ceil() as u64)
            .collect();
        [w.clone(), w]
    }

    #[test]
    fn state_tracks_cut_incrementally() {
        let hg = path_hg(4);
        let mut st = BisectState::new(&hg, vec![0, 1, 0, 1]);
        assert_eq!(st.cut, 3); // all three path nets cut
        st.apply_move(1); // -> 0,0,0,1
        assert_eq!(st.cut, 1);
        let reference = BisectState::new(&hg, st.side.clone());
        assert_eq!(st.cut, reference.cut);
    }

    #[test]
    fn apply_move_is_involution() {
        let hg = path_hg(6);
        let mut st = BisectState::new(&hg, vec![0, 1, 0, 1, 0, 1]);
        let (cut0, w0) = (st.cut, st.part_w.clone());
        st.apply_move(2);
        st.apply_move(2);
        assert_eq!(st.cut, cut0);
        assert_eq!(st.part_w, w0);
    }

    #[test]
    fn gain_matches_recompute_after_moves() {
        let hg = path_hg(8);
        let mut st = BisectState::new(&hg, vec![0, 0, 1, 1, 0, 1, 0, 1]);
        for v in [0usize, 3, 5] {
            st.apply_move(v);
        }
        let fresh = BisectState::new(&hg, st.side.clone());
        for v in 0..8 {
            assert_eq!(st.gain(v), fresh.gain(v), "vertex {v}");
        }
    }

    #[test]
    fn fm_untangles_alternating_path() {
        let hg = path_hg(8);
        let mut side = vec![0u8, 1, 0, 1, 0, 1, 0, 1];
        // Slack of one unit: FM needs headroom >= max vertex weight to
        // hill-climb (with zero slack no single move is ever feasible).
        let maxw = limits(&hg, 0.26); // ceil(4 * 1.26) = 6... capped below
        let maxw = [vec![maxw[0][0].min(5)], vec![maxw[1][0].min(5)]];
        let (_, cut) = fm_refine(&hg, &mut side, &maxw);
        assert_eq!(cut, 1, "a path bisects with a single cut net: {side:?}");
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((3..=5).contains(&w0), "balance within slack: {side:?}");
    }

    #[test]
    fn fm_restores_balance_when_infeasible() {
        let hg = path_hg(10);
        let mut side = vec![0u8; 10]; // everything on side 0: infeasible
        fm_refine(&hg, &mut side, &limits(&hg, 0.05));
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((4..=6).contains(&w0), "rebalanced to ~half: {side:?}");
    }

    #[test]
    fn fm_respects_weight_limits() {
        let hg = path_hg(12);
        let maxw = limits(&hg, 0.0);
        let mut side: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        fm_refine(&hg, &mut side, &maxw);
        let w0 = side.iter().filter(|&&s| s == 0).count() as u64;
        assert!(w0 <= maxw[0][0] && (12 - w0) <= maxw[1][0]);
    }

    #[test]
    fn fm_never_worsens_cut() {
        // Random-ish fixed assignment on a grid of overlapping nets.
        let nets: Vec<Vec<u32>> =
            vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 0], vec![1, 3, 5], vec![0, 3]];
        let hg = Hypergraph::new(6, 1, vec![1; 6], &nets, vec![1, 2, 3, 4, 5]);
        let start = vec![0u8, 1, 1, 0, 1, 0];
        let start_cut = BisectState::new(&hg, start.clone()).cut;
        let mut side = start;
        let (_, cut) = fm_refine(&hg, &mut side, &limits(&hg, 0.1));
        assert!(cut <= start_cut);
        assert_eq!(cut, BisectState::new(&hg, side).cut);
    }
}
