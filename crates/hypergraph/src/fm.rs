//! Fiduccia–Mattheyses bisection refinement and the gain engine under it.
//!
//! [`Gains`] holds the textbook delta-gain rules and an indexed max-heap
//! (one entry per candidate, re-keyed in place, at most once per move)
//! once, for both users: FM refinement here and greedy growing in
//! `initial`. FM adds hill climbing with best-prefix rollback and a
//! balance mode that lets infeasible partitions walk back into the
//! balance envelope by accepting overweight-reducing moves regardless of
//! gain.
//!
//! A candidate whose move would break balance leaves the heap for
//! [`Deferred`] and stays there, repriced on every gain change, until it
//! is moved or the pass ends. Each FM step moves the better by `(gain,
//! id)` of the heap's best movable candidate and the best deferred one
//! that fits now. With one constraint in a feasible state, a move off side
//! `s` fits iff `w(v) ≤ maxw[1−s] − part_w[1−s]`, so each side keeps a max
//! tree over all vertices in `(weight, id)` order and the second question
//! is one prefix maximum per side. Multi-constraint and rebalancing steps
//! scan the deferred list instead. Either way a step picks what popping
//! every candidate best-first and re-pushing the blocked ones after each
//! move would pick (the loop kept as the test oracle
//! `fm_pass_reference`), because every key in both structures is the
//! vertex's current gain.

use crate::hg::Hypergraph;
use crate::pool::Pool;

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
    /// Builds the incremental state for an assignment, its pin counts
    /// taken from `pool`.
    pub(crate) fn new(hg: &'a Hypergraph, side: Vec<u8>, pool: &mut Pool) -> Self {
        assert_eq!(side.len(), hg.nvtx());
        let ncon = hg.ncon();
        let mut part_w = [pool.filled(ncon, 0u64), pool.filled(ncon, 0u64)];
        for v in 0..hg.nvtx() {
            for c in 0..ncon {
                part_w[side[v] as usize][c] += hg.vweight(v)[c];
            }
        }
        let mut pins = [pool.filled(hg.nnets(), 0u32), pool.filled(hg.nnets(), 0u32)];
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

    /// The assignment, with the pin counts and weights given back to
    /// `pool`.
    pub(crate) fn into_side(self, pool: &mut Pool) -> Vec<u8> {
        for v in self.pins {
            pool.give(v);
        }
        for v in self.part_w {
            pool.give(v);
        }
        self.side
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

/// Candidate key `(gain, vertex)`: the order in which [`Gains::pop`]
/// returns candidates.
pub(crate) type Key = (i64, u32);

/// The key of an empty [`MaxTree`] slot, below every candidate's.
const NO_KEY: Key = (i64::MIN, 0);

/// Max segment tree over `n` slots of [`Key`]s (leaves at `n..2n`).
#[derive(Default)]
struct MaxTree(Vec<Key>);

impl MaxTree {
    fn new(n: usize, pool: &mut Pool) -> Self {
        MaxTree(pool.filled(2 * n, NO_KEY))
    }

    fn set(&mut self, slot: usize, key: Key) {
        let mut i = self.0.len() / 2 + slot;
        self.0[i] = key;
        while i > 1 {
            i /= 2;
            let max = self.0[2 * i].max(self.0[2 * i + 1]);
            if self.0[i] == max {
                break; // the ancestors already agree
            }
            self.0[i] = max;
        }
    }

    /// Largest key in slots `0..end`.
    fn prefix_max(&self, end: usize) -> Key {
        let n = self.0.len() / 2;
        let (mut lo, mut hi) = (n, n + end);
        let mut best = NO_KEY;
        while lo < hi {
            if lo % 2 == 1 {
                best = best.max(self.0[lo]);
                lo += 1;
            }
            if hi % 2 == 1 {
                hi -= 1;
                best = best.max(self.0[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        best
    }
}

/// `Deferred::at` of a vertex that is not deferred.
const NOT_DEFERRED: u32 = u32::MAX;

/// FM's balance-blocked candidates, out of the heap at their current
/// gains. One lives through an [`fm_refine`] call: built on its first
/// deferral, emptied after every pass.
#[derive(Default)]
pub(crate) struct Deferred {
    /// The deferred vertices with their sides, in no order.
    list: Vec<(u32, u8)>,
    /// Each vertex's index in `list`, or [`NOT_DEFERRED`].
    at: Vec<u32>,
    /// Single-constraint hypergraphs only: vertex weights in `(weight,
    /// id)` order, each vertex's slot in that order, and per side a max
    /// tree of the deferred vertices' keys by slot.
    sorted_w: Vec<u64>,
    slot: Vec<u32>,
    trees: [MaxTree; 2],
}

impl Deferred {
    fn contains(&self, v: usize) -> bool {
        self.at.get(v).is_some_and(|&i| i != NOT_DEFERRED)
    }

    fn insert(&mut self, hg: &Hypergraph, v: usize, side: u8, key: Key, pool: &mut Pool) {
        if self.at.is_empty() {
            self.build(hg, pool);
        }
        self.at[v] = self.list.len() as u32;
        self.list.push((v as u32, side));
        self.set_key(v, side, key);
    }

    fn build(&mut self, hg: &Hypergraph, pool: &mut Pool) {
        let n = hg.nvtx();
        self.list = pool.with_capacity(n);
        self.at = pool.filled(n, NOT_DEFERRED);
        if hg.ncon() == 1 {
            let mut order: Vec<(u64, u32)> = pool.with_capacity(n);
            order.extend((0..n).map(|v| (hg.vweight(v)[0], v as u32)));
            order.sort_unstable();
            self.sorted_w = pool.with_capacity(n);
            self.sorted_w.extend(order.iter().map(|&(w, _)| w));
            self.slot = pool.filled(n, 0);
            for (i, &(_, v)) in order.iter().enumerate() {
                self.slot[v as usize] = i as u32;
            }
            pool.give(order);
            self.trees = [MaxTree::new(n, pool), MaxTree::new(n, pool)];
        }
    }

    /// Gives every array back to `pool`.
    fn recycle(self, pool: &mut Pool) {
        let [t0, t1] = self.trees;
        pool.give(self.list);
        pool.give(self.at);
        pool.give(self.sorted_w);
        pool.give(self.slot);
        pool.give(t0.0);
        pool.give(t1.0);
    }

    fn set_key(&mut self, v: usize, side: u8, key: Key) {
        if !self.slot.is_empty() {
            self.trees[side as usize].set(self.slot[v] as usize, key);
        }
    }

    fn reprice(&mut self, v: usize, key: Key) {
        let side = self.list[self.at[v] as usize].1;
        self.set_key(v, side, key);
    }

    fn remove(&mut self, v: usize) {
        let i = self.at[v] as usize;
        let (_, side) = self.list.swap_remove(i);
        if let Some(&(u, _)) = self.list.get(i) {
            self.at[u as usize] = i as u32;
        }
        self.at[v] = NOT_DEFERRED;
        self.set_key(v, side, NO_KEY);
    }

    fn clear(&mut self) {
        while let Some((v, side)) = self.list.pop() {
            self.at[v as usize] = NOT_DEFERRED;
            self.set_key(v as usize, side, NO_KEY);
        }
    }
}

/// `Gains::pos` of a vertex that is not in the heap.
const NOT_QUEUED: u32 = u32::MAX;

/// The gain engine shared by FM refinement and greedy growing: every
/// vertex's FM gain, kept current by the textbook delta-gain rules (a
/// move touches a net's pins only at the net's critical transitions),
/// plus an indexed max-heap of candidates. The heap holds one [`Key`] per
/// candidate, the `(gain, vertex)` snapshot taken when the vertex was last
/// (re-)keyed, and `pos` holds each vertex's slot in it; [`Gains::push`]
/// re-keys a candidate in place, so the heap never holds more than `nvtx`
/// entries and [`Gains::pop`] returns the arg-max gain with ties to the
/// highest vertex id. A move applies all its delta-gain rules first and
/// then re-keys each vertex whose gain they changed once. Moved vertices
/// are locked and leave the heap.
///
/// FM also parks popped candidates whose moves are balance-blocked in
/// [`Deferred`] ([`Gains::defer`]); a gain change reprices a deferred
/// vertex there instead of pushing it. Greedy growing defers nothing, so
/// its pop order is the heap's alone.
pub(crate) struct Gains {
    gain: Vec<i64>,
    locked: Vec<bool>,
    heap: Vec<Key>,
    /// Each vertex's slot in `heap`, or [`NOT_QUEUED`].
    pos: Vec<u32>,
    /// The vertices whose gain the current move changed, each listed
    /// once (`stamped`).
    touched: Vec<u32>,
    stamped: Vec<bool>,
    deferred: Deferred,
}

impl Gains {
    /// Gains of every vertex of `state`, in one sweep over nets, its
    /// arrays taken from `pool`. Nothing is a candidate until pushed.
    pub(crate) fn new(state: &BisectState<'_>, pool: &mut Pool) -> Self {
        let hg = state.hg;
        let n = hg.nvtx();
        let mut gain = pool.filled(n, 0i64);
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
            locked: pool.filled(n, false),
            heap: pool.with_capacity(n),
            pos: pool.filled(n, NOT_QUEUED),
            touched: pool.with_capacity(n),
            stamped: pool.filled(n, false),
            deferred: Deferred::default(),
        }
    }

    /// Gives every array back to `pool`, the deferred set's included.
    pub(crate) fn recycle(self, pool: &mut Pool) {
        pool.give(self.gain);
        pool.give(self.locked);
        pool.give(self.heap);
        pool.give(self.pos);
        pool.give(self.touched);
        pool.give(self.stamped);
        self.deferred.recycle(pool);
    }

    /// Current gain of `v` (meaningful while `v` is unlocked).
    #[cfg(test)]
    pub(crate) fn gain(&self, v: usize) -> i64 {
        self.gain[v]
    }

    fn key(&self, v: usize) -> Key {
        (self.gain[v], v as u32)
    }

    /// Makes `v` a candidate at its current gain, re-keying it if it
    /// already is one; a deferred `v` is repriced where it is.
    pub(crate) fn push(&mut self, v: usize) {
        debug_assert!(!self.locked[v], "pushed moved vertex {v}");
        if self.deferred.contains(v) {
            self.deferred.reprice(v, self.key(v));
            return;
        }
        let slot = match self.pos[v] {
            NOT_QUEUED => {
                self.heap.push(NO_KEY);
                self.heap.len() - 1
            }
            i => i as usize,
        };
        self.place(slot, self.key(v));
    }

    /// Puts `key` into heap slot `i` (whose old entry is overwritten)
    /// and moves it up or down until the heap is in order again.
    fn place(&mut self, mut i: usize, key: Key) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] > key {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].1 as usize] = i as u32;
            i = parent;
        }
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1] > self.heap[child] {
                child += 1;
            }
            if self.heap[child] < key {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].1 as usize] = i as u32;
            i = child;
        }
        self.heap[i] = key;
        self.pos[key.1 as usize] = i as u32;
    }

    /// Takes `v` out of the heap.
    fn remove(&mut self, v: usize) {
        let i = self.pos[v] as usize;
        self.pos[v] = NOT_QUEUED;
        let last = self.heap.pop().expect("a queued vertex is in the heap");
        if i < self.heap.len() {
            self.place(i, last);
        }
    }

    /// Parks `v`, just popped, in the deferred set.
    fn defer(&mut self, state: &BisectState<'_>, v: usize, pool: &mut Pool) {
        let key = self.key(v);
        self.deferred.insert(state.hg, v, state.side[v], key, pool);
    }

    /// The best deferred candidate whose move [`fits`] `state` now, and
    /// per side the deferred vertex alone on it, if any.
    fn best_deferred(
        &self,
        state: &BisectState<'_>,
        maxw: &[Vec<u64>; 2],
        over: u64,
    ) -> (Option<usize>, [Option<usize>; 2]) {
        let d = &self.deferred;
        let mut best = NO_KEY;
        let mut lone = [None; 2];
        if d.list.is_empty() {
            return (None, lone);
        }
        if !d.slot.is_empty() && over == 0 {
            for s in 0..2 {
                if state.count[s] == 1 {
                    let key = d.trees[s].prefix_max(d.sorted_w.len());
                    lone[s] = (key != NO_KEY).then_some(key.1 as usize);
                } else {
                    let room = maxw[1 - s][0] - state.part_w[1 - s][0];
                    let end = d.sorted_w.partition_point(|&w| w <= room);
                    best = best.max(d.trees[s].prefix_max(end));
                }
            }
        } else {
            for &(v, s) in &d.list {
                let (v, s) = (v as usize, s as usize);
                if state.count[s] == 1 {
                    lone[s] = Some(v);
                } else if fits(state, maxw, over, v) {
                    best = best.max(self.key(v));
                }
            }
        }
        ((best != NO_KEY).then_some(best.1 as usize), lone)
    }

    /// Removes and returns the best candidate, or `None` when none is left.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let v = self.heap.first()?.1 as usize;
        self.remove(v);
        Some(v)
    }

    /// Moves `v` to the other side and locks it, updating the gains of
    /// its unlocked net-mates and making each updated one a candidate.
    pub(crate) fn move_vertex(&mut self, state: &mut BisectState<'_>, v: usize) {
        debug_assert_eq!(self.gain[v], state.gain(v), "stale gain for vertex {v}");
        if self.pos[v] != NOT_QUEUED {
            self.remove(v);
        }
        let from = state.side[v];
        self.net_rules(state, v, 1 - from, 1);
        state.apply_move(v);
        self.locked[v] = true;
        self.net_rules(state, v, from, -1);
        let touched = std::mem::take(&mut self.touched);
        for &u in &touched {
            self.stamped[u as usize] = false;
            self.push(u as usize);
        }
        self.touched = touched;
        self.touched.clear();
    }

    /// Adds `c` to the gain of `u` and lists `u` for re-keying.
    fn bump(&mut self, u: usize, c: i64) {
        self.gain[u] += c;
        if !self.stamped[u] {
            self.stamped[u] = true;
            self.touched.push(u as u32);
        }
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
                            self.bump(u, c);
                        }
                    }
                }
                1 => {
                    for &u in hg.pins_of(n) {
                        let u = u as usize;
                        if u != v && !self.locked[u] && state.side[u] == s {
                            self.bump(u, -c);
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
/// The refined assignment is written back into `side`; the scratch comes
/// from `pool` and goes back to it.
pub(crate) fn fm_refine(
    hg: &Hypergraph,
    side: &mut [u8],
    maxw: &[Vec<u64>; 2],
    pool: &mut Pool,
) -> (u64, u64) {
    let mut state = BisectState::new(hg, pool.copied(side), pool);
    let mut deferred = Deferred::default();
    for _ in 0..FM_PASSES {
        if !fm_pass(&mut state, maxw, &mut deferred, pool) {
            break;
        }
    }
    deferred.recycle(pool);
    side.copy_from_slice(&state.side);
    let key = (state.overweight(maxw), state.cut);
    let refined = state.into_side(pool);
    pool.give(refined);
    key
}

/// Whether `v`'s move keeps its target side within `maxw` or, in a state
/// `over` its limits, strictly reduces the total overweight.
fn fits(state: &BisectState<'_>, maxw: &[Vec<u64>; 2], over: u64, v: usize) -> bool {
    let hg = state.hg;
    let from = state.side[v] as usize;
    let to = 1 - from;
    let w = hg.vweight(v);
    if (0..hg.ncon()).all(|c| state.part_w[to][c] + w[c] <= maxw[to][c]) {
        return true;
    }
    over > 0 && {
        let mut new_over = 0u64;
        for c in 0..hg.ncon() {
            new_over += (state.part_w[from][c] - w[c]).saturating_sub(maxw[from][c]);
            new_over += (state.part_w[to][c] + w[c]).saturating_sub(maxw[to][c]);
        }
        new_over < over
    }
}

/// One FM pass. Returns true if the pass improved (cut or overweight).
///
/// Each step moves the best candidate by `(gain, id)` that [`fits`] and
/// does not empty its side, from the heap or from `deferred`. A candidate
/// alone on its side that ranks above the move made is dropped for the
/// pass, until a gain change makes it a candidate again.
fn fm_pass(
    state: &mut BisectState<'_>,
    maxw: &[Vec<u64>; 2],
    deferred: &mut Deferred,
    pool: &mut Pool,
) -> bool {
    let hg = state.hg;
    let nvtx = hg.nvtx();
    if nvtx == 0 {
        return false;
    }
    let mut gains = Gains::new(state, pool);
    gains.deferred = std::mem::take(deferred);

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
    let mut seeded = pool.filled(nvtx, false);
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
    let mut history: Vec<u32> = pool.with_capacity(nvtx);
    let mut best_len = 0usize;
    let abort_limit = 300.max(nvtx / 8);
    // Popped candidates alone on their side: a move may never empty a
    // side, since with both sides nonempty on entry any all-on-one-side
    // assignment is strictly worse for the recursive K-way driver.
    let mut held: Vec<usize> = pool.with_capacity(nvtx);

    loop {
        let over = state.overweight(maxw);
        held.clear();
        let mut top = None;
        while let Some(v) = gains.pop() {
            if state.count[state.side[v] as usize] == 1 {
                held.push(v);
            } else if fits(state, maxw, over, v) {
                top = Some(v);
                break;
            } else {
                gains.defer(state, v, pool);
            }
        }
        let (parked, lone) = gains.best_deferred(state, maxw, over);
        let Some(v) = top.into_iter().chain(parked).max_by_key(|&u| gains.key(u)) else {
            break;
        };
        if top != Some(v) {
            gains.deferred.remove(v);
            if let Some(t) = top {
                gains.push(t);
            }
        }
        // Popping best-first drops the lone candidates ranked above `v`
        // and reaches none ranked below it.
        let chosen = gains.key(v);
        for &u in &held {
            if gains.key(u) < chosen {
                gains.push(u);
            }
        }
        for u in lone.into_iter().flatten() {
            if gains.key(u) > chosen {
                gains.deferred.remove(u);
            }
        }

        gains.move_vertex(state, v);
        history.push(v as u32);

        let key = (state.overweight(maxw), state.cut);
        if key < best_key {
            best_key = key;
            best_len = history.len();
        } else if history.len() - best_len > abort_limit {
            break;
        }
    }
    gains.deferred.clear();
    *deferred = std::mem::take(&mut gains.deferred);
    gains.recycle(pool);
    pool.give(seeded);
    pool.give(held);

    // Roll back to the best prefix (apply_move is an involution).
    for &v in history[best_len..].iter().rev() {
        state.apply_move(v as usize);
    }
    pool.give(history);
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

    /// The pass FM used to run, kept as the oracle: every popped candidate
    /// whose move is balance-blocked is pushed back after the next move.
    fn fm_pass_reference(state: &mut BisectState<'_>, maxw: &[Vec<u64>; 2]) -> bool {
        let hg = state.hg;
        let nvtx = hg.nvtx();
        if nvtx == 0 {
            return false;
        }
        let mut gains = Gains::new(state, &mut Pool::default());

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
            if state.count[from as usize] == 1 {
                continue;
            }
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
                    new_over +=
                        (state.part_w[to as usize][c] + w).saturating_sub(maxw[to as usize][c]);
                }
                new_over < cur_over
            };
            if !to_fits && !reduces_over {
                deferred.push(v);
                continue;
            }

            gains.move_vertex(state, v);
            history.push(v as u32);
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

        for &v in history[best_len..].iter().rev() {
            state.apply_move(v as usize);
        }
        best_key < (start_over, start_cut)
    }

    /// Bisections in which balance blocks moves for long: 2–20 vertices
    /// (so a side can shrink to one), one or two constraints, weights
    /// 1–40 plus up to two vertices heavier than any side's slack, a
    /// random start (often infeasible) and per-side limits of 30–70 % of
    /// the total with 0–20 % slack.
    fn blocked_bisection_strategy() -> impl Strategy<Value = (Hypergraph, Vec<u8>, [Vec<u64>; 2])> {
        (2..=20usize, 1..=2usize).prop_flat_map(|(nv, ncon)| {
            let net = (proptest::collection::vec(0..nv as u32, 1..=nv.min(6)), 1u64..=4);
            (
                proptest::collection::vec(net, 0..=24),
                proptest::collection::vec(1u64..=40, nv * ncon),
                proptest::collection::vec(0..nv, 0..=2),
                proptest::collection::vec(0u8..=1, nv),
                (30u64..=70, 0u64..=20, 0u64..=20),
            )
                .prop_map(
                    move |(nets, mut vwgt, heavy, side, (share0, slack0, slack1))| {
                        for v in heavy {
                            for w in &mut vwgt[v * ncon..(v + 1) * ncon] {
                                *w += 400;
                            }
                        }
                        let (mut pins, costs): (Vec<Vec<u32>>, Vec<u64>) = nets.into_iter().unzip();
                        for net in &mut pins {
                            net.sort_unstable();
                            net.dedup();
                        }
                        let hg = Hypergraph::new(nv, ncon, vwgt, &pins, costs);
                        let limit = |share: u64, slack: u64| -> Vec<u64> {
                            hg.total_weights()
                                .iter()
                                .map(|&t| t * share * (100 + slack) / 10_000)
                                .collect()
                        };
                        let maxw = [limit(share0, slack0), limit(100 - share0, slack1)];
                        (hg, side, maxw)
                    },
                )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Over up to `FM_PASSES` passes sharing one `Deferred`, the pass
        /// that keeps blocked candidates out of the heap makes exactly the
        /// moves of the one that re-pushes them after every move.
        #[test]
        fn fm_pass_matches_reference((hg, side, maxw) in blocked_bisection_strategy()) {
            let mut state = BisectState::new(&hg, side.clone(), &mut Pool::default());
            let mut reference = BisectState::new(&hg, side, &mut Pool::default());
            let mut deferred = Deferred::default();
            for pass in 0..FM_PASSES {
                let improved = fm_pass(&mut state, &maxw, &mut deferred, &mut Pool::default());
                prop_assert_eq!(improved, fm_pass_reference(&mut reference, &maxw), "pass {}", pass);
                prop_assert_eq!(&state.side, &reference.side, "pass {}", pass);
                prop_assert_eq!(
                    (state.overweight(&maxw), state.cut),
                    (reference.overweight(&maxw), reference.cut)
                );
                if !improved {
                    break;
                }
            }
        }
    }

    /// A deferred candidate left alone on its side and ranked above the
    /// move made is dropped for the pass, as popping best-first drops it
    /// (the strategy above reaches this about once in 10⁴ cases).
    #[test]
    fn fm_pass_drops_a_deferred_candidate_alone_on_its_side() {
        let vwgt = vec![33, 38, 16, 408, 17, 2, 38, 19];
        let hg = Hypergraph::new(4, 2, vwgt, &[vec![0, 1]], vec![4]);
        let maxw = [vec![39, 177], vec![68, 306]];
        let mut state = BisectState::new(&hg, vec![1, 0, 0, 0], &mut Pool::default());
        let mut reference = BisectState::new(&hg, vec![1, 0, 0, 0], &mut Pool::default());
        let mut deferred = Deferred::default();
        for _ in 0..FM_PASSES {
            let improved = fm_pass(&mut state, &maxw, &mut deferred, &mut Pool::default());
            assert_eq!(improved, fm_pass_reference(&mut reference, &maxw));
            assert_eq!(state.side, reference.side);
        }
    }

    /// The unlocked vertices whose gains the delta-gain rules change when
    /// `v` moves, read off the pin counts before and after the move: for
    /// each net of `v`, every other pin when the side `v` enters was
    /// empty or the side it leaves becomes empty, else the one pin on
    /// that side when it holds exactly one.
    fn rule_targets(
        before: &BisectState<'_>,
        after: &BisectState<'_>,
        locked: &[bool],
        v: usize,
    ) -> Vec<usize> {
        let hg = before.hg;
        let (from, to) = (before.side[v], after.side[v]);
        let mut out = Vec::new();
        for &n in hg.nets_of(v) {
            let n = n as usize;
            for (state, s) in [(before, to), (after, from)] {
                let count = state.pins_on(n, s);
                for &u in hg.pins_of(n) {
                    let u = u as usize;
                    let hit = count == 0 || (count == 1 && state.side[u] == s);
                    if u != v && !locked[u] && hit {
                        out.push(u);
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::ORACLE_CASES))]

        /// Under any interleaving of pushes, pops and moves of arbitrary
        /// vertices (a queued one included), the gain of every unlocked
        /// vertex equals the from-scratch recompute, every pop returns the
        /// brute-force arg-max `(gain, id)` over the live candidates (the
        /// pushed vertices and those a move's rules touched, less the
        /// popped and moved ones), and the heap holds each live candidate
        /// once, so never more than `nvtx` entries.
        #[test]
        fn engine_gains_match_recompute(
            hg in weighted_hg_strategy(14, 20),
            seed in 0u64..1000,
            ops in proptest::collection::vec((0u8..3, 0usize..1000), 0..=40),
        ) {
            let nvtx = hg.nvtx();
            let side: Vec<u8> =
                (0..nvtx).map(|v| ((v as u64 * 2654435761 + seed) >> 3) as u8 & 1).collect();
            let mut state = BisectState::new(&hg, side, &mut Pool::default());
            let mut gains = Gains::new(&state, &mut Pool::default());
            let mut locked = vec![false; nvtx];
            let mut live = std::collections::BTreeSet::new();
            for (op, pick) in ops {
                let unlocked: Vec<usize> = (0..nvtx).filter(|&u| !locked[u]).collect();
                if unlocked.is_empty() {
                    break;
                }
                let fresh = BisectState::new(&hg, state.side.clone(), &mut Pool::default());
                match op {
                    0 => {
                        let v = unlocked[pick % unlocked.len()];
                        gains.push(v);
                        live.insert(v);
                    }
                    1 => {
                        let want = live.iter().copied().max_by_key(|&u| (fresh.gain(u), u));
                        prop_assert_eq!(gains.pop(), want);
                        if let Some(v) = want {
                            live.remove(&v);
                        }
                    }
                    _ => {
                        let v = unlocked[pick % unlocked.len()];
                        gains.move_vertex(&mut state, v);
                        let after = BisectState::new(&hg, state.side.clone(), &mut Pool::default());
                        locked[v] = true;
                        live.remove(&v);
                        live.extend(rule_targets(&fresh, &after, &locked, v));
                        prop_assert_eq!(state.cut, after.cut);
                        for u in (0..nvtx).filter(|&u| !locked[u]) {
                            prop_assert_eq!(gains.gain(u), after.gain(u), "vertex {} after moving {}", u, v);
                        }
                    }
                }
                prop_assert_eq!(gains.heap.len(), live.len());
                prop_assert!(gains.heap.len() <= nvtx);
            }
            let mut last = None;
            while let Some(v) = gains.pop() {
                prop_assert!(live.remove(&v), "popped {} which is not a live candidate", v);
                let key = (gains.gain(v), v);
                prop_assert!(last.is_none_or(|l| key < l), "pop order: {:?} after {:?}", key, last);
                last = Some(key);
            }
            prop_assert!(live.is_empty(), "live candidates never popped: {:?}", live);
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
        let mut st = BisectState::new(&hg, vec![0, 1, 0, 1], &mut Pool::default());
        assert_eq!(st.cut, 3); // all three path nets cut
        st.apply_move(1); // -> 0,0,0,1
        assert_eq!(st.cut, 1);
        let reference = BisectState::new(&hg, st.side.clone(), &mut Pool::default());
        assert_eq!(st.cut, reference.cut);
    }

    #[test]
    fn apply_move_is_involution() {
        let hg = path_hg(6);
        let mut st = BisectState::new(&hg, vec![0, 1, 0, 1, 0, 1], &mut Pool::default());
        let (cut0, w0) = (st.cut, st.part_w.clone());
        st.apply_move(2);
        st.apply_move(2);
        assert_eq!(st.cut, cut0);
        assert_eq!(st.part_w, w0);
    }

    #[test]
    fn gain_matches_recompute_after_moves() {
        let hg = path_hg(8);
        let mut st = BisectState::new(&hg, vec![0, 0, 1, 1, 0, 1, 0, 1], &mut Pool::default());
        for v in [0usize, 3, 5] {
            st.apply_move(v);
        }
        let fresh = BisectState::new(&hg, st.side.clone(), &mut Pool::default());
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
        let (_, cut) = fm_refine(&hg, &mut side, &maxw, &mut Pool::default());
        assert_eq!(cut, 1, "a path bisects with a single cut net: {side:?}");
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((3..=5).contains(&w0), "balance within slack: {side:?}");
    }

    #[test]
    fn fm_restores_balance_when_infeasible() {
        let hg = path_hg(10);
        let mut side = vec![0u8; 10]; // everything on side 0: infeasible
        fm_refine(&hg, &mut side, &limits(&hg, 0.05), &mut Pool::default());
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((4..=6).contains(&w0), "rebalanced to ~half: {side:?}");
    }

    #[test]
    fn fm_respects_weight_limits() {
        let hg = path_hg(12);
        let maxw = limits(&hg, 0.0);
        let mut side: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
        fm_refine(&hg, &mut side, &maxw, &mut Pool::default());
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
        let start_cut = BisectState::new(&hg, start.clone(), &mut Pool::default()).cut;
        let mut side = start;
        let (_, cut) = fm_refine(&hg, &mut side, &limits(&hg, 0.1), &mut Pool::default());
        assert!(cut <= start_cut);
        assert_eq!(cut, BisectState::new(&hg, side, &mut Pool::default()).cut);
    }
}
