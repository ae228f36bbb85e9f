//! K-way partitioning by recursive bisection with net splitting.
//!
//! Cut nets are split between the two sub-hypergraphs, so the sum of all
//! bisection cuts equals the connectivity−1 metric of the final K-way
//! partition — the property that makes hypergraph cutsize equal SpMV
//! communication volume (Catalyurek & Aykanat 1999, as used by the paper).

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bisect::multilevel_bisect;
use crate::fm::BisectState;
use crate::hg::Hypergraph;
use crate::metrics;
use crate::pool::Pool;

/// Partitioner configuration: the two values callers choose. Everything
/// else (coarsening target and limits, initial tries, FM passes) is a
/// constant next to the code that reads it.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Allowed K-way load imbalance (`0.03` = the paper's 3%, PaToH's
    /// default).
    pub epsilon: f64,
    /// RNG seed; every run is deterministic given a seed. Each bisection
    /// of the recursion draws from its own generator, seeded from this
    /// seed and the range of parts the bisection splits, so the result
    /// does not depend on how many cores ran the bisections.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { epsilon: 0.03, seed: 1 }
    }
}

/// A K-way partition of hypergraph vertices.
#[derive(Clone, Debug)]
pub struct KwayPartition {
    /// Part id per vertex, in `0..k`.
    pub parts: Vec<u32>,
    /// Number of parts.
    pub k: usize,
}

impl KwayPartition {
    /// Connectivity−1 cutsize against `hg`.
    pub fn connectivity_cut(&self, hg: &Hypergraph) -> u64 {
        metrics::connectivity_minus_one(hg, &self.parts, self.k)
    }

    /// Load imbalance of constraint `c` (0.0 = perfect balance).
    pub fn imbalance(&self, hg: &Hypergraph, c: usize) -> f64 {
        metrics::imbalance(hg, &self.parts, self.k, c)
    }
}

/// Partitions `hg` into `k` parts with at most `cfg.epsilon` imbalance
/// (best effort) minimizing the connectivity−1 metric. While a core is
/// idle, the two halves of a split are bisected at the same time on a
/// helper thread; the result does not depend on how many cores there
/// are.
pub fn partition_kway(hg: &Hypergraph, k: usize, cfg: &PartitionConfig) -> KwayPartition {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    partition_kway_on(hg, k, cfg, Team::new(cores, LEND_MIN_PINS))
}

/// [`partition_kway`] on `team`.
pub(crate) fn partition_kway_on(
    hg: &Hypergraph,
    k: usize,
    cfg: &PartitionConfig,
    team: Team,
) -> KwayPartition {
    assert!(k >= 1, "k must be positive");
    if k == 1 {
        return KwayPartition { parts: vec![0; hg.nvtx()], k };
    }
    let depth = (k as f64).log2().ceil().max(1.0);
    // Spread the global tolerance over bisection levels so the final
    // K-way imbalance stays within epsilon.
    let eps_b = (1.0 + cfg.epsilon).powf(1.0 / depth) - 1.0;
    let parts = recurse(hg, k, 0, eps_b, cfg.seed, Some(&team), &mut Pool::plain());
    KwayPartition { parts, k }
}

/// The fewest pins of a node that lends its buffers to a helper for its
/// right half. A helper costs about a quarter megabyte of resident memory
/// of its own (stack, thread-local and allocator state: measured on
/// Linux with glibc); below this size that is a large share of what the
/// whole partition holds, and the caller bisects both halves itself.
const LEND_MIN_PINS: usize = 1 << 15;

/// The helper threads a partition may start: the calling thread and at
/// most `threads − 1` helpers at a time, for nodes of at least
/// `min_pins` pins. The count of free slots publishes no data (a half
/// and its parts pass through the scope's spawn and join), so it is
/// read and written `Relaxed`.
pub(crate) struct Team {
    free: AtomicUsize,
    min_pins: usize,
}

impl Team {
    pub(crate) fn new(threads: usize, min_pins: usize) -> Team {
        Team { free: AtomicUsize::new(threads.max(1) - 1), min_pins }
    }

    /// Takes a free helper slot, if there is one.
    fn claim(&self) -> bool {
        let take = |free: usize| free.checked_sub(1);
        self.free.fetch_update(Relaxed, Relaxed, take).is_ok()
    }

    fn release(&self) {
        self.free.fetch_add(1, Relaxed);
    }

    /// The pool for `hg`, a node the caller is about to bisect: one that
    /// keeps its buffers, to lend them at the split, while a helper slot
    /// is free and the node is large enough, else a plain one.
    fn pool(&self, hg: &Hypergraph) -> Pool {
        if self.free.load(Relaxed) > 0 && hg.npins() >= self.min_pins {
            Pool::default()
        } else {
            Pool::plain()
        }
    }
}

/// SplitMix64's output function: a bijective 64-bit mix.
fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of the bisection that splits parts `first_part..first_part
/// + k`: each node of the recursion tree owns a distinct part range, so
/// it draws from its own generator, whatever order (or thread) the
/// nodes run in.
pub(crate) fn node_seed(seed: u64, first_part: u32, k: usize) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ u64::from(first_part)) ^ k as u64)
}

/// Recursively bisects `hg` into `k` parts numbered from `first_part`
/// and returns the part of each of its vertices. Buffers come from
/// `pool` and go back to it (see `pool`).
///
/// The calling thread holds the `team` and is the only one to start
/// helpers. At each split it hands its pool to the split's right half,
/// if a helper slot is free, or drops it: a caller's pool holds one
/// bisection's buffers at a time, never a hoard across nodes. A helper
/// bisects its half alone, on the lent pool, trimmed to the half's size.
/// The root's pool is [`Pool::plain`]: the root's bisection is the
/// partition's memory peak, so the root lends nothing, and its halves,
/// the two largest bisections after it, run one after the other. Below
/// them, two bisections that run at once need no more memory than the
/// root's did.
fn recurse(
    hg: &Hypergraph,
    k: usize,
    first_part: u32,
    eps_b: f64,
    seed: u64,
    team: Option<&Team>,
    pool: &mut Pool,
) -> Vec<u32> {
    if k == 1 || hg.nvtx() == 0 {
        return pool.filled(hg.nvtx(), first_part);
    }
    let kl = k.div_ceil(2);
    let kr = k - kl;
    let ratio0 = kl as f64 / k as f64;
    let mut maxw = [hg.total_weights_in(pool), hg.total_weights_in(pool)];
    for (limits, share) in maxw.iter_mut().zip([ratio0, 1.0 - ratio0]) {
        for w in limits.iter_mut() {
            *w = ((*w as f64) * share * (1.0 + eps_b)).ceil() as u64;
        }
    }
    let mut rng = StdRng::seed_from_u64(node_seed(seed, first_part, k));
    let mut side = multilevel_bisect(hg, ratio0, &maxw, &mut rng, pool);
    repair_counts(hg, &mut side, kl, kr, pool);

    // Bisect the two sub-hypergraphs (net splitting), then read each
    // vertex's part off its side's result in vertex order. The caller
    // gives each half a pool of its own (`Team::pool`); a helper bisects
    // its whole subtree on the one it was lent.
    let right_first = first_part + kl as u32;
    let descend = |sub: &Hypergraph, k: usize, first: u32, pool: &mut Pool| match team {
        Some(t) => recurse(sub, k, first, eps_b, seed, team, &mut t.pool(sub)),
        None => recurse(sub, k, first, eps_b, seed, None, pool),
    };
    let halves = match team {
        Some(t) if pool.keeps() && kr > 1 && t.claim() => {
            let mut lent = std::mem::replace(pool, Pool::plain());
            let left = extract_side(hg, &side, 0, pool);
            let right = extract_side(hg, &side, 1, pool);
            lent.trim(size_ratio(&right, hg));
            let halves = std::thread::scope(|scope| {
                let right = &right;
                let helper = scope.spawn(move || {
                    let parts = recurse(right, kr, right_first, eps_b, seed, None, &mut lent);
                    t.release();
                    parts
                });
                [
                    descend(&left, kl, first_part, pool),
                    helper.join().unwrap_or_else(|e| resume_unwind(e)),
                ]
            });
            left.recycle(pool);
            right.recycle(pool);
            halves
        }
        _ => {
            if team.is_some() {
                // The caller lends nothing here: free this node's buffers.
                *pool = Pool::plain();
            }
            let left = extract_side(hg, &side, 0, pool);
            let parts = descend(&left, kl, first_part, pool);
            left.recycle(pool);
            let right = extract_side(hg, &side, 1, pool);
            let right_parts = descend(&right, kr, right_first, pool);
            right.recycle(pool);
            [parts, right_parts]
        }
    };
    let mut parts = pool.with_capacity(hg.nvtx());
    let mut next = [halves[0].iter(), halves[1].iter()];
    parts.extend(side.iter().map(|&s| *next[s as usize].next().expect("one part per vertex")));
    let [l, r] = halves;
    pool.give(l);
    pool.give(r);
    pool.give(side);
    for v in maxw {
        pool.give(v);
    }
    parts
}

/// The largest of `sub`'s vertex, net and pin counts relative to
/// `hg`'s: how far a pool that bisected `hg` can shrink and still serve
/// `sub`'s subtree.
fn size_ratio(sub: &Hypergraph, hg: &Hypergraph) -> f64 {
    let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
    let r = [
        ratio(sub.nvtx(), hg.nvtx()),
        ratio(sub.nnets(), hg.nnets()),
        ratio(sub.npins(), hg.npins()),
    ];
    r.into_iter().fold(0.0, f64::max).min(1.0)
}

/// Ensures side 0 holds at least `kl` vertices and side 1 at least `kr`
/// (whenever the hypergraph has `kl + kr` vertices at all), so every leaf
/// of the recursion can own a nonempty part. The weight caps alone cannot
/// guarantee this: on tiny sub-hypergraphs their `ceil` slack admits
/// splits like 3|1 for `k = 2+2`. Deficits are repaired by moving the
/// least cut-damaging vertices from the surplus side.
fn repair_counts(hg: &Hypergraph, side: &mut [u8], kl: usize, kr: usize, pool: &mut Pool) {
    let nvtx = hg.nvtx();
    if nvtx < kl + kr {
        return; // fewer vertices than parts: emptiness is unavoidable
    }
    let mut count = [0usize, 0usize];
    for &s in side.iter() {
        count[s as usize] += 1;
    }
    let need = [kl, kr];
    for s in 0..2usize {
        if count[s] >= need[s] {
            continue;
        }
        let donor = 1 - s;
        let mut state = BisectState::new(hg, pool.copied(side), pool);
        while count[s] < need[s] {
            // Best-gain movable vertex on the donor side.
            let v = (0..nvtx)
                .filter(|&v| state.side[v] == donor as u8)
                .max_by_key(|&v| state.gain(v))
                .expect("donor side nonempty by counting");
            state.apply_move(v);
            count[s] += 1;
            count[donor] -= 1;
        }
        side.copy_from_slice(&state.side);
        let repaired = state.into_side(pool);
        pool.give(repaired);
    }
}

/// Extracts the sub-hypergraph induced by side `s`: vertices renumbered
/// in order, nets restricted to the side (net splitting), single-pin
/// nets dropped. Its arrays come from `pool`, sized exactly.
fn extract_side(hg: &Hypergraph, side: &[u8], s: u8, pool: &mut Pool) -> Hypergraph {
    let ncon = hg.ncon();
    let mut local_of = pool.filled(hg.nvtx(), u32::MAX);
    let mut nsub = 0u32;
    for v in 0..hg.nvtx() {
        if side[v] == s {
            local_of[v] = nsub;
            nsub += 1;
        }
    }
    let mut vwgt = pool.with_capacity(nsub as usize * ncon);
    for v in (0..hg.nvtx()).filter(|&v| side[v] == s) {
        vwgt.extend_from_slice(hg.vweight(v));
    }
    let kept = |n: usize| hg.pins_of(n).iter().filter(|&&p| local_of[p as usize] != u32::MAX);
    let (mut nnets, mut npins) = (0, 0);
    for n in 0..hg.nnets() {
        let size = kept(n).count();
        if size >= 2 {
            nnets += 1;
            npins += size;
        }
    }
    let mut xpins = pool.with_capacity(nnets + 1);
    xpins.push(0usize);
    let mut pins: Vec<u32> = pool.with_capacity(npins);
    let mut ncost: Vec<u64> = pool.with_capacity(nnets);
    for n in 0..hg.nnets() {
        let start = pins.len();
        pins.extend(kept(n).map(|&p| local_of[p as usize]));
        if pins.len() - start >= 2 {
            xpins.push(pins.len());
            ncost.push(hg.ncost(n));
        } else {
            pins.truncate(start);
        }
    }
    pool.give(local_of);
    Hypergraph::from_csr_in(nsub as usize, ncon, vwgt, ncost, xpins, pins, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::tests::raw_hg_strategy;
    use crate::models::column_net_model;
    use proptest::prelude::*;
    use s2d_gen::denserow::{dense_row_matrix, DenseRowConfig};
    use s2d_gen::fem::fem_like;

    /// The partition on 1, 2 and 4 threads, helpers lending at every
    /// node (`min_pins` 0) so that small inputs start them too.
    fn on_teams(hg: &Hypergraph, k: usize, cfg: &PartitionConfig) -> [Vec<u32>; 3] {
        [1, 2, 4].map(|threads| partition_kway_on(hg, k, cfg, Team::new(threads, 0)).parts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every bisection draws from its own seed, so the partition does
        /// not depend on which thread ran which half. (The gain engine
        /// assumes a net lists each pin once, which the matrix models
        /// guarantee; the merge sorts and dedups the raw nets.)
        #[test]
        fn partition_is_the_same_on_every_team(hg in raw_hg_strategy(), k in 2usize..=12, seed in 0u64..100) {
            let hg = hg.merge_identical_nets();
            let cfg = PartitionConfig { seed, ..Default::default() };
            let [one, two, four] = on_teams(&hg, k, &cfg);
            prop_assert_eq!(&one, &two);
            prop_assert_eq!(&one, &four);
        }

        /// Raw nets straight from the constructor, repeated pins
        /// included: the gain engine's debug checks hold, and every
        /// vertex gets a part.
        #[test]
        fn partition_runs_on_raw_hypergraphs(hg in raw_hg_strategy(), k in 2usize..=12, seed in 0u64..100) {
            let cfg = PartitionConfig { seed, ..Default::default() };
            let parts = partition_kway(&hg, k, &cfg).parts;
            prop_assert_eq!(parts.len(), hg.nvtx());
            prop_assert!(parts.iter().all(|&p| (p as usize) < k));
        }
    }

    #[test]
    fn benchmark_shaped_partitions_are_the_same_on_every_team() {
        let n = 1 << 11;
        let dense =
            DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true };
        let inputs = [fem_like(1 << 13, 27.0, 27, 5), dense_row_matrix(&dense, 5)];
        for a in &inputs {
            let hg = column_net_model(a, true);
            for k in [8, 64] {
                let cfg = PartitionConfig::default();
                let [one, two, four] = on_teams(&hg, k, &cfg);
                assert!(one == two && one == four, "k = {k}: the team changed the partition");
                assert_eq!(partition_kway(&hg, k, &cfg).parts, one, "k = {k}");
            }
        }
    }

    fn grid_hg(rows: usize, cols: usize) -> Hypergraph {
        // 2D grid as a graph (2-pin nets): classic partitioning testbed.
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        let mut nets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    nets.push(vec![id(r, c), id(r, c + 1)]);
                }
                if r + 1 < rows {
                    nets.push(vec![id(r, c), id(r + 1, c)]);
                }
            }
        }
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(rows * cols, 1, vec![1; rows * cols], &nets, costs)
    }

    #[test]
    fn kway_covers_all_parts() {
        let hg = grid_hg(16, 16);
        let p = partition_kway(&hg, 8, &PartitionConfig::default());
        assert_eq!(p.parts.len(), 256);
        let mut seen = vec![false; 8];
        for &x in &p.parts {
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every part must be used");
    }

    #[test]
    fn kway_respects_epsilon_on_unit_weights() {
        let hg = grid_hg(16, 16);
        let cfg = PartitionConfig { epsilon: 0.05, ..Default::default() };
        let p = partition_kway(&hg, 4, &cfg);
        let imb = p.imbalance(&hg, 0);
        assert!(imb <= 0.0501, "imbalance {imb} exceeds tolerance");
    }

    #[test]
    fn kway_cut_is_reasonable_on_grid() {
        // 16x16 grid into 4 parts: ideal cut ~ 2*16 = 32 edges; accept 2x.
        let hg = grid_hg(16, 16);
        let p = partition_kway(&hg, 4, &PartitionConfig::default());
        let cut = p.connectivity_cut(&hg);
        assert!(cut <= 64, "cut {cut} too large for a 16x16 grid 4-way");
        assert!(cut >= 16, "cut {cut} suspiciously small");
    }

    #[test]
    fn k_equal_one_is_trivial() {
        let hg = grid_hg(4, 4);
        let p = partition_kway(&hg, 1, &PartitionConfig::default());
        assert!(p.parts.iter().all(|&x| x == 0));
        assert_eq!(p.connectivity_cut(&hg), 0);
    }

    #[test]
    fn nonpower_of_two_parts() {
        let hg = grid_hg(12, 12);
        let p = partition_kway(&hg, 3, &PartitionConfig::default());
        let mut seen = vec![false; 3];
        for &x in &p.parts {
            assert!(x < 3);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let imb = p.imbalance(&hg, 0);
        assert!(imb < 0.10, "3-way imbalance {imb}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let hg = grid_hg(10, 10);
        let cfg = PartitionConfig::default();
        let p1 = partition_kway(&hg, 4, &cfg);
        let p2 = partition_kway(&hg, 4, &cfg);
        assert_eq!(p1.parts, p2.parts);
    }
}
