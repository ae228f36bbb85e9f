//! Matching-based coarsening (randomized heavy-connectivity matching).
//!
//! Visits vertices in random order; each unmatched vertex is paired with
//! the unmatched neighbour sharing the largest total net cost (ties to the
//! neighbour met first), subject to a cluster-weight cap so the coarsest
//! level stays bisectable. Oversized nets are skipped while scoring (they
//! carry little locality signal and dominate the scan cost — dense rows
//! in the paper's suite B matrices produce nets with 10^5 pins).
//!
//! A level scans live pins only. A vertex is settled once it is matched
//! or has been visited: a visited vertex left unmatched failed the cap
//! with every unmatched neighbour, and as the cap test is symmetric and
//! the unmatched set only shrinks, no later vertex can pick it. The level
//! keeps a copy of the pin array in which every scan of a net compacts
//! the net in place, stably, to its unsettled pins. A dropped pin is thus
//! one a full scan would skip or could never pick, and the first-touch
//! order that breaks score ties among the pickable is the full scan's.
//! `score` doubles as the settled mark, so a pin visit reads one word,
//! and the visit itself is branch-free.
//!
//! Contraction re-pins the nets onto clusters and hands the CSR arrays
//! straight to the identical-net merge (`hg::merge_nets`).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::hg::{merge_nets, Hypergraph};
use crate::pool::Pool;

/// Nets larger than this are ignored while scoring matches.
const NET_SIZE_LIMIT: usize = 256;
/// A merged cluster may not exceed `total_weight[c] / WEIGHT_CAP_DIVISOR`
/// in any constraint.
const WEIGHT_CAP_DIVISOR: u64 = 16;

/// One level of coarsening: the coarse hypergraph plus the fine→coarse map.
pub(crate) struct CoarseLevel {
    /// Coarse hypergraph with merged identical nets.
    pub(crate) hg: Hypergraph,
    /// `map[fine_vertex] = coarse_vertex`.
    pub(crate) map: Vec<u32>,
}

/// `score` of a settled vertex (no sum of positive net costs reaches it).
const SETTLED: u64 = u64::MAX;

/// Performs one matching-based coarsening step, its scratch and the level
/// taken from `pool`. Returns `None` when the matching shrinks the vertex
/// count by less than 5% (coarsening has stalled and another level would
/// waste time without helping quality).
pub(crate) fn coarsen_once<R: Rng>(
    hg: &Hypergraph,
    rng: &mut R,
    pool: &mut Pool,
) -> Option<CoarseLevel> {
    let nvtx = hg.nvtx();
    let ncon = hg.ncon();
    let mut caps = hg.total_weights_in(pool);
    for cap in &mut caps {
        *cap = (*cap / WEIGHT_CAP_DIVISOR).max(1);
    }

    let mut order: Vec<u32> = pool.with_capacity(nvtx);
    order.extend(0..nvtx as u32);
    order.shuffle(rng);

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = pool.filled(nvtx, UNMATCHED);
    // Connectivity to the vertex being matched, or SETTLED.
    let mut score = pool.filled(nvtx, 0u64);
    // The scored vertices in first-touch order, at most nvtx − 1 of
    // them, so the slot past the last one that every pin visit writes is
    // always in range.
    let mut touched = pool.filled(nvtx, 0u32);
    let mut matched_pairs = 0usize;
    // Net n's unsettled pins, in their original order, are
    // live[xpins[n]..live_end[n]] (plus, until its next scan, pins
    // settled since the last one).
    let (xpins, pins) = hg.pin_csr();
    let mut live = pool.copied(pins);
    let mut live_end = pool.copied(&xpins[1..]);

    for &v in &order {
        let v = v as usize;
        if score[v] == SETTLED {
            continue;
        }
        score[v] = SETTLED;
        // Score unsettled neighbours by shared net cost.
        let mut ntouched = 0;
        for &n in hg.nets_of(v) {
            let n = n as usize;
            if hg.net_size(n) > NET_SIZE_LIMIT {
                continue;
            }
            let cost = hg.ncost(n);
            let net = &mut live[xpins[n]..live_end[n]];
            let mut kept = 0;
            for k in 0..net.len() {
                let u = net[k];
                let s = score[u as usize];
                let open = s != SETTLED;
                net[kept] = u;
                kept += open as usize;
                touched[ntouched] = u;
                ntouched += (s == 0) as usize;
                score[u as usize] = s + if open { cost } else { 0 };
            }
            live_end[n] = xpins[n] + kept;
        }
        // Pick the heaviest-connectivity candidate that fits the cap.
        let touched = &touched[..ntouched];
        let mut best: Option<(u64, u32)> = None;
        for &u in touched {
            let s = score[u as usize];
            let fits = (0..ncon).all(|c| hg.vweight(v)[c] + hg.vweight(u as usize)[c] <= caps[c]);
            if fits && best.map(|(bs, _)| s > bs).unwrap_or(true) {
                best = Some((s, u));
            }
        }
        for &u in touched {
            score[u as usize] = 0;
        }
        if let Some((_, u)) = best {
            mate[v] = u;
            mate[u as usize] = v as u32;
            score[u as usize] = SETTLED;
            matched_pairs += 1;
        }
    }

    pool.give(caps);
    pool.give(order);
    pool.give(score);
    pool.give(touched);
    pool.give(live);
    pool.give(live_end);
    let ncoarse = nvtx - matched_pairs;
    if (ncoarse as f64) > 0.95 * nvtx as f64 {
        pool.give(mate);
        return None;
    }

    // Number clusters: matched pair shares an id, singleton keeps its own.
    let mut map = pool.filled(nvtx, u32::MAX);
    let mut next = 0u32;
    for v in 0..nvtx {
        if map[v] != u32::MAX {
            continue;
        }
        map[v] = next;
        if mate[v] != UNMATCHED {
            map[mate[v] as usize] = next;
        }
        next += 1;
    }
    debug_assert_eq!(next as usize, ncoarse);

    pool.give(mate);
    Some(CoarseLevel { hg: contract(hg, &map, ncoarse, pool), map })
}

/// Contracts `hg` according to `map` (fine vertex → coarse vertex):
/// accumulates vertex weights, re-pins nets onto clusters, drops single-pin
/// nets and merges identical ones.
fn contract(hg: &Hypergraph, map: &[u32], ncoarse: usize, pool: &mut Pool) -> Hypergraph {
    let ncon = hg.ncon();
    let mut vwgt = pool.filled(ncoarse * ncon, 0u64);
    for v in 0..hg.nvtx() {
        let cv = map[v] as usize;
        for c in 0..ncon {
            vwgt[cv * ncon + c] += hg.vweight(v)[c];
        }
    }
    // Re-pin nets, deduplicating within each net with a stamp array.
    let mut stamp = pool.filled(ncoarse, u32::MAX);
    let mut xpins = pool.with_capacity(hg.nnets() + 1);
    xpins.push(0usize);
    let mut pins: Vec<u32> = pool.with_capacity(hg.npins());
    let mut ncost: Vec<u64> = pool.with_capacity(hg.nnets());
    for n in 0..hg.nnets() {
        let start = pins.len();
        for &p in hg.pins_of(n) {
            let cp = map[p as usize];
            if stamp[cp as usize] != n as u32 {
                stamp[cp as usize] = n as u32;
                pins.push(cp);
            }
        }
        if pins.len() - start >= 2 {
            xpins.push(pins.len());
            ncost.push(hg.ncost(n));
        } else {
            pins.truncate(start); // single-pin net: uncuttable, drop
        }
    }
    pool.give(stamp);
    let coarse = merge_nets(ncoarse, ncon, vwgt, &ncost, xpins, pins, pool);
    pool.give(ncost);
    coarse
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hg::tests::{defining, merge_identical_nets_reference};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The matching loop and contraction this module used to run, kept
    /// as the oracle: every scan walks all pins of the net and tests
    /// `mate` per pin, and contraction builds a hypergraph and merges it
    /// with [`merge_identical_nets_reference`].
    fn coarsen_once_reference<R: Rng>(hg: &Hypergraph, rng: &mut R) -> Option<CoarseLevel> {
        let nvtx = hg.nvtx();
        let ncon = hg.ncon();
        let totals = hg.total_weights();
        let caps: Vec<u64> = totals.iter().map(|&t| (t / WEIGHT_CAP_DIVISOR).max(1)).collect();

        let mut order: Vec<u32> = (0..nvtx as u32).collect();
        order.shuffle(rng);

        const UNMATCHED: u32 = u32::MAX;
        let mut mate = vec![UNMATCHED; nvtx];
        let mut score = vec![0u64; nvtx];
        let mut touched: Vec<u32> = Vec::new();
        let mut matched_pairs = 0usize;

        for &v in &order {
            let v = v as usize;
            if mate[v] != UNMATCHED {
                continue;
            }
            touched.clear();
            for &n in hg.nets_of(v) {
                let n = n as usize;
                if hg.net_size(n) > NET_SIZE_LIMIT {
                    continue;
                }
                let cost = hg.ncost(n);
                for &u in hg.pins_of(n) {
                    let u = u as usize;
                    if u == v || mate[u] != UNMATCHED {
                        continue;
                    }
                    if score[u] == 0 {
                        touched.push(u as u32);
                    }
                    score[u] += cost;
                }
            }
            let mut best: Option<(u64, u32)> = None;
            for &u in &touched {
                let s = score[u as usize];
                let fits =
                    (0..ncon).all(|c| hg.vweight(v)[c] + hg.vweight(u as usize)[c] <= caps[c]);
                if fits && best.map(|(bs, _)| s > bs).unwrap_or(true) {
                    best = Some((s, u));
                }
            }
            for &u in &touched {
                score[u as usize] = 0;
            }
            if let Some((_, u)) = best {
                mate[v] = u;
                mate[u as usize] = v as u32;
                matched_pairs += 1;
            }
        }

        let ncoarse = nvtx - matched_pairs;
        if (ncoarse as f64) > 0.95 * nvtx as f64 {
            return None;
        }
        let mut map = vec![u32::MAX; nvtx];
        let mut next = 0u32;
        for v in 0..nvtx {
            if map[v] != u32::MAX {
                continue;
            }
            map[v] = next;
            if mate[v] != UNMATCHED {
                map[mate[v] as usize] = next;
            }
            next += 1;
        }

        let mut vwgt = vec![0u64; ncoarse * ncon];
        for v in 0..nvtx {
            for c in 0..ncon {
                vwgt[map[v] as usize * ncon + c] += hg.vweight(v)[c];
            }
        }
        let mut stamp = vec![u32::MAX; ncoarse];
        let mut xpins = vec![0usize];
        let mut pins: Vec<u32> = Vec::new();
        let mut ncost: Vec<u64> = Vec::new();
        for n in 0..hg.nnets() {
            let start = pins.len();
            for &p in hg.pins_of(n) {
                let cp = map[p as usize];
                if stamp[cp as usize] != n as u32 {
                    stamp[cp as usize] = n as u32;
                    pins.push(cp);
                }
            }
            if pins.len() - start >= 2 {
                xpins.push(pins.len());
                ncost.push(hg.ncost(n));
            } else {
                pins.truncate(start);
            }
        }
        let coarse = Hypergraph::from_csr(ncoarse, ncon, vwgt, ncost, xpins, pins);
        Some(CoarseLevel { hg: merge_identical_nets_reference(&coarse), map })
    }

    /// Hypergraphs as a matrix model or a contraction may hand them over,
    /// in the shapes the live-pin scan and the bucketed merge must get
    /// right: 2–48 vertices with one or two constraints, weights 1–3
    /// (the `total / 16` cap often blocks a pair) plus up to two vertices
    /// heavier than any cap, costs 1–4, nets of 0–8 pins drawn with
    /// repeats (the constructor keeps each pin's first occurrence),
    /// up to two nets of 257–300 pins (over `NET_SIZE_LIMIT`), and up to
    /// four nets that list an earlier net's pins in another order.
    pub(crate) fn raw_hg_strategy() -> impl Strategy<Value = Hypergraph> {
        (2..=48usize, 1..=2usize).prop_flat_map(|(nv, ncon)| {
            let net = |size| (proptest::collection::vec(0..nv as u32, size), 1u64..=4);
            (
                proptest::collection::vec(net(0..=8), 0..=40),
                proptest::collection::vec(net(NET_SIZE_LIMIT + 1..=300), 0..=2),
                proptest::collection::vec((0..64usize, 0..8usize, 1u64..=4), 0..=4),
                proptest::collection::vec(1u64..=3, nv * ncon),
                proptest::collection::vec(0..nv, 0..=2),
            )
                .prop_map(move |(small, big, copies, mut vwgt, heavy)| {
                    let (mut nets, mut costs): (Vec<Vec<u32>>, Vec<u64>) =
                        small.into_iter().chain(big).unzip();
                    for (i, turn, cost) in copies {
                        if let Some(net) = nets.get(i % nets.len().max(1)) {
                            let mut net = net.clone();
                            net.reverse();
                            let turn = turn % net.len().max(1);
                            net.rotate_left(turn);
                            nets.push(net);
                            costs.push(cost);
                        }
                    }
                    for v in heavy {
                        for w in &mut vwgt[v * ncon..(v + 1) * ncon] {
                            *w += 200;
                        }
                    }
                    Hypergraph::new(nv, ncon, vwgt, &nets, costs)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::ORACLE_CASES))]

        /// Level after level, the live-pin matching and the bucketed merge
        /// produce exactly the old loop's map and coarse hypergraph (pins,
        /// costs and weights) and draw from the RNG exactly as often.
        #[test]
        fn coarsen_once_matches_reference(hg in raw_hg_strategy(), seed in 0u64..1000) {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut hg = hg;
            for level in 0..4 {
                let got = coarsen_once(&hg, &mut r1, &mut Pool::default());
                let want = coarsen_once_reference(&hg, &mut r2);
                prop_assert_eq!(got.is_some(), want.is_some(), "level {}", level);
                let (Some(got), Some(want)) = (got, want) else { break };
                prop_assert_eq!(&got.map, &want.map, "level {}", level);
                prop_assert_eq!(defining(&got.hg), defining(&want.hg), "level {}", level);
                hg = got.hg;
            }
            prop_assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }
    }

    fn chain(n: usize) -> Hypergraph {
        // Path hypergraph: net {i, i+1} for each i.
        let nets: Vec<Vec<u32>> = (0..n as u32 - 1).map(|i| vec![i, i + 1]).collect();
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(n, 1, vec![1; n], &nets, costs)
    }

    #[test]
    fn coarsening_halves_chain() {
        let h = chain(64);
        let mut rng = StdRng::seed_from_u64(1);
        let level = coarsen_once(&h, &mut rng, &mut Pool::default()).expect("should coarsen");
        assert!(level.hg.nvtx() < 64);
        assert!(level.hg.nvtx() >= 32); // matching merges at most pairs
                                        // Weight is conserved.
        assert_eq!(level.hg.total_weight(0), 64);
    }

    #[test]
    fn map_is_consistent() {
        let h = chain(32);
        let mut rng = StdRng::seed_from_u64(7);
        let level = coarsen_once(&h, &mut rng, &mut Pool::default()).expect("should coarsen");
        assert_eq!(level.map.len(), 32);
        assert!(level.map.iter().all(|&c| (c as usize) < level.hg.nvtx()));
        // Every coarse vertex has at least one fine vertex.
        let mut seen = vec![false; level.hg.nvtx()];
        for &c in &level.map {
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn contract_drops_internal_nets() {
        let h = chain(4);
        // Merge {0,1} and {2,3}: nets {0,1} and {2,3} become single-pin.
        let coarse = contract(&h, &[0, 0, 1, 1], 2, &mut Pool::default());
        assert_eq!(coarse.nvtx(), 2);
        assert_eq!(coarse.nnets(), 1); // only net {1,2} survives
        assert_eq!(coarse.vweight(0), &[2]);
    }

    #[test]
    fn weight_cap_prevents_giant_clusters() {
        // One dominant vertex: nothing may merge with it under divisor 16.
        let mut wgts = vec![1u64; 16];
        wgts[0] = 1000;
        let nets: Vec<Vec<u32>> = (1..16u32).map(|i| vec![0, i]).collect();
        let costs = vec![1u64; nets.len()];
        let h = Hypergraph::new(16, 1, wgts, &nets, costs);
        let mut rng = StdRng::seed_from_u64(3);
        if let Some(level) = coarsen_once(&h, &mut rng, &mut Pool::default()) {
            // Heaviest coarse cluster is still just the dominant vertex.
            let max_w = (0..level.hg.nvtx()).map(|v| level.hg.vweight(v)[0]).max().unwrap();
            assert_eq!(max_w, 1000);
        }
    }

    #[test]
    fn stall_returns_none() {
        // No nets => no matches => stall.
        let h = Hypergraph::new(8, 1, vec![1; 8], &[], vec![]);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(coarsen_once(&h, &mut rng, &mut Pool::default()).is_none());
    }
}
