//! Matching-based coarsening (randomized heavy-connectivity matching).
//!
//! Visits vertices in random order; each unmatched vertex is paired with
//! the unmatched neighbour sharing the largest total net cost, subject to a
//! cluster-weight cap so the coarsest level stays bisectable. Oversized
//! nets are skipped while scoring (they carry little locality signal and
//! dominate the scan cost — dense rows in the paper's suite B matrices
//! produce nets with 10^5 pins).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::hg::Hypergraph;

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

/// Performs one matching-based coarsening step. Returns `None` when the
/// matching shrinks the vertex count by less than 5% (coarsening has
/// stalled and another level would waste time without helping quality).
pub(crate) fn coarsen_once<R: Rng>(hg: &Hypergraph, rng: &mut R) -> Option<CoarseLevel> {
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
        // Score unmatched neighbours by shared net cost.
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
        // Pick the heaviest-connectivity candidate that fits the cap.
        let mut best: Option<(u64, u32)> = None;
        for &u in &touched {
            let s = score[u as usize];
            let fits = (0..ncon).all(|c| hg.vweight(v)[c] + hg.vweight(u as usize)[c] <= caps[c]);
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

    // Number clusters: matched pair shares an id, singleton keeps its own.
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
    debug_assert_eq!(next as usize, ncoarse);

    Some(CoarseLevel { hg: contract(hg, &map, ncoarse), map })
}

/// Contracts `hg` according to `map` (fine vertex → coarse vertex):
/// accumulates vertex weights, re-pins nets onto clusters, drops single-pin
/// nets and merges identical ones.
fn contract(hg: &Hypergraph, map: &[u32], ncoarse: usize) -> Hypergraph {
    let ncon = hg.ncon();
    let mut vwgt = vec![0u64; ncoarse * ncon];
    for v in 0..hg.nvtx() {
        let cv = map[v] as usize;
        for c in 0..ncon {
            vwgt[cv * ncon + c] += hg.vweight(v)[c];
        }
    }
    // Re-pin nets, deduplicating within each net with a stamp array.
    let mut stamp = vec![u32::MAX; ncoarse];
    let mut xpins = Vec::with_capacity(hg.nnets() + 1);
    xpins.push(0usize);
    let mut pins: Vec<u32> = Vec::with_capacity(hg.npins());
    let mut ncost: Vec<u64> = Vec::with_capacity(hg.nnets());
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
    Hypergraph::from_csr(ncoarse, ncon, vwgt, ncost, xpins, pins).merge_identical_nets()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let level = coarsen_once(&h, &mut rng).expect("should coarsen");
        assert!(level.hg.nvtx() < 64);
        assert!(level.hg.nvtx() >= 32); // matching merges at most pairs
                                        // Weight is conserved.
        assert_eq!(level.hg.total_weight(0), 64);
    }

    #[test]
    fn map_is_consistent() {
        let h = chain(32);
        let mut rng = StdRng::seed_from_u64(7);
        let level = coarsen_once(&h, &mut rng).expect("should coarsen");
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
        let coarse = contract(&h, &[0, 0, 1, 1], 2);
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
        if let Some(level) = coarsen_once(&h, &mut rng) {
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
        assert!(coarsen_once(&h, &mut rng).is_none());
    }
}
