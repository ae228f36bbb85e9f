//! Initial bisection of the coarsest hypergraph.
//!
//! Two generators: greedy hypergraph growing (grow side 0 from a random
//! seed by FM gain) and random balanced assignment. Each candidate is
//! FM-refined; the best (feasibility, cut) wins.
//!
//! The coarsest level is not necessarily small: matching stalls on
//! hypergraphs whose nets are mostly over the scoring size limit or whose
//! clusters hit the weight cap (an R-MAT level can stall above a thousand
//! vertices, far over the `COARSEN_TO` target), so both generators have to
//! be linear in the pins. Growing is, because it rides the FM gain engine:
//! a pull updates gains only at its nets' critical pin counts, so each net
//! is swept a bounded number of times over the whole growth.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::fm::{fm_refine, BisectState, Gains};
use crate::hg::Hypergraph;
use crate::pool::Pool;

/// Initial-partition attempts per generator.
const INITIAL_TRIES: usize = 4;

/// Produces a bisection of `hg` with target side-0 weight fraction
/// `ratio0`, trying [`INITIAL_TRIES`] GHG and as many random starts,
/// refining each. Candidates and scratch come from `pool`.
pub(crate) fn initial_bisection<R: Rng>(
    hg: &Hypergraph,
    maxw: &[Vec<u64>; 2],
    ratio0: f64,
    rng: &mut R,
    pool: &mut Pool,
) -> Vec<u8> {
    let mut best: Option<((u64, u64), Vec<u8>)> = None; // ((overweight, cut), side)
    for t in 0..INITIAL_TRIES * 2 {
        let mut side = if t % 2 == 0 {
            greedy_growing(hg, ratio0, rng, pool)
        } else {
            random_balanced(hg, ratio0, rng, pool)
        };
        let key = fm_refine(hg, &mut side, maxw, pool);
        if best.as_ref().is_none_or(|(best_key, _)| key < *best_key) {
            if let Some((_, worse)) = best.replace((key, side)) {
                pool.give(worse);
            }
        } else {
            pool.give(side);
        }
    }
    best.expect("at least one candidate").1
}

/// Greedy hypergraph growing: start from a random seed on side 0 and
/// repeatedly pull in the highest-gain frontier vertex (ties to the
/// highest id) until the side-0 weight target is reached. Remaining
/// vertices stay on side 1. The frontier is whatever the gain engine has
/// made a candidate: the net-mates of the vertices pulled so far.
pub(crate) fn greedy_growing<R: Rng>(
    hg: &Hypergraph,
    ratio0: f64,
    rng: &mut R,
    pool: &mut Pool,
) -> Vec<u8> {
    let nvtx = hg.nvtx();
    if nvtx == 0 {
        return Vec::new();
    }
    let target = (hg.total_weight(0) as f64 * ratio0).round() as u64;
    let mut state = BisectState::new(hg, pool.filled(nvtx, 1u8), pool);
    let mut gains = Gains::new(&state, pool);
    // The seed is always pulled; growth after it stops at the weight
    // target and always leaves a vertex on side 1.
    gains.move_vertex(&mut state, rng.random_range(0..nvtx));
    // Lowest-numbered vertex that may still be on side 1: where growth
    // restarts when the frontier dries up (disconnected hypergraphs).
    let mut unpulled = 0usize;
    while state.part_w[0][0] < target && state.count[0] + 1 < nvtx {
        let v = gains.pop().unwrap_or_else(|| {
            while state.side[unpulled] == 0 {
                unpulled += 1;
            }
            unpulled
        });
        gains.move_vertex(&mut state, v);
    }
    gains.recycle(pool);
    state.into_side(pool)
}

/// Random balanced assignment: shuffle, fill side 0 to its weight target,
/// rest to side 1.
pub(crate) fn random_balanced<R: Rng>(
    hg: &Hypergraph,
    ratio0: f64,
    rng: &mut R,
    pool: &mut Pool,
) -> Vec<u8> {
    let nvtx = hg.nvtx();
    let total0: u64 = hg.total_weight(0);
    let target = (total0 as f64 * ratio0).round() as u64;
    let mut order: Vec<u32> = pool.with_capacity(nvtx);
    order.extend(0..nvtx as u32);
    order.shuffle(rng);
    let mut side = pool.filled(nvtx, 1u8);
    let mut w0 = 0u64;
    let mut taken = 0usize;
    for &v in &order {
        // Fill to the weight target, but keep both sides nonempty.
        if (w0 >= target && taken > 0) || taken + 1 >= nvtx.max(2) {
            break;
        }
        side[v as usize] = 0;
        w0 += hg.vweight(v as usize)[0];
        taken += 1;
    }
    pool.give(order);
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::tests::weighted_hg_strategy;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The O(n²) growing this module used to run, kept as the oracle: the
    /// frontier is every net-mate of a pulled vertex, and each pull takes
    /// the arg-max of the from-scratch gain over it (highest id on ties).
    fn greedy_growing_reference<R: Rng>(hg: &Hypergraph, ratio0: f64, rng: &mut R) -> Vec<u8> {
        let nvtx = hg.nvtx();
        let target = (hg.total_weight(0) as f64 * ratio0).round() as u64;
        let mut state = BisectState::new(hg, vec![1u8; nvtx], &mut Pool::default());
        let mut frontier = vec![false; nvtx];
        let mut v = rng.random_range(0..nvtx);
        loop {
            state.apply_move(v);
            for &n in hg.nets_of(v) {
                for &u in hg.pins_of(n as usize) {
                    frontier[u as usize] = true;
                }
            }
            if state.part_w[0][0] >= target || state.count[0] + 1 >= nvtx {
                break;
            }
            let on_side1 = |u: &usize| state.side[*u] == 1;
            v = (0..nvtx)
                .filter(|u| on_side1(u) && frontier[*u])
                .max_by_key(|&u| (state.gain(u), u))
                .or_else(|| (0..nvtx).find(on_side1))
                .expect("side 1 keeps a vertex");
        }
        state.side
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Growing on the gain engine selects exactly what the brute-force
        /// arg-max selects, and draws from the RNG exactly as often.
        #[test]
        fn greedy_growing_matches_reference(
            hg in weighted_hg_strategy(20, 24),
            ratio0 in 0.1f64..0.9,
            seed in 0u64..1000,
        ) {
            let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            prop_assert_eq!(
                greedy_growing(&hg, ratio0, &mut r1, &mut Pool::default()),
                greedy_growing_reference(&hg, ratio0, &mut r2)
            );
            prop_assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }
    }

    fn clique_pair() -> Hypergraph {
        // Two 4-cliques joined by one net: natural bisection cuts 1 net.
        let mut nets: Vec<Vec<u32>> = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4 {
                nets.push(vec![a, b]);
                nets.push(vec![a + 4, b + 4]);
            }
        }
        nets.push(vec![3, 4]);
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(8, 1, vec![1; 8], &nets, costs)
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
    fn initial_bisection_finds_natural_cut() {
        let hg = clique_pair();
        let mut rng = StdRng::seed_from_u64(11);
        let side = initial_bisection(&hg, &limits(&hg, 0.05), 0.5, &mut rng, &mut Pool::default());
        let cut = BisectState::new(&hg, side.clone(), &mut Pool::default()).cut;
        assert_eq!(cut, 1, "cliques should separate: {side:?}");
    }

    #[test]
    fn random_balanced_hits_target() {
        let hg = clique_pair();
        let mut rng = StdRng::seed_from_u64(2);
        let side = random_balanced(&hg, 0.5, &mut rng, &mut Pool::default());
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(w0, 4);
    }

    #[test]
    fn greedy_growing_respects_ratio() {
        let hg = clique_pair();
        let mut rng = StdRng::seed_from_u64(3);
        let side = greedy_growing(&hg, 0.25, &mut rng, &mut Pool::default());
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(w0, 2); // 25% of weight 8
    }

    #[test]
    fn handles_disconnected_hypergraph() {
        let hg = Hypergraph::new(6, 1, vec![1; 6], &[vec![0, 1]], vec![1]);
        let mut rng = StdRng::seed_from_u64(4);
        let side = greedy_growing(&hg, 0.5, &mut rng, &mut Pool::default());
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(w0, 3);
    }
}
