//! Multilevel bisection: coarsen → initial partition → uncoarsen + refine.

use rand::Rng;

use crate::coarsen::{coarsen_once, CoarseLevel};
use crate::fm::fm_refine;
use crate::hg::Hypergraph;
use crate::initial::initial_bisection;
use crate::pool::Pool;

/// Stop coarsening when at most this many vertices remain (matching may
/// stall earlier, see `coarsen_once`).
const COARSEN_TO: usize = 96;

/// Bisects `hg` with side-0 target weight fraction `ratio0` and per-side
/// weight limits `maxw` (per constraint). Returns the side (0/1) of every
/// vertex. Every level and every scratch buffer comes from `pool` and
/// goes back to it as soon as the V-cycle has passed it.
pub(crate) fn multilevel_bisect<R: Rng>(
    hg: &Hypergraph,
    ratio0: f64,
    maxw: &[Vec<u64>; 2],
    rng: &mut R,
    pool: &mut Pool,
) -> Vec<u8> {
    // V-cycle down: coarsen until small or stalled. Each level keeps at
    // most 95% of the vertices above it.
    let depth = (hg.nvtx() as f64 / COARSEN_TO as f64).ln() / (1.0 / 0.95f64).ln();
    let mut levels: Vec<CoarseLevel> = pool.with_capacity(depth.max(0.0) as usize + 1);
    while levels.last().map_or(hg, |l| &l.hg).nvtx() > COARSEN_TO {
        match coarsen_once(levels.last().map_or(hg, |l| &l.hg), rng, pool) {
            Some(level) => levels.push(level),
            None => break,
        }
    }

    // Initial partition on the coarsest level.
    let coarsest: &Hypergraph = levels.last().map_or(hg, |l| &l.hg);
    let mut side = initial_bisection(coarsest, maxw, ratio0, rng, pool);

    // V-cycle up: project through each level and refine.
    if levels.is_empty() {
        // No coarsening happened: `side` is already on the input hypergraph
        // but refined only as the "coarsest"; one more refinement is free.
        fm_refine(hg, &mut side, maxw, pool);
    }
    while let Some(level) = levels.pop() {
        let mut fine_side = pool.with_capacity(level.map.len());
        fine_side.extend(level.map.iter().map(|&c| side[c as usize]));
        pool.give(side);
        pool.give(level.map);
        level.hg.recycle(pool);
        fm_refine(levels.last().map_or(hg, |l| &l.hg), &mut fine_side, maxw, pool);
        side = fine_side;
    }
    pool.give(levels);
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::BisectState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> Hypergraph {
        let nets: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i, (i + 1) % n as u32]).collect();
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(n, 1, vec![1; n], &nets, costs)
    }

    fn limits(hg: &Hypergraph, ratio0: f64, eps: f64) -> [Vec<u64>; 2] {
        let t = hg.total_weight(0) as f64;
        [
            vec![(t * ratio0 * (1.0 + eps)).ceil() as u64],
            vec![(t * (1.0 - ratio0) * (1.0 + eps)).ceil() as u64],
        ]
    }

    #[test]
    fn ring_bisects_with_two_cuts() {
        let hg = ring(128);
        let maxw = limits(&hg, 0.5, 0.03);
        let mut rng = StdRng::seed_from_u64(42);
        let side = multilevel_bisect(&hg, 0.5, &maxw, &mut rng, &mut Pool::default());
        let cut = BisectState::new(&hg, side.clone(), &mut Pool::default()).cut;
        // A cycle cannot be bisected with fewer than 2 cut nets.
        assert!(cut >= 2);
        assert!(cut <= 6, "multilevel should find a near-optimal cut, got {cut}");
        let w0 = side.iter().filter(|&&s| s == 0).count() as u64;
        assert!(w0 <= maxw[0][0] && 128 - w0 <= maxw[1][0]);
    }

    #[test]
    fn respects_asymmetric_ratio() {
        let hg = ring(96);
        let maxw = limits(&hg, 0.25, 0.05);
        let mut rng = StdRng::seed_from_u64(9);
        let side = multilevel_bisect(&hg, 0.25, &maxw, &mut rng, &mut Pool::default());
        let w0 = side.iter().filter(|&&s| s == 0).count() as u64;
        assert!(w0 <= maxw[0][0], "side 0 over its limit: {w0}");
        assert!(w0 >= 15, "side 0 suspiciously empty: {w0}");
    }

    #[test]
    fn tiny_hypergraph_skips_coarsening() {
        let hg = ring(8);
        let maxw = limits(&hg, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let side = multilevel_bisect(&hg, 0.5, &maxw, &mut rng, &mut Pool::default());
        assert!(BisectState::new(&hg, side, &mut Pool::default()).cut >= 2);
    }
}
