//! Multilevel bisection: coarsen → initial partition → uncoarsen + refine.

use rand::Rng;

use crate::coarsen::{coarsen_once, CoarseLevel};
use crate::fm::fm_refine;
use crate::hg::Hypergraph;
use crate::initial::initial_bisection;

/// Stop coarsening when at most this many vertices remain (matching may
/// stall earlier, see `coarsen_once`).
const COARSEN_TO: usize = 96;

/// Bisects `hg` with side-0 target weight fraction `ratio0` and per-side
/// weight limits `maxw` (per constraint). Returns the side (0/1) of every
/// vertex.
pub(crate) fn multilevel_bisect<R: Rng>(
    hg: &Hypergraph,
    ratio0: f64,
    maxw: &[Vec<u64>; 2],
    rng: &mut R,
) -> Vec<u8> {
    // V-cycle down: coarsen until small or stalled.
    let mut levels: Vec<CoarseLevel> = Vec::new();
    {
        let mut cur: &Hypergraph = hg;
        while cur.nvtx() > COARSEN_TO {
            match coarsen_once(cur, rng) {
                Some(level) => {
                    levels.push(level);
                    cur = &levels.last().expect("just pushed").hg;
                }
                None => break,
            }
        }
    }

    // Initial partition on the coarsest level.
    let coarsest: &Hypergraph = levels.last().map(|l| &l.hg).unwrap_or(hg);
    let mut side = initial_bisection(coarsest, maxw, ratio0, rng);

    // V-cycle up: project through each level and refine.
    for lvl in (0..levels.len()).rev() {
        let fine_hg: &Hypergraph = if lvl == 0 { hg } else { &levels[lvl - 1].hg };
        let map = &levels[lvl].map;
        let mut fine_side = vec![0u8; fine_hg.nvtx()];
        for v in 0..fine_hg.nvtx() {
            fine_side[v] = side[map[v] as usize];
        }
        fm_refine(fine_hg, &mut fine_side, maxw);
        side = fine_side;
    }
    if levels.is_empty() {
        // No coarsening happened: `side` is already on the input hypergraph
        // but refined only as the "coarsest"; one more refinement is free.
        fm_refine(hg, &mut side, maxw);
    }
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
        let side = multilevel_bisect(&hg, 0.5, &maxw, &mut rng);
        let cut = BisectState::new(&hg, side.clone()).cut;
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
        let side = multilevel_bisect(&hg, 0.25, &maxw, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count() as u64;
        assert!(w0 <= maxw[0][0], "side 0 over its limit: {w0}");
        assert!(w0 >= 15, "side 0 suspiciously empty: {w0}");
    }

    #[test]
    fn tiny_hypergraph_skips_coarsening() {
        let hg = ring(8);
        let maxw = limits(&hg, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let side = multilevel_bisect(&hg, 0.5, &maxw, &mut rng);
        assert!(BisectState::new(&hg, side).cut >= 2);
    }
}
