//! K-way partitioning by recursive bisection with net splitting.
//!
//! Cut nets are split between the two sub-hypergraphs, so the sum of all
//! bisection cuts equals the connectivity−1 metric of the final K-way
//! partition — the property that makes hypergraph cutsize equal SpMV
//! communication volume (Catalyurek & Aykanat 1999, as used by the paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bisect::multilevel_bisect;
use crate::hg::Hypergraph;
use crate::metrics;

/// Partitioner configuration: the two values callers choose. Everything
/// else (coarsening target and limits, initial tries, FM passes) is a
/// constant next to the code that reads it.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Allowed K-way load imbalance (`0.03` = the paper's 3%, PaToH's
    /// default).
    pub epsilon: f64,
    /// RNG seed; every run is deterministic given a seed.
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
/// (best effort) minimizing the connectivity−1 metric.
pub fn partition_kway(hg: &Hypergraph, k: usize, cfg: &PartitionConfig) -> KwayPartition {
    assert!(k >= 1, "k must be positive");
    let mut parts = vec![0u32; hg.nvtx()];
    if k > 1 {
        let depth = (k as f64).log2().ceil().max(1.0);
        // Spread the global tolerance over bisection levels so the final
        // K-way imbalance stays within epsilon.
        let eps_b = (1.0 + cfg.epsilon).powf(1.0 / depth) - 1.0;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let vertices: Vec<u32> = (0..hg.nvtx() as u32).collect();
        recurse(hg, &vertices, k, 0, eps_b, &mut rng, &mut parts);
    }
    KwayPartition { parts, k }
}

/// Recursively bisects `hg` (which contains only `vertices` of the
/// original hypergraph) into `k` parts, writing part ids starting at
/// `first_part` into `out` (indexed by original vertex id).
fn recurse<R: Rng>(
    hg: &Hypergraph,
    vertices: &[u32],
    k: usize,
    first_part: u32,
    eps_b: f64,
    rng: &mut R,
    out: &mut [u32],
) {
    if k == 1 {
        for &v in vertices {
            out[v as usize] = first_part;
        }
        return;
    }
    let kl = k.div_ceil(2);
    let kr = k - kl;
    let ratio0 = kl as f64 / k as f64;
    let totals = hg.total_weights();
    let maxw: [Vec<u64>; 2] = [
        totals.iter().map(|&t| ((t as f64) * ratio0 * (1.0 + eps_b)).ceil() as u64).collect(),
        totals
            .iter()
            .map(|&t| ((t as f64) * (1.0 - ratio0) * (1.0 + eps_b)).ceil() as u64)
            .collect(),
    ];
    let mut side = multilevel_bisect(hg, ratio0, &maxw, rng);
    repair_counts(hg, &mut side, kl, kr);

    // Build the two sub-hypergraphs with net splitting.
    for (s, sub_k, sub_first) in [(0u8, kl, first_part), (1u8, kr, first_part + kl as u32)] {
        if hg.nvtx() == 0 {
            continue;
        }
        let (sub, sub_vertices) = extract_side(hg, vertices, &side, s);
        recurse(&sub, &sub_vertices, sub_k, sub_first, eps_b, rng, out);
    }
}

/// Ensures side 0 holds at least `kl` vertices and side 1 at least `kr`
/// (whenever the hypergraph has `kl + kr` vertices at all), so every leaf
/// of the recursion can own a nonempty part. The weight caps alone cannot
/// guarantee this: on tiny sub-hypergraphs their `ceil` slack admits
/// splits like 3|1 for `k = 2+2`. Deficits are repaired by moving the
/// least cut-damaging vertices from the surplus side.
fn repair_counts(hg: &Hypergraph, side: &mut [u8], kl: usize, kr: usize) {
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
        let mut state = crate::fm::BisectState::new(hg, side.to_vec());
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
    }
}

/// Extracts the sub-hypergraph induced by side `s`: vertices renumbered,
/// nets restricted to the side (net splitting), single-pin nets dropped.
/// Returns the sub-hypergraph and the original ids of its vertices.
fn extract_side(hg: &Hypergraph, vertices: &[u32], side: &[u8], s: u8) -> (Hypergraph, Vec<u32>) {
    let ncon = hg.ncon();
    let mut local_of = vec![u32::MAX; hg.nvtx()];
    let mut sub_vertices = Vec::new();
    let mut vwgt = Vec::new();
    for v in 0..hg.nvtx() {
        if side[v] == s {
            local_of[v] = sub_vertices.len() as u32;
            sub_vertices.push(vertices[v]);
            vwgt.extend_from_slice(hg.vweight(v));
        }
    }
    let mut xpins = vec![0usize];
    let mut pins: Vec<u32> = Vec::new();
    let mut ncost: Vec<u64> = Vec::new();
    for n in 0..hg.nnets() {
        let start = pins.len();
        for &p in hg.pins_of(n) {
            let lp = local_of[p as usize];
            if lp != u32::MAX {
                pins.push(lp);
            }
        }
        if pins.len() - start >= 2 {
            xpins.push(pins.len());
            ncost.push(hg.ncost(n));
        } else {
            pins.truncate(start);
        }
    }
    let sub = Hypergraph::from_csr(sub_vertices.len(), ncon, vwgt, ncost, xpins, pins);
    (sub, sub_vertices)
}

#[cfg(test)]
mod tests {
    use super::*;

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
