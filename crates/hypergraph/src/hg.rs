//! Hypergraph data structure.
//!
//! Pins are stored twice in CSR form — net → vertices (`xpins`/`pins`) and
//! vertex → nets (`xnets`/`vnets`) — because coarsening walks both
//! directions in the hot loop. Vertex weights carry `ncon` balance
//! constraints (checkerboard partitioning needs one constraint per row
//! stripe; everything else uses `ncon = 1`).

/// A hypergraph with weighted vertices and weighted nets.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    nvtx: usize,
    ncon: usize,
    /// Vertex weights, `ncon` consecutive entries per vertex.
    vwgt: Vec<u64>,
    /// Net costs.
    ncost: Vec<u64>,
    /// Net → pins CSR.
    xpins: Vec<usize>,
    pins: Vec<u32>,
    /// Vertex → nets CSR (derived).
    xnets: Vec<usize>,
    vnets: Vec<u32>,
}

impl Hypergraph {
    /// Builds a hypergraph from per-net pin lists.
    ///
    /// `vwgt` holds `ncon` weights per vertex (`vwgt.len() == nvtx * ncon`).
    ///
    /// # Panics
    /// Panics on inconsistent sizes or out-of-range pins.
    pub fn new(
        nvtx: usize,
        ncon: usize,
        vwgt: Vec<u64>,
        nets: &[Vec<u32>],
        ncost: Vec<u64>,
    ) -> Self {
        let mut xpins = Vec::with_capacity(nets.len() + 1);
        xpins.push(0usize);
        let mut pins = Vec::with_capacity(nets.iter().map(Vec::len).sum());
        for net in nets {
            pins.extend_from_slice(net);
            xpins.push(pins.len());
        }
        Self::from_csr(nvtx, ncon, vwgt, ncost, xpins, pins)
    }

    /// Builds a hypergraph from CSR pin arrays.
    ///
    /// # Panics
    /// Panics on inconsistent sizes or out-of-range pins.
    pub fn from_csr(
        nvtx: usize,
        ncon: usize,
        vwgt: Vec<u64>,
        ncost: Vec<u64>,
        xpins: Vec<usize>,
        pins: Vec<u32>,
    ) -> Self {
        assert!(ncon >= 1, "at least one balance constraint required");
        assert_eq!(vwgt.len(), nvtx * ncon, "vertex weight array size mismatch");
        assert_eq!(xpins.len(), ncost.len() + 1, "xpins/ncost size mismatch");
        assert_eq!(*xpins.last().expect("xpins nonempty"), pins.len());
        assert!(xpins.windows(2).all(|w| w[0] <= w[1]), "xpins must be nondecreasing");
        assert!(pins.iter().all(|&p| (p as usize) < nvtx), "pin out of range");

        // Derive the vertex → nets CSR by counting sort.
        let nnets = ncost.len();
        let mut xnets = vec![0usize; nvtx + 1];
        for &p in &pins {
            xnets[p as usize + 1] += 1;
        }
        for v in 0..nvtx {
            xnets[v + 1] += xnets[v];
        }
        let mut vnets = vec![0u32; pins.len()];
        let mut next = xnets.clone();
        for n in 0..nnets {
            for k in xpins[n]..xpins[n + 1] {
                let v = pins[k] as usize;
                vnets[next[v]] = n as u32;
                next[v] += 1;
            }
        }
        Hypergraph { nvtx, ncon, vwgt, ncost, xpins, pins, xnets, vnets }
    }

    /// Number of vertices.
    #[inline]
    pub fn nvtx(&self) -> usize {
        self.nvtx
    }

    /// Number of nets.
    #[inline]
    pub fn nnets(&self) -> usize {
        self.ncost.len()
    }

    /// Number of pins (sum of net sizes).
    #[inline]
    pub fn npins(&self) -> usize {
        self.pins.len()
    }

    /// Number of balance constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// The weights of vertex `v` (`ncon` entries).
    #[inline]
    pub fn vweight(&self, v: usize) -> &[u64] {
        &self.vwgt[v * self.ncon..(v + 1) * self.ncon]
    }

    /// The cost of net `n`.
    #[inline]
    pub fn ncost(&self, n: usize) -> u64 {
        self.ncost[n]
    }

    /// The pins (vertices) of net `n`.
    #[inline]
    pub fn pins_of(&self, n: usize) -> &[u32] {
        &self.pins[self.xpins[n]..self.xpins[n + 1]]
    }

    /// The nets incident to vertex `v`.
    #[inline]
    pub fn nets_of(&self, v: usize) -> &[u32] {
        &self.vnets[self.xnets[v]..self.xnets[v + 1]]
    }

    /// Size of net `n`.
    #[inline]
    pub fn net_size(&self, n: usize) -> usize {
        self.xpins[n + 1] - self.xpins[n]
    }

    /// Degree (number of incident nets) of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xnets[v + 1] - self.xnets[v]
    }

    /// Total vertex weight for constraint `c`.
    pub fn total_weight(&self, c: usize) -> u64 {
        (0..self.nvtx).map(|v| self.vweight(v)[c]).sum()
    }

    /// Total vertex weight per constraint.
    pub fn total_weights(&self) -> Vec<u64> {
        (0..self.ncon).map(|c| self.total_weight(c)).collect()
    }

    /// Sum of net costs (an upper bound on any cut).
    pub fn total_net_cost(&self) -> u64 {
        self.ncost.iter().sum()
    }

    /// Merges nets with identical pin sets (summing their costs) and drops
    /// nets with fewer than two pins. Pin order within a net is not
    /// significant; nets are compared as sorted sets.
    ///
    /// Identical nets appear naturally during coarsening (a row net and a
    /// column net collapse onto the same cluster set); merging keeps the
    /// coarse hypergraphs small.
    pub fn merge_identical_nets(&self) -> Hypergraph {
        // Every net's pin set, sorted and de-duplicated, in one flat buffer.
        let mut xsets = Vec::with_capacity(self.nnets() + 1);
        xsets.push(0usize);
        let mut sets: Vec<u32> = Vec::with_capacity(self.npins());
        let mut one: Vec<u32> = Vec::new();
        for n in 0..self.nnets() {
            one.clear();
            one.extend_from_slice(self.pins_of(n));
            one.sort_unstable();
            one.dedup();
            sets.extend_from_slice(&one);
            xsets.push(sets.len());
        }
        let set = |n: u32| &sets[xsets[n as usize]..xsets[n as usize + 1]];

        // Net ids in lexicographic order of their sets: identical nets
        // become neighbours, and the output order depends on nothing but
        // the input.
        let mut order: Vec<u32> = (0..self.nnets() as u32).filter(|&n| set(n).len() >= 2).collect();
        order.sort_unstable_by(|&a, &b| set(a).cmp(set(b)));

        let mut xpins = vec![0usize];
        let mut pins: Vec<u32> = Vec::with_capacity(sets.len());
        let mut ncost: Vec<u64> = Vec::new();
        for group in order.chunk_by(|&a, &b| set(a) == set(b)) {
            pins.extend_from_slice(set(group[0]));
            xpins.push(pins.len());
            ncost.push(group.iter().map(|&n| self.ncost[n as usize]).sum());
        }
        Hypergraph::from_csr(self.nvtx, self.ncon, self.vwgt.clone(), ncost, xpins, pins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        // 4 vertices, nets: {0,1,2}, {2,3}, {0,3}
        Hypergraph::new(
            4,
            1,
            vec![1, 2, 3, 4],
            &[vec![0, 1, 2], vec![2, 3], vec![0, 3]],
            vec![1, 5, 2],
        )
    }

    #[test]
    fn structure_accessors() {
        let h = sample();
        assert_eq!(h.nvtx(), 4);
        assert_eq!(h.nnets(), 3);
        assert_eq!(h.npins(), 7);
        assert_eq!(h.pins_of(1), &[2, 3]);
        assert_eq!(h.net_size(0), 3);
        assert_eq!(h.vweight(3), &[4]);
        assert_eq!(h.total_weight(0), 10);
    }

    #[test]
    fn vertex_net_incidence_is_inverse_of_pins() {
        let h = sample();
        for n in 0..h.nnets() {
            for &v in h.pins_of(n) {
                assert!(h.nets_of(v as usize).contains(&(n as u32)));
            }
        }
        let total: usize = (0..h.nvtx()).map(|v| h.degree(v)).sum();
        assert_eq!(total, h.npins());
    }

    #[test]
    fn merge_identical_nets_sums_costs() {
        let h = Hypergraph::new(
            3,
            1,
            vec![1, 1, 1],
            &[vec![0, 1], vec![1, 0], vec![2], vec![0, 1, 2]],
            vec![2, 3, 7, 1],
        );
        let m = h.merge_identical_nets();
        assert_eq!(m.nnets(), 2); // {0,1} merged, {2} dropped, {0,1,2} kept
        let merged_cost: Vec<u64> = (0..m.nnets()).map(|n| m.ncost(n)).collect();
        assert!(merged_cost.contains(&5));
        assert!(merged_cost.contains(&1));
    }

    #[test]
    fn multiconstraint_weights() {
        let h = Hypergraph::new(2, 2, vec![1, 10, 2, 20], &[vec![0, 1]], vec![1]);
        assert_eq!(h.vweight(0), &[1, 10]);
        assert_eq!(h.vweight(1), &[2, 20]);
        assert_eq!(h.total_weights(), vec![3, 30]);
    }

    #[test]
    #[should_panic(expected = "pin out of range")]
    fn rejects_bad_pin() {
        Hypergraph::new(2, 1, vec![1, 1], &[vec![0, 2]], vec![1]);
    }
}
