//! Hypergraph data structure.
//!
//! Pins are stored twice in CSR form — net → vertices (`xpins`/`pins`) and
//! vertex → nets (`xnets`/`vnets`) — because coarsening walks both
//! directions in the hot loop. Vertex weights carry `ncon` balance
//! constraints (checkerboard partitioning needs one constraint per row
//! stripe; everything else uses `ncon = 1`).

use crate::pool::Pool;

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
    /// A pin a net lists more than once is kept once, at its first
    /// occurrence (the partitioner's gain rules count each pin of a net
    /// once).
    ///
    /// # Panics
    /// Panics on inconsistent sizes, out-of-range pins or a zero net cost.
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

    /// Builds a hypergraph from CSR pin arrays. A pin a net lists more
    /// than once is kept once, at its first occurrence, as in
    /// [`Hypergraph::new`].
    ///
    /// # Panics
    /// Panics on inconsistent sizes, out-of-range pins or a zero net cost
    /// (coarsening scores a neighbour by the summed cost of the nets it
    /// shares, and a score of 0 means "shares none").
    pub fn from_csr(
        nvtx: usize,
        ncon: usize,
        vwgt: Vec<u64>,
        ncost: Vec<u64>,
        mut xpins: Vec<usize>,
        mut pins: Vec<u32>,
    ) -> Self {
        dedup_pins(nvtx, &mut xpins, &mut pins);
        Self::from_csr_in(nvtx, ncon, vwgt, ncost, xpins, pins, &mut Pool::default())
    }

    /// [`Hypergraph::from_csr`] with the derived vertex → nets arrays
    /// taken from `pool`.
    pub(crate) fn from_csr_in(
        nvtx: usize,
        ncon: usize,
        vwgt: Vec<u64>,
        ncost: Vec<u64>,
        xpins: Vec<usize>,
        pins: Vec<u32>,
        pool: &mut Pool,
    ) -> Self {
        assert!(ncon >= 1, "at least one balance constraint required");
        assert_eq!(vwgt.len(), nvtx * ncon, "vertex weight array size mismatch");
        assert_eq!(xpins.len(), ncost.len() + 1, "xpins/ncost size mismatch");
        assert_eq!(*xpins.last().expect("xpins nonempty"), pins.len());
        assert!(xpins.windows(2).all(|w| w[0] <= w[1]), "xpins must be nondecreasing");
        assert!(pins.iter().all(|&p| (p as usize) < nvtx), "pin out of range");
        assert!(ncost.iter().all(|&c| c > 0), "net costs must be positive");

        // Derive the vertex → nets CSR by counting sort.
        let nnets = ncost.len();
        let mut xnets = pool.filled(nvtx + 1, 0usize);
        for &p in &pins {
            xnets[p as usize + 1] += 1;
        }
        for v in 0..nvtx {
            xnets[v + 1] += xnets[v];
        }
        let mut vnets = pool.filled(pins.len(), 0u32);
        let mut next = pool.copied(&xnets);
        for n in 0..nnets {
            for k in xpins[n]..xpins[n + 1] {
                let v = pins[k] as usize;
                vnets[next[v]] = n as u32;
                next[v] += 1;
            }
        }
        pool.give(next);
        Hypergraph { nvtx, ncon, vwgt, ncost, xpins, pins, xnets, vnets }
    }

    /// Gives the hypergraph's arrays back to `pool`.
    pub(crate) fn recycle(self, pool: &mut Pool) {
        pool.give(self.vwgt);
        pool.give(self.ncost);
        pool.give(self.xpins);
        pool.give(self.pins);
        pool.give(self.xnets);
        pool.give(self.vnets);
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

    /// The net → pins CSR arrays: the pins of net `n` are
    /// `pins[xpins[n]..xpins[n + 1]]`.
    #[inline]
    pub(crate) fn pin_csr(&self) -> (&[usize], &[u32]) {
        (&self.xpins, &self.pins)
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
        self.total_weights_in(&mut Pool::plain())
    }

    /// [`Hypergraph::total_weights`] in a buffer from `pool`.
    pub(crate) fn total_weights_in(&self, pool: &mut Pool) -> Vec<u64> {
        let mut totals = pool.filled(self.ncon, 0u64);
        for w in self.vwgt.chunks_exact(self.ncon) {
            for (t, &w) in totals.iter_mut().zip(w) {
                *t += w;
            }
        }
        totals
    }

    /// Merges nets with identical pin sets (summing their costs) and drops
    /// nets with fewer than two pins. Pin order within a net is not
    /// significant; nets are compared as sorted sets.
    ///
    /// Identical nets appear naturally during coarsening (a row net and a
    /// column net collapse onto the same cluster set); merging keeps the
    /// coarse hypergraphs small.
    pub fn merge_identical_nets(&self) -> Hypergraph {
        merge_nets(
            self.nvtx,
            self.ncon,
            self.vwgt.clone(),
            &self.ncost,
            self.xpins.clone(),
            self.pins.clone(),
            &mut Pool::default(),
        )
    }
}

/// [`Hypergraph::merge_identical_nets`] on CSR arrays, which it takes
/// over: each net's pins are sorted and de-duplicated in place, then the
/// nets of two or more pins are put in lexicographic order of their sets
/// (identical nets become neighbours, and the output order depends on
/// nothing but the input) by a counting sort on the first pin and a
/// comparison sort of each first-pin bucket on the rest. Its scratch and
/// the merged arrays come from `pool`, and `xpins` / `pins` go back to it.
pub(crate) fn merge_nets(
    nvtx: usize,
    ncon: usize,
    vwgt: Vec<u64>,
    ncost: &[u64],
    mut xpins: Vec<usize>,
    mut pins: Vec<u32>,
    pool: &mut Pool,
) -> Hypergraph {
    let nnets = ncost.len();
    let mut lo = 0;
    let mut len = 0;
    for n in 0..nnets {
        let hi = xpins[n + 1];
        pins[lo..hi].sort_unstable();
        let start = len;
        for k in lo..hi {
            let p = pins[k];
            if len == start || pins[len - 1] != p {
                pins[len] = p;
                len += 1;
            }
        }
        xpins[n + 1] = len;
        lo = hi;
    }
    pins.truncate(len);
    let set = |n: u32| &pins[xpins[n as usize]..xpins[n as usize + 1]];

    // `bucket[p]` ends up as the end of first pin `p`'s range in `order`.
    let mut bucket = pool.filled(nvtx + 1, 0usize);
    for n in 0..nnets as u32 {
        if set(n).len() >= 2 {
            bucket[set(n)[0] as usize + 1] += 1;
        }
    }
    for p in 0..nvtx {
        bucket[p + 1] += bucket[p];
    }
    let mut order = pool.filled(bucket[nvtx], 0u32);
    for n in 0..nnets as u32 {
        if set(n).len() >= 2 {
            let first = set(n)[0] as usize;
            order[bucket[first]] = n;
            bucket[first] += 1;
        }
    }
    let mut lo = 0;
    for &hi in &bucket[..nvtx] {
        order[lo..hi].sort_unstable_by(|&a, &b| set(a)[1..].cmp(&set(b)[1..]));
        lo = hi;
    }

    let mut xmerged = pool.with_capacity(order.len() + 1);
    xmerged.push(0usize);
    let mut merged: Vec<u32> = pool.with_capacity(pins.len());
    let mut mcost: Vec<u64> = pool.with_capacity(order.len());
    for group in order.chunk_by(|&a, &b| set(a) == set(b)) {
        merged.extend_from_slice(set(group[0]));
        xmerged.push(merged.len());
        mcost.push(group.iter().map(|&n| ncost[n as usize]).sum());
    }
    pool.give(bucket);
    pool.give(order);
    pool.give(xpins);
    pool.give(pins);
    Hypergraph::from_csr_in(nvtx, ncon, vwgt, mcost, xmerged, merged, pool)
}

/// Drops every repeat of a pin inside its net, keeping first
/// occurrences in order, and shrinks `xpins` to match. Arrays that
/// [`Hypergraph::from_csr_in`] rejects are left as they are, for its
/// asserts to name the fault.
fn dedup_pins(nvtx: usize, xpins: &mut [usize], pins: &mut Vec<u32>) {
    let well_formed = xpins.last() == Some(&pins.len())
        && xpins.windows(2).all(|w| w[0] <= w[1])
        && pins.iter().all(|&p| (p as usize) < nvtx);
    if !well_formed {
        return;
    }
    // `last[v]` is the net that last kept pin `v`.
    let mut last = vec![usize::MAX; nvtx];
    let (mut lo, mut kept) = (xpins[0], xpins[0]);
    for n in 0..xpins.len() - 1 {
        let hi = xpins[n + 1];
        for k in lo..hi {
            let v = pins[k];
            if last[v as usize] != n {
                last[v as usize] = n;
                pins[kept] = v;
                kept += 1;
            }
        }
        lo = hi;
        xpins[n + 1] = kept;
    }
    pins.truncate(kept);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coarsen::tests::raw_hg_strategy;
    use proptest::prelude::*;

    /// The merge this module used to run, kept as the oracle: one
    /// comparison sort of every net's sorted set.
    pub(crate) fn merge_identical_nets_reference(hg: &Hypergraph) -> Hypergraph {
        let mut xsets = Vec::with_capacity(hg.nnets() + 1);
        xsets.push(0usize);
        let mut sets: Vec<u32> = Vec::with_capacity(hg.npins());
        let mut one: Vec<u32> = Vec::new();
        for n in 0..hg.nnets() {
            one.clear();
            one.extend_from_slice(hg.pins_of(n));
            one.sort_unstable();
            one.dedup();
            sets.extend_from_slice(&one);
            xsets.push(sets.len());
        }
        let set = |n: u32| &sets[xsets[n as usize]..xsets[n as usize + 1]];

        let mut order: Vec<u32> = (0..hg.nnets() as u32).filter(|&n| set(n).len() >= 2).collect();
        order.sort_unstable_by(|&a, &b| set(a).cmp(set(b)));

        let mut xpins = vec![0usize];
        let mut pins: Vec<u32> = Vec::with_capacity(sets.len());
        let mut ncost: Vec<u64> = Vec::new();
        for group in order.chunk_by(|&a, &b| set(a) == set(b)) {
            pins.extend_from_slice(set(group[0]));
            xpins.push(pins.len());
            ncost.push(group.iter().map(|&n| hg.ncost(n as usize)).sum());
        }
        Hypergraph::from_csr(hg.nvtx(), hg.ncon(), hg.vwgt.clone(), ncost, xpins, pins)
    }

    /// What defines `hg` (its vertex → nets index is derived from it):
    /// the value the oracle proptests compare.
    pub(crate) fn defining(hg: &Hypergraph) -> (usize, usize, &[u64], &[u64], &[usize], &[u32]) {
        (hg.nvtx, hg.ncon, &hg.vwgt, &hg.ncost, &hg.xpins, &hg.pins)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(crate::ORACLE_CASES))]

        /// The bucketed merge returns exactly what one comparison sort of
        /// all sets returns: the same nets, in the same order, with the
        /// same summed costs.
        #[test]
        fn merge_identical_nets_matches_reference(hg in raw_hg_strategy()) {
            let (got, want) = (hg.merge_identical_nets(), merge_identical_nets_reference(&hg));
            prop_assert_eq!(defining(&got), defining(&want));
        }
    }

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

    #[test]
    #[should_panic(expected = "net costs must be positive")]
    fn rejects_zero_net_cost() {
        Hypergraph::new(3, 1, vec![1, 1, 1], &[vec![0, 1], vec![1, 2]], vec![1, 0]);
    }
}
