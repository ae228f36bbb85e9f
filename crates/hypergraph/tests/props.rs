//! Property tests for the hypergraph partitioner and the SpMV models.
//!
//! Oracles: brute-force connectivity−1 on tiny hypergraphs, the
//! cut = communication-volume identity of the column-net model, and the
//! structural invariants every partition must satisfy (all parts used
//! when feasible, part ids in range, determinism in the seed).

use proptest::prelude::*;
use s2d_hypergraph::models::{column_net_model, fine_grain_model, row_net_model};
use s2d_hypergraph::{
    connectivity_minus_one, cut_net, imbalance, partition_kway, Hypergraph, PartitionConfig,
};
use s2d_sparse::Coo;

/// Random hypergraph: unit vertex weights, unit net costs.
fn hg_strategy(max_vtx: usize, max_nets: usize) -> impl Strategy<Value = Hypergraph> {
    (2..=max_vtx).prop_flat_map(move |nv| {
        let net = proptest::collection::vec(0..nv as u32, 2..=nv.min(6));
        proptest::collection::vec(net, 1..=max_nets).prop_map(move |mut nets| {
            for net in &mut nets {
                net.sort_unstable();
                net.dedup();
            }
            nets.retain(|n| n.len() >= 2);
            if nets.is_empty() {
                nets.push(vec![0, 1]);
            }
            let costs = vec![1u64; nets.len()];
            Hypergraph::new(nv, 1, vec![1; nv], &nets, costs)
        })
    })
}

/// Raw nets as a matrix model or a contraction may hand them over: pins
/// in any order and repeated inside a net, nets of zero or one pin, whole
/// nets repeated (few distinct vertices make that likely), costs 1–5.
fn raw_nets_strategy(max_vtx: usize, max_nets: usize) -> impl Strategy<Value = Hypergraph> {
    (2..=max_vtx).prop_flat_map(move |nv| {
        let net = (proptest::collection::vec(0..nv as u32, 0..=4), 1u64..=5);
        proptest::collection::vec(net, 0..=max_nets).prop_map(move |nets| {
            let (pins, costs): (Vec<Vec<u32>>, Vec<u64>) = nets.into_iter().unzip();
            Hypergraph::new(nv, 1, vec![1; nv], &pins, costs)
        })
    })
}

/// Random sparse matrix for the model tests.
fn coo_strategy(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(move |(m, n)| {
        let entry = (0..m, 0..n);
        proptest::collection::vec(entry, 1..=max_nnz).prop_map(move |es| {
            let mut coo = Coo::new(m, n);
            for (r, c) in es {
                coo.push(r, c, 1.0);
            }
            coo.compress();
            coo
        })
    })
}

/// Reference connectivity−1 computed naively.
fn naive_connectivity(hg: &Hypergraph, parts: &[u32], k: usize) -> u64 {
    let mut total = 0u64;
    for n in 0..hg.nnets() {
        let mut seen = vec![false; k];
        let mut lambda = 0u64;
        for &p in hg.pins_of(n) {
            let part = parts[p as usize] as usize;
            if !seen[part] {
                seen[part] = true;
                lambda += 1;
            }
        }
        total += hg.ncost(n) * lambda.saturating_sub(1);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fast connectivity metric equals the naive one on arbitrary
    /// partitions.
    #[test]
    fn connectivity_matches_naive(
        hg in hg_strategy(16, 24),
        k in 1usize..5,
        seed in 0u64..500,
    ) {
        let parts: Vec<u32> = (0..hg.nvtx())
            .map(|v| ((v as u64 * 2654435761 + seed) % k as u64) as u32)
            .collect();
        prop_assert_eq!(
            connectivity_minus_one(&hg, &parts, k),
            naive_connectivity(&hg, &parts, k)
        );
    }

    /// Cut-net is bounded by connectivity−1 is bounded by (K−1)·cut-net.
    #[test]
    fn metric_sandwich(
        hg in hg_strategy(16, 24),
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        let parts: Vec<u32> = (0..hg.nvtx())
            .map(|v| ((v as u64 * 40503 + seed) % k as u64) as u32)
            .collect();
        let cn = cut_net(&hg, &parts, k);
        let conn = connectivity_minus_one(&hg, &parts, k);
        prop_assert!(cn <= conn);
        prop_assert!(conn <= cn * (k as u64 - 1));
    }

    /// Identical-net merging against an ordered-map reference: the unique
    /// pin sets of two or more pins, in lexicographic order, each with the
    /// summed cost of the nets that had it.
    #[test]
    fn merge_identical_nets_matches_btreemap(hg in raw_nets_strategy(5, 24)) {
        let mut reference = std::collections::BTreeMap::<Vec<u32>, u64>::new();
        for n in 0..hg.nnets() {
            let mut set = hg.pins_of(n).to_vec();
            set.sort_unstable();
            set.dedup();
            if set.len() >= 2 {
                *reference.entry(set).or_insert(0) += hg.ncost(n);
            }
        }
        let merged = hg.merge_identical_nets();
        let got: Vec<(Vec<u32>, u64)> =
            (0..merged.nnets()).map(|n| (merged.pins_of(n).to_vec(), merged.ncost(n))).collect();
        prop_assert_eq!(got, reference.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(merged.nvtx(), hg.nvtx());
    }

    /// The partitioner produces in-range part ids, covers every part when
    /// vertices allow, and is deterministic in the seed.
    #[test]
    fn partitioner_structural_invariants(
        hg in hg_strategy(24, 32),
        k in 1usize..5,
        seed in 0u64..20,
    ) {
        let cfg = PartitionConfig { seed, ..Default::default() };
        let p1 = partition_kway(&hg, k, &cfg);
        prop_assert_eq!(p1.parts.len(), hg.nvtx());
        prop_assert!(p1.parts.iter().all(|&x| (x as usize) < k));
        if hg.nvtx() >= k {
            let mut seen = vec![false; k];
            for &x in &p1.parts {
                seen[x as usize] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "a part is empty");
        }
        let p2 = partition_kway(&hg, k, &cfg);
        prop_assert_eq!(p1.parts, p2.parts);
    }

    /// The partitioner never exceeds a generous imbalance envelope on
    /// unit weights (epsilon plus the one-vertex granularity slack).
    #[test]
    fn partitioner_balance_envelope(
        hg in hg_strategy(32, 40),
        k in 2usize..5,
    ) {
        let cfg = PartitionConfig { epsilon: 0.10, ..Default::default() };
        let p = partition_kway(&hg, k, &cfg);
        let imb = imbalance(&hg, &p.parts, k, 0);
        // Granularity: with nvtx vertices of unit weight, one vertex is
        // k/nvtx of the average part weight.
        let slack = 0.10 + 1.5 * k as f64 / hg.nvtx() as f64;
        prop_assert!(imb <= slack, "imbalance {imb} > {slack}");
    }

    /// Column-net model identity: for a square matrix with a symmetric
    /// vector partition, connectivity−1 equals the expand volume of the
    /// induced rowwise partition.
    #[test]
    fn column_net_cut_equals_volume(
        coo in coo_strategy(16, 48),
        k in 2usize..4,
        seed in 0u64..100,
    ) {
        // Make it square by padding to max(m, n).
        let d = coo.nrows().max(coo.ncols());
        let mut sq = Coo::new(d, d);
        for (r, c, v) in coo.iter() {
            sq.push(r, c, v);
        }
        sq.compress();
        let a = sq.to_csr();
        let parts: Vec<u32> = (0..d)
            .map(|i| ((i as u64 * 97 + seed) % k as u64) as u32)
            .collect();
        let hg = column_net_model(&a, true);
        let cut = connectivity_minus_one(&hg, &parts, k);
        // Expand volume of the rowwise partition with x_j on part[j]:
        // for every column j, each foreign part with a nonzero needs x_j.
        let csc = a.to_csc();
        let mut volume = 0u64;
        for j in 0..d {
            let mut parts_seen: Vec<u32> = csc
                .col_rows(j)
                .iter()
                .map(|&i| parts[i as usize])
                .collect();
            parts_seen.push(parts[j]); // diagonal pin: x_j's owner
            parts_seen.sort_unstable();
            parts_seen.dedup();
            volume += parts_seen.len() as u64 - 1;
        }
        prop_assert_eq!(cut, volume);
    }

    /// Row-net model identity (the columnwise dual): connectivity−1 of a
    /// column partition equals the fold volume — for every row, each
    /// extra part holding one of its nonzeros ships one partial result.
    #[test]
    fn row_net_cut_equals_fold_volume(
        coo in coo_strategy(14, 40),
        k in 2usize..4,
        seed in 0u64..100,
    ) {
        let a = coo.to_csr();
        let parts_cols: Vec<u32> = (0..a.ncols())
            .map(|j| ((j as u64 * 31 + seed) % k as u64) as u32)
            .collect();
        let rn = row_net_model(&a, false);
        let cut = connectivity_minus_one(&rn, &parts_cols, k);
        // Fold volume of the columnwise partition with y_i placed on one
        // of the parts touching row i (λ − 1 partials per row).
        let mut volume = 0u64;
        for i in 0..a.nrows() {
            let mut touching: Vec<u32> =
                a.row_cols(i).iter().map(|&j| parts_cols[j as usize]).collect();
            touching.sort_unstable();
            touching.dedup();
            volume += (touching.len() as u64).saturating_sub(1);
        }
        prop_assert_eq!(cut, volume);
    }

    /// Fine-grain model shape: one vertex per nonzero, one net per row
    /// plus one per column (empty nets allowed), total pins = 2·nnz, and
    /// every nonzero-vertex pins exactly its row net and its column net.
    #[test]
    fn fine_grain_model_shape(coo in coo_strategy(14, 40)) {
        let a = coo.to_csr();
        let hg = fine_grain_model(&a);
        prop_assert_eq!(hg.nvtx(), a.nnz());
        prop_assert_eq!(hg.nnets(), a.nrows() + a.ncols());
        prop_assert_eq!(hg.npins(), 2 * a.nnz());
        for v in 0..hg.nvtx() {
            prop_assert_eq!(hg.degree(v), 2);
            let i = a.row_of_nnz(v);
            let j = a.colind()[v] as usize;
            let nets = hg.nets_of(v);
            prop_assert!(nets.contains(&(i as u32)), "row net of nonzero {v}");
            prop_assert!(nets.contains(&((a.nrows() + j) as u32)), "col net of nonzero {v}");
        }
    }
}
