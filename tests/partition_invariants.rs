//! Cross-crate invariants of the partitioning methods: validity, load
//! accounting, volume orderings and the latency bounds the paper claims.

use s2d::baselines::{
    boman, checkerboard, partition_1d_b, partition_1d_colwise, partition_1d_rowwise,
    partition_2d_fine_grain, partition_checkerboard, partition_s2d_mg,
};
use s2d::core::comm::{comm_requirements, s2d_comm_stats, two_phase_comm_stats};
use s2d::core::heuristic::{s2d_from_vector_partition, HeuristicConfig};
use s2d::core::mesh::{mesh_dims, MeshRouting};
use s2d::core::optimal::s2d_optimal;
use s2d::core::SpmvPartition;
use s2d::gen::{suite_a, suite_b, Scale};
use s2d::sparse::Csr;

fn tiny(idx: usize, seed: u64) -> Csr {
    suite_a()[idx].generate(Scale::Tiny, seed)
}

#[test]
fn all_methods_produce_structurally_valid_partitions() {
    let a = tiny(0, 1);
    let k = 8;
    for (name, p) in [
        ("1D-row", partition_1d_rowwise(&a, k, 0.03, 1).partition),
        ("1D-col", partition_1d_colwise(&a, k, 0.03, 1).partition),
        ("2D", partition_2d_fine_grain(&a, k, 0.03, 1)),
        ("s2D-mg", partition_s2d_mg(&a, k, 0.03, 1)),
    ] {
        p.assert_shape(&a);
        let total: u64 = p.loads().iter().sum();
        assert_eq!(total, a.nnz() as u64, "{name}: loads must sum to nnz");
    }
}

#[test]
fn volume_ordering_optimal_heuristic_rowwise() {
    // For a fixed vector partition: λ(optimal) ≤ λ(heuristic) ≤ λ(1D).
    for idx in [0, 3, 4] {
        let a = tiny(idx, 2);
        let oned = partition_1d_rowwise(&a, 8, 0.03, 2);
        let v_1d = comm_requirements(&a, &oned.partition).total_volume();
        let heur = s2d_from_vector_partition(
            &a,
            &oned.row_part,
            &oned.col_part,
            &HeuristicConfig::default(),
        );
        let v_h = comm_requirements(&a, &heur).total_volume();
        let opt = s2d_optimal(&a, &oned.row_part, &oned.col_part, 8);
        let v_o = comm_requirements(&a, &opt).total_volume();
        assert!(v_o <= v_h, "matrix {idx}: optimal {v_o} > heuristic {v_h}");
        assert!(v_h <= v_1d, "matrix {idx}: heuristic {v_h} > 1D {v_1d}");
    }
}

#[test]
fn s2d_single_phase_message_count_never_exceeds_two_phase() {
    // The fused Expand-and-Fold merges same-direction streams: message
    // count can only drop; volume is identical.
    for idx in [0, 3] {
        let a = tiny(idx, 3);
        let oned = partition_1d_rowwise(&a, 8, 0.03, 3);
        let p = s2d_from_vector_partition(
            &a,
            &oned.row_part,
            &oned.col_part,
            &HeuristicConfig::default(),
        );
        let single = s2d_comm_stats(&a, &p);
        let two = two_phase_comm_stats(&a, &p);
        assert_eq!(single.total_volume, two.total_volume);
        assert!(single.total_messages <= two.total_messages);
    }
}

#[test]
fn s2d_and_1d_share_the_communication_pattern() {
    // The paper's first observation in Section III: with the same vector
    // partition, a message k→ℓ exists for s2D iff it exists for 1D.
    let a = tiny(4, 5);
    let oned = partition_1d_rowwise(&a, 8, 0.03, 5);
    let heur =
        s2d_from_vector_partition(&a, &oned.row_part, &oned.col_part, &HeuristicConfig::default());
    let pairs = |p: &SpmvPartition| -> std::collections::BTreeSet<(u32, u32)> {
        let reqs = comm_requirements(&a, p);
        s2d::core::comm::single_phase_messages(&reqs).into_iter().map(|(s, d, _)| (s, d)).collect()
    };
    assert_eq!(pairs(&oned.partition), pairs(&heur));
}

#[test]
fn heuristic_load_never_exceeds_paper_bound() {
    // Algorithm 1 invariant: the final max load stays within
    // max{initial W̃, W_lim}.
    for idx in [3, 4, 7] {
        let a = tiny(idx, 7);
        let k = 8;
        let oned = partition_1d_rowwise(&a, k, 0.03, 7);
        let cfg = HeuristicConfig::default();
        let heur = s2d_from_vector_partition(&a, &oned.row_part, &oned.col_part, &cfg);
        let w_lim = ((1.0 + cfg.epsilon) * a.nnz() as f64 / k as f64).ceil() as u64;
        let w0 = oned.partition.loads().into_iter().max().unwrap();
        let w1 = heur.loads().into_iter().max().unwrap();
        assert!(w1 <= w0.max(w_lim), "matrix {idx}: {w1} > max({w0}, {w_lim})");
    }
}

#[test]
fn heuristic_never_worsens_the_initial_balance_when_overloaded() {
    // The paper's variant of Algorithm 1: while the current max load W̃
    // exceeds W_lim, a flip is admitted only if it stays below W̃ — so on
    // overloaded starts (dense-row matrices) the max load never grows.
    // On starts already within W_lim, growth up to W_lim is legitimate.
    let cfg = HeuristicConfig::default();
    let mut overloaded_seen = 0u32;
    for spec in suite_b() {
        let a = spec.generate(Scale::Tiny, 11);
        let k = 16;
        let oned = partition_1d_rowwise(&a, k, 0.03, 11);
        let w0 = oned.partition.loads().into_iter().max().unwrap();
        let w_lim = ((1.0 + cfg.epsilon) * a.nnz() as f64 / k as f64).ceil() as u64;
        let heur = s2d_from_vector_partition(&a, &oned.row_part, &oned.col_part, &cfg);
        let w1 = heur.loads().into_iter().max().unwrap();
        if w0 > w_lim {
            overloaded_seen += 1;
            assert!(w1 <= w0, "{}: heuristic max load {w1} > initial {w0}", spec.name);
        } else {
            assert!(w1 <= w_lim, "{}: heuristic max load {w1} > W_lim {w_lim}", spec.name);
        }
    }
    assert!(
        overloaded_seen >= 1,
        "suite B should contain at least one matrix whose 1D start violates W_lim"
    );
}

#[test]
fn checkerboard_respects_message_bound() {
    let a = tiny(0, 13);
    let cb = partition_checkerboard(&a, 16, 0.10, 13);
    assert!(checkerboard::latency_bound_ok(&a, &cb));
    let stats = two_phase_comm_stats(&a, &cb.partition);
    let (pr, pc) = mesh_dims(16);
    assert!(
        stats.max_send_msgs() as usize <= (pr - 1) + (pc - 1),
        "2D-b max msgs {} exceeds mesh bound",
        stats.max_send_msgs()
    );
}

#[test]
fn boman_respects_message_bound_and_keeps_vector_partition() {
    let spec = &suite_b()[2];
    let a = spec.generate(Scale::Tiny, 17);
    let oned = partition_1d_rowwise(&a, 16, 0.03, 17);
    let p = partition_1d_b(&a, &oned.row_part, 16);
    assert!(boman::latency_bound_ok(&a, &p));
    // 1D-b keeps the 1D vector partition (the paper constructs it so).
    assert_eq!(p.y_part, oned.partition.y_part);
}

#[test]
fn mesh_routing_preserves_load_balance_and_bounds_latency() {
    // Table V: "The load imbalance values of s2D and s2D-b are the same"
    // — the mesh reroutes messages, never nonzeros.
    for spec in suite_b().into_iter().take(3) {
        let a = spec.generate(Scale::Tiny, 19);
        let k = 16;
        let oned = partition_1d_rowwise(&a, k, 0.03, 19);
        let p = s2d_from_vector_partition(
            &a,
            &oned.row_part,
            &oned.col_part,
            &HeuristicConfig::default(),
        );
        let reqs = comm_requirements(&a, &p);
        let routing = MeshRouting::with_default_mesh(k, &reqs);
        assert!(routing.check_latency_bound(k), "{}: latency bound", spec.name);
        // Two-hop routing can only add volume.
        let direct = s2d_comm_stats(&a, &p);
        let routed = routing.stats(k);
        assert!(
            routed.total_volume >= direct.total_volume - 0,
            "{}: aggregation may reduce below direct only via dedup",
            spec.name
        );
        // Message bound: (pr-1) in phase 1, (pc-1) in phase 2.
        let (pr, pc) = mesh_dims(k);
        assert!(routed.max_send_msgs() as usize <= (pr - 1) + (pc - 1));
    }
}

#[test]
fn fine_grain_balances_tightly() {
    // Table II: 2D achieves ~0.1% imbalance. Our partitioner is weaker
    // than PaToH; assert a loose version of the claim.
    let a = tiny(3, 23); // c-big double: 1D balance collapses, 2D must not
    let p2 = partition_2d_fine_grain(&a, 8, 0.03, 23);
    assert!(
        p2.load_imbalance() < 0.10,
        "2D fine-grain imbalance {} too large",
        p2.load_imbalance()
    );
}

#[test]
fn dense_row_matrices_break_1d_but_not_s2d() {
    // The paper's motivating claim (Table V): with dense rows 1D balance
    // degenerates linearly in K while s2D stays bounded.
    let spec = &suite_b()[3]; // ASIC_680k double
    let a = spec.generate(Scale::Tiny, 29);
    let k = 32;
    let oned = partition_1d_rowwise(&a, k, 0.03, 29);
    let li_1d = oned.partition.load_imbalance();
    let heur =
        s2d_from_vector_partition(&a, &oned.row_part, &oned.col_part, &HeuristicConfig::default());
    let li_s2d = heur.load_imbalance();
    assert!(
        li_s2d < li_1d,
        "s2D imbalance {li_s2d} must improve on 1D {li_1d} for dense-row matrices"
    );
}

#[test]
fn empty_rows_and_columns_are_tolerated() {
    use s2d::sparse::Coo;
    // Rows 2 and 4, column 0 empty.
    let a = Coo::from_pattern(6, 4, &[(0, 1), (1, 2), (3, 3), (5, 1)]).to_csr();
    let y = vec![0, 0, 0, 1, 1, 1];
    let x = vec![0, 0, 1, 1];
    let p = s2d_optimal(&a, &y, &x, 2);
    assert!(p.is_s2d(&a));
    let plan = s2d::spmv::SpmvPlan::single_phase(&a, &p);
    let y_out = plan.execute_mailbox(&[1.0, 2.0, 3.0, 4.0]);
    assert_eq!(y_out, a.spmv_alloc(&[1.0, 2.0, 3.0, 4.0]));
}

#[test]
fn single_processor_partition_has_no_communication() {
    let a = tiny(1, 31);
    let oned = partition_1d_rowwise(&a, 1, 0.03, 31);
    let stats = two_phase_comm_stats(&a, &oned.partition);
    assert_eq!(stats.total_volume, 0);
    assert_eq!(stats.total_messages, 0);
    let x: Vec<f64> = (0..a.ncols()).map(|j| j as f64).collect();
    let plan = s2d::spmv::SpmvPlan::single_phase(&a, &oned.partition);
    assert_eq!(plan.execute_mailbox(&x), a.spmv_alloc(&x));
}

/// FNV-1a over the little-endian bytes of a part vector.
fn fnv(parts: &[u32]) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn golden_partitions_are_unchanged() {
    // Fingerprints of the partitions the hypergraph partitioner returns,
    // re-recorded when each bisection got its own seed. A change that moves any of them changes
    // every downstream quality number and has to say so.
    use s2d::gen::denserow::{dense_row_matrix, DenseRowConfig};
    use s2d::gen::fem::fem_like;
    use s2d::gen::rmat::{rmat, RmatConfig};

    let n = 512;
    let inputs = [
        ("rmat", rmat(&RmatConfig::graph500(9, 8), 5).to_csr()),
        (
            "denserow",
            dense_row_matrix(
                &DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true },
                5,
            ),
        ),
        ("fem", fem_like(1 << 11, 27.0, 27, 5)),
    ];
    let mut got = Vec::new();
    for (name, a) in &inputs {
        for k in [2, 3, 8, 16] {
            got.push((
                format!("{name} 1d-row k={k}"),
                fnv(&partition_1d_rowwise(a, k, 0.03, 5).row_part),
            ));
        }
    }
    // Checkerboard's second pass is multi-constraint (ncon = Pr = 4).
    let cb = partition_checkerboard(&inputs[0].1, 16, 0.10, 5);
    got.push(("rmat 2d-b rows".into(), fnv(&cb.row_stripe)));
    got.push(("rmat 2d-b cols".into(), fnv(&cb.col_stripe)));
    // Fine-grain: one vertex per nonzero, two nets each.
    let fg = partition_2d_fine_grain(&inputs[1].1, 8, 0.03, 5);
    got.push(("denserow 2d nz".into(), fnv(&fg.nz_owner)));
    got.push(("denserow 2d x".into(), fnv(&fg.x_part)));
    got.push(("denserow 2d y".into(), fnv(&fg.y_part)));
    // Dense rows at the paper's K: most FM candidates are balance-blocked.
    let n = 1 << 11;
    let wide = dense_row_matrix(
        &DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true },
        5,
    );
    for k in [32, 64] {
        got.push((
            format!("denserow-2k 1d-row k={k}"),
            fnv(&partition_1d_rowwise(&wide, k, 0.03, 5).row_part),
        ));
    }
    // A stencil deep enough for several coarsening levels per bisection.
    let fem8k = fem_like(1 << 13, 27.0, 27, 5);
    got.push(("fem-8k 1d-row k=8".into(), fnv(&partition_1d_rowwise(&fem8k, 8, 0.03, 5).row_part)));

    let golden: [(&str, u64); 20] = [
        ("rmat 1d-row k=2", 0x42a7ad02473cf915),
        ("rmat 1d-row k=3", 0x3d2198d556f6ac04),
        ("rmat 1d-row k=8", 0xb0ce574070ab1e71),
        ("rmat 1d-row k=16", 0xbfeb10020d1cdf8a),
        ("denserow 1d-row k=2", 0x93c76737bb99e0c4),
        ("denserow 1d-row k=3", 0xbe0cd88988a0d654),
        ("denserow 1d-row k=8", 0xe7209ec09145e106),
        ("denserow 1d-row k=16", 0xbf04442a7869e705),
        ("fem 1d-row k=2", 0x8806efba068b81c4),
        ("fem 1d-row k=3", 0xe9371c866afdc954),
        ("fem 1d-row k=8", 0xce2d46c4e5f34976),
        ("fem 1d-row k=16", 0x0b19cb22bf49257a),
        ("rmat 2d-b rows", 0xa2b1c47dafb2c857),
        ("rmat 2d-b cols", 0x11b5d4cfe07b5874),
        ("denserow 2d nz", 0x18b2e60070c763c2),
        ("denserow 2d x", 0xab94f637af389a07),
        ("denserow 2d y", 0x729280d76defa5c4),
        ("denserow-2k 1d-row k=32", 0xfc9db40b7bb1ea73),
        ("denserow-2k 1d-row k=64", 0xb1808194df8a57ac),
        ("fem-8k 1d-row k=8", 0xd6822b2edbc33475),
    ];
    let table: String = got.iter().map(|(l, h)| format!("(\"{l}\", {h:#018x}),\n")).collect();
    assert_eq!(got.len(), golden.len(), "recorded fingerprints:\n{table}");
    for ((name, h), (gname, gh)) in got.iter().zip(golden) {
        assert_eq!(name, gname);
        assert_eq!(
            *h, gh,
            "{name}: partition fingerprint {h:#018x} differs from the golden one\n{table}"
        );
    }
}
