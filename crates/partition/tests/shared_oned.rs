//! Property tests of the shared 1D rowwise run: `Strategy::partition_all`
//! hands out exactly what `Strategy::partition_with` returns for each
//! strategy, in any order, and the paper's invariants hold on the one
//! vector partition the `1d`-derived strategies share — on square, wide
//! and tall random matrices (Eckstein–Mátyásfalvi on why the shape
//! matters: rectangular matrices give the row and column vectors
//! different owners).

use proptest::prelude::*;
use proptest::Strategy as Gen;
use s2d_core::comm::comm_requirements;
use s2d_core::partition::SpmvPartition;
use s2d_partition::{PartitionerConfig, S2dVariant, Strategy};
use s2d_sparse::{Coo, Csr};
use s2d_spmv::plan::volume_matches_eq3;
use s2d_spmv::SpmvPlan;

/// A random `rows × cols` pattern with no empty row or column, a
/// density of about `per_row` entries per row, and, when `dense`, one
/// dense row and one dense column (the skew that widens `auto`'s
/// shortlist).
fn random_matrix(rows: usize, cols: usize, per_row: usize, dense: bool, seed: u64) -> Csr {
    let mut state = seed | 1;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    // Off the diagonal, so that a square pattern need not contain it
    // (then `1d`'s diagonal pins tell it apart from `hg-kway`).
    let mut m = Coo::new(rows, cols);
    for i in 0..rows {
        m.push(i, (i * cols / rows + 1) % cols, 4.0);
    }
    for j in 0..cols {
        m.push((j * rows / cols + 1) % rows, j, 1.0);
    }
    for _ in 0..rows * per_row {
        let (i, j) = (next(rows), next(cols));
        m.push(i, j, -1.0);
    }
    if dense {
        let (i, j) = (next(rows), next(cols));
        (0..cols).for_each(|c| m.push(i, c, 0.5));
        (0..rows).for_each(|r| m.push(r, j, 0.5));
    }
    m.compress();
    m.to_csr()
}

/// `(matrix, shape name)`: square, wide (more columns than rows) or
/// tall, 12–48 rows or columns on the short side.
fn matrix_strategy() -> impl Gen<Value = (Csr, &'static str)> {
    (0u8..3, 12usize..48, 0u64..1 << 32, 1usize..5, 0u8..2).prop_map(
        |(shape, n, seed, per_row, dense)| {
            let (rows, cols, name) = match shape {
                0 => (n, n, "square"),
                1 => (n, 2 * n + 3, "wide"),
                _ => (2 * n + 3, n, "tall"),
            };
            (random_matrix(rows, cols, per_row, dense == 1, seed), name)
        },
    )
}

/// Every strategy the shape admits, `auto` included.
fn admitted(a: &Csr) -> Vec<Strategy> {
    let square = a.nrows() == a.ncols();
    Strategy::all().into_iter().filter(|s| square || !s.requires_square()).collect()
}

fn volume(a: &Csr, p: &SpmvPartition) -> u64 {
    comm_requirements(a, p).total_volume()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One call for many strategies is many calls for one: the shared
    /// run changes no partition, whatever the order of the strategies.
    #[test]
    fn partition_all_is_partition_with_in_either_order(
        (a, shape) in matrix_strategy(),
        k in 2usize..7,
        seed in 1u64..1000,
        loose in 0u8..2,
    ) {
        let cfg = PartitionerConfig { epsilon: if loose == 1 { 0.10 } else { 0.03 }, seed };
        let strategies = admitted(&a);
        let one_by_one: Vec<SpmvPartition> =
            strategies.iter().map(|s| s.partition_with(&a, k, &cfg)).collect();

        let forward = Strategy::partition_all(&strategies, &a, k, &cfg);
        let reversed: Vec<Strategy> = strategies.iter().rev().copied().collect();
        let mut backward = Strategy::partition_all(&reversed, &a, k, &cfg);
        backward.reverse();
        for (i, s) in strategies.iter().enumerate() {
            prop_assert!(forward[i] == one_by_one[i], "{shape}/{s}/K={k}: forward order");
            prop_assert!(backward[i] == one_by_one[i], "{shape}/{s}/K={k}: reverse order");
        }
        // Both orders fill the shared run early (`s2d` first, `auto`
        // first); started cold, no strategy leaves another run behind.
        let oned = &one_by_one[strategies.iter().position(|&s| s == Strategy::OneDRow).unwrap()];
        for &s in &strategies {
            let then_1d = Strategy::partition_all(&[s, Strategy::OneDRow], &a, k, &cfg);
            prop_assert!(then_1d[1] == *oned, "{shape}/{s}/K={k}: 1d after it");
        }

        // `auto` is its winner's partition.
        let pick = Strategy::auto_pick(&a, k, &cfg);
        let auto = strategies.iter().position(|&s| s == Strategy::Auto).expect("auto admitted");
        prop_assert!(forward[auto] == pick.partition, "{shape}/K={k}: auto vs auto_pick");
        prop_assert!(
            pick.partition == pick.strategy.partition_with(&a, k, &cfg),
            "{shape}/K={k}: auto vs its winner {}",
            pick.strategy
        );
    }

    /// The paper's invariants on the shared run: every `claims_s2d`
    /// strategy is s2D-valid with Eq. 3 volume on its single-phase plan,
    /// and the s2D refinements of the one 1D vector partition never add
    /// volume: λ(s2d-opt) ≤ λ(s2d) ≤ λ(1d).
    #[test]
    fn shared_run_keeps_the_paper_invariants(
        (a, shape) in matrix_strategy(),
        k in 2usize..7,
        seed in 1u64..1000,
    ) {
        let cfg = PartitionerConfig { epsilon: 0.03, seed };
        let strategies = admitted(&a);
        let parts = Strategy::partition_all(&strategies, &a, k, &cfg);
        for (s, p) in strategies.iter().zip(&parts) {
            if s.claims_s2d() {
                prop_assert!(p.validate_s2d(&a).is_ok(), "{shape}/{s}/K={k}: not s2D");
                let plan = SpmvPlan::single_phase(&a, p);
                prop_assert!(volume_matches_eq3(&a, p, &plan), "{shape}/{s}/K={k}: Eq. 3");
            }
        }

        let of = |s: Strategy| &parts[strategies.iter().position(|&t| t == s).expect("admitted")];
        let oned = of(Strategy::OneDRow);
        let s2d = of(Strategy::SemiTwoD { variant: S2dVariant::Algorithm1 });
        let opt = of(Strategy::SemiTwoD { variant: S2dVariant::Optimal });
        for (name, p) in [("s2d", s2d), ("s2d-opt", opt)] {
            prop_assert!(
                p.x_part == oned.x_part && p.y_part == oned.y_part,
                "{shape}/{name}/K={k}: not on the 1D run's vector partition"
            );
        }
        let (v1, vs, vo) = (volume(&a, oned), volume(&a, s2d), volume(&a, opt));
        prop_assert!(vo <= vs && vs <= v1, "{shape}/K={k}: opt {vo}, s2d {vs}, 1d {v1}");
    }
}
