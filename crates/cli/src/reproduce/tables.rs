//! The reproduction as data: one entry per table, figure and ablation —
//! which suite and processor counts, which methods, which columns, the
//! paper's own rows, and the expectations the runner checks. Orderings
//! and trends only, never digits.

use super::Check::{ClaimsHold, Fig1Caption, Plurality, RatioGrowsWithK, Rels};
use super::Scope::{Cell, Mean};
use super::Suite::{A, B};
use super::View::{Figure1, Properties, Rows};
use super::{Check, Expectation, Scope, Table};
use s2d_gen::Scale;

// Methods are spelled `[label=]build[:plan]`. 1D and s2D share one 1D
// run's vector partition (`Strategy::partition_all`), so they share
// communication patterns; s2D-b is the s2D nonzero partition rerouted
// over the `Pr × Pc` mesh.

const fn e(id: &'static str, scope: Scope, check: Check) -> Expectation {
    Expectation { id, scope, check }
}
/// Every (matrix, K, seed) of the table.
const CELLS: Scope = Cell(&[]);

/// Relative gap under which `ablation_machine` counts two modeled times
/// as a tie (the reason is next to its expectations).
const MACHINE_TIE: f64 = 0.005;

/// Columns of the per-method view; the row names the method.
const PER_METHOD: &str = "volume li avg max t_us sp";

/// Algorithm 1 (`A1`) and 2 (`A2`) at each load tolerance of the
/// `W_lim` sweep, ε rising.
macro_rules! wlim {
    ($($eps:literal)*) => {
        const WLIM_METHODS: &str = concat!("1D=1d:single", $(
            " A1@", $eps, "=s2d@", $eps, ":single A2@", $eps, "=s2d-gen@", $eps, ":single",
        )*);
        const WLIM_A2_NO_WORSE: &str = concat!($(
            "A2@", $eps, ".li <= A1@", $eps, ".li; A2@", $eps, ".volume <= A1@", $eps, ".volume;",
        )*);
    };
}
wlim!("0.00" "0.01" "0.03" "0.10" "0.30" "1.00" "10.0");

/// What most entries are: every matrix of suite B, no paper rows.
const BASE: Table = Table {
    name: "",
    title: "",
    suites: &[B],
    take: usize::MAX,
    ks: Scale::ks_suite_b,
    methods: "",
    view: Properties,
    paper: &[],
    expectations: &[],
};

pub(super) static TABLES: [Table; 14] = [
    Table {
        name: "table1",
        title: "Table I, properties of the test matrices (suite A)",
        suites: &[A],
        ks: Scale::ks_suite_a,
        ..BASE
    },
    Table {
        name: "table2",
        title: "Table II, 1D vs 2D fine-grain vs s2D (suite A)",
        suites: &[A],
        ks: Scale::ks_suite_a,
        methods: "1D=1d:single 2D=2d:two s2D=s2d:single",
        view: Rows(
            "1D.li 1D.avg 1D.max 1D.volume 1D.sp \
             | 2D.li 2D.avg 2D.max lam/1D=2D.volume/1D.volume 2D.sp \
             | s2D.li lam/1D=s2D.volume/1D.volume s2D.sp",
        ),
        paper: &[
            ("K=16", "1D: 1.9%  6/10  3.34e4 Sp 13.7 | 2D: 0.1% 13/18 0.36 Sp 16.0 | s2D: 1.5% 0.51 Sp 16.4"),
            ("K=64", "1D: 2.6% 10/23  7.09e4 Sp 35.5 | 2D: 0.1% 20/39 0.40 Sp 41.2 | s2D: 1.8% 0.54 Sp 49.2"),
            ("K=256", "1D: 10.6% 15/54 1.38e5 Sp 34.4 | 2D: 0.1% 25/85 0.43 Sp 37.2 | s2D: 4.8% 0.52 Sp 43.5"),
        ],
        expectations: &[
            e("t2.s2d-volume-le-1d", CELLS, Rels("s2D.volume <= 1D.volume")),
            e("t2.s2d-one-phase-at-most-k-1-messages", CELLS, Rels("s2D.phases <= 1; s2D.max <= K-1")),
            e("t2.s2d-claims-hold", CELLS, ClaimsHold),
            e("t2.s2d-volume-below-1d", Mean(A), Rels("s2D.volume < 1D.volume")),
            e("t2.s2d-balance-no-worse-than-1d", Mean(A), Rels("s2D.li <= 1D.li")),
            e("t2.2d-best-balance", Mean(A), Rels("2D.li < 1D.li; 2D.li < s2D.li")),
            e("t2.2d-most-messages", Mean(A), Rels("1D.avg < 2D.avg; s2D.avg < 2D.avg")),
            e("t2.s2d-best-modeled-time", Mean(A), Rels("s2D.t_ab <= 1D.t_ab; s2D.t_ab <= 2D.t_ab")),
        ],
        ..BASE
    },
    Table {
        name: "table3",
        title: "Table III, checkerboard 2D-b vs the unbounded-latency methods at the largest K (suite A)",
        suites: &[A],
        ks: |scale| scale.ks_suite_a().split_off(scale.ks_suite_a().len() - 1),
        methods: "1D=1d:single s2D=s2d:single 2D-b=2d-b:two",
        view: Rows("1D.sp s2D.sp | 2D-b.li 2D-b.avg 2D-b.max lam/1D=2D-b.volume/1D.volume 2D-b.sp"),
        paper: &[
            ("", "best of {1D, 2D, s2D} / 2D-b (LI, lam, Sp) at K = 256"),
            ("crystk02", "53.5 (s2D) / (2.7%, 1.18, 62.2)"),
            ("turon_m", "128.0 (s2D) / (3.3%, 1.24, 79.5)"),
            ("trdheim", "89.2 (2D) / (2.1%, 1.30, 72.1)"),
            ("c-big", "9.3 (2D) / (4.4%, 1.39, 85.4)"),
            ("ASIC_680k", "12.2 (2D) / (1.6*, 1.24, 37.9)"),
            ("3dtube", "123.0 (s2D) / (3.6%, 1.27, 113.2)"),
            ("pkustk12", "167.9 (1D) / (3.7%, 1.16, 186.3)"),
            ("pattern1", "23.9 (2D) / (14.0%, 0.91, 214.0)"),
            ("geomean", "43.5 (s2D) / (6.3%, 1.20, 92.2)"),
        ],
        expectations: &[
            e("t3.2db-latency-bound", CELLS, Rels("2D-b.max <= Pr+Pc-2")),
            e(
                "t3.2db-wins-on-dense-row-matrices",
                Cell(&["c-big", "ASIC_680k", "pattern1"]),
                Rels("2D-b.t_ab < 1D.t_ab; 2D-b.t_ab < s2D.t_ab"),
            ),
        ],
        ..BASE
    },
    Table {
        name: "table4",
        title: "Table IV, properties of the dense-row matrices (suite B)",
        ..BASE
    },
    Table {
        name: "table5",
        title: "Table V, 1D vs s2D vs s2D-b on dense-row matrices (suite B)",
        methods: "1D=1d:single s2D=s2d:single s2D-b=s2d:mesh",
        view: Rows(
            "1D.li 1D.avg 1D.max 1D.volume | s2D.li lam/1D=s2D.volume/1D.volume \
             | s2D-b.avg s2D-b.max lam/1D=s2D-b.volume/1D.volume",
        ),
        paper: &[
            ("K=256", "1D: 5.3* 26/235 6.65e5 | s2D: 52.3% 0.05 | s2D-b: 12/27 0.06"),
            ("K=1024", "1D: 38.9* 32/924 7.65e5 | s2D: 71.7% 0.10 | s2D-b: 16/49 0.12"),
            ("K=4096", "1D: 163.7* 30/3579 8.90e5 | s2D: 83.8% 0.20 | s2D-b: 18/90 0.24"),
        ],
        expectations: &[
            e("t5.s2d-volume-le-1d", CELLS, Rels("s2D.volume <= 1D.volume")),
            e("t5.s2db-keeps-s2d-loads", CELLS, Rels("s2D-b.li == s2D.li; s2D-b.max_load == s2D.max_load")),
            e("t5.s2db-latency-bound", CELLS, Rels("s2D-b.max <= Pr+Pc-2")),
            e("t5.s2db-volume-below-twice-s2d", CELLS, Rels("s2D-b.volume < 2*s2D.volume")),
            e("t5.s2d-claims-hold", CELLS, ClaimsHold),
            e("t5.s2d-volume-below-1d", Mean(B), Rels("s2D.volume < 1D.volume")),
            e("t5.s2d-better-balanced-than-1d", Mean(B), Rels("s2D.li < 1D.li")),
            e("t5.balance-gap-grows-with-k", Mean(B), RatioGrowsWithK("1D.li", "s2D.li")),
        ],
        ..BASE
    },
    Table {
        name: "table6",
        title: "Table VI, s2D-b vs 2D-b and 1D-b (suite B)",
        methods: "2D-b=2d-b:two 1D-b=1d-b:two s2D-b=s2d:mesh",
        view: Rows(
            "2D-b.li 2D-b.volume | 1D-b.li lam/2Db=1D-b.volume/2D-b.volume \
             | s2D-b.li lam/2Db=s2D-b.volume/2D-b.volume",
        ),
        paper: &[
            ("K=256", "2D-b: 75.1% 1.03e6 | 1D-b: 1.3* 0.88 | s2D-b: 52.3% 0.04"),
            ("K=1024", "2D-b: 2.0* 1.18e6 | 1D-b: 3.3* 0.88 | s2D-b: 71.7% 0.08"),
            ("K=4096", "2D-b: 5.1* 1.35e6 | 1D-b: 8.4* 0.89 | s2D-b: 83.8% 0.16"),
        ],
        expectations: &[
            e("t6.latency-bounds", CELLS, Rels("2D-b.max <= Pr+Pc-2; s2D-b.max <= Pr+Pc-2")),
            e("t6.s2db-best-balance", Mean(B), Rels("s2D-b.li < 2D-b.li; s2D-b.li < 1D-b.li")),
            e("t6.s2db-least-volume", Mean(B), Rels("s2D-b.volume < 2D-b.volume; s2D-b.volume < 1D-b.volume")),
            e("t6.rmat-is-the-volume-exception", Cell(&["rmat_20"]), Rels("2D-b.volume < s2D-b.volume")),
        ],
        ..BASE
    },
    Table {
        name: "table7",
        title: "Table VII, s2D-mg (medium-grain) vs s2D (suite B)",
        methods: "s2D-mg=s2d-mg:single s2D=s2d:single",
        view: Rows("s2D-mg.li s2D-mg.avg s2D-mg.volume | s2D.li s2D.avg lam/mg=s2D.volume/s2D-mg.volume"),
        paper: &[
            ("K=256", "s2D-mg: 4.8% lat 39 6.54e4 | s2D: 52.3% lat 26 ratio 0.52"),
            ("K=1024", "s2D-mg: 9.4% lat 50 1.24e5 | s2D: 71.7% lat 32 ratio 0.61"),
            ("K=4096", "s2D-mg: 11.9% lat 38 2.42e5 | s2D: 83.8% lat 30 ratio 0.74"),
        ],
        expectations: &[
            e("t7.mg-better-balanced", Mean(B), Rels("s2D-mg.li < s2D.li")),
            e("t7.s2d-claims-hold", CELLS, ClaimsHold),
        ],
        ..BASE
    },
    Table {
        name: "figure1",
        title: "Figure 1, sample 3-way s2D partitioning of a 10x13 matrix",
        suites: &[],
        ks: |_| vec![3],
        view: Figure1,
        paper: &[
            ("caption", "lambda(P3->P2) = 3 with n^ = 2, m^ = 1"),
            ("caption", "P2 sends [x5, y2] to P1 in one message"),
        ],
        expectations: &[e("fig1.caption-facts", CELLS, Fig1Caption)],
        ..BASE
    },
    Table {
        name: "ablation_alternatives",
        title: "Ablation, the Section VII variants against Algorithm 1 on one vector partition (suite B)",
        ks: |_| vec![64],
        methods: "1D=1d:single opt=s2d-opt:single s2D=s2d:single alg2=s2d-gen:single iter=s2d-it:single",
        view: Rows(
            "opt.volume | v1/vo=s2D.volume/opt.volume s2D.li | v2/vo=alg2.volume/opt.volume alg2.li \
             | vi/vo=iter.volume/opt.volume iter.li",
        ),
        expectations: &[
            e("alt.optimal-le-alg1-le-1d-volume", CELLS, Rels("opt.volume <= s2D.volume <= 1D.volume")),
            e("alt.alg2-volume-le-alg1", CELLS, Rels("alg2.volume <= s2D.volume")),
            e("alt.alg2-balance-le-alg1", CELLS, Rels("alg2.li <= s2D.li")),
            e("alt.iterated-volume-le-alg2", CELLS, Rels("iter.volume <= alg2.volume")),
        ],
        ..BASE
    },
    Table {
        name: "ablation_fusion",
        title: "Ablation, fused single-phase vs unfused two-phase s2D (suite A)",
        suites: &[A],
        ks: |_| vec![64],
        methods: "s2D=s2d:single unfused=s2d:two",
        view: Rows("s2D.msgs unfused.msgs 1p/2p=s2D.msgs/unfused.msgs | s2D.sp unfused.sp"),
        expectations: &[
            e("fusion.volume-equal", CELLS, Rels("s2D.volume == unfused.volume")),
            e("fusion.fused-messages-le-unfused", CELLS, Rels("s2D.msgs <= unfused.msgs")),
            e("fusion.fused-time-le-unfused", CELLS, Rels("s2D.t_ab <= unfused.t_ab")),
        ],
        ..BASE
    },
    Table {
        name: "ablation_machine",
        title: "Ablation, the Table II ranking under alpha-beta, 3D-torus and LogGP pricing (suite A)",
        suites: &[A],
        ks: |_| vec![64],
        methods: "1D=1d:single 2D=2d:two s2D=s2d:single",
        view: Rows(
            "1D.sp 2D.sp s2D.sp | 1D.sp_torus 2D.sp_torus s2D.sp_torus \
             | 1D.sp_loggp 2D.sp_loggp s2D.sp_loggp",
        ),
        // s2D is Algorithm 1 on the 1D run's vector partition, so on
        // every matrix but ASIC_680k the two move nearly the same words:
        // their time gap is -0.49..+0.42 % at `small` and under 0.32 % at
        // `tiny`, while a reseed (seeds 1-5, `tiny`) moves either
        // method's time by a median 3 % (0.01-13 %) per matrix. A win by
        // less than `MACHINE_TIE` is a reseed's coin flip, so it is a
        // tie that both methods win; s2D must still win more matrices
        // than any other method (ASIC_680k: 4-35 % below 1D).
        expectations: &[
            e("machine.s2d-plurality-alpha-beta", Mean(A), Plurality("s2D", "t_ab", MACHINE_TIE)),
            e("machine.s2d-plurality-torus", Mean(A), Plurality("s2D", "t_torus", MACHINE_TIE)),
            e("machine.s2d-plurality-loggp", Mean(A), Plurality("s2D", "t_loggp", MACHINE_TIE)),
        ],
        ..BASE
    },
    Table {
        name: "ablation_mesh",
        title: "Ablation, s2D-b with and without intermediate aggregation (suite B)",
        ks: |_| vec![256],
        methods: "s2D=s2d:single s2D-b=s2d:mesh",
        view: Rows(
            "s2D.volume s2D-b.volume s2D-b.naive \
             | agg/dir=s2D-b.volume/s2D.volume nai/dir=s2D-b.naive/s2D.volume",
        ),
        expectations: &[e("mesh.aggregated-le-naive", CELLS, Rels("s2D-b.volume <= s2D-b.naive"))],
        ..BASE
    },
    Table {
        name: "ablation_wlim",
        title: "Ablation, the volume/balance frontier of the load cap W_lim = (1+eps) nnz/K (suite B, first four)",
        take: 4,
        ks: |_| vec![64],
        methods: WLIM_METHODS,
        view: Rows(PER_METHOD),
        expectations: &[
            e(
                "wlim.alg1-volume-falls-with-epsilon",
                CELLS,
                Rels(
                    "A1@0.00.volume >= A1@0.01.volume >= A1@0.03.volume >= A1@0.10.volume \
                     >= A1@0.30.volume >= A1@1.00.volume >= A1@10.0.volume",
                ),
            ),
            // Algorithm 2's balance pass may buy balance with a few
            // words: c-big seed 3 reads 10 414 words at eps = 0.00 and
            // 10 416 (+0.02 %) at 0.01. The smallest seed-to-seed spread
            // of these volumes (seeds 1-5, `tiny`) is 0.50 %, on c-big, so
            // a rise under a fifth of it, 0.1 %, is a tie; a larger rise
            // still fails.
            e(
                "wlim.alg2-volume-falls-with-epsilon",
                CELLS,
                Rels(
                    "1.001*A2@0.00.volume >= A2@0.01.volume; \
                     1.001*A2@0.01.volume >= A2@0.03.volume; \
                     1.001*A2@0.03.volume >= A2@0.10.volume; \
                     1.001*A2@0.10.volume >= A2@0.30.volume; \
                     1.001*A2@0.30.volume >= A2@1.00.volume; \
                     1.001*A2@1.00.volume >= A2@10.0.volume",
                ),
            ),
            e("wlim.alg2-no-worse-than-alg1-at-equal-epsilon", CELLS, Rels(WLIM_A2_NO_WORSE)),
        ],
        ..BASE
    },
    Table {
        name: "partitioners",
        title: "Strategy sweep, every partitioner under its best legal plan (both suites)",
        suites: &[A, B],
        ks: |_| vec![16],
        methods: "s2d s2d-gen s2d-opt s2d-it 1d 1d-col 2d-b 2d s2d-mg 1d-b hg-kway auto",
        view: Rows(PER_METHOD),
        expectations: &[
            e("part.s2d-volume-le-1d", CELLS, Rels("s2d.volume <= 1d.volume")),
            e("part.s2d-claims-hold", CELLS, ClaimsHold),
            e("part.s2d-volume-below-1d-on-dense-rows", Mean(B), Rels("s2d.volume < 1d.volume")),
            e("part.s2d-time-below-1d-on-dense-rows", Mean(B), Rels("s2d.t_ab < 1d.t_ab")),
            e("part.auto-near-best-fixed-suite-a", Mean(A), Rels("auto.t_ab <= 1.25*best-fixed.t_ab")),
            e("part.auto-near-best-fixed-suite-b", Mean(B), Rels("auto.t_ab <= 1.25*best-fixed.t_ab")),
        ],
        ..BASE
    },
];
