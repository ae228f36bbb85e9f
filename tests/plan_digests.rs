//! Golden digests of built and compiled plans on generated inputs.
//!
//! Plan construction and compilation are pure functions of the matrix
//! and the partition: message order `(src, dst)`, ascending `x_cols` /
//! `y_rows`, row-major task order, slot numbering and kernel layouts.
//! A change to either that is meant to be a pure speed-up must leave
//! every digest below unchanged; a change that moves one on purpose has
//! to re-record the table and say why.

use std::fmt::{Debug, Write};

use s2d::baselines::partition_2d_fine_grain;
use s2d::core::SpmvPartition;
use s2d::engine::CompiledPlan;
use s2d::gen::denserow::{dense_row_matrix, DenseRowConfig};
use s2d::gen::fem::fem_like;
use s2d::gen::rmat::{rmat, RmatConfig};
use s2d::sparse::Csr;
use s2d::{KernelFormat, KernelIsa, Partitioner, PlanKind, Strategy};

/// FNV-1a over a value's `Debug` text, streamed (the compiled plans'
/// text runs to megabytes).
struct DebugDigest(u64);

impl Write for DebugDigest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(v: &impl Debug) -> u64 {
    let mut h = DebugDigest(0xcbf2_9ce4_8422_2325);
    write!(h, "{v:?}").expect("formatting into a hasher cannot fail");
    h.0
}

/// `(label, plan digest, compiled digest)` of every plan kind legal for
/// `p`. Kernels are compiled with the `auto` format policy (CSR, SELL
/// and dense-split layouts all occur) under the scalar ISA, so the
/// digests do not depend on the CPU.
fn digests(name: &str, a: &Csr, p: &SpmvPartition, kinds: &[PlanKind]) -> Vec<(String, u64, u64)> {
    kinds
        .iter()
        .map(|kind| {
            let plan = kind.build(a, p);
            let compiled =
                CompiledPlan::compile_with_isa(&plan, KernelFormat::Auto, KernelIsa::Scalar);
            (format!("{name} {kind}"), digest(&plan), digest(&compiled))
        })
        .collect()
}

#[test]
fn plan_digests_are_unchanged() {
    let n = 1024;
    let inputs = [
        (
            "denserow",
            dense_row_matrix(
                &DenseRowConfig { n, nnz: 8 * n, dmax: n / 2, tail_decay: 0.5, mirror_cols: true },
                5,
            ),
        ),
        ("rmat", rmat(&RmatConfig::graph500(9, 8), 5).to_csr()),
        ("stencil", fem_like(1 << 11, 27.0, 27, 5)),
    ];
    let s2d: Strategy = "s2d".parse().expect("s2d is a strategy name");
    let mut got = Vec::new();
    for (name, a) in &inputs {
        let p = s2d.partition(a, 8);
        got.extend(digests(name, a, &p, &PlanKind::all()));
        // An arbitrary 2D partition: expand and fold flow both ways.
        let fine = partition_2d_fine_grain(a, 8, 0.03, 5);
        got.extend(digests(&format!("{name} fine-grain"), a, &fine, &[PlanKind::TwoPhase]));
    }

    let golden: [(&str, u64, u64); 12] = [
        ("denserow single_phase", 0xdd758efb906c7845, 0x6087c89ec5622fe4),
        ("denserow two_phase", 0xd60b196f2b8f852d, 0xf654a3a77308e83c),
        ("denserow mesh", 0x136491fdd0b841f7, 0xe984e7e62933a017),
        ("denserow fine-grain two_phase", 0xe216b9709132aa7e, 0x6e2288db26828237),
        ("rmat single_phase", 0x16243a3a1073ac0f, 0x23c635efc54a87d3),
        ("rmat two_phase", 0xc2c8da3101abfbc7, 0xce63f08b4345389d),
        ("rmat mesh", 0xede8aeef1f3349e3, 0x0fb8ef0ca9da3fa7),
        ("rmat fine-grain two_phase", 0x4a8011506f0c5f2e, 0xca98c2e78421409d),
        ("stencil single_phase", 0xf53158b92576ab64, 0x888b8af7a2751e09),
        ("stencil two_phase", 0x9b0d092ba5ccba59, 0x88d45b27e18d487b),
        ("stencil mesh", 0x76341c5aaa6c06ae, 0x1118c98afddfe4ce),
        ("stencil fine-grain two_phase", 0xc72fde8d6547429f, 0xf89e2694a40ecfc8),
    ];
    let table: String =
        got.iter().map(|(l, p, c)| format!("(\"{l}\", {p:#018x}, {c:#018x}),\n")).collect();
    assert_eq!(got.len(), golden.len(), "recorded digests:\n{table}");
    for ((label, plan, compiled), (glabel, gplan, gcompiled)) in got.iter().zip(golden) {
        assert_eq!(label, glabel);
        assert_eq!(*plan, gplan, "{label}: plan digest {plan:#018x} moved\n{table}");
        assert_eq!(
            *compiled, gcompiled,
            "{label}: compiled digest {compiled:#018x} moved\n{table}"
        );
    }
}
