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
use s2d::{KernelFormat, KernelIsa, PlanKind, Strategy};

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
        ("denserow single_phase", 0x17200553e3fdc67e, 0x4211a6ee56de4b41),
        ("denserow two_phase", 0x9d7e8ed027ae8ac6, 0x53b46f3c0db1ab1f),
        ("denserow mesh", 0xd30ec2cb953c72fb, 0x96793eafc2d23910),
        ("denserow fine-grain two_phase", 0x12f63c563a775bd6, 0xcdf92f25b7779844),
        ("rmat single_phase", 0x140f6ec621bbfbaf, 0xeaea65b1d239d544),
        ("rmat two_phase", 0xac64200cb4612e49, 0xf85acc003c3c67aa),
        ("rmat mesh", 0x9b4cf27718b84ab4, 0x402268554b4610dd),
        ("rmat fine-grain two_phase", 0xb8d392d4b2cae8d1, 0xc464121e3b218014),
        ("stencil single_phase", 0x67b43f639eab99ae, 0x4d7f379780bc7f85),
        ("stencil two_phase", 0x58e5f2008c56c9a3, 0xc458702bbf04a98b),
        ("stencil mesh", 0x1c987d98853d27fd, 0x9d9ac0d5df56929f),
        ("stencil fine-grain two_phase", 0xcabcb48a20f59fb9, 0x46eb0f32b94a0f45),
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
