//! FEM-like 3D stencil matrices.
//!
//! Structural-engineering matrices (crystk02, trdheim, 3dtube, pkustk12,
//! turon_m) are symmetric with near-regular row degrees in the tens —
//! the profile of 3D finite-element discretizations. We reproduce that
//! with a 3D grid whose stencil takes the `davg` nearest neighbour
//! offsets (by Chebyshev-then-Euclidean distance), giving interior
//! degrees ≈ `davg` and boundary degrees below it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2d_sparse::{Coo, Csr};

/// Generates a symmetric 3D stencil matrix with about `n_target` rows and
/// interior row degree ≈ `davg`. If `dmax > 2·davg`, a small geometric
/// tail of denser rows is added (3dtube/pkustk12 have such rows), mirrored
/// to keep the pattern symmetric.
///
/// `seed` feeds **only** that dense-row tail: the stencil itself (pattern
/// and unit values) is a pure function of `n_target` and `davg`, so with
/// `dmax ≤ 2·davg` every seed yields the identical matrix. A caller that
/// needs seed-dependent FEM inputs (the committed benchmark's `fem-steady`
/// and `serve-closed` workloads) must vary something else — e.g. scale the
/// values by a seeded factor afterwards.
pub fn fem_like(n_target: usize, davg: f64, dmax: usize, seed: u64) -> Csr {
    assert!(n_target >= 8, "grid too small");
    let side = (n_target as f64).cbrt().round().max(2.0) as usize;
    let (nx, ny, nz) = (side, side, n_target.div_ceil(side * side).max(1));
    let n = nx * ny * nz;
    let id = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;

    // Deterministic list of stencil offsets sorted by distance; take the
    // davg closest (including the origin).
    let want = (davg.round() as usize).max(1);
    let radius = 1 + (want as f64).cbrt().ceil() as i64 / 2;
    let mut offsets: Vec<(i64, i64, i64)> = Vec::new();
    for dz in -radius..=radius {
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                offsets.push((dx, dy, dz));
            }
        }
    }
    offsets.sort_by(|a, b| {
        let da = a.0 * a.0 + a.1 * a.1 + a.2 * a.2;
        let db = b.0 * b.0 + b.1 * b.1 + b.2 * b.2;
        da.cmp(&db).then(a.cmp(b))
    });
    // Keep a symmetric offset set: origin first, then pairs (o, -o).
    let mut chosen: Vec<(i64, i64, i64)> = vec![(0, 0, 0)];
    let mut idx = 1;
    while chosen.len() < want && idx < offsets.len() {
        let o = offsets[idx];
        idx += 1;
        if chosen.contains(&o) {
            continue;
        }
        chosen.push(o);
        let neg = (-o.0, -o.1, -o.2);
        if chosen.len() < want && !chosen.contains(&neg) {
            chosen.push(neg);
        }
    }

    let mut m = Coo::with_capacity(n, n, n * chosen.len());
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = id(x, y, z);
                for &(dx, dy, dz) in &chosen {
                    let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                    if xx >= 0
                        && yy >= 0
                        && zz >= 0
                        && (xx as usize) < nx
                        && (yy as usize) < ny
                        && (zz as usize) < nz
                    {
                        m.push(i, id(xx as usize, yy as usize, zz as usize), 1.0);
                    }
                }
            }
        }
    }

    // Dense-row tail for the FEM matrices that have one.
    if dmax > 2 * want {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let mut deg = dmax.min(n - 1);
        let mut count = 0usize;
        while deg > 2 * want && count < 8 {
            let r = rng.random_range(0..n);
            for _ in 0..deg {
                let c = rng.random_range(0..n);
                m.push(r, c, 1.0);
                m.push(c, r, 1.0);
            }
            deg /= 2;
            count += 1;
        }
    }
    m.compress();
    m.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d_sparse::MatrixStats;

    #[test]
    fn interior_degree_near_target() {
        let a = fem_like(4096, 27.0, 27, 1);
        let s = MatrixStats::of(&a);
        assert!((s.row_davg - 27.0).abs() < 8.0, "davg {} too far from 27", s.row_davg);
        assert!(s.row_dmax <= 32, "dmax {}", s.row_dmax);
    }

    #[test]
    fn pattern_is_symmetric() {
        let a = fem_like(1000, 27.0, 27, 2);
        assert!(a.is_pattern_symmetric());
        let b = fem_like(1000, 27.0, 500, 3); // with dense tail
        assert!(b.is_pattern_symmetric());
    }

    #[test]
    fn dense_tail_raises_dmax() {
        let a = fem_like(2048, 27.0, 800, 4);
        let s = MatrixStats::of(&a);
        assert!(s.row_dmax >= 400, "dmax {} should reflect the tail", s.row_dmax);
    }

    #[test]
    fn deterministic() {
        let a = fem_like(512, 27.0, 300, 9);
        let b = fem_like(512, 27.0, 300, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn wider_stencil_for_high_davg() {
        let a = fem_like(4096, 69.0, 81, 5);
        let s = MatrixStats::of(&a);
        assert!(s.row_davg > 45.0, "davg {}", s.row_davg);
        assert!((s.row_dmax as f64) < 1.5 * 81.0);
    }
}
