//! Torus-aware cost model.
//!
//! The α–β–γ model charges every message the same latency. On the real
//! XE6 the Gemini network is a 3D torus with cut-through routing: a
//! message crossing `h` hops pays the injection latency once plus a
//! small per-hop routing delay. This module maps ranks onto a torus
//! (row-major) and charges `α + h·t_hop` per message — an ablation
//! showing the paper's method ranking is not an artifact of the
//! zero-diameter assumption.

use crate::alpha_beta::{MachineModel, PhaseSpec, SimReport};

/// A 3D torus of dimensions `dx × dy × dz` — the shape of the Cray
/// Gemini network the paper's timings were taken on. Ranks map to torus
/// coordinates in row-major order; the hop count between two ranks is
/// the L1 distance with wraparound per axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus3d {
    /// Extent along x.
    pub dx: usize,
    /// Extent along y.
    pub dy: usize,
    /// Extent along z.
    pub dz: usize,
}

impl Torus3d {
    /// Builds a torus.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(dx: usize, dy: usize, dz: usize) -> Self {
        assert!(dx > 0 && dy > 0 && dz > 0, "torus dimensions must be positive");
        Torus3d { dx, dy, dz }
    }

    /// A roughly-cubic torus holding at least `k` nodes.
    pub fn cubic_for(k: usize) -> Self {
        assert!(k > 0, "torus needs at least one node");
        // `cbrt` can round below the true value on large k (making the
        // cube too small) or a full step above; integer-correct the
        // estimate to the smallest side with side³ ≥ k.
        let cube = |v: usize| v as u128 * v as u128 * v as u128;
        let mut side = ((k as f64).cbrt().ceil() as usize).max(1);
        while cube(side) < k as u128 {
            side += 1;
        }
        while side > 1 && cube(side - 1) >= k as u128 {
            side -= 1;
        }
        let mut t = Torus3d { dx: side, dy: side, dz: side };
        // Trim excess planes while capacity stays ≥ k.
        while t.dx > 1 && (t.dx - 1) * t.dy * t.dz >= k {
            t.dx -= 1;
        }
        while t.dy > 1 && t.dx * (t.dy - 1) * t.dz >= k {
            t.dy -= 1;
        }
        while t.dz > 1 && t.dx * t.dy * (t.dz - 1) >= k {
            t.dz -= 1;
        }
        t
    }

    /// Node count.
    pub fn size(&self) -> usize {
        self.dx * self.dy * self.dz
    }

    /// Torus coordinates of `rank`.
    pub fn coords(&self, rank: u32) -> (u32, u32, u32) {
        debug_assert!((rank as usize) < self.size());
        let r = rank as usize;
        let x = r / (self.dy * self.dz);
        let y = (r / self.dz) % self.dy;
        let z = r % self.dz;
        (x as u32, y as u32, z as u32)
    }

    /// Minimal hop count between `a` and `b` (wraparound L1 distance).
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        let (ax, ay, az) = self.coords(a);
        let (bx, by, bz) = self.coords(b);
        let axis = |u: u32, v: u32, d: usize| -> u32 {
            let diff = u.abs_diff(v);
            diff.min(d as u32 - diff)
        };
        axis(ax, bx, self.dx) + axis(ay, by, self.dy) + axis(az, bz, self.dz)
    }

    /// The largest hop count between any two nodes (network diameter).
    pub fn diameter(&self) -> u32 {
        (self.dx as u32 / 2) + (self.dy as u32 / 2) + (self.dz as u32 / 2)
    }
}

/// Torus machine: the flat α–β–γ parameters plus a per-hop delay.
#[derive(Clone, Copy, Debug)]
pub struct TorusModel {
    /// Base machine parameters (α charged at injection).
    pub base: MachineModel,
    /// Extra latency per network hop (seconds). Gemini-flavoured default
    /// ≈ 100 ns.
    pub t_hop: f64,
    /// The torus shape; ranks map row-major onto it.
    pub torus: Torus3d,
}

impl TorusModel {
    /// An XE6/Gemini-flavoured torus for `k` ranks.
    pub fn xe6_for(k: usize) -> Self {
        TorusModel { base: MachineModel::cray_xe6(), t_hop: 1.0e-7, torus: Torus3d::cubic_for(k) }
    }
}

/// Simulates `phases` on the torus machine. Per phase:
///
/// ```text
/// T = γ·max_p flops_p
///   + max_p [ α·msgs_p + t_hop·hops_p + β·words_p ]
/// ```
///
/// where `msgs_p`, `hops_p` and `words_p` take the larger of the send
/// and receive direction of `p` (hops accumulate over its messages).
///
/// # Panics
/// Panics if the torus is smaller than `k` or a message endpoint is out
/// of range.
pub fn simulate_on_torus(
    k: usize,
    phases: &[PhaseSpec],
    serial_ops: u64,
    m: &TorusModel,
) -> SimReport {
    assert!(m.torus.size() >= k, "torus smaller than the rank count");
    let mut phase_times = Vec::with_capacity(phases.len());
    for phase in phases {
        assert_eq!(phase.compute.len(), k, "compute vector must cover all processors");
        let max_flops = phase.compute.iter().copied().max().unwrap_or(0);
        let mut send = vec![(0u64, 0u64, 0u64); k]; // (msgs, hops, words)
        let mut recv = vec![(0u64, 0u64, 0u64); k];
        for &(src, dst, words) in &phase.messages {
            assert!((src as usize) < k && (dst as usize) < k, "message endpoint out of range");
            let hops = u64::from(m.torus.hops(src, dst));
            let s = &mut send[src as usize];
            s.0 += 1;
            s.1 += hops;
            s.2 += words;
            let r = &mut recv[dst as usize];
            r.0 += 1;
            r.1 += hops;
            r.2 += words;
        }
        let comm = (0..k)
            .map(|p| {
                let cost = |(msgs, hops, words): (u64, u64, u64)| {
                    m.base.alpha * msgs as f64 + m.t_hop * hops as f64 + m.base.beta * words as f64
                };
                cost(send[p]).max(cost(recv[p]))
            })
            .fold(0.0f64, f64::max);
        phase_times.push(m.base.gamma * max_flops as f64 + comm);
    }
    SimReport {
        k,
        serial_time: m.base.gamma * serial_ops as f64,
        parallel_time: phase_times.iter().sum(),
        phase_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hop_delay_reduces_to_alpha_beta() {
        let phases = vec![PhaseSpec {
            compute: vec![100, 100, 100, 100],
            messages: vec![(0, 3, 5), (1, 2, 7)],
        }];
        let base = MachineModel::cray_xe6();
        let torus = TorusModel { base, t_hop: 0.0, torus: Torus3d::cubic_for(4) };
        let flat = crate::alpha_beta::simulate(4, &phases, 400, &base);
        let t = simulate_on_torus(4, &phases, 400, &torus);
        // With t_hop = 0 the only difference is max-of-max vs max-of-sum
        // decomposition: on this single-message-per-proc phase they agree.
        assert!((flat.parallel_time - t.parallel_time).abs() < 1e-12);
    }

    #[test]
    fn distant_messages_cost_more() {
        let near = vec![PhaseSpec::comm_only(8, vec![(0, 1, 1)])];
        // On a 2x2x2 torus rank 7 = (1,1,1) is 3 hops from rank 0.
        let far = vec![PhaseSpec::comm_only(8, vec![(0, 7, 1)])];
        let m = TorusModel::xe6_for(8);
        let t_near = simulate_on_torus(8, &near, 0, &m);
        let t_far = simulate_on_torus(8, &far, 0, &m);
        assert!(t_far.parallel_time > t_near.parallel_time);
    }

    #[test]
    fn wraparound_shortens_paths() {
        // 4x1x1 torus: 0 -> 3 wraps in one hop, 0 -> 2 needs two.
        let m = TorusModel {
            base: MachineModel { alpha: 0.0, beta: 0.0, gamma: 0.0 },
            t_hop: 1.0,
            torus: Torus3d::new(4, 1, 1),
        };
        let wrap = simulate_on_torus(4, &[PhaseSpec::comm_only(4, vec![(0, 3, 1)])], 0, &m);
        let mid = simulate_on_torus(4, &[PhaseSpec::comm_only(4, vec![(0, 2, 1)])], 0, &m);
        assert!((wrap.parallel_time - 1.0).abs() < 1e-12);
        assert!((mid.parallel_time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_definition_matches_flat_model() {
        let phases = vec![PhaseSpec::compute_only(vec![250; 4])];
        let m = TorusModel::xe6_for(4);
        let r = simulate_on_torus(4, &phases, 1000, &m);
        assert!((r.speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn torus_hops_wrap_around() {
        let t = Torus3d::new(4, 4, 4);
        // (0,0,0) to (3,0,0): wraparound makes it 1 hop, not 3.
        let a = 0u32;
        let b = t.coords_to_rank(3, 0, 0);
        assert_eq!(t.hops(a, b), 1);
        assert_eq!(t.hops(a, a), 0);
        // Symmetry.
        for x in 0..t.size() as u32 {
            assert_eq!(t.hops(a, x), t.hops(x, a));
        }
    }

    #[test]
    fn torus_diameter_bounds_hops() {
        let t = Torus3d::new(3, 4, 5);
        let d = t.diameter();
        for a in 0..t.size() as u32 {
            for b in 0..t.size() as u32 {
                assert!(t.hops(a, b) <= d);
            }
        }
    }

    #[test]
    fn cubic_for_covers_k() {
        for k in [1usize, 7, 16, 64, 100, 256, 1000] {
            let t = Torus3d::cubic_for(k);
            assert!(t.size() >= k, "k={k} got {}", t.size());
        }
    }

    #[test]
    fn cubic_for_survives_float_rounding_at_large_k() {
        // Perfect cubes where `cbrt` may round a ULP under the true
        // root (ceil then yields a side one too small) — the integer
        // correction must restore coverage and exactness.
        for side in [1_442_249usize, 2_097_152, 2_642_245] {
            let k = side * side * side;
            let t = Torus3d::cubic_for(k);
            assert!(t.size() >= k, "side={side}: {} < {k}", t.size());
            assert_eq!((t.dx, t.dy, t.dz), (side, side, side), "side={side}");
        }
        // side³ + 1 needs the next side up on at least one axis.
        let k = 1000usize * 1000 * 1000 + 1;
        let t = Torus3d::cubic_for(k);
        assert!(t.size() >= k);
        assert!(t.dx <= 1001 && t.dy <= 1001 && t.dz <= 1001);
    }
}

#[cfg(test)]
impl Torus3d {
    /// Test helper: rank at coordinates.
    fn coords_to_rank(&self, x: u32, y: u32, z: u32) -> u32 {
        (x as usize * self.dy * self.dz + y as usize * self.dz + z as usize) as u32
    }
}
