//! Distributed-machine cost model.
//!
//! The paper measures SpMV on a Cray XE6 (one core per node, Gemini 3D
//! torus). Offline we substitute the classic α–β–γ model: a phase costs
//!
//! ```text
//! T_phase = γ·max_p(flops_p) + α·max_p(msgs_p) + β·max_p(words_p)
//! ```
//!
//! where `msgs_p`/`words_p` take the larger of the send and receive side
//! of processor `p` (the bottleneck direction), and phases are separated
//! by barriers (no overlap), matching the bulk-synchronous structure of
//! all SpMV algorithms in the paper. Speedups are reported against
//! `T_serial = γ · ops`.
//!
//! The defaults are XE6-flavoured (≈2 µs MPI latency, ≈4 GB/s effective
//! per-link bandwidth, ≈1 G multiply-add/s effective scalar SpMV rate);
//! the *shape* of every comparison (who wins, where latency dominates) is
//! what the reproduction relies on, not the absolute times.

/// Machine cost parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    /// Per-message latency in seconds (α).
    pub alpha: f64,
    /// Per-word (8-byte value) transfer time in seconds (β).
    pub beta: f64,
    /// Per fused multiply-add time in seconds (γ).
    pub gamma: f64,
}

impl MachineModel {
    /// Cray-XE6-flavoured defaults.
    pub fn cray_xe6() -> Self {
        MachineModel { alpha: 2.0e-6, beta: 2.0e-9, gamma: 1.0e-9 }
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        Self::cray_xe6()
    }
}

/// One bulk-synchronous phase: per-processor compute work and the
/// messages exchanged at its end.
#[derive(Clone, Debug, Default)]
pub struct PhaseSpec {
    /// Per-processor multiply-add counts.
    pub compute: Vec<u64>,
    /// Messages `(src, dst, words)`.
    pub messages: Vec<(u32, u32, u64)>,
}

impl PhaseSpec {
    /// A pure compute phase.
    pub fn compute_only(compute: Vec<u64>) -> Self {
        PhaseSpec { compute, messages: Vec::new() }
    }

    /// A pure communication phase on `k` processors.
    pub fn comm_only(k: usize, messages: Vec<(u32, u32, u64)>) -> Self {
        PhaseSpec { compute: vec![0; k], messages }
    }
}

/// Timing report of a simulated parallel SpMV.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Number of processors.
    pub k: usize,
    /// Serial reference time (γ · serial ops).
    pub serial_time: f64,
    /// Modelled parallel time (sum of phase times).
    pub parallel_time: f64,
    /// Per-phase times, in order.
    pub phase_times: Vec<f64>,
}

impl SimReport {
    /// Speedup over the serial reference — the paper's `Sp` columns.
    pub fn speedup(&self) -> f64 {
        if self.parallel_time > 0.0 {
            self.serial_time / self.parallel_time
        } else {
            self.k as f64
        }
    }
}

/// Simulates `phases` on `k` processors; `serial_ops` is the multiply-add
/// count of the serial SpMV (= nnz).
pub fn simulate(k: usize, phases: &[PhaseSpec], serial_ops: u64, m: &MachineModel) -> SimReport {
    let mut phase_times = Vec::with_capacity(phases.len());
    for phase in phases {
        assert_eq!(phase.compute.len(), k, "compute vector must cover all processors");
        let max_flops = phase.compute.iter().copied().max().unwrap_or(0);
        let mut send_msgs = vec![0u64; k];
        let mut recv_msgs = vec![0u64; k];
        let mut send_words = vec![0u64; k];
        let mut recv_words = vec![0u64; k];
        for &(src, dst, words) in &phase.messages {
            assert!((src as usize) < k && (dst as usize) < k, "message endpoint out of range");
            send_msgs[src as usize] += 1;
            recv_msgs[dst as usize] += 1;
            send_words[src as usize] += words;
            recv_words[dst as usize] += words;
        }
        let max_msgs = (0..k).map(|p| send_msgs[p].max(recv_msgs[p])).max().unwrap_or(0);
        let max_words = (0..k).map(|p| send_words[p].max(recv_words[p])).max().unwrap_or(0);
        phase_times.push(
            m.gamma * max_flops as f64 + m.alpha * max_msgs as f64 + m.beta * max_words as f64,
        );
    }
    SimReport {
        k,
        serial_time: m.gamma * serial_ops as f64,
        parallel_time: phase_times.iter().sum(),
        phase_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_parallelism_without_comm() {
        let m = MachineModel::cray_xe6();
        let phases = vec![PhaseSpec::compute_only(vec![250, 250, 250, 250])];
        let r = simulate(4, &phases, 1000, &m);
        assert!((r.speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn load_imbalance_caps_speedup() {
        let m = MachineModel::cray_xe6();
        let phases = vec![PhaseSpec::compute_only(vec![700, 100, 100, 100])];
        let r = simulate(4, &phases, 1000, &m);
        assert!((r.speedup() - 1000.0 / 700.0).abs() < 1e-9);
    }

    #[test]
    fn latency_dominates_many_small_messages() {
        let m = MachineModel::cray_xe6();
        // One processor sends 100 single-word messages: the α term alone
        // is 200 µs, dwarfing the 0.25 µs of compute.
        let messages: Vec<(u32, u32, u64)> = (0..100u32).map(|i| (0, 1 + i % 3, 1)).collect();
        let phases = vec![PhaseSpec { compute: vec![250, 250, 250, 250], messages }];
        let r = simulate(4, &phases, 1000, &m);
        assert!(r.parallel_time >= 100.0 * m.alpha);
        assert!(r.speedup() < 0.1);
    }

    #[test]
    fn receive_side_can_be_the_bottleneck() {
        let m = MachineModel { alpha: 1.0, beta: 0.0, gamma: 0.0 };
        let phases = vec![PhaseSpec::comm_only(4, vec![(1, 0, 1), (2, 0, 1), (3, 0, 1)])];
        let r = simulate(4, &phases, 0, &m);
        assert!((r.parallel_time - 3.0).abs() < 1e-12);
    }

    #[test]
    fn phases_are_additive() {
        let m = MachineModel { alpha: 0.0, beta: 0.0, gamma: 1.0 };
        let phases =
            vec![PhaseSpec::compute_only(vec![10, 20]), PhaseSpec::compute_only(vec![30, 5])];
        let r = simulate(2, &phases, 100, &m);
        assert_eq!(r.phase_times, vec![20.0, 30.0]);
        assert!((r.parallel_time - 50.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_term_scales_with_words() {
        let m = MachineModel { alpha: 0.0, beta: 2.0, gamma: 0.0 };
        let phases = vec![PhaseSpec::comm_only(2, vec![(0, 1, 50)])];
        let r = simulate(2, &phases, 0, &m);
        assert!((r.parallel_time - 100.0).abs() < 1e-12);
    }
}
