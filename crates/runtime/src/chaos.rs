//! Delivery-delay injection.
//!
//! The channels of this runtime are reliable and order-preserving per
//! sender — like MPI. What MPI does *not* promise is inter-sender
//! ordering or timely delivery, and programs that accidentally depend on
//! either pass on a quiet laptop and deadlock at scale. [`ChaosConfig`]
//! makes sends stall for a pseudorandom few microseconds so tests can
//! shake out such assumptions deterministically (the delays derive from a
//! seed, the rank pair and the tag, not from wall-clock state).

/// Configuration of delivery-delay injection.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Maximum injected delay in microseconds; 0 disables injection.
    pub max_delay_us: u32,
    /// Seed feeding the per-message delay hash.
    pub seed: u64,
    /// Rank this config was specialized for (set by the cluster).
    rank_salt: u64,
}

impl ChaosConfig {
    /// No injection (the default for production clusters).
    pub fn off() -> Self {
        ChaosConfig { max_delay_us: 0, seed: 0, rank_salt: 0 }
    }

    /// Injection with delays uniform in `0..=max_delay_us` µs.
    pub fn with_delays(max_delay_us: u32, seed: u64) -> Self {
        ChaosConfig { max_delay_us, seed, rank_salt: 0 }
    }

    /// Specializes the config for one rank (salts the hash so ranks
    /// do not delay in lockstep).
    pub(crate) fn for_rank(mut self, rank: u32) -> Self {
        self.rank_salt = 0x9e3779b97f4a7c15u64.wrapping_mul(u64::from(rank) + 1);
        self
    }

    /// True if injection is active.
    pub fn enabled(&self) -> bool {
        self.max_delay_us > 0
    }

    /// The injected delay, in microseconds, for a send of
    /// `(src, dst, tag)` — a pure function of the config (seed + rank
    /// salt) and the message envelope, never of wall-clock state, so
    /// identical configs delay identically.
    pub(crate) fn delay_us(&self, src: u32, dst: u32, tag: u32) -> u64 {
        if self.max_delay_us == 0 {
            return 0;
        }
        let mut h = self.seed ^ self.rank_salt;
        for v in [u64::from(src), u64::from(dst), u64::from(tag)] {
            h ^= v.wrapping_add(0x9e3779b97f4a7c15).wrapping_add(h << 6).wrapping_add(h >> 2);
        }
        h % (u64::from(self.max_delay_us) + 1)
    }

    /// Possibly sleeps before a send of `(src, dst, tag)`.
    pub(crate) fn maybe_delay(&self, src: u32, dst: u32, tag: u32) {
        let us = self.delay_us(src, dst, tag);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{spmd, Cluster};

    #[test]
    fn off_config_is_disabled() {
        assert!(!ChaosConfig::off().enabled());
        assert!(ChaosConfig::with_delays(5, 1).enabled());
    }

    #[test]
    fn chaotic_delivery_preserves_matching() {
        // An all-to-all under chaos: every rank receives exactly one
        // message per peer per tag, whatever the delivery interleaving.
        let k = 4;
        let out = spmd(Cluster::<u64>::with_chaos(k, ChaosConfig::with_delays(50, 7)), |ep| {
            let me = ep.rank();
            for t in 0..3u32 {
                for dst in 0..k as u32 {
                    if dst != me {
                        ep.send(dst, t, u64::from(me * 100 + t));
                    }
                }
            }
            let mut sum = 0u64;
            // Receive in the *reverse* tag order to force buffering.
            for t in (0..3u32).rev() {
                for src in 0..k as u32 {
                    if src != me {
                        let payload = ep.recv_match(src, t);
                        assert_eq!(payload, u64::from(src * 100 + t));
                        sum += payload;
                    }
                }
            }
            sum
        });
        // Each rank's sum is the total over all (src, tag) payloads
        // minus its own contributions (it receives from every peer but
        // never from itself) — the actual matching property, which a
        // dropped or duplicated delivery would break.
        let total: u64 =
            (0..k as u64).map(|src| (0..3u64).map(|t| src * 100 + t).sum::<u64>()).sum();
        for (me, &sum) in out.iter().enumerate() {
            let own: u64 = (0..3u64).map(|t| me as u64 * 100 + t).sum();
            assert_eq!(sum, total - own, "rank {me} received a wrong payload multiset");
        }
    }

    #[test]
    fn delays_are_deterministic_in_seed() {
        let a = ChaosConfig::with_delays(100, 3).for_rank(1);
        let b = ChaosConfig::with_delays(100, 3).for_rank(1);
        // Same seed and rank → the *computed delays* agree for every
        // envelope, which is what makes chaotic runs reproducible.
        let mut nonzero = 0u32;
        for src in 0..4u32 {
            for dst in 0..4u32 {
                for tag in 0..8u32 {
                    let d = a.delay_us(src, dst, tag);
                    assert_eq!(d, b.delay_us(src, dst, tag), "({src},{dst},{tag})");
                    assert!(d <= 100, "delay exceeds max_delay_us");
                    nonzero += u32::from(d > 0);
                }
            }
        }
        assert!(nonzero > 0, "a 100us-max config must inject some delays");
        // A different seed or a different rank salt produces a
        // different delay schedule somewhere.
        let other_seed = ChaosConfig::with_delays(100, 4).for_rank(1);
        let other_rank = ChaosConfig::with_delays(100, 3).for_rank(2);
        let differs = |c: &ChaosConfig| {
            (0..4u32).any(|src| {
                (0..4u32).any(|dst| {
                    (0..8u32).any(|tag| c.delay_us(src, dst, tag) != a.delay_us(src, dst, tag))
                })
            })
        };
        assert!(differs(&other_seed), "seed must enter the delay hash");
        assert!(differs(&other_rank), "rank salt must enter the delay hash");
    }
}
