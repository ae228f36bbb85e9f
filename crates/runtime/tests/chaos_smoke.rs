//! Chaos smoke test: the delivery-delay fault hooks
//! (`Cluster::with_chaos` + `ChaosConfig`) driven through the public
//! allreduce. Injected delays reorder deliveries between senders but
//! must never change any computed value — the runtime's matching
//! (per-sender FIFO + tag matching) carries all the determinism.

use s2d_runtime::{allreduce, spmd, ChaosConfig, Cluster};

const K: usize = 5;

#[test]
fn chaotic_allreduce_is_bitwise_deterministic() {
    // The solver's reductions must be reproducible run to run even
    // when message arrival order is scrambled: allreduce combines in
    // rank order by construction, so floating-point sums are bitwise
    // stable. Run the same chaotic config twice and an undelayed one.
    let run = |chaos: ChaosConfig| {
        spmd(Cluster::<f64>::with_chaos(K, chaos), |ep| {
            let mine = 0.1 * (f64::from(ep.rank()) + 1.0);
            let s1 = allreduce(ep, 7, mine, |a, b| a + b);
            // A second round seeded by the first catches cross-round
            // tag confusion under delay.
            allreduce(ep, 9, s1 * mine, |a, b| a + b)
        })
    };
    let a = run(ChaosConfig::with_delays(90, 42));
    let b = run(ChaosConfig::with_delays(90, 42));
    let quiet = run(ChaosConfig::off());
    assert_eq!(a, b, "same chaos seed must reproduce bitwise");
    assert_eq!(a, quiet, "delays must not change reduction values");
    assert!(a.windows(2).all(|w| w[0] == w[1]), "ranks disagree on the allreduce");
}
