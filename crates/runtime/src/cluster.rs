//! Cluster construction and the scoped SPMD driver.
//!
//! A [`Cluster`] wires `K` [`Endpoint`]s into a fully-connected group.
//! [`spmd`] runs one closure per rank on its own OS thread — the shape
//! of an MPI program (`mpirun -np K`) without the process boundary.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crate::chaos::ChaosConfig;
use crate::endpoint::Endpoint;

/// A fully-connected group of `K` endpoints, ready to be claimed by
/// worker threads.
pub struct Cluster<T> {
    endpoints: Vec<Endpoint<T>>,
}

impl<T> Cluster<T> {
    /// Builds a cluster of `k` ranks with default (no-chaos) delivery.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self::with_chaos(k, ChaosConfig::off())
    }

    /// Builds a cluster whose sends pass through `chaos` (delivery-delay
    /// injection; see [`ChaosConfig`]).
    pub fn with_chaos(k: usize, chaos: ChaosConfig) -> Self {
        assert!(k > 0, "a cluster needs at least one rank");
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..k).map(|_| crossbeam::channel::unbounded()).unzip();
        let endpoints = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                Endpoint::new(rank as u32, txs.clone(), inbox, chaos.for_rank(rank as u32))
            })
            .collect();
        Cluster { endpoints }
    }
}

/// Runs `body` once per rank, each on its own thread, and returns the
/// per-rank results in rank order.
///
/// A panic in any rank fails the whole run: the rank tells its peers,
/// a peer waiting in [`Endpoint::recv_match`] panics in turn instead of
/// waiting forever, and once every rank has stopped `spmd` re-raises
/// the payload of the rank that panicked first.
///
/// This is the SPMD entry point every parallel algorithm in this
/// workspace is written against; porting to MPI means replacing this
/// driver with `MPI_Init` and the endpoint with the real communicator.
pub fn spmd<T, R, F>(cluster: Cluster<T>, body: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut Endpoint<T>) -> R + Sync,
{
    // A rank stores its payload here before it tells its peers, so a
    // peer that panics on the news always finds the slot taken.
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let results: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = cluster
            .endpoints
            .into_iter()
            .map(|mut ep| {
                let (body, first_panic) = (&body, &first_panic);
                scope.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| body(&mut ep)));
                    let r = r.map_err(|payload| {
                        first_panic.lock().expect("slot lock").get_or_insert(payload);
                        ep.post_failure();
                    });
                    // Endpoints must survive until every rank stops
                    // sending; returning `ep` keeps its inbox alive
                    // through join.
                    (r.ok(), ep)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank threads catch their panics").0).collect()
    });
    if let Some(payload) = first_panic.into_inner().expect("slot lock") {
        resume_unwind(payload);
    }
    results.into_iter().map(|r| r.expect("every rank returns")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_dense_and_ordered() {
        let out = spmd(Cluster::<()>::new(5), |ep| (ep.rank(), ep.size()));
        assert_eq!(out, (0..5).map(|r| (r, 5)).collect::<Vec<_>>());
    }

    #[test]
    fn ring_pass_accumulates() {
        // Each rank adds its id and forwards around the ring.
        let k = 6u64;
        let out = spmd(Cluster::<u64>::new(k as usize), |ep| {
            let rank = ep.rank() as u64;
            let next = ((rank + 1) % k) as u32;
            if rank == 0 {
                // Head of the line: inject the token and return.
                ep.send(next, 0, 0);
                return 0;
            }
            let v = ep.recv_match(rank as u32 - 1, 0) + rank;
            if rank != k - 1 {
                ep.send(next, 0, v);
            }
            v
        });
        assert_eq!(out[k as usize - 1], (0..k).sum::<u64>());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_cluster_is_rejected() {
        let _ = Cluster::<()>::new(0);
    }

    #[test]
    fn single_rank_cluster_runs() {
        let out = spmd(Cluster::<()>::new(1), |ep| ep.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn a_panicking_rank_fails_the_run_instead_of_hanging_its_peers() {
        // Rank 0 waits for a message rank 1 never sends. The watchdog
        // turns a hang into a failure instead of a stuck test binary.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let run = catch_unwind(|| {
                spmd(Cluster::<u64>::new(2), |ep| {
                    if ep.rank() == 1 {
                        panic!("rank one gives up");
                    }
                    ep.recv_match(1, 0)
                })
            });
            let _ = done_tx.send(run.map_err(|p| p.downcast_ref::<&str>().map(|s| s.to_string())));
        });
        let run = done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("spmd still waiting 5 s after a rank panicked");
        runner.join().expect("the runner catches the panic");
        assert_eq!(
            run.expect_err("the rank's panic propagates").as_deref(),
            Some("rank one gives up")
        );
    }
}
