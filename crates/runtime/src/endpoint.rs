//! The per-rank communication handle.
//!
//! An [`Endpoint`] is one rank's view of the interconnect: senders to
//! every peer and a single inbox. Receives match on `(source, tag)` like
//! MPI envelopes; messages that arrive before they are asked for are
//! parked in a pending buffer, so programs may post receives in any order
//! relative to actual arrival.

use std::collections::VecDeque;

use crossbeam::channel::{Receiver, Sender};

use crate::chaos::ChaosConfig;

/// Message tag, used to separate logical streams (phases, iterations).
pub type Tag = u32;

/// A delivered message with its envelope.
pub(crate) struct Envelope<T> {
    src: u32,
    tag: Tag,
    payload: T,
}

/// What an inbox carries: a message, or the id of a rank that panicked
/// (posted by [`crate::spmd`] so that no peer waits on it forever).
pub(crate) type Delivery<T> = Result<Envelope<T>, u32>;

/// One rank's communication handle. `T` is the payload type; all ranks
/// of a cluster share it.
pub struct Endpoint<T> {
    rank: u32,
    peers: Vec<Sender<Delivery<T>>>,
    inbox: Receiver<Delivery<T>>,
    pending: VecDeque<Envelope<T>>,
    chaos: ChaosConfig,
}

impl<T> Endpoint<T> {
    /// Assembles an endpoint from its parts (used by [`crate::cluster`]).
    pub(crate) fn new(
        rank: u32,
        peers: Vec<Sender<Delivery<T>>>,
        inbox: Receiver<Delivery<T>>,
        chaos: ChaosConfig,
    ) -> Self {
        Endpoint { rank, peers, inbox, pending: VecDeque::new(), chaos }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.peers.len()
    }

    /// Sends `payload` to `dst` under `tag`. Sends are buffered and never
    /// block. Self-sends are legal and delivered through the same inbox.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or the destination endpoint was
    /// dropped mid-run (an SPMD harness bug, not a recoverable error).
    pub fn send(&mut self, dst: u32, tag: Tag, payload: T) {
        assert!((dst as usize) < self.size(), "destination rank {dst} out of range");
        self.chaos.maybe_delay(self.rank, dst, tag);
        self.peers[dst as usize]
            .send(Ok(Envelope { src: self.rank, tag, payload }))
            .expect("peer endpoint alive for the whole SPMD region");
    }

    /// Receives the payload of the next message from `src` under `tag`.
    /// Non-matching arrivals are parked and later receives see them, so
    /// matching is insensitive to delivery interleaving.
    ///
    /// # Panics
    /// Panics, naming the rank, if a rank of the cluster panicked
    /// before the matching message arrived.
    pub fn recv_match(&mut self, src: u32, tag: Tag) -> T {
        let matches = |env: &Envelope<T>| env.src == src && env.tag == tag;
        if let Some(pos) = self.pending.iter().position(matches) {
            return self.pending.remove(pos).expect("position valid").payload;
        }
        loop {
            match self.inbox.recv().expect("senders alive for the whole SPMD region") {
                Ok(env) if matches(&env) => return env.payload,
                Ok(env) => self.pending.push_back(env),
                Err(failed) => panic!("rank {}: SPMD rank {failed} panicked", self.rank),
            }
        }
    }

    /// True if no unconsumed message is parked in the pending buffer.
    /// SPMD programs should end drained; tests assert this.
    pub fn drained(&self) -> bool {
        self.pending.is_empty() && self.inbox.is_empty()
    }

    /// Tells every other rank that this one panicked. Best effort: a
    /// peer that already returned never reads its inbox again.
    pub(crate) fn post_failure(&self) {
        for (dst, peer) in self.peers.iter().enumerate() {
            if dst as u32 != self.rank {
                let _ = peer.send(Err(self.rank));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{spmd, Cluster};

    #[test]
    fn envelope_matching_survives_reordering() {
        // Rank 0 sends tags 7 then 3; rank 1 receives tag 3 first.
        let out = spmd(Cluster::<Vec<f64>>::new(2), |ep| {
            if ep.rank() == 0 {
                ep.send(1, 7, vec![7.0]);
                ep.send(1, 3, vec![3.0]);
                Vec::new()
            } else {
                let a = ep.recv_match(0, 3);
                let b = ep.recv_match(0, 7);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![3.0, 7.0]);
        assert!(out[0].is_empty());
    }

    #[test]
    fn self_send_is_delivered() {
        let out = spmd(Cluster::<f64>::new(1), |ep| {
            ep.send(0, 0, 42.0);
            ep.recv_match(0, 0)
        });
        assert_eq!(out, vec![42.0]);
    }

    #[test]
    fn endpoints_end_drained() {
        let out = spmd(Cluster::<u64>::new(2), |ep| {
            let peer = 1 - ep.rank();
            ep.send(peer, 0, 5);
            let _ = ep.recv_match(peer, 0);
            ep.drained()
        });
        assert_eq!(out, vec![true, true]);
    }
}
