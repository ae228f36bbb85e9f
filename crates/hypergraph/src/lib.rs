//! Multilevel hypergraph partitioning — the PaToH substitute.
//!
//! The paper partitions with PaToH (closed source). This crate implements
//! the same algorithmic family so every experiment can run offline. The
//! public surface is what callers use:
//!
//! * [`hg`] — pin/net CSR hypergraph structure with multi-constraint
//!   vertex weights;
//! * [`kway`] — [`partition_kway`], the recursive K-way driver with net
//!   splitting (so the sum of bisection cuts equals the connectivity−1
//!   metric of the final K-way partition), and its two options
//!   ([`PartitionConfig`]: tolerance and seed);
//! * [`metrics`] — cut-net and connectivity−1 cutsizes, imbalance;
//! * [`models`] — the column-net, row-net, fine-grain and medium-grain
//!   hypergraph models of sparse matrices used by the paper.
//!
//! The multilevel bisection under the driver is private, and its tuning
//! values are constants next to the code that reads them:
//!
//! * `coarsen` — randomized heavy-connectivity matching coarsening that
//!   scans live (still matchable) pins only, with identical-net merging;
//! * `fm` — the one gain engine (delta-gain rules + indexed max-heap) and
//!   Fiduccia–Mattheyses boundary refinement with hill climbing and
//!   rollback on top of it;
//! * `initial` — greedy hypergraph growing (on the same engine) + random
//!   initial bisections;
//! * `bisect` — coarsen → initial partition → uncoarsen + refine;
//! * `pool` — the buffers the bisections borrow and give back, and the
//!   memory a helper thread bisects in.
//!
//! Every partition is a pure function of the hypergraph and the seed:
//! nothing in the crate hashes or iterates in address order, and each
//! bisection draws from its own seed, so [`partition_kway`] gives the
//! same answer whether the two halves of a split run one after the other
//! or on two threads.

#![forbid(unsafe_code)]

mod bisect;
mod coarsen;
mod fm;
pub mod hg;
mod initial;
pub mod kway;
pub mod metrics;
pub mod models;
mod pool;

pub use hg::Hypergraph;
pub use kway::{partition_kway, KwayPartition, PartitionConfig};
pub use metrics::{connectivity_minus_one, cut_net, imbalance};

/// Cases per run of the proptests that hold a rewritten step against the
/// code it replaced: the default 256 in debug builds, 4096 in release
/// builds (CI runs the test suite both ways).
#[cfg(test)]
const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };
