//! The one collective, built from point-to-point messages.
//!
//! The SpMV kernels only need sends and receives; the iterative solvers
//! on top of them (`s2d-solver`) need global reductions for dot products
//! and norms, which [`allreduce`] provides. It is **bulk-synchronous**:
//! every rank of the cluster must call it with the same `tag`; per-sender
//! FIFO delivery then makes repeated calls with the same tag
//! unambiguous.
//!
//! Algorithm: a binomial-tree reduction onto rank 0, then a
//! binomial-tree broadcast back out (`⌈log₂K⌉` rounds each, the
//! textbook MPI implementation).

use crate::endpoint::{Endpoint, Tag};

/// Binomial-tree reduction of `value` onto `root`. Returns `Some(total)`
/// on `root`, `None` elsewhere. `combine` must be associative (the tree
/// fixes the association order; commutativity is not required because
/// children combine in rank order).
fn reduce<T, F>(ep: &mut Endpoint<T>, root: u32, tag: Tag, value: T, combine: F) -> Option<T>
where
    F: Fn(T, T) -> T,
{
    let k = ep.size() as u32;
    assert!(root < k, "root rank out of range");
    // Rotate so the tree is rooted at 0.
    let vrank = (ep.rank() + k - root) % k;
    let mut acc = value;
    let mut step = 1u32;
    while step < k {
        if vrank & step != 0 {
            // Send to the parent and leave the tree.
            let parent = ((vrank - step) + root) % k;
            ep.send(parent, tag, acc);
            return None;
        }
        let child_v = vrank + step;
        if child_v < k {
            let child = (child_v + root) % k;
            acc = combine(acc, ep.recv_match(child, tag));
        }
        step <<= 1;
    }
    Some(acc)
}

/// Binomial-tree broadcast from `root`. On `root`, `value` must be
/// `Some`; every rank returns the broadcast value.
fn broadcast<T>(ep: &mut Endpoint<T>, root: u32, tag: Tag, value: Option<T>) -> T
where
    T: Clone,
{
    let k = ep.size() as u32;
    assert!(root < k, "root rank out of range");
    let vrank = (ep.rank() + k - root) % k;
    // Receive phase: a non-root rank is reached by its parent
    // `vrank − lowbit(vrank)`; the root skips straight to sending.
    let mut mask = 1u32;
    let val: T = if vrank == 0 {
        while mask < k {
            mask <<= 1;
        }
        value.expect("broadcast root must supply the value")
    } else {
        while vrank & mask == 0 {
            mask <<= 1;
        }
        let parent = ((vrank - mask) + root) % k;
        ep.recv_match(parent, tag)
    };
    // Send phase: forward to `vrank + m` for every m below our receive
    // mask, largest subtree first.
    let mut m = mask >> 1;
    while m >= 1 {
        let child_v = vrank + m;
        if child_v < k {
            let child = (child_v + root) % k;
            ep.send(child, tag, val.clone());
        }
        if m == 1 {
            break;
        }
        m >>= 1;
    }
    val
}

/// Reduce-then-broadcast allreduce: every rank returns the combined
/// value. Uses tags `tag` and `tag + 1`; `combine` must be associative,
/// and children combine in rank order, so the result is the same bits
/// on every rank and in every run.
pub fn allreduce<T, F>(ep: &mut Endpoint<T>, tag: Tag, value: T, combine: F) -> T
where
    T: Clone,
    F: Fn(T, T) -> T,
{
    let total = reduce(ep, 0, tag, value, combine);
    broadcast(ep, 0, tag.wrapping_add(1), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{spmd, Cluster};

    /// Collectives must work for every K, not just powers of two.
    const SIZES: [usize; 6] = [1, 2, 3, 4, 5, 8];

    #[test]
    fn reduce_sums_to_every_root() {
        for &k in &SIZES {
            for root in 0..k as u32 {
                let out = spmd(Cluster::<u64>::new(k), |ep| {
                    reduce(ep, root, 9, u64::from(ep.rank()) + 1, |a, b| a + b)
                });
                let expect: u64 = (1..=k as u64).sum();
                for (r, v) in out.iter().enumerate() {
                    if r as u32 == root {
                        assert_eq!(*v, Some(expect), "k={k} root={root}");
                    } else {
                        assert_eq!(*v, None);
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_reaches_every_rank_from_every_root() {
        for &k in &SIZES {
            for root in 0..k as u32 {
                let out = spmd(Cluster::<u64>::new(k), |ep| {
                    let v = if ep.rank() == root { Some(u64::from(root) + 100) } else { None };
                    broadcast(ep, root, 4, v)
                });
                assert!(out.iter().all(|&v| v == u64::from(root) + 100), "k={k} root={root}");
            }
        }
    }

    #[test]
    fn allreduce_agrees_on_all_ranks() {
        for &k in &SIZES {
            let out = spmd(Cluster::<f64>::new(k), |ep| {
                allreduce(ep, 2, f64::from(ep.rank()) + 0.5, |a, b| a + b)
            });
            let expect: f64 = (0..k).map(|r| r as f64 + 0.5).sum();
            assert!(out.iter().all(|v| (v - expect).abs() < 1e-12), "k={k}");
        }
    }

    #[test]
    fn reduce_is_deterministic_for_noncommutative_combine() {
        // String-like concat via digit packing: combine(a,b) = a*10 + b.
        // The binomial tree always combines children in ascending rank
        // order, so the result is reproducible.
        let runs: Vec<Option<u64>> = (0..3)
            .map(|_| {
                spmd(Cluster::<u64>::new(5), |ep| {
                    reduce(ep, 0, 0, u64::from(ep.rank()) + 1, |a, b| a * 10 + b)
                })
                .remove(0)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }
}
