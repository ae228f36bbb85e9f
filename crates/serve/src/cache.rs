//! The preparation cache: fingerprint-keyed reuse of the expensive
//! per-matrix work (partitioning, plan construction, kernel
//! compilation).
//!
//! The serving layer registers matrices over and over — the same
//! operator under different tenants, reconnecting clients, restarted
//! pipelines. All of those hit the same [`Prepared`] artifact, so the
//! cache keys on everything that determines it: the matrix
//! [fingerprint](s2d_sparse::Csr::fingerprint), the partitioning
//! strategy and processor count, the plan kind, the kernel format and
//! the batch width sessions will be stamped for. Hits skip the whole
//! preparation; misses run it once and park the result for the next
//! tenant. Eviction is least-recently-used over a small bounded store
//! (preparations are few and large — a linear scan beats hashing at
//! this size).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use s2d::{ConfigKey, KernelFormat, KernelIsa, PlanKind, Prepared, Strategy};
use s2d_obs::ServeStats;

/// Everything that determines a [`Prepared`] artifact (plus the batch
/// width sessions are stamped for): the cache key. The (matrix,
/// workload) core is the shared [`ConfigKey`] — the same composition
/// the tuner's on-disk `TuningCache` keys on, so the two caches cannot
/// drift on what identifies a matrix/workload pair — extended here by
/// the configuration axes that pin down one preparation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrepKey {
    /// Matrix fingerprint + processor count + stamped batch width.
    pub key: ConfigKey,
    /// Partitioning strategy (`None` for hand-built partitions, which
    /// are distinguished by fingerprint alone).
    pub strategy: Option<Strategy>,
    /// Plan kind (`None` = the builder's automatic choice).
    pub plan_kind: Option<PlanKind>,
    /// Kernel format the plan compiles to.
    pub format: KernelFormat,
    /// Kernel ISA the plan's batch paths select with (bitwise-neutral,
    /// but a Scalar preparation must not satisfy an Auto lookup — the
    /// compiled artifact differs).
    pub isa: KernelIsa,
}

struct Entry {
    key: PrepKey,
    prep: Arc<Prepared>,
    /// Logical clock of the last hit (for LRU eviction).
    last_use: u64,
}

/// A bounded, thread-safe LRU cache of [`Prepared`] artifacts with
/// hit/miss/eviction counters on a shared [`ServeStats`].
pub struct PlanCache {
    capacity: usize,
    entries: Mutex<Vec<Entry>>,
    clock: AtomicU64,
    stats: Arc<ServeStats>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` preparations.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, stats: Arc<ServeStats>) -> PlanCache {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        PlanCache { capacity, entries: Mutex::new(Vec::new()), clock: AtomicU64::new(0), stats }
    }

    /// The cached preparation for `key`, running `prepare` on a miss
    /// (inside the cache lock, so concurrent registrations of the same
    /// matrix prepare exactly once — the second one hits).
    pub fn get_or_prepare(
        &self,
        key: PrepKey,
        prepare: impl FnOnce() -> Prepared,
    ) -> Arc<Prepared> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.lock().expect("cache lock");
        if let Some(e) = entries.iter_mut().find(|e| e.key == key) {
            e.last_use = tick;
            self.stats.cache_hit();
            return Arc::clone(&e.prep);
        }
        self.stats.cache_miss();
        let prep = Arc::new(prepare());
        if entries.len() >= self.capacity {
            let lru = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("capacity >= 1 so the full cache is nonempty");
            entries.swap_remove(lru);
            self.stats.cache_evict();
        }
        entries.push(Entry { key, prep: Arc::clone(&prep), last_use: tick });
        prep
    }

    /// Number of cached preparations.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2d::Session;
    use s2d_core::fig1::{fig1_matrix, fig1_partition};

    fn key(fp: u64, width: usize) -> PrepKey {
        PrepKey {
            key: ConfigKey { fingerprint: fp, k: 3, width },
            strategy: None,
            plan_kind: None,
            format: KernelFormat::CsrSlice,
            isa: KernelIsa::Auto,
        }
    }

    fn prep() -> Prepared {
        let a = fig1_matrix();
        let p = fig1_partition();
        Session::builder(&a).partition(&p).prepare()
    }

    #[test]
    fn hits_skip_preparation_and_count() {
        let stats = Arc::new(ServeStats::new());
        let cache = PlanCache::new(4, Arc::clone(&stats));
        let mut prepared = 0;
        for _ in 0..3 {
            let _ = cache.get_or_prepare(key(1, 1), || {
                prepared += 1;
                prep()
            });
        }
        assert_eq!(prepared, 1, "two of three lookups must hit");
        let snap = stats.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses, snap.cache_evictions), (2, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_miss_independently() {
        let stats = Arc::new(ServeStats::new());
        let cache = PlanCache::new(4, Arc::clone(&stats));
        let _ = cache.get_or_prepare(key(1, 1), prep);
        let _ = cache.get_or_prepare(key(2, 1), prep); // different matrix
        let _ = cache.get_or_prepare(key(1, 8), prep); // different width
        assert_eq!(stats.snapshot().cache_misses, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        let stats = Arc::new(ServeStats::new());
        let cache = PlanCache::new(2, Arc::clone(&stats));
        let _ = cache.get_or_prepare(key(1, 1), prep);
        let _ = cache.get_or_prepare(key(2, 1), prep);
        let _ = cache.get_or_prepare(key(1, 1), prep); // refresh key 1
        let _ = cache.get_or_prepare(key(3, 1), prep); // evicts key 2
        assert_eq!(stats.snapshot().cache_evictions, 1);
        assert_eq!(cache.len(), 2);
        // Key 1 survived (hit), key 2 did not (miss again).
        let snap_before = stats.snapshot();
        let _ = cache.get_or_prepare(key(1, 1), prep);
        assert_eq!(stats.snapshot().cache_hits, snap_before.cache_hits + 1);
        let _ = cache.get_or_prepare(key(2, 1), prep);
        assert_eq!(stats.snapshot().cache_misses, snap_before.cache_misses + 1);
    }
}
