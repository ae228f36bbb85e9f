//! Serving-layer counters: admission, coalescing and preparation-cache
//! traffic of a long-lived `s2d-serve` server, recorded lock-free from
//! any thread and snapshotted for reports.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Json;

/// Live counters of one serving layer. All methods are `&self` and
/// relaxed-atomic — workers and admission threads bump them
/// concurrently without coordination; [`ServeStats::snapshot`] reads a
/// (per-counter) consistent view for reporting.
#[derive(Debug, Default)]
pub struct ServeStats {
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected_full: AtomicU64,
    expired: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    tuner_hits: AtomicU64,
    tuner_misses: AtomicU64,
    worker_deaths: AtomicU64,
}

impl ServeStats {
    /// Fresh counters, all zero.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// A request passed admission and entered a queue.
    pub fn admit(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's result was delivered to its caller.
    pub fn complete(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was turned away because its session queue was full.
    pub fn reject_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline passed before execution started.
    pub fn expire(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// One batch execution covering `requests` coalesced requests
    /// (`requests = 1` means no coalescing happened for that batch).
    pub fn batch(&self, requests: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(requests, Ordering::Relaxed);
    }

    /// A registration was served from the preparation cache.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A registration had to run the full preparation.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A cached preparation was evicted to stay within capacity.
    pub fn cache_evict(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// A registration found a measured configuration in the on-disk
    /// tuning cache (the tuner's pick overrode the static models).
    pub fn tuner_hit(&self) {
        self.tuner_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A registration consulted the tuning cache and found no entry
    /// (the static model pick was used).
    pub fn tuner_miss(&self) {
        self.tuner_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A session worker died (its operator panicked); the session was
    /// closed and its pending requests refused.
    pub fn worker_died(&self) {
        self.worker_deaths.fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-value copy of the counters for reporting.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            tuner_hits: self.tuner_hits.load(Ordering::Relaxed),
            tuner_misses: self.tuner_misses.load(Ordering::Relaxed),
            worker_deaths: self.worker_deaths.load(Ordering::Relaxed),
        }
    }
}

/// One point-in-time reading of [`ServeStats`], carried by
/// [`ExecutionReport`](crate::ExecutionReport) when a serving layer is
/// in play.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Requests that passed admission.
    pub admitted: u64,
    /// Requests whose results were delivered.
    pub completed: u64,
    /// Requests rejected with a full queue.
    pub rejected_full: u64,
    /// Requests that expired before execution.
    pub expired: u64,
    /// Batch executions run.
    pub batches: u64,
    /// Requests covered by those batches (= completed work items).
    pub coalesced: u64,
    /// Preparation-cache hits.
    pub cache_hits: u64,
    /// Preparation-cache misses.
    pub cache_misses: u64,
    /// Preparation-cache evictions.
    pub cache_evictions: u64,
    /// Registrations that found a measured entry in the tuning cache.
    pub tuner_hits: u64,
    /// Registrations that consulted the tuning cache and found none.
    pub tuner_misses: u64,
    /// Session workers that died on a panicking operator.
    pub worker_deaths: u64,
}

impl ServeSnapshot {
    /// Mean requests per executed batch (1.0 = no coalescing; 0 when
    /// nothing ran). The serving layer's headline reuse figure.
    pub fn coalescing_rate(&self) -> f64 {
        if self.batches > 0 {
            self.coalesced as f64 / self.batches as f64
        } else {
            0.0
        }
    }

    /// Cache hits / lookups (0 when the cache was never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups > 0 {
            self.cache_hits as f64 / lookups as f64
        } else {
            0.0
        }
    }

    /// One JSON object: every counter, plus the two rates.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("admitted", self.admitted)
            .set("completed", self.completed)
            .set("rejected_full", self.rejected_full)
            .set("expired", self.expired)
            .set("batches", self.batches)
            .set("coalesced", self.coalesced)
            .set("coalescing_rate", Json::fixed(self.coalescing_rate(), 4))
            .set("cache_hits", self.cache_hits)
            .set("cache_misses", self.cache_misses)
            .set("cache_evictions", self.cache_evictions)
            .set("cache_hit_rate", Json::fixed(self.cache_hit_rate(), 4))
            .set("tuner_hits", self.tuner_hits)
            .set("tuner_misses", self.tuner_misses)
            .set("worker_deaths", self.worker_deaths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = ServeStats::new();
        for _ in 0..5 {
            s.admit();
        }
        s.reject_full();
        s.expire();
        s.batch(3);
        s.batch(1);
        for _ in 0..4 {
            s.complete();
        }
        s.cache_hit();
        s.cache_hit();
        s.cache_miss();
        s.cache_evict();
        s.tuner_hit();
        s.tuner_miss();
        s.tuner_miss();
        s.worker_died();
        let snap = s.snapshot();
        assert_eq!(snap.admitted, 5);
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.rejected_full, 1);
        assert_eq!(snap.expired, 1);
        assert_eq!((snap.batches, snap.coalesced), (2, 4));
        assert!((snap.coalescing_rate() - 2.0).abs() < 1e-12);
        assert!((snap.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(snap.cache_evictions, 1);
        assert_eq!((snap.tuner_hits, snap.tuner_misses), (1, 2));
        assert_eq!(snap.worker_deaths, 1);
    }

    #[test]
    fn empty_snapshot_rates_are_zero_not_nan() {
        let snap = ServeStats::new().snapshot();
        assert_eq!(snap.coalescing_rate(), 0.0);
        assert_eq!(snap.cache_hit_rate(), 0.0);
    }

    #[test]
    fn json_is_balanced_and_carries_rates() {
        let s = ServeStats::new();
        s.batch(8);
        s.cache_hit();
        let json = Json::parse(&s.snapshot().to_json().to_string()).expect("valid JSON");
        let get = |key| json.get(key).and_then(Json::as_f64);
        assert_eq!(get("coalescing_rate"), Some(8.0));
        assert_eq!(get("cache_hit_rate"), Some(1.0));
        assert_eq!(json.get("tuner_hits").and_then(Json::as_u64), Some(0));
        assert_eq!(json.get("worker_deaths").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        use std::sync::Arc;
        let s = Arc::new(ServeStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.admit();
                        s.complete();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!((snap.admitted, snap.completed), (4000, 4000));
    }
}
