//! The daemon's shared in-memory result cache and service counters.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use llhsc::{CacheClass, CacheEntry, PipelineCache, RegionCheckStats, SessionStats, SolverStats};

use crate::analytics::AnalyticsOutcome;
use crate::check::CheckReport;

/// Whole answers kept per class (`tree_check`, `analytics`). A report
/// of a 145-device board with overlap findings serializes, span tree
/// included, to about 2 KB.
const ANSWER_CAPACITY: usize = 64;

/// Pipeline stage entries kept across `allocation`, `product_check`,
/// `coverage` and `family`.
const STAGE_CAPACITY: usize = 256;

/// A cached whole-tree `check` outcome: the rendered report plus the
/// cost counters of the original fresh run. Replayed on every hit, so a
/// daemon-served report (including `--report-json`) is byte-identical
/// whether the verdict was computed or replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedTreeCheck {
    /// The rendered report.
    pub report: CheckReport,
    /// Semantic-checker cost counters of the fresh run.
    pub stats: RegionCheckStats,
    /// Solver totals of the fresh run.
    pub solver: SolverStats,
    /// Session reuse counters of the fresh run.
    pub session: SessionStats,
    /// Span tree of the fresh run, replayed into the report document
    /// on cache hits (which renders it without times).
    pub spans: Vec<llhsc_obs::SpanRecord>,
}

/// A map of at most `capacity` entries that evicts the least recently
/// used one. Every entry carries a recency stamp that a `get` refreshes;
/// an insert at capacity removes the entry with the oldest stamp by an
/// O(capacity) scan, which is noise next to the solver work an entry
/// stands for.
#[derive(Debug)]
struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity,
            clock: 0,
            entries: HashMap::with_capacity(capacity),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let now = self.tick();
        let (stamp, value) = self.entries.get_mut(key)?;
        *stamp = now;
        Some(value.clone())
    }

    /// Stores `value` under `key`; returns the key evicted to make room.
    fn insert(&mut self, key: K, value: V) -> Option<K> {
        let now = self.tick();
        let mut evicted = None;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            evicted = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(k) = &evicted {
                self.entries.remove(k);
            }
        }
        self.entries.insert(key, (now, value));
        evicted
    }
}

/// Hit, miss and eviction counters for one cache class.
#[derive(Debug, Default)]
pub struct ClassCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ClassCounters {
    fn lookup(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn evicted(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses, evictions)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

/// Locks a cache store. Every update leaves a store valid at each step
/// (one removal, one insert, one stamp), so the poison of a worker that
/// panicked while holding the lock is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The content-addressed store shared by every worker: pipeline stage
/// results (behind [`PipelineCache`]) plus whole-tree `check` verdicts
/// and analytics answers, with per-class hit/miss/eviction counters
/// surfaced by the `stats` op.
///
/// Memory is bounded: each store is a least-recently-used map of fixed
/// capacity — 64 whole answers each for `check` and analytics, 256
/// stage entries shared by the four pipeline classes — so a daemon
/// serving a stream of distinct boards holds a flat resident set
/// instead of one that grows with the request count. An edit loop keeps
/// re-reading the project being edited, so those entries stay resident
/// while one-off requests cycle through the rest.
#[derive(Debug)]
pub struct ServiceCache {
    stages: Mutex<Lru<(CacheClass, u64), CacheEntry>>,
    trees: Mutex<Lru<u64, CachedTreeCheck>>,
    analytics: Mutex<Lru<u64, AnalyticsOutcome>>,
    allocation: ClassCounters,
    product_check: ClassCounters,
    coverage: ClassCounters,
    tree_check: ClassCounters,
    analytics_counters: ClassCounters,
    family: ClassCounters,
}

impl Default for ServiceCache {
    fn default() -> ServiceCache {
        ServiceCache {
            stages: Mutex::new(Lru::new(STAGE_CAPACITY)),
            trees: Mutex::new(Lru::new(ANSWER_CAPACITY)),
            analytics: Mutex::new(Lru::new(ANSWER_CAPACITY)),
            allocation: ClassCounters::default(),
            product_check: ClassCounters::default(),
            coverage: ClassCounters::default(),
            tree_check: ClassCounters::default(),
            analytics_counters: ClassCounters::default(),
            family: ClassCounters::default(),
        }
    }
}

impl ServiceCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> ServiceCache {
        ServiceCache::default()
    }

    fn counters_for(&self, class: CacheClass) -> &ClassCounters {
        match class {
            CacheClass::Allocation => &self.allocation,
            CacheClass::ProductCheck => &self.product_check,
            CacheClass::Coverage => &self.coverage,
            CacheClass::Family => &self.family,
        }
    }

    /// A cached whole-tree `check` result.
    pub fn get_tree(&self, key: u64) -> Option<CachedTreeCheck> {
        let hit = lock(&self.trees).get(&key);
        self.tree_check.lookup(hit.is_some());
        hit
    }

    /// Stores a whole-tree `check` result.
    pub fn put_tree(&self, key: u64, check: CachedTreeCheck) {
        if lock(&self.trees).insert(key, check).is_some() {
            self.tree_check.evicted();
        }
    }

    /// A cached analytics (`count`/`sample`) answer. Replayed answers
    /// are byte-identical to the fresh run and cost zero solver calls.
    pub fn get_analytics(&self, key: u64) -> Option<AnalyticsOutcome> {
        let hit = lock(&self.analytics).get(&key);
        self.analytics_counters.lookup(hit.is_some());
        hit
    }

    /// Stores an analytics answer.
    pub fn put_analytics(&self, key: u64, outcome: AnalyticsOutcome) {
        if lock(&self.analytics).insert(key, outcome).is_some() {
            self.analytics_counters.evicted();
        }
    }

    /// `(class name, hits, misses, evictions)` for every class, in a
    /// stable order (new classes are appended, so positional consumers
    /// stay valid).
    pub fn counters(&self) -> [(&'static str, u64, u64, u64); 6] {
        let snap = |name, c: &ClassCounters| {
            let (hits, misses, evictions) = c.snapshot();
            (name, hits, misses, evictions)
        };
        [
            snap("allocation", &self.allocation),
            snap("product_check", &self.product_check),
            snap("coverage", &self.coverage),
            snap("tree_check", &self.tree_check),
            snap("analytics", &self.analytics_counters),
            snap("family", &self.family),
        ]
    }
}

impl PipelineCache for ServiceCache {
    fn get(&self, class: CacheClass, key: u64) -> Option<CacheEntry> {
        let hit = lock(&self.stages).get(&(class, key));
        self.counters_for(class).lookup(hit.is_some());
        hit
    }

    fn put(&self, class: CacheClass, key: u64, entry: CacheEntry) {
        // Stage classes share one store, so an eviction is charged to
        // the class of the entry that made room, not of the newcomer.
        if let Some((evicted, _)) = lock(&self.stages).insert((class, key), entry) {
            self.counters_for(evicted).evicted();
        }
    }
}

/// Request-level counters, surfaced by the `stats` op.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests handled (including failed ones).
    pub requests: AtomicU64,
    /// Requests answered with an error frame.
    pub errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections currently being served by a worker.
    pub in_flight: AtomicU64,
    /// Total time connections sat in the accept queue, in µs.
    pub queue_wait_us_total: AtomicU64,
    /// Longest single accept-queue wait, in µs.
    pub queue_wait_us_max: AtomicU64,
}

impl ServiceStats {
    /// Records one accept-queue wait.
    pub fn record_queue_wait(&self, micros: u64) {
        self.queue_wait_us_total
            .fetch_add(micros, Ordering::Relaxed);
        self.queue_wait_us_max.fetch_max(micros, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc::CachedCheck;

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = ServiceCache::new();
        assert!(cache.get(CacheClass::Allocation, 1).is_none());
        cache.put(
            CacheClass::Allocation,
            1,
            CacheEntry::Allocation(Err("nope".into())),
        );
        assert!(cache.get(CacheClass::Allocation, 1).is_some());
        let [allocation, ..] = cache.counters();
        assert_eq!(allocation, ("allocation", 1, 1, 0));
    }

    #[test]
    fn classes_do_not_alias() {
        let cache = ServiceCache::new();
        cache.put(
            CacheClass::ProductCheck,
            7,
            CacheEntry::Check(CachedCheck {
                diagnostics: Vec::new(),
                stats: Default::default(),
            }),
        );
        assert!(cache.get(CacheClass::Coverage, 7).is_none());
        assert!(cache.get(CacheClass::ProductCheck, 7).is_some());
    }

    #[test]
    fn analytics_answers_roundtrip() {
        let cache = ServiceCache::new();
        assert!(cache.get_analytics(3).is_none());
        let outcome = crate::analytics::AnalyticsOutcome {
            doc: crate::json::Json::Null,
            text: "count: 60 (exact)\n".into(),
            solves: 61,
            xor_constraints: 0,
        };
        cache.put_analytics(3, outcome.clone());
        assert_eq!(cache.get_analytics(3), Some(outcome));
        assert_eq!(cache.counters()[4], ("analytics", 1, 1, 0));
    }

    #[test]
    fn family_verdicts_roundtrip() {
        let cache = ServiceCache::new();
        assert!(cache.get(CacheClass::Family, 5).is_none());
        let report = llhsc::family::FamilyReport {
            mode: llhsc::family::CheckMode::Family,
            lifted: true,
            fallback: None,
            products: 60,
            products_exact: true,
            findings: Vec::new(),
            stats: Default::default(),
        };
        cache.put(
            CacheClass::Family,
            5,
            CacheEntry::Family(Ok(report.clone())),
        );
        assert_eq!(
            cache.get(CacheClass::Family, 5),
            Some(CacheEntry::Family(Ok(report)))
        );
        assert_eq!(cache.counters()[5], ("family", 1, 1, 0));
    }

    #[test]
    fn tree_reports_roundtrip() {
        let cache = ServiceCache::new();
        assert!(cache.get_tree(9).is_none());
        let check = CachedTreeCheck {
            report: CheckReport {
                stdout: "checked: ok\n".into(),
                stderr: String::new(),
                clean: true,
                input_error: false,
            },
            stats: RegionCheckStats::default(),
            solver: SolverStats::default(),
            session: SessionStats::default(),
            spans: Vec::new(),
        };
        cache.put_tree(9, check.clone());
        assert_eq!(cache.get_tree(9), Some(check));
        assert_eq!(cache.counters()[3], ("tree_check", 1, 1, 0));
    }

    fn rejected_allocation() -> CacheEntry {
        CacheEntry::Allocation(Err("nope".into()))
    }

    #[test]
    fn lru_never_exceeds_its_capacity() {
        let mut lru = Lru::new(4);
        for key in 0..20u64 {
            let evicted = lru.insert(key, key);
            assert!(lru.entries.len() <= 4, "{} entries", lru.entries.len());
            // Oldest first: the fifth insert evicts the first key.
            assert_eq!(evicted, key.checked_sub(4));
        }
        // Re-inserting a resident key replaces it without evicting.
        assert_eq!(lru.insert(19, 0), None);
        assert_eq!(lru.entries.len(), 4);
    }

    #[test]
    fn a_hit_survives_the_next_eviction() {
        let mut lru = Lru::new(3);
        for key in 0..3u64 {
            lru.insert(key, key);
        }
        assert_eq!(lru.get(&0), Some(0));
        // 0 was oldest but was just hit, so 1 makes room instead.
        assert_eq!(lru.insert(3, 3), Some(1));
        assert_eq!(lru.get(&0), Some(0));
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn evictions_are_charged_to_the_evicted_class() {
        let cache = ServiceCache::new();
        for key in 0..STAGE_CAPACITY as u64 {
            cache.put(CacheClass::Allocation, key, rejected_allocation());
        }
        // Stage classes share one store: a coverage entry arriving at
        // capacity evicts the oldest allocation.
        cache.put(
            CacheClass::Coverage,
            0,
            CacheEntry::Check(CachedCheck {
                diagnostics: Vec::new(),
                stats: Default::default(),
            }),
        );
        assert_eq!(cache.counters()[0], ("allocation", 0, 0, 1));
        assert_eq!(cache.counters()[2], ("coverage", 0, 0, 0));
        assert!(cache.get(CacheClass::Allocation, 0).is_none());
        assert!(cache.get(CacheClass::Allocation, 1).is_some());
        assert!(cache.get(CacheClass::Coverage, 0).is_some());
    }
}
