//! A deterministic bounded LRU cache for the workspace's shared memos.
//!
//! The planning stack's long-lived in-memory caches — `tdcsoc::SocCache`
//! (the built SOCs that serve and fleet share) and the serve daemon's
//! plan-text memo — are bounded by a [`BoundedCache`]: entries are evicted
//! least-recently-used first once either the entry cap or the byte cap is
//! exceeded, so a daemon serving many designs cannot grow without bound.
//! The planner's per-core memo (`selenc::EvalCache`) lives for one plan's
//! table stage and needs no bound.
//!
//! The implementation is deliberately clock- and hash-free — recency is a
//! logical tick, storage is `BTreeMap` — so eviction order is a pure
//! function of the access sequence. A cache-bounded run therefore recomputes
//! exactly what an unbounded run memoized, and (because every cached
//! computation in this workspace is deterministic) produces bit-identical
//! results; callers rely on that for the eviction/bit-identity tests.

use std::collections::BTreeMap;

/// Entry and byte caps for a [`BoundedCache`].
///
/// A cap of `usize::MAX` is effectively unbounded; a cap of `0` disables
/// caching entirely (every insert is rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum number of live entries.
    pub max_entries: usize,
    /// Maximum sum of entry weights (approximate bytes).
    pub max_bytes: usize,
}

impl CacheLimits {
    /// Caps on both entry count and total weight.
    pub const fn new(max_entries: usize, max_bytes: usize) -> Self {
        CacheLimits {
            max_entries,
            max_bytes,
        }
    }

    /// No effective bound (both caps at `usize::MAX`).
    pub fn unbounded() -> Self {
        CacheLimits::new(usize::MAX, usize::MAX)
    }

    /// Whether an entry of `weight` bytes can ever live in a cache with
    /// these limits.
    pub fn admits(&self, weight: usize) -> bool {
        self.max_entries > 0 && weight <= self.max_bytes
    }
}

impl Default for CacheLimits {
    fn default() -> Self {
        CacheLimits::unbounded()
    }
}

/// Running counters exposed for status reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed to make room.
    pub evictions: u64,
    /// Inserts rejected because a single entry exceeded the caps.
    pub rejected: u64,
}

impl CacheStats {
    /// Adds another counter set into this one (saturating), for rolling
    /// per-cache or per-run stats up into a fleet-wide total.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.rejected = self.rejected.saturating_add(other.rejected);
    }
}

#[derive(Debug)]
struct Slot<V> {
    tick: u64,
    weight: usize,
    value: V,
}

/// A bounded LRU map from `K` to `V` with per-entry byte weights.
///
/// Not internally synchronized — wrap it in a `Mutex` to share across
/// threads (every current user does). Recency is a logical counter bumped
/// on each hit and insert, so behaviour is independent of wall-clock time
/// and thread scheduling given the same access sequence.
///
/// # Examples
///
/// ```
/// use robust::{BoundedCache, CacheLimits};
///
/// let mut cache = BoundedCache::new(CacheLimits::new(2, usize::MAX));
/// cache.insert(1, "a", 1);
/// cache.insert(2, "b", 1);
/// assert_eq!(cache.get(&1), Some(&"a")); // 1 is now most recent
/// cache.insert(3, "c", 1);               // evicts 2, the LRU entry
/// assert_eq!(cache.get(&2), None);
/// assert_eq!(cache.get(&1), Some(&"a"));
/// ```
#[derive(Debug)]
pub struct BoundedCache<K, V> {
    limits: CacheLimits,
    map: BTreeMap<K, Slot<V>>,
    /// tick → key, the eviction order; first entry is least recent.
    recency: BTreeMap<u64, K>,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl<K: Ord + Clone, V> BoundedCache<K, V> {
    /// An empty cache with the given limits.
    pub fn new(limits: CacheLimits) -> Self {
        BoundedCache {
            limits,
            map: BTreeMap::new(),
            recency: BTreeMap::new(),
            bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured limits.
    pub fn limits(&self) -> CacheLimits {
        self.limits
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of live entry weights.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        // Split borrow: bump recency before handing out the value ref.
        if let Some(slot) = self.map.get_mut(key) {
            self.recency.remove(&slot.tick);
            self.tick += 1;
            slot.tick = self.tick;
            self.recency.insert(self.tick, key.clone());
            self.stats.hits += 1;
            Some(&self.map.get(key).expect("just touched").value)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Looks up `key` without touching recency or counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|s| &s.value)
    }

    /// Inserts `key → value` with an approximate byte `weight`, evicting
    /// least-recently-used entries until the caps hold. An entry that can
    /// never fit (weight above the byte cap, or a zero entry cap) is
    /// rejected outright and counted in [`CacheStats::rejected`].
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        if !self.limits.admits(weight) {
            self.stats.rejected += 1;
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.recency.remove(&old.tick);
            self.bytes -= old.weight;
        }
        while self.map.len() >= self.limits.max_entries
            || self.bytes.saturating_add(weight) > self.limits.max_bytes
        {
            if !self.evict_one() {
                break;
            }
        }
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        self.bytes = self.bytes.saturating_add(weight);
        self.map.insert(
            key,
            Slot {
                tick: self.tick,
                weight,
                value,
            },
        );
    }

    /// Removes the least-recently-used entry; false when already empty.
    fn evict_one(&mut self) -> bool {
        let Some((&tick, _)) = self.recency.iter().next() else {
            return false;
        };
        let key = self.recency.remove(&tick).expect("tick just observed");
        if let Some(slot) = self.map.remove(&key) {
            self.bytes -= slot.weight;
        }
        self.stats.evictions += 1;
        true
    }

    /// Drops every entry (limits and counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_cap_evicts_lru_first() {
        let mut c = BoundedCache::new(CacheLimits::new(3, usize::MAX));
        for k in 0..3 {
            c.insert(k, k * 10, 1);
        }
        assert_eq!(c.get(&0), Some(&0)); // 0 most recent; 1 is now LRU
        c.insert(3, 30, 1);
        assert_eq!(c.peek(&1), None, "LRU entry evicted");
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn byte_cap_holds_under_mixed_weights() {
        let mut c = BoundedCache::new(CacheLimits::new(usize::MAX, 100));
        c.insert("a", (), 40);
        c.insert("b", (), 40);
        c.insert("c", (), 40); // evicts "a"
        assert_eq!(c.bytes(), 80);
        assert!(c.peek(&"a").is_none());
        c.insert("d", (), 100); // evicts everything else
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 100);
    }

    #[test]
    fn oversized_entries_are_rejected_not_thrashed() {
        let mut c = BoundedCache::new(CacheLimits::new(10, 50));
        c.insert(1, (), 10);
        c.insert(2, (), 51);
        assert_eq!(c.len(), 1, "oversized entry must not evict live ones");
        assert_eq!(c.stats().rejected, 1);
        let mut off = BoundedCache::new(CacheLimits::new(0, 50));
        off.insert(1, (), 1);
        assert!(off.is_empty());
    }

    #[test]
    fn reinsert_replaces_weight_accounting() {
        let mut c = BoundedCache::new(CacheLimits::new(10, 100));
        c.insert(1, "x", 60);
        c.insert(1, "y", 30);
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.get(&1), Some(&"y"));
    }

    #[test]
    fn absorb_sums_and_saturates() {
        let mut a = CacheStats {
            hits: 3,
            misses: 2,
            evictions: 1,
            rejected: 0,
        };
        a.absorb(CacheStats {
            hits: 10,
            misses: 20,
            evictions: 30,
            rejected: 40,
        });
        assert_eq!(a.hits, 13);
        assert_eq!(a.misses, 22);
        assert_eq!(a.evictions, 31);
        assert_eq!(a.rejected, 40);
        let mut top = CacheStats {
            hits: u64::MAX,
            ..CacheStats::default()
        };
        top.absorb(a);
        assert_eq!(top.hits, u64::MAX);
    }

    #[test]
    fn eviction_order_is_a_pure_function_of_accesses() {
        let run = || {
            let mut c = BoundedCache::new(CacheLimits::new(4, usize::MAX));
            for k in 0..6 {
                c.insert(k, k, 1);
            }
            c.get(&3);
            c.insert(6, 6, 1);
            let mut keys: Vec<i32> = Vec::new();
            for k in 0..7 {
                if c.peek(&k).is_some() {
                    keys.push(k);
                }
            }
            keys
        };
        assert_eq!(run(), run());
    }
}
