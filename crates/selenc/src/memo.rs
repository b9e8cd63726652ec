//! The per-core memo of the decision-table stage.
//!
//! The lookup tables (paper §3, steps 1–2) ask one core for the same
//! operating points over and over: every profile width, every decision
//! table source and every raw-access row re-derives them from the same few
//! hundred chain counts. [`EvalCache`] computes each of them once per
//! core:
//!
//! - per clamped chain count, the wrapper's [`WrapperPoint`]: a few
//!   numbers, not the whole design;
//! - per (effective chain count, sample), the [`Compressed`] evaluation;
//! - the raw row's prefix minimum over chain counts, and the core's
//!   content stamp.
//!
//! A lookup takes its key's slot under the map lock and fills it outside,
//! so threads that ask for one key at once compute it once: the others
//! wait for the slot and count a hit. The counters are therefore exact at
//! any worker count. The memo lives as long as one table job or one
//! profile build, so it needs no caps.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Arc, Mutex, OnceLock};

use robust::CacheStats;
use soc_model::Core;
use wrapper::{design_wrapper, WrapperDesign, WrapperPoint};

use crate::stream::{compress_sampled, Compressed};

/// Per-core memo of wrapper points and sampled compression results.
///
/// Chain counts above [`Core::max_wrapper_chains`] produce the same design
/// as the cap itself, so they share the cap's point. An evaluation is
/// keyed by the effective chain count and the sample, and a sample that
/// covers the whole test set shares the exact key.
///
/// Shared by reference across planner worker threads; all methods take
/// `&self`.
///
/// # Examples
///
/// ```
/// use soc_model::benchmarks::Design;
/// use selenc::{evaluate_point, EvalCache};
///
/// let soc = Design::D695.build_with_cubes(1);
/// let (_, core) = soc.core_by_name("s13207").expect("d695 core");
/// let cache = EvalCache::new(core);
/// assert_eq!(cache.evaluate_point(8, Some(4)), evaluate_point(core, 8, Some(4)));
/// assert_eq!(cache.evaluate_point(8, Some(4)), evaluate_point(core, 8, Some(4)));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (2, 2)); // one point, one evaluation
/// ```
// BTreeMap, not a hash map: the memo is shared across planner threads and
// a hash-ordered drain sneaking in later would be a worker-count-dependent
// bug.
#[derive(Debug)]
pub struct EvalCache<'a> {
    core: &'a Core,
    /// `max_wrapper_chains().max(1)`; every point key is clamped to
    /// `1..=cap`.
    cap: u32,
    points: Mutex<OnceMap<u32, WrapperPoint>>,
    evals: Mutex<OnceMap<(u32, Option<usize>), Compressed>>,
    /// `prefix[i]` is the best point over `m ∈ 1..=i+1`, ties keeping the
    /// smallest chain count. Extended as wider queries arrive.
    prefix: Mutex<Vec<WrapperPoint>>,
    /// Lazily computed [`core_fingerprint`](crate::core_fingerprint) of
    /// the core — the dirty-tracking key for everything derived from this
    /// cache (on-disk profiles, incremental rebuilds).
    stamp: OnceLock<u64>,
}

impl<'a> EvalCache<'a> {
    /// Creates an empty cache for `core`. Nothing is computed up front.
    pub fn new(core: &'a Core) -> Self {
        EvalCache {
            core,
            cap: core.max_wrapper_chains().max(1),
            points: Mutex::default(),
            evals: Mutex::default(),
            prefix: Mutex::new(Vec::new()),
            stamp: OnceLock::new(),
        }
    }

    /// Content fingerprint of the core this cache evaluates
    /// ([`core_fingerprint`](crate::core_fingerprint)), computed at most
    /// once per cache lifetime. Everything memoized here — and every
    /// profile derived from it — is a pure function of the fingerprinted
    /// inputs plus the sampling configuration, so equal stamps mean a
    /// cached profile is still valid and differing stamps mean the core
    /// was edited and its entries are dirty.
    pub fn content_stamp(&self) -> u64 {
        *self
            .stamp
            .get_or_init(|| crate::lut::core_fingerprint(self.core))
    }

    /// Counters over points and evaluations: hits are lookups answered
    /// without computing, misses are values computed.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.points.lock().expect("memo poisoned").stats();
        stats.absorb(self.evals.lock().expect("memo poisoned").stats());
        stats
    }

    /// The core this cache evaluates.
    pub fn core(&self) -> &'a Core {
        self.core
    }

    /// The best (lowest uncompressed test time) wrapper point using at
    /// most `max_chains` chains, the smallest chain count on ties — the
    /// memoized equivalent of
    /// [`best_design_up_to`](wrapper::best_design_up_to).
    pub fn best_up_to(&self, max_chains: u32) -> WrapperPoint {
        let limit = max_chains.clamp(1, self.cap);
        let mut prefix = self.prefix.lock().expect("prefix poisoned");
        for m in prefix.len() as u32 + 1..=limit {
            let (point, _) = self.point(m);
            let best = match prefix.last() {
                Some(&best) if best.test_time <= point.test_time => best,
                _ => point,
            };
            prefix.push(best);
        }
        prefix[limit as usize - 1]
    }

    /// Memoized [`evaluate_clamped`](crate::evaluate_clamped).
    ///
    /// # Panics
    ///
    /// Panics if the core has no attached test set or `m == 0`.
    pub fn evaluate_clamped(&self, m: u32, sample: Option<usize>) -> Compressed {
        assert!(m > 0, "chain count must be positive");
        let (point, design) = self.point(m);
        self.evaluate(m, point.chains, design, sample)
    }

    /// Memoized [`evaluate_point`](crate::evaluate_point): `None` when the
    /// core cannot realize `m` distinct chains.
    ///
    /// # Panics
    ///
    /// Panics if the core has no attached test set.
    pub fn evaluate_point(&self, m: u32, sample: Option<usize>) -> Option<Compressed> {
        if m == 0 {
            return None;
        }
        let (point, design) = self.point(m);
        (point.chains == m).then(|| self.evaluate(m, m, design, sample))
    }

    /// The wrapper point at chain count `m` (clamped to `1..=cap`), plus
    /// the design when this call built it, so an evaluation miss right
    /// after need not build it again.
    fn point(&self, m: u32) -> (WrapperPoint, Option<WrapperDesign>) {
        let key = m.clamp(1, self.cap);
        let mut built = None;
        let point = get_or_fill(&self.points, key, || {
            let design = design_wrapper(self.core, key);
            let point = WrapperPoint {
                chains: design.chain_count(),
                scan_in: design.scan_in_length(),
                scan_out: design.scan_out_length(),
                test_time: design.test_time(u64::from(self.core.pattern_count())),
            };
            built = Some(design);
            point
        });
        (point, built)
    }

    /// The evaluation of the design at chain count `m`, which has `chains`
    /// effective chains; `design` is that design when the caller holds it.
    fn evaluate(
        &self,
        m: u32,
        chains: u32,
        design: Option<WrapperDesign>,
        sample: Option<usize>,
    ) -> Compressed {
        let test_set = self
            .core
            .test_set()
            .expect("core must carry a test set; call synthesize_missing_test_sets first");
        // Any sample covering the whole set is the exact computation.
        let patterns = test_set.pattern_count().max(1);
        let key = (chains, sample.filter(|&s| s < patterns));
        get_or_fill(&self.evals, key, || {
            let design = design.unwrap_or_else(|| design_wrapper(self.core, m));
            compress_sampled(&design, test_set, sample.unwrap_or(patterns))
        })
    }
}

/// Compute-once slots keyed by `K`, shared behind a mutex: the first
/// caller to ask for a key takes its slot, and [`get_or_fill`] fills it
/// outside the lock.
#[derive(Debug)]
struct OnceMap<K, V> {
    slots: BTreeMap<K, Arc<OnceLock<V>>>,
    /// Lookups that found their slot already taken.
    hits: u64,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap {
            slots: BTreeMap::new(),
            hits: 0,
        }
    }
}

impl<K: Ord, V> OnceMap<K, V> {
    /// The slot of `key`, taken now unless a caller took it before.
    fn slot(&mut self, key: K) -> Arc<OnceLock<V>> {
        match self.slots.entry(key) {
            Entry::Occupied(slot) => {
                self.hits += 1;
                Arc::clone(slot.get())
            }
            Entry::Vacant(slot) => Arc::clone(slot.insert(Arc::default())),
        }
    }

    /// Hits are lookups that found their slot taken; misses are the slots,
    /// one per value computed.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.slots.len() as u64,
            ..CacheStats::default()
        }
    }
}

/// The value at `key` in `memo`, computed by `fill` when no caller took
/// its slot before; a caller that finds the slot still being filled waits
/// for it. `fill` runs outside the lock and must not call back into
/// `memo`.
fn get_or_fill<K: Ord, V: Copy>(
    memo: &Mutex<OnceMap<K, V>>,
    key: K,
    fill: impl FnOnce() -> V,
) -> V {
    let slot = memo.lock().expect("memo poisoned").slot(key);
    *slot.get_or_init(fill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{evaluate_clamped, evaluate_point};
    use soc_model::CubeSynthesis;
    use wrapper::best_design_up_to;

    fn prepared() -> Core {
        let mut core = Core::builder("memo")
            .inputs(9)
            .outputs(4)
            .flexible_cells(300, 64)
            .pattern_count(12)
            .care_density(0.2)
            .build()
            .unwrap();
        let ts = CubeSynthesis::new(0.2).synthesize(&core, 5);
        core.attach_test_set(ts).unwrap();
        core
    }

    fn hits_and_misses(cache: &EvalCache<'_>) -> (u64, u64) {
        let stats = cache.stats();
        (stats.hits, stats.misses)
    }

    #[test]
    fn matches_unmemoized_functions() {
        let core = prepared();
        let cache = EvalCache::new(&core);
        for m in [1u32, 5, 16, 40, 73, 200] {
            for sample in [None, Some(3), Some(500)] {
                assert_eq!(
                    cache.evaluate_point(m, sample),
                    evaluate_point(&core, m, sample),
                    "point m={m} sample={sample:?}"
                );
                assert_eq!(
                    cache.evaluate_clamped(m, sample),
                    evaluate_clamped(&core, m, sample),
                    "clamped m={m} sample={sample:?}"
                );
            }
        }
    }

    #[test]
    fn best_up_to_matches_uncached_scan() {
        let core = prepared();
        let cache = EvalCache::new(&core);
        // Out of order, to extend the prefix in steps and read it back.
        for limit in [6u32, 2, 16, 9, 1, 40, 200] {
            let point = cache.best_up_to(limit);
            let (design, time) = best_design_up_to(&core, limit);
            assert_eq!(point.test_time, time, "limit={limit}");
            assert_eq!(point.chains, design.chain_count(), "limit={limit}");
            assert_eq!(point.scan_in, design.scan_in_length(), "limit={limit}");
            assert_eq!(point.scan_out, design.scan_out_length(), "limit={limit}");
        }
    }

    #[test]
    fn clamped_chain_counts_share_the_cap_slot() {
        let core = prepared();
        let cache = EvalCache::new(&core);
        let cap = core.max_wrapper_chains();
        let (at_cap, built) = cache.point(cap);
        assert!(built.is_some(), "the first lookup builds the design");
        let (above, built) = cache.point(cap + 50);
        assert!(built.is_none(), "a clamped lookup shares the cap's slot");
        assert_eq!(at_cap, above);
        assert_eq!(hits_and_misses(&cache), (1, 1));
        // And the shared point really is what design_wrapper produces.
        let design = design_wrapper(&core, cap + 50);
        assert_eq!(above.chains, design.chain_count());
        assert_eq!(above.scan_in, design.scan_in_length());
    }

    #[test]
    fn collapsing_keys_share_one_evaluation() {
        let core = prepared();
        let cache = EvalCache::new(&core);
        // Saturating sample == exact; both land on the None-sample key.
        let a = cache.evaluate_clamped(10, Some(999));
        let b = cache.evaluate_clamped(10, None);
        assert_eq!(a, b);
        assert_eq!(
            cache.evals.lock().unwrap().stats().misses,
            1,
            "one evaluation computed"
        );
    }

    #[test]
    fn one_key_asked_twice_counts_one_hit_and_one_miss() {
        let core = prepared();
        let cache = EvalCache::new(&core);
        let _ = cache.point(4);
        assert_eq!(hits_and_misses(&cache), (0, 1));
        let _ = cache.point(4);
        assert_eq!(hits_and_misses(&cache), (1, 1));
    }

    #[test]
    fn threads_asking_one_key_compute_it_once() {
        let core = prepared();
        let cache = EvalCache::new(&core);
        let results: Vec<Compressed> = std::thread::scope(|scope| {
            let asks: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.evaluate_clamped(20, Some(3))))
                .collect();
            asks.into_iter().map(|ask| ask.join().unwrap()).collect()
        });
        assert!(results
            .iter()
            .all(|&c| c == evaluate_clamped(&core, 20, Some(3))));
        // One point and one evaluation computed; the other three threads
        // hit both.
        assert_eq!(hits_and_misses(&cache), (6, 2));
    }
}
