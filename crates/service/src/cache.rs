//! The daemon's compile cache: MSCCL-IR keyed by everything that could
//! change the compiled artifact or how it should be run.
//!
//! GC3's compiled-program model (the paper's §4) is what makes caching
//! sound: a program is fully determined by its directives, so two
//! requests that agree on `(collective, ranks, size-class, topology,
//! protocol)` can share one compiled [`IrProgram`]. The
//! size *class* — the log2 bucket of the chunk element count — is part
//! of the key even though today's compiler emits identical IR across
//! sizes: size-dependent directive tuning (instance counts, aggregation
//! thresholds) keys on exactly this bucket, and a key that is too
//! coarse would silently serve a mistuned program later. Keys that are
//! too *fine* only cost cache entries; keys that alias cost
//! correctness, which is why [`CacheKey::fingerprint`] is injective and
//! property-tested.
//!
//! Eviction is least-recently-used over a monotonic access tick. The
//! map is small (tens of entries); the O(n) scan on eviction is noise
//! next to the compile it replaces.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Duration;

use msccl_topology::Protocol;
use mscclang::IrProgram;

/// Everything that identifies one compiled program in the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry name of the collective algorithm (`ring-allreduce`, …).
    pub collective: String,
    /// Total ranks the program is compiled for.
    pub ranks: usize,
    /// Log2 bucket of the chunk element count (see [`size_class`]).
    pub size_class: u32,
    /// Topology label the daemon serves (one daemon, one machine shape;
    /// the label keys dumps and future multi-topology deployments).
    pub topology: String,
    /// Protocol the program will run under.
    pub protocol: Protocol,
}

impl CacheKey {
    /// Injective one-line rendering of the key, used in `/stats` and in
    /// log lines. Free-form fields (collective, topology) are escaped
    /// (`\` → `\\`, `|` → `\|`) so no two distinct keys ever render the
    /// same — the property the cache proptests pin.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('|', "\\|");
        format!(
            "{}|r{}|c{}|{}|{}",
            esc(&self.collective),
            self.ranks,
            self.size_class,
            esc(&self.topology),
            self.protocol.as_str(),
        )
    }
}

/// Log2 size bucket of a chunk element count: the smallest `c` with
/// `chunk_elems <= 2^c`. Requests in the same bucket share a cache
/// entry.
#[must_use]
pub fn size_class(chunk_elems: usize) -> u32 {
    chunk_elems.max(1).next_power_of_two().trailing_zeros()
}

/// Cumulative cache counters, exported through `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Entries resident right now.
    pub entries: usize,
    /// Eviction threshold.
    pub capacity: usize,
    /// Nanoseconds spent compiling on misses.
    pub compile_ns: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot {
    ir: Arc<IrProgram>,
    last_used: u64,
}

/// A bounded LRU cache of compiled programs.
pub struct IrCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Slot>,
    hits: u64,
    misses: u64,
    evictions: u64,
    compile_ns: u64,
}

impl IrCache {
    /// A cache that holds at most `capacity` programs (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            compile_ns: 0,
        }
    }

    /// Entries resident right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
            compile_ns: self.compile_ns,
        }
    }

    /// Returns the cached program for `key` and refreshes its recency,
    /// counting a hit; on a miss returns `None` and counts the miss. A
    /// caller that misses compiles without holding the cache and then
    /// calls [`insert`](Self::insert); a compile that fails is still
    /// counted as a miss, so a failing key that is retried forever shows
    /// in the miss counter.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Arc<IrProgram>> {
        self.tick += 1;
        if let Some(slot) = self.map.get_mut(key) {
            slot.last_used = self.tick;
            self.hits += 1;
            return Some(Arc::clone(&slot.ir));
        }
        self.misses += 1;
        None
    }

    /// Inserts `ir`, compiled for `key` in `compile_time` after a missed
    /// [`lookup`](Self::lookup), evicting the least-recently-used entry
    /// when over capacity, and returns the resident program. When two
    /// callers missed the same key and compiled it at once, the first
    /// insert wins: the later one gets the resident program back and its
    /// own copy is dropped (its compile time still counts).
    pub fn insert(
        &mut self,
        key: CacheKey,
        ir: IrProgram,
        compile_time: Duration,
    ) -> Arc<IrProgram> {
        self.tick += 1;
        self.compile_ns += u64::try_from(compile_time.as_nanos()).unwrap_or(u64::MAX);
        let tick = self.tick;
        let slot = self.map.entry(key).or_insert_with(|| Slot {
            ir: Arc::new(ir),
            last_used: tick,
        });
        slot.last_used = tick;
        let ir = Arc::clone(&slot.ir);
        while self.map.len() > self.capacity {
            // O(n) min-scan; n is the cache capacity (tens).
            let coldest = self
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("map is over capacity, hence non-empty");
            self.map.remove(&coldest);
            self.evictions += 1;
        }
        ir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, ranks: usize, class: u32) -> CacheKey {
        CacheKey {
            collective: name.into(),
            ranks,
            size_class: class,
            topology: "local".into(),
            protocol: Protocol::Simple,
        }
    }

    fn tiny_ir() -> IrProgram {
        let p = msccl_algos::ring_all_reduce(2, 1).unwrap();
        mscclang::compile(&p, &mscclang::CompileOptions::default()).unwrap()
    }

    #[test]
    fn size_class_buckets_by_next_power_of_two() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 2);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(5), 3);
        assert_eq!(size_class(1 << 16), 16);
        assert_eq!(size_class(0), 0);
    }

    /// Looks `k` up and, on a miss, compiles and inserts it; true on a hit.
    fn access(cache: &mut IrCache, k: &CacheKey) -> bool {
        if cache.lookup(k).is_some() {
            return true;
        }
        cache.insert(k.clone(), tiny_ir(), Duration::ZERO);
        false
    }

    #[test]
    fn hit_on_second_lookup_miss_on_first() {
        let mut cache = IrCache::new(4);
        let k = key("ring-allreduce", 2, 6);
        assert!(cache.lookup(&k).is_none());
        let a = cache.insert(k.clone(), tiny_ir(), Duration::from_nanos(5));
        let b = cache.lookup(&k).expect("inserted key hits");
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.compile_ns), (1, 1, 1, 5));
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let mut cache = IrCache::new(2);
        let (k1, k2, k3) = (key("a", 2, 1), key("a", 2, 2), key("a", 2, 3));
        assert!(!access(&mut cache, &k1));
        assert!(!access(&mut cache, &k2));
        // Touch k1 so k2 is the coldest.
        assert!(access(&mut cache, &k1));
        assert!(!access(&mut cache, &k3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // k2 was evicted; k1 and k3 still hit.
        assert!(access(&mut cache, &k1));
        assert!(access(&mut cache, &k3));
        assert!(!access(&mut cache, &k2));
    }

    #[test]
    fn failed_build_leaves_cache_unchanged() {
        let mut cache = IrCache::new(2);
        let k = key("a", 2, 1);
        // A miss whose compile fails inserts nothing.
        assert!(cache.lookup(&k).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn raced_insert_keeps_the_first_program() {
        let mut cache = IrCache::new(2);
        let k = key("a", 2, 1);
        // Two callers miss the same key and both compile it.
        assert!(cache.lookup(&k).is_none());
        assert!(cache.lookup(&k).is_none());
        let first = cache.insert(k.clone(), tiny_ir(), Duration::from_nanos(3));
        let second = cache.insert(k.clone(), tiny_ir(), Duration::from_nanos(4));
        assert!(
            Arc::ptr_eq(&first, &second),
            "the raced duplicate is dropped"
        );
        assert!(Arc::ptr_eq(&first, &cache.lookup(&k).expect("resident")));
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.entries, s.evictions, s.compile_ns),
            (1, 2, 1, 0, 7)
        );
    }

    #[test]
    fn fingerprint_escapes_delimiters() {
        let a = key("a|b", 2, 1);
        let mut b = key("a", 2, 1);
        b.topology = "b|local".into();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
