//! Property tests for the compile cache: key identity and LRU bounds.
//!
//! The cache trades compile time for memory, and the trade is only safe
//! if the key is *injective* — two requests that differ in anything
//! that changes the compiled artifact (or how it should run) must never
//! share an entry. These tests drive randomly drawn key pairs and
//! random access sequences through [`IrCache`] and pin:
//!
//! * distinct keys never alias: equality, the injective fingerprint and
//!   `Hash` all agree on what "the same program" means
//!   (the escaping in [`CacheKey::fingerprint`] is load-bearing — free
//!   -form fields may contain the delimiter);
//! * the LRU bound holds at every step, never just at the end: entries
//!   ≤ capacity, the accounting identity `misses = entries + evictions`
//!   holds, and the key just inserted always hits immediately after.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use msccl_service::{CacheKey, IrCache};
use msccl_topology::Protocol;
use mscclang::IrProgram;
use proptest::prelude::*;

/// Free-form field values, chosen to stress the fingerprint escaping:
/// delimiters, escapes, prefixes of each other, and values whose naive
/// (unescaped) renderings collide across field boundaries.
const NAMES: &[&str] = &[
    "ring-allreduce",
    "a",
    "a|b",
    "a\\|b",
    "a\\",
    "a\\\\",
    "",
    "r2",
    "a|r2",
];

const PROTOCOLS: &[Protocol] = &[Protocol::Simple, Protocol::Ll, Protocol::Ll128];

fn key_from(ix: (usize, usize, u32, usize, usize)) -> CacheKey {
    let (coll, ranks, class, topo, proto) = ix;
    CacheKey {
        collective: NAMES[coll % NAMES.len()].to_owned(),
        ranks: 1 + ranks % 8,
        size_class: class % 20,
        topology: NAMES[topo % NAMES.len()].to_owned(),
        protocol: PROTOCOLS[proto % PROTOCOLS.len()],
    }
}

fn key_strategy() -> impl Strategy<Value = CacheKey> {
    (
        0usize..NAMES.len(),
        0usize..8,
        0u32..20,
        0usize..NAMES.len(),
        0usize..PROTOCOLS.len(),
    )
        .prop_map(key_from)
}

fn hash_of(k: &CacheKey) -> u64 {
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// One compiled program, cloned per insert — the cache's bookkeeping is
/// under test here, not the compiler.
fn tiny_ir() -> IrProgram {
    let p = msccl_algos::ring_all_reduce(2, 1).expect("2-rank ring builds");
    mscclang::compile(&p, &mscclang::CompileOptions::default()).expect("tiny ring compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Equality, fingerprint and hash agree: distinct keys never render
    /// or hash as the same program, equal keys always do.
    #[test]
    fn distinct_keys_never_alias(a in key_strategy(), b in key_strategy()) {
        if a == b {
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        } else {
            prop_assert!(a.fingerprint() != b.fingerprint(),
                "distinct keys {:?} and {:?} share a fingerprint", a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random access sequences: the resident-entry bound holds after
    /// every single access, the hit/miss/eviction accounting identity
    /// holds, and an entry is always resident immediately after use.
    #[test]
    fn lru_respects_capacity_at_every_step(
        capacity in 1usize..6,
        accesses in proptest::collection::vec(
            (0usize..NAMES.len(), 0usize..4, 0u32..6, 0usize..2, 0usize..PROTOCOLS.len()),
            1..80,
        ),
    ) {
        let ir = tiny_ir();
        let mut cache = IrCache::new(capacity);
        for ix in &accesses {
            let key = key_from(*ix);
            if cache.lookup(&key).is_none() {
                cache.insert(key.clone(), ir.clone(), Duration::ZERO);
            }
            let s = cache.stats();
            prop_assert!(s.entries <= capacity,
                "{} entries resident with capacity {capacity}", s.entries);
            prop_assert_eq!(s.entries, cache.len());
            // Every miss either grew the cache or evicted someone.
            prop_assert_eq!(s.misses, s.entries as u64 + s.evictions);
            // The just-used key is the most recent: it must hit now.
            prop_assert!(cache.lookup(&key).is_some(),
                "most-recently-used entry must be resident");
        }
        let s = cache.stats();
        // The follow-up probe after each access is a hit by construction.
        prop_assert_eq!(s.hits + s.misses, 2 * accesses.len() as u64);
    }
}
