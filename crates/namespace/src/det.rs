//! Deterministic hash containers.
//!
//! `std::collections::HashMap`'s default `RandomState` draws fresh SipHash
//! keys per map instance, so *iteration order* differs between two maps
//! with identical contents — even inside one process. Any protocol
//! decision that touches iteration order (replica-eviction sweeps,
//! message emission loops, f64 accumulation) then diverges between two
//! runs of the same seed, breaking the replay guarantee every chaos
//! scenario depends on (DESIGN.md §13).
//!
//! These aliases pin the hasher to `DefaultHasher::default()` — SipHash13
//! with fixed zero keys — making iteration order a pure function of the
//! map's insertion/removal history. Same seed, same history, same order,
//! same run. This is a simulator, not a network service: HashDoS
//! resistance is irrelevant here, replayability is everything.

use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;

/// Fixed-key build-hasher: every instance hashes identically.
pub type DetBuildHasher = BuildHasherDefault<DefaultHasher>;

/// `HashMap` with instance-independent iteration order.
#[allow(
    clippy::disallowed_types,
    reason = "the deterministic alias names the std type it replaces"
)]
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, DetBuildHasher>;

/// `HashSet` with instance-independent iteration order.
#[allow(
    clippy::disallowed_types,
    reason = "the deterministic alias names the std type it replaces"
)]
pub type DetHashSet<T> = std::collections::HashSet<T, DetBuildHasher>;

/// A `DetHashMap` with reserved capacity.
pub fn det_map_with_capacity<K, V>(capacity: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(capacity, DetBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_instances_iterate_identically() {
        let build = |n: u64| {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..n {
                m.insert(i * 7919, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(512), build(512));
    }
}
