//! LRU route caches with path propagation.
//!
//! "A cache entry for a node consists solely of some mapping for that node"
//! (paper §2.4): caches are pointers into the namespace with no routing
//! context, replaced LRU, touched whenever used in routing. Path propagation
//! — caching the path-so-far at every step — is implemented by the routing
//! layer feeding [`RouteCache::insert`] with every `(node, map)` pair a
//! query carries.

use terradir_namespace::NodeId;

use crate::map::NodeMap;

/// A bounded LRU cache of `node → map` pointers.
///
/// Flat and scanned linearly: slot counts are small (≤ 28 in the paper),
/// so a scan of the node ids — packed apart from the entries, a few
/// cache lines — beats hashing, and a [`NodeMap`] sits inline in its
/// entry. `nodes[i]` keys `entries[i]`. Removal preserves order, so
/// iteration goes in insertion order; LRU stamps are unique, so the
/// victim does not depend on that order.
#[derive(Debug, Clone)]
pub struct RouteCache {
    slots: usize,
    nodes: Vec<NodeId>,
    entries: Vec<CacheEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    map: NodeMap,
    last_used: u64,
    /// Soft-state lease stamp in *simulation* time (the LRU clock above
    /// is a logical counter and cannot express a wall-clock ttl).
    lease_at: f64,
}

impl RouteCache {
    /// A cache with the given number of slots. Zero slots disables caching
    /// (every insert is a no-op).
    pub fn new(slots: usize) -> RouteCache {
        RouteCache {
            slots,
            nodes: Vec::with_capacity(slots),
            entries: Vec::with_capacity(slots),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The slot holding `node`, if cached.
    #[inline]
    fn slot(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// The entry for `node`, if cached, mutably.
    #[inline]
    fn entry_mut(&mut self, node: NodeId) -> Option<&mut CacheEntry> {
        self.slot(node).and_then(|i| self.entries.get_mut(i))
    }

    /// Drops the entry in slot `i`, keeping the others in order.
    fn remove_slot(&mut self, i: usize) {
        self.nodes.remove(i);
        self.entries.remove(i);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Capacity in slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Looks up a node, touching the entry (LRU update) on hit.
    pub fn get(&mut self, node: NodeId) -> Option<&NodeMap> {
        self.clock += 1;
        let clock = self.clock;
        let found = self.slot(node).and_then(|i| self.entries.get_mut(i));
        if let Some(e) = found {
            e.last_used = clock;
            self.hits += 1;
            Some(&e.map)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Looks up without touching (no LRU update, no hit/miss accounting);
    /// used when scanning candidates rather than committing to a route.
    pub fn peek(&self, node: NodeId) -> Option<&NodeMap> {
        self.slot(node)
            .and_then(|i| self.entries.get(i))
            .map(|e| &e.map)
    }

    /// Iterates over cached `(node, map)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeMap)> {
        self.nodes
            .iter()
            .copied()
            .zip(self.entries.iter().map(|e| &e.map))
    }

    /// The cached nodes, in insertion order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Inserts or refreshes an entry, evicting the least recently used
    /// entry if at capacity. Refreshing an existing node replaces its map,
    /// touches it, and renews its lease to `now`.
    pub fn insert(&mut self, node: NodeId, map: NodeMap, now: f64) {
        if self.slots == 0 || map.is_empty() {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entry_mut(node) {
            e.map = map;
            e.last_used = clock;
            if now > e.lease_at {
                e.lease_at = now;
            }
            return;
        }
        if self.nodes.len() >= self.slots {
            if let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.remove_slot(victim);
                self.evictions += 1;
            }
        }
        self.nodes.push(node);
        self.entries.push(CacheEntry {
            map,
            last_used: clock,
            lease_at: now,
        });
    }

    /// Renews an entry's lease to `now` (refresh-on-use; DESIGN.md §14).
    /// No LRU touch and no hit/miss accounting, so lease bookkeeping
    /// cannot perturb eviction order.
    pub fn refresh_lease(&mut self, node: NodeId, now: f64) {
        if let Some(e) = self.entry_mut(node) {
            if now > e.lease_at {
                e.lease_at = now;
            }
        }
    }

    /// The lease stamp of a cached entry, if present.
    pub fn lease_of(&self, node: NodeId) -> Option<f64> {
        self.slot(node)
            .and_then(|i| self.entries.get(i))
            .map(|e| e.lease_at)
    }

    /// Evicts every entry whose lease went stale more than `ttl` seconds
    /// ago; returns how many it evicted.
    pub fn sweep_expired(&mut self, now: f64, ttl: f64) -> usize {
        let (mut i, mut swept) = (0, 0);
        while let Some(e) = self.entries.get(i) {
            if now - e.lease_at > ttl {
                self.remove_slot(i);
                swept += 1;
            } else {
                i += 1;
            }
        }
        self.evictions += swept as u64;
        swept
    }

    /// Merges a map into an existing entry's map via the paper's map-merge
    /// (delegated to the caller); here we only expose mutable access.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut NodeMap> {
        self.clock += 1;
        let clock = self.clock;
        self.entry_mut(node).map(|e| {
            e.last_used = clock;
            &mut e.map
        })
    }

    /// Drops an entry (e.g. its map went permanently stale).
    pub fn remove(&mut self, node: NodeId) {
        if let Some(i) = self.slot(node) {
            self.remove_slot(i);
        }
    }

    /// Lifetime counters `(hits, misses, evictions)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::DetHashMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use terradir_namespace::ServerId;

    fn m(i: u32) -> NodeMap {
        NodeMap::singleton(ServerId(i))
    }

    /// The hash-backed cache the flat one replaced, kept as the reference
    /// whose hits, misses, evictions and victims it must match.
    struct HashCache {
        slots: usize,
        entries: DetHashMap<NodeId, CacheEntry>,
        clock: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl HashCache {
        fn new(slots: usize) -> HashCache {
            HashCache {
                slots,
                entries: crate::det::det_map_with_capacity(slots),
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get(&mut self, node: NodeId) -> Option<&NodeMap> {
            self.clock += 1;
            let clock = self.clock;
            if let Some(e) = self.entries.get_mut(&node) {
                e.last_used = clock;
                self.hits += 1;
                Some(&e.map)
            } else {
                self.misses += 1;
                None
            }
        }

        fn insert(&mut self, node: NodeId, map: NodeMap, now: f64) {
            if self.slots == 0 || map.is_empty() {
                return;
            }
            self.clock += 1;
            let clock = self.clock;
            if let Some(e) = self.entries.get_mut(&node) {
                e.map = map;
                e.last_used = clock;
                if now > e.lease_at {
                    e.lease_at = now;
                }
                return;
            }
            if self.entries.len() >= self.slots {
                if let Some(victim) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&n, _)| n)
                {
                    self.entries.remove(&victim);
                    self.evictions += 1;
                }
            }
            self.entries.insert(
                node,
                CacheEntry {
                    map,
                    last_used: clock,
                    lease_at: now,
                },
            );
        }

        fn refresh_lease(&mut self, node: NodeId, now: f64) {
            if let Some(e) = self.entries.get_mut(&node) {
                if now > e.lease_at {
                    e.lease_at = now;
                }
            }
        }

        fn sweep_expired(&mut self, now: f64, ttl: f64) -> usize {
            let victims: Vec<NodeId> = self
                .entries
                .iter()
                .filter(|(_, e)| now - e.lease_at > ttl)
                .map(|(&n, _)| n)
                .collect();
            for n in &victims {
                self.entries.remove(n);
                self.evictions += 1;
            }
            victims.len()
        }

        fn get_mut(&mut self, node: NodeId) -> Option<&mut NodeMap> {
            self.clock += 1;
            let clock = self.clock;
            self.entries.get_mut(&node).map(|e| {
                e.last_used = clock;
                &mut e.map
            })
        }

        /// Entries as sorted `(node, map, last_used, lease_at)` rows.
        fn rows(&self) -> Vec<(NodeId, NodeMap, u64, f64)> {
            let mut v: Vec<_> = self
                .entries
                .iter()
                .map(|(&n, e)| (n, e.map, e.last_used, e.lease_at))
                .collect();
            v.sort_by_key(|r| r.0);
            v
        }
    }

    fn rows(c: &RouteCache) -> Vec<(NodeId, NodeMap, u64, f64)> {
        assert_eq!(c.nodes.len(), c.entries.len());
        let mut v: Vec<_> = c
            .nodes
            .iter()
            .zip(&c.entries)
            .map(|(&n, e)| (n, e.map, e.last_used, e.lease_at))
            .collect();
        v.sort_by_key(|r| r.0);
        v
    }

    /// Random operation sequences over slot counts up to 48 give the same
    /// lookups, the same counters and the same entries (so the same LRU
    /// victims and lease sweeps) as the hash-backed reference.
    #[test]
    fn flat_cache_matches_the_hash_reference() {
        let mut ops = StdRng::seed_from_u64(26);
        let mut evictions = 0;
        for _ in 0..60 {
            let slots = ops.gen_range(0..=48);
            let (mut new, mut old) = (RouteCache::new(slots), HashCache::new(slots));
            let mut now = 0.0;
            for step in 0..600 {
                let node = NodeId(ops.gen_range(0..64));
                let host = ServerId(ops.gen_range(0..8));
                now += ops.gen_range(0.0..0.5);
                match ops.gen_range(0..8) {
                    0..=2 => {
                        new.insert(node, m(host.0), now);
                        old.insert(node, m(host.0), now);
                    }
                    3 => assert_eq!(new.get(node).copied(), old.get(node).copied()),
                    4 => {
                        let (a, b) = (new.get_mut(node), old.get_mut(node));
                        assert_eq!(a.is_some(), b.is_some());
                        if let (Some(a), Some(b)) = (a, b) {
                            a.advertise(host, 4);
                            b.advertise(host, 4);
                        }
                    }
                    5 => {
                        new.refresh_lease(node, now);
                        old.refresh_lease(node, now);
                    }
                    6 => {
                        let ttl = ops.gen_range(0.0..20.0);
                        assert_eq!(new.sweep_expired(now, ttl), old.sweep_expired(now, ttl));
                    }
                    _ => {
                        new.remove(node);
                        old.entries.remove(&node);
                    }
                }
                assert_eq!(
                    new.counters(),
                    (old.hits, old.misses, old.evictions),
                    "step {step}"
                );
                assert_eq!(rows(&new), old.rows(), "step {step}");
                assert_eq!(new.peek(node), old.entries.get(&node).map(|e| &e.map));
            }
            evictions += old.evictions;
        }
        assert!(evictions > 0, "the sequences must reach eviction");
    }

    #[test]
    fn insert_then_get() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), m(10), 0.0);
        assert_eq!(c.get(NodeId(1)).unwrap().entries()[0], ServerId(10));
        assert_eq!(c.get(NodeId(2)), None);
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        c.get(NodeId(1)); // touch 1 so 2 is the LRU
        c.insert(NodeId(3), m(3), 0.0);
        assert!(c.peek(NodeId(1)).is_some());
        assert!(c.peek(NodeId(2)).is_none(), "LRU entry should be evicted");
        assert!(c.peek(NodeId(3)).is_some());
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn refresh_replaces_map_without_eviction() {
        let mut c = RouteCache::new(1);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(1), m(9), 0.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(NodeId(1)).unwrap().entries()[0], ServerId(9));
        assert_eq!(c.counters().2, 0);
    }

    #[test]
    fn zero_slots_disables_caching() {
        let mut c = RouteCache::new(0);
        c.insert(NodeId(1), m(1), 0.0);
        assert!(c.is_empty());
        assert_eq!(c.get(NodeId(1)), None);
    }

    #[test]
    fn empty_maps_are_not_cached() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), NodeMap::from_entries([]), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_perturb_lru() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        c.peek(NodeId(1)); // must NOT touch
        c.insert(NodeId(3), m(3), 0.0);
        assert!(c.peek(NodeId(1)).is_none(), "peek must not refresh LRU");
    }

    #[test]
    fn lease_sweep_evicts_only_expired_entries() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 8.0);
        assert_eq!(c.lease_of(NodeId(1)), Some(0.0));
        assert_eq!(c.sweep_expired(10.0, 5.0), 1);
        assert!(c.peek(NodeId(1)).is_none());
        assert!(c.peek(NodeId(2)).is_some());
        // Refresh keeps an entry alive past its original expiry.
        c.refresh_lease(NodeId(2), 12.0);
        assert_eq!(c.sweep_expired(15.0, 5.0), 0);
        assert_eq!(c.lease_of(NodeId(2)), Some(12.0));
        // ttl = 0 sweeps anything not stamped at this exact instant.
        assert_eq!(c.sweep_expired(15.1, 0.0), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn lease_refresh_does_not_perturb_lru() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        c.refresh_lease(NodeId(1), 5.0); // must NOT touch LRU order
        c.insert(NodeId(3), m(3), 0.0);
        assert!(c.peek(NodeId(1)).is_none(), "1 was still the LRU victim");
        assert!(c.peek(NodeId(2)).is_some());
    }

    #[test]
    fn remove_drops_entry() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.remove(NodeId(1));
        assert!(c.is_empty());
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        let nodes: std::collections::BTreeSet<NodeId> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(nodes.len(), 2);
    }
}
