//! LRU route caches with path propagation.
//!
//! "A cache entry for a node consists solely of some mapping for that node"
//! (paper §2.4): caches are pointers into the namespace with no routing
//! context, replaced LRU, touched whenever used in routing. Path propagation
//! — caching the path-so-far at every step — is implemented by the routing
//! layer feeding [`RouteCache::insert`] with every `(node, map)` pair a
//! query carries.

use crate::det::DetHashMap;

use terradir_namespace::NodeId;

use crate::map::NodeMap;

/// A bounded LRU cache of `node → map` pointers.
#[derive(Debug, Clone)]
pub struct RouteCache {
    slots: usize,
    entries: DetHashMap<NodeId, CacheEntry>,
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
            entries: crate::det::det_map_with_capacity(slots),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Looks up a node, touching the entry (LRU update) on hit.
    pub fn get(&mut self, node: NodeId) -> Option<&NodeMap> {
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

    /// Looks up without touching (no LRU update, no hit/miss accounting);
    /// used when scanning candidates rather than committing to a route.
    pub fn peek(&self, node: NodeId) -> Option<&NodeMap> {
        self.entries.get(&node).map(|e| &e.map)
    }

    /// Iterates over cached `(node, map)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeMap)> {
        self.entries.iter().map(|(&n, e)| (n, &e.map))
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
        if let Some(e) = self.entries.get_mut(&node) {
            e.map = map;
            e.last_used = clock;
            if now > e.lease_at {
                e.lease_at = now;
            }
            return;
        }
        if self.entries.len() >= self.slots {
            // O(slots) scan; slot counts are small (≤ ~28 in the paper).
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

    /// Renews an entry's lease to `now` (refresh-on-use; DESIGN.md §14).
    /// No LRU touch and no hit/miss accounting, so lease bookkeeping
    /// cannot perturb eviction order.
    pub fn refresh_lease(&mut self, node: NodeId, now: f64) {
        if let Some(e) = self.entries.get_mut(&node) {
            if now > e.lease_at {
                e.lease_at = now;
            }
        }
    }

    /// The lease stamp of a cached entry, if present.
    pub fn lease_of(&self, node: NodeId) -> Option<f64> {
        self.entries.get(&node).map(|e| e.lease_at)
    }

    /// Evicts every entry whose lease went stale more than `ttl` seconds
    /// ago; returns the evicted nodes (sorted, so callers account for
    /// them deterministically).
    pub fn sweep_expired(&mut self, now: f64, ttl: f64) -> Vec<NodeId> {
        let mut victims: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| now - e.lease_at > ttl)
            .map(|(&n, _)| n)
            .collect();
        victims.sort_unstable();
        for n in &victims {
            self.entries.remove(n);
            self.evictions += 1;
        }
        victims
    }

    /// Merges a map into an existing entry's map via the paper's map-merge
    /// (delegated to the caller); here we only expose mutable access.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut NodeMap> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&node).map(|e| {
            e.last_used = clock;
            &mut e.map
        })
    }

    /// Drops an entry (e.g. its map went permanently stale).
    pub fn remove(&mut self, node: NodeId) {
        self.entries.remove(&node);
    }

    /// Lifetime counters `(hits, misses, evictions)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terradir_namespace::ServerId;

    fn m(i: u32) -> NodeMap {
        NodeMap::singleton(ServerId(i))
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
        let victims = c.sweep_expired(10.0, 5.0);
        assert_eq!(victims, vec![NodeId(1)]);
        assert!(c.peek(NodeId(1)).is_none());
        assert!(c.peek(NodeId(2)).is_some());
        // Refresh keeps an entry alive past its original expiry.
        c.refresh_lease(NodeId(2), 12.0);
        assert!(c.sweep_expired(15.0, 5.0).is_empty());
        assert_eq!(c.lease_of(NodeId(2)), Some(12.0));
        // ttl = 0 sweeps anything not stamped at this exact instant.
        assert_eq!(c.sweep_expired(15.1, 0.0), vec![NodeId(2)]);
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
