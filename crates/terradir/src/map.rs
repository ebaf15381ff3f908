//! Node maps: bounded host lists with advertisement, merging, and pruning.
//!
//! A node map associates a node with "a (possibly incomplete and inaccurate)
//! list of servers that own or replicate the node" (paper §3.7). Maps are
//! soft state: they are bounded to `R_map` entries, merged opportunistically
//! when queries carry fresher copies, advertise the most recently created
//! replicas first, and are conservatively pruned against inverse-mapping
//! digests.
//!
//! Entries are kept in recency order — index 0 is the most recently
//! advertised host — so truncation to `R_map` preserves exactly the entries
//! the protocol wants to spread ("traffic in excess will quickly be diverted
//! to newly created replicas").

use rand::seq::SliceRandom;
use rand::Rng;

use terradir_namespace::ServerId;

/// A bounded, recency-ordered list of hosts for one node.
#[derive(Debug, PartialEq, Eq)]
pub struct NodeMap {
    entries: Vec<ServerId>,
}

impl Clone for NodeMap {
    fn clone(&self) -> NodeMap {
        NodeMap {
            entries: self.entries.clone(),
        }
    }

    /// Reuses the destination's buffer — the routing hot path writes
    /// pruned maps back with `clone_from` so steady-state forwarding does
    /// not reallocate (`cargo xtask analyze`'s hotpath pass polices this).
    fn clone_from(&mut self, source: &NodeMap) {
        self.entries.clone_from(&source.entries);
    }
}

impl NodeMap {
    /// A map with a single entry (typically the node's owner).
    pub fn singleton(host: ServerId) -> NodeMap {
        NodeMap {
            entries: vec![host],
        }
    }

    /// A map from explicit entries, most-recent first. Deduplicates while
    /// preserving first occurrences.
    pub fn from_entries<I: IntoIterator<Item = ServerId>>(hosts: I) -> NodeMap {
        let mut m = NodeMap {
            entries: Vec::new(),
        };
        for h in hosts {
            if !m.entries.contains(&h) {
                m.entries.push(h);
            }
        }
        m
    }

    /// The entries, most recently advertised first.
    #[inline]
    pub fn entries(&self) -> &[ServerId] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries (only possible transiently — the
    /// protocol never stores an empty map).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the map lists the given host.
    pub fn contains(&self, host: ServerId) -> bool {
        self.entries.contains(&host)
    }

    /// Advertises a newly created replica: the host moves to the front
    /// (most recent) and the map is truncated to `r_map`.
    pub fn advertise(&mut self, host: ServerId, r_map: usize) {
        self.entries.retain(|&h| h != host);
        self.entries.insert(0, host);
        self.entries.truncate(r_map.max(1));
    }

    /// Removes a host (e.g. one proven stale); never removes the last entry
    /// unless `allow_empty` — the routing layer must always have somewhere
    /// to forward. Returns whether the host was actually removed, so
    /// eviction paths (negative caching, `Misroute` repair) can account
    /// for the entries they drop.
    pub fn remove(&mut self, host: ServerId, allow_empty: bool) -> bool {
        if !allow_empty && self.entries.len() == 1 {
            return false;
        }
        let before = self.entries.len();
        self.entries.retain(|&h| h != host);
        self.entries.len() != before
    }

    /// Merges `self` with `other` per the paper's map-merging policy:
    /// the most recent entry of each side is always kept (preserving fresh
    /// replica advertisements from both), and "the rest of the entries in
    /// the resulting map are chosen at random from the choice left",
    /// bounded by `r_map`.
    #[must_use]
    pub fn merge<R: Rng + ?Sized>(&self, other: &NodeMap, r_map: usize, rng: &mut R) -> NodeMap {
        let r_map = r_map.max(1);
        let mut result: Vec<ServerId> = Vec::with_capacity(r_map);
        // Mandatory heads: the freshest advertisement on each side.
        for head in [self.entries.first(), other.entries.first()]
            .into_iter()
            .flatten()
        {
            if !result.contains(head) && result.len() < r_map {
                result.push(*head);
            }
        }
        // Remaining pool: everything else, shuffled.
        let mut pool: Vec<ServerId> = self
            .entries
            .iter()
            .chain(other.entries.iter())
            .copied()
            .filter(|h| !result.contains(h))
            .collect();
        pool.dedup_by(|a, b| a == b); // adjacent dupes only; full dedupe below
        pool.sort_unstable();
        pool.dedup();
        pool.shuffle(rng);
        for h in pool {
            if result.len() >= r_map {
                break;
            }
            result.push(h);
        }
        NodeMap { entries: result }
    }

    /// Picks a host at random (the paper's replica selection: "the
    /// destination host is chosen at random from the available choice"),
    /// excluding `exclude` when another choice exists.
    pub fn select<R: Rng + ?Sized>(
        &self,
        exclude: Option<ServerId>,
        rng: &mut R,
    ) -> Option<ServerId> {
        match exclude {
            Some(x) => self.select_avoiding(&[x], rng),
            None => self.select_avoiding(&[], rng),
        }
    }

    /// Random selection that *prefers* hosts not in `avoid` (e.g. servers a
    /// query recently visited — cheap loop damping under stale state), but
    /// falls back to the full entry list when every host is in `avoid`.
    pub fn select_avoiding<R: Rng + ?Sized>(
        &self,
        avoid: &[ServerId],
        rng: &mut R,
    ) -> Option<ServerId> {
        let candidates: Vec<ServerId> = self
            .entries
            .iter()
            .copied()
            .filter(|h| !avoid.contains(h))
            .collect();
        if candidates.is_empty() {
            return self.entries.choose(rng).copied();
        }
        candidates.choose(rng).copied()
    }

    /// Conservatively prunes entries for which `is_stale` is *certain*
    /// (digest test failed — no false negatives means the host definitely
    /// does not host the node). Never prunes the map to empty: the least
    /// recently advertised surviving entry is kept as a routing fallback.
    pub fn filter_stale<F: FnMut(ServerId) -> bool>(&mut self, mut is_stale: F) {
        let Some(&keep_fallback) = self.entries.last() else {
            return;
        };
        if self.entries.len() == 1 {
            return;
        }
        self.entries.retain(|&h| !is_stale(h));
        if self.entries.is_empty() {
            self.entries.push(keep_fallback);
        }
    }

    /// Truncates to at most `r_map` entries (dropping the oldest).
    pub fn truncate(&mut self, r_map: usize) {
        self.entries.truncate(r_map.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    #[test]
    fn singleton_and_contains() {
        let m = NodeMap::singleton(s(3));
        assert_eq!(m.len(), 1);
        assert!(m.contains(s(3)));
        assert!(!m.contains(s(4)));
    }

    #[test]
    fn from_entries_dedupes_preserving_order() {
        let m = NodeMap::from_entries([s(1), s(2), s(1), s(3)]);
        assert_eq!(m.entries(), &[s(1), s(2), s(3)]);
    }

    #[test]
    fn advertise_moves_to_front_and_bounds() {
        let mut m = NodeMap::from_entries([s(1), s(2), s(3)]);
        m.advertise(s(4), 3);
        assert_eq!(m.entries(), &[s(4), s(1), s(2)]);
        // Re-advertising an existing host promotes it without duplication.
        m.advertise(s(2), 3);
        assert_eq!(m.entries(), &[s(2), s(4), s(1)]);
    }

    #[test]
    fn merge_respects_bound_and_keeps_heads() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = NodeMap::from_entries([s(1), s(2), s(3)]);
        let b = NodeMap::from_entries([s(9), s(4), s(5)]);
        let m = a.merge(&b, 4, &mut rng);
        assert!(m.len() <= 4);
        assert!(m.contains(s(1)), "own head kept");
        assert!(m.contains(s(9)), "incoming head kept");
    }

    #[test]
    fn merge_is_random_in_the_tail() {
        let a = NodeMap::from_entries([s(1), s(2), s(3), s(4)]);
        let b = NodeMap::from_entries([s(10), s(20), s(30), s(40)]);
        let mut seen = crate::det::DetHashSet::default();
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = a.merge(&b, 4, &mut rng);
            seen.insert(m.entries().to_vec());
        }
        assert!(seen.len() > 1, "tail selection should vary with the rng");
    }

    #[test]
    fn merge_of_identical_maps_is_stable() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = NodeMap::from_entries([s(1), s(2)]);
        let m = a.merge(&a, 5, &mut rng);
        assert_eq!(m.len(), 2);
        assert!(m.contains(s(1)) && m.contains(s(2)));
    }

    #[test]
    fn select_excludes_self_when_possible() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = NodeMap::from_entries([s(1), s(2)]);
        for _ in 0..16 {
            assert_eq!(m.select(Some(s(1)), &mut rng), Some(s(2)));
        }
        // Sole entry: exclusion is impossible, return it anyway.
        let m = NodeMap::singleton(s(1));
        assert_eq!(m.select(Some(s(1)), &mut rng), Some(s(1)));
    }

    #[test]
    fn filter_stale_is_conservative() {
        let mut m = NodeMap::from_entries([s(1), s(2), s(3)]);
        m.filter_stale(|h| h == s(2));
        assert_eq!(m.entries(), &[s(1), s(3)]);
        // Filtering everything keeps a fallback.
        let mut m = NodeMap::from_entries([s(1), s(2)]);
        m.filter_stale(|_| true);
        assert_eq!(m.len(), 1);
        // Single-entry maps are never filtered.
        let mut m = NodeMap::singleton(s(7));
        m.filter_stale(|_| true);
        assert_eq!(m.entries(), &[s(7)]);
    }

    #[test]
    fn remove_guards_last_entry() {
        let mut m = NodeMap::from_entries([s(1)]);
        assert!(!m.remove(s(1), false));
        assert_eq!(m.len(), 1);
        assert!(m.remove(s(1), true));
        assert!(m.is_empty());
    }

    #[test]
    fn remove_reports_whether_an_entry_was_dropped() {
        let mut m = NodeMap::from_entries([s(1), s(2)]);
        assert!(!m.remove(s(9), false), "absent host removes nothing");
        assert!(m.remove(s(2), false));
        assert_eq!(m.entries(), &[s(1)]);
    }
}
