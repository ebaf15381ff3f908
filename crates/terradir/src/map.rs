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

/// The most hosts a map can hold: the array bound behind `r_map`
/// (`Config::validate` rejects a larger `r_map`).
pub const NODE_MAP_CAP: usize = 8;

/// A bounded, recency-ordered list of hosts for one node, stored inline
/// so copying, merging and scanning a map neither allocates nor chases a
/// pointer. Slots at and past `len` are unused.
#[derive(Clone, Copy)]
pub struct NodeMap {
    hosts: [ServerId; NODE_MAP_CAP],
    len: u8,
}

impl PartialEq for NodeMap {
    fn eq(&self, other: &NodeMap) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for NodeMap {}

impl std::fmt::Debug for NodeMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMap")
            .field("entries", &self.entries())
            .finish()
    }
}

impl NodeMap {
    const EMPTY: NodeMap = NodeMap {
        hosts: [ServerId(0); NODE_MAP_CAP],
        len: 0,
    };

    /// A map with a single entry (typically the node's owner).
    pub fn singleton(host: ServerId) -> NodeMap {
        let mut m = NodeMap::EMPTY;
        m.push(host);
        m
    }

    /// A map from explicit entries, most-recent first. Deduplicates while
    /// preserving first occurrences, and keeps the first [`NODE_MAP_CAP`]
    /// distinct hosts.
    pub fn from_entries<I: IntoIterator<Item = ServerId>>(hosts: I) -> NodeMap {
        let mut m = NodeMap::EMPTY;
        for h in hosts {
            if !m.contains(h) {
                debug_assert!(m.len() < NODE_MAP_CAP, "more than NODE_MAP_CAP hosts");
                m.push(h);
            }
        }
        m
    }

    /// Appends a host if a slot is free (callers keep entries distinct).
    #[inline]
    fn push(&mut self, host: ServerId) {
        if let Some(slot) = self.hosts.get_mut(usize::from(self.len)) {
            *slot = host;
            self.len += 1;
        }
    }

    /// Keeps the entries for which `keep` holds, in order, calling it
    /// once per entry front to back.
    fn retain<F: FnMut(ServerId) -> bool>(&mut self, mut keep: F) {
        let old = *self;
        self.len = 0;
        for &h in old.entries() {
            if keep(h) {
                self.push(h);
            }
        }
    }

    /// The entries, most recently advertised first.
    #[inline]
    pub fn entries(&self) -> &[ServerId] {
        self.hosts.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the map has no entries (only possible transiently — the
    /// protocol never stores an empty map).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the map lists the given host.
    #[inline]
    pub fn contains(&self, host: ServerId) -> bool {
        self.entries().contains(&host)
    }

    /// Advertises a newly created replica: the host moves to the front
    /// (most recent) and the map is truncated to `r_map`.
    pub fn advertise(&mut self, host: ServerId, r_map: usize) {
        let n = self.len();
        let at = self.entries().iter().position(|&h| h == host);
        // Shift the entries ahead of the host's old slot (all of them if
        // it is new; the last one falls off a full array) right by one.
        let end = at.unwrap_or(n).min(NODE_MAP_CAP - 1);
        self.hosts.copy_within(..end, 1);
        self.hosts[0] = host;
        let grown = if at.is_some() { n } else { n + 1 };
        self.len = grown.min(r_map.clamp(1, NODE_MAP_CAP)) as u8;
    }

    /// Removes a host (e.g. one proven stale); never removes the last entry
    /// unless `allow_empty` — the routing layer must always have somewhere
    /// to forward. Returns whether the host was actually removed, so
    /// eviction paths (negative caching, `Misroute` repair) can account
    /// for the entries they drop.
    pub fn remove(&mut self, host: ServerId, allow_empty: bool) -> bool {
        if !allow_empty && self.len == 1 {
            return false;
        }
        let before = self.len;
        self.retain(|h| h != host);
        self.len != before
    }

    /// Merges `self` with `other` per the paper's map-merging policy:
    /// the most recent entry of each side is always kept (preserving fresh
    /// replica advertisements from both), and "the rest of the entries in
    /// the resulting map are chosen at random from the choice left",
    /// bounded by `r_map`.
    #[must_use]
    pub fn merge<R: Rng + ?Sized>(&self, other: &NodeMap, r_map: usize, rng: &mut R) -> NodeMap {
        let r_map = r_map.clamp(1, NODE_MAP_CAP);
        let mut result = NodeMap::EMPTY;
        // Mandatory heads: the freshest advertisement on each side.
        for head in [self.entries().first(), other.entries().first()]
            .into_iter()
            .flatten()
        {
            if !result.contains(*head) && result.len() < r_map {
                result.push(*head);
            }
        }
        // Remaining pool: every other host of either side once, sorted,
        // then shuffled (the draws depend only on the pool's length).
        let mut pool = [ServerId(0); 2 * NODE_MAP_CAP];
        let mut k = 0;
        let rest = self.entries().iter().chain(other.entries());
        for &h in rest.filter(|&&h| !result.contains(h)) {
            let seen = pool.get(..k).unwrap_or(&[]);
            if !seen.contains(&h) {
                if let Some(slot) = pool.get_mut(k) {
                    *slot = h;
                    k += 1;
                }
            }
        }
        let pool = pool.get_mut(..k).unwrap_or(&mut []);
        pool.sort_unstable();
        pool.shuffle(rng);
        for &h in pool.iter() {
            if result.len() >= r_map {
                break;
            }
            result.push(h);
        }
        result
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
        let mut candidates = *self;
        candidates.retain(|h| !avoid.contains(&h));
        if candidates.is_empty() {
            return self.entries().choose(rng).copied();
        }
        candidates.entries().choose(rng).copied()
    }

    /// Conservatively prunes entries for which `is_stale` is *certain*
    /// (digest test failed — no false negatives means the host definitely
    /// does not host the node). Never prunes the map to empty: the least
    /// recently advertised surviving entry is kept as a routing fallback.
    pub fn filter_stale<F: FnMut(ServerId) -> bool>(&mut self, mut is_stale: F) {
        let Some(&keep_fallback) = self.entries().last() else {
            return;
        };
        if self.len == 1 {
            return;
        }
        self.retain(|h| !is_stale(h));
        if self.is_empty() {
            self.push(keep_fallback);
        }
    }

    /// Truncates to at most `r_map` entries (dropping the oldest).
    pub fn truncate(&mut self, r_map: usize) {
        self.len = self.len.min(r_map.clamp(1, NODE_MAP_CAP) as u8);
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

    /// The heap-backed map the inline one replaced, kept as the reference
    /// its operations, results and RNG draws must match.
    #[derive(Debug, Clone, PartialEq)]
    struct VecMap {
        entries: Vec<ServerId>,
    }

    impl VecMap {
        fn from_entries<I: IntoIterator<Item = ServerId>>(hosts: I) -> VecMap {
            let mut m = VecMap {
                entries: Vec::new(),
            };
            for h in hosts {
                if !m.entries.contains(&h) {
                    m.entries.push(h);
                }
            }
            m
        }

        fn advertise(&mut self, host: ServerId, r_map: usize) {
            self.entries.retain(|&h| h != host);
            self.entries.insert(0, host);
            self.entries.truncate(r_map.max(1));
        }

        fn remove(&mut self, host: ServerId, allow_empty: bool) -> bool {
            if !allow_empty && self.entries.len() == 1 {
                return false;
            }
            let before = self.entries.len();
            self.entries.retain(|&h| h != host);
            self.entries.len() != before
        }

        fn merge<R: Rng + ?Sized>(&self, other: &VecMap, r_map: usize, rng: &mut R) -> VecMap {
            let r_map = r_map.max(1);
            let mut result: Vec<ServerId> = Vec::with_capacity(r_map);
            for head in [self.entries.first(), other.entries.first()]
                .into_iter()
                .flatten()
            {
                if !result.contains(head) && result.len() < r_map {
                    result.push(*head);
                }
            }
            let mut pool: Vec<ServerId> = self
                .entries
                .iter()
                .chain(other.entries.iter())
                .copied()
                .filter(|h| !result.contains(h))
                .collect();
            pool.dedup_by(|a, b| a == b);
            pool.sort_unstable();
            pool.dedup();
            pool.shuffle(rng);
            for h in pool {
                if result.len() >= r_map {
                    break;
                }
                result.push(h);
            }
            VecMap { entries: result }
        }

        fn select_avoiding<R: Rng + ?Sized>(
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

        fn filter_stale<F: FnMut(ServerId) -> bool>(&mut self, mut is_stale: F) {
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

        fn truncate(&mut self, r_map: usize) {
            self.entries.truncate(r_map.max(1));
        }
    }

    /// Up to `NODE_MAP_CAP` hosts from a small id range, so maps overlap.
    fn random_hosts(rng: &mut StdRng) -> Vec<ServerId> {
        let n = rng.gen_range(0..=NODE_MAP_CAP);
        (0..n).map(|_| s(rng.gen_range(0..12))).collect()
    }

    /// Random operation sequences leave both maps with the same entries,
    /// return the same values, and draw the same randomness: the RNGs
    /// are cloned before each randomized call and compared after.
    #[test]
    fn inline_map_matches_the_vec_reference() {
        let mut ops = StdRng::seed_from_u64(26);
        for _ in 0..300 {
            let hosts = random_hosts(&mut ops);
            let mut new = NodeMap::from_entries(hosts.iter().copied());
            let mut old = VecMap::from_entries(hosts);
            for step in 0..40 {
                let host = s(ops.gen_range(0..12));
                let r_map = ops.gen_range(1..=NODE_MAP_CAP);
                let mut rng_new = StdRng::seed_from_u64(ops.gen());
                let mut rng_old = rng_new.clone();
                match ops.gen_range(0..7) {
                    0 => {
                        new.advertise(host, r_map);
                        old.advertise(host, r_map);
                    }
                    1 => {
                        let allow_empty = ops.gen();
                        assert_eq!(new.remove(host, allow_empty), old.remove(host, allow_empty));
                    }
                    2 => {
                        let other = random_hosts(&mut ops);
                        new = new.merge(
                            &NodeMap::from_entries(other.iter().copied()),
                            r_map,
                            &mut rng_new,
                        );
                        old = old.merge(&VecMap::from_entries(other), r_map, &mut rng_old);
                    }
                    3 => {
                        let avoid = random_hosts(&mut ops);
                        assert_eq!(
                            new.select_avoiding(&avoid, &mut rng_new),
                            old.select_avoiding(&avoid, &mut rng_old)
                        );
                    }
                    4 => {
                        let exclude = ops.gen::<bool>().then_some(host);
                        let avoid: Vec<ServerId> = exclude.into_iter().collect();
                        assert_eq!(
                            new.select(exclude, &mut rng_new),
                            old.select_avoiding(&avoid, &mut rng_old)
                        );
                    }
                    5 => {
                        let mask: u32 = ops.gen();
                        let (mut seen_new, mut seen_old) = (Vec::new(), Vec::new());
                        new.filter_stale(|h| {
                            seen_new.push(h);
                            mask & (1 << h.0) != 0
                        });
                        old.filter_stale(|h| {
                            seen_old.push(h);
                            mask & (1 << h.0) != 0
                        });
                        assert_eq!(seen_new, seen_old, "filter_stale asks in the same order");
                    }
                    _ => {
                        new.truncate(r_map);
                        old.truncate(r_map);
                    }
                }
                assert_eq!(new.entries(), &old.entries[..], "step {step}");
                assert_eq!(new.len(), old.entries.len());
                assert_eq!(
                    format!("{rng_new:?}"),
                    format!("{rng_old:?}"),
                    "draws differ at step {step}"
                );
            }
        }
    }

    #[test]
    fn copies_are_independent_and_compare_by_entries() {
        let a = NodeMap::from_entries([s(1), s(2), s(3)]);
        let mut b = a;
        b.remove(s(3), false);
        assert_eq!(a.entries(), &[s(1), s(2), s(3)]);
        // Slots past `len` hold stale hosts; equality ignores them.
        assert_eq!(b, NodeMap::from_entries([s(1), s(2)]));
        assert_eq!(
            format!("{b:?}"),
            "NodeMap { entries: [ServerId(1), ServerId(2)] }"
        );
    }

    #[test]
    fn from_entries_keeps_at_most_the_array() {
        let m = NodeMap::from_entries((0..NODE_MAP_CAP as u32).map(s));
        assert_eq!(m.len(), NODE_MAP_CAP);
        let mut full = m;
        full.advertise(s(99), NODE_MAP_CAP);
        assert_eq!(full.entries()[0], s(99));
        assert_eq!(full.len(), NODE_MAP_CAP, "the oldest host falls off");
        assert!(!full.contains(s(NODE_MAP_CAP as u32 - 1)));
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
