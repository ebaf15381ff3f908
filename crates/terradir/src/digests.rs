//! Inverse-mapping digest store and generation.
//!
//! Maps resolve *node → hosts*; digests approximate the inverse function
//! *server → hosted nodes* (paper §3.6). Every server builds a Bloom filter
//! over the names it hosts and piggybacks it in-band; peers keep the
//! freshest digest per server in a bounded LRU store and use them for
//! shortcut discovery and conservative map pruning.

use crate::det::DetHashMap;

use terradir_bloom::{BloomParams, Digest, DigestBuilder};
use terradir_namespace::{Namespace, NodeId, ServerId};

/// Builds a server's digest over its currently hosted node ids.
///
/// Filter capacity tracks the hosted count (with headroom for growth up to
/// the replica cap) so the false-positive rate stays near `fpr`. The seed
/// is derived from the server id so different servers' digests are
/// independent hash families.
pub fn build_digest<'a, I>(
    ns: &Namespace,
    server: ServerId,
    hosted: I,
    capacity: usize,
    fpr: f64,
    generation: u64,
) -> Digest
where
    I: IntoIterator<Item = &'a NodeId>,
{
    let params = BloomParams::for_capacity(capacity.max(8), fpr, 0x7e55_a5ed ^ server.0 as u64);
    let mut b = DigestBuilder::new(params);
    for &n in hosted {
        b.add(ns.name(n).as_str());
    }
    b.seal(generation)
}

/// A bounded LRU store of the freshest digest seen per remote server.
#[derive(Debug, Clone)]
pub struct DigestStore {
    slots: usize,
    entries: DetHashMap<ServerId, StoredDigest>,
    clock: u64,
    /// Negative results: `(server, node) → digest generation` pairs proven
    /// wrong in the field (a `NotHosting` correction came back). A Bloom
    /// false positive is *deterministic* for a given digest, so without
    /// this memory the same wrong shortcut would be taken on every query
    /// for that name. Denials expire when a fresher digest arrives.
    denied: DetHashMap<(ServerId, terradir_namespace::NodeId), u64>,
}

#[derive(Debug, Clone)]
struct StoredDigest {
    digest: Digest,
    touched: u64,
}

impl DigestStore {
    /// A store retaining at most `slots` digests.
    pub fn new(slots: usize) -> DigestStore {
        DigestStore {
            slots,
            entries: DetHashMap::default(),
            clock: 0,
            denied: DetHashMap::default(),
        }
    }

    /// Records that `server`'s *current* digest wrongly claims `node`.
    pub fn deny(&mut self, server: ServerId, node: terradir_namespace::NodeId) {
        let Some(e) = self.entries.get(&server) else {
            return;
        };
        if self.denied.len() >= 4 * self.slots.max(1) {
            self.denied.clear(); // cheap bound; stale denials are harmless
        }
        self.denied.insert((server, node), e.digest.generation());
    }

    /// Whether a `(server, node)` digest hit is known to be wrong for the
    /// generation currently stored.
    pub fn is_denied(&self, server: ServerId, node: terradir_namespace::NodeId) -> bool {
        self.entries
            .get(&server)
            .is_some_and(|e| self.is_denied_at(server, node, e.digest.generation()))
    }

    /// [`DigestStore::is_denied`] for a caller already holding `server`'s
    /// stored digest (from [`DigestStore::iter`]): passing its generation
    /// saves the second store lookup, and an empty denial set costs none.
    #[inline]
    pub fn is_denied_at(
        &self,
        server: ServerId,
        node: terradir_namespace::NodeId,
        generation: u64,
    ) -> bool {
        !self.denied.is_empty() && self.denied.get(&(server, node)) == Some(&generation)
    }

    /// Number of stored digests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a digest if it is fresher than the one already stored for
    /// that server (generations are per-server monotone). Returns whether
    /// the store changed.
    pub fn observe(&mut self, server: ServerId, digest: &Digest) -> bool {
        if self.slots == 0 {
            return false;
        }
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(&server) {
            e.touched = clock;
            if e.digest.is_superseded_by(digest) {
                // xtask: allow(alloc): Arc-backed digest clone, a refcount bump
                e.digest = digest.clone();
                return true;
            }
            return false;
        }
        if self.entries.len() >= self.slots {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(&s, _)| s)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            server,
            StoredDigest {
                // xtask: allow(alloc): Arc-backed digest clone, a refcount bump
                digest: digest.clone(),
                touched: clock,
            },
        );
        true
    }

    /// The stored digest for a server, touching it.
    pub fn get(&mut self, server: ServerId) -> Option<&Digest> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&server).map(|e| {
            e.touched = clock;
            &e.digest
        })
    }

    /// Tests `name` against a server's stored digest. `Some(false)` is an
    /// authoritative miss, `Some(true)` a probable hit, `None` means no
    /// digest is stored for that server.
    pub fn test(&self, server: ServerId, name: &str) -> Option<bool> {
        self.entries.get(&server).map(|e| e.digest.test(name))
    }

    /// Iterates `(server, digest)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, &Digest)> {
        self.entries.iter().map(|(&s, e)| (s, &e.digest))
    }

    /// Drops everything stored about a server (negative caching: a host
    /// observed dead must not keep steering digest shortcuts). Its denials
    /// go too — a fresh digest from a recovered host starts clean.
    pub fn forget(&mut self, server: ServerId) {
        self.entries.remove(&server);
        self.denied.retain(|(s, _), _| *s != server);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terradir_namespace::balanced_tree;

    fn sample_digest(gen: u64, names: &[&str]) -> Digest {
        let params = BloomParams::for_capacity(16, 0.01, 1);
        let mut b = DigestBuilder::new(params);
        for n in names {
            b.add(n);
        }
        b.seal(gen)
    }

    #[test]
    fn build_digest_covers_hosted_names() {
        let ns = balanced_tree(2, 3);
        let hosted: Vec<NodeId> = vec![NodeId(1), NodeId(5)];
        let d = build_digest(&ns, ServerId(3), hosted.iter(), 8, 0.01, 1);
        assert!(d.test(ns.name(NodeId(1)).as_str()));
        assert!(d.test(ns.name(NodeId(5)).as_str()));
        assert_eq!(d.generation(), 1);
    }

    #[test]
    fn observe_keeps_freshest_generation() {
        let mut s = DigestStore::new(4);
        let old = sample_digest(1, &["/a"]);
        let new = sample_digest(2, &["/b"]);
        assert!(s.observe(ServerId(0), &old));
        assert!(s.observe(ServerId(0), &new));
        // Stale arrival after fresh: ignored.
        assert!(!s.observe(ServerId(0), &old));
        assert_eq!(s.test(ServerId(0), "/b"), Some(true));
        assert_eq!(s.test(ServerId(0), "/a"), Some(false));
    }

    #[test]
    fn store_is_bounded_lru() {
        let mut s = DigestStore::new(2);
        s.observe(ServerId(0), &sample_digest(1, &["/a"]));
        s.observe(ServerId(1), &sample_digest(1, &["/b"]));
        s.get(ServerId(0)); // touch 0 so 1 is LRU
        s.observe(ServerId(2), &sample_digest(1, &["/c"]));
        assert_eq!(s.len(), 2);
        assert!(s.test(ServerId(1), "/b").is_none(), "LRU evicted");
        assert!(s.test(ServerId(0), "/a").is_some());
    }

    #[test]
    fn zero_slots_store_is_inert() {
        let mut s = DigestStore::new(0);
        assert!(!s.observe(ServerId(0), &sample_digest(1, &["/a"])));
        assert!(s.is_empty());
        assert_eq!(s.test(ServerId(0), "/a"), None);
    }

    #[test]
    fn iter_walks_all_entries() {
        let mut s = DigestStore::new(4);
        s.observe(ServerId(1), &sample_digest(1, &["/a"]));
        s.observe(ServerId(2), &sample_digest(1, &["/b"]));
        let mut ids: Vec<ServerId> = s.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![ServerId(1), ServerId(2)]);
    }

    #[test]
    fn deny_without_stored_digest_is_a_noop() {
        let mut s = DigestStore::new(4);
        s.deny(ServerId(9), NodeId(1));
        assert!(!s.is_denied(ServerId(9), NodeId(1)));
    }

    #[test]
    fn different_servers_have_independent_hash_families() {
        let ns = balanced_tree(2, 3);
        let hosted = [NodeId(2)];
        let d1 = build_digest(&ns, ServerId(1), hosted.iter(), 8, 0.01, 1);
        let d2 = build_digest(&ns, ServerId(2), hosted.iter(), 8, 0.01, 1);
        // Same contents, but the underlying bit patterns differ — a false
        // positive in one family is unlikely to repeat in another.
        assert!(d1.test(ns.name(NodeId(2)).as_str()));
        assert!(d2.test(ns.name(NodeId(2)).as_str()));
    }
}
