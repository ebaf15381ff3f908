//! Node→server ownership assignment.
//!
//! Every TerraDir node is *owned* by exactly one server; the paper maps both
//! evaluation namespaces "uniformly at random" onto the participating
//! servers (§4.1). [`OwnerAssignment`] materializes that map in both
//! directions: owner-of-node and nodes-owned-by-server.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::tree::{Namespace, NodeId};
use crate::ServerId;

/// A total assignment of namespace nodes to owning servers.
#[derive(Debug, Clone)]
pub struct OwnerAssignment {
    owner: Vec<ServerId>,
    owned: Vec<Vec<NodeId>>,
}

impl OwnerAssignment {
    /// Assigns every node to a uniformly random server.
    ///
    /// With `n_nodes ≥ n_servers` (the paper keeps 8 nodes per server) every
    /// server is first guaranteed at least one node via a shuffled
    /// round-robin pass over a random permutation, then the remainder is
    /// spread uniformly. This avoids pathological empty servers at small
    /// scales while staying statistically uniform.
    pub fn uniform_random<R: Rng + ?Sized>(
        ns: &Namespace,
        n_servers: u32,
        rng: &mut R,
    ) -> OwnerAssignment {
        assert!(n_servers >= 1, "need at least one server");
        let n = ns.len();
        let mut ids: Vec<NodeId> = ns.ids().collect();
        ids.shuffle(rng);
        let mut owner = vec![ServerId(0); n];
        let mut owned = vec![Vec::new(); n_servers as usize];
        for (i, node) in ids.into_iter().enumerate() {
            let s = if i < n_servers as usize {
                ServerId(i as u32)
            } else {
                ServerId(rng.gen_range(0..n_servers))
            };
            if let Some(slot) = owner.get_mut(node.index()) {
                *slot = s;
            }
            if let Some(list) = owned.get_mut(s.index()) {
                list.push(node);
            }
        }
        for nodes in &mut owned {
            nodes.sort_unstable();
        }
        OwnerAssignment { owner, owned }
    }

    /// Assigns nodes to servers round-robin in namespace insertion order
    /// (deterministic; used by tests and the quickstart example).
    pub fn round_robin(ns: &Namespace, n_servers: u32) -> OwnerAssignment {
        assert!(n_servers >= 1, "need at least one server");
        let mut owner = Vec::with_capacity(ns.len());
        let mut owned = vec![Vec::new(); n_servers as usize];
        for (i, node) in ns.ids().enumerate() {
            let s = ServerId((i % n_servers as usize) as u32);
            owner.push(s);
            if let Some(list) = owned.get_mut(s.index()) {
                list.push(node);
            }
        }
        OwnerAssignment { owner, owned }
    }

    /// Builds an assignment from an explicit owner vector (indexed by node).
    pub fn from_owner_vec(owner: Vec<ServerId>, n_servers: u32) -> OwnerAssignment {
        let mut owned = vec![Vec::new(); n_servers as usize];
        for (i, s) in owner.iter().enumerate() {
            assert!(s.0 < n_servers, "owner {s} out of range");
            if let Some(list) = owned.get_mut(s.index()) {
                list.push(NodeId(i as u32));
            }
        }
        OwnerAssignment { owner, owned }
    }

    /// The owning server of a node.
    ///
    /// Out-of-range node ids (only constructible by hand) degrade to
    /// `ServerId(0)` rather than panicking.
    #[inline]
    pub fn owner(&self, node: NodeId) -> ServerId {
        self.owner.get(node.index()).copied().unwrap_or(ServerId(0))
    }

    /// The nodes owned by a server, in ascending node-id order.
    ///
    /// Unknown servers own nothing.
    #[inline]
    pub fn owned_by(&self, server: ServerId) -> &[NodeId] {
        self.owned.get(server.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of participating servers.
    #[inline]
    pub fn n_servers(&self) -> u32 {
        self.owned.len() as u32
    }

    /// Number of assigned nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.owner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::balanced_tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_random_is_total_and_consistent() {
        let ns = balanced_tree(2, 6); // 127 nodes
        let mut rng = StdRng::seed_from_u64(3);
        let map = OwnerAssignment::uniform_random(&ns, 16, &mut rng);
        assert_eq!(map.n_nodes(), 127);
        assert_eq!(map.n_servers(), 16);
        let mut seen = 0;
        for s in 0..16 {
            let sid = ServerId(s);
            for &n in map.owned_by(sid) {
                assert_eq!(map.owner(n), sid);
                seen += 1;
            }
            assert!(!map.owned_by(sid).is_empty(), "server {sid} owns nothing");
        }
        assert_eq!(seen, 127);
    }

    #[test]
    fn uniform_random_covers_every_server_even_when_tight() {
        let ns = balanced_tree(2, 3); // 15 nodes
        let mut rng = StdRng::seed_from_u64(9);
        let map = OwnerAssignment::uniform_random(&ns, 15, &mut rng);
        for s in 0..15 {
            assert_eq!(map.owned_by(ServerId(s)).len(), 1);
        }
    }

    #[test]
    fn round_robin_balances_exactly() {
        let ns = balanced_tree(2, 4); // 31 nodes
        let map = OwnerAssignment::round_robin(&ns, 4);
        let sizes: Vec<usize> = (0..4).map(|s| map.owned_by(ServerId(s)).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 31);
        assert!(sizes.iter().all(|&c| c == 7 || c == 8));
    }

    #[test]
    fn from_owner_vec_round_trips() {
        let owner = vec![ServerId(1), ServerId(0), ServerId(1)];
        let map = OwnerAssignment::from_owner_vec(owner, 2);
        assert_eq!(map.owner(NodeId(0)), ServerId(1));
        assert_eq!(map.owned_by(ServerId(1)), &[NodeId(0), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_owner_vec_validates_range() {
        OwnerAssignment::from_owner_vec(vec![ServerId(5)], 2);
    }
}
