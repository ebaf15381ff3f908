//! Replicated object storage on the routing substrate (DESIGN.md §17).
//!
//! The paper replicates only *routing state*; this module adds the data
//! plane a directory service's users actually need — objects that
//! survive churn. Every object is owned by one namespace node and
//! carries a **versioned payload**: a monotonic version plus a writer
//! tag, merged with a deterministic last-writer-wins rule. Copies live
//! on a **replica set** derived purely from the node→server assignment
//! (no RNG): the owner first, then — with subtree affinity — the owners
//! of namespace-neighbor nodes (the DistHash placement idea: neighbors
//! in the name tree fail and partition *differently* from consecutive
//! server ids), then consecutive ids as filler. Placement is static for
//! a run, which is what makes the durability accounting exact: a copy
//! can only ever exist at a replica-set member, so "alive" is a scan of
//! `replication_factor` servers per object.
//!
//! The module is pure data + placement math; the write/read/repair
//! drivers live in `system.rs` and the per-server stores in
//! `server.rs`.

use terradir_namespace::{Namespace, NodeId, OwnerAssignment, ServerId};

use crate::config::StorageConfig;
use crate::roles::RoleMap;

/// One stored object replica: a versioned payload with a writer tag.
///
/// The version is globally monotonic per object (the write driver
/// assigns `committed + 1`), and the writer tag breaks ties between
/// concurrent copies deterministically. `Copy` keeps replica stores and
/// repair pushes allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredObject {
    /// Monotonic write version (pre-seeded copies start at 1).
    pub version: u64,
    /// The server that issued the write (last-writer-wins tie-break).
    pub writer: ServerId,
    /// The payload stand-in (real systems carry bytes; the simulator
    /// only needs an identity to detect staleness with).
    pub payload: u32,
}

impl StoredObject {
    /// Total order used by the last-writer-wins merge: version first,
    /// then writer id, then payload. Every component is compared, so
    /// two distinct objects never tie and the merge is deterministic.
    fn rank(&self) -> (u64, u32, u32) {
        (self.version, self.writer.0, self.payload)
    }
}

/// Deterministic last-writer-wins merge: the greater object under the
/// (version, writer, payload) total order wins. Idempotent
/// (`merge(a, a) == a`), commutative (`merge(a, b) == merge(b, a)`),
/// and associative — the proptest suite in `tests/prop_storage.rs`
/// asserts all three, which is what lets replicas converge regardless
/// of delivery order.
pub fn lww_merge(a: StoredObject, b: StoredObject) -> StoredObject {
    if a.rank() >= b.rank() {
        a
    } else {
        b
    }
}

/// Computes the replica set for `node` into `out` (cleared first):
/// the owner, then the deduplicated owners
/// of the node's namespace neighbors (parent, then children in tree
/// order), then consecutive server ids from the owner as filler,
/// truncated to `replication_factor` distinct servers (capped at the
/// fleet size). With a [`RoleMap`] (DESIGN.md §19), candidates that do
/// not admit `node`'s region are skipped — except the owner, which is
/// always placed first (it is authoritative regardless of class) — so
/// the set may come up short of the replication factor when too few
/// admitting servers exist. Deterministic, draws no randomness, and
/// allocates nothing beyond the caller's reusable buffer.
pub fn replica_targets(
    node: NodeId,
    ns: &Namespace,
    assignment: &OwnerAssignment,
    cfg: &StorageConfig,
    roles: Option<&RoleMap>,
    out: &mut Vec<ServerId>,
) {
    out.clear();
    let n_servers = assignment.n_servers();
    let want = (cfg.replication_factor.min(n_servers)) as usize;
    if want == 0 {
        return;
    }
    let admitted = |s: ServerId| roles.is_none_or(|r| r.admits(s, node));
    let owner = assignment.owner(node);
    out.push(owner);
    let parent = ns.parent(node);
    let children = ns.children(node);
    let neighbors = parent.iter().copied().chain(children.iter().copied());
    for nb in neighbors {
        if out.len() == want {
            break;
        }
        let host = assignment.owner(nb);
        if admitted(host) && !out.contains(&host) {
            out.push(host);
        }
    }
    let mut k = 1;
    while out.len() < want && k < n_servers {
        let host = ServerId((owner.0 + k) % n_servers);
        if admitted(host) && !out.contains(&host) {
            out.push(host);
        }
        k += 1;
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;
    use terradir_namespace::balanced_tree;

    fn obj(version: u64, writer: u32, payload: u32) -> StoredObject {
        StoredObject {
            version,
            writer: ServerId(writer),
            payload,
        }
    }

    #[test]
    fn lww_merge_prefers_version_then_writer_then_payload() {
        let lo = obj(1, 9, 9);
        let hi = obj(2, 0, 0);
        assert_eq!(lww_merge(lo, hi), hi);
        assert_eq!(lww_merge(hi, lo), hi);
        let a = obj(3, 1, 0);
        let b = obj(3, 2, 0);
        assert_eq!(lww_merge(a, b), b);
        let c = obj(3, 2, 5);
        assert_eq!(lww_merge(b, c), c);
        assert_eq!(lww_merge(c, c), c);
    }

    #[test]
    fn replica_targets_are_distinct_and_owner_first() {
        let ns = balanced_tree(2, 4);
        let assignment = OwnerAssignment::round_robin(&ns, 8);
        let cfg = StorageConfig {
            replication_factor: 3,
            ..StorageConfig::default()
        };
        let mut out = Vec::new();
        for id in 0..ns.len() as u32 {
            let node = NodeId(id);
            replica_targets(node, &ns, &assignment, &cfg, None, &mut out);
            assert_eq!(out.len(), 3);
            assert_eq!(out[0], assignment.owner(node));
            let mut uniq = out.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), out.len(), "duplicates for node {id}");
        }
    }

    #[test]
    fn replication_factor_is_capped_at_fleet_size() {
        let ns = balanced_tree(2, 2);
        let assignment = OwnerAssignment::round_robin(&ns, 3);
        let cfg = StorageConfig {
            replication_factor: 10,
            ..StorageConfig::default()
        };
        let mut out = Vec::new();
        replica_targets(NodeId(0), &ns, &assignment, &cfg, None, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn subtree_affinity_places_copies_on_neighbor_owners() {
        let ns = balanced_tree(2, 4);
        // Distinct owner per node so neighbor owners are predictable.
        let owners: Vec<ServerId> = (0..ns.len() as u32).map(ServerId).collect();
        let assignment = OwnerAssignment::from_owner_vec(owners, ns.len() as u32);
        let cfg = StorageConfig {
            replication_factor: 3,
            ..StorageConfig::default()
        };
        let node = NodeId(1); // has a parent and two children
        let mut out = Vec::new();
        replica_targets(node, &ns, &assignment, &cfg, None, &mut out);
        assert_eq!(out[0], assignment.owner(node));
        let parent = ns.parent(node).unwrap();
        assert_eq!(out[1], assignment.owner(parent));
        let first_child = ns.children(node)[0];
        assert_eq!(out[2], assignment.owner(first_child));
    }

    #[test]
    fn role_filter_restricts_targets_to_admitting_servers() {
        use crate::config::RoleConfig;
        let ns = balanced_tree(2, 4);
        let assignment = OwnerAssignment::round_robin(&ns, 8);
        let cfg = StorageConfig {
            replication_factor: 4,
            ..StorageConfig::default()
        };
        // Only relays (every 4th server) admit foreign regions.
        let roles_cfg = RoleConfig {
            enabled: true,
            relay_every: 4,
            keeper_every: 0,
            owned_admission: false,
            ..RoleConfig::default()
        };
        let map = RoleMap::build(&ns, &assignment, &roles_cfg, 8);
        let mut out = Vec::new();
        for id in 0..ns.len() as u32 {
            let node = NodeId(id);
            replica_targets(node, &ns, &assignment, &cfg, Some(&map), &mut out);
            assert_eq!(out[0], assignment.owner(node));
            for &s in out.iter().skip(1) {
                assert!(map.admits(s, node), "node {id} placed on {s}");
            }
        }
        // A deep node: only the owner + the two relays qualify, so the
        // set comes up short of the factor.
        let deep = NodeId(ns.len() as u32 - 1);
        replica_targets(deep, &ns, &assignment, &cfg, Some(&map), &mut out);
        assert!(out.len() <= 3, "owner + relays only, got {out:?}");
        // A role map that admits everything reproduces the unfiltered set.
        let open = RoleConfig {
            enabled: true,
            relay_every: 1,
            ..RoleConfig::default()
        };
        let open_map = RoleMap::build(&ns, &assignment, &open, 8);
        let mut plain = Vec::new();
        for id in 0..ns.len() as u32 {
            let node = NodeId(id);
            replica_targets(node, &ns, &assignment, &cfg, Some(&open_map), &mut out);
            replica_targets(node, &ns, &assignment, &cfg, None, &mut plain);
            assert_eq!(out, plain);
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let ns = balanced_tree(2, 4);
        let assignment = OwnerAssignment::round_robin(&ns, 8);
        let cfg = StorageConfig::default();
        let mut a = Vec::new();
        let mut b = Vec::new();
        replica_targets(NodeId(7), &ns, &assignment, &cfg, None, &mut a);
        replica_targets(NodeId(7), &ns, &assignment, &cfg, None, &mut b);
        assert_eq!(a, b);
    }
}
