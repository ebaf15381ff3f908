//! Runtime protocol-invariant auditors (DESIGN.md §11).
//!
//! Each checker inspects live simulator state and returns a list of
//! human-readable violations — empty when the invariant holds. The sim
//! engine wires them into its step loop behind `debug_assertions`, so
//! debug runs of the paper's experiments double as invariant audits at
//! zero release-mode cost. Tests call them directly.
//!
//! A note on scope: the paper's §3.6.1 claim that "a server always chooses
//! the closest node to the target that it knows about" holds per *decision*
//! (and is enforced structurally by `routing::decide_route`'s sorted
//! candidate walk), but strict per-hop distance decrease along a query's
//! trajectory is **not** an invariant under stale soft state — loop
//! damping, emptied maps, and `NotHosting` corrections can force a locally
//! worse hop, which is exactly why the protocol carries a TTL. The
//! trajectory-level contract we can and do check is the pair in
//! [`check_incremental_progress`]: a server never forwards a query it
//! could resolve, and no forwarded packet ever exceeds the TTL budget.

use crate::det::DetHashSet;

use terradir_namespace::ServerId;

use crate::config;
use crate::context::StatelessContext;
use crate::map::NodeMap;
use crate::messages::QueryPacket;
use crate::server::ServerState;

/// Forward-emission contract (paper §3.3, §3.6.1).
///
/// Called at the instant a server emits a forwarded `Query`, with the
/// sender's post-handler state:
///
/// 1. the sender does not host the target (hosting implies `Resolve`, so a
///    forward from a hosting server means routing skipped a resolution);
/// 2. `hops` never exceeds `TTL_HOPS` (the drop check ran before emission);
/// 3. the hop bookkeeping is stamped: `intended_via` names the node being
///    routed toward and `prev_hop` names the sender (the stale-entry
///    correction path in §3.5 depends on both).
pub fn check_incremental_progress(sender: &ServerState, packet: &QueryPacket) -> Vec<String> {
    let mut v = Vec::new();
    if sender.hosts(packet.target) {
        v.push(format!(
            "server {} forwarded query {} although it hosts the target {:?}",
            sender.id.0, packet.id, packet.target
        ));
    }
    if packet.hops > config::TTL_HOPS {
        v.push(format!(
            "query {} in flight with hops {} > TTL_HOPS {}",
            packet.id,
            packet.hops,
            config::TTL_HOPS
        ));
    }
    if packet.intended_via.is_none() {
        v.push(format!(
            "forwarded query {} carries no intended_via",
            packet.id
        ));
    }
    if packet.prev_hop != Some(sender.id) {
        v.push(format!(
            "forwarded query {} stamps prev_hop {:?}, expected sender {}",
            packet.id, packet.prev_hop, sender.id.0
        ));
    }
    v
}

/// Map bounds (paper §3.7): every stored node map — owned and replica
/// records, neighbor context, and route-cache entries — holds at most
/// `max(R_map, 1)` entries and lists each host at most once.
///
/// Emptiness is deliberately *not* checked: stale-entry corrections may
/// remove the last host of a map (`NodeMap::remove` with `allow_empty`),
/// and routing treats such maps as unusable rather than invalid.
pub fn check_map_bounds(server: &ServerState) -> Vec<String> {
    let bound = server.fleet.cfg.r_map.max(1);
    let mut v = Vec::new();
    let mut check = |kind: &str, node: u32, map: &NodeMap| {
        if map.len() > bound {
            v.push(format!(
                "server {}: {kind} map for node {node} has {} entries > R_map bound {bound}",
                server.id.0,
                map.len()
            ));
        }
        let distinct: DetHashSet<ServerId> = map.entries().iter().copied().collect();
        if distinct.len() != map.len() {
            v.push(format!(
                "server {}: {kind} map for node {node} lists a duplicate host",
                server.id.0
            ));
        }
    };
    for (n, rec) in &server.owned {
        check("owned", n.0, &rec.map);
    }
    for (n, rec) in &server.replicas {
        check("replica", n.0, &rec.map);
    }
    for (n, map) in &server.neighbor_maps {
        check("context", n.0, map);
    }
    for (n, map) in server.cache.iter() {
        check("cache", n.0, map);
    }
    v
}

/// Replica budget (paper §3.5): soft-state replicas never exceed
/// `R_fact · |owned|` (as computed by [`config::Config::replica_cap`]), and the
/// replica set stays disjoint from the owned set — a server must not
/// count a node it owns as a replica.
pub fn check_replica_budget(server: &ServerState) -> Vec<String> {
    let cap = server.fleet.cfg.replica_cap(server.owned_count());
    let mut v = Vec::new();
    if server.replica_count() > cap {
        v.push(format!(
            "server {}: {} replicas exceed budget {} (R_fact {} × {} owned)",
            server.id.0,
            server.replica_count(),
            cap,
            server.fleet.cfg.r_fact,
            server.owned_count()
        ));
    }
    for n in server.replicas.keys() {
        if server.owned.contains_key(n) {
            v.push(format!(
                "server {}: node {} is recorded as both owned and replica",
                server.id.0, n.0
            ));
        }
    }
    v
}

/// Route-cache capacity: the cache never holds more entries than its slot
/// budget, and a run with caching disabled keeps a zero-slot cache.
pub fn check_cache_capacity(server: &ServerState) -> Vec<String> {
    let mut v = Vec::new();
    if server.cache.len() > server.cache.slots() {
        v.push(format!(
            "server {}: cache holds {} entries > {} slots",
            server.id.0,
            server.cache.len(),
            server.cache.slots()
        ));
    }
    let expected = if server.fleet.cfg.caching {
        server.fleet.cfg.cache_slots
    } else {
        0
    };
    if server.cache.slots() != expected {
        v.push(format!(
            "server {}: cache sized {} slots, config implies {}",
            server.id.0,
            server.cache.slots(),
            expected
        ));
    }
    v
}

/// Digest soundness (paper §3.6): a Bloom digest may return false
/// positives but never false negatives — once rebuilt, it must test
/// positive for every node its server currently hosts.
///
/// Only meaningful between a rebuild and the next host-set change: the
/// digest is rebuilt lazily at maintenance, so while `digest_dirty` is
/// set the snapshot legitimately lags the host set and the check is
/// skipped.
pub fn check_digest_no_false_negative(server: &ServerState) -> Vec<String> {
    if server.digest_dirty {
        return Vec::new();
    }
    let ns = &server.fleet.ns;
    let mut v = Vec::new();
    for n in server.hosted_ids() {
        if !server.digest.test(ns.name(n).as_str()) {
            v.push(format!(
                "server {}: digest false negative for hosted node {} ({})",
                server.id.0,
                n.0,
                ns.name(n).as_str()
            ));
        }
    }
    v
}

/// Gossip-digest soundness (DESIGN.md §18): like the routing digest, the
/// anti-entropy digest may return false positives but never
/// false negatives — once sealed, it must claim every name the server
/// hosts *and* every `name#v<version>` key for an object it stores. A
/// false negative would make a peer purge live soft state or pull-reply
/// a copy the server already holds, defeating idempotence. Skipped while
/// the digest is stale (`gossip.dirty`) or not yet built: the seal is
/// lazy, fired at the server's next gossip round.
pub fn check_gossip_digest_no_false_negative(server: &ServerState) -> Vec<String> {
    let ns = &server.fleet.ns;
    let mut v = Vec::new();
    let digest = match &server.gossip.digest {
        Some(d) if !server.gossip.dirty => d,
        _ => return v,
    };
    for n in server.hosted_ids() {
        if !digest.test(ns.name(n).as_str()) {
            v.push(format!(
                "server {}: gossip digest false negative for hosted node {} ({})",
                server.id.0,
                n.0,
                ns.name(n).as_str()
            ));
        }
    }
    let mut buf = String::new();
    for (n, obj) in server.stored_objects() {
        crate::gossip::object_key(&mut buf, ns.name(n).as_str(), obj.version);
        if !digest.test(&buf) {
            v.push(format!(
                "server {}: gossip digest false negative for object key {buf}",
                server.id.0
            ));
        }
    }
    v
}

/// Negative-cache consistency (DESIGN.md §12): while a host sits in a
/// server's negative cache, no stored structure may keep steering traffic
/// at it. Hosted (owned and replica) record maps and route-cache entries
/// must be strictly free of the host; a neighbor-context map may retain it
/// only as its *sole* entry (context is never emptied — the last-resort
/// pointer survives so routing stays total, and the digest/TTL machinery
/// absorbs the cost).
pub fn check_negative_cache(server: &ServerState) -> Vec<String> {
    let mut v = Vec::new();
    // A live replication session must never target a host observed dead:
    // the partner's death aborts the session on the spot (stranding a
    // `Session` until its timeout would block replication exactly when
    // the load spike needs it).
    if let Some(target) = server.session_target() {
        if server.is_negatively_cached(target) {
            v.push(format!(
                "server {}: replication session targets dead host {}",
                server.id.0, target.0
            ));
        }
    }
    for h in server.negatively_cached() {
        for (n, rec) in server.owned.iter().chain(server.replicas.iter()) {
            if rec.map.contains(h) {
                v.push(format!(
                    "server {}: hosted map for node {} still lists dead host {}",
                    server.id.0, n.0, h.0
                ));
            }
        }
        for (n, map) in &server.neighbor_maps {
            if map.contains(h) && map.len() > 1 {
                v.push(format!(
                    "server {}: context map for node {} lists dead host {} alongside others",
                    server.id.0, n.0, h.0
                ));
            }
        }
        for (n, map) in server.cache.iter() {
            if map.contains(h) {
                v.push(format!(
                    "server {}: cache entry for node {} still lists dead host {}",
                    server.id.0, n.0, h.0
                ));
            }
        }
    }
    v
}

/// Context anchoring (DESIGN.md §16.3): every context map belongs to a
/// hosted node, i.e. its node is the parent or a child of something this
/// server hosts. The route decision ranks context neighbors from the
/// hosted set, so a map for any other node would never be ranked. The
/// converse is not required: a hosted node may lack one neighbor's map
/// (replica installation drops a map that negative caching emptied).
pub fn check_context_anchored(server: &ServerState) -> Vec<String> {
    let mut v = Vec::new();
    for &n in server.neighbor_maps.keys() {
        if server.hosted_neighbor(n).is_none() {
            v.push(format!(
                "server {}: context map for node {} belongs to no hosted node",
                server.id.0, n.0
            ));
        }
    }
    v
}

/// Partition enforcement (DESIGN.md §13): while a cut is active, no
/// message may be handed to a server on the other side of the relation.
/// `side` is the substrate's active cut (one flag per server); the checker
/// runs at the instant a delivery is about to be enqueued — after the
/// drop logic should already have fired — so any violation means a
/// message slipped across the cut.
pub fn check_cut_delivery(side: &[bool], from: ServerId, to: ServerId) -> Vec<String> {
    let a = side.get(from.index()).copied().unwrap_or(false);
    let b = side.get(to.index()).copied().unwrap_or(false);
    if a == b {
        Vec::new()
    } else {
        vec![format!(
            "delivery from server {} to server {} crosses the active cut",
            from.0, to.0
        )]
    }
}

/// Lease freshness (DESIGN.md §14): lease stamps are bookkeeping about the
/// *past* — no stored record or cache entry may carry a stamp from the
/// future. Stamps are maintained unconditionally, so this
/// checker runs whether or not leases are enabled.
pub fn check_lease_freshness(server: &ServerState, now: f64) -> Vec<String> {
    let mut v = Vec::new();
    let eps = 1e-9;
    for (n, rec) in server.owned.iter().chain(server.replicas.iter()) {
        if rec.lease_at > now + eps {
            v.push(format!(
                "server {}: record for node {} leased at {} > now {}",
                server.id.0, n.0, rec.lease_at, now
            ));
        }
    }
    for (n, _) in server.cache.iter() {
        if let Some(stamp) = server.cache.lease_of(n).filter(|&at| at > now + eps) {
            v.push(format!(
                "server {}: cache entry for node {} leased at {} > now {}",
                server.id.0, n.0, stamp, now
            ));
        }
    }
    v
}

/// Pending-table hygiene (DESIGN.md §14): every injected query finalizes
/// exactly once, so at any audit point the retry layer's pending table
/// holds precisely the queries that are neither resolved nor dropped —
/// and with the retry layer disabled it is never populated at all. A
/// mismatch means a finalized query leaked its pending entry (or an
/// entry was dropped without finalizing), which would silently skew the
/// drop accounting.
pub fn check_pending_hygiene(
    retry_enabled: bool,
    injected: u64,
    resolved: u64,
    dropped: u64,
    pending_len: usize,
) -> Vec<String> {
    if retry_enabled {
        let outstanding = injected.saturating_sub(resolved + dropped);
        if pending_len as u64 != outstanding {
            return vec![format!(
                "pending table holds {pending_len} entries, expected {outstanding} \
                 (injected {injected} − resolved {resolved} − dropped {dropped})"
            )];
        }
    } else if pending_len != 0 {
        return vec![format!(
            "retry disabled but pending table holds {pending_len} entries"
        )];
    }
    Vec::new()
}

/// Storage placement and version soundness (DESIGN.md §17): every
/// object replica a server holds must (1) sit at a member of the
/// object's replica set — placement is a pure function of the
/// assignment, so a copy anywhere else means a write or gossip push
/// went astray; (2) carry a version in `1..=committed[o]` — versions
/// are assigned from the global per-object counter, so a copy above it
/// was fabricated and one at 0 was never written. `committed` is the
/// substrate's per-object version vector (index = object id); nodes
/// outside it must hold no copies at all.
pub fn check_storage_soundness(committed: &[u64], server: &ServerState) -> Vec<String> {
    let mut v = Vec::new();
    let mut targets = Vec::new();
    for (node, obj) in server.stored_objects() {
        let Some(&cap) = committed.get(node.0 as usize) else {
            v.push(format!(
                "server {}: holds a copy for node {} outside the object range ({})",
                server.id.0,
                node.0,
                committed.len()
            ));
            continue;
        };
        server.fleet.replica_targets(node, &mut targets);
        if !targets.contains(&server.id) {
            v.push(format!(
                "server {}: holds a copy for node {} but is not in its replica set {targets:?}",
                server.id.0, node.0
            ));
        }
        if obj.version == 0 || obj.version > cap {
            v.push(format!(
                "server {}: copy for node {} has version {} outside 1..={cap}",
                server.id.0, node.0, obj.version
            ));
        }
    }
    v
}

/// Storage replica-count bound (DESIGN.md §17): across the whole fleet
/// an object never has more copies than its replica set has members
/// (at most `replication_factor`, capped at the fleet size). Placement
/// soundness per server almost implies this — the count bound
/// additionally catches a replica set computed inconsistently between
/// writers.
pub fn check_storage_replica_counts<'a, I>(
    fleet: &StatelessContext,
    n_objects: usize,
    servers: I,
) -> Vec<String>
where
    I: IntoIterator<Item = &'a ServerState>,
    I::IntoIter: Clone,
{
    let servers = servers.into_iter();
    let mut v = Vec::new();
    let mut targets = Vec::new();
    for o in 0..n_objects {
        let node = terradir_namespace::NodeId(o as u32);
        fleet.replica_targets(node, &mut targets);
        let copies = servers
            .clone()
            .filter(|s| s.stored_object(node).is_some())
            .count();
        if copies > targets.len() {
            v.push(format!(
                "object {o}: {copies} copies exceed the replica set size {}",
                targets.len()
            ));
        }
    }
    v
}

/// Role-placement soundness (DESIGN.md §19): a server must never hold
/// soft state outside its admitted regions — every *replica* record and
/// every stored-object copy for a non-owned node must sit in a region
/// the role map admits the server to. Owned records (and owned-node
/// object copies) are exempt: ownership is authoritative regardless of
/// class. Placement decisions all consult the same map, so a violation
/// here means some path installed state without asking it.
pub fn check_role_placement(roles: &crate::roles::RoleMap, server: &ServerState) -> Vec<String> {
    let mut v = Vec::new();
    for n in server.replicas.keys() {
        if !roles.admits(server.id, *n) {
            v.push(format!(
                "server {}: holds a replica for node {} outside its admitted regions",
                server.id.0, n.0
            ));
        }
    }
    for (n, _) in server.stored_objects() {
        if server.owned.contains_key(&n) {
            continue;
        }
        if !roles.admits(server.id, n) {
            v.push(format!(
                "server {}: holds an object copy for node {} outside its admitted regions",
                server.id.0, n.0
            ));
        }
    }
    v
}

/// Runs every per-server structural checker and returns the combined
/// violation list.
pub fn audit_server(server: &ServerState) -> Vec<String> {
    let mut v = check_map_bounds(server);
    v.extend(check_replica_budget(server));
    v.extend(check_cache_capacity(server));
    v.extend(check_digest_no_false_negative(server));
    v.extend(check_gossip_digest_no_false_negative(server));
    v.extend(check_negative_cache(server));
    v.extend(check_context_anchored(server));
    v
}

#[cfg(test)]
mod tests {
    use terradir_namespace::{balanced_tree, Namespace, NodeId, OwnerAssignment};

    use super::*;
    use crate::cache::RouteCache;
    use crate::config::Config;
    use crate::context::round_robin_fleet;
    use crate::meta::Meta;
    use crate::records::NodeRecord;

    fn fixture() -> (Namespace, ServerState) {
        let (f, mut servers) = round_robin_fleet(balanced_tree(2, 4), Config::paper_default(4));
        (f.ns.clone(), servers.swap_remove(0))
    }

    fn non_hosted(ns: &Namespace, s: &ServerState) -> NodeId {
        ns.ids().find(|&n| !s.hosts(n)).unwrap()
    }

    #[test]
    fn clean_bootstrap_passes_every_check() {
        let (_ns, s) = fixture();
        assert!(audit_server(&s).is_empty());
    }

    #[test]
    fn oversized_map_is_caught() {
        let (ns, mut s) = fixture();
        let bound = s.fleet.cfg.r_map;
        let fat = NodeMap::from_entries((0..=bound as u32).map(ServerId));
        assert!(fat.len() > bound);
        let far = non_hosted(&ns, &s);
        s.neighbor_maps.insert(far, fat);
        let v = check_map_bounds(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("R_map bound"), "{v:?}");
    }

    #[test]
    fn replica_over_budget_is_caught() {
        let (ns, mut s) = fixture();
        let cap = s.fleet.cfg.replica_cap(s.owned_count());
        let extras: Vec<NodeId> = ns.ids().filter(|&n| !s.hosts(n)).take(cap + 1).collect();
        for n in extras {
            s.replicas.insert(
                n,
                NodeRecord::new(n, NodeMap::singleton(ServerId(0)), Meta::new(), 0.0),
            );
        }
        s.digest_dirty = true; // keep the digest check out of the picture
        let v = check_replica_budget(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("exceed budget"), "{v:?}");
    }

    #[test]
    fn owned_replica_overlap_is_caught() {
        let (_ns, mut s) = fixture();
        let own = s.owned_ids().next().unwrap();
        s.replicas.insert(
            own,
            NodeRecord::new(own, NodeMap::singleton(ServerId(0)), Meta::new(), 0.0),
        );
        let v = check_replica_budget(&s);
        assert!(
            v.iter().any(|m| m.contains("both owned and replica")),
            "{v:?}"
        );
    }

    #[test]
    fn cache_slot_mismatch_is_caught() {
        let (_ns, mut s) = fixture();
        assert!(check_cache_capacity(&s).is_empty());
        s.cache = RouteCache::new(s.fleet.cfg.cache_slots + 1);
        let v = check_cache_capacity(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("config implies"), "{v:?}");
    }

    #[test]
    fn digest_false_negative_caught_only_when_clean() {
        let (ns, mut s) = fixture();
        let far = non_hosted(&ns, &s);
        s.replicas.insert(
            far,
            NodeRecord::new(far, NodeMap::singleton(ServerId(0)), Meta::new(), 0.0),
        );
        // The digest was built over the owned set only, so the new replica
        // is a false negative — but while dirty, the lag is legitimate.
        s.digest_dirty = true;
        assert!(check_digest_no_false_negative(&s).is_empty());
        s.digest_dirty = false;
        let v = check_digest_no_false_negative(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("false negative"), "{v:?}");
    }

    #[test]
    fn gossip_digest_false_negative_caught_only_when_sealed() {
        let (_ns, mut s) = fixture();
        // No digest yet (gossip never ran): the check is silent.
        assert!(check_gossip_digest_no_false_negative(&s).is_empty());
        let _ = s.gossip_digest();
        assert!(check_gossip_digest_no_false_negative(&s).is_empty());
        // Sneak in an object after the seal. With gossip disabled in the
        // fixture config, `merge_object` does not mark the digest dirty,
        // so the unclaimed `#v` key is a genuine false negative.
        s.merge_object(
            NodeId(0),
            crate::storage::StoredObject {
                version: 3,
                writer: ServerId(0),
                payload: 7,
            },
        );
        let v = check_gossip_digest_no_false_negative(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("#v3"), "{v:?}");
    }

    #[test]
    fn negative_cache_leak_is_caught() {
        let (_ns, mut s) = fixture();
        assert!(check_negative_cache(&s).is_empty());
        let dead = ServerId(3);
        s.negative.insert(dead, 0.0);
        // A sole-entry context map pointing at the dead host is tolerated
        // (context is never emptied) …
        assert!(check_negative_cache(&s).is_empty());
        // … but a hosted map still listing it is a violation.
        let own = s.owned_ids().next().unwrap();
        s.owned.get_mut(&own).unwrap().map.advertise(dead, 8);
        let v = check_negative_cache(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("dead host"), "{v:?}");
    }

    #[test]
    fn orphan_context_map_is_caught() {
        let (ns, mut s) = fixture();
        assert!(check_context_anchored(&s).is_empty());
        // A map for a node adjacent to nothing hosted here.
        let far = ns
            .ids()
            .find(|&n| !s.hosts(n) && s.hosted_neighbor(n).is_none())
            .unwrap();
        s.neighbor_maps.insert(far, NodeMap::singleton(ServerId(1)));
        let v = audit_server(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("belongs to no hosted node"), "{v:?}");
        // A hosted node missing one neighbor's map is fine.
        s.neighbor_maps.remove(&far);
        let (&ctx, _) = s.neighbor_maps.iter().next().unwrap();
        s.neighbor_maps.remove(&ctx);
        assert!(check_context_anchored(&s).is_empty());
    }

    #[test]
    fn cut_crossing_delivery_is_caught() {
        // Servers 0 and 2 on one side, 1 and 3 on the other.
        let side = [true, false, true, false];
        assert!(check_cut_delivery(&side, ServerId(0), ServerId(2)).is_empty());
        assert!(check_cut_delivery(&side, ServerId(1), ServerId(3)).is_empty());
        let v = check_cut_delivery(&side, ServerId(0), ServerId(1));
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("crosses the active cut"), "{v:?}");
        // Out-of-range ids read as the un-cut side.
        assert!(check_cut_delivery(&side, ServerId(1), ServerId(9)).is_empty());
        assert_eq!(check_cut_delivery(&side, ServerId(0), ServerId(9)).len(), 1);
    }

    #[test]
    fn session_targeting_dead_host_is_caught() {
        let (_ns, mut s) = fixture();
        let dead = ServerId(3);
        s.session = Some(crate::replication::Session::new_for_tests(dead, 0.0));
        assert!(check_negative_cache(&s).is_empty());
        s.negative.insert(dead, 0.0);
        let v = check_negative_cache(&s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("session targets dead host"), "{v:?}");
    }

    #[test]
    fn lease_freshness_catches_future_stamps() {
        let (_ns, mut s) = fixture();
        assert!(check_lease_freshness(&s, 0.0).is_empty());
        // Future record stamp.
        let own = s.owned_ids().next().unwrap();
        s.owned.get_mut(&own).unwrap().lease_at = 5.0;
        let v = check_lease_freshness(&s, 1.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("leased at"), "{v:?}");
        assert!(check_lease_freshness(&s, 5.0).is_empty(), "stamp == now ok");
    }

    #[test]
    fn lease_freshness_covers_cache_entries() {
        let (ns, mut s) = fixture();
        let far = non_hosted(&ns, &s);
        s.cache.insert(far, NodeMap::singleton(ServerId(1)), 2.0);
        assert!(check_lease_freshness(&s, 2.0).is_empty());
        let v = check_lease_freshness(&s, 1.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cache entry"), "{v:?}");
    }

    #[test]
    fn pending_hygiene_balances_the_query_ledger() {
        // Retry on: pending must equal injected − resolved − dropped.
        assert!(check_pending_hygiene(true, 10, 6, 3, 1).is_empty());
        let v = check_pending_hygiene(true, 10, 6, 3, 2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("expected 1"), "{v:?}");
        // Retry off: the table must stay empty.
        assert!(check_pending_hygiene(false, 10, 6, 3, 0).is_empty());
        assert_eq!(check_pending_hygiene(false, 10, 6, 3, 1).len(), 1);
    }

    #[test]
    fn role_placement_violations_are_caught() {
        use crate::config::RoleConfig;
        use crate::roles::RoleMap;
        // All-edge fleet on a one-level tree: every leaf is its own
        // region, admitted only by the server that owns it.
        let (f, mut servers) = round_robin_fleet(balanced_tree(8, 1), Config::paper_default(4));
        let (ns, mut s) = (f.ns.clone(), servers.swap_remove(0));
        let asg = OwnerAssignment::round_robin(&ns, 4);
        let roles_cfg = RoleConfig {
            enabled: true,
            relay_every: 0,
            keeper_every: 0,
            ..RoleConfig::default()
        };
        let map = RoleMap::build(&ns, &asg, &roles_cfg, 4);
        assert!(check_role_placement(&map, &s).is_empty());
        // A replica planted in a non-admitted region is flagged …
        let bad = ns
            .ids()
            .find(|&n| !s.hosts(n) && !map.admits(s.id, n))
            .unwrap();
        s.replicas.insert(
            bad,
            NodeRecord::new(bad, NodeMap::singleton(ServerId(1)), Meta::new(), 0.0),
        );
        s.digest_dirty = true;
        let v = check_role_placement(&map, &s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("replica"), "{v:?}");
        s.replicas.remove(&bad);
        // … and so is a stored-object copy for a non-owned node.
        s.merge_object(
            bad,
            crate::storage::StoredObject {
                version: 1,
                writer: ServerId(1),
                payload: 0,
            },
        );
        let v = check_role_placement(&map, &s);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("object copy"), "{v:?}");
        // An owned-node copy is exempt: ownership is authoritative.
        let own = s.owned_ids().next().unwrap();
        s.merge_object(
            own,
            crate::storage::StoredObject {
                version: 1,
                writer: ServerId(0),
                payload: 0,
            },
        );
        assert_eq!(check_role_placement(&map, &s).len(), 1);
    }

    #[test]
    fn forward_contract_violations_are_caught() {
        let (ns, s) = fixture();
        let target = non_hosted(&ns, &s);
        let mut p = QueryPacket::new(7, ServerId(1), target, 0.0);
        p.hops = config::TTL_HOPS + 1;
        // No intended_via, wrong prev_hop, TTL blown: three violations.
        let v = check_incremental_progress(&s, &p);
        assert_eq!(v.len(), 3, "{v:?}");

        // A well-formed forward passes.
        let mut ok = QueryPacket::new(8, ServerId(1), target, 0.0);
        ok.hops = 3;
        ok.intended_via = Some(target);
        ok.prev_hop = Some(s.id);
        assert!(check_incremental_progress(&s, &ok).is_empty());

        // Forwarding a query whose target the sender hosts is flagged.
        let hosted = s.owned_ids().next().unwrap();
        let mut bad = QueryPacket::new(9, ServerId(1), hosted, 0.0);
        bad.hops = 1;
        bad.intended_via = Some(hosted);
        bad.prev_hop = Some(s.id);
        let v = check_incremental_progress(&s, &bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("hosts the target"), "{v:?}");
    }
}
