//! The routing decision procedure.
//!
//! "A server routing query q always chooses the closest node to the target
//! that it knows about, and forwards the query to one of the servers in
//! that node's map" (paper §3.6.1). The knows-about set is:
//!
//! - hosted nodes (owned + replicas) — these resolve the query outright if
//!   one *is* the target, and contribute their **context** (neighbor maps)
//!   otherwise;
//! - neighbors of hosted nodes (the context itself);
//! - cached nodes (shortcut pointers);
//! - plus, with digests enabled, any node the server can *infer* a host for
//!   by prefix extraction and digest testing (§3.6.1).
//!
//! A hosted node is never the best forwarding candidate: if the server
//! hosts `h ≠ target`, `h`'s neighbor on the path toward the target is one
//! unit closer and is in the candidate set, so routing through replicas is
//! "functionally equivalent to routing through the original node" with no
//! self-hop (the paper's *abstract* step C in Fig. 1).
//!
//! Digest shortcut optimality: for any node `m`, `lca(m, target)` is an
//! ancestor of the target at namespace distance ≤ `d(m, target)`. The
//! prefix-extracted generated set therefore never contains a strictly
//! closer testable name than the target's own ancestor chain — so testing
//! `target` and its ancestors in increasing-distance order examines exactly
//! the names that can improve on the classical candidate, in optimal order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;
use rand::RngCore;

use terradir_namespace::{distance, NodeId, ServerId};

use crate::map::NodeMap;
use crate::server::ServerState;

/// Outcome of one routing decision.
#[derive(Debug, Clone)]
pub enum RouteChoice {
    /// This server hosts the target: resolve locally.
    Resolve,
    /// Forward to `to`, routing via knowledge about node `via`.
    Forward {
        /// The known node whose map was used.
        via: NodeId,
        /// The chosen host from that map.
        to: ServerId,
        /// The hosted node whose routing context produced the candidate,
        /// if any — its demand counter is charged for this step.
        used_context_of: Option<NodeId>,
        /// Snapshot of the map used, appended to the propagated path.
        map_snapshot: NodeMap,
    },
    /// No usable candidate (cannot happen with a connected bootstrap; kept
    /// as a defensive terminal state).
    Stuck,
}

/// How a forwarding candidate was known (exposed for tests/metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// Via a hosted node's routing context.
    Neighbor,
    /// Via a cache pointer.
    Cache,
    /// Via an inverse-mapping digest hit.
    Digest,
}

/// Per-server scratch buffers for [`ServerState::decide_route`], kept
/// across calls so a route decision allocates nothing of its own.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteScratch {
    /// Packed candidate keys (see [`pack`]). Each decision heapifies the
    /// buffer in place into a min-heap, pops what it needs and hands the
    /// buffer back.
    keys: Vec<Reverse<u64>>,
    /// Servers whose digest claims the name under test.
    hits: Vec<ServerId>,
}

/// Packs a forwarding candidate into one sortable key: distance in the
/// high bits, then node id, then a kind bit that puts a context neighbor
/// before a cache entry for the same node. Keys are unique per
/// `(node, kind)`, so popping them from a min-heap yields them in
/// `(distance, node id)` order.
/// Distances are at most twice the `u16` tree depth, far below 2^31.
#[inline]
fn pack(dist: u32, node: NodeId, kind: HopKind) -> u64 {
    (u64::from(dist) << 33) | (u64::from(node.0) << 1) | u64::from(kind == HopKind::Cache)
}

/// Inverse of [`pack`]: `(distance, node, kind)`.
#[inline]
fn unpack(key: u64) -> (u32, NodeId, HopKind) {
    let kind = if key & 1 == 1 {
        HopKind::Cache
    } else {
        HopKind::Neighbor
    };
    ((key >> 33) as u32, NodeId((key >> 1) as u32), kind)
}

impl ServerState {
    /// Decides how to route a query for `target` from this server,
    /// preferring forwarding destinations outside `avoid` (the packet's
    /// recently visited servers — loop damping).
    pub(crate) fn decide_route(
        &mut self,
        target: NodeId,
        avoid: &[ServerId],
        rng: &mut impl RngCore,
    ) -> RouteChoice {
        if self.hosts(target) {
            return RouteChoice::Resolve;
        }
        // Detach the scratch buffers so the decision may mutate server
        // state while it walks them (taking an empty Vec allocates nothing).
        let mut scratch = std::mem::take(&mut self.route_scratch);
        let choice = self.route_with(target, avoid, rng, &mut scratch);
        self.route_scratch = scratch;
        choice
    }

    /// Whether a ranked key is a real forwarding candidate: context
    /// neighbors and cached pointers, excluding nodes we host (their
    /// contexts already contribute) and cache entries that duplicate a
    /// context neighbor. Pure, so testing it lazily in rank order keeps
    /// exactly the candidates an eager filter would, in the same order.
    fn is_candidate(&self, node: NodeId, kind: HopKind) -> bool {
        !self.hosts(node) && (kind == HopKind::Neighbor || !self.neighbor_maps.contains_key(&node))
    }

    fn route_with(
        &mut self,
        target: NodeId,
        avoid: &[ServerId],
        rng: &mut impl RngCore,
        scratch: &mut RouteScratch,
    ) -> RouteChoice {
        // Rank first, filter lazily: one packed key per context neighbor
        // and cache entry, heapified in O(n) so the (distance, node id)
        // order is ready before any exclusion lookup runs. Keys are then
        // popped, and the exclusions paid, only for the candidates the
        // decision actually reaches — usually just the head.
        let mut keys = std::mem::take(&mut scratch.keys);
        keys.clear();
        let ns = &self.ns;
        keys.extend(
            self.neighbor_maps
                .keys()
                .map(|&n| Reverse(pack(distance(ns, n, target), n, HopKind::Neighbor))),
        );
        if self.cfg.caching {
            keys.extend(
                self.cache
                    .iter()
                    .map(|(n, _)| Reverse(pack(distance(ns, n, target), n, HopKind::Cache))),
            );
        }
        // `From<Vec>` heapifies in place and `into_vec` returns the same
        // buffer, so the scratch allocation is reused on every exit.
        let mut heap = BinaryHeap::from(keys);
        let choice = self.route_ranked(target, avoid, rng, &mut heap, &mut scratch.hits);
        scratch.keys = heap.into_vec();
        choice
    }

    /// The decision proper, over the keys [`Self::route_with`] ranked.
    fn route_ranked(
        &mut self,
        target: NodeId,
        avoid: &[ServerId],
        rng: &mut impl RngCore,
        heap: &mut BinaryHeap<Reverse<u64>>,
        hits: &mut Vec<ServerId>,
    ) -> RouteChoice {
        // Drop ranked keys that are no candidates until the best one is
        // on top; its distance bounds the digest scan.
        while let Some(&Reverse(key)) = heap.peek() {
            let (_, n, kind) = unpack(key);
            if self.is_candidate(n, kind) {
                break;
            }
            heap.pop();
        }
        let best_dist = heap.peek().map_or(u32::MAX, |&Reverse(k)| unpack(k).0);

        // Digest shortcut: test the target and its ancestors (the provably
        // optimal generated-set members) in increasing-distance order, but
        // only at distances that would beat the classical candidate.
        let mut digest_hit: Option<(NodeId, ServerId)> = None;
        if self.cfg.digests && !self.digest_store.is_empty() {
            let mut budget = self.cfg.digest_test_budget;
            let mut chain = Some(target);
            let mut dist = 0u32;
            while let Some(node) = chain {
                if dist >= best_dist || budget == 0 {
                    break;
                }
                let name = self.ns.name(node).as_str();
                // Collect every hit for this name and pick one uniformly at
                // random — the paper's replica-selection rule. (A
                // deterministic tie-break such as "lowest server id" would
                // funnel all shortcut traffic for a node onto one host and
                // pin it at full load.)
                hits.clear();
                for (srv, digest) in self.digest_store.iter() {
                    if budget == 0 {
                        break;
                    }
                    budget -= 1;
                    if srv == self.id {
                        continue;
                    }
                    // Bloom test first: denials only matter on a hit, and
                    // the generation comes from the digest in hand.
                    if digest.test(name)
                        && !self
                            .digest_store
                            .is_denied_at(srv, node, digest.generation())
                    {
                        hits.push(srv);
                    }
                }
                if !hits.is_empty() {
                    // Store iteration order is not deterministic, so sort.
                    hits.sort_unstable();
                    // Prefer hits outside `avoid`, counting instead of
                    // collecting the filtered pool into a second Vec.
                    let fresh = hits.iter().filter(|h| !avoid.contains(h)).count();
                    let pick = rng.gen_range(0..if fresh == 0 { hits.len() } else { fresh });
                    let chosen = if fresh == 0 {
                        hits.get(pick).copied()
                    } else {
                        hits.iter()
                            .copied()
                            .filter(|h| !avoid.contains(h))
                            .nth(pick)
                    };
                    // gen_range keeps pick in bounds, so `chosen` is set.
                    digest_hit = chosen.map(|srv| (node, srv));
                    break;
                }
                chain = self.ns.parent(node);
                dist += 1;
            }
        }

        if let Some((node, srv)) = digest_hit {
            return RouteChoice::Forward {
                via: node,
                to: srv,
                used_context_of: None,
                map_snapshot: NodeMap::singleton(srv),
            };
        }

        // Walk candidates in preference order. A candidate is skipped when
        // its map has no usable host: only ourselves (stale self-pointer),
        // or only servers this packet just visited (loop damping — the
        // next-best candidate makes progress through the tree instead of
        // bouncing). The first all-avoided candidate is kept as a last
        // resort so the query never strands when every host was visited.
        let mut fallback: Option<(NodeId, HopKind, NodeMap)> = None;
        while let Some(Reverse(key)) = heap.pop() {
            let (_, via, kind) = unpack(key);
            if !self.is_candidate(via, kind) {
                continue;
            }
            // Candidates were enumerated from these same tables, so the
            // lookups can only miss on concurrent mutation (impossible
            // here); skipping is the safe degradation.
            // The working copy detaches the borrow so filter_map may mutate
            // server state; the packet takes ownership of the survivor below.
            let map = match kind {
                // xtask: allow(alloc): detached working copy, see above
                HopKind::Neighbor => self.neighbor_maps.get(&via).cloned(),
                // xtask: allow(alloc): detached working copy, cache side
                HopKind::Cache => self.cache.peek(via).cloned(),
                HopKind::Digest => None, // digest hits return early
            };
            let Some(mut map) = map else {
                continue;
            };
            self.filter_map(via, &mut map);
            map.remove(self.id, true);
            if map.is_empty() {
                if kind == HopKind::Cache {
                    self.cache.remove(via);
                }
                continue;
            }
            if map.entries().iter().all(|h| avoid.contains(h)) {
                if fallback.is_none() {
                    fallback = Some((via, kind, map));
                }
                continue;
            }
            let Some(to) = map.select_avoiding(avoid, rng) else {
                continue;
            };
            // Write the (possibly pruned) map back so filtering pays
            // forward, and touch the cache entry ("touched whenever used
            // in routing").
            let used_context_of = match kind {
                HopKind::Neighbor => {
                    if let Some(stored) = self.neighbor_maps.get_mut(&via) {
                        // clone_from reuses the stored map's buffer.
                        stored.clone_from(&map);
                    }
                    // Attribute the demand to a hosted node whose context
                    // gave us this neighbor (deterministic: smallest id).
                    self.hosted_neighbor(via)
                }
                HopKind::Cache => {
                    if let Some(m) = self.cache.get_mut(via) {
                        // clone_from reuses the cached map's buffer.
                        m.clone_from(&map);
                    }
                    None
                }
                HopKind::Digest => unreachable!(),
            };
            return RouteChoice::Forward {
                via,
                to,
                used_context_of,
                map_snapshot: map,
            };
        }
        // Everything usable was recently visited: take the best of it
        // anyway rather than stranding the query.
        if let Some((via, kind, map)) = fallback {
            if let Some(to) = map.select_avoiding(&[], rng) {
                if kind == HopKind::Cache {
                    self.cache.get(via); // LRU touch
                }
                return RouteChoice::Forward {
                    via,
                    to,
                    used_context_of: None,
                    map_snapshot: map,
                };
            }
        }
        RouteChoice::Stuck
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
    use crate::config::Config;
    use crate::messages::{Message, QueryPacket};
    use crate::server::Outgoing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use terradir_namespace::{balanced_tree, Namespace, OwnerAssignment};

    fn world(
        n_servers: u32,
        levels: u16,
        cfg: Config,
    ) -> (
        Arc<Namespace>,
        Arc<Config>,
        OwnerAssignment,
        Vec<ServerState>,
    ) {
        let ns = Arc::new(balanced_tree(2, levels));
        let cfg = Arc::new(cfg);
        let asg = OwnerAssignment::round_robin(&ns, n_servers);
        let servers: Vec<ServerState> = (0..n_servers)
            .map(|i| ServerState::new(ServerId(i), Arc::clone(&ns), Arc::clone(&cfg), &asg))
            .collect();
        (ns, cfg, asg, servers)
    }

    #[test]
    fn scratch_heap_pops_keys_in_sorted_order() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = RouteScratch::default();
        for n in [0usize, 1, 2, 17, 175, 1000] {
            let mut sorted: Vec<u64> = (0..n)
                .map(|_| {
                    let kind = if rng.gen_bool(0.5) {
                        HopKind::Cache
                    } else {
                        HopKind::Neighbor
                    };
                    pack(rng.gen_range(0..64), NodeId(rng.gen_range(0..4096)), kind)
                })
                .collect();
            sorted.sort_unstable();
            sorted.dedup();
            let mut shuffled = sorted.clone();
            shuffled.shuffle(&mut rng);
            scratch.keys.clear();
            scratch.keys.extend(shuffled.iter().map(|&k| Reverse(k)));
            let buffer = scratch.keys.as_ptr();
            let mut heap = BinaryHeap::from(std::mem::take(&mut scratch.keys));
            let popped: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(k)| k)).collect();
            assert_eq!(popped, sorted, "{n} keys");
            scratch.keys = heap.into_vec();
            assert_eq!(scratch.keys.as_ptr(), buffer, "the heap reuses the buffer");
        }
    }

    #[test]
    fn resolves_hosted_target() {
        let (_, _, asg, mut servers) = world(4, 3, Config::paper_default(4));
        let mut rng = StdRng::seed_from_u64(1);
        let target = asg.owned_by(ServerId(0))[0];
        assert!(matches!(
            servers[0].decide_route(target, &[], &mut rng),
            RouteChoice::Resolve
        ));
    }

    #[test]
    fn forwards_with_incremental_progress_from_clean_state() {
        // With bootstrap-only state (neighbor maps with true owners) every
        // hop must reduce distance by exactly 1 — the incremental-progress
        // guarantee.
        let (ns, _, asg, mut servers) = world(4, 4, Config::base_system(4));
        let mut rng = StdRng::seed_from_u64(2);
        for target in ns.ids() {
            for start in 0..4u32 {
                let s = &mut servers[start as usize];
                if s.hosts(target) {
                    continue;
                }
                // The best candidate among the server's contexts.
                let my_best: u32 = s
                    .neighbor_maps
                    .keys()
                    .map(|&n| distance(&ns, n, target))
                    .min()
                    .unwrap();
                match s.decide_route(target, &[], &mut rng) {
                    RouteChoice::Forward { via, to, .. } => {
                        assert_eq!(distance(&ns, via, target), my_best);
                        // The bootstrap map points at the true owner.
                        assert_eq!(to, asg.owner(via));
                    }
                    other => panic!("expected forward, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn cache_pointer_shortcuts_routing() {
        let (ns, _, asg, mut servers) = world(8, 4, Config::caching_only(8));
        let mut rng = StdRng::seed_from_u64(3);
        // Pick a target far from server 0's owned nodes and cache a direct
        // pointer for it.
        let target = ns
            .ids()
            .find(|&n| !servers[0].hosts(n) && !servers[0].neighbor_maps.contains_key(&n))
            .unwrap();
        let owner = asg.owner(target);
        servers[0]
            .cache
            .insert(target, NodeMap::singleton(owner), 0.0);
        match servers[0].decide_route(target, &[], &mut rng) {
            RouteChoice::Forward {
                via,
                to,
                used_context_of,
                ..
            } => {
                assert_eq!(via, target, "cache hit should route via the target");
                assert_eq!(to, owner);
                assert_eq!(used_context_of, None, "cache hops charge no hosted node");
            }
            other => panic!("expected cache forward, got {other:?}"),
        }
    }

    #[test]
    fn digest_hit_beats_classical_candidate() {
        let (ns, _, _, mut servers) = world(8, 4, Config::paper_default(8));
        let mut rng = StdRng::seed_from_u64(4);
        // Give server 0 a digest for a fake server 7 claiming to host the
        // target itself — distance 0 beats anything classical.
        let target = ns
            .ids()
            .find(|&n| !servers[0].hosts(n) && !servers[0].neighbor_maps.contains_key(&n))
            .unwrap();
        let digest = crate::digests::build_digest(&ns, ServerId(7), [target].iter(), 8, 0.01, 1);
        servers[0].digest_store.observe(ServerId(7), &digest);
        match servers[0].decide_route(target, &[], &mut rng) {
            RouteChoice::Forward { via, to, .. } => {
                assert_eq!(via, target);
                assert_eq!(to, ServerId(7));
            }
            other => panic!("expected digest forward, got {other:?}"),
        }
    }

    #[test]
    fn weight_charged_to_context_owner() {
        let (ns, _, _, mut servers) = world(4, 4, Config::base_system(4));
        let mut rng = StdRng::seed_from_u64(5);
        // Find a target not hosted by server 0.
        let target = ns.ids().find(|&n| !servers[0].hosts(n)).unwrap();
        match servers[0].decide_route(target, &[], &mut rng) {
            RouteChoice::Forward {
                via,
                used_context_of: Some(h),
                ..
            } => {
                assert!(servers[0].hosts(h));
                assert!(ns.neighbors(via).contains(&h));
            }
            other => panic!("expected context-charged forward, got {other:?}"),
        }
    }

    #[test]
    fn full_query_walk_terminates_at_owner() {
        // Route a query hop by hop through the real decision procedure on
        // bootstrap state and verify it reaches the owner in exactly
        // d(start_best, target) hops.
        let (ns, _, asg, mut servers) = world(4, 5, Config::base_system(4));
        let mut rng = StdRng::seed_from_u64(6);
        let target = ns.lookup_str("/1/0/1/0/1").unwrap();
        let mut at = ServerId(0);
        if servers[0].hosts(target) {
            return; // trivially resolved; other tests cover that
        }
        let mut hops = 0;
        loop {
            let s = &mut servers[at.index()];
            let mut out = Vec::new();
            let p = QueryPacket::new(1, ServerId(0), target, 0.0);
            s.handle_message(0.0, Message::Query(p), &mut rng, &mut out);
            match &out[0] {
                Outgoing::Send {
                    to,
                    msg: Message::Query(_),
                } => {
                    at = *to;
                    hops += 1;
                    assert!(hops < 64, "routing loop");
                }
                Outgoing::Send {
                    to,
                    msg: Message::QueryResult { resolved_by, .. },
                } => {
                    assert_eq!(*to, ServerId(0));
                    assert_eq!(*resolved_by, asg.owner(target));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(hops >= 1);
    }
}
