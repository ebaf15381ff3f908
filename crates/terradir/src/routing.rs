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

use terradir_bloom::Digest;
use terradir_namespace::{distance, NodeId, ServerId};

use crate::digests::DigestStore;
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
    /// Servers whose digest claims the nearest name hit so far.
    hits: Vec<ServerId>,
    /// The target and the ancestors the digest scan may test, nearest
    /// first.
    chain: Vec<NodeId>,
    /// Name lengths of `chain`, non-increasing: each ancestor's name is a
    /// byte prefix of the target's.
    lens: Vec<usize>,
}

/// Names per window of the digest scan: one bit each in a `u64` mask.
const WINDOW: usize = 64;

/// Digests hashed together per kernel call (see [`Digest::test_prefixes`]).
const LANES: usize = 4;

/// A `u64` with its low `n` bits set (all of them for `n ≥ 64`).
#[inline]
fn low_bits(n: usize) -> u64 {
    u64::MAX
        .checked_shr(64u32.saturating_sub(n as u32))
        .unwrap_or(0)
}

/// The digest scan over one window of at most [`WINDOW`] chain names.
///
/// The name-major scan it replaces tests chain name `j` against store
/// digest `i` (in `DigestStore::iter` order, the server's own digest
/// counted) exactly when `j·stored + i < budget`, and stops at the first
/// name with a surviving hit. So each digest's hits on the names it may
/// test, minus denied pairs, are folded here into the smallest `j` and
/// every server hitting at that `j`, in store order.
struct WindowScan<'a> {
    store: &'a DigestStore,
    /// The target's name; every window name is a prefix of it.
    name: &'a str,
    chain: &'a [NodeId],
    lens: &'a [usize],
    /// Chain index of the window's first name.
    base: usize,
    /// Window index of the nearest hit so far.
    best: Option<usize>,
    hits: &'a mut Vec<ServerId>,
}

impl WindowScan<'_> {
    /// How many window names a digest may test when the budget lets it
    /// test the first `names` chain names: none past the nearest hit so
    /// far either. Never grows as the scan goes on.
    fn reach(&self, names: usize) -> usize {
        let reach = names.saturating_sub(self.base).min(self.lens.len());
        self.best.map_or(reach, |b| reach.min(b + 1))
    }

    /// Tests a batch of `(budgeted names, server, digest)`, in store
    /// order, in one pass over the target name and folds the hits.
    fn fold<const W: usize>(&mut self, batch: [(usize, ServerId, &Digest); W]) {
        // The first digest reaches furthest; the rest are masked below.
        let reach = batch.first().map_or(0, |&(names, ..)| self.reach(names));
        let lens = self.lens.get(..reach).unwrap_or_default();
        let masks = Digest::test_prefixes(batch.map(|(_, _, d)| d), self.name, lens);
        for ((names, srv, digest), mask) in batch.into_iter().zip(masks) {
            let mut mask = mask & low_bits(self.reach(names));
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let Some(&node) = self.chain.get(j) else {
                    break;
                };
                if self.store.is_denied_at(srv, node, digest.generation()) {
                    continue;
                }
                // `reach` caps `j` at the best so far: a smaller `j`
                // restarts the hit list, an equal one joins it.
                if self.best != Some(j) {
                    self.best = Some(j);
                    self.hits.clear();
                }
                self.hits.push(srv);
                break;
            }
        }
    }
}

/// Picks one of the digest `hits` for a name uniformly at random — the
/// paper's replica-selection rule — preferring servers outside `avoid`.
/// (A deterministic tie-break such as "lowest server id" would funnel all
/// shortcut traffic for a node onto one host and pin it at full load.)
fn pick_hit(hits: &mut [ServerId], avoid: &[ServerId], rng: &mut impl RngCore) -> Option<ServerId> {
    if hits.is_empty() {
        return None;
    }
    // Store iteration order is not deterministic, so sort.
    hits.sort_unstable();
    // Prefer hits outside `avoid`, counting instead of collecting the
    // filtered pool into a second Vec.
    let fresh = hits.iter().filter(|h| !avoid.contains(h)).count();
    let pick = rng.gen_range(0..if fresh == 0 { hits.len() } else { fresh });
    // gen_range keeps pick in bounds, so the result is set.
    if fresh == 0 {
        hits.get(pick).copied()
    } else {
        hits.iter()
            .copied()
            .filter(|h| !avoid.contains(h))
            .nth(pick)
    }
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
        let choice = self.route_ranked(target, avoid, rng, &mut heap, scratch);
        scratch.keys = heap.into_vec();
        choice
    }

    /// Digest shortcut: the nearest of the target and its ancestors (the
    /// provably optimal generated-set members) that some stored digest
    /// claims, at a distance below `best_dist` (the classical candidate's),
    /// and one claiming server.
    ///
    /// Digest-major: each digest hashes the target name once and finishes
    /// at every ancestor's length on the way, four digests at a time. The
    /// tested bits, the test budget, the denials and the selection draw are
    /// those of testing name by name in increasing distance (DESIGN.md
    /// §16.3).
    fn digest_shortcut(
        &self,
        target: NodeId,
        best_dist: u32,
        avoid: &[ServerId],
        rng: &mut impl RngCore,
        scratch: &mut RouteScratch,
    ) -> Option<(NodeId, ServerId)> {
        let store = &self.digest_store;
        let stored = store.len();
        let budget = self.cfg.digest_test_budget;
        let name = self.ns.name(target).as_str();
        // Name `j` is reached only while it beats the classical candidate
        // and the budget has not run out before its first test.
        scratch.chain.clear();
        scratch.lens.clear();
        let mut next = Some(target);
        while let Some(node) = next {
            let j = scratch.chain.len();
            if j as u64 >= u64::from(best_dist) || j.saturating_mul(stored) >= budget {
                break;
            }
            let ancestor = self.ns.name(node).as_str();
            debug_assert!(
                name.as_bytes().starts_with(ancestor.as_bytes()),
                "an ancestor's name is a byte prefix of its descendant's"
            );
            scratch.chain.push(node);
            scratch.lens.push(ancestor.len());
            next = self.ns.parent(node);
        }
        // Windows go nearest first, so the first one with a hit holds the
        // nearest hit overall.
        let windows = scratch
            .chain
            .chunks(WINDOW)
            .zip(scratch.lens.chunks(WINDOW));
        for (w, (chain, lens)) in windows.enumerate() {
            scratch.hits.clear();
            let mut scan = WindowScan {
                store,
                name,
                chain,
                lens,
                base: w * WINDOW,
                best: None,
                hits: &mut scratch.hits,
            };
            let mut batch: [Option<(usize, ServerId, &Digest)>; LANES] = [None; LANES];
            // How many chain names digest `i` may test: those with
            // `j·stored + i < budget`.
            let mut names = budget.div_ceil(stored.max(1));
            for (i, (srv, digest)) in store.iter().enumerate() {
                while names > 0 && (names - 1) * stored + i >= budget {
                    names -= 1;
                }
                if scan.reach(names) == 0 {
                    break; // no later digest reaches further
                }
                if srv == self.id {
                    continue;
                }
                if let Some(slot) = batch.iter_mut().find(|slot| slot.is_none()) {
                    *slot = Some((names, srv, digest));
                }
                if let [Some(a), Some(b), Some(c), Some(d)] = batch {
                    scan.fold([a, b, c, d]);
                    batch = [None; LANES];
                }
            }
            for &entry in batch.iter().flatten() {
                scan.fold([entry]);
            }
            if let Some(j) = scan.best {
                let node = chain.get(j).copied();
                let srv = pick_hit(&mut scratch.hits, avoid, rng);
                return node.zip(srv);
            }
        }
        None
    }

    /// The decision proper, over the keys [`Self::route_with`] ranked.
    fn route_ranked(
        &mut self,
        target: NodeId,
        avoid: &[ServerId],
        rng: &mut impl RngCore,
        heap: &mut BinaryHeap<Reverse<u64>>,
        scratch: &mut RouteScratch,
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

        let digest_hit = if self.cfg.digests && !self.digest_store.is_empty() {
            self.digest_shortcut(target, best_dist, avoid, rng, scratch)
        } else {
            None
        };
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

    /// Counts draws so two scans can be compared on them, not only on
    /// their choice.
    struct CountingRng {
        inner: StdRng,
        draws: usize,
    }

    impl RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }

        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            self.inner.next_u32()
        }
    }

    /// The name-major scan [`ServerState::digest_shortcut`] replaced, kept
    /// as its reference: the target, then each ancestor, against every
    /// stored digest in store order under one shared test budget, stopping
    /// at the first name with a hit.
    fn name_major_shortcut(
        s: &ServerState,
        target: NodeId,
        best_dist: u32,
        avoid: &[ServerId],
        rng: &mut impl RngCore,
    ) -> Option<(NodeId, ServerId)> {
        let mut budget = s.cfg.digest_test_budget;
        let mut chain = Some(target);
        let mut dist = 0u32;
        let mut hits = Vec::new();
        while let Some(node) = chain {
            if dist >= best_dist || budget == 0 {
                break;
            }
            let name = s.ns.name(node).as_str();
            for (srv, digest) in s.digest_store.iter() {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                if srv == s.id {
                    continue;
                }
                if digest.test(name) && !s.digest_store.is_denied_at(srv, node, digest.generation())
                {
                    hits.push(srv);
                }
            }
            if !hits.is_empty() {
                return pick_hit(&mut hits, avoid, rng).map(|srv| (node, srv));
            }
            chain = s.ns.parent(node);
            dist += 1;
        }
        None
    }

    /// Runs both scans from the same RNG state for every combination and
    /// asserts the same choice and the same number of draws. Returns the
    /// reference's choices, so a caller can check what the scenario hit.
    fn assert_scans_agree(
        s: &ServerState,
        targets: &[NodeId],
        best_dists: &[u32],
        avoids: &[&[ServerId]],
    ) -> Vec<Option<(NodeId, ServerId)>> {
        let mut scratch = RouteScratch::default();
        let mut choices = Vec::new();
        for &target in targets {
            for &best_dist in best_dists {
                for &avoid in avoids {
                    for seed in 0..3 {
                        let mut a = CountingRng {
                            inner: StdRng::seed_from_u64(seed),
                            draws: 0,
                        };
                        let mut b = CountingRng {
                            inner: StdRng::seed_from_u64(seed),
                            draws: 0,
                        };
                        let new = s.digest_shortcut(target, best_dist, avoid, &mut a, &mut scratch);
                        let old = name_major_shortcut(s, target, best_dist, avoid, &mut b);
                        let case = format!("target {target:?}, best_dist {best_dist}, avoid {avoid:?}, seed {seed}");
                        assert_eq!(new, old, "choice differs: {case}");
                        assert_eq!(a.draws, b.draws, "draws differ: {case}");
                        choices.push(old);
                    }
                }
            }
        }
        choices
    }

    /// A digest for `server` claiming exactly `hosted`, with a false-positive
    /// rate low enough that the scenarios below hit only what they claim.
    fn claim(ns: &Namespace, server: ServerId, hosted: &[NodeId], generation: u64) -> Digest {
        crate::digests::build_digest(ns, server, hosted.iter(), 8, 1e-4, generation)
    }

    /// The target's ancestor `up` levels above it.
    fn ancestor(ns: &Namespace, mut node: NodeId, up: usize) -> NodeId {
        for _ in 0..up {
            node = ns.parent(node).unwrap();
        }
        node
    }

    const ANY_DIST: [u32; 5] = [0, 1, 2, 3, u32::MAX];

    #[test]
    fn budget_cuts_the_third_name_at_store_index_56() {
        // 100 stored digests and a budget of 256: names 0 and 1 are tested
        // against every digest, name 2 only against store indices 0..56.
        let (ns, cfg, _, servers) = world(4, 6, Config::paper_default(4));
        assert_eq!((cfg.digest_test_budget, cfg.digest_store_slots), (256, 128));
        let target = ns.lookup_str("/0/1/1/0/1/0").unwrap();
        let grand = ancestor(&ns, target, 2);
        let elsewhere = ns.lookup_str("/1/1/1/1/1/1").unwrap();
        let mut base = servers[0].clone();
        for k in 1..=100 {
            base.digest_store
                .observe(ServerId(k), &claim(&ns, ServerId(k), &[elsewhere], 1));
        }
        let order: Vec<ServerId> = base.digest_store.iter().map(|(srv, _)| srv).collect();
        assert_eq!(order.len(), 100);
        // Fresher digests replace stored ones in place, so the order holds.
        let claiming = |positions: &[usize]| {
            let mut s = base.clone();
            for &p in positions {
                let srv = order[p];
                s.digest_store.observe(srv, &claim(&ns, srv, &[grand], 2));
            }
            assert_eq!(
                s.digest_store
                    .iter()
                    .map(|(srv, _)| srv)
                    .collect::<Vec<_>>(),
                order
            );
            s
        };
        let avoid_two = [order[10], order[55]];
        let avoids: [&[ServerId]; 3] = [&[], &avoid_two[..1], &avoid_two];

        // Only digests past the cut claim the grandparent: no shortcut.
        let past_cut = claiming(&(56..100).collect::<Vec<_>>());
        let choices = assert_scans_agree(&past_cut, &[target], &ANY_DIST, &avoids);
        assert!(choices.iter().all(Option::is_none));

        // Claims on both sides of the cut: only those before it count.
        let both_sides = claiming(&[10, 55, 56, 90]);
        let choices = assert_scans_agree(&both_sides, &[target], &ANY_DIST, &avoids);
        assert!(choices.contains(&Some((grand, order[10]))));
        assert!(choices.contains(&Some((grand, order[55]))));
        assert!(choices
            .iter()
            .flatten()
            .all(|&(n, srv)| n == grand && avoid_two.contains(&srv)));
    }

    #[test]
    fn own_digest_is_skipped_but_counts_against_the_budget() {
        let (ns, _, _, servers) = world(4, 6, Config::paper_default(4));
        let target = ns.lookup_str("/1/0/0/1/1/0").unwrap();
        let parent = ancestor(&ns, target, 1);
        let mut s = servers[0].clone();
        let own = s.id;
        s.digest_store.observe(own, &claim(&ns, own, &[target], 1));
        for k in 1..=99 {
            let hosted: &[NodeId] = match k {
                7 => &[target],
                11 | 12 => &[parent],
                _ => &[],
            };
            s.digest_store
                .observe(ServerId(k), &claim(&ns, ServerId(k), hosted, 1));
        }
        let avoids: [&[ServerId]; 3] = [&[], &[ServerId(7)], &[own, ServerId(7), ServerId(11)]];
        let choices = assert_scans_agree(&s, &[target, parent], &ANY_DIST, &avoids);
        assert!(choices.contains(&Some((target, ServerId(7)))));
        assert!(choices.contains(&Some((parent, ServerId(12)))));
        assert!(choices.iter().flatten().all(|&(_, srv)| srv != own));

        // With 128 stored (own included) the budget reaches ⌈256 / 128⌉ = 2
        // names, so grandparent claims never count.
        for k in 100..=127 {
            s.digest_store.observe(
                ServerId(k),
                &claim(&ns, ServerId(k), &[ancestor(&ns, target, 2)], 1),
            );
        }
        assert_eq!(s.digest_store.len(), 128);
        let choices = assert_scans_agree(&s, &[target], &[u32::MAX], &avoids);
        assert!(choices
            .iter()
            .flatten()
            .all(|&(n, _)| n != ancestor(&ns, target, 2)));
    }

    #[test]
    fn denied_hits_fall_through_to_the_next_name() {
        let (ns, _, _, servers) = world(4, 6, Config::paper_default(4));
        let target = ns.lookup_str("/0/0/1/1/0/1").unwrap();
        let parent = ancestor(&ns, target, 1);
        let grand = ancestor(&ns, target, 2);
        let mut s = servers[0].clone();
        // 3 claims target and parent, 4 and 5 the parent, 6 the grandparent.
        let claims: [(u32, &[NodeId]); 4] = [
            (3, &[target, parent]),
            (4, &[parent]),
            (5, &[parent]),
            (6, &[grand]),
        ];
        for (k, hosted) in claims {
            s.digest_store
                .observe(ServerId(k), &claim(&ns, ServerId(k), hosted, 1));
        }
        let avoids: [&[ServerId]; 2] = [&[], &[ServerId(3), ServerId(5)]];
        let choices = assert_scans_agree(&s, &[target], &ANY_DIST, &avoids);
        assert!(choices.iter().flatten().all(|&(n, _)| n == target));

        // Denied on the target, server 3 still counts at the parent.
        s.digest_store.deny(ServerId(3), target);
        s.digest_store.deny(ServerId(4), parent);
        let choices = assert_scans_agree(&s, &[target], &ANY_DIST, &avoids);
        assert!(choices.contains(&Some((parent, ServerId(3)))));
        assert!(choices.contains(&Some((parent, ServerId(5)))));
        assert!(choices
            .iter()
            .flatten()
            .all(|&(n, srv)| n == parent && srv != ServerId(4)));

        // Every parent claim denied too: the grandparent wins.
        s.digest_store.deny(ServerId(3), parent);
        s.digest_store.deny(ServerId(5), parent);
        let choices = assert_scans_agree(&s, &[target], &ANY_DIST, &avoids);
        assert!(choices.contains(&Some((grand, ServerId(6)))));
    }

    #[test]
    fn deep_chains_scan_in_64_name_windows() {
        // A unary tree 100 levels deep: the target's chain has 101 names,
        // more than one mask holds. One stored digest, so the budget
        // reaches every name.
        let ns = Arc::new(balanced_tree(1, 100));
        let cfg = Arc::new(Config::paper_default(4));
        let asg = OwnerAssignment::round_robin(&ns, 4);
        let server = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        let target = ns.ids().find(|&n| ns.depth(n) == 100).unwrap();
        let dists = [1, 60, 63, 64, 65, 90, 91, 100, u32::MAX];
        for claimed_depth in [
            None,
            Some(100),
            Some(40),
            Some(37),
            Some(36),
            Some(35),
            Some(10),
            Some(0),
        ] {
            let mut s = server.clone();
            let hosted: Vec<NodeId> = claimed_depth
                .map(|d| ancestor(&ns, target, 100 - d))
                .into_iter()
                .collect();
            s.digest_store
                .observe(ServerId(2), &claim(&ns, ServerId(2), &hosted, 1));
            let avoids: [&[ServerId]; 2] = [&[], &[ServerId(2)]];
            let choices = assert_scans_agree(&s, &[target], &dists, &avoids);
            let found = choices.iter().flatten().count();
            assert_eq!(
                found > 0,
                claimed_depth.is_some(),
                "claim at depth {claimed_depth:?}"
            );
        }
        // Three stored digests: the budget reaches chain name j at store
        // index i only while 3j + i < 256, which cuts the second window at
        // j = 85 (depth 15), where only store index 0 is tested.
        for (claimed_depth, reachable) in [(16, true), (15, true), (14, false), (10, false)] {
            let mut s = server.clone();
            let node = ancestor(&ns, target, 100 - claimed_depth);
            for k in 1..=3 {
                s.digest_store
                    .observe(ServerId(k), &claim(&ns, ServerId(k), &[node], 1));
            }
            let choices = assert_scans_agree(&s, &[target], &[u32::MAX], &[&[]]);
            let found = choices.iter().flatten().count();
            assert_eq!(found > 0, reachable, "claim at depth {claimed_depth}");
        }
    }

    #[test]
    fn random_stores_scan_like_the_name_major_loop() {
        // Random hosted sets in small, loaded filters (many false
        // positives), random denials, the server's own digest in some
        // stores, and store sizes on both sides of the budget's cuts.
        let (ns, _, _, servers) = world(4, 7, Config::paper_default(4));
        let mut rng = StdRng::seed_from_u64(20);
        let nodes: Vec<NodeId> = ns.ids().collect();
        for round in 0..12 {
            let mut s = servers[0].clone();
            let stored = [1, 2, 3, 5, 9, 40, 85, 100, 127, 128][round % 10];
            for k in 0..stored {
                let srv = if round % 3 == 0 && k == 0 && stored > 1 {
                    s.id
                } else {
                    ServerId(k as u32 + 1)
                };
                let hosted: Vec<NodeId> = (0..rng.gen_range(0..(200 / stored).clamp(2, 24)))
                    .map(|_| nodes[rng.gen_range(0..nodes.len())])
                    .collect();
                let digest = crate::digests::build_digest(&ns, srv, hosted.iter(), 8, 0.05, 1);
                s.digest_store.observe(srv, &digest);
            }
            let targets: Vec<NodeId> = (0..24)
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            for _ in 0..20 {
                let srv = ServerId(rng.gen_range(1..=stored as u32));
                let up: usize = rng.gen_range(0..3);
                let t = targets[rng.gen_range(0..targets.len())];
                let node = ancestor(&ns, t, up.min(usize::from(ns.depth(t))));
                s.digest_store.deny(srv, node);
            }
            let avoid = [ServerId(1), ServerId(2), ServerId(3)];
            let avoids: [&[ServerId]; 2] = [&[], &avoid];
            let choices = assert_scans_agree(&s, &targets, &[0, 1, 2, 4, u32::MAX], &avoids);
            assert!(
                choices.iter().any(Option::is_some),
                "round {round} found nothing"
            );
        }
    }
}
