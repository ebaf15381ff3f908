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

/// What a ranked key stands for: the 2-bit kind field of a [`pack`]ed
/// key. A context neighbor sorts before a cache entry for the same node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    /// A node in a hosted node's routing context.
    Neighbor = 0,
    /// A cache pointer.
    Cache = 1,
    /// All children of the hosted directory the key names, except the
    /// one on the target's root path; expanded when it reaches the top.
    Children = 2,
}

/// Packs a ranked key into one sortable `u64`: distance in the high
/// bits, then node id, then the [`Key`] kind. Popping keys from a
/// min-heap yields them in `(distance, node id, kind)` order.
/// Distances are at most twice the `u16` tree depth, far below 2^30.
#[inline]
fn pack(dist: u32, node: NodeId, kind: Key) -> u64 {
    (u64::from(dist) << 34) | (u64::from(node.0) << 2) | kind as u64
}

/// Inverse of [`pack`]: `(distance, node, kind)`.
#[inline]
fn unpack(key: u64) -> (u32, NodeId, Key) {
    let kind = match key & 3 {
        0 => Key::Neighbor,
        1 => Key::Cache,
        _ => Key::Children,
    };
    ((key >> 34) as u32, NodeId((key >> 2) as u32), kind)
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

    /// Whether a ranked neighbor or cache key is a real forwarding
    /// candidate: a context neighbor this server keeps a map for, or a
    /// cached pointer that duplicates no context neighbor, and in either
    /// case no node we host (its context already contributes). Pure, so
    /// testing it lazily in rank order keeps exactly the candidates an
    /// eager filter would, in the same order.
    fn is_candidate(&self, node: NodeId, kind: Key) -> bool {
        !self.hosts(node) && self.neighbor_maps.contains_key(&node) == (kind == Key::Neighbor)
    }

    /// Ranks one key per node the route decision may forward through,
    /// built from the hosted set rather than from every context map:
    /// each hosted `h` costs one distance, and its children off the
    /// target's root path share one [`Key::Children`] key, since they
    /// all sit one step further from the target than `h`. A node reached
    /// from two hosted contexts gets two equal keys (DESIGN.md §16.3).
    fn rank_keys(&self, target: NodeId, keys: &mut Vec<Reverse<u64>>) {
        let ns = &self.fleet.ns;
        let path = ns.root_path(target);
        for h in self.hosted_ids() {
            let d = distance(ns, h, target);
            let depth = usize::from(ns.depth(h));
            // `h` is not the target (hosting it resolves), so it is an
            // ancestor of the target exactly when it is on the root path.
            let ancestor = path.get(depth) == Some(&h);
            if let Some(parent) = ns.parent(h) {
                let up = if ancestor { d + 1 } else { d - 1 };
                keys.push(Reverse(pack(up, parent, Key::Neighbor)));
            }
            let mut others = ns.children(h).len();
            if let Some(&next) = path.get(depth + 1).filter(|_| ancestor) {
                keys.push(Reverse(pack(d - 1, next, Key::Neighbor)));
                others -= 1;
            }
            if others > 0 {
                keys.push(Reverse(pack(d + 1, h, Key::Children)));
            }
        }
        if self.fleet.cfg.caching {
            keys.extend(
                self.cache
                    .nodes()
                    .iter()
                    .map(|&n| Reverse(pack(distance(ns, n, target), n, Key::Cache))),
            );
        }
    }

    /// Replaces a [`Key::Children`] key for directory `dir` at distance
    /// `dist` by one neighbor key per child off the target's root path.
    /// Child ids exceed `dir`'s, so every pushed key sorts after the one
    /// just popped and the heap keeps yielding `(distance, node id,
    /// kind)` order.
    fn expand_children(
        &self,
        heap: &mut BinaryHeap<Reverse<u64>>,
        dist: u32,
        dir: NodeId,
        target: NodeId,
    ) {
        let children = self.fleet.ns.children(dir);
        debug_assert!(
            children.windows(2).all(|w| w.first() < w.last())
                && children.first().is_none_or(|&c| c > dir),
            "child ids ascend past their parent's"
        );
        // The on-path child, if `dir` is an ancestor of the target, was
        // ranked on its own one step closer; any other entry of the root
        // path is no child of `dir`.
        let on_path = self
            .fleet
            .ns
            .root_path(target)
            .get(usize::from(self.fleet.ns.depth(dir)) + 1);
        for &c in children {
            if Some(&c) != on_path {
                heap.push(Reverse(pack(dist, c, Key::Neighbor)));
            }
        }
    }

    /// Drops ranked keys that are no candidates, and expands children
    /// keys, until a candidate is on top; returns its key.
    fn settle(&self, heap: &mut BinaryHeap<Reverse<u64>>, target: NodeId) -> Option<u64> {
        while let Some(&Reverse(key)) = heap.peek() {
            let (dist, node, kind) = unpack(key);
            if kind != Key::Children && self.is_candidate(node, kind) {
                return Some(key);
            }
            heap.pop();
            if kind == Key::Children {
                self.expand_children(heap, dist, node, target);
            }
        }
        None
    }

    /// Pops the next candidate's key in rank order, once per node and
    /// kind. `last` is the key popped before, `None` at the start.
    fn pop_candidate(
        &self,
        heap: &mut BinaryHeap<Reverse<u64>>,
        target: NodeId,
        last: &mut Option<u64>,
    ) -> Option<u64> {
        while let Some(key) = self.settle(heap, target) {
            heap.pop();
            // Equal keys pop back to back: a node reached from two hosted
            // contexts is one candidate.
            if last.replace(key) != Some(key) {
                return Some(key);
            }
        }
        None
    }

    fn route_with(
        &mut self,
        target: NodeId,
        avoid: &[ServerId],
        rng: &mut impl RngCore,
        scratch: &mut RouteScratch,
    ) -> RouteChoice {
        // Rank first, filter lazily: the packed keys are heapified in
        // O(n) so the (distance, node id) order is ready before any
        // exclusion lookup runs. Keys are then popped, and the exclusions
        // paid, only for the candidates the decision actually reaches —
        // usually just the head.
        let mut keys = std::mem::take(&mut scratch.keys);
        keys.clear();
        self.rank_keys(target, &mut keys);
        // `From<Vec>` heapifies in place and `into_vec` returns the same
        // buffer, so the scratch allocation is reused on every exit.
        let mut heap = BinaryHeap::from(keys);
        let choice = self.route_ranked(target, avoid, rng, &mut heap, scratch);
        scratch.keys = heap.into_vec();
        choice
    }

    /// How many keys the route decision for `target` ranks before it pops
    /// any (a diagnostic for benches; the decision itself reuses a
    /// scratch buffer).
    pub fn ranked_key_count(&self, target: NodeId) -> usize {
        let mut keys = Vec::new();
        self.rank_keys(target, &mut keys);
        keys.len()
    }

    /// Builds the forward through `via`, known as `kind`, to `to`. Writes
    /// the (possibly pruned) map back so filtering pays forward, touches
    /// a cache entry ("touched whenever used in routing"), and charges a
    /// context neighbor's forward to a hosted node whose context gave us
    /// that neighbor (deterministic: the smallest id).
    fn forward(&mut self, kind: HopKind, via: NodeId, to: ServerId, map: NodeMap) -> RouteChoice {
        let used_context_of = match kind {
            HopKind::Neighbor => {
                if let Some(stored) = self.neighbor_maps.get_mut(&via) {
                    stored.map = map;
                }
                self.hosted_neighbor(via)
            }
            HopKind::Cache => {
                if let Some(m) = self.cache.get_mut(via) {
                    *m = map;
                }
                None
            }
            HopKind::Digest => None,
        };
        RouteChoice::Forward {
            via,
            to,
            used_context_of,
            map_snapshot: map,
        }
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
        let budget = self.fleet.cfg.digest_test_budget;
        let name = self.fleet.ns.name(target).as_str();
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
            let ancestor = self.fleet.ns.name(node).as_str();
            debug_assert!(
                name.as_bytes().starts_with(ancestor.as_bytes()),
                "an ancestor's name is a byte prefix of its descendant's"
            );
            scratch.chain.push(node);
            scratch.lens.push(ancestor.len());
            next = self.fleet.ns.parent(node);
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
        // The best candidate's distance bounds the digest scan.
        let best_dist = self.settle(heap, target).map_or(u32::MAX, |k| unpack(k).0);

        let digest_hit = if self.fleet.cfg.digests && !self.digest_store.is_empty() {
            self.digest_shortcut(target, best_dist, avoid, rng, scratch)
        } else {
            None
        };
        if let Some((node, srv)) = digest_hit {
            return self.forward(HopKind::Digest, node, srv, NodeMap::singleton(srv));
        }

        // Walk candidates in preference order. A candidate is skipped when
        // its map has no usable host: only ourselves (stale self-pointer),
        // or only servers this packet just visited (loop damping — the
        // next-best candidate makes progress through the tree instead of
        // bouncing). The first all-avoided candidate is kept as a last
        // resort so the query never strands when every host was visited.
        let mut fallback: Option<(NodeId, HopKind, NodeMap)> = None;
        let mut last = None;
        while let Some(key) = self.pop_candidate(heap, target, &mut last) {
            // Candidates are neighbor and cache keys only, and a neighbor
            // candidate has a map by `is_candidate`. The working copy
            // detaches the borrow so filter_map may mutate server state;
            // the packet takes ownership of the survivor below.
            let (_, via, kind) = unpack(key);
            let (kind, map) = match kind {
                Key::Cache => (HopKind::Cache, self.cache.peek(via).copied()),
                Key::Neighbor | Key::Children => {
                    (HopKind::Neighbor, self.neighbor_map(via).copied())
                }
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
            return self.forward(kind, via, to, map);
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
    clippy::wildcard_enum_match_arm,
    reason = "each test matches out the one variant it asserts on"
)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::context::{round_robin_fleet, StatelessContext};
    use crate::messages::{Message, QueryPacket};
    use crate::server::{ContextEntry, Outgoing};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use terradir_namespace::{balanced_tree, Namespace, OwnerAssignment};

    fn world(levels: u16, cfg: Config) -> (Namespace, Config, OwnerAssignment, Vec<ServerState>) {
        let (f, servers) = round_robin_fleet(balanced_tree(2, levels), cfg);
        (f.ns.clone(), f.cfg.clone(), f.assignment.clone(), servers)
    }

    #[test]
    fn scratch_heap_pops_keys_in_sorted_order() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = RouteScratch::default();
        for n in [0usize, 1, 2, 17, 175, 1000] {
            let mut sorted: Vec<u64> = (0..n)
                .map(|_| {
                    let kind = [Key::Neighbor, Key::Cache, Key::Children][rng.gen_range(0..3usize)];
                    let (dist, node) = (rng.gen_range(0..64), NodeId(rng.gen_range(0..4096)));
                    let key = pack(dist, node, kind);
                    assert_eq!(unpack(key), (dist, node, kind));
                    key
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
        let (_, _, asg, mut servers) = world(3, Config::paper_default(4));
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
        let (ns, _, asg, mut servers) = world(4, Config::base_system(4));
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
        let (ns, _, asg, mut servers) = world(4, Config::caching_only(8));
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
        let (ns, _, _, mut servers) = world(4, Config::paper_default(8));
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
        let (ns, _, _, mut servers) = world(4, Config::base_system(4));
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
                assert!(ns.neighbors(via).any(|nb| nb == h));
            }
            other => panic!("expected context-charged forward, got {other:?}"),
        }
    }

    #[test]
    fn full_query_walk_terminates_at_owner() {
        // Route a query hop by hop through the real decision procedure on
        // bootstrap state and verify it reaches the owner in exactly
        // d(start_best, target) hops.
        let (ns, _, asg, mut servers) = world(5, Config::base_system(4));
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
        let mut budget = s.fleet.cfg.digest_test_budget;
        let mut chain = Some(target);
        let mut dist = 0u32;
        let mut hits = Vec::new();
        while let Some(node) = chain {
            if dist >= best_dist || budget == 0 {
                break;
            }
            let name = s.fleet.ns.name(node).as_str();
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
            chain = s.fleet.ns.parent(node);
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
        let (ns, cfg, _, servers) = world(6, Config::paper_default(4));
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
        let (ns, _, _, servers) = world(6, Config::paper_default(4));
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
        let (ns, _, _, servers) = world(6, Config::paper_default(4));
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
        let ns = balanced_tree(1, 100);
        let asg = OwnerAssignment::round_robin(&ns, 4);
        let (fleet, _) = StatelessContext::new(ns, Config::paper_default(4), asg);
        let ns = &fleet.ns;
        let server = ServerState::new(ServerId(0), &fleet);
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
                .map(|d| ancestor(ns, target, 100 - d))
                .into_iter()
                .collect();
            s.digest_store
                .observe(ServerId(2), &claim(ns, ServerId(2), &hosted, 1));
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
            let node = ancestor(ns, target, 100 - claimed_depth);
            for k in 1..=3 {
                s.digest_store
                    .observe(ServerId(k), &claim(ns, ServerId(k), &[node], 1));
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
        let (ns, _, _, servers) = world(7, Config::paper_default(4));
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

    /// The flat key build the hosted-set build replaced, kept as its
    /// reference: one distance per context map and cache entry.
    fn flat_keys(s: &ServerState, target: NodeId) -> Vec<Reverse<u64>> {
        let ns = &s.fleet.ns;
        let mut keys: Vec<Reverse<u64>> = s
            .neighbor_maps
            .keys()
            .map(|&n| Reverse(pack(distance(ns, n, target), n, Key::Neighbor)))
            .collect();
        if s.fleet.cfg.caching {
            keys.extend(
                s.cache
                    .iter()
                    .map(|(n, _)| Reverse(pack(distance(ns, n, target), n, Key::Cache))),
            );
        }
        keys
    }

    /// The candidates of the flat build in rank order, filtered eagerly
    /// by the flat build's rule: no hosted node, and no cache entry that
    /// duplicates a context neighbor.
    fn flat_candidates(s: &ServerState, target: NodeId) -> Vec<u64> {
        let mut keys: Vec<u64> = flat_keys(s, target)
            .into_iter()
            .map(|Reverse(k)| k)
            .collect();
        keys.sort_unstable();
        keys.retain(|&k| {
            let (_, n, kind) = unpack(k);
            !s.hosts(n) && (kind == Key::Neighbor || !s.neighbor_maps.contains_key(&n))
        });
        keys
    }

    /// The candidates the hosted-set build yields, popped the way the
    /// walk pops them.
    fn ranked_candidates(s: &ServerState, target: NodeId) -> Vec<u64> {
        let mut keys = Vec::new();
        s.rank_keys(target, &mut keys);
        let mut heap = BinaryHeap::from(keys);
        let mut last = None;
        std::iter::from_fn(|| s.pop_candidate(&mut heap, target, &mut last)).collect()
    }

    /// For every target the server does not host: the same candidates in
    /// the same order from both builds, and, from the same RNG state, the
    /// same decision, the same draws and the same cache afterwards.
    /// Returns the decisions, so a caller can check what the scenario hit.
    fn assert_builds_agree(
        s: &ServerState,
        targets: &[NodeId],
        avoids: &[&[ServerId]],
    ) -> Vec<RouteChoice> {
        let mut choices = Vec::new();
        for &target in targets.iter().filter(|&&t| !s.hosts(t)) {
            assert_eq!(
                ranked_candidates(s, target),
                flat_candidates(s, target),
                "candidates differ for target {target:?}"
            );
            for &avoid in avoids {
                for seed in 0..2 {
                    let (mut a, mut b) = (s.clone(), s.clone());
                    let mut rng_a = CountingRng {
                        inner: StdRng::seed_from_u64(seed),
                        draws: 0,
                    };
                    let mut rng_b = CountingRng {
                        inner: StdRng::seed_from_u64(seed),
                        draws: 0,
                    };
                    let new = a.decide_route(target, avoid, &mut rng_a);
                    let mut heap = BinaryHeap::from(flat_keys(&b, target));
                    let mut scratch = RouteScratch::default();
                    let old = b.route_ranked(target, avoid, &mut rng_b, &mut heap, &mut scratch);
                    let case = format!("target {target:?}, avoid {avoid:?}, seed {seed}");
                    assert_eq!(
                        format!("{new:?}"),
                        format!("{old:?}"),
                        "choice differs: {case}"
                    );
                    assert_eq!(rng_a.draws, rng_b.draws, "draws differ: {case}");
                    assert_eq!(
                        format!("{:?}", a.cache.iter().collect::<Vec<_>>()),
                        format!("{:?}", b.cache.iter().collect::<Vec<_>>()),
                        "cache differs: {case}"
                    );
                    choices.push(old);
                }
            }
        }
        choices
    }

    /// Makes `node` a replica on `s`, with a context map for each of its
    /// neighbors that `s` has none for yet (pointing at the owner).
    fn host(s: &mut ServerState, asg: &OwnerAssignment, node: NodeId) {
        use crate::meta::Meta;
        use crate::records::NodeRecord;
        if s.hosts(node) {
            return;
        }
        s.replicas.insert(
            node,
            NodeRecord::new(node, NodeMap::singleton(s.id), Meta::new(), 0.0),
        );
        for nb in s.fleet.ns.neighbors(node) {
            s.neighbor_maps.get_or_insert_with(nb, || ContextEntry {
                map: NodeMap::singleton(asg.owner(nb)),
                lease_at: 0.0,
            });
        }
    }

    /// A Coda-like world, its widest directory, and every server built on it.
    fn tc_world(
        n_servers: u32,
        nodes: usize,
    ) -> (Namespace, OwnerAssignment, Vec<ServerState>, NodeId) {
        let params = terradir_namespace::CodaParams {
            nodes,
            ..terradir_namespace::CodaParams::default()
        };
        let ns = terradir_namespace::coda_like(&params, &mut StdRng::seed_from_u64(42));
        let (f, servers) = round_robin_fleet(ns, Config::paper_default(n_servers));
        let widest = f.ns.ids().max_by_key(|&n| f.ns.children(n).len()).unwrap();
        (f.ns.clone(), f.assignment.clone(), servers, widest)
    }

    #[test]
    fn hosted_wide_directory_ranks_like_the_flat_build() {
        let (ns, asg, servers, widest) = tc_world(16, 1_500);
        assert!(
            ns.children(widest).len() >= 50,
            "{}",
            ns.children(widest).len()
        );
        let mut s = servers[3].clone();
        host(&mut s, &asg, widest);
        // A few cached pointers, one of them inside the directory.
        let child = ns.children(widest)[7];
        for n in [child, ns.root(), NodeId(900), NodeId(1_200)] {
            s.cache.insert(n, NodeMap::singleton(asg.owner(n)), 0.0);
        }
        let targets: Vec<NodeId> = ns.ids().collect();
        let avoids: [&[ServerId]; 2] = [&[], &[ServerId(0), ServerId(1), ServerId(2)]];
        let choices = assert_builds_agree(&s, &targets, &avoids);
        // Targets below the directory route through its on-path child.
        assert!(choices.iter().any(
            |c| matches!(c, RouteChoice::Forward { via, .. } if ns.parent(*via) == Some(widest))
        ));
        // At most three keys per hosted node plus the cache, far fewer
        // than the context maps.
        let keys = s.ranked_key_count(ns.root());
        let (hosted, maps) = (s.hosted_ids().count(), s.neighbor_maps.len());
        assert!(
            keys <= 3 * hosted + s.cache.len(),
            "{keys} keys, {hosted} hosted"
        );
        assert!(keys * 4 < maps, "{keys} keys, {maps} maps");
    }

    #[test]
    fn hosted_ancestors_rank_their_on_path_child_closer() {
        let (ns, _, asg, mut servers) = world(5, Config::paper_default(8));
        let s = &mut servers[0];
        let a = ns.lookup_str("/1/0").unwrap();
        host(s, &asg, a);
        let target = ns.lookup_str("/1/0/1/1").unwrap();
        let on_path = ns.lookup_str("/1/0/1").unwrap();
        let d = distance(&ns, a, target);
        let mut keys = Vec::new();
        s.rank_keys(target, &mut keys);
        assert!(keys.contains(&Reverse(pack(d - 1, on_path, Key::Neighbor))));
        assert!(keys.contains(&Reverse(pack(d + 1, ns.parent(a).unwrap(), Key::Neighbor))));
        assert!(keys.contains(&Reverse(pack(d + 1, a, Key::Children))));
        let targets: Vec<NodeId> = ns.ids().collect();
        assert_builds_agree(s, &targets, &[&[]]);
    }

    #[test]
    fn duplicate_keys_from_related_hosted_nodes_are_one_candidate() {
        let (ns, _, asg, mut servers) = world(5, Config::paper_default(8));
        let s = &mut servers[0];
        // A parent and its child hosted see each other; two siblings share
        // their parent and a cache pointer duplicates a context neighbor.
        let p = ns.lookup_str("/0/1").unwrap();
        let (c0, c1) = (
            ns.lookup_str("/0/1/0").unwrap(),
            ns.lookup_str("/0/1/1").unwrap(),
        );
        for n in [
            p,
            c0,
            c1,
            ns.lookup_str("/1/1/0/0").unwrap(),
            ns.lookup_str("/1/1/0/1").unwrap(),
        ] {
            host(s, &asg, n);
        }
        let grand = ns.lookup_str("/0").unwrap();
        s.cache.insert(grand, NodeMap::singleton(ServerId(5)), 0.0);
        s.cache.insert(c0, NodeMap::singleton(ServerId(5)), 0.0);
        let target = ns.lookup_str("/1/0/0/0/0").unwrap();
        let mut keys = Vec::new();
        s.rank_keys(target, &mut keys);
        keys.sort_unstable();
        let duplicated = keys.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(duplicated >= 2, "{keys:?}");
        let targets: Vec<NodeId> = ns.ids().collect();
        let avoid = [ServerId(1), ServerId(2), ServerId(3), ServerId(4)];
        assert_builds_agree(s, &targets, &[&[], &avoid]);
    }

    #[test]
    fn a_missing_context_map_is_no_candidate() {
        // `install_replicas` may drop a context map that negative caching
        // emptied: the hosted-set build still ranks that neighbor, and the
        // membership check must keep it out.
        let (ns, _, asg, mut servers) = world(5, Config::paper_default(8));
        let s = &mut servers[0];
        let h = ns.lookup_str("/0/0/1").unwrap();
        host(s, &asg, h);
        let (gone_child, gone_parent) = (
            ns.lookup_str("/0/0/1/1").unwrap(),
            ns.lookup_str("/0/0").unwrap(),
        );
        s.neighbor_maps.remove(&gone_child);
        s.neighbor_maps.remove(&gone_parent);
        for target in [
            gone_child,
            ns.lookup_str("/0/0/1/1/0").unwrap(),
            ns.lookup_str("/1/1/1").unwrap(),
        ] {
            assert!(!s.hosts(target));
            let candidates = ranked_candidates(s, target);
            assert!(candidates
                .iter()
                .all(|&k| ![gone_child, gone_parent].contains(&unpack(k).1)));
        }
        let targets: Vec<NodeId> = ns.ids().collect();
        assert_builds_agree(s, &targets, &[&[]]);
    }

    #[test]
    fn avoiding_every_closer_host_expands_children_in_the_walk() {
        let (ns, asg, servers, widest) = tc_world(16, 1_500);
        let mut s = servers[5].clone();
        host(&mut s, &asg, widest);
        // The directory's children off the target's root path sit one
        // step further than the directory and share one children key.
        let target = ns.ids().find(|&n| !s.hosts(n) && ns.depth(n) >= 3).unwrap();
        // Avoid sets growing to every server: closer tiers fall to the
        // fallback one by one.
        let all: Vec<ServerId> = (0..16).map(ServerId).collect();
        let avoids: Vec<&[ServerId]> = (0..=16).step_by(4).map(|k| &all[..k]).collect();
        let choices = assert_builds_agree(&s, &[target], &avoids);
        // With every server avoided the decision is the fallback: the best
        // candidate, charged to nobody.
        assert!(matches!(
            choices.last(),
            Some(RouteChoice::Forward {
                used_context_of: None,
                ..
            })
        ));
        // Every context map points at server 1 but one child's, which
        // points at server 9. Avoiding server 1 empties every tier before
        // the children key, so the walk must expand it to forward.
        let child = *ns
            .children(widest)
            .iter()
            .rfind(|c| !ns.root_path(target).contains(c))
            .unwrap();
        for (&n, e) in &mut s.neighbor_maps {
            e.map = NodeMap::singleton(ServerId(if n == child { 9 } else { 1 }));
        }
        let choices = assert_builds_agree(&s, &[target], &[&[ServerId(1)]]);
        assert!(choices.iter().all(|c| matches!(
            c,
            RouteChoice::Forward { via, to: ServerId(9), .. } if *via == child
        )));
    }

    #[test]
    fn hosted_root_and_stuck_rank_like_the_flat_build() {
        let (ns, _, asg, mut servers) = world(4, Config::paper_default(8));
        let s = &mut servers[2];
        host(s, &asg, ns.root());
        let targets: Vec<NodeId> = ns.ids().collect();
        assert_builds_agree(s, &targets, &[&[], &[ServerId(0), ServerId(1)]]);
        // Every map a stale self-pointer: nothing is usable.
        let id = s.id;
        for e in s.neighbor_maps.values_mut() {
            e.map = NodeMap::singleton(id);
        }
        let choices = assert_builds_agree(s, &targets, &[&[]]);
        assert!(!choices.is_empty());
        assert!(choices.iter().all(|c| matches!(c, RouteChoice::Stuck)));
    }

    #[test]
    fn random_hosted_sets_rank_like_the_flat_build() {
        // Random replicas, cached pointers (hosted and context ones
        // included), dropped context maps and a few digests, on both tree
        // shapes.
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..6 {
            let (ns, asg, servers) = if round % 2 == 0 {
                let (ns, asg, servers, _) = tc_world(16, 600);
                (ns, asg, servers)
            } else {
                let (ns, _, asg, servers) = world(7, Config::paper_default(16));
                (ns, asg, servers)
            };
            let nodes: Vec<NodeId> = ns.ids().collect();
            let mut s = servers[round].clone();
            for _ in 0..rng.gen_range(1..12) {
                host(&mut s, &asg, nodes[rng.gen_range(0..nodes.len())]);
            }
            let maps: Vec<NodeId> = s.neighbor_maps.keys().copied().collect();
            for _ in 0..rng.gen_range(0..4) {
                s.neighbor_maps.remove(&maps[rng.gen_range(0..maps.len())]);
            }
            for _ in 0..rng.gen_range(0..20) {
                let n = if rng.gen_bool(0.3) {
                    maps[rng.gen_range(0..maps.len())]
                } else {
                    nodes[rng.gen_range(0..nodes.len())]
                };
                s.cache
                    .insert(n, NodeMap::singleton(ServerId(rng.gen_range(0..16))), 0.0);
            }
            for k in 1..4 {
                let claimed: Vec<NodeId> = (0..8)
                    .map(|_| nodes[rng.gen_range(0..nodes.len())])
                    .collect();
                s.digest_store
                    .observe(ServerId(k), &claim(&ns, ServerId(k), &claimed, 1));
            }
            let targets: Vec<NodeId> = (0..40)
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            let avoid = [ServerId(0), ServerId(1), ServerId(2), ServerId(3)];
            assert_builds_agree(&s, &targets, &[&[], &avoid]);
        }
    }
}
