//! Generalized anti-entropy gossip (DESIGN.md §18).
//!
//! Event-driven repair — reconcile pushes on recover/heal — only fires
//! when its trigger does.
//! Staleness that accrues *between* triggers (slow drift, lost NACKs,
//! partitioned minorities) is repaired late or never. This module holds the
//! per-server state for the periodic repair loop that closes the gap: every
//! `Config::gossip.interval` seconds each live server contacts
//! `fanout` namespace-neighbor owners and exchanges state per its
//! [`GossipCulture`](crate::config::GossipCulture):
//!
//! - **chatty** — eagerly pushes fresh advertisements for everything it
//!   hosts plus its object copies (O(state) bytes, no purging);
//! - **taciturn** — ships its gossip [`Digest`] over hosted names and
//!   object-version keys; the receiver purges soft state the digest
//!   disclaims (`purge_disclaimed`) and replies with only the object
//!   versions the digest shows missing or older ([`select_pull`]).
//!
//! The round driver lives in `system.rs` (it owns the calendar, the
//! assignment, and the fault RNG stream); the digest rebuild lives in
//! `server.rs` (it owns the hosted set and the object store). Everything
//! here is reused across rounds, so steady-state gossip allocates only
//! when the change set actually grew.

use std::collections::VecDeque;

use terradir_bloom::{Digest, DigestBuilder};
use terradir_namespace::{Namespace, NodeId, ServerId};

use crate::det::DetHashMap;
use crate::storage::StoredObject;

/// Modeled wire overhead of a delta-encoded digest: generation, base
/// generation, and entry count.
const DELTA_HEADER_BYTES: usize = 16;
/// Modeled per-key overhead in a delta encoding (length prefix).
const DELTA_KEY_OVERHEAD_BYTES: usize = 2;
/// Modeled overhead of the window floor tag shipped with a full snapshot.
const FLOOR_TAG_BYTES: usize = 8;

/// The keys one generation changed: how many, and their total length.
/// All the delta wire model needs of them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyTally {
    keys: usize,
    bytes: usize,
}

impl KeyTally {
    /// Counts one changed key.
    pub(crate) fn add(&mut self, key: &str) {
        self.keys += 1;
        self.bytes += key.len();
    }
}

/// Per-server anti-entropy bookkeeping. Inert (empty, no digest, no
/// allocations beyond the empty containers) while gossip is disabled.
///
/// The digest is a plain [`Digest`]; the delta window that prices it on
/// the wire (DESIGN.md §18) is a per-generation [`KeyTally`], so a seal
/// copies no keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct GossipState {
    /// The server's current gossip digest over hosted names and
    /// object-version keys. Built lazily at the first round.
    pub(crate) digest: Option<Digest>,
    /// Whether `digest` is stale with respect to the server's state.
    pub(crate) dirty: bool,
    /// Nodes whose keys changed since the last rebuild (hosting gained
    /// or lost, object version bumped). Deduplicated at rebuild time.
    pub(crate) changed: Vec<NodeId>,
    /// A change the window cannot express happened (soft-state reset):
    /// the next rebuild seals with an empty window so behind peers fall
    /// back to the full filter.
    pub(crate) all_changed: bool,
    /// Per-peer generation of the last digest shipped there (the delta
    /// base for the next round's wire-cost model).
    pub(crate) sent_gen: DetHashMap<ServerId, u64>,
    /// `(generation, tally)` for every generation in
    /// `(floor, digest generation]` that changed a key, oldest first.
    window: VecDeque<(u64, KeyTally)>,
    /// Total keys in `window`.
    window_keys: usize,
    /// Oldest generation a delta is answerable from: a peer that last saw
    /// `since` is charged a delta iff `floor <= since <= generation`.
    floor: u64,
    /// Scratch: one key rendering buffer, reused across rounds.
    pub(crate) key_buf: String,
}

impl GossipState {
    /// Records that `node`'s keys changed (hosting or object version).
    /// No-op once a reset superseded per-node tracking.
    pub(crate) fn mark(&mut self, node: NodeId) {
        self.dirty = true;
        if !self.all_changed {
            self.changed.push(node);
        }
    }

    /// Records a change the window cannot express (soft-state reset).
    pub(crate) fn mark_all(&mut self) {
        self.dirty = true;
        self.all_changed = true;
        self.changed.clear();
    }

    /// Remembers that `gen` was shipped to `peer`, returning the
    /// previously shipped generation (the delta base), if any.
    pub(crate) fn note_sent(&mut self, peer: ServerId, gen: u64) -> Option<u64> {
        self.sent_gen.insert(peer, gen)
    }

    /// Seals `filter` as the next generation (previous + 1, or 1 for the
    /// first seal). `delta` tallies the keys changed since the previous
    /// seal; a generation that changed none adds no window entry. While
    /// the window holds more than `window` keys its oldest whole
    /// generation is evicted and becomes the floor: a partial eviction
    /// would leave the floor claiming coverage the window lost. `None`
    /// (a reset, or no digest yet) empties the window at the new
    /// generation, so every behind peer pays the full filter.
    pub(crate) fn seal(&mut self, filter: DigestBuilder, delta: Option<KeyTally>, window: usize) {
        let generation = self.digest.as_ref().map_or(0, Digest::generation) + 1;
        if let Some(tally) = delta {
            if tally.keys > 0 {
                self.window.push_back((generation, tally));
                self.window_keys += tally.keys;
            }
            while self.window_keys > window {
                let Some((g, evicted)) = self.window.pop_front() else {
                    break;
                };
                self.window_keys -= evicted.keys;
                self.floor = g;
            }
        } else {
            self.window.clear();
            self.window_keys = 0;
            self.floor = generation;
        }
        self.digest = Some(filter.seal(generation));
    }

    /// Modeled wire bytes of shipping `digest` (this state's current
    /// seal) to a peer that last saw generation `since` (`None`: never
    /// saw one). The full snapshot is the filter plus the floor tag; a
    /// peer the window covers is charged the delta encoding instead,
    /// a header plus a length prefix and the bytes of every key changed
    /// after `since`, capped at the full cost.
    pub(crate) fn wire_bytes(&self, digest: &Digest, since: Option<u64>) -> u64 {
        let full = digest.byte_size() + FLOOR_TAG_BYTES;
        let bytes = match since {
            Some(since) if self.floor <= since && since <= digest.generation() => {
                let body: usize = self
                    .window
                    .iter()
                    .filter(|&&(g, _)| g > since)
                    .map(|(_, t)| DELTA_KEY_OVERHEAD_BYTES * t.keys + t.bytes)
                    .sum();
                (DELTA_HEADER_BYTES + body).min(full)
            }
            _ => full,
        };
        bytes as u64
    }
}

/// Renders the digest key for an object version into `buf` (cleared
/// first): `<name>#v<version>`. Object keys share the digest's key space
/// with hosted names; the `#v` suffix cannot occur in a node name, so
/// the two classes never collide and `purge_disclaimed` (which tests
/// plain names) keeps its exact semantics.
pub(crate) fn object_key(buf: &mut String, name: &str, version: u64) {
    use std::fmt::Write as _;
    buf.clear();
    buf.push_str(name);
    // Writes into the reused buffer; grows it only past the high-water
    // mark.
    let _ = write!(buf, "#v{version}");
}

/// The object arm of a digest exchange: given a solicitor's digest,
/// selects — from the copies `held` by the replying peer — the versions
/// the solicitor is missing or holds older, restricted to objects whose
/// replica set `member`ship includes the solicitor, deterministically
/// ordered and bounded by `window`. A second call after the solicitor
/// merged the result (and rebuilt its digest) selects nothing: the
/// exchange is idempotent.
pub(crate) fn select_pull(
    ns: &Namespace,
    digest: &Digest,
    held: impl Iterator<Item = (NodeId, StoredObject)>,
    mut member: impl FnMut(NodeId) -> bool,
    window: usize,
    key_buf: &mut String,
    out: &mut Vec<(NodeId, StoredObject)>,
) {
    out.clear();
    for (node, obj) in held {
        if !member(node) {
            continue;
        }
        object_key(key_buf, ns.name(node).as_str(), obj.version);
        // `false` is authoritative: the solicitor did not hold exactly
        // this version when the digest was sealed. (A false positive
        // skips a repair this round; the next version bump or digest
        // reseed re-randomizes the collision.)
        if !digest.test(key_buf) {
            out.push((node, obj));
        }
    }
    out.sort_unstable_by_key(|&(n, _)| n);
    out.truncate(window);
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use terradir_bloom::BloomParams;
    use terradir_namespace::balanced_tree;

    use super::*;

    fn obj(version: u64) -> StoredObject {
        StoredObject {
            version,
            writer: ServerId(0),
            payload: 1,
        }
    }

    /// Seals a digest claiming exactly the given `(node, version)` pairs.
    fn digest_of(ns: &Namespace, held: &[(NodeId, StoredObject)]) -> Digest {
        let params = BloomParams::for_capacity(64, 0.0001, 9);
        let mut b = DigestBuilder::new(params);
        let mut buf = String::new();
        for &(n, o) in held {
            object_key(&mut buf, ns.name(n).as_str(), o.version);
            b.add(&buf);
        }
        b.seal(1)
    }

    #[test]
    fn object_key_renders_name_and_version() {
        let mut buf = String::from("stale");
        object_key(&mut buf, "/a/b", 17);
        assert_eq!(buf, "/a/b#v17");
    }

    #[test]
    fn select_pull_takes_missing_and_older_only() {
        let ns = balanced_tree(2, 4);
        // Solicitor holds node 1 at v2 and node 2 at v5.
        let solicitor = [(NodeId(1), obj(2)), (NodeId(2), obj(5))];
        let d = digest_of(&ns, &solicitor);
        // Peer holds node 1 at v3 (newer), node 2 at v5 (same), node 3
        // at v1 (solicitor missing entirely).
        let held = [
            (NodeId(1), obj(3)),
            (NodeId(2), obj(5)),
            (NodeId(3), obj(1)),
        ];
        let mut out = Vec::new();
        let mut buf = String::new();
        select_pull(
            &ns,
            &d,
            held.iter().copied(),
            |_| true,
            16,
            &mut buf,
            &mut out,
        );
        assert_eq!(out, vec![(NodeId(1), obj(3)), (NodeId(3), obj(1))]);
    }

    #[test]
    fn select_pull_respects_membership_and_window() {
        let ns = balanced_tree(2, 4);
        let d = digest_of(&ns, &[]);
        let held: Vec<(NodeId, StoredObject)> = (1..6).map(|i| (NodeId(i), obj(1))).collect();
        let mut out = Vec::new();
        let mut buf = String::new();
        // Membership filter drops even nodes.
        select_pull(
            &ns,
            &d,
            held.iter().copied(),
            |n| n.0 % 2 == 1,
            16,
            &mut buf,
            &mut out,
        );
        assert_eq!(
            out,
            vec![
                (NodeId(1), obj(1)),
                (NodeId(3), obj(1)),
                (NodeId(5), obj(1))
            ]
        );
        // The window bounds the reply deterministically (lowest ids).
        select_pull(
            &ns,
            &d,
            held.iter().copied(),
            |_| true,
            2,
            &mut buf,
            &mut out,
        );
        assert_eq!(out, vec![(NodeId(1), obj(1)), (NodeId(2), obj(1))]);
    }

    #[test]
    fn gossip_state_change_tracking() {
        let mut g = GossipState::default();
        assert!(!g.dirty);
        g.mark(NodeId(3));
        assert!(g.dirty && g.changed == [NodeId(3)]);
        g.mark_all();
        assert!(g.all_changed && g.changed.is_empty());
        // Per-node marks are moot once everything changed.
        g.mark(NodeId(4));
        assert!(g.changed.is_empty());
        assert_eq!(g.note_sent(ServerId(1), 7), None);
        assert_eq!(g.note_sent(ServerId(1), 9), Some(7));
    }

    /// Brute-force reference for the delta window: one explicit
    /// `(generation, key length)` entry per changed key, evicted a whole
    /// generation at a time.
    #[derive(Default)]
    struct RefWindow {
        entries: Vec<(u64, usize)>,
        floor: u64,
        generation: u64,
    }

    impl RefWindow {
        fn seal(&mut self, delta: Option<&[usize]>, window: usize) {
            self.generation += 1;
            if let Some(lens) = delta {
                for &len in lens {
                    self.entries.push((self.generation, len));
                }
                while self.entries.len() > window {
                    let oldest = self.entries[0].0;
                    self.entries.retain(|&(g, _)| g != oldest);
                    self.floor = oldest;
                }
            } else {
                self.entries.clear();
                self.floor = self.generation;
            }
        }

        fn price(&self, since: Option<u64>, full: usize) -> u64 {
            let bytes = match since {
                Some(s) if self.floor <= s && s <= self.generation => {
                    let body: usize = self
                        .entries
                        .iter()
                        .filter(|&&(g, _)| g > s)
                        .map(|&(_, len)| DELTA_KEY_OVERHEAD_BYTES + len)
                        .sum();
                    (DELTA_HEADER_BYTES + body).min(full)
                }
                _ => full,
            };
            bytes as u64
        }
    }

    fn filter(capacity: usize) -> DigestBuilder {
        DigestBuilder::new(BloomParams::for_capacity(capacity, 0.01, 3))
    }

    fn tally(lens: &[usize]) -> KeyTally {
        let mut t = KeyTally::default();
        for &len in lens {
            t.add(&"k".repeat(len));
        }
        t
    }

    fn full_cost(g: &GossipState) -> u64 {
        g.digest
            .as_ref()
            .map_or(0, |d| (d.byte_size() + FLOOR_TAG_BYTES) as u64)
    }

    /// Seals `lens` as the next generation's changed keys (`None`: a
    /// reset) and returns the new generation.
    fn seal(g: &mut GossipState, lens: Option<&[usize]>, window: usize) -> u64 {
        g.seal(filter(64), lens.map(tally), window);
        g.digest.as_ref().map_or(0, Digest::generation)
    }

    fn price(g: &GossipState, since: Option<u64>) -> u64 {
        match &g.digest {
            Some(d) => g.wire_bytes(d, since),
            None => 0,
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Seal the next generation with these changed-key lengths and
        /// this filter capacity.
        Seal(Vec<usize>, usize),
        /// Seal after a soft-state reset.
        Reset(usize),
        /// Ship the current digest to this peer.
        Send(u32),
    }

    /// On average two seals, one reset and two sends in five operations.
    fn arb_op() -> impl Strategy<Value = Op> {
        let seal = || {
            (proptest::collection::vec(1usize..40, 0..6), 1usize..200)
                .prop_map(|(lens, cap)| Op::Seal(lens, cap))
        };
        let send = || (0u32..4).prop_map(Op::Send);
        prop_oneof![
            seal(),
            seal(),
            (1usize..200).prop_map(Op::Reset),
            send(),
            send()
        ]
    }

    proptest! {
        /// The per-generation tally prices every send exactly as the
        /// explicit per-key window does, under whole-generation eviction,
        /// resets and per-peer delta bases.
        #[test]
        fn tally_prices_like_the_explicit_window(
            ops in proptest::collection::vec(arb_op(), 1..60),
            window in 0usize..16,
        ) {
            let mut g = GossipState::default();
            let mut reference = RefWindow::default();
            for op in ops {
                match op {
                    Op::Seal(lens, cap) => {
                        // The first seal has no previous digest to be a
                        // delta of, exactly as in `reseal_gossip_digest`.
                        let delta = g.digest.is_some().then_some(&lens[..]);
                        g.seal(filter(cap), delta.map(tally), window);
                        reference.seal(delta, window);
                    }
                    Op::Reset(cap) => {
                        g.seal(filter(cap), None, window);
                        reference.seal(None, window);
                    }
                    Op::Send(peer) => {
                        let Some(d) = g.digest.clone() else { continue };
                        let since = g.note_sent(ServerId(peer), d.generation());
                        let full = d.byte_size() + FLOOR_TAG_BYTES;
                        prop_assert_eq!(g.wire_bytes(&d, since), reference.price(since, full));
                    }
                }
                prop_assert_eq!(g.floor, reference.floor);
                prop_assert_eq!(g.window_keys, reference.entries.len());
                prop_assert!(g.window_keys <= window);
                prop_assert_eq!(
                    g.digest.as_ref().map_or(0, Digest::generation),
                    reference.generation
                );
            }
        }
    }

    #[test]
    fn window_zero_charges_every_behind_peer_full() {
        let mut g = GossipState::default();
        let g1 = seal(&mut g, None, 0);
        let g2 = seal(&mut g, Some(&[2, 2]), 0);
        // The two keys are evicted at once: the window floor is the
        // current generation, so only a peer already there gets a delta.
        assert_eq!((g.window_keys, g.floor), (0, g2));
        assert_eq!(price(&g, Some(g1)), full_cost(&g));
        assert_eq!(price(&g, Some(g2)), DELTA_HEADER_BYTES as u64);
    }

    #[test]
    fn eviction_drops_whole_generations() {
        let mut g = GossipState::default();
        let g1 = seal(&mut g, None, 3);
        let g2 = seal(&mut g, Some(&[2, 2]), 3);
        let g3 = seal(&mut g, Some(&[5, 7]), 3);
        // g2's two keys + g3's two keys = 4 > 3: g2 goes whole, leaving
        // exactly g3's changes and g2 as the floor.
        assert_eq!((g.window_keys, g.floor), (2, g2));
        assert_eq!(price(&g, Some(g1)), full_cost(&g));
        assert_eq!(
            price(&g, Some(g2)),
            (DELTA_HEADER_BYTES + 2 * 2 + 12) as u64
        );
        assert_eq!(price(&g, Some(g3)), DELTA_HEADER_BYTES as u64);
    }

    #[test]
    fn deltas_accumulate_across_generations_and_skip_empty_ones() {
        let mut g = GossipState::default();
        let g1 = seal(&mut g, None, 8);
        let g2 = seal(&mut g, Some(&[3]), 8);
        let g3 = seal(&mut g, Some(&[]), 8);
        seal(&mut g, Some(&[4]), 8);
        // The keyless generation adds no entry.
        assert_eq!(g.window.len(), 2);
        let header = DELTA_HEADER_BYTES as u64;
        assert_eq!(price(&g, Some(g1)), header + 5 + 6);
        assert_eq!(price(&g, Some(g2)), header + 6);
        assert_eq!(price(&g, Some(g3)), header + 6);
    }

    #[test]
    fn reset_and_first_contact_charge_full() {
        let mut g = GossipState::default();
        seal(&mut g, None, 8);
        let g2 = seal(&mut g, Some(&[3]), 8);
        assert_eq!(price(&g, None), full_cost(&g));
        let g3 = seal(&mut g, None, 8);
        // A reset breaks the change stream: a behind peer takes the full
        // filter, never an (empty) delta.
        assert_eq!((g.window_keys, g.floor), (0, g3));
        assert_eq!(price(&g, Some(g2)), full_cost(&g));
        assert_eq!(price(&g, Some(g3)), DELTA_HEADER_BYTES as u64);
    }

    #[test]
    fn steady_state_delta_undercuts_full() {
        let mut g = GossipState::default();
        g.seal(filter(40), None, 64);
        let g1 = g.digest.as_ref().map_or(0, Digest::generation);
        g.seal(filter(40), Some(tally(&[7])), 64);
        let delta = price(&g, Some(g1));
        assert!(
            delta < full_cost(&g),
            "steady-state delta ({delta} B) must undercut the full snapshot"
        );
        assert_eq!(delta, (DELTA_HEADER_BYTES + 2 + 7) as u64);
    }
}
