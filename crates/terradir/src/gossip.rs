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
//! - **taciturn** — ships its [`WindowedDigest`] over hosted names and
//!   object-version keys; the receiver purges soft state the digest
//!   disclaims (`purge_disclaimed`) and replies with only the object
//!   versions the digest shows missing or older ([`select_pull`]);
//! - **hybrid** — taciturn plus an eager push of the keys changed since
//!   the last round.
//!
//! The round driver lives in `system.rs` (it owns the calendar, the
//! assignment, and the fault RNG stream); the digest rebuild lives in
//! `server.rs` (it owns the hosted set and the object store). Everything
//! here is reused across rounds, so steady-state gossip allocates only
//! when the change set actually grew.

use terradir_bloom::WindowedDigest;
use terradir_namespace::{Namespace, NodeId, ServerId};

use crate::det::DetHashMap;
use crate::storage::StoredObject;

/// Per-server anti-entropy bookkeeping. Inert (empty, no digest, no
/// allocations beyond the empty containers) while gossip is disabled.
#[derive(Debug, Clone, Default)]
pub(crate) struct GossipState {
    /// The server's current windowed digest over hosted names and
    /// object-version keys. Built lazily at the first round.
    pub(crate) digest: Option<WindowedDigest>,
    /// Whether `digest` is stale with respect to the server's state.
    pub(crate) dirty: bool,
    /// Nodes whose keys changed since the last rebuild (hosting gained
    /// or lost, object version bumped). Deduplicated at rebuild time.
    pub(crate) changed: Vec<NodeId>,
    /// A change the window cannot express happened (soft-state reset):
    /// the next rebuild seals a fresh snapshot with a broken window so
    /// behind peers fall back to the full filter.
    pub(crate) all_changed: bool,
    /// Per-peer generation of the last digest shipped there (the delta
    /// base for the next round's wire-cost model).
    pub(crate) sent_gen: DetHashMap<ServerId, u64>,
    /// Scratch: rendered keys of the changed set, reused across rounds.
    pub(crate) changed_keys: Vec<String>,
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
    digest: &WindowedDigest,
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
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use terradir_bloom::{BloomParams, DigestBuilder, WindowedDigest};
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
    fn digest_of(ns: &Namespace, held: &[(NodeId, StoredObject)]) -> WindowedDigest {
        let params = BloomParams::for_capacity(64, 0.0001, 9);
        let mut b = DigestBuilder::new(params);
        let mut buf = String::new();
        for &(n, o) in held {
            object_key(&mut buf, ns.name(n).as_str(), o.version);
            b.add(&buf);
        }
        WindowedDigest::seal_snapshot(b, 1)
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
}
