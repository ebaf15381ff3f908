//! Generation-stamped, **windowed** digests for anti-entropy gossip.
//!
//! A plain [`Digest`] is a full snapshot: shipping it costs O(state) bytes
//! every time, even when nothing changed since the receiver last saw it. A
//! [`WindowedDigest`] augments the snapshot with a bounded *window* of
//! recently changed keys, tagged by the generation in which each change
//! happened. A sender that remembers which generation a peer last received
//! can ship only the delta — O(changed) bytes — and fall back to the full
//! snapshot when the window no longer reaches back far enough. The filter
//! itself is always complete, so membership tests keep the Bloom guarantee:
//! false positives are possible, false negatives are not.
//!
//! Generations advance with wrapping arithmetic: the successor of
//! `u64::MAX` is `0`, and freshness comparisons ([`generation_newer`]) use
//! the wrapping distance, so a stream of digests survives generation
//! wraparound without ever mistaking the oldest snapshot for the newest.
//!
//! ```
//! use terradir_bloom::{BloomParams, WindowedDigest};
//! let params = BloomParams::for_capacity(16, 0.01, 7);
//! let g0 = WindowedDigest::empty(params);
//! let g1 = WindowedDigest::next(&g0, params, ["/a", "/b"], ["/a", "/b"], 8);
//! let g2 = WindowedDigest::next(&g1, params, ["/a", "/b", "/c"], ["/c"], 8);
//! // A peer that saw generation 1 only needs the one changed key.
//! let delta: Vec<&str> = g2.delta_since(g1.generation()).unwrap().collect();
//! assert_eq!(delta, ["/c"]);
//! // A peer that saw nothing gets the full snapshot.
//! assert!(g2.delta_since(u64::MAX).is_none() || g2.generation() == 0);
//! assert!(g2.test("/c") && !g2.test("/zzz"));
//! ```

use std::sync::Arc;

use crate::bloom::BloomParams;
use crate::digest::{Digest, DigestBuilder};

/// Modeled wire overhead of a delta-encoded digest: generation, base
/// generation, and entry count.
const DELTA_HEADER_BYTES: usize = 16;
/// Modeled per-key overhead in a delta encoding (length prefix).
const DELTA_KEY_OVERHEAD_BYTES: usize = 2;
/// Modeled overhead of the window floor tag shipped with a full snapshot.
const FLOOR_TAG_BYTES: usize = 8;

/// Whether generation `b` is strictly newer than `a` under wrapping
/// arithmetic: the wrapping distance from `a` forward to `b` is shorter
/// than the distance back. The successor of `u64::MAX` is `0`, and `0` is
/// newer than `u64::MAX`.
#[inline]
pub fn generation_newer(a: u64, b: u64) -> bool {
    let d = b.wrapping_sub(a);
    d != 0 && d < (1 << 63)
}

/// An immutable full digest plus a bounded window of recently changed keys.
///
/// Cheap to clone (`Arc` inside) for the same reason [`Digest`] is: one
/// snapshot is shipped to many peers per gossip round.
#[derive(Debug, Clone)]
pub struct WindowedDigest {
    full: Digest,
    /// `(generation, key)` for every change in `(floor, generation]`,
    /// oldest generation first. A key changed in several generations
    /// appears once per generation.
    recent: Arc<[(u64, Arc<str>)]>,
    /// Oldest generation whose successors are fully covered by `recent`:
    /// deltas are answerable for any `since` with
    /// `floor <= since <= generation` (wrapping order).
    floor: u64,
}

impl WindowedDigest {
    /// An empty windowed digest at generation 0 with an empty window.
    pub fn empty(params: BloomParams) -> WindowedDigest {
        WindowedDigest::empty_at(params, 0)
    }

    /// An empty windowed digest resuming a generation stream at
    /// `generation` (the window floor starts there too, so no delta older
    /// than `generation` is answerable). Used when a rebuilt peer rejoins a
    /// stream it cannot reconstruct — and by the wraparound tests.
    pub fn empty_at(params: BloomParams, generation: u64) -> WindowedDigest {
        WindowedDigest {
            full: DigestBuilder::new(params).seal(generation),
            recent: Arc::from([]),
            floor: generation,
        }
    }

    /// Seals the next generation: a complete snapshot of `keys` plus the
    /// keys `changed` since `prev`, appended to `prev`'s window. When the
    /// window would exceed `window` entries, whole oldest generations are
    /// evicted and the floor rises — a delta request older than the floor
    /// falls back to the full snapshot, so the window being too small can
    /// cost bytes but never correctness.
    pub fn next<'k, 'c>(
        prev: &WindowedDigest,
        params: BloomParams,
        keys: impl IntoIterator<Item = &'k str>,
        changed: impl IntoIterator<Item = &'c str>,
        window: usize,
    ) -> WindowedDigest {
        let mut b = DigestBuilder::new(params);
        b.extend(keys);
        WindowedDigest::seal_next(prev, b, changed, window)
    }

    /// Like [`Self::next`], but the caller supplies the already-populated
    /// filter builder — so key sets that must be rendered incrementally
    /// (into a reused buffer) need no intermediate collection.
    pub fn seal_next<'c>(
        prev: &WindowedDigest,
        filter: DigestBuilder,
        changed: impl IntoIterator<Item = &'c str>,
        window: usize,
    ) -> WindowedDigest {
        let generation = prev.generation().wrapping_add(1);
        let mut recent: Vec<(u64, Arc<str>)> = prev.recent.to_vec();
        recent.extend(changed.into_iter().map(|k| (generation, Arc::from(k))));
        let mut floor = prev.floor;
        // Evict whole generations from the old end until the window fits;
        // a partially evicted generation would leave the floor claiming
        // coverage the window no longer has.
        while recent.len() > window {
            let Some(&(g0, _)) = recent.first() else {
                break;
            };
            recent.retain(|&(g, _)| g != g0);
            floor = g0;
        }
        WindowedDigest {
            full: filter.seal(generation),
            recent: recent.into(),
            floor,
        }
    }

    /// A full snapshot with an *empty* window at `generation`: the only
    /// answerable delta is the trivial one at `generation` itself, so
    /// every behind peer falls back to the full filter. Used after state
    /// resets (crash recovery) that the change stream cannot express.
    pub fn snapshot<'k>(
        params: BloomParams,
        keys: impl IntoIterator<Item = &'k str>,
        generation: u64,
    ) -> WindowedDigest {
        let mut b = DigestBuilder::new(params);
        b.extend(keys);
        WindowedDigest::seal_snapshot(b, generation)
    }

    /// Like [`Self::snapshot`], from an already-populated filter builder.
    pub fn seal_snapshot(filter: DigestBuilder, generation: u64) -> WindowedDigest {
        WindowedDigest {
            full: filter.seal(generation),
            recent: Arc::from([]),
            floor: generation,
        }
    }

    /// The underlying full digest (for membership-only consumers such as
    /// map pruning).
    #[inline]
    pub fn full(&self) -> &Digest {
        &self.full
    }

    /// Tests a key against the full snapshot. `false` is authoritative for
    /// the generation the snapshot was taken at; `true` may be a false
    /// positive.
    #[inline]
    pub fn test(&self, key: &str) -> bool {
        self.full.test(key)
    }

    /// The digest's generation (wrapping; compare with
    /// [`generation_newer`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.full.generation()
    }

    /// Oldest generation from which a delta is answerable.
    #[inline]
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Number of change entries currently in the window.
    #[inline]
    pub fn window_len(&self) -> usize {
        self.recent.len()
    }

    /// Whether a receiver that last saw generation `since` can be served a
    /// delta instead of the full snapshot.
    #[inline]
    pub fn delta_covers(&self, since: u64) -> bool {
        let g = self.generation();
        g.wrapping_sub(since) <= g.wrapping_sub(self.floor)
    }

    /// The keys changed strictly after generation `since`, oldest first, or
    /// `None` when the window no longer reaches back to `since` (the
    /// caller must fall back to the full snapshot).
    pub fn delta_since(&self, since: u64) -> Option<impl Iterator<Item = &str>> {
        if !self.delta_covers(since) {
            return None;
        }
        let g = self.generation();
        let horizon = g.wrapping_sub(since);
        Some(
            self.recent
                .iter()
                .filter(move |&&(eg, _)| g.wrapping_sub(eg) < horizon)
                .map(|(_, k)| &**k),
        )
    }

    /// Wire size of the full snapshot in bytes (filter, generation tag,
    /// floor tag).
    pub fn byte_size(&self) -> usize {
        self.full.byte_size() + FLOOR_TAG_BYTES
    }

    /// Modeled wire cost of shipping this digest to a receiver that last
    /// saw generation `since` (`None` = never saw one): the delta encoding
    /// when the window covers `since`, the full snapshot otherwise.
    pub fn wire_bytes_since(&self, since: Option<u64>) -> usize {
        let full = self.byte_size();
        let Some(since) = since else { return full };
        match self.delta_since(since) {
            Some(keys) => {
                let body: usize = keys.map(|k| DELTA_KEY_OVERHEAD_BYTES + k.len()).sum();
                (DELTA_HEADER_BYTES + body).min(full)
            }
            None => full,
        }
    }

    /// Whether `other` is a strictly fresher snapshot of the same stream
    /// (wrapping generation order).
    #[inline]
    pub fn is_superseded_by(&self, other: &WindowedDigest) -> bool {
        generation_newer(self.generation(), other.generation())
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

    fn params() -> BloomParams {
        BloomParams::for_capacity(64, 0.01, 42)
    }

    fn delta(d: &WindowedDigest, since: u64) -> Option<Vec<String>> {
        d.delta_since(since)
            .map(|it| it.map(str::to_string).collect())
    }

    #[test]
    fn empty_window_always_falls_back_to_full() {
        let g0 = WindowedDigest::empty(params());
        let g1 = WindowedDigest::next(&g0, params(), ["/a", "/b"], ["/a", "/b"], 0);
        // window = 0: the changed keys are evicted immediately, so the only
        // answerable delta is the empty one at the current generation.
        assert_eq!(g1.window_len(), 0);
        assert_eq!(g1.floor(), g1.generation());
        assert!(g1.delta_since(g0.generation()).is_none());
        assert_eq!(delta(&g1, g1.generation()).unwrap().len(), 0);
        // Fallback is the full snapshot — membership is intact.
        assert!(g1.test("/a") && g1.test("/b"));
        assert_eq!(
            g1.wire_bytes_since(Some(g0.generation())),
            g1.byte_size(),
            "uncovered delta must be charged at full-snapshot cost"
        );
    }

    #[test]
    fn generation_wraps_without_losing_freshness_order() {
        let old = WindowedDigest::empty_at(params(), u64::MAX);
        let new = WindowedDigest::next(&old, params(), ["/a"], ["/a"], 8);
        assert_eq!(new.generation(), 0, "successor of u64::MAX wraps to 0");
        assert!(old.is_superseded_by(&new));
        assert!(!new.is_superseded_by(&old));
        assert!(generation_newer(u64::MAX, 0));
        assert!(!generation_newer(0, u64::MAX));
        // The delta across the wrap boundary is still answerable.
        assert_eq!(delta(&new, u64::MAX).unwrap(), ["/a"]);
        let newer = WindowedDigest::next(&new, params(), ["/a", "/b"], ["/b"], 8);
        assert_eq!(delta(&newer, u64::MAX).unwrap(), ["/a", "/b"]);
        assert_eq!(delta(&newer, 0).unwrap(), ["/b"]);
    }

    #[test]
    fn window_smaller_than_delta_set_falls_back_never_false_negative() {
        let g0 = WindowedDigest::empty(params());
        let keys = ["/a", "/b", "/c", "/d", "/e"];
        let g1 = WindowedDigest::next(&g0, params(), keys, keys, 2);
        // Five changes through a two-entry window: whole-generation
        // eviction drops them all.
        assert!(g1.delta_since(g0.generation()).is_none());
        // The full filter still claims every live key.
        for k in keys {
            assert!(g1.test(k), "{k} must not be a false negative");
        }
        assert!(!g1.test("/nope"));
    }

    #[test]
    fn deltas_accumulate_across_generations() {
        let g0 = WindowedDigest::empty(params());
        let g1 = WindowedDigest::next(&g0, params(), ["/a"], ["/a"], 8);
        let g2 = WindowedDigest::next(&g1, params(), ["/a", "/b"], ["/b"], 8);
        assert_eq!(delta(&g2, g0.generation()).unwrap(), ["/a", "/b"]);
        assert_eq!(delta(&g2, g1.generation()).unwrap(), ["/b"]);
        assert_eq!(delta(&g2, g2.generation()).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn eviction_drops_whole_generations() {
        let g0 = WindowedDigest::empty(params());
        let g1 = WindowedDigest::next(&g0, params(), ["/a", "/b"], ["/a", "/b"], 3);
        let g2 = WindowedDigest::next(&g1, params(), ["/a", "/b", "/c", "/d"], ["/c", "/d"], 3);
        // g1's two entries + g2's two entries = 4 > 3: generation g1 is
        // evicted whole, leaving exactly g2's changes.
        assert_eq!(g2.window_len(), 2);
        assert!(g2.delta_since(g0.generation()).is_none());
        assert_eq!(delta(&g2, g1.generation()).unwrap(), ["/c", "/d"]);
    }

    #[test]
    fn delta_wire_cost_is_proportional_to_changes() {
        let g0 = WindowedDigest::empty(params());
        let all: Vec<String> = (0..40).map(|i| format!("/node/{i}")).collect();
        let refs: Vec<&str> = all.iter().map(String::as_str).collect();
        let g1 = WindowedDigest::next(
            &g0,
            params(),
            refs.iter().copied(),
            refs.iter().copied(),
            64,
        );
        let g2 = WindowedDigest::next(
            &g1,
            params(),
            refs.iter().copied(),
            std::iter::once("/node/0"),
            64,
        );
        let delta_cost = g2.wire_bytes_since(Some(g1.generation()));
        let full_cost = g2.wire_bytes_since(None);
        assert!(
            delta_cost < full_cost,
            "steady-state delta ({delta_cost} B) must undercut the full snapshot ({full_cost} B)"
        );
        assert!(delta_cost >= DELTA_HEADER_BYTES);
    }

    #[test]
    fn snapshot_resets_the_window() {
        let g0 = WindowedDigest::empty(params());
        let g1 = WindowedDigest::next(&g0, params(), ["/a"], ["/a"], 8);
        let snap =
            WindowedDigest::snapshot(params(), ["/a", "/b"], g1.generation().wrapping_add(1));
        // A reset breaks the change stream: peers behind the snapshot
        // must take the full filter, never an (empty) delta.
        assert!(snap.delta_since(g1.generation()).is_none());
        assert!(snap.delta_since(g0.generation()).is_none());
        assert_eq!(delta(&snap, snap.generation()).unwrap().len(), 0);
        assert!(snap.test("/a") && snap.test("/b"));
    }

    #[test]
    fn clones_share_the_window() {
        let g0 = WindowedDigest::empty(params());
        let g1 = WindowedDigest::next(&g0, params(), ["/a"], ["/a"], 8);
        let g2 = g1.clone();
        assert!(Arc::ptr_eq(&g1.recent, &g2.recent));
        assert!(g2.test("/a"));
    }
}
