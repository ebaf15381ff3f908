//! Deterministic sub-seed derivation.
//!
//! Experiments take one master seed; every independent random component
//! (namespace mapping, arrivals, destinations, service times, protocol tie
//! breaking, …) derives its own stream so that changing one component's
//! consumption pattern never perturbs another — a standard variance-reduction
//! discipline for simulation studies.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Derives a child seed from a master seed and a component tag.
///
/// Uses the SplitMix64 finalizer over `master ⊕ rot(tag)`; distinct tags
/// yield decorrelated streams.
pub fn derive_seed(master: u64, tag: u64) -> u64 {
    let mut x = master ^ tag.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A [`StdRng`] seeded from `derive_seed(master, tag)`.
pub fn seeded_rng(master: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, tag))
}

/// Well-known component tags used across the workspace.
pub mod tags {
    /// Node→server ownership mapping.
    pub const MAPPING: u64 = 1;
    /// Poisson arrival process.
    pub const ARRIVALS: u64 = 2;
    /// Destination sampling.
    pub const DESTINATIONS: u64 = 3;
    /// Service-time sampling.
    pub const SERVICE: u64 = 4;
    /// Popularity-ranking shuffles.
    pub const RANKING: u64 = 5;
    /// Protocol-internal tie breaking (replica selection etc.).
    pub const PROTOCOL: u64 = 6;
    /// Source-server selection.
    pub const SOURCES: u64 = 7;
    /// Namespace generation (synthetic T_C).
    pub const NAMESPACE: u64 = 8;
    /// Per-server speed-factor draws (heterogeneous fleets).
    pub const SPEEDS: u64 = 9;
    /// Static bootstrap replica placement (§2.3).
    pub const STATIC: u64 = 10;
    /// Failure model: message loss, jitter, churn timers, failover picks.
    pub const FAULTS: u64 = 11;

    /// Number of slots in a draw ledger indexed by tag (slot 0 unused).
    pub const LEDGER_SLOTS: usize = 12;

    /// Human-readable tag name (diagnostics in ledger mismatch reports).
    pub fn name(tag: u64) -> &'static str {
        match tag {
            MAPPING => "mapping",
            ARRIVALS => "arrivals",
            DESTINATIONS => "destinations",
            SERVICE => "service",
            RANKING => "ranking",
            PROTOCOL => "protocol",
            SOURCES => "sources",
            NAMESPACE => "namespace",
            SPEEDS => "speeds",
            STATIC => "static",
            FAULTS => "faults",
            _ => "unknown",
        }
    }
}

/// A tagged, draw-counting RNG stream: a [`StdRng`] seeded from
/// `derive_seed(master, tag)` that counts every `next_u64` it produces.
///
/// Every sampling path in the vendored `rand` (ranges, floats, shuffles,
/// `choose`) bottoms out in `next_u64`, so the counter is an exact ledger
/// of the stream's consumption. Two replays of the same run must agree on
/// every per-tag count — the runtime cross-check behind the static ban
/// on ambient randomness in `clippy.toml` (DESIGN.md §15).
#[derive(Debug, Clone)]
pub struct TaggedRng {
    tag: u64,
    draws: u64,
    inner: StdRng,
}

impl TaggedRng {
    /// The stream's component tag (`tags::*`).
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Number of 64-bit draws taken from this stream so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl RngCore for TaggedRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// A [`TaggedRng`] seeded from `derive_seed(master, tag)`.
pub fn tagged_rng(master: u64, tag: u64) -> TaggedRng {
    TaggedRng {
        tag,
        draws: 0,
        inner: seeded_rng(master, tag),
    }
}

/// Adds `n` draws to the ledger slot for `tag`, growing the ledger to
/// [`tags::LEDGER_SLOTS`] if needed (index-free for the workspace lint
/// wall).
pub fn ledger_add(ledger: &mut Vec<u64>, tag: u64, n: u64) {
    let slot = tag as usize;
    if ledger.len() <= slot {
        ledger.resize(slot.max(tags::LEDGER_SLOTS - 1) + 1, 0);
    }
    if let Some(s) = ledger.get_mut(slot) {
        *s += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_seed() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
    }

    #[test]
    fn different_tags_decorrelate() {
        let a = derive_seed(42, tags::ARRIVALS);
        let b = derive_seed(42, tags::DESTINATIONS);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn different_masters_decorrelate() {
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut r1 = seeded_rng(7, 3);
        let mut r2 = seeded_rng(7, 3);
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn tagged_rng_matches_untagged_stream() {
        let mut plain = seeded_rng(7, tags::PROTOCOL);
        let mut tagged = tagged_rng(7, tags::PROTOCOL);
        for _ in 0..16 {
            assert_eq!(plain.gen::<u64>(), tagged.gen::<u64>());
        }
    }

    #[test]
    fn tagged_rng_counts_every_sampling_path() {
        use rand::seq::SliceRandom;
        let mut rng = tagged_rng(3, tags::RANKING);
        assert_eq!(rng.draws(), 0);
        let _: u64 = rng.gen();
        let _: f64 = rng.gen();
        let _ = rng.gen_range(0..10u32);
        assert_eq!(rng.draws(), 3, "gen/gen_range are one draw each");
        let mut v: Vec<u32> = (0..8).collect();
        v.shuffle(&mut rng);
        assert_eq!(rng.draws(), 3 + 7, "Fisher–Yates draws len-1 times");
        let _ = v.choose(&mut rng);
        assert_eq!(rng.draws(), 11);
        assert_eq!(rng.tag(), tags::RANKING);
    }

    #[test]
    fn ledger_add_accumulates_by_tag() {
        let mut ledger = Vec::new();
        ledger_add(&mut ledger, tags::FAULTS, 2);
        ledger_add(&mut ledger, tags::FAULTS, 3);
        ledger_add(&mut ledger, tags::MAPPING, 1);
        assert_eq!(ledger.len(), tags::LEDGER_SLOTS);
        assert_eq!(ledger.get(tags::FAULTS as usize), Some(&5));
        assert_eq!(ledger.get(tags::MAPPING as usize), Some(&1));
        // Out-of-range tags grow the ledger rather than vanishing.
        ledger_add(&mut ledger, 40, 1);
        assert_eq!(ledger.len(), 41);
        assert_eq!(ledger.get(40), Some(&1));
    }

    #[test]
    fn tag_names_cover_the_alphabet() {
        for t in 1..tags::LEDGER_SLOTS as u64 {
            assert_ne!(tags::name(t), "unknown", "tag {t} unnamed");
        }
        assert_eq!(tags::name(0), "unknown");
    }
}
