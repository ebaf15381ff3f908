//! Property tests for the anti-entropy layer (DESIGN.md §18):
//! idempotence of a digest exchange, and bitwise replay of
//! gossip-enabled system runs. The delta window's wire pricing is
//! tested against a brute-force reference in `gossip.rs`.

use proptest::prelude::*;
use std::collections::BTreeMap;

use terradir_repro::bloom::{BloomParams, Digest, DigestBuilder};
use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::{Config, GossipCulture, System};
use terradir_repro::workload::StreamPlan;

/// Renders the digest key an object version occupies (the `#v` suffix
/// cannot occur in a node name, so the class never collides with plain
/// hosted names).
fn object_key(name: &str, version: u64) -> String {
    format!("{name}#v{version}")
}

/// Seals a digest claiming exactly `state`'s object-version keys at
/// generation `generation`.
fn seal_state(state: &BTreeMap<String, u64>, generation: u64) -> Digest {
    let params = BloomParams::for_capacity(state.len().max(8), 0.0001, 0x5eed);
    let mut b = DigestBuilder::new(params);
    for (name, &v) in state {
        b.add(&object_key(name, v));
    }
    b.seal(generation)
}

/// The object arm of one digest exchange: everything the peer holds that
/// the solicitor's digest disclaims.
fn pull(digest: &Digest, peer: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    peer.iter()
        .filter(|(name, &v)| !digest.test(&object_key(name, v)))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

/// (name, version) entries; later duplicates of a name win, like lww.
fn arb_state() -> impl Strategy<Value = BTreeMap<String, u64>> {
    proptest::collection::vec(("/[a-z]{1,10}", 1u64..50), 0..40)
        .prop_map(|entries| entries.into_iter().collect())
}

/// Runs one gossip-enabled system to completion and returns the
/// debug-rendered stats plus any audit findings. Churn forces resets,
/// re-seals, and pull replies along the way.
fn gossip_run(seed: u64, culture: GossipCulture, fanout: u32, window: u32) -> (String, usize) {
    let ns = balanced_tree(2, 5);
    let mut cfg = Config::paper_default(8).with_seed(seed);
    cfg.gossip.enabled = true;
    cfg.gossip.culture = culture;
    cfg.gossip.interval = 0.5;
    cfg.gossip.fanout = fanout;
    cfg.gossip.window = window;
    cfg.storage.enabled = true;
    cfg.churn.enabled = true;
    cfg.churn.mean_uptime = 4.0;
    cfg.churn.mean_downtime = 2.0;
    cfg.churn.stop = 8.0;
    let mut sys = System::new(ns, cfg, StreamPlan::unif(12.0), 30.0);
    sys.run_until(10.0);
    let violations = sys.audit().len();
    (format!("{:?}", sys.stats()), violations)
}

proptest! {
    /// A digest exchange is idempotent: after the solicitor merges the
    /// pulled versions (last-writer-wins on version) and reseals, a
    /// second exchange against the same peer only re-offers versions
    /// strictly older than what the solicitor now holds — never an
    /// entry the first round already delivered.
    #[test]
    fn digest_exchange_is_idempotent(
        solicitor in arb_state(),
        peer in arb_state(),
        generation in 0u64..1_000_000,
    ) {
        let mut solicitor = solicitor;
        let first_digest = seal_state(&solicitor, generation);
        for (name, v) in pull(&first_digest, &peer) {
            let slot = solicitor.entry(name).or_insert(0);
            *slot = (*slot).max(v);
        }
        let second = pull(&seal_state(&solicitor, generation + 1), &peer);
        // Anything still selected must be an *older* version than the
        // solicitor now holds (lww kept the newer copy, whose digest key
        // legitimately differs from the peer's stale one) — unless round
        // one's filter falsely claimed it, which only defers delivery.
        for (name, v) in second {
            let held = solicitor.get(&name).copied().unwrap_or(0);
            prop_assert!(v < held || first_digest.test(&object_key(&name, v)),
                "second round re-pulled {name} v{v} against held v{held}");
        }
    }
}

proptest! {
    // Whole-system property runs are expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A gossip-enabled system run replays bitwise from its seed for
    /// every culture, and the invariant audit stays clean throughout.
    #[test]
    fn gossip_runs_replay_bitwise(
        seed in 0u64..500,
        culture_ix in 0usize..3,
        fanout in 1u32..5,
        window in 1u32..48,
    ) {
        let culture =
            [GossipCulture::Chatty, GossipCulture::Taciturn, GossipCulture::Hybrid][culture_ix];
        let (stats_a, audit_a) = gossip_run(seed, culture, fanout, window);
        let (stats_b, audit_b) = gossip_run(seed, culture, fanout, window);
        prop_assert_eq!(audit_a, 0, "audit violations in first run");
        prop_assert_eq!(audit_b, 0, "audit violations in replay");
        prop_assert_eq!(stats_a, stats_b, "replay diverged for {:?}", culture);
    }
}
