#![allow(
    clippy::expect_used,
    reason = "fixture helpers outside #[test] abort on a broken fixture"
)]

//! End-to-end tests of the live thread-per-peer deployment.

use std::time::Duration;

use terradir_repro::namespace::{balanced_tree, NodeId, ServerId};
use terradir_repro::net::{Runtime, RuntimeConfig};
use terradir_repro::protocol::Config;

fn fleet(n: u32, seed: u64) -> Runtime {
    let ns = balanced_tree(2, 5); // 63 nodes
    Runtime::start(
        ns,
        RuntimeConfig::fast(Config::paper_default(n).with_seed(seed)),
    )
    .expect("start fleet")
}

#[test]
fn live_fleet_resolves_a_batch_from_every_origin() {
    let rt = fleet(8, 1);
    let nodes = rt.namespace().len() as u32;
    let mut expected = 0;
    for origin in 0..8u32 {
        for k in 0..25u32 {
            rt.inject(ServerId(origin), NodeId((origin * 13 + k * 7) % nodes))
                .expect("inject");
            expected += 1;
        }
    }
    rt.wait_resolved(expected, Duration::from_secs(30)).unwrap();
    let st = rt.stats();
    assert_eq!(st.resolved, expected);
    assert_eq!(st.dropped, 0);
    rt.shutdown();
}

#[test]
fn live_cache_fills_with_traffic() {
    let rt = fleet(4, 2);
    let nodes = rt.namespace().len() as u32;
    for k in 0..100u32 {
        rt.inject(ServerId(0), NodeId(k % nodes)).unwrap();
    }
    rt.wait_resolved(100, Duration::from_secs(30)).unwrap();
    let snap = rt.snapshot(ServerId(0)).unwrap();
    assert!(snap.cached > 0, "origin should have cached path entries");
    rt.shutdown();
}

#[test]
fn live_replication_respects_caps() {
    let rt = fleet(4, 3);
    // Heat every peer and force sessions.
    let nodes = rt.namespace().len() as u32;
    for round in 0..10 {
        for p in 0..4u32 {
            rt.add_load_bias(ServerId(p), if p == 0 { 3.0 } else { 0.0 })
                .unwrap();
        }
        for k in 0..50u32 {
            rt.inject(ServerId(k % 4), NodeId((round * 7 + k) % nodes))
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // Allow in-flight work to finish.
    std::thread::sleep(Duration::from_millis(300));
    let mut total_owned = 0;
    for p in 0..4u32 {
        let snap = rt.snapshot(ServerId(p)).unwrap();
        total_owned += snap.owned;
        let cap = (2.0 * snap.owned as f64).floor() as usize;
        assert!(
            snap.replicas <= cap,
            "peer {p} exceeds cap: {} > {cap}",
            snap.replicas
        );
    }
    assert_eq!(total_owned, rt.namespace().len());
    rt.shutdown();
}

#[test]
fn runtime_survives_messages_to_dead_targets_gracefully() {
    let rt = fleet(4, 4);
    assert!(rt.inject(ServerId(99), NodeId(0)).is_err());
    assert!(rt.snapshot(ServerId(99)).is_err());
    rt.shutdown();
}
