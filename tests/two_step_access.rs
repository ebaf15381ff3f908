#![allow(
    clippy::expect_used,
    reason = "fixture helpers outside #[test] abort on a broken fixture"
)]

//! Integration tests of the paper's two-step access (§2.1): lookup
//! (resolvable by any replica) followed by data retrieval (served by the
//! owner only), across the live runtime.

use std::time::Duration;

use terradir_repro::namespace::{balanced_tree, NodeId, ServerId};
use terradir_repro::net::{Runtime, RuntimeConfig};
use terradir_repro::protocol::Config;

fn fleet(seed: u64) -> Runtime {
    let ns = balanced_tree(2, 5);
    Runtime::start(
        ns,
        RuntimeConfig::fast(Config::paper_default(4).with_seed(seed)),
    )
    .expect("start fleet")
}

#[test]
fn lookup_then_fetch_round_trips() {
    let rt = fleet(1);
    let node = NodeId(17);
    rt.set_data(node, &b"file contents"[..]).unwrap();
    // Step 1: lookup from a non-owner origin populates its mapping.
    let origin = ServerId((rt.assignment().owner(node).0 + 1) % 4);
    rt.inject(origin, node).unwrap();
    rt.wait_resolved(1, Duration::from_secs(10)).unwrap();
    // Step 2: fetch from the same origin.
    rt.fetch_data(origin, node).unwrap();
    rt.wait_fetches(1, Duration::from_secs(10)).unwrap();
    let st = rt.stats();
    assert_eq!(st.data_fetches_ok, 1);
    assert_eq!(st.data_fetches_failed, 0);
    rt.shutdown();
}

#[test]
fn fetch_without_exported_data_fails_cleanly() {
    let rt = fleet(2);
    let node = NodeId(9); // owner never calls set_data
    let origin = ServerId((rt.assignment().owner(node).0 + 1) % 4);
    rt.inject(origin, node).unwrap();
    rt.wait_resolved(1, Duration::from_secs(10)).unwrap();
    rt.fetch_data(origin, node).unwrap();
    rt.wait_fetches(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rt.stats().data_fetches_failed, 1);
    rt.shutdown();
}

#[test]
fn meta_updates_reach_later_lookups() {
    let rt = fleet(3);
    let node = NodeId(5);
    rt.update_meta(node, "mime", "image/png").unwrap();
    // Give the owner's inbox a moment, then look up the node. The public
    // aggregate only counts, so assert indirectly: a lookup still
    // resolves and the owner snapshot keeps its state.
    std::thread::sleep(Duration::from_millis(50));
    let origin = ServerId((rt.assignment().owner(node).0 + 1) % 4);
    rt.inject(origin, node).unwrap();
    rt.wait_resolved(1, Duration::from_secs(10)).unwrap();
    assert_eq!(rt.stats().dropped, 0);
    rt.shutdown();
}

#[test]
fn many_concurrent_fetches() {
    let rt = fleet(4);
    let nodes = rt.namespace().len() as u32;
    for n in 0..nodes {
        rt.set_data(NodeId(n), format!("data-{n}").into_bytes())
            .unwrap();
    }
    // Lookups first (populate mappings), then fetches.
    for n in 0..nodes {
        rt.inject(ServerId(n % 4), NodeId(n)).unwrap();
    }
    rt.wait_resolved(nodes as u64, Duration::from_secs(20))
        .unwrap();
    for n in 0..nodes {
        rt.fetch_data(ServerId(n % 4), NodeId(n)).unwrap();
    }
    rt.wait_fetches(nodes as u64, Duration::from_secs(20))
        .unwrap();
    let st = rt.stats();
    assert_eq!(st.data_fetches_ok + st.data_fetches_failed, nodes as u64);
    assert!(
        st.data_fetches_ok >= nodes as u64 * 9 / 10,
        "most fetches succeed: {} of {}",
        st.data_fetches_ok,
        nodes
    );
    rt.shutdown();
}
