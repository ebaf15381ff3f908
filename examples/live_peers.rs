#![allow(
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "live-fleet demo: it waits on the wall clock, and aborting is its failure mode"
)]

//! Live deployment: the same protocol state machines running as real OS
//! threads connected by channels, with injected queries resolving across
//! the fleet.
//!
//! ```text
//! cargo run --release --example live_peers
//! ```

use std::time::Duration;

use terradir_repro::namespace::{balanced_tree, NodeId, ServerId};
use terradir_repro::net::{Runtime, RuntimeConfig};
use terradir_repro::protocol::Config;

fn main() {
    let ns = balanced_tree(2, 6); // 127 nodes
    let nodes = ns.len() as u32;
    let cfg = RuntimeConfig {
        protocol: Config::paper_default(8).with_seed(5),
        network_delay: Duration::from_millis(2),
        maintenance_every: Duration::from_millis(50),
    };
    let rt = Runtime::start(ns, cfg).expect("start live fleet");
    println!("started {} live peers", rt.peers());

    // Every peer snapshot at bootstrap.
    for i in 0..rt.peers() {
        let s = rt.snapshot(ServerId(i)).expect("peer alive");
        println!(
            "  {}: owns {} nodes, {} replicas, {} cached",
            s.id, s.owned, s.replicas, s.cached
        );
    }

    // Inject 500 lookups from round-robin origins to random-ish targets.
    println!("\ninjecting 500 lookups…");
    let mut ids = Vec::new();
    for i in 0..500u32 {
        let origin = ServerId(i % rt.peers());
        let target = NodeId((i * 37) % nodes);
        ids.push(rt.inject(origin, target).expect("inject"));
    }
    rt.wait_resolved(500, Duration::from_secs(30))
        .expect("all lookups resolve");
    let stats = rt.stats();
    println!(
        "resolved {} / dropped {} (hops of first query: {:?})",
        stats.resolved,
        stats.dropped,
        rt.hops_of(ids[0])
    );

    // Drive a hot spot live: demand on one node plus a load bias pushes
    // its owner over T_high and a real replication session runs across
    // threads.
    let hot = rt.assignment().owned_by(ServerId(0))[0];
    println!("\nheating node {hot} at peer s0…");
    for _ in 0..50 {
        rt.inject(ServerId(0), hot).unwrap();
    }
    rt.wait_resolved(550, Duration::from_secs(30)).unwrap();
    rt.add_load_bias(ServerId(0), 2.0).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while rt.stats().replicas_created == 0 && std::time::Instant::now() < deadline {
        rt.inject(ServerId(0), hot).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = rt.stats();
    println!(
        "live replication: {} replicas created, {} sessions completed",
        stats.replicas_created, stats.sessions_completed
    );
    for i in 0..rt.peers() {
        let s = rt.snapshot(ServerId(i)).unwrap();
        if s.replicas > 0 {
            println!("  {} now hosts {} replicas", s.id, s.replicas);
        }
    }
    assert!(stats.replicas_created > 0, "live session should replicate");

    rt.shutdown();
    println!("\nfleet shut down cleanly");
}
