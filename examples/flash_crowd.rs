//! Flash crowd: an instantaneous hot-spot lands on a single peer and the
//! adaptive replication protocol disperses it.
//!
//! This walks the exact mechanism of paper §3.3 step by step on a small
//! system, printing the replica ramp-up and the load on the hot node's
//! owner second by second.
//!
//! ```text
//! cargo run --release --example flash_crowd
//! ```

use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::config::T_HIGH;
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

fn main() {
    let ns = balanced_tree(2, 9); // 1023 nodes
    let cfg = Config::paper_default(128).with_seed(3);

    // 20 s of calm uniform traffic, then the crowd arrives: Zipf order 1.5
    // means the most popular node alone draws ~38 % of all lookups.
    let plan = StreamPlan::adaptation(1.5, 20.0, 1, 100.0);
    let mut sys = System::new(ns, cfg, plan, 700.0);

    println!("T_high = {T_HIGH}; flash crowd hits at t = 20 s\n");
    println!("   t   max-load  drops/s  sessions  replicas  hot-node hosts");
    let mut prev_sessions = 0;
    for step in 1..=30 {
        let t = step as f64 * 2.0;
        sys.run_until(t);
        let st = sys.stats();
        // Identify the currently hottest node by global host count growth:
        // count hosts of the most-replicated node.
        let mut host_counts = std::collections::BTreeMap::new();
        for s in sys.servers() {
            for n in s.replica_ids() {
                *host_counts.entry(n).or_insert(1usize) += 1;
            }
        }
        let hottest = host_counts.values().max().copied().unwrap_or(1);
        let new_sessions = st.sessions_completed - prev_sessions;
        prev_sessions = st.sessions_completed;
        println!(
            "{:>4.0}   {:>7.2}   {:>6}   {:>7}   {:>7}   {:>8}",
            t,
            st.load_max_per_sec.last().copied().unwrap_or(0.0),
            st.drops_per_sec.bins().last().copied().unwrap_or(0),
            new_sessions,
            sys.total_replicas(),
            hottest,
        );
    }

    let st = sys.stats();
    println!(
        "\nafter the crowd: {:.2}% of all queries dropped, {} replicas created",
        100.0 * st.drop_fraction(),
        st.replicas_created
    );
    println!(
        "routing accuracy vs oracle: {:.4}",
        terradir_repro::protocol::oracle::routing_accuracy(&sys).2
    );
    assert!(
        st.drop_fraction() < 0.2,
        "replication should absorb the flash crowd"
    );
}
