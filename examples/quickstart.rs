//! Quickstart: build a namespace, run a simulated TerraDir deployment, and
//! read the results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use terradir_repro::namespace::balanced_tree;
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

fn main() {
    // 1. A namespace: a perfectly balanced binary tree with 9 levels
    //    (1023 nodes) — the paper's synthetic T_S shape, scaled down.
    let ns = balanced_tree(2, 9);
    println!("namespace: {} nodes, depth {}", ns.len(), ns.max_depth());

    // 2. A configuration: the paper's defaults for 128 servers. `Config`
    //    exposes every protocol knob (thresholds, replication factor, map
    //    size, cache slots, digests…).
    let cfg = Config::paper_default(128).with_seed(7);

    // 3. A workload: Poisson arrivals at 600 queries/s globally, uniform
    //    sources, Zipf(1.0)-popular destinations for 60 simulated seconds.
    let plan = StreamPlan::uzipf(1.0, 60.0);

    // 4. Run.
    let mut sys = System::new(ns, cfg, plan, 600.0);
    sys.run_until(60.0);

    // 5. Inspect.
    let st = sys.stats();
    println!("injected   : {}", st.injected);
    println!(
        "resolved   : {} ({:.2}%)",
        st.resolved,
        100.0 * st.resolve_fraction()
    );
    println!(
        "dropped    : {} ({:.2}%)",
        st.dropped_total(),
        100.0 * st.drop_fraction()
    );
    println!(
        "latency    : mean {:.1} ms, p99 {:.1} ms",
        st.latency.mean().unwrap_or(0.0) * 1e3,
        st.latency.quantile(0.99).unwrap_or(0.0) * 1e3
    );
    println!("mean hops  : {:.2}", st.hops.mean().unwrap_or(0.0));
    println!(
        "replication: {} replicas created by {} sessions ({} control messages)",
        st.replicas_created, st.sessions_completed, st.control_messages
    );
    println!("replicas/level now: {:?}", sys.replicas_per_level());

    assert!(
        st.resolve_fraction() > 0.9,
        "the demo should mostly resolve"
    );
}
