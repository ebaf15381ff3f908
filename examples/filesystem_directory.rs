//! A distributed file-system directory — the workload TerraDir's
//! introduction motivates: a hierarchical namespace of files served by a
//! federation of peers, queried with heavy skew (some files are hot).
//!
//! Builds the namespace from explicit paths (as a real deployment would
//! from an `ls -R` scan), runs a skewed lookup stream against it, and shows
//! how the routing state adapts.
//!
//! ```text
//! cargo run --release --example filesystem_directory
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use terradir_repro::namespace::{coda_like, CodaParams};
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::StreamPlan;

fn main() {
    // A file-system-shaped namespace: ~20k entries, heavy-tailed directory
    // fanout, mostly leaf files — the synthetic stand-in for the paper's
    // Coda trace. (Use `terradir_repro::namespace::from_paths` to load a
    // real listing instead.)
    let params = CodaParams {
        nodes: 20_000,
        max_depth: 10,
        dir_fraction: 0.2,
        attach_bias: 0.8,
    };
    let mut rng = StdRng::seed_from_u64(2024);
    let ns = coda_like(&params, &mut rng);
    let sizes = ns.level_sizes();
    println!("file-system namespace: {} entries", ns.len());
    println!("entries per depth: {sizes:?}");

    // 256 peers, paper defaults.
    let cfg = Config::paper_default(256).with_seed(11);

    // Lookups with file-sharing-like skew: Zipf order 1.25, with one
    // popularity shift halfway (a new release goes viral).
    let plan = StreamPlan::adaptation(1.25, 20.0, 1, 100.0);
    let mut sys = System::new(ns, cfg, plan, 2_000.0);

    println!("\n   t     resolved%  drops/s  replicas  max-load");
    for step in 1..=12 {
        let t = step as f64 * 10.0;
        sys.run_until(t);
        let st = sys.stats();
        let drops_last = st.drops_per_sec.bins().last().copied().unwrap_or(0);
        println!(
            "{:>5.0}s   {:>6.2}%   {:>6}   {:>7}   {:>6.2}",
            t,
            100.0 * st.resolve_fraction(),
            drops_last,
            sys.total_replicas(),
            st.load_max_per_sec.last().copied().unwrap_or(0.0),
        );
    }

    let st = sys.stats();
    println!(
        "\nfinal: {:.2}% resolved, {:.2}% dropped, mean latency {:.0} ms, {} replicas live",
        100.0 * st.resolve_fraction(),
        100.0 * st.drop_fraction(),
        st.latency.mean().unwrap_or(0.0) * 1e3,
        sys.total_replicas()
    );
    assert!(st.resolve_fraction() > 0.85);
}
