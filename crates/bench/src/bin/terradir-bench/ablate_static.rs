//! **Ablation: static vs adaptive replication** (§2.3).
//!
//! "While hierarchical bottlenecks can be addressed by static replication
//! mechanisms \[15\], the last two arguments (hot-spots, resiliency) call
//! for an adaptive scheme." We pit three systems against two workloads:
//!
//! - `static`: top-3-levels statically replicated at bootstrap, adaptive
//!   replication disabled;
//! - `adaptive`: the full BCR protocol;
//! - `both`: static bootstrap *plus* adaptive replication.
//!
//! Under uniform load (a pure hierarchical bottleneck) static replication
//! should hold its own; under shifting Zipf hot-spots it cannot follow the
//! demand and adaptive replication must win.

use terradir::{Config, System};
use terradir_bench::{pct, tsv_header, Args, ShapeChecks};
use terradir_workload::StreamPlan;

pub fn run(args: Args, checks: &mut ShapeChecks) {
    let scale = args.scale();
    let total = scale.duration(120.0);
    let rate = scale.rate(20_000.0);

    eprintln!("ablate_static: {} servers, λ={rate:.0}/s", scale.servers);

    let static_top = |mut c: Config| {
        c.static_top_levels = 3;
        c.static_replicas_per_node = 4;
        c
    };
    let adaptive = Config::paper_default(scale.servers).with_seed(args.seed);
    let cases = [
        (
            "static",
            static_top(Config::caching_only(scale.servers).with_seed(args.seed)),
        ),
        ("adaptive", adaptive.clone()),
        ("both", static_top(adaptive)),
    ];

    let unif = || StreamPlan::unif(total);
    let shifting = || StreamPlan::adaptation(1.25, scale.duration(30.0), 3, scale.duration(30.0));
    let drops = |cfg: Config, plan: StreamPlan| {
        let mut sys = System::new(scale.ts_namespace(), cfg, plan, rate);
        sys.run_until(total);
        sys.stats().drop_fraction()
    };

    tsv_header(&["system", "unif_drops", "shifting_zipf_drops"]);
    let mut rows = Vec::new();
    for (label, cfg) in cases {
        let u = drops(cfg.clone(), unif());
        let z = drops(cfg, shifting());
        println!("{label}\t{u:.4}\t{z:.4}");
        rows.push((label, u, z));
        eprint!(".");
    }
    eprintln!();

    let (static_u, static_z) = (rows[0].1, rows[0].2);
    let (adaptive_u, adaptive_z) = (rows[1].1, rows[1].2);
    let (both_u, both_z) = (rows[2].1, rows[2].2);
    checks.check(
        "static replication tames the hierarchical bottleneck",
        static_u < 0.15,
        format!("static unif drops {}", pct(static_u)),
    );
    checks.check(
        "static replication cannot follow shifting hot-spots",
        static_z > adaptive_z * 1.5,
        format!("static {} vs adaptive {}", pct(static_z), pct(adaptive_z)),
    );
    checks.check(
        "adaptive handles both regimes",
        adaptive_u < 0.10 && adaptive_z < 0.15,
        format!("adaptive unif {} zipf {}", pct(adaptive_u), pct(adaptive_z)),
    );
    checks.check(
        "static bootstrap does not hurt the adaptive protocol",
        both_u <= adaptive_u + 0.05 && both_z <= adaptive_z + 0.05,
        format!("both: unif {} zipf {}", pct(both_u), pct(both_z)),
    );
}
