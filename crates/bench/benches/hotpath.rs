// Benchmark harness: panicking on setup failure is the correct failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Hot-path microbenchmarks (DESIGN.md §16): the three operations the
//! steady-state event loop performs per forwarded query — a route-step
//! decision, a route-cache lookup, and a digest membership check. The
//! `hotpath` analyze pass keeps allocations out of these paths statically;
//! these benches price what remains.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use terradir::routing::RouteChoice;
use terradir::server::ServerState;
use terradir::{NodeMap, RouteCache, System};
use terradir_bench::Scale;
use terradir_bloom::{BloomParams, DigestBuilder};
use terradir_namespace::{balanced_tree, Namespace, NodeId, ServerId};
use terradir_workload::{seed::tags, seeded_rng, QueryStream, StreamPlan};

/// Seed of the warmed runs and of the target streams drawn from them.
const WARM_SEED: u64 = 7;

/// A server cloned out of a run warmed for 6 simulated seconds, plus
/// targets drawn from the same stream that the server does not host. The
/// server is the one `rank` puts highest (ties to the lower id). A freshly
/// bootstrapped server, with an empty digest store and cache, prices a
/// decision at a tenth of its in-situ cost.
fn warmed_server<K: Ord>(
    scale: Scale,
    ns: Namespace,
    plan: StreamPlan,
    paper_rate: f64,
    rank: impl Fn(&System, ServerId) -> K,
) -> (ServerState, Vec<NodeId>) {
    let n_nodes = ns.len();
    let mut sys = System::new(
        ns,
        scale.config(WARM_SEED),
        plan.clone(),
        scale.rate(paper_rate),
    );
    sys.run_until(6.0);
    let server = (0..scale.servers)
        .map(ServerId)
        .max_by_key(|&s| (rank(&sys, s), std::cmp::Reverse(s)))
        .map(|s| sys.server(s).clone())
        .unwrap();
    let mut stream = QueryStream::new(plan, n_nodes, scale.servers, WARM_SEED);
    let targets: Vec<NodeId> = (0..4096)
        .map(|_| stream.next_query(sys.now()).1)
        .filter(|&t| !server.hosts(t))
        .collect();
    (server, targets)
}

/// The paper's adaptation stream on a 1024-server T_S fleet (the `speed`
/// bench's workload: uniform warm-up, then a Zipf-1.25 segment), at the
/// server with the fullest digest store: a warm cache, replicas, and a
/// digest scan over ~`digest_store_slots` peers. T_S has fan-out 2.
fn warmed_ts_1024() -> (ServerState, Vec<NodeId>) {
    let scale = Scale::for_servers(1024, 1.0);
    let plan = StreamPlan::adaptation(1.25, 3.0, 1, 3.0);
    warmed_server(scale, scale.ts_namespace(), plan, 20_000.0, |sys, s| {
        sys.server(s).digest_store().len()
    })
}

/// Zipf-1.0 on a 256-server T_C fleet (the paper's λ_C), whose
/// directories hold hundreds of entries, at the server with the most
/// neighbor maps: the decision's fan-out-heavy shape.
fn warmed_tc_256() -> (ServerState, Vec<NodeId>) {
    let scale = Scale::for_servers(256, 1.0);
    let plan = StreamPlan::uzipf(1.0, 10.0);
    warmed_server(scale, scale.tc_namespace(42), plan, 40_000.0, |sys, s| {
        let server = sys.server(s);
        sys.namespace()
            .ids()
            .filter(|&n| server.neighbor_map(n).is_some())
            .count()
    })
}

fn bench_route_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_step");
    g.throughput(Throughput::Elements(1));
    g.sample_size(20_000);
    let cases = [
        ("decide_warmed_1024_servers", warmed_ts_1024()),
        ("decide_warmed_tc_256_servers", warmed_tc_256()),
    ];
    for (name, (server, targets)) in cases {
        println!(
            "route_step/{name}: server {} with {} stored digests, {} cached pointers, {} hosted nodes",
            server.id().0,
            server.digest_store().len(),
            server.cache().len(),
            server.hosted_ids().count()
        );
        g.bench_function(name, |b| {
            let mut server = server.clone();
            let mut rng = seeded_rng(WARM_SEED, tags::PROTOCOL);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % targets.len();
                let choice = server.peek_route(black_box(targets[i]), &mut rng);
                black_box(matches!(choice, RouteChoice::Resolve))
            });
        });
    }
    g.finish();
}

fn bench_cache_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_lookup");
    g.throughput(Throughput::Elements(1));
    // A full cache (every slot live) probed with a mix of hits and misses,
    // like a warm origin server resolving a Zipf stream.
    g.bench_function("get_128_slots", |b| {
        let mut cache = RouteCache::new(128);
        for i in 0..128u32 {
            cache.insert(NodeId(i), NodeMap::singleton(ServerId(i % 64)), 0.0);
        }
        let mut probe = 0u32;
        b.iter(|| {
            probe = (probe + 1) % 256; // half hit, half miss
            black_box(cache.get(NodeId(black_box(probe))).is_some())
        });
    });
    g.finish();
}

fn bench_digest_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("digest_check");
    g.throughput(Throughput::Elements(1));
    // A sealed digest over 512 hosted names tested with present and absent
    // names — the per-candidate cost of digest-pruned forwarding.
    g.bench_function("test_512_items", |b| {
        let ns = balanced_tree(2, 8);
        let mut builder = DigestBuilder::new(BloomParams::for_capacity(512, 0.01, 7));
        for id in ns.ids().take(512) {
            builder.add(ns.name(id).as_str());
        }
        let digest = builder.seal(1);
        let names: Vec<&str> = ns.ids().map(|id| ns.name(id).as_str()).collect();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % names.len();
            black_box(digest.test(black_box(names[i])))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_route_step,
    bench_cache_lookup,
    bench_digest_check
);
criterion_main!(benches);
