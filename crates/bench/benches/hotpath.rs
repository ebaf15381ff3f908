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
use terradir_namespace::{balanced_tree, NodeId, ServerId};
use terradir_workload::{seed::tags, seeded_rng, QueryStream, StreamPlan};

/// Servers in the warmed fleet the route-step bench samples from.
const WARM_SERVERS: u32 = 1024;

/// A server cloned out of a warmed 1024-server run of the paper's
/// adaptation stream (the `speed` bench's workload, 6 simulated seconds:
/// uniform warm-up, then a Zipf-1.25 segment), plus targets drawn from the
/// same stream that the server does not host. Taking the server with the
/// fullest digest store gives the route decision its in-situ shape: a
/// warm cache, replicas, and a digest scan over ~`digest_store_slots`
/// peers. A freshly bootstrapped server, with an empty store and cache,
/// prices a decision at a tenth of its in-situ cost.
fn warmed_server() -> (ServerState, Vec<NodeId>) {
    let scale = Scale::for_servers(WARM_SERVERS, 1.0);
    let plan = StreamPlan::adaptation(1.25, 3.0, 1, 3.0);
    let ns = scale.ts_namespace();
    let n_nodes = ns.len();
    let mut sys = System::new(ns, scale.config(7), plan.clone(), scale.rate(20_000.0));
    sys.run_until(6.0);
    let server = (0..WARM_SERVERS)
        .map(ServerId)
        .max_by_key(|&s| (sys.server(s).digest_store().len(), std::cmp::Reverse(s)))
        .map(|s| sys.server(s).clone())
        .unwrap();
    let mut stream = QueryStream::new(plan, n_nodes, WARM_SERVERS, 7);
    let targets: Vec<NodeId> = (0..4096)
        .map(|_| stream.next_query(sys.now()).1)
        .filter(|&t| !server.hosts(t))
        .collect();
    (server, targets)
}

fn bench_route_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_step");
    g.throughput(Throughput::Elements(1));
    g.sample_size(20_000);
    let (server, targets) = warmed_server();
    println!(
        "route_step: server {} with {} stored digests, {} cached pointers",
        server.id().0,
        server.digest_store().len(),
        server.cache().len()
    );
    g.bench_function("decide_warmed_1024_servers", |b| {
        let mut server = server.clone();
        let mut rng = seeded_rng(7, tags::PROTOCOL);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % targets.len();
            let choice = server.peek_route(black_box(targets[i]), &mut rng);
            black_box(matches!(choice, RouteChoice::Resolve))
        });
    });
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
