// Benchmark harness: panicking on setup failure is the correct failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Hot-path microbenchmarks (DESIGN.md §16): the three operations the
//! steady-state event loop performs per forwarded query — a route-step
//! decision, a route-cache lookup, and the digest scan over a target's
//! ancestor chain. The
//! `hotpath` analyze pass keeps allocations out of these paths statically;
//! these benches price what remains.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use terradir::routing::RouteChoice;
use terradir::server::ServerState;
use terradir::{NodeMap, RouteCache, System};
use terradir_bench::Scale;
use terradir_bloom::Digest;
use terradir_namespace::{Namespace, NodeId, ServerId};
use terradir_workload::{seed::tags, seeded_rng, QueryStream, StreamPlan};

/// Seed of the warmed runs and of the target streams drawn from them.
const WARM_SEED: u64 = 7;

/// A server cloned out of a run warmed for 6 simulated seconds, plus
/// targets drawn from the same stream that the server does not host, and
/// the run's namespace. The
/// server is the one `rank` puts highest (ties to the lower id). A freshly
/// bootstrapped server, with an empty digest store and cache, prices a
/// decision at a tenth of its in-situ cost.
fn warmed_server<K: Ord>(
    scale: Scale,
    ns: Namespace,
    plan: StreamPlan,
    paper_rate: f64,
    rank: impl Fn(&System, ServerId) -> K,
) -> (ServerState, Vec<NodeId>, Namespace) {
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
    (server, targets, sys.namespace().clone())
}

/// The paper's adaptation stream on a 1024-server T_S fleet (the `speed`
/// bench's workload: uniform warm-up, then a Zipf-1.25 segment), at the
/// server with the fullest digest store: a warm cache, replicas, and a
/// digest scan over ~`digest_store_slots` peers. T_S has fan-out 2.
fn warmed_ts_1024() -> (ServerState, Vec<NodeId>, Namespace) {
    let scale = Scale::for_servers(1024, 1.0);
    let plan = StreamPlan::adaptation(1.25, 3.0, 1, 3.0);
    warmed_server(scale, scale.ts_namespace(), plan, 20_000.0, |sys, s| {
        sys.server(s).digest_store().len()
    })
}

/// Zipf-1.0 on a 256-server T_C fleet (the paper's λ_C), whose
/// directories hold hundreds of entries, at the server with the most
/// neighbor maps: the decision's fan-out-heavy shape.
fn warmed_tc_256() -> (ServerState, Vec<NodeId>, Namespace) {
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
    for (name, (server, targets, ns)) in cases {
        let keys: usize = targets.iter().map(|&t| server.ranked_key_count(t)).sum();
        println!(
            "route_step/{name}: server {} with {} stored digests, {} cached pointers, {} hosted nodes, \
             {} context maps, {:.1} ranked keys per decision",
            server.id().0,
            server.digest_store().len(),
            server.cache().len(),
            server.hosted_ids().count(),
            ns.ids().filter(|&n| server.neighbor_map(n).is_some()).count(),
            keys as f64 / targets.len() as f64
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
    g.sample_size(5_000);
    // The warmed 1024-server T_S server's stored digests, each tested
    // against a target's whole ancestor chain (target to root): name by
    // name with `Digest::test`, and in one pass per name with
    // `Digest::test_prefixes`, four digests at a time. One element is one
    // target's chain against every stored digest.
    let (server, targets, ns) = warmed_ts_1024();
    let digests: Vec<&Digest> = server.digest_store().iter().map(|(_, d)| d).collect();
    let chains: Vec<Vec<NodeId>> = targets
        .iter()
        .map(|&t| std::iter::successors(Some(t), |&n| ns.parent(n)).collect())
        .collect();
    let lens: Vec<Vec<usize>> = chains
        .iter()
        .map(|chain| chain.iter().map(|&n| ns.name(n).as_str().len()).collect())
        .collect();
    // Both fold the per-digest masks, in store order, into one checksum.
    let fold = |acc: u64, mask: u64| acc ^ mask.rotate_left(acc.count_ones());
    let per_name = |k: usize| -> u64 {
        let chain = &chains[k];
        digests
            .iter()
            .map(|d| {
                chain.iter().enumerate().fold(0u64, |mask, (j, &n)| {
                    mask | u64::from(d.test(ns.name(n).as_str())) << j
                })
            })
            .fold(0, fold)
    };
    let prefixes = |k: usize| -> u64 {
        let name = ns.name(targets[k]).as_str();
        let mut quads = digests.chunks_exact(4);
        let mut acc = 0;
        for q in &mut quads {
            acc = Digest::test_prefixes([q[0], q[1], q[2], q[3]], name, &lens[k])
                .into_iter()
                .fold(acc, fold);
        }
        for &d in quads.remainder() {
            let [mask] = Digest::test_prefixes([d], name, &lens[k]);
            acc = fold(acc, mask);
        }
        acc
    };
    for k in 0..targets.len() {
        assert_eq!(per_name(k), prefixes(k), "both scans read the same bits");
    }
    println!(
        "digest_check: {} stored digests, {} targets, {:.1} chain names per target",
        digests.len(),
        targets.len(),
        chains.iter().map(Vec::len).sum::<usize>() as f64 / chains.len() as f64
    );
    g.bench_function("chain_per_name_test", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % targets.len();
            black_box(per_name(black_box(k)))
        });
    });
    g.bench_function("chain_test_prefixes", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % targets.len();
            black_box(prefixes(black_box(k)))
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
