//! Microbenchmarks: whole routing steps and simulated-system throughput —
//! the numbers that determine how fast the paper-scale experiments run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use terradir::{Config, System};
use terradir_namespace::balanced_tree;
use terradir_workload::StreamPlan;

fn bench_system_second(c: &mut Criterion) {
    // Cost of simulating one second of a warm system at three sizes.
    let mut g = c.benchmark_group("simulate_one_second");
    g.sample_size(10);
    for &servers in &[64u32, 256] {
        let rate = 20_000.0 * servers as f64 / 4096.0;
        g.throughput(Throughput::Elements(rate as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(servers),
            &servers,
            |b, &servers| {
                let levels = ((servers * 8).ilog2() - 1) as u16;
                let ns = balanced_tree(2, levels);
                let cfg = Config::paper_default(servers).with_seed(1);
                let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 1e9), rate);
                sys.run_until(10.0); // warm up
                let mut t = 10.0;
                b.iter(|| {
                    t += 1.0;
                    sys.run_until(t);
                    black_box(sys.stats().injected)
                });
            },
        );
    }
    g.finish();
}

fn bench_cold_vs_warm_hops(c: &mut Criterion) {
    // Not a timing benchmark per se, but a cheap throughput probe of the
    // routing fast path: drive 1000 queries through a warm system.
    let mut g = c.benchmark_group("warm_routing_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1000));
    g.bench_function("1000_queries_64_servers", |b| {
        let ns = balanced_tree(2, 8);
        let cfg = Config::paper_default(64).with_seed(2);
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 1e9), 312.0);
        sys.run_until(20.0);
        let mut t = 20.0;
        b.iter(|| {
            // ~1000 queries at 312/s ≈ 3.2 s of simulated time.
            t += 3.2;
            sys.run_until(t);
            black_box(sys.stats().resolved)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_system_second, bench_cold_vs_warm_hops);
criterion_main!(benches);
