//! Microbenchmarks: workload generation (Zipf sampling, Poisson gaps,
//! full query-stream steps) — the simulator injects hundreds of thousands
//! of queries per run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use terradir_workload::{PoissonArrivals, QueryStream, StreamPlan, ZipfSampler};

fn bench_zipf_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf_build");
    for &n in &[1_024usize, 32_767, 131_071] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(ZipfSampler::new(n, 1.0).len()));
        });
    }
    g.finish();
}

fn bench_zipf_sample(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf_sample");
    g.throughput(Throughput::Elements(1));
    for &n in &[1_024usize, 32_767] {
        let z = ZipfSampler::new(n, 1.25);
        let mut rng = StdRng::seed_from_u64(1);
        g.bench_with_input(BenchmarkId::from_parameter(n), &z, |b, z| {
            b.iter(|| black_box(z.sample(&mut rng)));
        });
    }
    g.finish();
}

fn bench_poisson(c: &mut Criterion) {
    let p = PoissonArrivals::new(20_000.0);
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("poisson_gap", |b| {
        b.iter(|| black_box(p.next_gap(&mut rng)));
    });
}

fn bench_stream_step(c: &mut Criterion) {
    let mut qs = QueryStream::new(StreamPlan::uzipf(1.0, 1e9), 32_767, 4096, 3);
    let mut t = 0.0;
    c.bench_function("query_stream_next", |b| {
        b.iter(|| {
            t += 5e-5;
            black_box(qs.next_query(t))
        });
    });
}

criterion_group!(
    benches,
    bench_zipf_build,
    bench_zipf_sample,
    bench_poisson,
    bench_stream_step
);
criterion_main!(benches);
