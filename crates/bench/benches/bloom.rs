//! Microbenchmarks: Bloom digest construction and membership tests — the
//! hot inner loop of shortcut discovery (hundreds of tests per routing
//! step under budget).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use terradir_bloom::{BloomFilter, BloomParams, DigestBuilder};

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom_insert");
    for &n in &[64usize, 1024, 16_384] {
        g.throughput(Throughput::Elements(n as u64));
        let names: Vec<String> = (0..n).map(|i| format!("/dir{}/node{i}", i % 37)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &names, |b, names| {
            b.iter(|| {
                let mut f = BloomFilter::with_capacity(names.len(), 1e-4, 7);
                for name in names {
                    f.insert(name.as_bytes());
                }
                black_box(f.items())
            });
        });
    }
    g.finish();
}

fn bench_contains(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom_contains");
    let n = 4096;
    let mut f = BloomFilter::with_capacity(n, 1e-4, 7);
    let names: Vec<String> = (0..n).map(|i| format!("/dir{}/node{i}", i % 37)).collect();
    for name in &names {
        f.insert(name.as_bytes());
    }
    let probes: Vec<String> = (0..n).map(|i| format!("/other{}/n{i}", i % 17)).collect();
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("hit", |b| {
        b.iter(|| names.iter().filter(|n| f.contains(n.as_bytes())).count());
    });
    g.bench_function("miss", |b| {
        b.iter(|| probes.iter().filter(|n| f.contains(n.as_bytes())).count());
    });
    g.finish();
}

fn bench_digest_rebuild(c: &mut Criterion) {
    // A server's maintenance-time digest rebuild at the paper's hosted-set
    // size (8 owned + up to 16 replicas).
    let names: Vec<String> = (0..24).map(|i| format!("/a/b/c{i}")).collect();
    c.bench_function("digest_rebuild_24_names", |b| {
        b.iter(|| {
            let params = BloomParams::for_capacity(24, 1e-4, 3);
            let mut builder = DigestBuilder::new(params);
            for n in &names {
                builder.add(n);
            }
            black_box(builder.seal(1).items())
        });
    });
}

criterion_group!(benches, bench_insert, bench_contains, bench_digest_rebuild);
criterion_main!(benches);
