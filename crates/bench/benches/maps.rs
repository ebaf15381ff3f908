//! Microbenchmarks: node-map operations (merge, advertise, filter) — maps
//! are merged on every query carrying path state.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use terradir::NodeMap;
use terradir_namespace::ServerId;

fn maps() -> (NodeMap, NodeMap) {
    let a = NodeMap::from_entries((0..5).map(ServerId));
    let b = NodeMap::from_entries((3..8).map(ServerId));
    (a, b)
}

fn bench_merge(c: &mut Criterion) {
    let (a, b) = maps();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("map_merge_r5", |bch| {
        bch.iter(|| black_box(a.merge(&b, 5, &mut rng)));
    });
}

fn bench_advertise(c: &mut Criterion) {
    let (a, _) = maps();
    c.bench_function("map_advertise", |bch| {
        bch.iter(|| {
            let mut m = a;
            m.advertise(ServerId(99), 5);
            black_box(m)
        });
    });
}

fn bench_filter(c: &mut Criterion) {
    let (a, _) = maps();
    c.bench_function("map_filter_stale", |bch| {
        bch.iter(|| {
            let mut m = a;
            m.filter_stale(|h| h.0 % 2 == 0);
            black_box(m)
        });
    });
}

fn bench_select(c: &mut Criterion) {
    let (a, _) = maps();
    let mut rng = StdRng::seed_from_u64(2);
    let avoid = [ServerId(0), ServerId(1)];
    c.bench_function("map_select_avoiding", |bch| {
        bch.iter(|| black_box(a.select_avoiding(&avoid, &mut rng)));
    });
}

criterion_group!(
    benches,
    bench_merge,
    bench_advertise,
    bench_filter,
    bench_select
);
criterion_main!(benches);
