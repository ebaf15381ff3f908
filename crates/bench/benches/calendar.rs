#![allow(
    clippy::expect_used,
    reason = "benchmark harness: a broken setup aborts the bench"
)]

//! Microbenchmarks: the DES kernel's event calendar — every simulated
//! message is at least one push and one pop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use terradir_sim::{Calendar, Engine};

fn bench_push_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar_churn");
    // 1 024 and 65 536 bracket the pending-event counts a 256-server run
    // actually holds (sub-1k steady state, tens of thousands mid-burst);
    // 64 and 4 096 fill in the curve's shape between them.
    for &backlog in &[64usize, 1_024, 4_096, 65_536] {
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(
            BenchmarkId::from_parameter(backlog),
            &backlog,
            |b, &backlog| {
                // Steady-state churn at a fixed backlog: push one, pop one.
                let mut cal = Calendar::new();
                let mut rng = StdRng::seed_from_u64(1);
                let mut now = 0.0;
                for _ in 0..backlog {
                    cal.push(now + rng.gen::<f64>(), ());
                }
                b.iter(|| {
                    let (t, ()) = cal.pop().expect("backlog maintained");
                    now = t;
                    cal.push(now + rng.gen::<f64>(), ());
                    black_box(t)
                });
            },
        );
    }
    g.finish();
}

fn bench_engine_hop(c: &mut Criterion) {
    // The cost of one simulated network hop: schedule_in + pop.
    let mut e: Engine<u32> = Engine::new();
    e.schedule(0.0, 0);
    c.bench_function("engine_schedule_pop", |b| {
        b.iter(|| {
            let v = e.pop().expect("self-sustaining");
            e.schedule_in(0.025, v + 1);
            black_box(v)
        });
    });
}

criterion_group!(benches, bench_push_pop, bench_engine_hop);
criterion_main!(benches);
