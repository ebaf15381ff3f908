//! Per-layer probes on a warmed `System`, each wrapped in spans.
//!
//! The probes call only public, read-only accessors of the system and
//! the public APIs of the layer crates, on private copies of whatever
//! they mutate (a fresh `QueryStream`, `DigestStore` and `Calendar`), so
//! the simulation they inspect is left exactly as it was.

use std::hint::black_box;

use terradir::digests::DigestStore;
use terradir::System;
use terradir_bloom::hashing::hash128;
use terradir_namespace::{distance, NodeId, ServerId};
use terradir_sim::Calendar;
use terradir_workload::QueryStream;

use crate::trace::Tracer;
use crate::workloads::Workload;

/// Route decisions sampled from the workload's own query stream.
const ROUTES: usize = 2_000;
/// Operations timed by the calendar, hash and stream microprobes.
const MICRO_OPS: u64 = 200_000;

/// What the probes measured.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Route decisions sampled (pairs whose source does not host the target).
    pub routes: u64,
    /// Nanoseconds per rebuilt route decision (candidates, distances, scan).
    pub route_ns: f64,
    /// Nanoseconds of digest scan per route decision.
    pub scan_ns_per_route: f64,
    /// Mean forwarding candidates per route decision.
    pub candidates_per_route: f64,
    /// Nanoseconds per namespace distance computation.
    pub distance_ns: f64,
    /// Mean digest tests per route decision.
    pub tests_per_route: f64,
    /// Nanoseconds per digest test inside the scan.
    pub test_ns: f64,
    /// Digest hits on a server that does not host the node ÷ all hits.
    pub false_pos_frac: f64,
    /// Digest hits seen (the base of `false_pos_frac`).
    pub digest_hits: u64,
    /// Nanoseconds per 128-bit name hash.
    pub hash128_ns: f64,
    /// Nanoseconds per calendar pop + push at fleet-size depth.
    pub calendar_op_ns: f64,
    /// Nanoseconds per `QueryStream::next_query`.
    pub next_query_ns: f64,
    /// Mean route-cache occupancy over servers.
    pub cache_fill_frac: f64,
    /// Replicas hosted per server.
    pub replicas_per_server: f64,
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Runs every probe against `sys`, which has finished its measured window.
pub fn run(sys: &System, w: &Workload, seed: u64, tr: &mut Tracer) -> Probes {
    let root = tr.begin("probe");
    let mut p = Probes::default();
    route_decisions(sys, w, seed, tr, &mut p);
    micro(sys, w, seed, tr, &mut p);
    let n = w.servers as usize;
    p.cache_fill_frac = sys
        .servers()
        .map(|s| s.cache().len() as f64 / s.cache().slots().max(1) as f64)
        .sum::<f64>()
        / n as f64;
    p.replicas_per_server = sys.total_replicas() as f64 / n as f64;
    tr.end(root, 0);
    p
}

/// Rebuilds, for sampled (source, target) pairs, the two halves of a
/// route decision: the classical candidate set (neighbours of hosted
/// nodes and cached pointers, minus hosted nodes, ranked by namespace
/// distance) and the digest scan over the target's ancestor chain.
fn route_decisions(sys: &System, w: &Workload, seed: u64, tr: &mut Tracer, p: &mut Probes) {
    let ns = sys.namespace();
    let cfg = sys.config();
    let mut stream = QueryStream::new(w.plan(), ns.len(), w.servers, seed);
    let now = sys.now();
    let pairs: Vec<(ServerId, NodeId)> = (0..ROUTES)
        .map(|_| stream.next_query(now))
        .filter(|&(s, t)| !sys.server(s).hosts(t))
        .collect();

    // A store holding `digest_store_slots` peer digests, peers spread
    // evenly over the fleet.
    let slots = cfg.digest_store_slots.min(w.servers as usize).max(1);
    let mut store = DigestStore::new(cfg.digest_store_slots);
    for i in 0..slots {
        let peer = ServerId((i * w.servers as usize / slots) as u32);
        store.observe(peer, sys.server(peer).digest());
    }

    let (mut candidates, mut distances, mut tests) = (0u64, 0u64, 0u64);
    let (mut route_ns, mut distance_ns, mut scan_ns) = (0u64, 0u64, 0u64);
    let (mut hits, mut false_hits) = (0u64, 0u64);
    let mut cand: Vec<NodeId> = Vec::new();
    let mut hit_buf: Vec<(ServerId, NodeId)> = Vec::new();
    for &(src, target) in &pairs {
        let route = tr.begin("routing.route");
        let server = sys.server(src);

        let s = tr.begin("routing.candidates");
        cand.clear();
        for h in server.hosted_ids() {
            cand.extend(ns.neighbors(h));
        }
        cand.extend(server.cache().iter().map(|(n, _)| n));
        cand.sort_unstable();
        cand.dedup();
        cand.retain(|&n| !server.hosts(n));
        tr.end(s, cand.len() as u64);
        candidates += cand.len() as u64;

        let s = tr.begin("namespace.distance");
        let best = cand
            .iter()
            .map(|&c| distance(ns, c, target))
            .min()
            .unwrap_or(u32::MAX);
        distance_ns += tr.end(s, cand.len() as u64);
        distances += cand.len() as u64;

        let s = tr.begin("digests.scan");
        hit_buf.clear();
        let mut budget = cfg.digest_test_budget;
        let mut route_tests = 0u64;
        let mut chain = Some(target);
        let mut dist = 0u32;
        while let Some(node) = chain {
            if !cfg.digests || dist >= black_box(best) || budget == 0 {
                break;
            }
            let name = ns.name(node).as_str();
            for (peer, digest) in store.iter() {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                if peer == src {
                    continue;
                }
                route_tests += 1;
                if digest.test(name) {
                    hit_buf.push((peer, node));
                }
            }
            if !hit_buf.is_empty() {
                break;
            }
            chain = ns.parent(node);
            dist += 1;
        }
        scan_ns += tr.end(s, route_tests);
        tests += route_tests;
        hits += hit_buf.len() as u64;
        false_hits += hit_buf
            .iter()
            .filter(|&&(peer, node)| !sys.server(peer).hosts(node))
            .count() as u64;
        route_ns += tr.end(route, 1);
    }
    let routes = pairs.len() as u64;
    p.routes = routes;
    p.route_ns = per(route_ns, routes);
    p.scan_ns_per_route = per(scan_ns, routes);
    p.candidates_per_route = per(candidates, routes);
    p.distance_ns = per(distance_ns, distances);
    p.tests_per_route = per(tests, routes);
    p.test_ns = per(scan_ns, tests);
    p.digest_hits = hits;
    p.false_pos_frac = per(false_hits, hits);
}

/// Microprobes of single calls: name hashing, calendar churn at
/// fleet-size depth, and query generation.
fn micro(sys: &System, w: &Workload, seed: u64, tr: &mut Tracer, p: &mut Probes) {
    let ns = sys.namespace();
    let names: Vec<&str> = ns.ids().take(4096).map(|n| ns.name(n).as_str()).collect();

    let s = tr.begin("bloom.hash128");
    let mut acc = 0u64;
    for i in 0..MICRO_OPS {
        let name = names[i as usize % names.len()];
        acc ^= hash128(black_box(name.as_bytes()), i & 0xff).h1;
    }
    black_box(acc);
    p.hash128_ns = per(tr.end(s, MICRO_OPS), MICRO_OPS);

    // Hold model: keep `servers` pending events, pop the earliest and
    // push a successor at a pseudo-random later time.
    let mut cal: Calendar<u32> = Calendar::new();
    let mut x = seed | 1;
    let mut next_gap = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..w.servers {
        cal.push(next_gap(), i);
    }
    let s = tr.begin("sim.calendar");
    for _ in 0..MICRO_OPS {
        if let Some((t, e)) = cal.pop() {
            cal.push(t + next_gap(), black_box(e));
        }
    }
    p.calendar_op_ns = per(tr.end(s, MICRO_OPS), MICRO_OPS);

    let mut stream = QueryStream::new(w.plan(), ns.len(), w.servers, seed);
    let s = tr.begin("workload.next_query");
    let step = w.window / MICRO_OPS as f64;
    for i in 0..MICRO_OPS {
        black_box(stream.next_query(i as f64 * step));
    }
    p.next_query_ns = per(tr.end(s, MICRO_OPS), MICRO_OPS);
}
