//! Composite query streams.
//!
//! The paper composes runs out of segments: e.g. the adaptation streams
//! `uzipf_TS(α)` are "the sequence ⟨unif, uzipf, uzipf, uzipf, uzipf⟩" — a
//! uniform warm-up (letting a cold system replicate away the hierarchical
//! bottleneck) followed by Zipf segments, each of which *reshuffles* node
//! popularity on entry (an instantaneous hot-spot shift). A [`StreamPlan`]
//! describes the segments; a [`QueryStream`] executes the plan against a
//! concrete namespace size, producing `(source server, destination node)`
//! pairs as a function of simulation time.

use rand::Rng;

use terradir_namespace::{NodeId, ServerId};

use crate::ranking::PopularityRanking;
use crate::seed::{tagged_rng, tags, TaggedRng};
use crate::zipf::ZipfSampler;

/// How a segment draws destination nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DestinationMode {
    /// Destinations uniform over all nodes (`unif` traces).
    Uniform,
    /// Destinations Zipf-distributed over the current popularity ranking
    /// (`uzipf` traces).
    Zipf {
        /// Zipf order α.
        order: f64,
    },
}

/// One segment of a stream plan.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Segment length in seconds.
    pub duration: f64,
    /// Destination distribution during the segment.
    pub mode: DestinationMode,
    /// Whether to instantaneously re-randomize the popularity ranking when
    /// the segment starts (a hot-spot shift). Ignored for uniform segments.
    pub reshuffle_on_entry: bool,
}

/// A sequence of segments describing a whole run.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// The segments, played back to back. The final segment is extended
    /// indefinitely if the run outlives the plan.
    pub segments: Vec<Segment>,
}

impl StreamPlan {
    /// A single uniform segment (`unif` trace).
    pub fn unif(duration: f64) -> StreamPlan {
        StreamPlan {
            segments: vec![Segment {
                duration,
                mode: DestinationMode::Uniform,
                reshuffle_on_entry: false,
            }],
        }
    }

    /// A single Zipf segment with a fresh random ranking (`uzipf` trace).
    pub fn uzipf(order: f64, duration: f64) -> StreamPlan {
        StreamPlan {
            segments: vec![Segment {
                duration,
                mode: DestinationMode::Zipf { order },
                reshuffle_on_entry: true,
            }],
        }
    }

    /// The paper's adaptation stream: a uniform warm-up followed by
    /// `n_shifts` Zipf segments, each reshuffling popularity on entry.
    ///
    /// `⟨unif(warmup), uzipf(seg), uzipf(seg), …⟩`
    pub fn adaptation(order: f64, warmup: f64, n_shifts: usize, seg_duration: f64) -> StreamPlan {
        let mut segments = vec![Segment {
            duration: warmup,
            mode: DestinationMode::Uniform,
            reshuffle_on_entry: false,
        }];
        for _ in 0..n_shifts {
            segments.push(Segment {
                duration: seg_duration,
                mode: DestinationMode::Zipf { order },
                reshuffle_on_entry: true,
            });
        }
        StreamPlan { segments }
    }

    /// Total planned duration in seconds.
    pub fn total_duration(&self) -> f64 {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Simulation times at which a reshuffle occurs (segment entries with
    /// `reshuffle_on_entry`, excluding time 0 entry of the first segment
    /// which establishes the initial ranking rather than shifting it).
    pub fn reshuffle_times(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = 0.0;
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 && s.reshuffle_on_entry {
                out.push(t);
            }
            t += s.duration;
        }
        out
    }
}

/// Per-tenant destination machinery: tenant member lists, cumulative
/// selection weights, and per-tenant Zipf popularity. Installed with
/// [`QueryStream::set_tenant_mix`]; while present it replaces the
/// segment-driven destination sampling entirely.
#[derive(Debug)]
struct TenantMix {
    /// Cumulative normalized weights, one entry per tenant. Tenants with
    /// no member nodes get zero width and are never selected.
    cum: Vec<f64>,
    /// Member nodes per tenant, in namespace id order.
    members: Vec<Vec<NodeId>>,
    /// Zipf rank sampler per tenant (order 0 = uniform within the
    /// tenant's subtree).
    samplers: Vec<ZipfSampler>,
    /// Popularity permutation per tenant, over member-list indices.
    rankings: Vec<PopularityRanking>,
}

/// Executes a [`StreamPlan`]: yields `(source, destination)` per query.
///
/// Sources are uniform over servers (paper §4.1: "lookups are initiated
/// uniformly at source servers"). Destination sampling follows the active
/// segment. Deterministic given the master seed.
#[derive(Debug)]
pub struct QueryStream {
    plan: StreamPlan,
    n_servers: u32,
    ranking: PopularityRanking,
    samplers: Vec<(u64, ZipfSampler)>,
    seg_idx: usize,
    seg_end: f64,
    dest_rng: TaggedRng,
    src_rng: TaggedRng,
    rank_rng: TaggedRng,
    n_nodes: usize,
    tenant_mix: Option<TenantMix>,
}

impl QueryStream {
    /// Creates a stream over `n_nodes` destination nodes and `n_servers`
    /// source servers.
    pub fn new(plan: StreamPlan, n_nodes: usize, n_servers: u32, master_seed: u64) -> QueryStream {
        assert!(!plan.segments.is_empty(), "plan needs at least one segment");
        assert!(n_nodes >= 1 && n_servers >= 1);
        let mut rank_rng = tagged_rng(master_seed, tags::RANKING);
        let ranking = PopularityRanking::random(n_nodes, &mut rank_rng);
        let seg_end = plan.segments.first().map_or(0.0, |s| s.duration);
        QueryStream {
            plan,
            n_servers,
            ranking,
            samplers: Vec::new(),
            seg_idx: 0,
            seg_end,
            dest_rng: tagged_rng(master_seed, tags::DESTINATIONS),
            src_rng: tagged_rng(master_seed, tags::SOURCES),
            rank_rng,
            n_nodes,
            tenant_mix: None,
        }
    }

    /// Installs a per-tenant destination mix: one `(member nodes, weight,
    /// zipf order)` triple per tenant. While installed, every destination
    /// is drawn by first picking a tenant (weights over non-empty
    /// tenants, one uniform draw) and then a member node via the tenant's
    /// own Zipf popularity — the plan's segment modes and reshuffles are
    /// ignored. Spends one ranking-stream draw burst per tenant at
    /// install time and nothing else; a stream without a mix is
    /// byte-identical to one built before this method existed.
    pub fn set_tenant_mix(&mut self, tenants: Vec<(Vec<NodeId>, f64, f64)>) {
        let total: f64 = tenants
            .iter()
            .filter(|(m, _, _)| !m.is_empty())
            .map(|(_, w, _)| w.max(0.0))
            .sum();
        let mut cum = Vec::with_capacity(tenants.len());
        let mut members = Vec::with_capacity(tenants.len());
        let mut samplers = Vec::with_capacity(tenants.len());
        let mut rankings = Vec::with_capacity(tenants.len());
        let mut acc = 0.0;
        for (m, weight, order) in tenants {
            if !m.is_empty() && total > 0.0 {
                acc += weight.max(0.0) / total;
            }
            cum.push(acc);
            // `max(1)`: the sampler/ranking constructors reject n = 0;
            // a zero-member tenant has zero width so never samples.
            let n = m.len().max(1);
            samplers.push(ZipfSampler::new(n, order.max(0.0)));
            rankings.push(PopularityRanking::random(n, &mut self.rank_rng));
            members.push(m);
        }
        self.tenant_mix = Some(TenantMix {
            cum,
            members,
            samplers,
            rankings,
        });
    }

    /// Draws a tenant-mix destination: one uniform draw picks the tenant,
    /// one Zipf draw picks the member rank. Falls back to the namespace
    /// root if every tenant is empty (zero total weight).
    fn tenant_destination(&mut self) -> NodeId {
        let QueryStream {
            tenant_mix,
            dest_rng,
            ..
        } = self;
        let Some(mix) = tenant_mix else {
            return NodeId(0);
        };
        let u: f64 = dest_rng.gen();
        let t = mix
            .cum
            .iter()
            .position(|&c| u < c)
            .unwrap_or_else(|| mix.cum.len().saturating_sub(1));
        let rank = match mix.samplers.get(t) {
            Some(z) => z.sample(dest_rng),
            None => 0,
        };
        let idx = mix
            .rankings
            .get(t)
            .map_or(0, |r| r.node_at_rank(rank).index());
        mix.members
            .get(t)
            .and_then(|m| m.get(idx))
            .copied()
            .unwrap_or(NodeId(0))
    }

    /// Per-tag draw counts of the stream's three RNGs (the `QueryStream`
    /// slice of the run's draw ledger; DESIGN.md §15).
    pub fn rng_draws(&self) -> [(u64, u64); 3] {
        [
            (self.dest_rng.tag(), self.dest_rng.draws()),
            (self.src_rng.tag(), self.src_rng.draws()),
            (self.rank_rng.tag(), self.rank_rng.draws()),
        ]
    }

    fn sampler_for(&mut self, order: f64) -> usize {
        let key = order.to_bits();
        if let Some(pos) = self.samplers.iter().position(|(k, _)| *k == key) {
            return pos;
        }
        self.samplers
            .push((key, ZipfSampler::new(self.n_nodes, order)));
        self.samplers.len() - 1
    }

    fn advance_to(&mut self, now: f64) {
        while now >= self.seg_end && self.seg_idx + 1 < self.plan.segments.len() {
            self.seg_idx += 1;
            let Some(seg) = self.plan.segments.get(self.seg_idx) else {
                break;
            };
            self.seg_end += seg.duration;
            if seg.reshuffle_on_entry && matches!(seg.mode, DestinationMode::Zipf { .. }) {
                self.ranking.reshuffle(&mut self.rank_rng);
            }
        }
    }

    /// Draws the next query issued at simulation time `now`: a uniformly
    /// random source server and a destination node per the active segment.
    pub fn next_query(&mut self, now: f64) -> (ServerId, NodeId) {
        if self.tenant_mix.is_some() {
            let src = ServerId(self.src_rng.gen_range(0..self.n_servers));
            let dst = self.tenant_destination();
            return (src, dst);
        }
        self.advance_to(now);
        let src = ServerId(self.src_rng.gen_range(0..self.n_servers));
        let mode = self
            .plan
            .segments
            .get(self.seg_idx)
            .map_or(DestinationMode::Uniform, |s| s.mode);
        let dst = match mode {
            DestinationMode::Uniform => NodeId(self.dest_rng.gen_range(0..self.n_nodes as u32)),
            DestinationMode::Zipf { order } => {
                let idx = self.sampler_for(order);
                let rank = match self.samplers.get(idx) {
                    Some((_, z)) => z.sample(&mut self.dest_rng),
                    None => 0, // sampler_for always returns a live index
                };
                self.ranking.node_at_rank(rank)
            }
        };
        (src, dst)
    }

    /// The plan being executed.
    pub fn plan(&self) -> &StreamPlan {
        &self.plan
    }

    /// Number of popularity reshuffles performed so far.
    pub fn reshuffles(&self) -> u64 {
        self.ranking.reshuffles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn plan_durations_and_reshuffle_times() {
        let p = StreamPlan::adaptation(1.0, 50.0, 4, 50.0);
        assert_eq!(p.segments.len(), 5);
        assert!((p.total_duration() - 250.0).abs() < 1e-9);
        assert_eq!(p.reshuffle_times(), vec![50.0, 100.0, 150.0, 200.0]);
    }

    #[test]
    fn unif_plan_has_no_reshuffles() {
        let p = StreamPlan::unif(100.0);
        assert!(p.reshuffle_times().is_empty());
    }

    #[test]
    fn uniform_stream_covers_nodes_and_servers() {
        let mut qs = QueryStream::new(StreamPlan::unif(10.0), 16, 4, 1);
        let mut nodes = BTreeSet::new();
        let mut servers = BTreeSet::new();
        for i in 0..2000 {
            let (s, d) = qs.next_query(i as f64 * 0.001);
            nodes.insert(d);
            servers.insert(s);
        }
        assert_eq!(nodes.len(), 16);
        assert_eq!(servers.len(), 4);
    }

    #[test]
    fn zipf_stream_skews_to_head() {
        let mut qs = QueryStream::new(StreamPlan::uzipf(1.5, 10.0), 1000, 8, 2);
        let mut counts: BTreeMap<NodeId, u32> = BTreeMap::new();
        for i in 0..20_000 {
            let (_, d) = qs.next_query(i as f64 * 1e-4);
            *counts.entry(d).or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(
            max > 2_000,
            "most popular node should dominate under Zipf 1.5, got max {max}"
        );
    }

    #[test]
    fn reshuffles_happen_at_segment_boundaries() {
        let plan = StreamPlan::adaptation(1.0, 10.0, 2, 10.0);
        let mut qs = QueryStream::new(plan, 100, 4, 3);
        qs.next_query(0.0);
        assert_eq!(qs.reshuffles(), 0);
        qs.next_query(10.5); // entered first zipf segment
        assert_eq!(qs.reshuffles(), 1);
        qs.next_query(15.0);
        assert_eq!(qs.reshuffles(), 1);
        qs.next_query(20.0); // second zipf segment
        assert_eq!(qs.reshuffles(), 2);
        // Running past the plan keeps the last segment active.
        qs.next_query(500.0);
        assert_eq!(qs.reshuffles(), 2);
    }

    #[test]
    fn hot_set_changes_across_reshuffle() {
        let plan = StreamPlan::adaptation(1.5, 1.0, 1, 1.0);
        let mut qs = QueryStream::new(plan, 10_000, 4, 4);
        // Warm-up is uniform; jump into the zipf segment.
        let mut first: BTreeMap<NodeId, u32> = BTreeMap::new();
        for _ in 0..5_000 {
            let (_, d) = qs.next_query(1.5);
            *first.entry(d).or_default() += 1;
        }
        let hot1 = *first.iter().max_by_key(|(_, c)| **c).unwrap().0;
        // No way to reshuffle within a segment; rebuild with two shifts.
        let plan = StreamPlan::adaptation(1.5, 1.0, 2, 1.0);
        let mut qs = QueryStream::new(plan, 10_000, 4, 4);
        let mut second: BTreeMap<NodeId, u32> = BTreeMap::new();
        for _ in 0..5_000 {
            let (_, d) = qs.next_query(2.5);
            *second.entry(d).or_default() += 1;
        }
        let hot2 = *second.iter().max_by_key(|(_, c)| **c).unwrap().0;
        assert_ne!(hot1, hot2, "reshuffle should move the hot spot");
    }

    #[test]
    fn draw_ledger_replays_identically() {
        use crate::seed::tags;
        let run = || {
            let mut qs = QueryStream::new(StreamPlan::adaptation(1.2, 1.0, 2, 1.0), 100, 4, 9);
            for i in 0..500 {
                qs.next_query(i as f64 * 0.01);
            }
            qs.rng_draws()
        };
        let a = run();
        assert_eq!(a, run());
        for (tag, n) in a {
            assert!(n > 0, "stream tag {} drew nothing", tags::name(tag));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || QueryStream::new(StreamPlan::uzipf(1.0, 5.0), 50, 3, 77);
        let mut a = mk();
        let mut b = mk();
        for i in 0..100 {
            assert_eq!(a.next_query(i as f64 * 0.01), b.next_query(i as f64 * 0.01));
        }
    }

    fn mix_of(tenants: Vec<(Vec<NodeId>, f64, f64)>, seed: u64) -> QueryStream {
        let mut qs = QueryStream::new(StreamPlan::unif(50.0), 16, 4, seed);
        qs.set_tenant_mix(tenants);
        qs
    }

    #[test]
    fn tenant_mix_confines_destinations_to_members() {
        let a: Vec<NodeId> = (0..4).map(NodeId).collect();
        let b: Vec<NodeId> = (8..12).map(NodeId).collect();
        let mut qs = mix_of(vec![(a.clone(), 1.0, 0.8), (b.clone(), 1.0, 0.0)], 5);
        for i in 0..1000 {
            let (_, d) = qs.next_query(i as f64 * 0.01);
            assert!(
                a.contains(&d) || b.contains(&d),
                "destination {d:?} escaped both tenants"
            );
        }
    }

    #[test]
    fn tenant_weights_skew_arrivals() {
        let a: Vec<NodeId> = (0..8).map(NodeId).collect();
        let b: Vec<NodeId> = (8..16).map(NodeId).collect();
        let mut qs = mix_of(vec![(a.clone(), 4.0, 0.0), (b, 1.0, 0.0)], 13);
        let mut hits_a = 0u32;
        for i in 0..2000 {
            let (_, d) = qs.next_query(i as f64 * 0.01);
            if a.contains(&d) {
                hits_a += 1;
            }
        }
        // Expected 80%; accept a generous deterministic band.
        assert!(
            (1400..=1800).contains(&hits_a),
            "4:1 weights gave {hits_a}/2000 to tenant A"
        );
    }

    #[test]
    fn tenant_mix_replays_and_skips_no_draws() {
        let mk = || {
            mix_of(
                vec![
                    ((0..6).map(NodeId).collect(), 1.0, 1.2),
                    ((6..12).map(NodeId).collect(), 2.0, 0.0),
                ],
                21,
            )
        };
        let mut a = mk();
        let mut b = mk();
        for i in 0..300 {
            assert_eq!(a.next_query(i as f64 * 0.01), b.next_query(i as f64 * 0.01));
        }
        assert_eq!(a.rng_draws(), b.rng_draws());
    }

    #[test]
    fn empty_tenant_gets_no_traffic() {
        let a: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut qs = mix_of(vec![(a.clone(), 1.0, 0.0), (vec![], 100.0, 0.0)], 3);
        for i in 0..500 {
            let (_, d) = qs.next_query(i as f64 * 0.01);
            assert!(a.contains(&d), "empty tenant must absorb no arrivals");
        }
    }
}
