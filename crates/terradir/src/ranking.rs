//! Load-based node ranking.
//!
//! "The weight for each node is proportional to the load incurred by the
//! server on the node's behalf. Simple counter variables can be maintained
//! … with each incoming query the appropriate counter is incremented, and
//! all counters are rescaled periodically to approximate recent demand
//! patterns" (paper §3.2).
//!
//! We implement the counters with *continuous* exponential decay instead of
//! a periodic rescale event: `w(now) = w(t)·2^−(now−t)/half-life`. This is
//! the same estimator (a geometric moving average of demand) without the
//! sawtooth, and it needs no timer.

use crate::det::DetHashMap;

use terradir_namespace::NodeId;

/// Per-node demand counters with exponential decay.
#[derive(Debug, Clone)]
pub struct NodeWeights {
    half_life: f64,
    weights: DetHashMap<NodeId, Entry>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    at: f64,
}

impl Entry {
    fn decayed(&self, now: f64, half_life: f64) -> f64 {
        let dt = (now - self.at).max(0.0);
        self.value * 0.5f64.powf(dt / half_life)
    }
}

impl NodeWeights {
    /// Counters decaying with the given half-life (seconds).
    pub fn new(half_life: f64) -> NodeWeights {
        assert!(half_life > 0.0 && half_life.is_finite());
        NodeWeights {
            half_life,
            weights: DetHashMap::default(),
        }
    }

    /// Adds `amount` to a node's counter at time `now` (one query processed
    /// on the node's behalf bumps by 1).
    pub fn bump(&mut self, node: NodeId, now: f64, amount: f64) {
        let half_life = self.half_life;
        let e = self.weights.entry(node).or_insert(Entry {
            value: 0.0,
            at: now,
        });
        e.value = e.decayed(now, half_life) + amount;
        e.at = now;
    }

    /// Sets a node's counter outright (used when installing a replica with
    /// a transferred weight hint).
    pub fn set(&mut self, node: NodeId, now: f64, value: f64) {
        self.weights.insert(node, Entry { value, at: now });
    }

    /// The decayed weight of a node (0 if never bumped).
    pub fn value(&self, node: NodeId, now: f64) -> f64 {
        self.weights
            .get(&node)
            .map_or(0.0, |e| e.decayed(now, self.half_life))
    }

    /// Forgets a node (it is no longer hosted).
    pub fn remove(&mut self, node: NodeId) {
        self.weights.remove(&node);
    }

    /// All tracked nodes with decayed weights, heaviest first. Ties break
    /// by node id so the ranking is deterministic.
    pub fn ranked(&self, now: f64) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self
            .weights
            .iter()
            .map(|(&n, e)| (n, e.decayed(now, self.half_life)))
            .collect();
        // Weights are finite by construction, so IEEE total order agrees
        // with the numeric order.
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn bump_accumulates() {
        let mut w = NodeWeights::new(10.0);
        w.bump(n(1), 0.0, 1.0);
        w.bump(n(1), 0.0, 1.0);
        assert!((w.value(n(1), 0.0) - 2.0).abs() < 1e-12);
        assert_eq!(w.value(n(2), 0.0), 0.0);
    }

    #[test]
    fn decay_halves_per_half_life() {
        let mut w = NodeWeights::new(2.0);
        w.bump(n(1), 0.0, 8.0);
        assert!((w.value(n(1), 2.0) - 4.0).abs() < 1e-9);
        assert!((w.value(n(1), 4.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bump_after_decay_combines() {
        let mut w = NodeWeights::new(1.0);
        w.bump(n(1), 0.0, 4.0);
        w.bump(n(1), 1.0, 1.0); // decayed to 2, +1 = 3
        assert!((w.value(n(1), 1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ranked_orders_heaviest_first_with_deterministic_ties() {
        let mut w = NodeWeights::new(10.0);
        w.bump(n(3), 0.0, 1.0);
        w.bump(n(1), 0.0, 5.0);
        w.bump(n(2), 0.0, 1.0);
        let r = w.ranked(0.0);
        assert_eq!(r[0].0, n(1));
        assert_eq!(r[1].0, n(2), "ties break by node id");
        assert_eq!(r[2].0, n(3));
    }

    #[test]
    fn recent_demand_outranks_stale_demand() {
        let mut w = NodeWeights::new(1.0);
        w.bump(n(1), 0.0, 10.0); // hot long ago
        w.bump(n(2), 5.0, 2.0); // mildly hot now
        let r = w.ranked(5.0);
        assert_eq!(r[0].0, n(2), "decay should let fresh demand win");
    }

    #[test]
    fn remove_clears_the_weight() {
        let mut w = NodeWeights::new(10.0);
        w.bump(n(1), 0.0, 1.0);
        w.bump(n(2), 0.0, 3.0);
        w.remove(n(2));
        assert_eq!(w.value(n(2), 0.0), 0.0);
    }

    #[test]
    fn set_overrides() {
        let mut w = NodeWeights::new(10.0);
        w.bump(n(1), 0.0, 1.0);
        w.set(n(1), 0.0, 7.0);
        assert!((w.value(n(1), 0.0) - 7.0).abs() < 1e-12);
    }
}
