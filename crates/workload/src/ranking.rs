//! Popularity rankings and instantaneous reshuffles.
//!
//! For `uzipf` traces the paper establishes "node ranking … by randomly
//! ordering all the nodes in the namespace" and, in the adaptation
//! experiments, "instantly and at random change\[s\] node rankings" to model
//! shifting hot-spots. A [`PopularityRanking`] is that random order: a
//! permutation mapping Zipf rank → node.

use rand::seq::SliceRandom;
use rand::Rng;

use terradir_namespace::NodeId;

/// A permutation assigning each popularity rank (0 = most popular) a node.
#[derive(Debug, Clone)]
pub struct PopularityRanking {
    by_rank: Vec<NodeId>,
    reshuffles: u64,
}

impl PopularityRanking {
    /// Creates a uniformly random ranking over `n_nodes` nodes.
    pub fn random<R: Rng + ?Sized>(n_nodes: usize, rng: &mut R) -> PopularityRanking {
        assert!(n_nodes >= 1, "need at least one node");
        let mut by_rank: Vec<NodeId> = (0..n_nodes as u32).map(NodeId).collect();
        by_rank.shuffle(rng);
        PopularityRanking {
            by_rank,
            reshuffles: 0,
        }
    }

    /// Creates the identity ranking (rank r ↦ node r); useful in tests.
    pub fn identity(n_nodes: usize) -> PopularityRanking {
        assert!(n_nodes >= 1, "need at least one node");
        PopularityRanking {
            by_rank: (0..n_nodes as u32).map(NodeId).collect(),
            reshuffles: 0,
        }
    }

    /// The node at a given popularity rank. Ranks come from a
    /// [`crate::ZipfSampler`] over the same `n`, so out-of-range ranks are
    /// only constructible by hand; they degrade to the top-ranked node.
    #[inline]
    pub fn node_at_rank(&self, rank: usize) -> NodeId {
        self.by_rank
            .get(rank)
            .or_else(|| self.by_rank.first())
            .copied()
            .unwrap_or(NodeId(0))
    }

    /// Number of ranked nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.by_rank.len()
    }

    /// Whether the ranking is trivial (single node).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // construction requires n >= 1
    }

    /// Instantaneously re-randomizes the whole ranking (a hot-spot shift).
    pub fn reshuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.by_rank.shuffle(rng);
        self.reshuffles += 1;
    }

    /// How many reshuffles have been applied.
    #[inline]
    pub fn reshuffles(&self) -> u64 {
        self.reshuffles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_ranking_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = PopularityRanking::random(100, &mut rng);
        let mut seen = [false; 100];
        for rank in 0..100 {
            let n = r.node_at_rank(rank);
            assert!(!seen[n.index()], "node {n} ranked twice");
            seen[n.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reshuffle_changes_order_and_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = PopularityRanking::random(1000, &mut rng);
        let before: Vec<NodeId> = (0..1000).map(|i| r.node_at_rank(i)).collect();
        r.reshuffle(&mut rng);
        let after: Vec<NodeId> = (0..1000).map(|i| r.node_at_rank(i)).collect();
        assert_ne!(before, after);
        assert_eq!(r.reshuffles(), 1);
        // Still a permutation.
        let mut sorted = after.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000u32).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn identity_maps_rank_to_node() {
        let r = PopularityRanking::identity(5);
        for i in 0..5 {
            assert_eq!(r.node_at_rank(i), NodeId(i as u32));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PopularityRanking::random(64, &mut StdRng::seed_from_u64(9));
        let b = PopularityRanking::random(64, &mut StdRng::seed_from_u64(9));
        for i in 0..64 {
            assert_eq!(a.node_at_rank(i), b.node_at_rank(i));
        }
    }
}
