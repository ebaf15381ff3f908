//! Routing-accuracy oracle (§4.4).
//!
//! The paper compares digest-pruned routing against "optimal behavior (i.e.
//! routing with perfectly accurate information, as if given by an oracle)"
//! and reports that accuracy stays "within the optimal range". We measure
//! this two ways:
//!
//! 1. **Per-hop accuracy** — every forwarded query names the node it was
//!    routed *via*; the receiver checks whether it actually hosts that node
//!    ([`ServerState::accuracy_counters`]). An oracle with perfectly
//!    accurate maps scores 1.0 by construction, so the measured ratio *is*
//!    the distance from optimal.
//! 2. **Map staleness** — [`GlobalTruth`] snapshots who really hosts what
//!    and [`map_staleness`] audits every map entry in the system against
//!    it. Digest-based pruning should keep this near zero even under heavy
//!    replica churn.

use crate::det::DetHashSet;

use terradir_namespace::{NodeId, ServerId};

use crate::server::ServerState;
use crate::system::System;

/// A snapshot of the true hosting relation across the whole system.
#[derive(Debug, Clone)]
pub struct GlobalTruth {
    hosts: DetHashSet<(ServerId, NodeId)>,
}

impl GlobalTruth {
    /// Snapshots the current hosting relation of a simulated system.
    pub fn from_system(system: &System) -> GlobalTruth {
        Self::from_servers(system.servers())
    }

    /// Snapshots the hosting relation of an explicit server set.
    pub fn from_servers<'a>(servers: impl IntoIterator<Item = &'a ServerState>) -> GlobalTruth {
        let mut hosts = DetHashSet::default();
        for s in servers {
            for n in s.hosted_ids() {
                hosts.insert((s.id(), n));
            }
        }
        GlobalTruth { hosts }
    }

    /// Whether `server` truly hosts `node` right now.
    pub fn hosts(&self, server: ServerId, node: NodeId) -> bool {
        self.hosts.contains(&(server, node))
    }

    /// Total hosting pairs.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the relation is empty (no servers).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }
}

/// Summary of a staleness audit over every map in the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessReport {
    /// Map entries audited.
    pub entries: u64,
    /// Entries naming a server that does not host the node.
    pub stale: u64,
}

impl StalenessReport {
    /// Fraction of stale entries (0 when no entries).
    pub fn fraction(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.stale as f64 / self.entries as f64
        }
    }
}

/// Audits every hosted-record map, neighbor map, and cache entry in the
/// system against the true hosting relation.
pub fn map_staleness(system: &System, truth: &GlobalTruth) -> StalenessReport {
    let mut entries = 0u64;
    let mut stale = 0u64;
    for s in system.servers() {
        let mut audit = |node: NodeId, hosts: &[ServerId]| {
            for &h in hosts {
                entries += 1;
                if !truth.hosts(h, node) {
                    stale += 1;
                }
            }
        };
        for n in s.hosted_snapshot() {
            if let Some(rec) = s.host_record(n) {
                audit(n, rec.map.entries());
            }
        }
        for (n, m) in s.cache().iter() {
            audit(n, m.entries());
        }
    }
    StalenessReport { entries, stale }
}

/// System-wide per-hop routing accuracy: `(checks, accurate, ratio)`.
pub fn routing_accuracy(system: &System) -> (u64, u64, f64) {
    let mut checks = 0u64;
    let mut acc = 0u64;
    for s in system.servers() {
        let (c, a) = s.accuracy_counters();
        checks += c;
        acc += a;
    }
    let ratio = if checks == 0 {
        1.0
    } else {
        acc as f64 / checks as f64
    };
    (checks, acc, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use terradir_namespace::balanced_tree;
    use terradir_workload::StreamPlan;

    fn run_system(cfg: Config, rate: f64, until: f64) -> System {
        let ns = balanced_tree(2, 5);
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.2, until), rate);
        sys.run_until(until);
        sys
    }

    #[test]
    fn truth_reflects_hosting() {
        let sys = run_system(Config::paper_default(8).with_seed(1), 40.0, 5.0);
        let truth = GlobalTruth::from_system(&sys);
        for s in sys.servers() {
            for n in s.hosted_ids() {
                assert!(truth.hosts(s.id(), n));
            }
        }
        assert!(truth.len() >= 63, "at least every owned node");
    }

    #[test]
    fn bootstrap_state_has_zero_staleness() {
        // Before any replica churn, every map entry points at a real host.
        let ns = balanced_tree(2, 4);
        let cfg = Config::paper_default(4).with_seed(2);
        let sys = System::new(ns, cfg, StreamPlan::unif(10.0), 10.0);
        let truth = GlobalTruth::from_system(&sys);
        let rep = map_staleness(&sys, &truth);
        assert!(rep.entries > 0);
        assert_eq!(rep.stale, 0);
        assert_eq!(rep.fraction(), 0.0);
    }

    #[test]
    fn accuracy_stays_high_in_steady_state() {
        let sys = run_system(Config::paper_default(8).with_seed(3), 120.0, 30.0);
        let (checks, _, ratio) = routing_accuracy(&sys);
        assert!(checks > 100, "expected forwarded traffic, got {checks}");
        assert!(ratio > 0.9, "routing accuracy {ratio} below optimal range");
    }

    #[test]
    fn staleness_bounded_under_churn() {
        let mut cfg = Config::paper_default(8).with_seed(4);
        cfg.r_fact = 0.25; // tight cap → heavy replica churn
        let sys = run_system(cfg, 150.0, 30.0);
        let truth = GlobalTruth::from_system(&sys);
        let rep = map_staleness(&sys, &truth);
        assert!(
            rep.fraction() < 0.35,
            "staleness {} too high even for churn",
            rep.fraction()
        );
    }
}
