//! The benchmark's three workloads: namespace, configuration, query plan
//! and arrival rate, each a pure function of the seed.
//!
//! Every workload is open-loop (Poisson arrivals at a fixed λ), injects
//! for `window` simulated seconds, then stops injection and drains for
//! `drain` more so that every query and read is accounted for.

use terradir::{Config, GossipCulture};
use terradir_bench::Scale;
use terradir_namespace::Namespace;
use terradir_workload::StreamPlan;

/// Which namespace a workload routes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tree {
    /// The paper's balanced binary T_S tree, 8 nodes per server.
    Ts,
    /// The Coda-like T_C tree, ~20 nodes per server, wide directories.
    Tc,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Fleet size.
    pub servers: u32,
    /// Namespace shape.
    pub tree: Tree,
    /// The paper-scale (4096-server) arrival rate this workload scales
    /// down to its fleet, queries per simulated second.
    paper_rate: f64,
    /// Simulated seconds of injection (the measured window).
    pub window: f64,
    /// Simulated seconds of drain after injection stops.
    pub drain: f64,
    /// Storage, churn, retries and taciturn gossip on top of BCR.
    pub store_churn: bool,
    /// Independent realizations one invocation simulates and pools.
    pub realizations: u64,
}

/// Seed of the one T_C tree every `tc-*` run routes over.
const TC_TREE_SEED: u64 = 42;

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "ts-adapt-1024",
        servers: 1024,
        tree: Tree::Ts,
        // The paper's λ_S.
        paper_rate: 20_000.0,
        window: 9.0,
        drain: 10.0,
        store_churn: false,
        realizations: 3,
    },
    Workload {
        name: "tc-zipf-256",
        servers: 256,
        tree: Tree::Tc,
        // The paper's λ_C.
        paper_rate: 40_000.0,
        window: 10.0,
        drain: 10.0,
        store_churn: false,
        realizations: 10,
    },
    Workload {
        name: "ts-store-churn-256",
        servers: 256,
        tree: Tree::Ts,
        // The rate of the repository's anti-entropy churn bench.
        paper_rate: 8_000.0,
        window: 40.0,
        // Outlasts the longest retry chain (1 + 2 + 4 + 8 s of attempt
        // timeouts) plus the last recoveries.
        drain: 24.0,
        store_churn: true,
        realizations: 12,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// The seed of realization `i` of a run at `seed`.
    pub fn realization_seed(&self, seed: u64, i: u64) -> u64 {
        seed.wrapping_mul(self.realizations).wrapping_add(i)
    }

    fn scale(&self) -> Scale {
        Scale::for_servers(self.servers, 1.0)
    }

    /// Global query arrival rate λ at this fleet size.
    pub fn rate(&self) -> f64 {
        self.scale().rate(self.paper_rate)
    }

    /// Builds the namespace. The T_C tree stands in for one fixed file
    /// system, so it is drawn from a fixed seed, not the run's.
    pub fn namespace(&self) -> Namespace {
        match self.tree {
            Tree::Ts => self.scale().ts_namespace(),
            Tree::Tc => self.scale().tc_namespace(TC_TREE_SEED),
        }
    }

    /// The protocol configuration: BCR paper defaults, plus storage,
    /// churn, retries and gossip on the store/churn workload.
    pub fn config(&self, seed: u64) -> Config {
        let mut cfg = self.scale().config(seed);
        if self.store_churn {
            cfg.retry.enabled = true;
            cfg.storage.enabled = true;
            cfg.storage.n_objects = 4 * self.servers;
            cfg.storage.replication_factor = 3;
            cfg.storage.quorum_reads = true;
            cfg.storage.write_rate = 0.5 * f64::from(self.servers);
            cfg.storage.read_rate = 0.5 * f64::from(self.servers);
            cfg.storage.read_timeout = 1.0;
            cfg.churn.enabled = true;
            cfg.churn.start = 0.1 * self.window;
            cfg.churn.stop = 0.8 * self.window;
            cfg.churn.mean_uptime = 6.0;
            cfg.churn.mean_downtime = 1.0;
            cfg.gossip.enabled = true;
            cfg.gossip.culture = GossipCulture::Taciturn;
            cfg.gossip.interval = 0.5;
            cfg.gossip.fanout = 3;
            cfg.gossip.window = cfg.storage.n_objects;
        }
        cfg
    }

    /// The query stream plan.
    pub fn plan(&self) -> StreamPlan {
        match (self.tree, self.store_churn) {
            // The paper's adaptation stream: uniform warm-up, then two
            // Zipf-1.25 segments, each reshuffling popularity.
            (Tree::Ts, false) => {
                let warmup = self.window / 3.0;
                StreamPlan::adaptation(1.25, warmup, 2, (self.window - warmup) / 2.0)
            }
            _ => StreamPlan::uzipf(1.0, self.window + self.drain),
        }
    }
}
