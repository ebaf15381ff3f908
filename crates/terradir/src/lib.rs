//! TerraDir: hierarchical routing with adaptive soft-state replication.
//!
//! This crate implements the protocol contributed by *"Hierarchical Routing
//! with Soft-State Replicas in TerraDir"* (IPPS 2004):
//!
//! - **Hierarchical routing** over a tree namespace with guaranteed
//!   incremental progress ([`routing`]).
//! - **Route caches** with LRU replacement and *path propagation*
//!   ([`cache`]).
//! - **Adaptive replication of routing state**: profiled load metrics
//!   ([`load`]), per-node demand ranking ([`ranking`]), replica
//!   creation/deletion sessions bounded by a per-server replication factor
//!   ([`replication`]).
//! - **Node maps** — bounded, advertised, merged, disseminated, filtered
//!   ([`map`]).
//! - **Inverse-mapping digests** (Bloom filters) for shortcut discovery and
//!   conservative map pruning ([`digests`]).
//!
//! The per-server protocol state machine lives in [`server::ServerState`]
//! and is substrate-agnostic: it consumes [`messages::Message`]s and emits
//! [`server::Outgoing`] effects. Two substrates drive it:
//!
//! - [`system::System`] — the deterministic discrete-event simulation used
//!   by every experiment in the paper (queue-limited servers, exponential
//!   service times, constant network delay, Poisson arrivals);
//! - `terradir-net` — a live thread-per-peer deployment.
//!
//! Baselines from the paper's Fig. 5 are configuration points: the **B**ase
//! system (`caching = false`, `replication = false`), **BC** (caching only),
//! and **BCR** (the full protocol). See [`config::Config`].

//! # Example
//!
//! ```
//! use terradir::{Config, System};
//! use terradir_namespace::balanced_tree;
//! use terradir_workload::StreamPlan;
//!
//! // 8 servers over a 63-node namespace, paper-default protocol knobs,
//! // 40 Zipf(1.0) lookups/second for 10 simulated seconds.
//! let ns = balanced_tree(2, 5);
//! let cfg = Config::paper_default(8).with_seed(1);
//! let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 10.0), 40.0);
//! sys.run_until(10.0);
//!
//! let st = sys.stats();
//! assert!(st.resolved > 0);
//! assert_eq!(st.resolved + st.dropped_total() <= st.injected, true);
//! println!("{}", st.summary().to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod context;
pub mod det;
pub mod digests;
pub(crate) mod flat;
pub(crate) mod gossip;
pub mod invariants;
pub mod load;
pub mod map;
pub mod messages;
pub mod meta;
pub mod oracle;
pub mod ranking;
pub mod records;
pub mod replication;
pub mod roles;
pub mod routing;
pub mod server;
pub mod stats;
pub mod storage;
pub mod system;

pub use cache::RouteCache;
pub use config::{
    ChaosAction, ChurnConfig, Config, FaultConfig, GossipConfig, GossipCulture, LeaseConfig,
    PartitionConfig, ReconcileConfig, RetryConfig, RoleConfig, ScenarioConfig, ScenarioEvent,
    ServerClass, StorageConfig, TenantConfig, TenantSpec,
};
pub use context::{StatefulContext, StatelessContext};
pub use map::{NodeMap, NODE_MAP_CAP};
pub use messages::{Message, QueryPacket};
pub use meta::Meta;
pub use records::NodeRecord;
pub use roles::{RoleMap, TenantMap};
pub use server::{Outgoing, ProtocolEvent, ServerState};
pub use stats::{RunStats, Summary};
pub use storage::{lww_merge, replica_targets, StoredObject};
pub use system::System;

pub use terradir_namespace::{NodeId, ServerId};

#[cfg(test)]
#[allow(
    clippy::wildcard_enum_match_arm,
    clippy::match_same_arms,
    clippy::match_wildcard_for_single_variants,
    reason = "each test matches out the one variant it asserts on"
)]
mod soft_state_tests;
