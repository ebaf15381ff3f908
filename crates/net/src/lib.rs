//! Live thread-per-peer deployment of the TerraDir protocol.
//!
//! The paper evaluates TerraDir in simulation; this crate runs the *same*
//! protocol state machines ([`terradir::ServerState`]) as real concurrent
//! peers communicating over in-process channels:
//!
//! - [`transport`] — the network fabric: one inbox per peer plus an
//!   optional delay stage that holds messages for a configurable latency
//!   before delivery.
//! - [`peer`] — the per-peer event loop: receives messages, drives the
//!   protocol state machine on a wall-clock timebase, runs periodic
//!   maintenance, and reports protocol events upstream.
//! - [`runtime`] — spawns and supervises the peer fleet, injects queries,
//!   and aggregates resolution/replication events.
//!
//! The crate substitutes for the `tokio`-based node concurrency a
//! production deployment would use (see DESIGN.md §5): OS threads and
//! `std::sync::mpsc` channels exercise identical protocol code paths with
//! real parallelism and nondeterministic message interleavings — which is
//! exactly what the soft-state design must tolerate.

//! # Example
//!
//! ```
//! use std::time::Duration;
//! use terradir::Config;
//! use terradir_namespace::{balanced_tree, NodeId, ServerId};
//! use terradir_net::{Runtime, RuntimeConfig};
//!
//! let ns = balanced_tree(2, 4); // 31 nodes
//! let rt = Runtime::start(ns, RuntimeConfig::fast(Config::paper_default(4).with_seed(1)))
//!     .expect("start fleet");
//! for i in 0..10u32 {
//!     rt.inject(ServerId(i % 4), NodeId(i % 31)).unwrap();
//! }
//! rt.wait_resolved(10, Duration::from_secs(10)).unwrap();
//! assert_eq!(rt.stats().resolved, 10);
//! rt.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod peer;
pub mod runtime;
pub mod transport;

pub use error::NetError;
pub use peer::PeerCommand;
pub use runtime::{Runtime, RuntimeConfig, RuntimeEvent};
pub use transport::Transport;
