//! The stage/executor state split (DESIGN.md §20).
//!
//! Concurrency-readiness for a parallel executor (parked under
//! ROADMAP's "Deliberately not next"): everything a server step may
//! mutate lives in its own [`StatefulContext`]; everything shared
//! across the fleet lives in the read-only [`StatelessContext`]. A
//! server function receives its own context plus the shared one and
//! expresses every cross-server effect as returned [`Outgoing`] values
//! that only the deterministic calendar dispatch in `system.rs` may
//! apply. The `isolation` xtask pass enforces the discipline statically;
//! the compile-time `Send + Sync` assertions below prove both halves
//! are shippable across threads once a parallel executor exists.

use std::collections::VecDeque;
use std::sync::Arc;

use terradir_namespace::{Namespace, NodeId, OwnerAssignment, ServerId};

use crate::config::Config;
use crate::load::LoadMeter;
use crate::messages::Message;
use crate::roles::{RoleMap, TenantMap};
use crate::server::ServerState;

/// Per-server mutable state: the protocol state machine plus the
/// queueing-station bookkeeping the substrate keeps for it. Exactly one
/// per server; nothing in here is ever touched on behalf of another
/// server outside the dispatch regions of `system.rs`.
#[derive(Debug)]
pub struct StatefulContext {
    /// The protocol state machine (owned records, replicas, leases,
    /// caches, digests, object store, gossip tracking).
    pub(crate) server: ServerState,
    /// Bounded FIFO request queue (overflow drops / sheds).
    pub(crate) queue: VecDeque<Message>,
    /// The message currently in service, if any.
    pub(crate) in_service: Option<Message>,
    /// Busy-time accounting over 1-second windows (drives the Fig. 6
    /// utilization series; separate from the protocol's load metric so
    /// disabling replication does not lose the measurement).
    pub(crate) util: LoadMeter,
    /// Whether the server is currently failed.
    pub(crate) failed: bool,
    /// Service epoch, bumped at each failure (stale-filters
    /// `ServiceDone` events scheduled before a crash).
    pub(crate) epoch: u64,
    /// Speed factor (service time divides by this).
    pub(crate) speed: f64,
    /// Queue admission bound (relays get a deeper queue).
    pub(crate) queue_cap: usize,
}

/// Fleet-wide read-only state: built once at construction, never
/// mutated during a run, shareable by reference (or cheap `Arc` clone)
/// with every server step.
#[derive(Debug)]
pub struct StatelessContext {
    /// The namespace tree.
    pub(crate) ns: Arc<Namespace>,
    /// The run configuration.
    pub(crate) cfg: Arc<Config>,
    /// The static node→server ownership assignment.
    pub(crate) assignment: Arc<OwnerAssignment>,
    /// Fleet role map (DESIGN.md §19); `None` with roles off.
    pub(crate) roles: Option<Arc<RoleMap>>,
    /// Tenant partition (DESIGN.md §19); `None` with tenants off.
    pub(crate) tenants: Option<Arc<TenantMap>>,
    /// Per-server speed factors (replica-partner tie-breaking reads
    /// these; the per-context `speed` is the same value).
    pub(crate) speeds: Arc<[f64]>,
}

impl StatelessContext {
    /// Tenant owning a lookup target: `None` for spine nodes or with
    /// tenants off.
    pub(crate) fn tenant_of(&self, node: NodeId) -> Option<u16> {
        self.tenants.as_deref()?.tenant_of(node)
    }

    /// Tenant of a query-traffic message's lookup target: `None` for
    /// control traffic, spine targets, or with tenants off.
    pub(crate) fn tenant_of_msg(&self, msg: &Message) -> Option<u16> {
        match msg {
            Message::Query(p) => self.tenant_of(p.target),
            Message::QueryResult { packet, .. } => self.tenant_of(packet.target),
            _ => None,
        }
    }

    /// The replica set of stored object `node`, into `out`
    /// (`storage::replica_targets` over this fleet).
    pub(crate) fn replica_targets(&self, node: NodeId, out: &mut Vec<ServerId>) {
        crate::storage::replica_targets(
            node,
            &self.ns,
            &self.assignment,
            &self.cfg.storage,
            self.roles.as_deref(),
            out,
        );
    }
}

/// Compile-time proof that a type can cross threads: a parallel executor
/// (ROADMAP, "Deliberately not next") would move contexts and messages
/// between worker threads, so a non-`Send + Sync` field sneaking into
/// either context half must fail the build, not the first multi-core
/// run.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}

const _: () = {
    assert_send_sync::<StatefulContext>();
    assert_send_sync::<StatelessContext>();
    assert_send_sync::<Message>();
    assert_send_sync::<crate::server::Outgoing>();
    assert_send_sync::<crate::server::ProtocolEvent>();
};
