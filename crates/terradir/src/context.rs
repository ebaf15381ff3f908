//! The stage/executor state split (DESIGN.md §20).
//!
//! Everything a server step may mutate lives in its own
//! [`StatefulContext`]; everything shared across the fleet lives in the
//! read-only [`StatelessContext`], which every server reads through one
//! shared `Arc` handle. A server step mutates only its own context and
//! expresses every cross-server effect as returned [`Outgoing`] values
//! that only the deterministic calendar dispatch in `system.rs` may
//! apply. clippy (`clippy.toml`: no shared-mutability types) and the
//! `isolation` xtask pass (no cross-server `&mut` outside the dispatch
//! regions) enforce the discipline statically. The compile-time
//! `Send + Sync` assertions below keep both halves shippable across
//! threads, which two users need: the live `crates/net` runtime runs
//! each peer's `ServerState` on its own thread, and ROADMAP item 1 runs
//! whole `System`s, one per experiment arm, on worker threads.

use std::collections::VecDeque;
use std::sync::Arc;

use terradir_namespace::{Namespace, NodeId, OwnerAssignment, ServerId};
use terradir_workload::seed::tags;
use terradir_workload::tagged_rng;

use crate::config::{self, Config, ServerClass};
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
    /// Queue admission bound (relays get a deeper queue).
    pub(crate) queue_cap: usize,
}

/// Fleet-wide read-only state: built once by [`StatelessContext::new`],
/// never mutated during a run, and shared by every server through one
/// `Arc`. The parts are held by value, so a server reads any of them
/// through that one pointer.
#[derive(Debug)]
pub struct StatelessContext {
    /// The namespace tree.
    pub(crate) ns: Namespace,
    /// The run configuration.
    pub(crate) cfg: Config,
    /// The static node→server ownership assignment.
    pub(crate) assignment: OwnerAssignment,
    /// Fleet role map (DESIGN.md §19); `None` with roles off.
    pub(crate) roles: Option<RoleMap>,
    /// Tenant partition (DESIGN.md §19); `None` with tenants off.
    pub(crate) tenants: Option<TenantMap>,
    /// Per-server speed factors, id-indexed: service time divides by
    /// them, and replica-partner ranking breaks load ties by them. All
    /// 1.0 at `speed_spread ≤ 1`.
    pub(crate) speeds: Vec<f64>,
}

impl StatelessContext {
    /// Builds the fleet's read-only state from its three inputs: the role
    /// and tenant maps when enabled (pure functions of the inputs, no
    /// randomness) and the speed table (DESIGN.md §16). Returns the
    /// shared handle and the RNG draws the speed table spent (the
    /// ledger's `speeds` slot).
    pub fn new(
        ns: Namespace,
        cfg: Config,
        assignment: OwnerAssignment,
    ) -> (Arc<StatelessContext>, u64) {
        let roles = cfg
            .roles
            .enabled
            .then(|| RoleMap::build(&ns, &assignment, &cfg.roles, cfg.n_servers));
        let tenants = cfg
            .tenants_active()
            .then(|| TenantMap::build(&ns, &cfg.tenants));
        let (mut speeds, speed_draws) = draw_speeds(&cfg);
        // Relays run faster hardware: scale their drawn speed by
        // `RELAY_SPEED_FACTOR` (no extra RNG; deliberately breaks the
        // mean-1 normalization — the fleet's aggregate capacity grows
        // with its relay count, DESIGN.md §19).
        if let Some(r) = &roles {
            for (i, sp) in speeds.iter_mut().enumerate() {
                if r.class_of(ServerId(i as u32)) == ServerClass::Relay {
                    *sp *= config::RELAY_SPEED_FACTOR;
                }
            }
        }
        let fleet = StatelessContext {
            ns,
            cfg,
            assignment,
            roles,
            tenants,
            speeds,
        };
        (Arc::new(fleet), speed_draws)
    }

    /// The namespace tree.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The run configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The static ownership assignment.
    pub fn assignment(&self) -> &OwnerAssignment {
        &self.assignment
    }

    /// Tenant owning a lookup target: `None` for spine nodes or with
    /// tenants off.
    pub(crate) fn tenant_of(&self, node: NodeId) -> Option<u16> {
        self.tenants.as_ref()?.tenant_of(node)
    }

    /// Tenant of a query-traffic message's lookup target: `None` for
    /// control traffic, spine targets, or with tenants off.
    pub(crate) fn tenant_of_msg(&self, msg: &Message) -> Option<u16> {
        let (Message::Query(packet) | Message::QueryResult { packet, .. }) = msg else {
            return None;
        };
        self.tenant_of(packet.target)
    }

    /// The peer candidates of `id`'s gossip rounds (`storage` on:
    /// DESIGN.md §18) or reconcile pushes (`storage` off: §14), into
    /// `out`: the owners of the namespace neighbors of its owned nodes,
    /// plus, with `storage`, its fellow replica-set members (the owners
    /// of its neighbors' neighbors, which hold the only live copy of a
    /// node whose owner is down) and the servers on consecutive ids
    /// that hold its filler replicas (`storage::replica_targets`;
    /// without them a wiped filler could never solicit the owners it
    /// backs). Routing-only runs leave the storage extras out: with no
    /// objects they would only dilute the neighbor mix. The list is
    /// sorted, deduplicated, without `id`, and role-gated (§19: peers
    /// share an admitted region; relays are unrestricted). It depends
    /// only on ownership, the namespace and roles, none of which change
    /// during a run, so a caller may keep it and drop only the
    /// candidates that are down.
    pub(crate) fn peer_candidates(&self, id: ServerId, storage: bool, out: &mut Vec<ServerId>) {
        let (ns, asg) = (&self.ns, &self.assignment);
        out.clear();
        for &node in asg.owned_by(id) {
            for nb in ns.neighbors(node) {
                out.push(asg.owner(nb));
                if storage {
                    out.extend(ns.neighbors(nb).map(|nb2| asg.owner(nb2)));
                }
            }
        }
        if storage {
            let n = self.cfg.n_servers;
            for k in 1..self.cfg.storage.replication_factor.min(n) {
                out.push(ServerId((id.0 + n - k) % n));
                out.push(ServerId((id.0 + k) % n));
            }
        }
        let roles = self.roles.as_ref();
        out.retain(|&p| p != id && roles.is_none_or(|r| r.gossip_compatible(id, p)));
        out.sort_unstable();
        out.dedup();
    }

    /// The replica set of stored object `node`, into `out`
    /// (`storage::replica_targets` over this fleet).
    pub(crate) fn replica_targets(&self, node: NodeId, out: &mut Vec<ServerId>) {
        crate::storage::replica_targets(
            node,
            &self.ns,
            &self.assignment,
            &self.cfg.storage,
            self.roles.as_ref(),
            out,
        );
    }
}

/// Draws normalized per-server speed factors (log-uniform in
/// `[1/spread, spread]`, rescaled to mean exactly 1 so aggregate
/// capacity is invariant across spreads) from the `speeds` tagged
/// stream. Returns the factors and the number of RNG draws spent; a
/// spread ≤ 1 gives an all-1.0 table and draws nothing.
fn draw_speeds(cfg: &Config) -> (Vec<f64>, u64) {
    use rand::Rng;
    let n = cfg.n_servers as usize;
    if cfg.speed_spread <= 1.0 {
        return (vec![1.0; n], 0);
    }
    let mut rng = tagged_rng(cfg.seed, tags::SPEEDS);
    let ln = cfg.speed_spread.ln();
    let mut speeds: Vec<f64> = (0..n)
        .map(|_| (rng.gen::<f64>() * 2.0 * ln - ln).exp())
        .collect();
    let mean = speeds.iter().sum::<f64>() / n as f64;
    for s in &mut speeds {
        *s /= mean;
    }
    (speeds, rng.draws())
}

/// Compile-time proof that a type can cross threads: the live
/// `crates/net` runtime moves servers and messages between peer threads,
/// and ROADMAP item 1's per-arm worker threads each take a whole
/// `System`, so a non-`Send + Sync` field sneaking into either context
/// half must fail the build, not the first multi-threaded run.
pub(crate) const fn assert_send_sync<T: Send + Sync>() {}

/// Compile-time proof that a whole simulated fleet can move to a worker
/// thread (one independent run per thread).
const fn assert_send<T: Send>() {}

/// The largest a [`Message`] may grow: every queued event carries one, so
/// an inline field that widens it taxes the whole calendar.
const MESSAGE_MAX_BYTES: usize = 200;

const _: () = {
    assert_send_sync::<StatefulContext>();
    assert_send_sync::<StatelessContext>();
    assert_send_sync::<Message>();
    assert_send_sync::<crate::server::Outgoing>();
    assert_send_sync::<crate::server::ProtocolEvent>();
    assert_send::<crate::system::System>();
    assert!(std::mem::size_of::<Message>() <= MESSAGE_MAX_BYTES);
};

/// A test fleet: `ns` under round-robin ownership, and its servers in id
/// order.
#[cfg(test)]
pub(crate) fn round_robin_fleet(
    ns: Namespace,
    cfg: Config,
) -> (Arc<StatelessContext>, Vec<ServerState>) {
    let assignment = OwnerAssignment::round_robin(&ns, cfg.n_servers);
    let (fleet, _) = StatelessContext::new(ns, cfg, assignment);
    let servers = (0..fleet.cfg.n_servers)
        .map(|i| ServerState::new(ServerId(i), &fleet))
        .collect();
    (fleet, servers)
}
