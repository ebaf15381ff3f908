//! Fleet supervision: spawn peers, inject queries, aggregate events.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use terradir::{Config, NodeId, ProtocolEvent, ServerId, ServerState};
use terradir_namespace::{Namespace, OwnerAssignment};
use terradir_workload::{seed::tags, seeded_rng};

use crate::error::NetError;
use crate::peer::{run_peer, PeerCommand, PeerHarness, PeerSnapshot};
use crate::transport::Transport;

/// Deployment knobs for the live fleet.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Protocol configuration shared by every peer.
    pub protocol: Config,
    /// Real network delay injected per hop.
    pub network_delay: Duration,
    /// How often each peer runs maintenance (load windows, evictions,
    /// digest rebuilds).
    pub maintenance_every: Duration,
}

impl RuntimeConfig {
    /// Sensible live-test defaults: 1 ms hops, 50 ms maintenance.
    pub fn fast(protocol: Config) -> RuntimeConfig {
        RuntimeConfig {
            protocol,
            network_delay: Duration::from_millis(1),
            maintenance_every: Duration::from_millis(50),
        }
    }
}

/// An event observed by the runtime, tagged with the reporting peer.
#[derive(Debug, Clone)]
pub struct RuntimeEvent {
    /// The peer that emitted the event.
    pub peer: ServerId,
    /// The protocol event.
    pub event: ProtocolEvent,
}

/// Aggregated live-run counters.
#[derive(Debug, Default, Clone)]
pub struct LiveStats {
    /// Queries resolved (result reached its origin).
    pub resolved: u64,
    /// Queries dropped (TTL or stuck).
    pub dropped: u64,
    /// Replicas created fleet-wide.
    pub replicas_created: u64,
    /// Replicas deleted fleet-wide.
    pub replicas_deleted: u64,
    /// Replication sessions completed.
    pub sessions_completed: u64,
    /// Data fetches that obtained data.
    pub data_fetches_ok: u64,
    /// Data fetches that failed.
    pub data_fetches_failed: u64,
}

/// A running TerraDir fleet.
pub struct Runtime {
    transport: Transport,
    handles: Vec<std::thread::JoinHandle<()>>,
    collector: Option<std::thread::JoinHandle<()>>,
    stats: Arc<Mutex<LiveStats>>,
    resolved_ids: Arc<Mutex<HashMap<u64, u32>>>, // query id → hops
    listings: Arc<Mutex<HashMap<u64, Vec<NodeId>>>>, // list query id → children
    next_query: AtomicU64,
    n_peers: u32,
    ns: Arc<Namespace>,
    assignment: OwnerAssignment,
}

impl Runtime {
    /// Spawns one thread per server plus an event collector.
    ///
    /// The ownership assignment is uniform random seeded from
    /// `cfg.protocol.seed` (matching the simulation). Fails on an invalid
    /// protocol configuration or if a fleet thread cannot be spawned.
    pub fn start(ns: Namespace, cfg: RuntimeConfig) -> Result<Runtime, NetError> {
        cfg.protocol.validate().map_err(NetError::InvalidConfig)?;
        let ns = Arc::new(ns);
        let protocol = Arc::new(cfg.protocol.clone());
        let mut map_rng = seeded_rng(protocol.seed, tags::MAPPING);
        let assignment = OwnerAssignment::uniform_random(&ns, protocol.n_servers, &mut map_rng);

        let n = protocol.n_servers;
        let mut inboxes = Vec::with_capacity(n as usize);
        let mut receivers = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<PeerCommand>();
            inboxes.push(tx);
            receivers.push(rx);
        }
        let transport = Transport::new(inboxes, cfg.network_delay)?;
        let (ev_tx, ev_rx) = mpsc::channel::<(ServerId, ProtocolEvent)>();

        let epoch = Instant::now();
        let mut handles = Vec::with_capacity(n as usize);
        for (i, inbox) in receivers.into_iter().enumerate() {
            let id = ServerId(i as u32);
            let state = ServerState::new(id, Arc::clone(&ns), Arc::clone(&protocol), &assignment);
            let harness = PeerHarness {
                state,
                inbox,
                transport: transport.clone(),
                events: ev_tx.clone(),
                network_delay: cfg.network_delay,
                maintenance_every: cfg.maintenance_every,
                epoch,
                rng_seed: protocol.seed ^ (0x9e37 + i as u64),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("terradir-peer-{i}"))
                    .spawn(move || run_peer(harness))
                    .map_err(NetError::Spawn)?,
            );
        }
        drop(ev_tx);

        let stats = Arc::new(Mutex::new(LiveStats::default()));
        let resolved_ids = Arc::new(Mutex::new(HashMap::new()));
        let listings: Arc<Mutex<HashMap<u64, Vec<NodeId>>>> = Arc::new(Mutex::new(HashMap::new()));
        let stats_c = Arc::clone(&stats);
        let resolved_c = Arc::clone(&resolved_ids);
        let listings_c = Arc::clone(&listings);
        let collector = std::thread::Builder::new()
            .name("terradir-collector".into())
            .spawn(move || {
                for (_, event) in ev_rx {
                    let mut s = lock(&stats_c);
                    match event {
                        ProtocolEvent::Resolved {
                            id, hops, children, ..
                        } => {
                            s.resolved += 1;
                            lock(&resolved_c).insert(id, hops);
                            lock(&listings_c).insert(id, children);
                        }
                        ProtocolEvent::DroppedTtl { .. } | ProtocolEvent::DroppedStuck { .. } => {
                            s.dropped += 1;
                        }
                        ProtocolEvent::ReplicaCreated { .. } => s.replicas_created += 1,
                        ProtocolEvent::ReplicaDeleted { .. } => s.replicas_deleted += 1,
                        ProtocolEvent::SessionCompleted { .. } => s.sessions_completed += 1,
                        ProtocolEvent::DataFetched { ok, .. } => {
                            if ok {
                                s.data_fetches_ok += 1;
                            } else {
                                s.data_fetches_failed += 1;
                            }
                        }
                        _ => {}
                    }
                }
            })
            .map_err(NetError::Spawn)?;

        Ok(Runtime {
            transport,
            handles,
            collector: Some(collector),
            stats,
            resolved_ids,
            listings,
            next_query: AtomicU64::new(0),
            n_peers: n,
            ns,
            assignment,
        })
    }

    /// The namespace the fleet serves.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The ownership assignment.
    pub fn assignment(&self) -> &OwnerAssignment {
        &self.assignment
    }

    /// Number of peers.
    pub fn peers(&self) -> u32 {
        self.n_peers
    }

    /// Injects a lookup at `origin` for `target`; returns the query id.
    pub fn inject(&self, origin: ServerId, target: NodeId) -> Result<u64, NetError> {
        let id = self.next_query.fetch_add(1, Ordering::Relaxed);
        self.transport
            .command(origin, PeerCommand::Inject { id, target })?;
        Ok(id)
    }

    /// Injects a List query at `origin` for `target`; the result's child
    /// set becomes available via [`Runtime::children_of`].
    pub fn inject_list(&self, origin: ServerId, target: NodeId) -> Result<u64, NetError> {
        let id = self.next_query.fetch_add(1, Ordering::Relaxed);
        self.transport
            .command(origin, PeerCommand::InjectList { id, target })?;
        Ok(id)
    }

    /// Children returned by a resolved List query.
    pub fn children_of(&self, query: u64) -> Option<Vec<NodeId>> {
        lock(&self.listings).get(&query).cloned()
    }

    /// Walks the subtree under `root` from `origin` by hierarchical
    /// decomposition (§2.1): repeated List queries, breadth-first, each
    /// child discovered becoming the next List target. Returns every node
    /// visited (including `root`), bounded by `max_nodes`.
    pub fn walk_subtree(
        &self,
        origin: ServerId,
        root: NodeId,
        max_nodes: usize,
        timeout: Duration,
    ) -> Result<Vec<NodeId>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut visited = vec![root];
        let mut frontier = vec![self.inject_list(origin, root)?];
        while let Some(qid) = frontier.pop() {
            // Await this listing.
            let children = loop {
                if let Some(c) = self.children_of(qid) {
                    break c;
                }
                if Instant::now() >= deadline {
                    return Err(NetError::Timeout);
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            for c in children {
                if visited.len() >= max_nodes {
                    return Ok(visited);
                }
                visited.push(c);
                frontier.push(self.inject_list(origin, c)?);
            }
        }
        Ok(visited)
    }

    /// Adds a load bias at a peer (drives the replication trigger in
    /// tests/demos without burning CPU).
    pub fn add_load_bias(&self, peer: ServerId, delta: f64) -> Result<(), NetError> {
        self.transport
            .command(peer, PeerCommand::AddLoadBias(delta))
    }

    /// Updates meta-data on a node at its owner.
    pub fn update_meta(
        &self,
        node: NodeId,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<(), NetError> {
        let owner = self.assignment.owner(node);
        self.transport.command(
            owner,
            PeerCommand::UpdateMeta {
                node,
                key: key.into(),
                value: value.into(),
            },
        )
    }

    /// Exports data for a node at its owner.
    pub fn set_data(
        &self,
        node: NodeId,
        data: impl Into<std::sync::Arc<[u8]>>,
    ) -> Result<(), NetError> {
        let owner = self.assignment.owner(node);
        self.transport.command(
            owner,
            PeerCommand::SetData {
                node,
                data: data.into(),
            },
        )
    }

    /// Starts the two-step access's second step at `origin`: fetch the
    /// node's data using the mapping `origin` holds (do a lookup first).
    /// Returns the fetch id; completion counts into
    /// [`LiveStats::data_fetches_ok`]/`failed`.
    pub fn fetch_data(&self, origin: ServerId, node: NodeId) -> Result<u64, NetError> {
        let id = self.next_query.fetch_add(1, Ordering::Relaxed);
        self.transport
            .command(origin, PeerCommand::FetchData { id, node })?;
        Ok(id)
    }

    /// Blocks until at least `n` data fetches finished (ok or failed).
    pub fn wait_fetches(&self, n: u64, timeout: Duration) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            let s = lock(&self.stats);
            if s.data_fetches_ok + s.data_fetches_failed >= n {
                return Ok(());
            }
            drop(s);
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Snapshot of one peer's state counts.
    pub fn snapshot(&self, peer: ServerId) -> Result<PeerSnapshot, NetError> {
        let (tx, rx) = mpsc::channel();
        self.transport.command(peer, PeerCommand::Snapshot(tx))?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|_| NetError::Timeout)
    }

    /// Current aggregated counters.
    pub fn stats(&self) -> LiveStats {
        lock(&self.stats).clone()
    }

    /// Hops taken by a resolved query, if its result has arrived.
    pub fn hops_of(&self, query: u64) -> Option<u32> {
        lock(&self.resolved_ids).get(&query).copied()
    }

    /// Blocks until at least `n` queries have resolved or the deadline
    /// passes.
    pub fn wait_resolved(&self, n: u64, timeout: Duration) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if lock(&self.stats).resolved >= n {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops every peer and joins all threads.
    pub fn shutdown(mut self) {
        for i in 0..self.n_peers {
            let _ = self.transport.command(ServerId(i), PeerCommand::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(c) = self.collector.take() {
            let _ = c.join();
        }
    }
}

/// Locks `m`, recovering the guard if a thread panicked while holding
/// it. Every update under these locks is one counter bump or one map
/// insert, so the data is valid at every step and stays readable after
/// a collector panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;
    use terradir_namespace::balanced_tree;

    fn fleet(n_servers: u32, seed: u64) -> Runtime {
        let ns = balanced_tree(2, 4); // 31 nodes
        let cfg = RuntimeConfig::fast(Config::paper_default(n_servers).with_seed(seed));
        Runtime::start(ns, cfg).expect("start fleet")
    }

    #[test]
    fn all_injected_queries_resolve() {
        let rt = fleet(4, 1);
        let nodes = rt.namespace().len() as u32;
        for i in 0..100u32 {
            rt.inject(ServerId(i % 4), NodeId(i % nodes)).unwrap();
        }
        rt.wait_resolved(100, Duration::from_secs(20)).unwrap();
        let s = rt.stats();
        assert_eq!(s.resolved, 100);
        assert_eq!(s.dropped, 0);
        rt.shutdown();
    }

    #[test]
    fn hops_are_recorded_per_query() {
        let rt = fleet(4, 2);
        let target = rt.namespace().lookup_str("/0/1/0/1").unwrap();
        let id = rt.inject(ServerId(0), target).unwrap();
        rt.wait_resolved(1, Duration::from_secs(10)).unwrap();
        let hops = rt.hops_of(id).expect("resolved query has hops");
        assert!(hops <= 16);
        rt.shutdown();
    }

    #[test]
    fn snapshots_reflect_bootstrap_ownership() {
        let rt = fleet(4, 3);
        let mut total_owned = 0;
        for i in 0..4 {
            let snap = rt.snapshot(ServerId(i)).unwrap();
            assert_eq!(snap.id, ServerId(i));
            assert_eq!(snap.replicas, 0);
            total_owned += snap.owned;
        }
        assert_eq!(total_owned, rt.namespace().len());
        rt.shutdown();
    }

    #[test]
    fn load_bias_triggers_live_replication() {
        let rt = fleet(4, 4);
        // Build demand at peer 0 by injecting repeatedly for one hot node
        // it owns, then bias its load over T_high.
        let hot = rt.assignment().owned_by(ServerId(0))[0];
        for _ in 0..50 {
            rt.inject(ServerId(0), hot).unwrap();
        }
        rt.wait_resolved(50, Duration::from_secs(10)).unwrap();
        rt.add_load_bias(ServerId(0), 5.0).unwrap();
        // More queries arrive; the post-query trigger fires a session.
        for _ in 0..50 {
            rt.inject(ServerId(0), hot).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if rt.stats().replicas_created > 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no live replication after biasing load: {:?}",
                rt.stats()
            );
            // Keep demand flowing so the trigger keeps being checked.
            rt.inject(ServerId(0), hot).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        let total: usize = (0..4)
            .map(|i| rt.snapshot(ServerId(i)).unwrap().replicas)
            .sum();
        assert!(total > 0);
        rt.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_traffic_in_flight() {
        let rt = fleet(4, 5);
        for i in 0..200u32 {
            let _ = rt.inject(ServerId(i % 4), NodeId(i % 31));
        }
        rt.shutdown(); // must not hang or panic
    }
}
