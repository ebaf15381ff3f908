//! The per-server TerraDir protocol state machine.
//!
//! [`ServerState`] holds everything one peer keeps (the paper's Table 1
//! state plus the replication-protocol bookkeeping) and reacts to incoming
//! [`Message`]s by mutating local state and emitting [`Outgoing`] effects.
//! It is substrate-agnostic: the discrete-event [`System`](crate::system)
//! and the live `terradir-net` runtime both drive it.

use crate::det::DetHashMap;
use std::sync::Arc;

use rand::RngCore;

use terradir_bloom::Digest;
use terradir_namespace::{Namespace, NodeId, OwnerAssignment, ServerId};

use crate::cache::RouteCache;
use crate::config::{self, Config};
use crate::digests::{build_digest, DigestStore};
use crate::load::LoadMeter;
use crate::map::NodeMap;
use crate::messages::{Message, QueryKind, QueryPacket};
use crate::meta::Meta;
use crate::ranking::NodeWeights;
use crate::records::NodeRecord;
use crate::replication::{KnownLoads, Session};
use crate::routing::RouteChoice;

/// Effects emitted while handling a message.
#[derive(Debug, Clone)]
pub enum Outgoing {
    /// Transmit a message to a peer (the substrate adds network delay and
    /// queueing).
    Send {
        /// Destination server.
        to: ServerId,
        /// The message.
        msg: Message,
    },
    /// A protocol-level event for statistics/observability.
    Event(ProtocolEvent),
}

/// Observable protocol events (consumed by [`RunStats`](crate::stats)).
#[derive(Debug, Clone)]
pub enum ProtocolEvent {
    /// A query result arrived back at its origin.
    Resolved {
        /// Query id.
        id: u64,
        /// Lookup target.
        target: NodeId,
        /// Network hops the query took to resolve.
        hops: u32,
        /// Time the query entered the system.
        issued_at: f64,
        /// Meta-data version returned with the result.
        meta_version: u64,
        /// Children returned by a List query (empty for plain lookups).
        children: Vec<NodeId>,
        /// Whether this attempt hit at least one stale pointer on its way
        /// (feeds the reconvergence curve; DESIGN.md §14).
        misrouted: bool,
        /// Forwarding steps taken after the first misroute.
        detour_hops: u32,
    },
    /// A query exceeded the hop TTL and was discarded.
    DroppedTtl {
        /// Query id.
        id: u64,
        /// Lookup target (tenant attribution; DESIGN.md §19).
        target: NodeId,
    },
    /// A query could not be routed (no usable candidate — should not occur
    /// with a connected namespace).
    DroppedStuck {
        /// Query id.
        id: u64,
        /// Lookup target (tenant attribution; DESIGN.md §19).
        target: NodeId,
    },
    /// A replica was installed at this server.
    ReplicaCreated {
        /// The replicated node.
        node: NodeId,
        /// The installing server.
        at: ServerId,
    },
    /// A replica was evicted from this server.
    ReplicaDeleted {
        /// The evicted node.
        node: NodeId,
        /// The evicting server.
        at: ServerId,
    },
    /// A replication session started (probe sent).
    SessionStarted {
        /// The initiating (overloaded) server.
        by: ServerId,
    },
    /// A replication session completed with `installed` new replicas.
    SessionCompleted {
        /// The initiating server.
        by: ServerId,
        /// Replicas installed at the partner.
        installed: usize,
    },
    /// A replication session gave up (no eligible partner).
    SessionAborted {
        /// The initiating server.
        by: ServerId,
    },
    /// A host was newly marked dead in this server's negative cache
    /// (transport-failure feedback; DESIGN.md §12).
    HostMarkedDead {
        /// The unreachable server.
        host: ServerId,
    },
    /// A forwarded query arrived at a server that does not host the node
    /// it was routed via (stale soft state; DESIGN.md §14). Emitted
    /// regardless of configuration — it is pure observation.
    Misrouted {
        /// The server the stale pointer named.
        at: ServerId,
    },
    /// The lease sweep evicted stale soft state (DESIGN.md §14).
    LeaseExpired {
        /// The sweeping server.
        at: ServerId,
        /// Replica records, context maps, and cache entries evicted.
        count: u64,
    },
    /// A data fetch finished (step two of the two-step access).
    DataFetched {
        /// Fetch id passed to [`ServerState::begin_fetch`].
        id: u64,
        /// The node.
        node: NodeId,
        /// Whether data was obtained.
        ok: bool,
        /// Size of the data in bytes (0 on failure).
        bytes: usize,
    },
    /// A storage read probe was answered (DESIGN.md §17): one replica's
    /// reply reached the coordinating server. The system folds it into
    /// the read session's freshest-copy accumulator.
    StorageReadReply {
        /// The read-session id.
        id: u64,
        /// The replying replica's copy, if it held one.
        obj: Option<crate::storage::StoredObject>,
    },
    /// A gossip digest arrived (DESIGN.md §18): the receiving server
    /// already purged the soft state the digest disclaims; the substrate
    /// — which owns the replica-set membership math — now selects the
    /// object versions the gossiper is missing and replies with a
    /// [`Message::GossipReply`].
    GossipSolicited {
        /// The server the digest arrived at (the replying peer).
        at: ServerId,
        /// The gossiping (soliciting) server.
        from: ServerId,
        /// The solicitor's windowed digest.
        digest: terradir_bloom::WindowedDigest,
    },
}

/// One peer's complete protocol state.
///
/// `Clone` lets a bench or test snapshot a server out of a warmed run.
#[derive(Debug, Clone)]
pub struct ServerState {
    pub(crate) id: ServerId,
    pub(crate) ns: Arc<Namespace>,
    pub(crate) cfg: Arc<Config>,
    /// Nodes this server owns (full records; never evicted).
    pub(crate) owned: DetHashMap<NodeId, NodeRecord>,
    /// Soft-state replicas (bounded by `R_fact · |owned|`).
    pub(crate) replicas: DetHashMap<NodeId, NodeRecord>,
    /// Maps for the topological neighbors of every hosted node (the
    /// routing *context* guaranteeing incremental progress).
    pub(crate) neighbor_maps: DetHashMap<NodeId, NodeMap>,
    /// Lease stamps for `neighbor_maps` entries (DESIGN.md §14): one
    /// stamp per context map, refreshed on fresh evidence or routing use.
    /// Always maintained (stamping is pure bookkeeping); the sweep only
    /// acts on it when `Config::leases` is enabled. Key set mirrors
    /// `neighbor_maps` exactly (checked by `check_lease_freshness`).
    pub(crate) context_lease: DetHashMap<NodeId, f64>,
    /// LRU route cache (pointer state, no context).
    pub(crate) cache: RouteCache,
    /// Freshest inverse-mapping digest per remote server.
    pub(crate) digest_store: DigestStore,
    /// Demand counters ranking hosted nodes.
    pub(crate) weights: NodeWeights,
    /// The windowed busy-fraction load metric with hysteresis bias.
    pub(crate) load: LoadMeter,
    /// Profiled load information about other servers.
    pub(crate) known_loads: KnownLoads,
    /// This server's own current digest (rebuilt at maintenance when the
    /// hosted set changed).
    pub(crate) digest: Digest,
    pub(crate) digest_dirty: bool,
    pub(crate) digest_gen: u64,
    /// In-flight replication session, if any.
    pub(crate) session: Option<Session>,
    /// No new session may start before this time.
    pub(crate) cooldown_until: f64,
    /// Forwarding steps received where the previous hop's map entry was
    /// checked against our actual hosted set (routing-accuracy measurement).
    pub(crate) hop_checks: u64,
    /// Of those, how many were accurate (we really host the via node).
    pub(crate) hop_accurate: u64,
    /// Node data exported by this server (owners only; never replicated).
    pub(crate) data_store: DetHashMap<NodeId, std::sync::Arc<[u8]>>,
    /// Replicated object store (DESIGN.md §17): this server's copy of
    /// every stored object whose replica set includes it. Soft state —
    /// a crash wipes it (`reset_soft_state`), which is exactly what
    /// makes durability under churn non-trivial; taciturn gossip
    /// re-replicates from surviving copies (DESIGN.md §18).
    pub(crate) store: DetHashMap<NodeId, crate::storage::StoredObject>,
    /// In-progress data fetches initiated at this server.
    pub(crate) pending_fetches: DetHashMap<u64, FetchState>,
    /// Negative cache (DESIGN.md §12): hosts observed dead via transport
    /// failure, mapped to the observation time. While a host is here it is
    /// kept out of every stored map; entries expire after
    /// [`config::DEAD_TTL`] or on any message proving the host alive.
    pub(crate) negative: DetHashMap<ServerId, f64>,
    /// Anti-entropy gossip bookkeeping (DESIGN.md §18): the windowed
    /// digest over hosted names and object-version keys, its change
    /// tracking, and per-peer delta bases. Inert while gossip is off.
    pub(crate) gossip: crate::gossip::GossipState,
    /// Fleet role map handle (DESIGN.md §19): `None` while roles are
    /// off, so every admission check short-circuits to "allowed" and
    /// the roles-off path stays byte-identical.
    pub(crate) roles: Option<Arc<crate::roles::RoleMap>>,
    /// The substrate's static per-server speed table (empty when speed
    /// heterogeneity is off). Used only for deterministic tie-breaking
    /// in replication partner ranking — never consulted for timing.
    pub(crate) speeds: Arc<[f64]>,
    /// Reusable buffers of the route decision (never read across calls).
    pub(crate) route_scratch: crate::routing::RouteScratch,
}

/// Client-side state of one in-progress data fetch.
#[derive(Debug, Clone)]
pub(crate) struct FetchState {
    node: NodeId,
    candidates: Vec<ServerId>,
    next: usize,
}

impl ServerState {
    /// Bootstraps a server from the global ownership assignment: owned
    /// records with singleton self maps, neighbor maps pointing at the true
    /// owners (the static bootstrap state of the paper's system), and an
    /// initial digest over the owned set.
    pub fn new(
        id: ServerId,
        ns: Arc<Namespace>,
        cfg: Arc<Config>,
        assignment: &OwnerAssignment,
    ) -> ServerState {
        let mut owned = DetHashMap::default();
        let mut neighbor_maps: DetHashMap<NodeId, NodeMap> = DetHashMap::default();
        for &node in assignment.owned_by(id) {
            owned.insert(
                node,
                NodeRecord::new(node, NodeMap::singleton(id), Meta::new(), 0.0),
            );
            for nb in ns.neighbors(node) {
                neighbor_maps
                    .entry(nb)
                    .or_insert_with(|| NodeMap::singleton(assignment.owner(nb)));
            }
        }
        let mut context_lease: DetHashMap<NodeId, f64> = DetHashMap::default();
        for &nb in neighbor_maps.keys() {
            context_lease.insert(nb, 0.0);
        }
        let digest = build_digest(
            &ns,
            id,
            owned.keys(),
            Self::digest_capacity(&cfg, owned.len()),
            config::DIGEST_FPR,
            0,
        );
        ServerState {
            id,
            owned,
            replicas: DetHashMap::default(),
            neighbor_maps,
            context_lease,
            cache: RouteCache::new(if cfg.caching { cfg.cache_slots } else { 0 }),
            digest_store: DigestStore::new(if cfg.digests {
                cfg.digest_store_slots
            } else {
                0
            }),
            weights: NodeWeights::new(config::WEIGHT_HALF_LIFE),
            load: LoadMeter::new(config::LOAD_WINDOW, config::LOAD_WINDOW * 4.0),
            known_loads: KnownLoads::new(config::KNOWN_LOAD_SLOTS),
            digest,
            digest_dirty: false,
            digest_gen: 0,
            session: None,
            cooldown_until: 0.0,
            hop_checks: 0,
            hop_accurate: 0,
            data_store: DetHashMap::default(),
            store: DetHashMap::default(),
            pending_fetches: DetHashMap::default(),
            negative: DetHashMap::default(),
            gossip: crate::gossip::GossipState::default(),
            roles: None,
            speeds: Arc::new([]),
            route_scratch: crate::routing::RouteScratch::default(),
            ns,
            cfg,
        }
    }

    /// Installs the fleet role map (built once by the substrate when
    /// `Config::roles.enabled`; never installed otherwise).
    pub fn set_role_map(&mut self, roles: Arc<crate::roles::RoleMap>) {
        self.roles = Some(roles);
    }

    /// The installed role map, if roles are on.
    pub(crate) fn role_map(&self) -> Option<&crate::roles::RoleMap> {
        self.roles.as_deref()
    }

    /// Shares the substrate's static speed table (partner-ranking
    /// tie-breaks under speed heterogeneity; DESIGN.md §16).
    pub fn set_static_speeds(&mut self, speeds: Arc<[f64]>) {
        self.speeds = speeds;
    }

    /// The shared static speed table (empty when heterogeneity is off).
    pub(crate) fn static_speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// May this server hold soft state for `node`? Always true with
    /// roles off (DESIGN.md §19).
    pub(crate) fn admits_node(&self, node: NodeId) -> bool {
        self.roles
            .as_deref()
            .is_none_or(|r| r.admits(self.id, node))
    }

    /// Is `node` pinned here (a keeper protecting its owned region
    /// against lease expiry, idle eviction, and displacement)?
    pub(crate) fn pins_node(&self, node: NodeId) -> bool {
        self.roles.as_deref().is_some_and(|r| r.pins(self.id, node))
    }

    /// The representative owned node for role-aware partner ranking:
    /// the lowest-id owned node below the spine. Spine nodes are
    /// admitted by everyone, so they say nothing about our region.
    pub(crate) fn home_node(&self) -> Option<NodeId> {
        let roles = self.role_map()?;
        self.owned
            .keys()
            .copied()
            .filter(|&n| !roles.in_spine(n))
            .min()
    }

    fn digest_capacity(cfg: &Config, owned: usize) -> usize {
        owned + cfg.replica_cap(owned)
    }

    /// This server's id.
    #[inline]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Whether this server hosts (owns or replicates) the node.
    #[inline]
    pub fn hosts(&self, node: NodeId) -> bool {
        self.owned.contains_key(&node) || self.replicas.contains_key(&node)
    }

    /// The hosted record for a node, if any.
    pub fn host_record(&self, node: NodeId) -> Option<&NodeRecord> {
        self.owned.get(&node).or_else(|| self.replicas.get(&node))
    }

    pub(crate) fn host_record_mut(&mut self, node: NodeId) -> Option<&mut NodeRecord> {
        if let Some(r) = self.owned.get_mut(&node) {
            return Some(r);
        }
        self.replicas.get_mut(&node)
    }

    /// Number of owned nodes.
    pub fn owned_count(&self) -> usize {
        self.owned.len()
    }

    /// Number of replicas currently hosted.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Iterator over owned node ids.
    pub fn owned_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.owned.keys().copied()
    }

    /// Iterator over replica node ids.
    pub fn replica_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas.keys().copied()
    }

    /// Iterator over all hosted node ids (owned then replicas).
    pub fn hosted_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.owned.keys().chain(self.replicas.keys()).copied()
    }

    /// The smallest hosted node adjacent to `node` (its parent or one of
    /// its children): the hosted node whose routing context holds
    /// `node`'s map, if any. Scans the hosted set rather than `node`'s
    /// fan-out, so a directory with hundreds of entries costs no more
    /// than a leaf.
    pub(crate) fn hosted_neighbor(&self, node: NodeId) -> Option<NodeId> {
        let parent = self.ns.parent(node);
        self.hosted_ids()
            .filter(|&h| Some(h) == parent || self.ns.parent(h) == Some(node))
            .min()
    }

    /// The effective (biased) load at `now`.
    pub fn effective_load(&self, now: f64) -> f64 {
        self.load.effective(now)
    }

    /// The measured (unbiased) load of the last completed window.
    pub fn measured_load(&self) -> f64 {
        self.load.measured()
    }

    /// Records a busy interval (called by the substrate when service
    /// starts).
    pub fn record_busy(&mut self, start: f64, duration: f64) {
        self.load.record_busy(start, duration);
    }

    /// Adds a decaying bias to the effective load (the hysteresis hook of
    /// §3.3 step 4; also used as an operational lever by the live runtime
    /// to drive the replication trigger).
    pub fn add_load_bias(&mut self, now: f64, delta: f64) {
        self.load.add_bias(now, delta);
    }

    /// Read-only view of the route cache.
    pub fn cache(&self) -> &RouteCache {
        &self.cache
    }

    /// The stored map for a topological neighbor of a hosted node, if any.
    pub fn neighbor_map(&self, node: NodeId) -> Option<&NodeMap> {
        self.neighbor_maps.get(&node)
    }

    /// Whether this server keeps the full routing context for `node`
    /// (a map for every topological neighbor) — the Table 1 "Context"
    /// column.
    pub fn has_context(&self, node: NodeId) -> bool {
        self.ns
            .neighbors(node)
            .iter()
            .all(|nb| self.neighbor_maps.contains_key(nb))
    }

    /// The server's current digest snapshot.
    pub fn digest(&self) -> &Digest {
        &self.digest
    }

    /// Main entry point: process one message, pushing effects into `out`.
    pub fn handle_message(
        &mut self,
        now: f64,
        msg: Message,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) {
        // Any message from a negatively cached host proves it alive again.
        if let Some(sender) = msg.sender() {
            self.negative.remove(&sender);
        }
        match msg {
            Message::Query(packet) => self.on_query(now, packet, rng, out),
            Message::QueryResult {
                packet,
                resolved_by,
                meta,
                children,
            } => self.on_result(now, packet, resolved_by, meta, children, rng, out),
            Message::GetData { id, node, from } => {
                let data = if self.owned.contains_key(&node) {
                    // xtask: allow(alloc): DataReply owns its payload bytes
                    self.data_store.get(&node).cloned()
                } else {
                    None
                };
                out.push(Outgoing::Send {
                    to: from,
                    msg: Message::DataReply {
                        id,
                        node,
                        from: self.id,
                        data,
                    },
                });
            }
            Message::DataReply { id, node, data, .. } => {
                self.on_data_reply(id, node, data, out);
            }
            Message::LoadProbe { from, load } => {
                self.known_loads.observe(from, load, now);
                out.push(Outgoing::Send {
                    to: from,
                    msg: Message::LoadProbeReply {
                        from: self.id,
                        load: self.load.effective(now),
                    },
                });
            }
            Message::LoadProbeReply { from, load } => {
                self.on_probe_reply(now, from, load, rng, out);
            }
            Message::ReplicateRequest {
                from,
                sender_load,
                replicas,
            } => self.on_replicate_request(now, from, sender_load, replicas, rng, out),
            Message::ReplicateAck {
                from,
                installed,
                shift,
            } => self.on_replicate_ack(now, from, installed, shift, out),
            Message::ReplicateDeny { from, load } => {
                self.on_replicate_deny(now, from, load, rng, out);
            }
            Message::MapUpdate { node, map } => {
                self.absorb_mapping(node, &map, now, rng);
            }
            Message::NotHosting { node, from } => {
                self.drop_stale_host(node, from);
            }
            Message::Misroute { node, from, digest } => {
                // Misroute repair (DESIGN.md §14): the attached digest
                // both proves the sender alive and pins the eviction at
                // its current generation, then the stale per-(node, host)
                // entry is dropped exactly as for `NotHosting`.
                if self.cfg.digests {
                    self.digest_store.observe(from, &digest);
                }
                self.drop_stale_host(node, from);
                self.purge_disclaimed(from, &digest);
            }
            Message::HostDown { host } => {
                self.mark_host_dead(now, host, out);
            }
            Message::PutObject { node, obj } => {
                self.merge_object(node, obj);
            }
            Message::GetObject { id, node, reply_to } => {
                out.push(Outgoing::Send {
                    to: reply_to,
                    msg: Message::ObjectReply {
                        id,
                        node,
                        obj: self.store.get(&node).copied(),
                        from: self.id,
                    },
                });
            }
            Message::ObjectReply { id, obj, .. } => {
                out.push(Outgoing::Event(ProtocolEvent::StorageReadReply { id, obj }));
            }
            Message::GossipDigest {
                from,
                digest,
                since: _,
            } => {
                // Routing arm (DESIGN.md §18): the digest's plain-name
                // class is a hosted-set snapshot, so prune every stale
                // entry naming the gossiper — the PR-4 `purge_disclaimed`
                // machinery — and feed the shortcut store.
                if self.cfg.digests {
                    self.digest_store.observe(from, digest.full());
                }
                self.purge_disclaimed(from, digest.full());
                // Object arm: the substrate owns the replica-set
                // membership math, so hand the digest up for pull
                // selection (it replies with a `GossipReply`).
                out.push(Outgoing::Event(ProtocolEvent::GossipSolicited {
                    at: self.id,
                    from,
                    digest,
                }));
            }
            Message::GossipPush {
                from: _,
                records,
                objects,
            } => {
                // Chatty/hybrid eager push: records merge exactly like
                // MapUpdates, objects exactly like write propagation.
                for (node, map) in &records {
                    self.absorb_mapping(*node, map, now, rng);
                }
                for (node, obj) in objects {
                    self.merge_object(node, obj);
                }
            }
            Message::GossipReply { from: _, objects } => {
                for (node, obj) in objects {
                    self.merge_object(node, obj);
                }
            }
        }
    }

    /// Installs `obj` for `node` under the last-writer-wins merge
    /// (DESIGN.md §17): a fresher local copy survives, an older or
    /// missing one is replaced. Write propagation and gossip pushes are
    /// deliberately indistinguishable here — both are just evidence of
    /// the object's latest version.
    pub(crate) fn merge_object(&mut self, node: NodeId, obj: crate::storage::StoredObject) {
        // Role admission (DESIGN.md §19): a non-owner never stores
        // object copies for regions it does not admit. Writes and
        // gossip pushes all funnel through here, so this one check
        // covers every object receive path. Owners are authoritative
        // and exempt.
        if !self.owned.contains_key(&node) && !self.admits_node(node) {
            return;
        }
        let prev = self.store.get(&node).copied();
        let merged = match prev {
            Some(held) => crate::storage::lww_merge(held, obj),
            None => obj,
        };
        self.store.insert(node, merged);
        // A genuinely new version changes this server's object key, so
        // the gossip digest must be resealed (no-op churn stays silent —
        // that is what keeps digest rounds idempotent).
        if self.cfg.gossip.enabled && prev != Some(merged) {
            self.gossip.mark(node);
        }
    }

    /// Negative caching (DESIGN.md §12): a send to `host` failed at the
    /// transport level, so evict it from every stored map — conservatively:
    /// a hosted record re-advertises self if emptied, and a neighbor map
    /// keeps a sole last-resort entry rather than losing its context — and
    /// forget its digest and load observations so shortcuts and partner
    /// selection stop targeting it.
    pub(crate) fn mark_host_dead(&mut self, now: f64, host: ServerId, out: &mut Vec<Outgoing>) {
        if host == self.id || !self.cfg.retry.enabled {
            return;
        }
        let newly = self.negative.insert(host, now).is_none();
        let r_map = self.cfg.r_map;
        let my_id = self.id;
        for rec in self.owned.values_mut().chain(self.replicas.values_mut()) {
            if rec.map.contains(host) {
                rec.map.remove(host, true);
                if rec.map.is_empty() || !rec.map.contains(my_id) {
                    rec.map.advertise(my_id, r_map);
                }
            }
        }
        for m in self.neighbor_maps.values_mut() {
            m.remove(host, false);
        }
        let emptied: Vec<NodeId> = self
            .cache
            .iter()
            .filter(|(_, m)| m.contains(host))
            .map(|(n, _)| n)
            .collect(); // xtask: allow(alloc): negative-caching sweep, runs only on host death
        for n in emptied {
            let mut drop_entry = false;
            if let Some(m) = self.cache.get_mut(n) {
                m.remove(host, true);
                drop_entry = m.is_empty();
            }
            if drop_entry {
                self.cache.remove(n);
            }
        }
        self.digest_store.forget(host);
        self.known_loads.forget(host);
        // A replication session probing the dead partner aborts on the
        // spot: stranding it until `SESSION_TIMEOUT` would block load
        // shedding exactly when the failure makes it urgent.
        if self.session.as_ref().is_some_and(|s| s.target == host) {
            self.abort_session(now, out);
        }
        if newly {
            out.push(Outgoing::Event(ProtocolEvent::HostMarkedDead { host }));
        }
    }

    /// Removes every negatively cached host from `map` (may empty it; the
    /// caller decides whether an empty result is usable).
    pub(crate) fn strip_negative(&self, map: &mut NodeMap) {
        if self.negative.is_empty() {
            return;
        }
        for &h in self.negative.keys() {
            map.remove(h, true);
        }
    }

    /// Whether `host` is currently negatively cached at this server.
    pub fn is_negatively_cached(&self, host: ServerId) -> bool {
        self.negative.contains_key(&host)
    }

    /// The partner of the in-flight replication session, if any.
    pub fn session_target(&self) -> Option<ServerId> {
        self.session.as_ref().map(|s| s.target)
    }

    /// Iterator over the negatively cached hosts.
    pub fn negatively_cached(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.negative.keys().copied()
    }

    /// Removes a server proven stale from whatever map tracks `node`, and
    /// denies the corresponding digest hit (a Bloom false positive repeats
    /// deterministically until the digest is regenerated).
    fn drop_stale_host(&mut self, node: NodeId, stale: ServerId) {
        if stale == self.id {
            return;
        }
        self.digest_store.deny(stale, node);
        if let Some(rec) = self.host_record_mut(node) {
            rec.map.remove(stale, false);
            return;
        }
        if let Some(m) = self.neighbor_maps.get_mut(&node) {
            m.remove(stale, false);
            return;
        }
        let mut drop_entry = false;
        if let Some(m) = self.cache.get_mut(node) {
            m.remove(stale, true);
            drop_entry = m.is_empty();
        }
        if drop_entry {
            self.cache.remove(node);
        }
    }

    /// Misroute repair, digest purge (DESIGN.md §14): the NACK's digest
    /// authoritatively disclaims every name its sender no longer hosts, so
    /// one correction from a freshly reset server clears *all* local
    /// pointers at it — not just the pair that misrouted. Bloom false
    /// positives err toward keeping entries (conservative pruning, §3.6).
    fn purge_disclaimed(&mut self, from: ServerId, digest: &Digest) {
        if from == self.id {
            return;
        }
        let my_id = self.id;
        let r_map = self.cfg.r_map;
        let ns = Arc::clone(&self.ns);
        for rec in self.owned.values_mut().chain(self.replicas.values_mut()) {
            if rec.map.contains(from) && !digest.test(ns.name(rec.node).as_str()) {
                rec.map.remove(from, true);
                if rec.map.is_empty() || !rec.map.contains(my_id) {
                    rec.map.advertise(my_id, r_map);
                }
            }
        }
        for (&n, m) in &mut self.neighbor_maps {
            if m.contains(from) && !digest.test(ns.name(n).as_str()) {
                m.remove(from, false);
            }
        }
        let stale_cached: Vec<NodeId> = self
            .cache
            .iter()
            .filter(|&(n, m)| m.contains(from) && !digest.test(ns.name(n).as_str()))
            .map(|(n, _)| n)
            .collect(); // xtask: allow(alloc): misroute repair sweep, a handful per repair
        for n in stale_cached {
            let mut drop_entry = false;
            if let Some(m) = self.cache.get_mut(n) {
                m.remove(from, true);
                drop_entry = m.is_empty();
            }
            if drop_entry {
                self.cache.remove(n);
            }
        }
    }

    /// Sends the record's map upstream if it was freshly advertised and the
    /// rate limit allows.
    fn maybe_backprop(&mut self, now: f64, node: NodeId, prev: ServerId, out: &mut Vec<Outgoing>) {
        if !self.cfg.replication || prev == self.id {
            return;
        }
        let Some(rec) = self.host_record_mut(node) else {
            return;
        };
        if rec.map.len() <= 1
            || now - rec.advertised_at > config::BACKPROP_WINDOW
            || now - rec.backprop_at < config::BACKPROP_MIN_GAP
        {
            return;
        }
        rec.backprop_at = now;
        // xtask: allow(alloc): rate-limited backprop; the MapUpdate message owns its map
        let map = rec.map.clone();
        out.push(Outgoing::Send {
            to: prev,
            msg: Message::MapUpdate { node, map },
        });
    }

    /// Routing step for an incoming query.
    fn on_query(
        &mut self,
        now: f64,
        mut p: QueryPacket,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) {
        self.absorb_piggyback(now, &mut p, rng);
        if let Some(via) = p.intended_via.take() {
            self.hop_checks += 1;
            if self.hosts(via) {
                self.hop_accurate += 1;
                // Back-propagation (§3.7): if we recently advertised new
                // replicas for the node the sender routed via, push our
                // fresh map one hop upstream so it splits future traffic.
                if let Some(prev) = p.prev_hop {
                    self.maybe_backprop(now, via, prev, out);
                }
            } else {
                // Misroute (DESIGN.md §14): the sender's map for `via`
                // named us, but we do not host it. Detection is
                // unconditional — the repair-off baseline must still
                // measure its detours — while the NACK upgrade below is
                // the gated repair half.
                p.misrouted = true;
                out.push(Outgoing::Event(ProtocolEvent::Misrouted { at: self.id }));
                if let Some(prev) = p.prev_hop {
                    if prev != self.id {
                        if self.cfg.misroute_active() {
                            self.rebuild_digest_if_dirty();
                            out.push(Outgoing::Send {
                                to: prev,
                                msg: Message::Misroute {
                                    node: via,
                                    from: self.id,
                                    // xtask: allow(alloc): Digest is Arc-backed — a refcount bump
                                    digest: self.digest.clone(),
                                },
                            });
                        } else {
                            // Stale-entry correction (§3.5).
                            out.push(Outgoing::Send {
                                to: prev,
                                msg: Message::NotHosting {
                                    node: via,
                                    from: self.id,
                                },
                            });
                        }
                    }
                }
            }
        }
        match self.decide_route(p.target, &p.recent, rng) {
            RouteChoice::Resolve => {
                self.weights.bump(p.target, now, 1.0);
                if self.cfg.leases.enabled {
                    if let Some(rec) = self.host_record_mut(p.target) {
                        rec.refresh_lease(now);
                    }
                }
                // `decide_route` only resolves when we host the target, so
                // a missing record is a protocol bug; answer with an empty
                // map rather than dying mid-query.
                let (map, meta) = if let Some(rec) = self.host_record(p.target) {
                    // xtask: allow(alloc): QueryResult owns its map and meta payloads
                    (rec.map.clone(), rec.meta.clone())
                } else {
                    debug_assert!(false, "decide said hosted but no record");
                    (NodeMap::singleton(self.id), crate::meta::Meta::new())
                };
                // List queries also return the children with the maps from
                // our routing context (hosting the node guarantees one per
                // child).
                let children: Vec<(NodeId, NodeMap)> = if p.kind == QueryKind::List {
                    self.ns
                        .children(p.target)
                        .iter()
                        .filter_map(|&c| self.neighbor_maps.get(&c).map(|m| (c, m.clone()))) // xtask: allow(alloc): List result owns its child maps
                        .collect()
                } else {
                    Vec::new()
                };
                p.push_path(p.target, map, config::PATH_CAP);
                out.push(Outgoing::Send {
                    to: p.origin,
                    msg: Message::QueryResult {
                        packet: p,
                        resolved_by: self.id,
                        meta,
                        children,
                    },
                });
            }
            RouteChoice::Forward {
                via,
                to,
                used_context_of,
                map_snapshot,
            } => {
                if let Some(h) = used_context_of {
                    self.weights.bump(h, now, 1.0);
                }
                if self.cfg.leases.enabled {
                    self.refresh_lease_of(via, now);
                }
                if self.cfg.path_propagation {
                    p.push_path(via, map_snapshot, config::PATH_CAP);
                }
                p.hops += 1;
                if p.misrouted {
                    p.detour_hops += 1;
                }
                if p.hops > config::TTL_HOPS {
                    out.push(Outgoing::Event(ProtocolEvent::DroppedTtl {
                        id: p.id,
                        target: p.target,
                    }));
                    return;
                }
                p.intended_via = Some(via);
                p.prev_hop = Some(self.id);
                p.push_recent(self.id);
                p.sender_load = Some((self.id, self.load.effective(now)));
                p.sender_digest = if self.cfg.digests {
                    // xtask: allow(alloc): Digest is Arc-backed — a refcount bump
                    Some((self.id, self.digest.clone()))
                } else {
                    None
                };
                out.push(Outgoing::Send {
                    to,
                    msg: Message::Query(p),
                });
            }
            RouteChoice::Stuck => {
                out.push(Outgoing::Event(ProtocolEvent::DroppedStuck {
                    id: p.id,
                    target: p.target,
                }));
            }
        }
    }

    /// A resolved query returned to this server (the origin): cache the
    /// whole propagated path ("culminating in the entire path being cached
    /// at the source when the query completes").
    fn on_result(
        &mut self,
        now: f64,
        mut p: QueryPacket,
        _resolved_by: ServerId,
        meta: Meta,
        children: Vec<(NodeId, NodeMap)>,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) {
        self.absorb_piggyback(now, &mut p, rng);
        // If we happen to host the node (e.g. we replicate it), keep the
        // newest meta we have encountered — fresh evidence, so the lease
        // renews too.
        if let Some(rec) = self.host_record_mut(p.target) {
            rec.absorb_meta(&meta);
            rec.refresh_lease(now);
        }
        // Child maps returned by a List query feed the local soft state:
        // the follow-up per-child lookups of a decomposed search start
        // with direct pointers.
        let child_ids: Vec<NodeId> = children.iter().map(|(c, _)| *c).collect(); // xtask: allow(alloc): Resolved event owns its child list
        for (c, m) in &children {
            self.absorb_mapping(*c, m, now, rng);
        }
        out.push(Outgoing::Event(ProtocolEvent::Resolved {
            id: p.id,
            target: p.target,
            hops: p.hops,
            issued_at: p.issued_at,
            meta_version: meta.version(),
            children: child_ids,
            misrouted: p.misrouted,
            detour_hops: p.detour_hops,
        }));
    }

    /// Absorbs everything a packet carries: sender load, sender digest, and
    /// the propagated path (merged into hosted records / neighbor maps /
    /// the cache, whichever tracks the node).
    fn absorb_piggyback(&mut self, now: f64, p: &mut QueryPacket, rng: &mut impl RngCore) {
        if let Some((s, l)) = p.sender_load {
            if s != self.id {
                self.known_loads.observe(s, l, now);
            }
        }
        if self.cfg.digests {
            if let Some((s, d)) = &p.sender_digest {
                if *s != self.id {
                    self.digest_store.observe(*s, d);
                }
            }
        }
        let mut path = std::mem::take(&mut p.path);
        // Correct the packet in flight: a path entry claiming *we* host a
        // node we don't is authoritatively wrong. Left in place it
        // re-poisons every downstream cache (including the sender's, on
        // the next bounce) and sustains routing loops.
        let my_id = self.id;
        path.retain_mut(|(node, map)| {
            if map.contains(my_id) && !self.hosts(*node) {
                map.remove(my_id, true);
            }
            !map.is_empty()
        });
        if self.cfg.path_propagation {
            for (node, map) in &path {
                self.absorb_mapping(*node, map, now, rng);
            }
        } else {
            // Endpoint-only caching (the strawman of §2.4): only the
            // looked-up target's map is absorbed, and only at the origin
            // when the result returns.
            if let Some((node, map)) = path.iter().find(|(n, _)| *n == p.target) {
                self.absorb_mapping(*node, map, now, rng);
            }
        }
        p.path = path;
    }

    /// Merges an incoming map for `node` into whichever local structure
    /// tracks it (paper §3.7 "maps are merged whenever a server keeps a map
    /// for a node, and an incoming query contains another map for the same
    /// node"), with digest-based filtering applied at merge time.
    pub(crate) fn absorb_mapping(
        &mut self,
        node: NodeId,
        incoming: &NodeMap,
        now: f64,
        rng: &mut impl RngCore,
    ) {
        let r_map = self.cfg.r_map;
        // xtask: allow(alloc): detached working copy — filtered and merged in place
        let mut incoming = incoming.clone();
        self.filter_map(node, &mut incoming);
        self.strip_negative(&mut incoming);
        if incoming.is_empty() {
            return;
        }
        let my_id = self.id;
        if let Some(rec) = self.host_record_mut(node) {
            let mut merged = rec.map.merge(&incoming, r_map, rng);
            // A host is authoritative about itself: never lose the self
            // entry to a merge.
            if !merged.contains(my_id) {
                merged.advertise(my_id, r_map);
            }
            rec.map = merged;
            // Fresh evidence renews the lease (DESIGN.md §14).
            rec.refresh_lease(now);
            return;
        }
        // For nodes we do NOT host, a self entry is authoritatively wrong
        // (it can arrive via digest-shortcut path entries or maps that
        // advertised a replica we have since evicted) — strip it before it
        // can poison neighbor maps or the cache.
        incoming.remove(my_id, true);
        if incoming.is_empty() {
            return;
        }
        if let Some(m) = self.neighbor_maps.get_mut(&node) {
            let mut merged = m.merge(&incoming, r_map, rng);
            merged.remove(my_id, true);
            // The *existing* map may hold a negatively cached host as its
            // tolerated sole entry; once the merge brings in live hosts,
            // the dead one must not ride along (never emptying the map).
            for &h in self.negative.keys() {
                merged.remove(h, false);
            }
            if !merged.is_empty() {
                *m = merged;
            }
            if let Some(stamp) = self.context_lease.get_mut(&node) {
                if now > *stamp {
                    *stamp = now;
                }
            }
            return;
        }
        if self.cfg.caching {
            if let Some(m) = self.cache.get_mut(node) {
                let mut merged = m.merge(&incoming, r_map, rng);
                merged.remove(my_id, true);
                if !merged.is_empty() {
                    *m = merged;
                }
                self.cache.refresh_lease(node, now);
            } else {
                self.cache.insert(node, incoming, now);
            }
        }
    }

    /// Renews the lease of whatever soft-state structure tracks `node`
    /// (refresh-on-use; DESIGN.md §14). Stamps are pure bookkeeping, so
    /// this never perturbs routing, LRU order, or accounting.
    fn refresh_lease_of(&mut self, node: NodeId, now: f64) {
        if let Some(rec) = self.host_record_mut(node) {
            rec.refresh_lease(now);
            return;
        }
        if let Some(stamp) = self.context_lease.get_mut(&node) {
            if now > *stamp {
                *stamp = now;
            }
            return;
        }
        self.cache.refresh_lease(node, now);
    }

    /// Digest-based conservative map filtering (paper §3.6.2), extended by
    /// the failure model (DESIGN.md §12): drop hosts whose stored digest
    /// proves they do not host `node`, and hosts currently in the negative
    /// cache. Never empties the map.
    pub(crate) fn filter_map(&self, node: NodeId, map: &mut NodeMap) {
        if !self.cfg.digests && self.negative.is_empty() {
            return;
        }
        let digests = self.cfg.digests;
        let name = self.ns.name(node).as_str();
        map.filter_stale(|h| {
            h != self.id
                && ((digests && self.digest_store.test(h, name) == Some(false))
                    || self.negative.contains_key(&h))
        });
    }

    /// Periodic maintenance, called every load window by the substrate:
    /// rolls the load metric, evicts idle replicas, abandons timed-out
    /// sessions, and rebuilds the digest if the hosted set changed.
    pub fn maintenance(&mut self, now: f64, out: &mut Vec<Outgoing>) {
        self.load.roll(now);
        if !self.negative.is_empty() {
            self.negative.retain(|_, at| now - *at <= config::DEAD_TTL);
        }
        if self.cfg.replication {
            self.evict_idle_replicas(now, out);
            if let Some(s) = &self.session {
                if now - s.started_at > config::SESSION_TIMEOUT {
                    self.session = None;
                    self.cooldown_until = now + config::SESSION_COOLDOWN;
                    out.push(Outgoing::Event(ProtocolEvent::SessionAborted {
                        by: self.id,
                    }));
                }
            }
        }
        if self.cfg.leases.enabled {
            self.sweep_leases(now, out);
        }
        if self.digest_dirty {
            self.rebuild_digest();
        }
    }

    /// The lazy lease sweep (DESIGN.md §14), riding the periodic
    /// maintenance tick: evicts replica records, neighbor-context maps,
    /// and cache entries whose lease stamp is older than `leases.ttl`.
    /// Owned records are authoritative and exempt; context maps still
    /// required by a hosted node's routing context are restamped instead
    /// of evicted (routing totality outranks freshness).
    fn sweep_leases(&mut self, now: f64, out: &mut Vec<Outgoing>) {
        let ttl = self.cfg.leases.ttl;
        let mut expired: u64 = 0;
        let mut victims: Vec<NodeId> = self
            .replicas
            .values()
            // Keeper-pinned replicas are exempt from lease expiry (§19).
            .filter(|r| now - r.lease_at > ttl && !self.pins_node(r.node))
            .map(|r| r.node)
            .collect(); // xtask: allow(alloc): periodic maintenance sweep, not per event
        victims.sort_unstable();
        for v in victims {
            self.remove_replica(v, out);
            expired += 1;
        }
        let mut stale_ctx: Vec<NodeId> = self
            .context_lease
            .iter()
            .filter(|&(_, &at)| now - at > ttl)
            .map(|(&n, _)| n)
            .collect(); // xtask: allow(alloc): periodic maintenance sweep, not per event
        stale_ctx.sort_unstable();
        for n in stale_ctx {
            if self.hosted_neighbor(n).is_some() {
                if let Some(at) = self.context_lease.get_mut(&n) {
                    *at = now;
                }
                continue;
            }
            self.neighbor_maps.remove(&n);
            self.context_lease.remove(&n);
            expired += 1;
        }
        expired += self.cache.sweep_expired(now, ttl).len() as u64;
        if expired > 0 {
            out.push(Outgoing::Event(ProtocolEvent::LeaseExpired {
                at: self.id,
                count: expired,
            }));
        }
    }

    fn evict_idle_replicas(&mut self, now: f64, out: &mut Vec<Outgoing>) {
        let cfg = Arc::clone(&self.cfg);
        let mut victims: Vec<NodeId> = self
            .replicas
            .values()
            .filter(|r| {
                now - r.installed_at > config::EVICT_MIN_AGE
                    && self.weights.value(r.node, now) < cfg.evict_weight_threshold
                    // Keeper-pinned replicas never idle out (§19).
                    && !self.pins_node(r.node)
            })
            .map(|r| r.node)
            .collect(); // xtask: allow(alloc): periodic maintenance sweep, not per event
        victims.sort_unstable();
        for v in victims {
            self.remove_replica(v, out);
        }
    }

    /// Removes a replica, garbage-collecting neighbor context that no other
    /// hosted node needs, and marks the digest dirty.
    pub(crate) fn remove_replica(&mut self, node: NodeId, out: &mut Vec<Outgoing>) {
        if self.replicas.remove(&node).is_none() {
            return;
        }
        self.weights.remove(node);
        self.digest_dirty = true;
        if self.cfg.gossip.enabled {
            self.gossip.mark(node);
        }
        for nb in self.ns.neighbors(node) {
            if self.hosted_neighbor(nb).is_none() {
                self.neighbor_maps.remove(&nb);
                self.context_lease.remove(&nb);
            }
        }
        out.push(Outgoing::Event(ProtocolEvent::ReplicaDeleted {
            node,
            at: self.id,
        }));
    }

    /// Rebuilds the digest only when the hosted set changed.
    pub(crate) fn rebuild_digest_if_dirty(&mut self) {
        if self.digest_dirty {
            self.rebuild_digest();
        }
    }

    pub(crate) fn rebuild_digest(&mut self) {
        self.digest_gen += 1;
        self.digest = build_digest(
            &self.ns,
            self.id,
            self.owned.keys().chain(self.replicas.keys()),
            Self::digest_capacity(&self.cfg, self.owned.len()),
            config::DIGEST_FPR,
            self.digest_gen,
        );
        self.digest_dirty = false;
    }

    /// The server's current windowed gossip digest (DESIGN.md §18),
    /// resealed first if the hosted set or object store changed since the
    /// last round. The returned value is a cheap `Arc`-backed clone, fit
    /// for shipping to every peer of the round.
    pub(crate) fn gossip_digest(&mut self) -> terradir_bloom::WindowedDigest {
        if self.gossip.dirty || self.gossip.digest.is_none() {
            self.reseal_gossip_digest();
        }
        match &self.gossip.digest {
            // xtask: allow(alloc): Arc-backed clone, O(1) — no filter copy
            Some(d) => d.clone(),
            // Unreachable (reseal always installs a digest); an empty
            // digest keeps the accessor total without panicking.
            None => terradir_bloom::WindowedDigest::empty(self.gossip_params(8)),
        }
    }

    /// Filter parameters for the gossip digest: hosted capacity plus the
    /// object store, under the configured false-positive rate, seeded
    /// per-server (a different constant than the routing digest so the
    /// two filters' false positives are uncorrelated).
    fn gossip_params(&self, capacity: usize) -> terradir_bloom::BloomParams {
        terradir_bloom::BloomParams::for_capacity(
            capacity.max(8),
            config::DIGEST_FPR,
            0x6055_1bed ^ self.id.0 as u64,
        )
    }

    /// Seals the next gossip-digest generation: every hosted name plus an
    /// `name#v<version>` key per stored object. Per-node changes recorded
    /// since the last seal become the delta window; a reset (`mark_all`)
    /// seals a fresh snapshot with a broken window instead, forcing
    /// behind peers onto the full filter.
    fn reseal_gossip_digest(&mut self) {
        use terradir_bloom::{DigestBuilder, WindowedDigest};
        let capacity = Self::digest_capacity(&self.cfg, self.owned.len()) + self.store.len();
        let mut filter = DigestBuilder::new(self.gossip_params(capacity));
        let mut key_buf = std::mem::take(&mut self.gossip.key_buf);
        for &n in self.owned.keys().chain(self.replicas.keys()) {
            filter.add(self.ns.name(n).as_str());
        }
        for (&node, obj) in &self.store {
            crate::gossip::object_key(&mut key_buf, self.ns.name(node).as_str(), obj.version);
            filter.add(&key_buf);
        }
        let prev_gen = self
            .gossip
            .digest
            .as_ref()
            .map_or(0, WindowedDigest::generation);
        let next = if let (Some(prev), false) = (&self.gossip.digest, self.gossip.all_changed) {
            // Render the changed nodes' *current* keys for the delta
            // window. Removals have no current key and cannot be
            // expressed — the full filter already disclaims them,
            // which is the authoritative signal peers act on.
            let mut changed = std::mem::take(&mut self.gossip.changed);
            changed.sort_unstable();
            changed.dedup();
            let mut changed_keys = std::mem::take(&mut self.gossip.changed_keys);
            changed_keys.clear();
            for &node in &changed {
                let name = self.ns.name(node).as_str();
                if self.hosts(node) {
                    // xtask: allow(alloc): bounded by the per-round change set
                    changed_keys.push(name.to_string());
                }
                if let Some(obj) = self.store.get(&node) {
                    crate::gossip::object_key(&mut key_buf, name, obj.version);
                    // xtask: allow(alloc): bounded by the per-round change set
                    changed_keys.push(key_buf.clone());
                }
            }
            let next = WindowedDigest::seal_next(
                prev,
                filter,
                changed_keys.iter().map(String::as_str),
                self.cfg.gossip.window as usize,
            );
            changed.clear();
            self.gossip.changed = changed;
            self.gossip.changed_keys = changed_keys;
            next
        } else {
            self.gossip.changed.clear();
            WindowedDigest::seal_snapshot(filter, prev_gen.wrapping_add(1))
        };
        self.gossip.key_buf = key_buf;
        self.gossip.digest = Some(next);
        self.gossip.dirty = false;
        self.gossip.all_changed = false;
    }

    /// Rejoin after a failure (DESIGN.md §12): owned records survive with
    /// their metadata and data intact, but every piece of *soft* state —
    /// replicas, learned maps, the route cache, digests, load profiles,
    /// the negative cache, in-flight sessions and fetches — is discarded
    /// and rebuilt from the static bootstrap assignment, exactly as at
    /// construction. The digest generation stays monotone so peers'
    /// freshest-generation-wins logic accepts the rejoined server's digest.
    pub fn reset_soft_state(&mut self, now: f64, assignment: &OwnerAssignment) {
        self.replicas.clear();
        self.neighbor_maps.clear();
        self.context_lease.clear();
        for rec in self.owned.values_mut() {
            rec.map = NodeMap::singleton(self.id);
            rec.advertised_at = f64::NEG_INFINITY;
            rec.backprop_at = f64::NEG_INFINITY;
            rec.installed_at = now;
            rec.lease_at = now;
        }
        let owned: Vec<NodeId> = self.owned.keys().copied().collect(); // xtask: allow(alloc): rejoin-only soft-state rebuild
        for node in owned {
            for nb in self.ns.neighbors(node) {
                self.neighbor_maps
                    .entry(nb)
                    .or_insert_with(|| NodeMap::singleton(assignment.owner(nb)));
            }
        }
        let ctx: Vec<NodeId> = self.neighbor_maps.keys().copied().collect(); // xtask: allow(alloc): rejoin-only soft-state rebuild
        for nb in ctx {
            self.context_lease.insert(nb, now);
        }
        self.cache = RouteCache::new(if self.cfg.caching {
            self.cfg.cache_slots
        } else {
            0
        });
        self.digest_store = DigestStore::new(if self.cfg.digests {
            self.cfg.digest_store_slots
        } else {
            0
        });
        self.weights = NodeWeights::new(config::WEIGHT_HALF_LIFE);
        let mut load = LoadMeter::new(config::LOAD_WINDOW, config::LOAD_WINDOW * 4.0);
        load.roll(now);
        self.load = load;
        self.known_loads = KnownLoads::new(config::KNOWN_LOAD_SLOTS);
        self.session = None;
        self.cooldown_until = now;
        self.pending_fetches.clear();
        self.negative.clear();
        // The object store is soft state too: a crash loses this
        // server's copies (DESIGN.md §17). Durability comes from the
        // surviving replicas plus gossip repair, not from any
        // per-server persistence.
        self.store.clear();
        // A reset is a change the gossip window cannot express: break
        // the window so behind peers take the next full snapshot, and
        // forget what was shipped where (DESIGN.md §18).
        if self.cfg.gossip.enabled {
            self.gossip.mark_all();
            self.gossip.sent_gen.clear();
        }
        self.rebuild_digest();
    }

    /// For tests/oracle: a deterministic snapshot of all hosted node ids.
    pub fn hosted_snapshot(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.hosted_ids().collect(); // xtask: allow(alloc): test accessor, not on the event path
        v.sort_unstable();
        v
    }

    /// Bumps a weight directly (used by tests and the live runtime's local
    /// bookkeeping).
    pub fn bump_weight(&mut self, node: NodeId, now: f64) {
        self.weights.bump(node, now, 1.0);
    }

    /// The stored peer digests this server tests for shortcuts.
    pub fn digest_store(&self) -> &DigestStore {
        &self.digest_store
    }

    /// Direct access to the rng-free route decision, exposed for the
    /// routing-accuracy oracle and property tests.
    pub fn peek_route(&mut self, target: NodeId, rng: &mut impl RngCore) -> RouteChoice {
        self.decide_route(target, &[], rng)
    }

    /// Owner-side meta-data update: sets an attribute on an owned node and
    /// bumps its version ("only the owner server of a node is allowed to
    /// modify meta-data"). Returns `false` if this server does not own the
    /// node.
    pub fn update_meta(&mut self, node: NodeId, key: &str, value: &str) -> bool {
        match self.owned.get_mut(&node) {
            Some(rec) => {
                rec.meta.set_attr(key, value);
                true
            }
            None => false,
        }
    }

    /// Exports data for an owned node (data never replicates). Returns
    /// `false` if this server does not own the node.
    pub fn set_data(&mut self, node: NodeId, data: impl Into<std::sync::Arc<[u8]>>) -> bool {
        if !self.owned.contains_key(&node) {
            return false;
        }
        self.data_store.insert(node, data.into());
        true
    }

    /// The data this server exports for a node, if any.
    pub fn data_of(&self, node: NodeId) -> Option<&std::sync::Arc<[u8]>> {
        self.data_store.get(&node)
    }

    /// This server's replica of a stored object, if it holds one
    /// (DESIGN.md §17).
    pub fn stored_object(&self, node: NodeId) -> Option<crate::storage::StoredObject> {
        self.store.get(&node).copied()
    }

    /// Number of object replicas currently held.
    pub fn stored_object_count(&self) -> usize {
        self.store.len()
    }

    /// Every stored-object replica this server holds (audits and the
    /// durability accounting iterate these).
    pub fn stored_objects(
        &self,
    ) -> impl Iterator<Item = (NodeId, crate::storage::StoredObject)> + '_ {
        self.store.iter().map(|(&n, &o)| (n, o))
    }

    /// Starts the second step of the two-step access: fetch `node`'s data
    /// using whatever mapping this server holds (typically populated by a
    /// preceding lookup). Completion is reported via
    /// [`ProtocolEvent::DataFetched`].
    pub fn begin_fetch(&mut self, id: u64, node: NodeId, out: &mut Vec<Outgoing>) {
        // Serve locally when we own the node and export data.
        if self.owned.contains_key(&node) {
            if let Some(d) = self.data_store.get(&node) {
                let bytes = d.len();
                out.push(Outgoing::Event(ProtocolEvent::DataFetched {
                    id,
                    node,
                    ok: true,
                    bytes,
                }));
                return;
            }
        }
        // Candidate hosts from any map we keep for the node.
        let mut candidates: Vec<ServerId> = self
            .host_record(node)
            .map(|r| r.map.entries().to_vec()) // xtask: allow(alloc): fetch candidate list, owned for retry iteration
            .or_else(|| self.neighbor_maps.get(&node).map(|m| m.entries().to_vec())) // xtask: allow(alloc): fetch candidate list, owned for retry iteration
            .or_else(|| self.cache.peek(node).map(|m| m.entries().to_vec()))
            .unwrap_or_default();
        candidates.retain(|&h| h != self.id);
        if candidates.is_empty() {
            out.push(Outgoing::Event(ProtocolEvent::DataFetched {
                id,
                node,
                ok: false,
                bytes: 0,
            }));
            return;
        }
        let Some(&first) = candidates.first() else {
            return; // emptiness handled above
        };
        self.pending_fetches.insert(
            id,
            FetchState {
                node,
                candidates,
                next: 1,
            },
        );
        out.push(Outgoing::Send {
            to: first,
            msg: Message::GetData {
                id,
                node,
                from: self.id,
            },
        });
    }

    fn on_data_reply(
        &mut self,
        id: u64,
        node: NodeId,
        data: Option<std::sync::Arc<[u8]>>,
        out: &mut Vec<Outgoing>,
    ) {
        let Some(mut st) = self.pending_fetches.remove(&id) else {
            return;
        };
        debug_assert_eq!(st.node, node, "fetch reply for the wrong node");
        if let Some(d) = data {
            out.push(Outgoing::Event(ProtocolEvent::DataFetched {
                id,
                node,
                ok: true,
                bytes: d.len(),
            }));
            return;
        }
        // Not a data host; try the next candidate.
        if let Some(&target) = st.candidates.get(st.next) {
            st.next += 1;
            self.pending_fetches.insert(id, st);
            out.push(Outgoing::Send {
                to: target,
                msg: Message::GetData {
                    id,
                    node,
                    from: self.id,
                },
            });
            return;
        }
        out.push(Outgoing::Event(ProtocolEvent::DataFetched {
            id,
            node,
            ok: false,
            bytes: 0,
        }));
    }

    /// Routing-accuracy counters `(checks, accurate)` accumulated from
    /// incoming forwarded queries.
    pub fn accuracy_counters(&self) -> (u64, u64) {
        (self.hop_checks, self.hop_accurate)
    }

    /// How many other servers this server currently has profiled load
    /// information about.
    pub fn known_load_count(&self) -> usize {
        self.known_loads.len()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
#[allow(clippy::match_wildcard_for_single_variants)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use terradir_namespace::balanced_tree;

    fn fixture(n_servers: u32) -> (Arc<Namespace>, Arc<Config>, OwnerAssignment) {
        let ns = Arc::new(balanced_tree(2, 4)); // 31 nodes
        let cfg = Arc::new(Config::paper_default(n_servers));
        let assignment = OwnerAssignment::round_robin(&ns, n_servers);
        (ns, cfg, assignment)
    }

    #[test]
    fn bootstrap_covers_owned_and_context() {
        let (ns, cfg, asg) = fixture(4);
        let s = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        assert_eq!(s.owned_count(), asg.owned_by(ServerId(0)).len());
        assert_eq!(s.replica_count(), 0);
        // Every neighbor of every owned node has a bootstrap map pointing
        // at its true owner.
        for node in s.owned_ids().collect::<Vec<_>>() {
            for nb in ns.neighbors(node) {
                let m = s.neighbor_maps.get(&nb).expect("context present");
                assert!(m.contains(asg.owner(nb)));
            }
        }
    }

    #[test]
    fn bootstrap_digest_matches_owned_set() {
        let (ns, cfg, asg) = fixture(4);
        let s = ServerState::new(ServerId(1), Arc::clone(&ns), cfg, &asg);
        for node in s.owned_ids().collect::<Vec<_>>() {
            assert!(s.digest().test(ns.name(node).as_str()));
        }
    }

    #[test]
    fn absorb_mapping_routes_to_right_structure() {
        let (ns, cfg, asg) = fixture(4);
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        let mut rng = StdRng::seed_from_u64(1);
        let owned: Vec<NodeId> = s.owned_ids().collect();
        let own = owned[0];
        // Merging into an owned record keeps self.
        s.absorb_mapping(
            own,
            &NodeMap::from_entries([ServerId(2), ServerId(3)]),
            1.5,
            &mut rng,
        );
        assert!(s.host_record(own).unwrap().map.contains(ServerId(0)));
        assert!(
            (s.host_record(own).unwrap().lease_at - 1.5).abs() < 1e-12,
            "evidence renews the lease"
        );
        // A node that is neither hosted nor a neighbor lands in the cache.
        let far = ns
            .ids()
            .find(|&n| !s.hosts(n) && !s.neighbor_maps.contains_key(&n))
            .unwrap();
        s.absorb_mapping(far, &NodeMap::singleton(ServerId(3)), 2.0, &mut rng);
        assert!(s.cache.peek(far).is_some());
        assert_eq!(s.cache.lease_of(far), Some(2.0));
    }

    #[test]
    fn remove_replica_gcs_context() {
        let (ns, cfg, asg) = fixture(4);
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        // Install a replica for a node far from everything owned.
        let far = ns
            .ids()
            .filter(|&n| !s.hosts(n) && ns.neighbors(n).iter().all(|&nb| !s.hosts(nb)))
            .find(|&n| {
                // also require no owned node adjacent to its neighbors
                ns.neighbors(n)
                    .iter()
                    .all(|&nb| ns.neighbors(nb).iter().all(|&x| !s.hosts(x) || x == n))
            });
        let Some(far) = far else { return }; // tree too small: skip
        s.replicas.insert(
            far,
            NodeRecord::new(far, NodeMap::singleton(ServerId(0)), Meta::new(), 0.0),
        );
        for nb in ns.neighbors(far) {
            s.neighbor_maps
                .entry(nb)
                .or_insert_with(|| NodeMap::singleton(asg.owner(nb)));
        }
        let mut out = Vec::new();
        s.remove_replica(far, &mut out);
        assert_eq!(s.replica_count(), 0);
        assert!(s.digest_dirty);
        assert!(matches!(
            out[0],
            Outgoing::Event(ProtocolEvent::ReplicaDeleted { .. })
        ));
    }

    #[test]
    fn hosted_neighbor_matches_fan_out_scan() {
        use rand::Rng;
        // One directory of 600 entries (T_C's wide shape), plus chains
        // hanging off the root and off a few of the wide entries.
        let mut ns = Namespace::new();
        let root = ns.root();
        let wide = ns.add_child(root, "wide").unwrap();
        let entries: Vec<NodeId> = (0..600)
            .map(|i| ns.add_child(wide, &format!("e{i}")).unwrap())
            .collect();
        for start in [root, entries[0], entries[299], entries[599]] {
            let mut at = start;
            for d in 0..6 {
                at = ns.add_child(at, &format!("c{d}")).unwrap();
            }
        }
        let ns = Arc::new(ns);
        let cfg = Arc::new(Config::paper_default(4));
        let asg = OwnerAssignment::round_robin(&ns, 4);
        let template = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        let ids: Vec<NodeId> = ns.ids().collect();
        let mut rng = StdRng::seed_from_u64(11);
        let mut adjacent = 0usize;
        for round in 0..40 {
            // Hosted sets from a handful of nodes to half the tree, split
            // between owned records and replicas.
            let density = [0.005, 0.02, 0.1, 0.5][round % 4];
            let mut s = template.clone();
            s.owned.clear();
            for &n in &ids {
                if rng.gen_bool(density) {
                    let rec = NodeRecord::new(n, NodeMap::singleton(ServerId(0)), Meta::new(), 0.0);
                    if rng.gen_bool(0.5) {
                        s.owned.insert(n, rec);
                    } else {
                        s.replicas.insert(n, rec);
                    }
                }
            }
            for &n in &ids {
                let scan = ns
                    .parent(n)
                    .iter()
                    .chain(ns.children(n))
                    .copied()
                    .filter(|&h| s.hosts(h))
                    .min();
                let got = s.hosted_neighbor(n);
                assert_eq!(got, scan, "node {n:?}, round {round}");
                let any = ns.neighbors(n).iter().any(|&h| s.hosts(h));
                assert_eq!(got.is_some(), any, "node {n:?}, round {round}");
                adjacent += usize::from(any);
            }
        }
        assert!(adjacent > 0, "some hosted sets must touch the tree");
    }

    #[test]
    fn load_probe_replies_with_effective_load() {
        let (ns, cfg, asg) = fixture(4);
        let mut s = ServerState::new(ServerId(0), ns, cfg, &asg);
        let mut rng = StdRng::seed_from_u64(2);
        let mut out = Vec::new();
        s.handle_message(
            1.0,
            Message::LoadProbe {
                from: ServerId(3),
                load: 0.9,
            },
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        match &out[0] {
            Outgoing::Send { to, msg } => {
                assert_eq!(*to, ServerId(3));
                assert!(
                    matches!(msg, Message::LoadProbeReply { from, .. } if *from == ServerId(0))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn maintenance_rebuilds_dirty_digest() {
        let (ns, cfg, asg) = fixture(4);
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        let far = ns.ids().find(|&n| !s.hosts(n)).unwrap();
        s.replicas.insert(
            far,
            NodeRecord::new(far, NodeMap::singleton(ServerId(0)), Meta::new(), 0.0),
        );
        s.digest_dirty = true;
        let gen_before = s.digest().generation();
        let mut out = Vec::new();
        s.maintenance(0.5, &mut out);
        assert!(s.digest().generation() > gen_before);
        assert!(s.digest().test(ns.name(far).as_str()));
    }

    #[test]
    fn misroute_detection_is_unconditional_and_nack_is_gated() {
        let (ns, cfg, asg) = fixture(4);
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        let far = ns.ids().find(|&n| !s.hosts(n)).unwrap();
        let mut p = QueryPacket::new(1, ServerId(1), far, 0.0);
        p.intended_via = Some(far);
        p.prev_hop = Some(ServerId(1));
        // Default config: detection fires, the correction stays NotHosting.
        let mut out = Vec::new();
        s.handle_message(1.0, Message::Query(p.clone()), &mut rng, &mut out);
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Event(ProtocolEvent::Misrouted { .. }))));
        assert!(out.iter().any(
            |o| matches!(o, Outgoing::Send { to, msg: Message::NotHosting { .. } } if *to == ServerId(1))
        ));
        assert!(!out.iter().any(|o| matches!(
            o,
            Outgoing::Send {
                msg: Message::Misroute { .. },
                ..
            }
        )));
        // Misroute repair on: the NACK upgrades and carries our digest.
        let mut cfg2 = Config::paper_default(4);
        cfg2.leases.enabled = true;
        cfg2.leases.misroute = true;
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), Arc::new(cfg2), &asg);
        let mut out = Vec::new();
        s.handle_message(1.0, Message::Query(p), &mut rng, &mut out);
        assert!(out.iter().any(|o| matches!(
            o,
            Outgoing::Send { to, msg: Message::Misroute { node, from, .. } }
                if *to == ServerId(1) && *node == far && *from == ServerId(0)
        )));
        assert!(!out.iter().any(|o| matches!(
            o,
            Outgoing::Send {
                msg: Message::NotHosting { .. },
                ..
            }
        )));
    }

    #[test]
    fn misroute_handler_evicts_stale_entry() {
        let (ns, cfg, asg) = fixture(4);
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        let far = ns
            .ids()
            .find(|&n| !s.hosts(n) && !s.neighbor_maps.contains_key(&n))
            .unwrap();
        s.cache
            .insert(far, NodeMap::from_entries([ServerId(2), ServerId(3)]), 0.0);
        let digest = s.digest().clone();
        let mut out = Vec::new();
        s.handle_message(
            1.0,
            Message::Misroute {
                node: far,
                from: ServerId(2),
                digest,
            },
            &mut rng,
            &mut out,
        );
        let m = s.cache.peek(far).unwrap();
        assert!(
            !m.contains(ServerId(2)),
            "stale per-(node, host) entry evicted"
        );
        assert!(m.contains(ServerId(3)), "other hosts survive");
    }

    #[test]
    fn misroute_digest_purges_all_disclaimed_pointers() {
        let (ns, cfg, asg) = fixture(4);
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), cfg, &asg);
        let stale = ServerId(2);
        let mut fars = ns
            .ids()
            .filter(|&n| !s.hosts(n) && !s.neighbor_maps.contains_key(&n));
        let a = fars.next().unwrap();
        let b = fars.next().unwrap();
        let kept = fars.next().unwrap();
        s.cache
            .insert(a, NodeMap::from_entries([stale, ServerId(3)]), 0.0);
        s.cache.insert(b, NodeMap::singleton(stale), 0.0);
        s.cache
            .insert(kept, NodeMap::from_entries([stale, ServerId(3)]), 0.0);
        // The NACK's digest claims only `kept`: every other local pointer
        // at the sender is authoritatively disclaimed and purged in the
        // same stroke, not just the pair that misrouted.
        let digest = build_digest(&ns, stale, [kept].iter(), 8, 0.01, 1);
        let mut out = Vec::new();
        s.handle_message(
            1.0,
            Message::Misroute {
                node: a,
                from: stale,
                digest,
            },
            &mut rng,
            &mut out,
        );
        assert!(!s.cache.peek(a).unwrap().contains(stale));
        assert!(
            s.cache.peek(b).is_none(),
            "entry whose sole host is disclaimed drops entirely"
        );
        let k = s.cache.peek(kept).unwrap();
        assert!(k.contains(stale), "digest hit is conservatively kept");
    }

    #[test]
    fn lease_sweep_evicts_expired_soft_state_but_not_owned() {
        let (ns, _, asg) = fixture(4);
        let mut cfg = Config::paper_default(4);
        cfg.leases.enabled = true;
        cfg.leases.ttl = 5.0;
        cfg.replication = false; // isolate the lease sweep from idle eviction
        let mut s = ServerState::new(ServerId(0), Arc::clone(&ns), Arc::new(cfg), &asg);
        let owned_before = s.owned_count();
        let far = ns
            .ids()
            .find(|&n| !s.hosts(n) && !s.neighbor_maps.contains_key(&n))
            .unwrap();
        s.replicas.insert(
            far,
            NodeRecord::new(far, NodeMap::singleton(ServerId(0)), Meta::new(), 0.0),
        );
        let cached = ns
            .ids()
            .find(|&n| n != far && !s.hosts(n) && !s.neighbor_maps.contains_key(&n))
            .unwrap();
        s.cache.insert(cached, NodeMap::singleton(ServerId(3)), 0.0);
        let mut out = Vec::new();
        s.maintenance(100.0, &mut out);
        assert_eq!(s.replica_count(), 0, "expired replica swept");
        assert!(s.cache.peek(cached).is_none(), "expired cache entry swept");
        assert_eq!(s.owned_count(), owned_before, "owned records are exempt");
        // Context maps required by owned nodes survive (restamped, not
        // evicted) — routing totality outranks freshness.
        for node in s.owned_ids().collect::<Vec<_>>() {
            assert!(s.has_context(node));
        }
        let total: u64 = out
            .iter()
            .filter_map(|o| match o {
                Outgoing::Event(ProtocolEvent::LeaseExpired { count, .. }) => Some(*count),
                _ => None,
            })
            .sum();
        assert_eq!(total, 2, "one replica + one cache entry accounted");
    }
}
