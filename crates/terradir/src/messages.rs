//! Protocol messages.
//!
//! TerraDir disseminates soft state exclusively *in-band*: "the disruption
//! caused by an individual query can be addressed by piggybacking on query
//! messages limited amounts of information about replica configurations and
//! server loads and digests" (paper §6). [`QueryPacket`] therefore carries,
//! besides the lookup itself, the propagated path (node maps seen so far),
//! the sender's current load, and the sender's digest. The only
//! out-of-band traffic is the replication control handshake
//! (probe → reply → request → ack/deny).

use std::sync::Arc;

use terradir_bloom::Digest;
use terradir_namespace::{NodeId, ServerId};

use crate::map::NodeMap;
use crate::meta::Meta;

/// What a query asks of the node it resolves at.
///
/// "Complex search queries are decomposed hierarchically into individual
/// lookup queries" (§2.1): a [`QueryKind::List`] resolution returns the
/// node's children with maps, letting a client walk a subtree by repeated
/// lookups with no global knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryKind {
    /// Resolve the node itself (name + meta + map).
    #[default]
    Lookup,
    /// Additionally return the node's children and their maps.
    List,
}

/// A lookup query in flight.
#[derive(Debug, Clone)]
pub struct QueryPacket {
    /// Unique query id (assigned by the injector).
    pub id: u64,
    /// What the query asks for at resolution.
    pub kind: QueryKind,
    /// Server where the query was initiated (receives the result).
    pub origin: ServerId,
    /// The node being looked up.
    pub target: NodeId,
    /// Simulation time the query entered the system.
    pub issued_at: f64,
    /// Forwarding steps taken so far (network hops).
    pub hops: u32,
    /// Path propagation: `(node, map)` pairs accumulated along the route,
    /// merged into every visited server's cache and cached wholesale at the
    /// origin on completion. Bounded by [`crate::config::PATH_CAP`].
    pub path: Vec<(NodeId, NodeMap)>,
    /// The forwarding server's effective load (piggybacked profiling input
    /// for partner selection); the forwarder is [`QueryPacket::prev_hop`].
    pub sender_load: Option<f64>,
    /// The forwarding server's inverse-mapping digest, filed under
    /// [`QueryPacket::prev_hop`].
    pub sender_digest: Option<Digest>,
    /// The node the previous hop routed *via* (whose map named the
    /// receiver as a host). The receiver checks it against its actual
    /// hosted set to measure routing accuracy (§4.4's oracle comparison)
    /// and back-propagates fresh replica maps for it (§3.7).
    pub intended_via: Option<NodeId>,
    /// The server that forwarded this packet last (back-propagation
    /// target).
    pub prev_hop: Option<ServerId>,
    /// The last few servers this packet visited, oldest first (loop
    /// damping: selection prefers hosts not in this ring), inline: the
    /// first `recent_len` slots are live. Read through
    /// [`QueryPacket::recent`].
    recent: [ServerId; RECENT_HOPS],
    recent_len: u8,
    /// Whether any hop of this attempt landed on a server that did not
    /// host the node it was routed via (pure observation, set regardless
    /// of configuration; feeds the reconvergence curve, DESIGN.md §14).
    pub misrouted: bool,
    /// Forwarding steps taken *after* the first misroute (the detour the
    /// stale pointer cost this attempt; bounded by the hop TTL).
    pub detour_hops: u32,
}

/// How many recently visited servers a packet remembers for loop damping.
pub const RECENT_HOPS: usize = 4;

impl QueryPacket {
    /// A fresh query issued at `origin` for `target` at time `now`.
    pub fn new(id: u64, origin: ServerId, target: NodeId, now: f64) -> QueryPacket {
        QueryPacket {
            id,
            kind: QueryKind::Lookup,
            origin,
            target,
            issued_at: now,
            hops: 0,
            path: Vec::new(),
            sender_load: None,
            sender_digest: None,
            intended_via: None,
            prev_hop: None,
            recent: [ServerId(0); RECENT_HOPS],
            recent_len: 0,
            misrouted: false,
            detour_hops: 0,
        }
    }

    /// Records a visited server in the bounded recent-hop ring, dropping
    /// the oldest when it is full.
    pub fn push_recent(&mut self, server: ServerId) {
        let len = usize::from(self.recent_len);
        if len < RECENT_HOPS {
            if let Some(slot) = self.recent.get_mut(len) {
                *slot = server;
                self.recent_len += 1;
            }
        } else {
            self.recent.rotate_left(1);
            if let Some(last) = self.recent.last_mut() {
                *last = server;
            }
        }
    }

    /// The last few servers this packet visited, oldest first (at most
    /// [`RECENT_HOPS`]).
    pub fn recent(&self) -> &[ServerId] {
        self.recent
            .get(..usize::from(self.recent_len))
            .unwrap_or_default()
    }

    /// Appends a path entry, keeping the path within `cap` entries. When
    /// full, the *middle* entry is dropped: the paper observes that "this
    /// mixture of close and far nodes performs significantly better than
    /// caching the query endpoints", so we preserve both ends of the path.
    pub fn push_path(&mut self, node: NodeId, map: NodeMap, cap: usize) {
        if let Some((n, m)) = self.path.iter_mut().find(|(n, _)| *n == node) {
            let _ = n;
            *m = map;
            return;
        }
        if self.path.len() >= cap.max(2) {
            let mid = self.path.len() / 2;
            self.path.remove(mid);
        }
        self.path.push((node, map));
    }
}

/// One node's routing state shipped in a replicate request.
#[derive(Debug, Clone)]
pub struct ReplicaPayload {
    /// The node being replicated.
    pub node: NodeId,
    /// The sender's map for the node (sender included).
    pub map: NodeMap,
    /// Meta-data snapshot at the sender.
    pub meta: Meta,
    /// The node's routing context: a map for each topological neighbor.
    pub neighbors: Vec<(NodeId, NodeMap)>,
    /// Demand-weight hint so the replica ranks realistically at the target.
    pub weight: f64,
}

/// All TerraDir protocol messages.
#[derive(Debug, Clone)]
pub enum Message {
    /// A lookup being routed.
    Query(QueryPacket),
    /// A resolved lookup returning to its origin. Carries the full
    /// propagated path (including the resolved target's map) for caching.
    QueryResult {
        /// The resolved query.
        packet: QueryPacket,
        /// Host that resolved it.
        resolved_by: ServerId,
        /// Meta-data returned by the resolving host — the lookup result
        /// is "the node's name, its meta-data, and mapping information"
        /// (§2.1).
        meta: Meta,
        /// For [`QueryKind::List`] queries: the resolved node's children
        /// with the maps the resolving host keeps for them (its routing
        /// context guarantees one per child). Empty for plain lookups.
        children: Vec<(NodeId, NodeMap)>,
    },
    /// Replication step 2: the overloaded server asks a candidate partner
    /// for its actual load.
    LoadProbe {
        /// The probing (overloaded) server.
        from: ServerId,
        /// Its effective load, so the partner learns it too.
        load: f64,
    },
    /// Reply to [`Message::LoadProbe`] with the partner's actual load.
    LoadProbeReply {
        /// The probed server.
        from: ServerId,
        /// Its effective load.
        load: f64,
    },
    /// Replication step 3: ship the top-ranked node records.
    ReplicateRequest {
        /// The shedding server.
        from: ServerId,
        /// Its effective load at send time (re-checked for admission).
        sender_load: f64,
        /// The node records to install.
        replicas: Vec<ReplicaPayload>,
    },
    /// The partner installed (some of) the replicas.
    ReplicateAck {
        /// The accepting server.
        from: ServerId,
        /// Nodes actually installed (the sender advertises these).
        installed: Vec<NodeId>,
        /// Load gap the partner applied as hysteresis (sender applies the
        /// mirror image).
        shift: f64,
    },
    /// Back-propagation (§3.7): a host that recently advertised new
    /// replicas for `node` pushes its fresh map one hop upstream, so the
    /// servers that route *toward* the node learn to split traffic over
    /// the replicas.
    MapUpdate {
        /// The node whose map is being refreshed.
        node: NodeId,
        /// The sender's current map for the node.
        map: NodeMap,
    },
    /// Step two of the two-step access (§2.1): ask a host for the node's
    /// *data*. Only the owner exports data (routing-state replication
    /// never copies it), so a replica answers with `None` and the client
    /// tries the next mapped host.
    GetData {
        /// Client-chosen fetch id (echoed in the reply).
        id: u64,
        /// The node whose data is wanted.
        node: NodeId,
        /// The requesting server.
        from: ServerId,
    },
    /// Reply to [`Message::GetData`].
    DataReply {
        /// The fetch id.
        id: u64,
        /// The node.
        node: NodeId,
        /// The replying server.
        from: ServerId,
        /// The data, if this host exports it.
        data: Option<Arc<[u8]>>,
    },
    /// Stale-entry correction (§3.5: "removing stale entries from maps
    /// when they are routed through servers"): the sender routed a query
    /// to us via `node`, but we do not host it — tell the sender to drop
    /// us from that map.
    NotHosting {
        /// The node the correction is about.
        node: NodeId,
        /// The server that does not host it.
        from: ServerId,
    },
    /// Misroute self-healing NACK (DESIGN.md §14): like
    /// [`Message::NotHosting`], but always originated by the live server
    /// that received the stale hop, and carrying that server's
    /// inverse-mapping digest so the sender can prune *every* stale entry
    /// naming it — not just the one that caused this hop. Sent instead of
    /// `NotHosting` when `Config::misroute_active()`.
    Misroute {
        /// The node the stale hop was routed via.
        node: NodeId,
        /// The live server that does not host it.
        from: ServerId,
        /// The replier's current inverse-mapping digest.
        digest: Digest,
    },
    /// The partner refused (its load rose, or the gap closed).
    ReplicateDeny {
        /// The refusing server.
        from: ServerId,
        /// Its current effective load (updates the sender's table).
        load: f64,
    },
    /// Transport-failure feedback synthesized by the substrate: a send to
    /// `host` failed outright (connection refused/reset in a real
    /// deployment). The receiver negatively caches the host, evicting it
    /// from its maps, cache, and digest store (DESIGN.md §12).
    HostDown {
        /// The unreachable server.
        host: ServerId,
    },
    /// Storage write propagation (DESIGN.md §17): install `obj` for
    /// `node` unless a fresher copy is already held (last-writer-wins
    /// merge). Sent by the write driver to every replica-set member.
    PutObject {
        /// The namespace node the object is keyed by.
        node: NodeId,
        /// The versioned payload being written.
        obj: crate::storage::StoredObject,
    },
    /// Storage read probe (DESIGN.md §17): ask a replica-set member for
    /// its current copy of `node`'s object.
    GetObject {
        /// Read-session id (echoed in the reply).
        id: u64,
        /// The node whose object is wanted.
        node: NodeId,
        /// The server coordinating the read (reply target).
        reply_to: ServerId,
    },
    /// Reply to [`Message::GetObject`]: the replica's copy, or `None`
    /// when it holds nothing for the node (crashed since the write, or
    /// the write never reached it).
    ObjectReply {
        /// The read-session id.
        id: u64,
        /// The node.
        node: NodeId,
        /// The replying replica's copy, if any.
        obj: Option<crate::storage::StoredObject>,
        /// The replying server.
        from: ServerId,
    },
    /// Anti-entropy round opener (DESIGN.md §18; taciturn culture):
    /// the gossiping server ships its gossip digest over
    /// hosted names and stored-object versions to a namespace-neighbor
    /// peer. The receiver purges soft-state entries the digest disclaims
    /// (`purge_disclaimed`) and pulls back — via [`Message::GossipReply`]
    /// — object versions the digest shows missing or older.
    GossipDigest {
        /// The gossiping server.
        from: ServerId,
        /// Its current gossip digest (hosted names + object keys).
        digest: terradir_bloom::Digest,
        /// Modeled wire bytes of the digest, priced by the sender from
        /// the generation it last shipped to this peer: a delta when its
        /// window still covers that generation, the full snapshot
        /// otherwise (`GossipState::wire_bytes`).
        wire: u64,
    },
    /// Eager anti-entropy push (chatty culture): fresh
    /// singleton advertisements for records the sender hosts, plus
    /// stored-object copies pre-filtered by the substrate to the
    /// receiver's replica sets. Records merge like [`Message::MapUpdate`],
    /// objects like [`Message::PutObject`].
    GossipPush {
        /// The gossiping server.
        from: ServerId,
        /// Fresh `(node, map)` advertisements for hosted records.
        records: Vec<(NodeId, NodeMap)>,
        /// Object copies the receiver is a replica-set member for.
        objects: Vec<(NodeId, crate::storage::StoredObject)>,
    },
    /// Anti-entropy pull reply (DESIGN.md §18): the object versions a
    /// [`Message::GossipDigest`] solicitor was missing (or held older),
    /// merged last-writer-wins exactly like [`Message::PutObject`].
    GossipReply {
        /// The replying peer.
        from: ServerId,
        /// Copies the solicitor's digest disclaimed.
        objects: Vec<(NodeId, crate::storage::StoredObject)>,
    },
}

/// Modeled bytes of a message envelope: type tag, addressing, and ids
/// (DESIGN.md §18's wire-size model).
const HEADER_BYTES: u64 = 16;
/// Modeled fixed bytes of a query packet beyond the envelope: id, kind,
/// origin, target, issue time, hop/detour counters, flags, piggybacked
/// load, and the via/prev-hop fields.
const PACKET_FIXED_BYTES: u64 = 48;
/// Modeled bytes of one stored object: version, writer, payload.
const OBJECT_BYTES: u64 = 16;
/// Modeled bytes of a node id (or server id) on the wire.
const ID_BYTES: u64 = 4;
/// Modeled bytes of a node map: a length prefix plus one id per entry.
fn map_bytes(map: &NodeMap) -> u64 {
    ID_BYTES + ID_BYTES * map.len() as u64
}

/// Modeled bytes of a `(node, map)` pair.
fn node_map_bytes(pair: &(NodeId, NodeMap)) -> u64 {
    ID_BYTES + map_bytes(&pair.1)
}

/// Modeled bytes of a meta snapshot: version plus each attribute's
/// key/value bytes with length prefixes.
fn meta_bytes(meta: &Meta) -> u64 {
    8 + meta
        .iter()
        .map(|(k, v)| 4 + k.len() as u64 + v.len() as u64)
        .sum::<u64>()
}

/// Modeled bytes of a query packet: the fixed fields plus the propagated
/// path, the piggybacked digest, and the recent-hop ring. The digest
/// counts its owner's id too: a receiver files it under that id, which
/// the packet carries as `prev_hop`.
fn packet_bytes(p: &QueryPacket) -> u64 {
    PACKET_FIXED_BYTES
        + p.path.iter().map(node_map_bytes).sum::<u64>()
        + p.sender_digest
            .as_ref()
            .map_or(0, |d| ID_BYTES + d.byte_size() as u64)
        + ID_BYTES * p.recent().len() as u64
}

/// Modeled bytes of one replica payload: node, map, meta, routing
/// context, and the demand-weight hint.
fn replica_payload_bytes(r: &ReplicaPayload) -> u64 {
    ID_BYTES
        + map_bytes(&r.map)
        + meta_bytes(&r.meta)
        + r.neighbors.iter().map(node_map_bytes).sum::<u64>()
        + 8
}

impl Message {
    /// Whether this is a query-path message (subject to the bounded request
    /// queue) as opposed to a lightweight control message.
    pub fn is_query_traffic(&self) -> bool {
        matches!(self, Message::Query(_) | Message::QueryResult { .. })
    }

    /// Whether this is replication control traffic (counted against the
    /// paper's "load balancing messages" budget).
    pub fn is_control(&self) -> bool {
        !self.is_query_traffic()
    }

    /// Deterministic modeled wire size of this message in bytes
    /// (DESIGN.md §18). The model charges a fixed envelope per message
    /// plus the variant's payload: 4 bytes per id/map entry, 16 per
    /// stored object, actual string bytes for meta attributes, and the
    /// Bloom filter's real backing size for digests. A gossip digest
    /// carries the price its sender computed: delta cost when the
    /// receiver's last-seen generation is still inside the sender's
    /// window, the full snapshot otherwise.
    pub fn wire_bytes(&self) -> u64 {
        let payload = match self {
            Message::Query(p) => packet_bytes(p),
            Message::QueryResult {
                packet,
                meta,
                children,
                ..
            } => {
                packet_bytes(packet)
                    + ID_BYTES
                    + meta_bytes(meta)
                    + children.iter().map(node_map_bytes).sum::<u64>()
            }
            Message::LoadProbe { .. }
            | Message::LoadProbeReply { .. }
            | Message::ReplicateDeny { .. } => ID_BYTES + 8,
            Message::ReplicateRequest { replicas, .. } => {
                ID_BYTES + 8 + replicas.iter().map(replica_payload_bytes).sum::<u64>()
            }
            Message::ReplicateAck { installed, .. } => {
                ID_BYTES + 8 + ID_BYTES * installed.len() as u64
            }
            Message::MapUpdate { map, .. } => ID_BYTES + map_bytes(map),
            Message::GetData { .. } => ID_BYTES + ID_BYTES + 8,
            Message::DataReply { data, .. } => {
                ID_BYTES + ID_BYTES + 8 + data.as_ref().map_or(0, |d| d.len() as u64)
            }
            Message::NotHosting { .. } | Message::HostDown { .. } => ID_BYTES + ID_BYTES,
            Message::Misroute { digest, .. } => ID_BYTES + ID_BYTES + digest.byte_size() as u64,
            Message::PutObject { .. } => ID_BYTES + OBJECT_BYTES,
            Message::GetObject { .. } => 8 + ID_BYTES + ID_BYTES,
            Message::ObjectReply { obj, .. } => {
                8 + ID_BYTES + ID_BYTES + obj.map_or(0, |_| OBJECT_BYTES)
            }
            Message::GossipDigest { wire, .. } => ID_BYTES + wire,
            Message::GossipPush {
                records, objects, ..
            } => {
                ID_BYTES
                    + records.iter().map(node_map_bytes).sum::<u64>()
                    + (ID_BYTES + OBJECT_BYTES) * objects.len() as u64
            }
            Message::GossipReply { objects, .. } => {
                ID_BYTES + (ID_BYTES + OBJECT_BYTES) * objects.len() as u64
            }
        };
        HEADER_BYTES + payload
    }

    /// The server that sent this message, where the message itself proves
    /// it. `None` for variants without a trustworthy sender field:
    /// `MapUpdate` carries none, and `NotHosting`/`HostDown` may be
    /// synthesized by the substrate *about* a server that did not send
    /// anything (using them as proof-of-life would resurrect dead hosts
    /// in the negative cache). `Misroute` is never synthesized — only the
    /// live server itself replies with its digest — so it *is*
    /// proof-of-life.
    pub fn sender(&self) -> Option<ServerId> {
        match self {
            Message::Query(p) => p.prev_hop,
            Message::QueryResult { resolved_by, .. } => Some(*resolved_by),
            Message::LoadProbe { from, .. }
            | Message::LoadProbeReply { from, .. }
            | Message::ReplicateRequest { from, .. }
            | Message::ReplicateAck { from, .. }
            | Message::ReplicateDeny { from, .. }
            | Message::GetData { from, .. }
            | Message::DataReply { from, .. }
            | Message::ObjectReply { from, .. }
            | Message::Misroute { from, .. }
            // Gossip traffic is only ever generated for (or by) a live
            // server at round time, and a digest/push is its sender's own
            // fresh state — proof-of-life like `Misroute`.
            | Message::GossipDigest { from, .. }
            | Message::GossipPush { from, .. }
            | Message::GossipReply { from, .. } => Some(*from),
            // Storage writes and read probes are scheduled by the
            // substrate on the origin's behalf (like `MapUpdate`), so
            // they carry no proof-of-life sender field.
            Message::MapUpdate { .. }
            | Message::NotHosting { .. }
            | Message::HostDown { .. }
            | Message::PutObject { .. }
            | Message::GetObject { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> QueryPacket {
        QueryPacket::new(1, ServerId(0), NodeId(5), 0.0)
    }

    #[test]
    fn new_packet_is_clean() {
        let p = pkt();
        assert_eq!(p.hops, 0);
        assert!(p.path.is_empty());
        assert!(p.sender_load.is_none());
    }

    #[test]
    fn push_path_updates_existing_entry() {
        let mut p = pkt();
        p.push_path(NodeId(1), NodeMap::singleton(ServerId(1)), 4);
        p.push_path(NodeId(1), NodeMap::singleton(ServerId(2)), 4);
        assert_eq!(p.path.len(), 1);
        assert_eq!(p.path[0].1.entries(), &[ServerId(2)]);
    }

    #[test]
    fn push_path_drops_middle_when_full() {
        let mut p = pkt();
        for i in 0..6 {
            p.push_path(NodeId(i), NodeMap::singleton(ServerId(i)), 4);
        }
        assert_eq!(p.path.len(), 4);
        // The first entry (far end) survives.
        assert_eq!(p.path[0].0, NodeId(0));
        // The latest entry (near end) survives.
        assert_eq!(p.path.last().unwrap().0, NodeId(5));
    }

    #[test]
    fn traffic_classification() {
        assert!(Message::Query(pkt()).is_query_traffic());
        assert!(!Message::Query(pkt()).is_control());
        let probe = Message::LoadProbe {
            from: ServerId(0),
            load: 0.9,
        };
        assert!(probe.is_control());
        let res = Message::QueryResult {
            packet: pkt(),
            resolved_by: ServerId(1),
            meta: crate::meta::Meta::new(),
            children: Vec::new(),
        };
        assert!(res.is_query_traffic());
        assert!(Message::HostDown { host: ServerId(2) }.is_control());
        // Storage messages are control traffic: they bypass the bounded
        // request queue and are eligible for loss-under-failure
        // semantics without inflating query accounting.
        let obj = crate::storage::StoredObject {
            version: 1,
            writer: ServerId(0),
            payload: 7,
        };
        assert!(Message::PutObject {
            node: NodeId(1),
            obj
        }
        .is_control());
        assert!(Message::GetObject {
            id: 9,
            node: NodeId(1),
            reply_to: ServerId(0)
        }
        .is_control());
        assert!(Message::ObjectReply {
            id: 9,
            node: NodeId(1),
            obj: Some(obj),
            from: ServerId(2)
        }
        .is_control());
    }

    #[test]
    fn sender_extraction() {
        let mut p = pkt();
        assert_eq!(Message::Query(p.clone()).sender(), None);
        p.prev_hop = Some(ServerId(3));
        assert_eq!(Message::Query(p.clone()).sender(), Some(ServerId(3)));
        let res = Message::QueryResult {
            packet: p,
            resolved_by: ServerId(1),
            meta: crate::meta::Meta::new(),
            children: Vec::new(),
        };
        assert_eq!(res.sender(), Some(ServerId(1)));
        let probe = Message::LoadProbe {
            from: ServerId(4),
            load: 0.1,
        };
        assert_eq!(probe.sender(), Some(ServerId(4)));
        // Substrate-synthesized corrections are not proof-of-life.
        let nh = Message::NotHosting {
            node: NodeId(1),
            from: ServerId(5),
        };
        assert_eq!(nh.sender(), None);
        assert_eq!(Message::HostDown { host: ServerId(6) }.sender(), None);
        // Misroute is always server-originated, so it IS proof-of-life.
        let mr = Message::Misroute {
            node: NodeId(1),
            from: ServerId(5),
            digest: Digest::empty(terradir_bloom::BloomParams::for_capacity(8, 0.01, 0)),
        };
        assert_eq!(mr.sender(), Some(ServerId(5)));
        assert!(mr.is_control());
        // Storage writes and read probes are substrate-scheduled, so
        // neither is proof-of-life; only the replica's reply is.
        let obj = crate::storage::StoredObject {
            version: 2,
            writer: ServerId(1),
            payload: 3,
        };
        assert_eq!(
            Message::PutObject {
                node: NodeId(1),
                obj
            }
            .sender(),
            None
        );
        assert_eq!(
            Message::GetObject {
                id: 1,
                node: NodeId(1),
                reply_to: ServerId(0)
            }
            .sender(),
            None
        );
        assert_eq!(
            Message::ObjectReply {
                id: 1,
                node: NodeId(1),
                obj: None,
                from: ServerId(7)
            }
            .sender(),
            Some(ServerId(7))
        );
    }

    #[test]
    fn new_packet_has_no_detour() {
        let p = pkt();
        assert!(!p.misrouted);
        assert_eq!(p.detour_hops, 0);
    }

    fn gossip_digest() -> terradir_bloom::Digest {
        let params = terradir_bloom::BloomParams::for_capacity(8, 0.01, 0);
        let mut b = terradir_bloom::DigestBuilder::new(params);
        b.add("/a");
        b.seal(1)
    }

    #[test]
    fn gossip_messages_are_control_and_proof_of_life() {
        let obj = crate::storage::StoredObject {
            version: 1,
            writer: ServerId(0),
            payload: 7,
        };
        let dig = Message::GossipDigest {
            from: ServerId(3),
            digest: gossip_digest(),
            wire: 0,
        };
        assert!(dig.is_control());
        assert_eq!(dig.sender(), Some(ServerId(3)));
        let push = Message::GossipPush {
            from: ServerId(4),
            records: vec![(NodeId(1), NodeMap::singleton(ServerId(4)))],
            objects: vec![(NodeId(1), obj)],
        };
        assert!(push.is_control());
        assert_eq!(push.sender(), Some(ServerId(4)));
        let reply = Message::GossipReply {
            from: ServerId(5),
            objects: vec![(NodeId(1), obj)],
        };
        assert!(reply.is_control());
        assert_eq!(reply.sender(), Some(ServerId(5)));
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        let obj = crate::storage::StoredObject {
            version: 1,
            writer: ServerId(0),
            payload: 7,
        };
        // Every message costs at least the envelope.
        assert!(Message::HostDown { host: ServerId(1) }.wire_bytes() >= 16);
        // More path entries cost more bytes.
        let mut p = pkt();
        let small = Message::Query(p.clone()).wire_bytes();
        p.push_path(NodeId(1), NodeMap::singleton(ServerId(1)), 8);
        p.push_path(NodeId(2), NodeMap::singleton(ServerId(2)), 8);
        assert!(Message::Query(p).wire_bytes() > small);
        // More objects cost more bytes.
        let one = Message::GossipReply {
            from: ServerId(0),
            objects: vec![(NodeId(1), obj)],
        }
        .wire_bytes();
        let two = Message::GossipReply {
            from: ServerId(0),
            objects: vec![(NodeId(1), obj), (NodeId(2), obj)],
        }
        .wire_bytes();
        assert_eq!(two - one, 20, "each object entry is id + object bytes");
        // An empty object reply is cheaper than a full one.
        let empty = Message::ObjectReply {
            id: 1,
            node: NodeId(1),
            obj: None,
            from: ServerId(0),
        };
        let full = Message::ObjectReply {
            id: 1,
            node: NodeId(1),
            obj: Some(obj),
            from: ServerId(0),
        };
        assert!(full.wire_bytes() > empty.wire_bytes());
    }

    #[test]
    fn gossip_digest_is_charged_its_sender_price() {
        // The sender prices the digest (delta or full snapshot); the
        // message adds the sender id and the envelope, nothing else.
        for wire in [0, 24, 4096] {
            let msg = Message::GossipDigest {
                from: ServerId(0),
                digest: gossip_digest(),
                wire,
            };
            assert_eq!(msg.wire_bytes(), HEADER_BYTES + ID_BYTES + wire);
        }
    }
}
