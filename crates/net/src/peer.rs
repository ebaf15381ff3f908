//! The per-peer event loop.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use terradir::messages::QueryKind;
use terradir::{Message, NodeId, Outgoing, ProtocolEvent, QueryPacket, ServerId, ServerState};

use crate::transport::Transport;

/// Commands a peer accepts on its inbox.
#[derive(Debug)]
pub enum PeerCommand {
    /// A protocol message from the network.
    Deliver(Message),
    /// Inject a locally originated lookup for `target` with the given id.
    Inject {
        /// Query id (assigned by the runtime).
        id: u64,
        /// Lookup target.
        target: NodeId,
    },
    /// Inject a List query (§2.1 hierarchical decomposition): the result
    /// carries the target's children with maps.
    InjectList {
        /// Query id (assigned by the runtime).
        id: u64,
        /// The node whose children are wanted.
        target: NodeId,
    },
    /// Add a hysteresis-style load bias (operational/testing hook: lets an
    /// operator or a test drive the replication trigger without saturating
    /// a real CPU).
    AddLoadBias(f64),
    /// Owner-side meta-data update (ignored if this peer is not the owner).
    UpdateMeta {
        /// The owned node.
        node: NodeId,
        /// Attribute key.
        key: String,
        /// Attribute value.
        value: String,
    },
    /// Export data for an owned node (ignored if not the owner).
    SetData {
        /// The owned node.
        node: NodeId,
        /// The data blob.
        data: std::sync::Arc<[u8]>,
    },
    /// Start a data fetch (two-step access); completion arrives as a
    /// `DataFetched` protocol event.
    FetchData {
        /// Fetch id (assigned by the runtime).
        id: u64,
        /// The node whose data is wanted.
        node: NodeId,
    },
    /// Reply with a snapshot of `(owned, replicas, cache_len)` counts.
    Snapshot(Sender<PeerSnapshot>),
    /// Terminate the peer loop.
    Shutdown,
}

/// A point-in-time summary of a peer's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSnapshot {
    /// The peer.
    pub id: ServerId,
    /// Owned node count.
    pub owned: usize,
    /// Hosted replica count.
    pub replicas: usize,
    /// Cached route pointers.
    pub cached: usize,
}

/// Wiring handed to a spawned peer.
pub(crate) struct PeerHarness {
    pub state: ServerState,
    pub inbox: Receiver<PeerCommand>,
    pub transport: Transport,
    pub events: Sender<(ServerId, ProtocolEvent)>,
    pub network_delay: Duration,
    pub maintenance_every: Duration,
    pub epoch: Instant,
    pub rng_seed: u64,
}

/// Runs a peer until [`PeerCommand::Shutdown`] or channel closure.
pub(crate) fn run_peer(h: PeerHarness) {
    let PeerHarness {
        mut state,
        inbox,
        transport,
        events,
        network_delay,
        maintenance_every,
        epoch,
        rng_seed,
    } = h;
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut out: Vec<Outgoing> = Vec::new();
    let mut next_maintenance = Instant::now() + maintenance_every;
    loop {
        let timeout = next_maintenance.saturating_duration_since(Instant::now());
        let cmd = match inbox.recv_timeout(timeout) {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let now = epoch.elapsed().as_secs_f64();
        match cmd {
            Some(PeerCommand::Deliver(msg)) => {
                let was_query = matches!(msg, Message::Query(_));
                state.handle_message(now, msg, &mut rng, &mut out);
                if was_query {
                    state.maybe_start_session(now, &mut rng, &mut out);
                }
            }
            Some(PeerCommand::Inject { id, target }) => {
                let packet = QueryPacket::new(id, state.id(), target, now);
                state.handle_message(now, Message::Query(packet), &mut rng, &mut out);
                state.maybe_start_session(now, &mut rng, &mut out);
            }
            Some(PeerCommand::InjectList { id, target }) => {
                let mut packet = QueryPacket::new(id, state.id(), target, now);
                packet.kind = QueryKind::List;
                state.handle_message(now, Message::Query(packet), &mut rng, &mut out);
                state.maybe_start_session(now, &mut rng, &mut out);
            }
            Some(PeerCommand::AddLoadBias(delta)) => {
                // Route through the public hysteresis hook.
                state.add_load_bias(now, delta);
            }
            Some(PeerCommand::UpdateMeta { node, key, value }) => {
                state.update_meta(node, &key, &value);
            }
            Some(PeerCommand::SetData { node, data }) => {
                state.set_data(node, data);
            }
            Some(PeerCommand::FetchData { id, node }) => {
                state.begin_fetch(id, node, &mut out);
            }
            Some(PeerCommand::Snapshot(reply)) => {
                let _ = reply.send(PeerSnapshot {
                    id: state.id(),
                    owned: state.owned_count(),
                    replicas: state.replica_count(),
                    cached: state.cache().len(),
                });
            }
            Some(PeerCommand::Shutdown) => return,
            None => {
                state.maintenance(now, &mut out);
                next_maintenance = Instant::now() + maintenance_every;
            }
        }
        for o in out.drain(..) {
            match o {
                Outgoing::Send { to, msg } => {
                    let delay = if to == state.id() {
                        Duration::ZERO
                    } else {
                        network_delay
                    };
                    // A send failure means the fleet is shutting down.
                    if transport.send(to, msg, delay).is_err() {
                        return;
                    }
                }
                Outgoing::Event(e) => {
                    if events.send((state.id(), e)).is_err() {
                        return;
                    }
                }
            }
        }
    }
}
