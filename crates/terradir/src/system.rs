//! The simulated TerraDir deployment (the paper's evaluation substrate).
//!
//! Methodology (§4.1): N servers, each a single-service-center queueing
//! station with a bounded FIFO request queue (overflow drops), exponential
//! service times, constant application-layer network time per hop, Poisson
//! query arrivals with uniformly random sources, and destination streams
//! from `terradir-workload`. Network contention is not modeled.

use std::collections::VecDeque;
use std::sync::Arc;

use terradir_namespace::{Namespace, NodeId, OwnerAssignment, ServerId};
use terradir_sim::Engine;
use terradir_workload::seed::tags;
use terradir_workload::{
    ledger_add, tagged_rng, ExpService, PoissonArrivals, QueryStream, StreamPlan, TaggedRng,
};

use crate::config::{self, ChaosAction, Config, GossipCulture};
use crate::context::{StatefulContext, StatelessContext};
use crate::map::NodeMap;
use crate::messages::{Message, QueryPacket};
use crate::server::{Outgoing, ProtocolEvent, ServerState};
use crate::stats::{DropKind, RunStats};

/// DES event alphabet.
#[derive(Debug)]
enum Event {
    /// Inject the next query from the workload stream.
    Inject,
    /// A message arrives at a server after its network delay. `from` is
    /// the sending server for protocol sends (the substrate uses it to
    /// synthesize `HostDown` feedback on delivery to a dead target);
    /// `None` for injections and substrate-synthesized messages.
    Deliver {
        to: ServerId,
        from: Option<ServerId>,
        msg: Message,
    },
    /// A server finishes servicing its current message. Stale-filtered by
    /// `epoch`: a failure bumps the server's epoch, so completions
    /// scheduled before the crash are ignored.
    ServiceDone { server: ServerId, epoch: u64 },
    /// Periodic per-server maintenance (every load window).
    Maintain,
    /// Per-second utilization sampling.
    Sample,
    /// Source-side retry timer for an outstanding query (DESIGN.md §12).
    /// Stale-filtered by `attempt`.
    QueryTimeout { id: u64, attempt: u32 },
    /// Churn process: this server's next failure.
    ChurnFail { server: ServerId },
    /// Churn process: this server's recovery.
    ChurnRecover { server: ServerId },
    /// Scenario script: apply `cfg.scenario.events[idx]` (DESIGN.md §13).
    Chaos { idx: usize },
    /// Scheduled partition window `cfg.partitions.cuts[cut]` activates.
    CutStart { cut: usize },
    /// A scheduled partition window expires. Heals whatever cut is active
    /// (cuts do not stack: the latest install wins, any stop clears).
    CutStop,
    /// Flash crowd: inject the next extra query. Stale-filtered by
    /// `epoch`: changing or stopping the flash crowd bumps the epoch.
    FlashInject { epoch: u64 },
    /// Storage write driver: commit the next versioned write and push it
    /// to the object's replica set (DESIGN.md §17).
    StorePut,
    /// Storage read driver: issue the next replicated read (quorum or
    /// any-replica per `storage.quorum_reads`).
    StoreGet,
    /// Read-timeout for an outstanding replicated read: finalize with
    /// whatever replies arrived. A no-op if the quorum already closed it.
    StoreReadDone { id: u64 },
    /// Periodic anti-entropy round (DESIGN.md §18): every live server
    /// contacts `gossip.fanout` namespace-neighbor owners and exchanges
    /// state per the configured gossip culture. Never armed while gossip
    /// is disabled.
    GossipRound,
}

/// Source-side record of one outstanding query under the retry layer.
#[derive(Debug)]
struct Pending {
    origin: ServerId,
    target: NodeId,
    issued_at: f64,
    attempt: u32,
}

/// Substrate-side record of one outstanding replicated read
/// (DESIGN.md §17). The read finalizes at the earlier of `expect`
/// replies or the read timeout, with the freshest copy seen so far.
#[derive(Debug)]
struct ReadState {
    /// Replies needed before the read closes early (quorum size, or 1
    /// for any-replica reads).
    expect: u32,
    /// Replies received so far (empty-handed replies count: a replica
    /// answering "I have nothing" is an answer).
    got: u32,
    /// Freshest copy seen so far under the LWW order.
    best: Option<crate::storage::StoredObject>,
    /// The object's committed version when the read was issued — the
    /// yardstick a returned copy is judged stale against.
    issued_version: u64,
}

/// An exponential holding-time draw with the given mean (inverse-CDF on a
/// uniform; `1 - u` keeps the argument of `ln` in `(0, 1]`).
fn exp_draw<R: rand::RngCore>(rng: &mut R, mean: f64) -> f64 {
    use rand::Rng;
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// A complete simulated TerraDir system.
///
/// State is split per DESIGN.md §20: `shared` is the fleet-wide
/// read-only half ([`StatelessContext`]), `ctxs` holds one mutable
/// [`StatefulContext`] per server, and everything else is the
/// deterministic calendar/dispatch layer — the only code allowed to
/// touch more than one server's context (the `isolation` xtask pass
/// enforces that boundary statically).
pub struct System {
    /// Fleet-wide read-only state (namespace, config, assignment,
    /// role/tenant maps, speed table).
    shared: StatelessContext,
    /// Per-server mutable state, indexed by server id.
    ctxs: Vec<StatefulContext>,
    engine: Engine<Event>,
    stream: QueryStream,
    arrivals: PoissonArrivals,
    service: ExpService,
    rng_service: TaggedRng,
    rng_protocol: TaggedRng,
    rng_arrivals: TaggedRng,
    /// Failure-model randomness (loss, jitter, churn timers, failover
    /// picks). Never drawn from while the failure model is inert, so
    /// baseline runs stay bit-identical to pre-failure-model builds.
    rng_faults: TaggedRng,
    /// Construction-time draw counts by tag (mapping, speeds, static
    /// bootstrap) — the baseline the live streams' counters are added to
    /// when `stats.rng_draws` is synced (DESIGN.md §15).
    setup_draws: Vec<u64>,
    stats: RunStats,
    next_query_id: u64,
    out_buf: Vec<Outgoing>,
    injecting: bool,
    /// Outstanding queries under the retry layer, by query id.
    pending: crate::det::DetHashMap<u64, Pending>,
    /// Shadow-exec permutation seed (DESIGN.md §20): when set, the
    /// compute half of every same-timestep per-server sweep
    /// (maintenance, utilization rolls, gossip peer-pool builds) steps
    /// servers in a deterministic pseudo-random order instead of id
    /// order, while effects still apply in id order. The replay test
    /// asserts byte-identical summaries either way — the exact
    /// order-independence a parallel executor needs.
    shadow_seed: Option<u64>,
    /// Per-run counter of permuted sweeps, mixed into the permutation
    /// so each sweep uses a different order.
    shadow_rounds: u64,
    /// Reusable sweep-order scratch buffer.
    perm_buf: Vec<u32>,
    /// Reusable per-server maintenance effect buffers (phase 2 of the
    /// Maintain sweep drains them in canonical id order).
    maint_bufs: Vec<Vec<Outgoing>>,
    /// Reusable per-server gossip peer-pool buffers (phase 2 of the
    /// gossip sweep shuffles/truncates/sends in canonical id order).
    gossip_peer_bufs: Vec<Vec<ServerId>>,
    /// Reachability group of each server (`id mod partitions.n_groups`).
    group_of: Vec<u32>,
    /// Active partition cut: each server's side of the relation. `None`
    /// while the network is whole. A delivery between different sides is
    /// dropped (DESIGN.md §13).
    cut_side: Option<Vec<bool>>,
    /// Sticky minority classification for the per-side availability
    /// curves: set by the most recent effective cut and kept across the
    /// heal (until the next cut) so post-heal reconciliation of the
    /// formerly isolated side stays measurable.
    minority: Vec<bool>,
    /// Active flash crowd: the hot node and its extra arrival process.
    flash: Option<(NodeId, PoissonArrivals)>,
    /// Bumped whenever the flash state changes (stale-filters
    /// `FlashInject` events).
    flash_epoch: u64,
    /// Per-object latest committed version (storage, DESIGN.md §17):
    /// the write driver assigns `committed[o] + 1` to each new write,
    /// so versions are globally monotonic per object. Empty while
    /// storage is disabled.
    committed: Vec<u64>,
    /// Outstanding replicated reads by read id.
    reads: crate::det::DetHashMap<u64, ReadState>,
    next_read_id: u64,
    /// Reusable replica-set scratch buffer (keeps the storage drivers
    /// allocation-free on the event path).
    store_targets: Vec<ServerId>,
    /// Reusable object-payload scratch for gossip pushes and pull replies.
    gossip_objects: Vec<(NodeId, crate::storage::StoredObject)>,
    /// Reusable changed-node snapshot for the hybrid culture's eager push
    /// (taken before the digest reseal clears per-node change tracking).
    gossip_changed: Vec<NodeId>,
    /// Reusable key-rendering buffer for pull selection.
    gossip_key_buf: String,
}

/// Event types cross threads with the parallel executor's calendar, so
/// they must be `Send + Sync` too (`Event` is private, so the assertion
/// lives here rather than in `context.rs`).
const _: () = crate::context::assert_send_sync::<Event>();

impl System {
    /// Builds a system over the namespace with the given configuration,
    /// workload plan, and global arrival rate λ (queries/second).
    ///
    /// The node→server mapping is uniform random, seeded from
    /// `cfg.seed` — the paper maps "both namespaces … uniformly at random
    /// on the servers".
    pub fn new(ns: Namespace, cfg: Config, plan: StreamPlan, rate: f64) -> System {
        let valid = cfg.validate();
        assert!(valid.is_ok(), "invalid configuration: {valid:?}");
        let mut map_rng = tagged_rng(cfg.seed, tags::MAPPING);
        let assignment = OwnerAssignment::uniform_random(&ns, cfg.n_servers, &mut map_rng);
        let mut sys = Self::with_assignment(ns, cfg, assignment, plan, rate);
        ledger_add(&mut sys.setup_draws, tags::MAPPING, map_rng.draws());
        sys.sync_draw_ledger();
        sys
    }

    /// Builds a system with an explicit ownership assignment (tests and
    /// the Fig. 7 harness use deterministic assignments).
    pub fn with_assignment(
        ns: Namespace,
        cfg: Config,
        assignment: OwnerAssignment,
        plan: StreamPlan,
        rate: f64,
    ) -> System {
        let valid = cfg.validate();
        assert!(valid.is_ok(), "invalid configuration: {valid:?}");
        assert_eq!(assignment.n_servers(), cfg.n_servers);
        assert_eq!(assignment.n_nodes(), ns.len());
        let ns = Arc::new(ns);
        let cfg = Arc::new(cfg);
        let n = cfg.n_servers as usize;
        let mut servers: Vec<ServerState> = (0..cfg.n_servers)
            .map(|i| ServerState::new(ServerId(i), Arc::clone(&ns), Arc::clone(&cfg), &assignment))
            .collect(); // xtask: allow(alloc): construction, runs once per run
                        // Fleet roles and tenant partition (DESIGN.md §19). Both maps are
                        // pure functions of (namespace, assignment, config) — zero RNG —
                        // and both stay `None` when disabled so this block is inert for
                        // baseline runs.
        let roles = if cfg.roles_active() {
            Some(Arc::new(crate::roles::RoleMap::build(
                &ns,
                &assignment,
                &cfg.roles,
                cfg.n_servers,
            )))
        } else {
            None
        };
        let tenants = if cfg.tenants_active() {
            Some(crate::roles::TenantMap::build(&ns, &cfg.tenants))
        } else {
            None
        };
        if let Some(r) = &roles {
            for s in &mut servers {
                s.set_role_map(Arc::clone(r));
            }
        }
        // xtask: allow(alloc): construction, runs once per run
        let mut setup_draws = vec![0u64; tags::LEDGER_SLOTS];
        let (mut speeds, speed_draws) = Self::draw_speeds(&cfg);
        ledger_add(&mut setup_draws, tags::SPEEDS, speed_draws);
        // Relays run faster hardware: scale their drawn speed by
        // `RELAY_SPEED_FACTOR` (no extra RNG; deliberately breaks the
        // mean-1 normalization — the fleet's aggregate capacity grows
        // with its relay count, DESIGN.md §19).
        if let Some(r) = &roles {
            for (i, sp) in speeds.iter_mut().enumerate() {
                if r.class_of(ServerId(i as u32)) == crate::config::ServerClass::Relay {
                    *sp *= config::RELAY_SPEED_FACTOR;
                }
            }
        }
        // Shared read-only speed table for replica-partner tie-breaking
        // (an all-1.0 table degrades the tie-break to server id, so
        // installing it unconditionally changes nothing at spread 1.0).
        let shared_speeds: Arc<[f64]> = Arc::from(speeds.as_slice());
        for s in &mut servers {
            s.set_static_speeds(Arc::clone(&shared_speeds));
        }
        // Per-server queue capacities: relays get a deeper queue.
        let queue_caps: Vec<usize> = (0..cfg.n_servers)
            .map(|i| match &roles {
                Some(r) if r.class_of(ServerId(i)) == crate::config::ServerClass::Relay => {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let cap =
                        (cfg.queue_capacity as f64 * cfg.roles.relay_queue_factor).round() as usize;
                    cap.max(cfg.queue_capacity)
                }
                _ => cfg.queue_capacity,
            })
            .collect(); // xtask: allow(alloc): construction, runs once per run
        if cfg.static_top_levels > 0 {
            let static_draws =
                Self::bootstrap_static_replicas(&ns, &cfg, &assignment, &mut servers);
            ledger_add(&mut setup_draws, tags::STATIC, static_draws);
        }
        // Pre-seeded stored objects (DESIGN.md §17): every object exists
        // from t=0 at version 1, written directly into its replica set's
        // stores — no messages, no RNG draws. That makes `objects_written`
        // a constant of the run, so the durability identity
        // `objects_written == objects_alive + objects_lost` is exact at
        // every scan instead of racing in-flight writes.
        let effective_objects = if cfg.storage.enabled {
            (cfg.storage.n_objects as usize).min(ns.len())
        } else {
            0
        };
        // xtask: allow(alloc): construction, runs once per run
        let committed = vec![1u64; effective_objects];
        let mut store_targets = Vec::new();
        for o in 0..effective_objects {
            let node = NodeId(o as u32);
            crate::storage::replica_targets(
                node,
                &ns,
                &assignment,
                &cfg.storage,
                roles.as_deref(),
                &mut store_targets,
            );
            let obj = crate::storage::StoredObject {
                version: 1,
                writer: assignment.owner(node),
                payload: (o as u32).wrapping_add(1),
            };
            for &t in &store_targets {
                if let Some(s) = servers.get_mut(t.index()) {
                    s.merge_object(node, obj);
                }
            }
        }
        let mut stream = QueryStream::new(plan, ns.len(), cfg.n_servers, cfg.seed);
        let mut stats = RunStats::new(ns.max_depth());
        if let Some(tm) = &tenants {
            // Per-tenant destination mix (DESIGN.md §19): the stream keeps
            // drawing from the same three tagged streams, so tenants-off
            // runs are byte-identical to pre-tenant baselines.
            // xtask: allow(alloc): construction, runs once per run
            let mix: Vec<(Vec<NodeId>, f64, f64)> = cfg
                .tenants
                .specs
                .iter()
                .enumerate()
                .map(|(t, spec)| {
                    #[allow(clippy::cast_possible_truncation)]
                    // xtask: allow(alloc): construction, runs once per run
                    let members = tm.members(t as u16).to_vec();
                    (members, spec.weight, spec.zipf_theta)
                })
                .collect(); // xtask: allow(alloc): construction, runs once
            stream.set_tenant_mix(mix);
            stats.init_tenants(cfg.tenants.specs.iter().map(|s| s.slo_availability));
        }
        stats.objects_written = effective_objects as u64;
        stats.objects_alive = effective_objects as u64;
        let mut engine = Engine::new();
        let arrivals = PoissonArrivals::new(rate);
        let mut rng_arrivals = tagged_rng(cfg.seed, tags::ARRIVALS);
        let first = arrivals.next_gap(&mut rng_arrivals);
        engine.schedule(first, Event::Inject);
        engine.schedule(config::LOAD_WINDOW, Event::Maintain);
        engine.schedule(1.0, Event::Sample);
        let mut rng_faults = tagged_rng(cfg.seed, tags::FAULTS);
        if cfg.churn.enabled {
            for i in 0..cfg.n_servers {
                let at = cfg.churn.start + exp_draw(&mut rng_faults, cfg.churn.mean_uptime);
                engine.schedule(
                    at,
                    Event::ChurnFail {
                        server: ServerId(i),
                    },
                );
            }
        }
        // Scheduled partition windows and the chaos script go on the
        // calendar up front; events past the end of the run never fire.
        for (i, w) in cfg.partitions.cuts.iter().enumerate() {
            engine.schedule(w.start, Event::CutStart { cut: i });
            if w.stop.is_finite() {
                engine.schedule(w.stop, Event::CutStop);
            }
        }
        for (i, ev) in cfg.scenario.events.iter().enumerate() {
            engine.schedule(ev.at, Event::Chaos { idx: i });
        }
        // Storage drivers arm only when enabled (and then draw from the
        // fault stream), so disabled runs spend zero randomness here and
        // stay byte-identical to pre-storage baselines.
        if cfg.storage.enabled {
            if cfg.storage.write_rate > 0.0 {
                let gap = exp_draw(&mut rng_faults, 1.0 / cfg.storage.write_rate);
                engine.schedule(gap, Event::StorePut);
            }
            if cfg.storage.read_rate > 0.0 {
                let gap = exp_draw(&mut rng_faults, 1.0 / cfg.storage.read_rate);
                engine.schedule(gap, Event::StoreGet);
            }
        }
        // Anti-entropy arms only when enabled (DESIGN.md §18); the arming
        // itself draws no randomness, so gossip-off runs stay
        // byte-identical to pre-gossip baselines.
        if cfg.gossip.enabled {
            engine.schedule(cfg.gossip.interval, Event::GossipRound);
        }
        let groups = cfg.partitions.n_groups.max(1);
        // Zip the per-server pieces into one StatefulContext each
        // (DESIGN.md §20): from here on, only the dispatch regions of
        // this file may reach into another server's context.
        // xtask: allow(alloc): construction, runs once per run
        let ctxs: Vec<StatefulContext> = servers
            .into_iter()
            .zip(queue_caps)
            .enumerate()
            .map(|(i, (server, queue_cap))| StatefulContext {
                server,
                queue: VecDeque::new(),
                in_service: None,
                util: crate::load::LoadMeter::new(1.0, 1.0),
                failed: false,
                epoch: 0,
                speed: speeds.get(i).copied().unwrap_or(1.0),
                queue_cap,
            })
            .collect(); // xtask: allow(alloc): construction, runs once
        let shared = StatelessContext {
            ns,
            cfg: Arc::clone(&cfg),
            assignment: Arc::new(assignment),
            roles,
            tenants: tenants.map(Arc::new),
            speeds: shared_speeds,
        };
        let mut sys = System {
            shared,
            ctxs,
            // xtask: allow(alloc): construction, runs once per run
            group_of: (0..cfg.n_servers).map(|i| i % groups).collect(),
            cut_side: None,
            // xtask: allow(alloc): construction, runs once per run
            minority: vec![false; n],
            flash: None,
            flash_epoch: 0,
            service: ExpService::new(config::MEAN_SERVICE),
            rng_service: tagged_rng(cfg.seed, tags::SERVICE),
            rng_protocol: tagged_rng(cfg.seed, tags::PROTOCOL),
            rng_arrivals,
            rng_faults,
            setup_draws,
            engine,
            stream,
            arrivals,
            stats,
            next_query_id: 0,
            out_buf: Vec::new(),
            injecting: true,
            pending: crate::det::DetHashMap::default(),
            shadow_seed: None,
            shadow_rounds: 0,
            perm_buf: Vec::new(),
            // xtask: allow(alloc): construction, runs once per run
            maint_bufs: (0..n).map(|_| Vec::new()).collect(),
            // xtask: allow(alloc): construction, runs once per run
            gossip_peer_bufs: (0..n).map(|_| Vec::new()).collect(),
            committed,
            reads: crate::det::DetHashMap::default(),
            next_read_id: 0,
            store_targets,
            gossip_objects: Vec::new(),
            gossip_changed: Vec::new(),
            gossip_key_buf: String::new(),
        };
        sys.sync_draw_ledger();
        sys
    }

    /// Enables (`Some(seed)`) or disables (`None`) shadow-exec sweep
    /// permutation (DESIGN.md §20). With a seed set, every same-timestep
    /// per-server compute sweep runs in a deterministic pseudo-random
    /// order derived from the seed and a per-run sweep counter; effects
    /// still apply in canonical id order, so a run's observable output
    /// must be byte-identical to the unpermuted run. The permutation
    /// draws no tagged randomness, so the RNG draw ledger is untouched.
    pub fn set_shadow_permutation(&mut self, seed: Option<u64>) {
        self.shadow_seed = seed;
    }

    /// The order the next per-server compute sweep steps servers in:
    /// identity without a shadow seed, a Fisher–Yates permutation of a
    /// private splitmix64 stream with one. Returns the reusable order
    /// buffer; callers hand it back by reassigning `perm_buf`.
    fn sweep_order(&mut self, n: usize) -> Vec<u32> {
        let mut order = std::mem::take(&mut self.perm_buf);
        order.clear();
        order.extend(0..n as u32);
        if let Some(seed) = self.shadow_seed {
            self.shadow_rounds += 1;
            // splitmix64 over (seed, sweep index): deterministic,
            // ledger-free, and different every sweep.
            let mut state = seed ^ self.shadow_rounds.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in (1..order.len()).rev() {
                #[allow(clippy::cast_possible_truncation)]
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        order
    }

    /// Draws normalized per-server speed factors (log-uniform in
    /// `[1/spread, spread]`, rescaled to mean exactly 1 so aggregate
    /// capacity is invariant across spreads). Returns the factors and the
    /// number of RNG draws spent (the ledger's `speeds` slot).
    fn draw_speeds(cfg: &Config) -> (Vec<f64>, u64) {
        use rand::Rng;
        let n = cfg.n_servers as usize;
        if cfg.speed_spread <= 1.0 {
            // xtask: allow(alloc): construction, runs once per run
            return (vec![1.0; n], 0);
        }
        let mut rng = tagged_rng(cfg.seed, tags::SPEEDS);
        let ln = cfg.speed_spread.ln();
        let mut speeds: Vec<f64> = (0..n)
            .map(|_| (rng.gen::<f64>() * 2.0 * ln - ln).exp())
            .collect(); // xtask: allow(alloc): construction, runs once
        let mean = speeds.iter().sum::<f64>() / n as f64;
        for s in &mut speeds {
            *s /= mean;
        }
        (speeds, rng.draws())
    }

    /// Installs the §2.3 static bootstrap replicas: every node at depth
    /// below `static_top_levels` gets `static_replicas_per_node` replicas
    /// on random non-owner servers, with owner maps advertising them.
    /// Returns the RNG draws spent (the ledger's `static` slot).
    fn bootstrap_static_replicas(
        ns: &Arc<Namespace>,
        cfg: &Arc<Config>,
        assignment: &OwnerAssignment,
        servers: &mut [ServerState],
    ) -> u64 {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = tagged_rng(cfg.seed, tags::STATIC);
        let mut scratch = Vec::new();
        for node in ns.ids() {
            if ns.depth(node) >= cfg.static_top_levels {
                continue;
            }
            let owner = assignment.owner(node);
            // xtask: allow(alloc): static bootstrap, runs once per run
            let mut hosts = vec![owner];
            for _ in 0..cfg.static_replicas_per_node.min(cfg.n_servers as usize - 1) {
                loop {
                    let s = ServerId(rng.gen_range(0..cfg.n_servers));
                    if !hosts.contains(&s) {
                        hosts.push(s);
                        break;
                    }
                }
            }
            if let Some(tail) = hosts.get_mut(1..) {
                tail.shuffle(&mut rng);
            }
            let map = crate::map::NodeMap::from_entries(hosts.iter().copied());
            // Owner's record advertises the static replicas.
            if let Some(rec) = servers
                .get_mut(owner.index())
                .and_then(|s| s.host_record_mut(node))
            {
                // xtask: allow(alloc): static bootstrap, runs once per run
                rec.map.clone_from(&map);
            }
            // Install at each replica host through the normal install path
            // (capacity caps and digest dirtying apply as usual).
            let meta = servers
                .get(owner.index())
                .and_then(|s| s.host_record(node))
                // xtask: allow(alloc): static bootstrap, runs once per run
                .map(|r| r.meta.clone())
                .unwrap_or_default();
            let neighbors: Vec<(NodeId, crate::map::NodeMap)> = ns
                .neighbors(node)
                .into_iter()
                .map(|nb| (nb, crate::map::NodeMap::singleton(assignment.owner(nb))))
                .collect(); // xtask: allow(alloc): static bootstrap, once
            for &h in hosts.iter().skip(1) {
                let payload = crate::messages::ReplicaPayload {
                    node,
                    // xtask: allow(alloc): static bootstrap, runs once per run
                    map: map.clone(),
                    // xtask: allow(alloc): static bootstrap, runs once per run
                    meta: meta.clone(),
                    // xtask: allow(alloc): static bootstrap, runs once per run
                    neighbors: neighbors.clone(),
                    weight: 0.0,
                };
                scratch.clear();
                if let Some(host) = servers.get_mut(h.index()) {
                    // xtask: allow(alloc): static bootstrap, runs once per run
                    host.install_replicas(0.0, vec![payload], &mut rng, &mut scratch);
                }
            }
        }
        for s in servers.iter_mut() {
            s.rebuild_digest_if_dirty();
        }
        rng.draws()
    }

    /// Fails a server: its queue is discarded and every message addressed
    /// to it from now on is silently lost (queries among them are counted
    /// as drops). The rest of the system keeps its soft state about the
    /// dead server and corrects it lazily — exactly the failure model the
    /// paper's resiliency argument relies on ("hosting servers for nodes
    /// with failed replicas will incur more load after failure … and will
    /// replicate again").
    // xtask: region(dispatch): begin — churn executor: crash/recovery must drain and reset the victim's context
    pub fn fail_server(&mut self, id: ServerId) {
        let i = id.index();
        let now = self.engine.now();
        let retry = self.shared.cfg.retry.enabled;
        let Some(ctx) = self.ctxs.get_mut(i) else {
            return;
        };
        if ctx.failed {
            return;
        }
        ctx.failed = true;
        self.stats.churn_failures += 1;
        // The queued messages die first, then the in-service one; its
        // already-scheduled completion event is stale-filtered by the
        // epoch bump below.
        for msg in ctx.queue.drain(..).chain(ctx.in_service.take()) {
            if msg.is_query_traffic() {
                let tenant = self.shared.tenant_of_msg(&msg);
                self.stats.on_lost(now, DropKind::Queue, retry, tenant);
            }
        }
        ctx.epoch += 1;
    }

    /// Recovers a failed server (DESIGN.md §12): it rejoins with its owned
    /// records intact but every piece of soft state — replicas, learned
    /// maps, cache, digests, load profiles — reset to the static bootstrap,
    /// and immediately resumes service. A no-op on a live server.
    pub fn recover_server(&mut self, id: ServerId) {
        let i = id.index();
        let now = self.engine.now();
        let Some(ctx) = self.ctxs.get_mut(i) else {
            return;
        };
        if !ctx.failed {
            return;
        }
        ctx.failed = false;
        self.stats.churn_recoveries += 1;
        // A replication session whose *initiator* dies is gone for
        // good — the reset below discards it, and the ledger must
        // record the abort so started == completed + aborted holds.
        if ctx.server.session.is_some() {
            self.stats.sessions_aborted += 1;
        }
        ctx.server.reset_soft_state(now, &self.shared.assignment);
        ctx.util = crate::load::LoadMeter::new(1.0, 1.0);
        ctx.util.roll(now);
        debug_assert!(ctx.queue.is_empty());
        debug_assert!(ctx.in_service.is_none());
        self.try_start(id);
        self.warm_rejoin_push(id);
    }
    // xtask: region(dispatch): end

    /// Churn process, failure side: fail the server and arm its recovery
    /// timer. Failures are suppressed once the churn window closed, and
    /// *deferred* (another uptime draw) while the down-fraction guard
    /// would be exceeded — recoveries always fire, so the fleet heals.
    fn churn_fail(&mut self, s: ServerId) {
        let now = self.engine.now();
        // ChurnConfig is all scalars: copy the fields this step needs
        // instead of cloning the struct, detaching the cfg borrow.
        let (stop, max_down_fraction, mean_uptime, mean_downtime) = {
            let c = &self.shared.cfg.churn;
            (c.stop, c.max_down_fraction, c.mean_uptime, c.mean_downtime)
        };
        if now >= stop {
            return;
        }
        let n = self.shared.cfg.n_servers as usize;
        let over_budget = (self.failed_count() + 1) as f64 / n.max(1) as f64 > max_down_fraction;
        if self.is_failed(s) || over_budget {
            let gap = exp_draw(&mut self.rng_faults, mean_uptime);
            self.engine.schedule_in(gap, Event::ChurnFail { server: s });
            return;
        }
        self.fail_server(s);
        let down = exp_draw(&mut self.rng_faults, mean_downtime);
        self.engine
            .schedule_in(down, Event::ChurnRecover { server: s });
    }

    /// Churn process, recovery side: bring the server back and, while the
    /// churn window is still open, arm its next failure.
    fn churn_recover(&mut self, s: ServerId) {
        self.recover_server(s);
        let now = self.engine.now();
        if now < self.shared.cfg.churn.stop {
            let up = exp_draw(&mut self.rng_faults, self.shared.cfg.churn.mean_uptime);
            self.engine.schedule_in(up, Event::ChurnFail { server: s });
        }
    }

    /// Applies one scripted chaos action (DESIGN.md §13). All randomness
    /// (crash victims, flash origins and gaps) comes from the fault RNG,
    /// so a scenario replays bit-identically from the seed.
    fn apply_chaos(&mut self, idx: usize) {
        let Some(action) = self
            .shared
            .cfg
            .scenario
            .events
            .get(idx)
            // xtask: allow(alloc): scripted chaos action, a handful per run; the clone detaches the cfg borrow so the handlers may mutate self
            .map(|e| e.action.clone())
        else {
            return;
        };
        match action {
            ChaosAction::Cut { groups } => self.apply_cut(&groups),
            ChaosAction::Heal => self.heal_cut(),
            ChaosAction::FlashCrowd {
                node,
                rate_multiplier,
            } => self.set_flash(node, rate_multiplier),
            ChaosAction::CorrelatedCrash { fraction } => self.correlated_crash(fraction),
            ChaosAction::Recover => {
                for i in 0..self.shared.cfg.n_servers {
                    self.recover_server(ServerId(i));
                }
            }
            ChaosAction::ClassCrash { class } => self.class_wave(class, true),
            ChaosAction::ClassRecover { class } => self.class_wave(class, false),
        }
    }

    /// Cross-class failure wave (DESIGN.md §19): crash or recover every
    /// server of one role class in a single deterministic id-order sweep.
    /// Draws no randomness itself; `validate` guarantees a role map is
    /// present when the scenario script names a class.
    fn class_wave(&mut self, class: crate::config::ServerClass, crash: bool) {
        let Some(roles) = self.shared.roles.as_ref().map(Arc::clone) else {
            return;
        };
        for i in 0..self.shared.cfg.n_servers {
            let id = ServerId(i);
            if roles.class_of(id) != class {
                continue;
            }
            if crash {
                if !self.is_failed(id) {
                    self.stats.scenario_crashes += 1;
                    self.fail_server(id);
                }
            } else if self.is_failed(id) {
                self.recover_server(id);
            }
        }
    }

    /// Installs a cut severing `groups` from the rest of the fleet. Each
    /// side stays internally connected; deliveries between them drop at
    /// delivery time, so messages already in flight across the cut are
    /// lost too. A later cut replaces the active one. When the severed
    /// side is empty or covers the whole fleet the relation is a no-op
    /// (nothing to sever), though the cut still counts as applied.
    fn apply_cut(&mut self, groups: &[u32]) {
        self.stats.cuts_applied += 1;
        // xtask: allow(alloc): cut application, a scripted handful per run
        let side: Vec<bool> = self.group_of.iter().map(|g| groups.contains(g)).collect();
        let cut_count = side.iter().filter(|&&s| s).count();
        if cut_count == 0 || cut_count == side.len() {
            self.cut_side = None;
            return;
        }
        // Sticky side classification: the smaller side is the minority
        // (the named side wins ties) and keeps that label through the
        // heal, until the next cut — that is what makes post-heal
        // reconciliation of the formerly isolated side measurable.
        let cut_is_minority = cut_count * 2 <= side.len();
        // xtask: allow(alloc): cut application, a scripted handful per run
        self.minority = side.iter().map(|&s| s == cut_is_minority).collect();
        self.cut_side = Some(side);
    }

    /// Clears the active cut, whichever event installed it. Counted even
    /// when the network is already whole (the script said heal). With
    /// reconciliation enabled, the formerly isolated minority side
    /// re-advertises its records to namespace neighbors (DESIGN.md §14)
    /// so majority-side soft state repairs eagerly instead of waiting
    /// for misroute NACKs.
    fn heal_cut(&mut self) {
        self.stats.heals_applied += 1;
        self.cut_side = None;
        if self.shared.cfg.reconcile.enabled {
            for id in self.minority_servers() {
                if !self.is_failed(id) {
                    self.warm_rejoin_push(id);
                }
            }
        }
    }

    /// Bounded anti-entropy push (DESIGN.md §14): the server re-advertises
    /// up to [`config::RECONCILE_BATCH`] of its owned records to at most
    /// `reconcile.fanout` namespace-neighbor owners, chosen from the fault
    /// RNG so runs replay bit-identically. Inert unless
    /// `reconcile.enabled` (and then draws no fault randomness at all, so
    /// disabled runs stay byte-identical to pre-reconcile baselines).
    fn warm_rejoin_push(&mut self, id: ServerId) {
        use rand::seq::SliceRandom;
        if !self.shared.cfg.reconcile.enabled || self.is_failed(id) {
            return;
        }
        let Some(server) = self.ctxs.get(id.index()).map(|c| &c.server) else {
            return;
        };
        let mut peers: Vec<ServerId> = Vec::new();
        for node in server.owned_ids() {
            for nb in self.shared.ns.neighbors(node) {
                let owner = self.shared.assignment.owner(nb);
                if owner != id && !self.is_failed(owner) {
                    peers.push(owner);
                }
            }
        }
        peers.sort_unstable();
        peers.dedup();
        // Role gate (DESIGN.md §19): advertisements go only to peers that
        // could serve the pusher's subtrees. Runs before the shuffle, so
        // roles-off runs spend identical fault-stream draws.
        if let Some(roles) = self.shared.roles.as_deref() {
            peers.retain(|&p| roles.gossip_compatible(id, p));
        }
        peers.shuffle(&mut self.rng_faults);
        peers.truncate(self.shared.cfg.reconcile.fanout as usize);
        // xtask: allow(alloc): reconcile push, fires only on heal/rejoin
        let mut nodes: Vec<NodeId> = server.owned_ids().collect();
        nodes.sort_unstable();
        nodes.truncate(config::RECONCILE_BATCH as usize);
        nodes.retain(|&n| server.hosts(n));
        // Each push advertises only the authoritative fact the pusher can
        // vouch for — "I host this node", a singleton map. Forwarding its
        // full host map would propagate exactly the stale third-party
        // pointers the reconciliation exists to repair. Sent peer-major,
        // direct (no loss/jitter draws on the fault stream).
        for &peer in &peers {
            for &node in &nodes {
                self.stats.reconcile_pushes += 1;
                let map = NodeMap::singleton(id);
                self.send_direct(id, peer, Message::MapUpdate { node, map });
            }
        }
    }

    /// Whether a delivery from `a` to `b` crosses the active cut.
    fn crosses_cut(&self, a: ServerId, b: ServerId) -> bool {
        match &self.cut_side {
            Some(side) => {
                side.get(a.index()).copied().unwrap_or(false)
                    != side.get(b.index()).copied().unwrap_or(false)
            }
            None => false,
        }
    }

    /// Starts — or, with `rate_multiplier ≤ 1` or an out-of-namespace
    /// node, stops — a flash crowd: an extra Poisson stream at
    /// `(rate_multiplier − 1) ×` the base rate whose every query targets
    /// `node`. Gaps and origins draw from the fault RNG; the base arrival
    /// stream is untouched, so runs without flash crowds stay
    /// bit-identical.
    fn set_flash(&mut self, node: u32, rate_multiplier: f64) {
        self.flash_epoch += 1;
        let extra = self.arrivals.rate() * (rate_multiplier - 1.0);
        if rate_multiplier <= 1.0 || extra <= 0.0 || (node as usize) >= self.shared.ns.len() {
            self.flash = None;
            return;
        }
        let arrivals = PoissonArrivals::new(extra);
        let gap = arrivals.next_gap(&mut self.rng_faults);
        self.flash = Some((NodeId(node), arrivals));
        let epoch = self.flash_epoch;
        self.engine.schedule_in(gap, Event::FlashInject { epoch });
    }

    /// Injects one flash-crowd query and arms the next arrival. Flash
    /// queries are full citizens of the accounting: they count as
    /// injected, enter the availability denominators, and get pending
    /// records under the retry layer.
    fn flash_inject(&mut self, epoch: u64) {
        if epoch != self.flash_epoch {
            return;
        }
        // Field borrow instead of cloning: `flash` and `rng_faults` are
        // disjoint fields, and `next_gap` only reads the arrival process.
        let (node, gap) = match &self.flash {
            Some((n, arrivals)) => (*n, arrivals.next_gap(&mut self.rng_faults)),
            None => return,
        };
        self.engine.schedule_in(gap, Event::FlashInject { epoch });
        let Some(src) = self.random_live_origin() else {
            return;
        };
        self.stats.flash_injected += 1;
        self.issue_query(src, node);
    }

    /// The shared head of the storage drivers (DESIGN.md §17): gated on
    /// injection like the query stream (`set_injection(true)` re-arms
    /// them), it re-arms `next` after an exponential gap at `rate`, then
    /// draws a uniformly random object and a random live origin, in that
    /// order, from the fault RNG. `None` while injection is off, with no
    /// objects, or with the whole fleet dead.
    fn next_store_op(&mut self, rate: f64, next: Event) -> Option<(usize, ServerId)> {
        use rand::Rng;
        if !self.injecting {
            return None;
        }
        if rate > 0.0 {
            let gap = exp_draw(&mut self.rng_faults, 1.0 / rate);
            self.engine.schedule_in(gap, next);
        }
        let n = self.committed.len();
        if n == 0 {
            return None;
        }
        let o = self.rng_faults.gen_range(0..n);
        Some((o, self.random_live_origin()?))
    }

    /// Storage write driver (DESIGN.md §17): commits the next version of
    /// a uniformly random object from a random live origin and pushes it
    /// to every member of the object's replica set. Pushes are direct
    /// sends (the reconcile-push precedent) but carry a real sender, so
    /// partition cuts and dead targets lose them exactly like protocol
    /// traffic.
    fn store_put(&mut self) {
        let rate = self.shared.cfg.storage.write_rate;
        let Some((o, origin)) = self.next_store_op(rate, Event::StorePut) else {
            return;
        };
        let Some(slot) = self.committed.get_mut(o) else {
            return;
        };
        *slot += 1;
        let version = *slot;
        let node = NodeId(o as u32);
        let obj = crate::storage::StoredObject {
            version,
            writer: origin,
            payload: (o as u32).wrapping_add(version as u32),
        };
        self.stats.object_puts += 1;
        let mut targets = std::mem::take(&mut self.store_targets);
        self.shared.replica_targets(node, &mut targets);
        for &t in &targets {
            self.send_direct(origin, t, Message::PutObject { node, obj });
        }
        self.store_targets = targets;
    }

    /// Storage read driver (DESIGN.md §17): issues the next replicated
    /// read of a uniformly random object from a random live origin. With
    /// `quorum_reads` every replica is probed and the read closes at a
    /// majority of the replica set; otherwise a single random replica is
    /// probed. Either way a timeout finalizes the read with whatever
    /// arrived, so reads against dead replicas terminate.
    fn store_get(&mut self) {
        use rand::Rng;
        let rate = self.shared.cfg.storage.read_rate;
        let Some((o, origin)) = self.next_store_op(rate, Event::StoreGet) else {
            return;
        };
        let node = NodeId(o as u32);
        let mut targets = std::mem::take(&mut self.store_targets);
        self.shared.replica_targets(node, &mut targets);
        if targets.is_empty() {
            self.store_targets = targets;
            return;
        }
        let id = self.next_read_id;
        self.next_read_id += 1;
        let (probes, expect) = if self.shared.cfg.storage.quorum_reads {
            (targets.as_slice(), targets.len() as u32 / 2 + 1)
        } else {
            let pick = self.rng_faults.gen_range(0..targets.len());
            (targets.get(pick..=pick).unwrap_or_default(), 1)
        };
        for &t in probes {
            let msg = Message::GetObject {
                id,
                node,
                reply_to: origin,
            };
            self.send_direct(origin, t, msg);
        }
        self.store_targets = targets;
        self.reads.insert(
            id,
            ReadState {
                expect,
                got: 0,
                best: None,
                issued_version: self.committed.get(o).copied().unwrap_or(1),
            },
        );
        self.engine.schedule_in(
            self.shared.cfg.storage.read_timeout,
            Event::StoreReadDone { id },
        );
    }

    /// Finalizes an outstanding read: the freshest copy seen counts as a
    /// successful read (stale if it predates the version committed at
    /// issue time); an empty-handed read counts as failed. Fires from the
    /// quorum path or the timeout, whichever is first — the loser finds
    /// the record gone and no-ops, so late replies never double-count.
    fn finish_read(&mut self, id: u64) {
        let Some(r) = self.reads.remove(&id) else {
            return;
        };
        match r.best {
            Some(obj) => {
                self.stats.object_reads += 1;
                if obj.version < r.issued_version {
                    self.stats.stale_reads += 1;
                }
            }
            None => self.stats.reads_failed += 1,
        }
    }

    /// One anti-entropy round (DESIGN.md §18): reschedules itself, then
    /// has every live server contact up to `gossip.fanout`
    /// namespace-neighbor owners — sorted, deduplicated, shuffled from
    /// the fault RNG so runs replay bit-identically, truncated — and
    /// exchange state per the configured culture:
    ///
    /// - **chatty** pushes fresh singleton advertisements for everything
    ///   the server hosts plus its object copies (membership-filtered per
    ///   peer): O(state) bytes every round, nothing ever pruned;
    /// - **taciturn** ships the windowed digest; each receiver purges the
    ///   soft state the digest disclaims and pulls back only the object
    ///   versions it shows missing or older;
    /// - **hybrid** is taciturn plus an eager push of the keys changed
    ///   since the last round (bounded by `gossip.window`).
    ///
    /// Never armed while gossip is disabled, and then the only
    /// randomness drawn is the per-server peer shuffle.
    fn gossip_round(&mut self) {
        use rand::seq::SliceRandom;
        self.engine
            .schedule_in(self.shared.cfg.gossip.interval, Event::GossipRound);
        let culture = self.shared.cfg.gossip.culture;
        let n = self.ctxs.len();
        // Phase 1 — compute (order-independent): every live server
        // builds its candidate peer pool from its own state and the
        // frozen fleet snapshot, into its own buffer. No RNG, no
        // mutation of any context, so the shadow-exec permutation may
        // step this sweep in any order.
        let order = self.sweep_order(n);
        let mut peer_bufs = std::mem::take(&mut self.gossip_peer_bufs);
        for &oi in &order {
            let i = oi as usize;
            let Some(peers) = peer_bufs.get_mut(i) else {
                continue;
            };
            peers.clear();
            let Some(ctx) = self.ctxs.get(i) else {
                continue;
            };
            if ctx.failed {
                continue;
            }
            let id = ServerId(oi);
            for node in ctx.server.owned_ids() {
                for nb in self.shared.ns.neighbors(node) {
                    let owner = self.shared.assignment.owner(nb);
                    if owner != id && !self.is_failed(owner) {
                        peers.push(owner);
                    }
                    // Fellow replica-set members — the other
                    // neighbor-owners of the same node — hold the
                    // only live copy when that node's owner is down;
                    // without these 2-hop links a wiped replica can
                    // never re-pull from them. Routing-only runs skip
                    // them: no objects, so the extra candidates would
                    // only dilute the neighbor mix.
                    if self.shared.cfg.storage.enabled {
                        for nb2 in self.shared.ns.neighbors(nb) {
                            let fellow = self.shared.assignment.owner(nb2);
                            if fellow != id && !self.is_failed(fellow) {
                                peers.push(fellow);
                            }
                        }
                    }
                }
            }
            // Filler replicas live on consecutive server ids from the
            // owner (`storage::replica_targets`), not on namespace
            // neighbors — without these links a wiped filler can never
            // solicit the owners it backs, and digest-driven repair
            // silently excludes every filler-placed copy.
            if self.shared.cfg.storage.enabled {
                let fleet = n as u32;
                for k in 1..self.shared.cfg.storage.replication_factor.min(fleet) {
                    for cand in [
                        ServerId((id.0 + fleet - k) % fleet),
                        ServerId((id.0 + k) % fleet),
                    ] {
                        if cand != id && !self.is_failed(cand) {
                            peers.push(cand);
                        }
                    }
                }
            }
            peers.sort_unstable();
            peers.dedup();
            // Role gate (DESIGN.md §19): an edge's digests stay within
            // servers sharing an admitted region; relays are unrestricted.
            // Runs before the shuffle so roles-off draw counts are
            // untouched.
            if let Some(roles) = self.shared.roles.as_deref() {
                peers.retain(|&p| roles.gossip_compatible(id, p));
            }
        }
        // Phase 2 — apply (canonical id order): the per-server shuffle
        // draws from the shared fault stream and the sends schedule
        // calendar events, so this half must run in id order for
        // byte-identical replay.
        // xtask: region(dispatch): begin — gossip apply phase: shuffles and sends drain every server's peer pool
        for i in 0..n {
            if self.ctxs.get(i).is_none_or(|c| c.failed) {
                continue;
            }
            let id = ServerId(i as u32);
            // A server that has never sealed a digest (first round ever,
            // or just recovered from a soft-state wipe) has everything to
            // re-learn: its round becomes a *recovery burst* that
            // contacts the whole candidate pool instead of `fanout` of
            // it, so every object it backs is re-pulled within one
            // interval instead of one interval per pool/fanout chunk.
            // Steady-state rounds are untouched.
            // (Chatty never seals a digest, so only the post-reset flag
            // can burst it — its ordinary rounds already push full state.)
            let burst = self.ctxs.get(i).is_some_and(|c| {
                c.server.gossip.all_changed
                    || (!matches!(culture, GossipCulture::Chatty)
                        && c.server.gossip.digest.is_none())
            });
            let Some(slot) = peer_bufs.get_mut(i) else {
                continue;
            };
            slot.shuffle(&mut self.rng_faults);
            if !burst {
                slot.truncate(self.shared.cfg.gossip.fanout as usize);
            }
            if slot.is_empty() {
                continue;
            }
            let peers = std::mem::take(slot);
            match culture {
                GossipCulture::Chatty => {
                    self.gossip_push(id, &peers, None);
                    // Chatty never reseals the digest, so per-node
                    // change tracking would grow without bound and
                    // the post-reset flag would re-burst every round
                    // — drain both here instead.
                    if let Some(c) = self.ctxs.get_mut(i) {
                        c.server.gossip.changed.clear();
                        c.server.gossip.all_changed = false;
                    }
                }
                GossipCulture::Taciturn => {
                    self.gossip_send_digest(id, &peers);
                }
                GossipCulture::Hybrid => {
                    // Snapshot the change set before the digest
                    // reseal clears it; the eager push covers exactly
                    // those keys. (A reset emptied it — the fresh
                    // snapshot digest carries that signal instead.)
                    let mut changed = std::mem::take(&mut self.gossip_changed);
                    changed.clear();
                    if let Some(c) = self.ctxs.get(i) {
                        changed.extend(c.server.gossip.changed.iter().copied());
                    }
                    changed.sort_unstable();
                    changed.dedup();
                    changed.truncate(self.shared.cfg.gossip.window as usize);
                    self.gossip_send_digest(id, &peers);
                    if !changed.is_empty() {
                        self.gossip_push(id, &peers, Some(&changed));
                    }
                    self.gossip_changed = changed;
                }
            }
            if let Some(slot) = peer_bufs.get_mut(i) {
                *slot = peers;
            }
        }
        // xtask: region(dispatch): end
        self.gossip_peer_bufs = peer_bufs;
        self.perm_buf = order;
    }

    /// Ships `id`'s current windowed digest to each round peer, tagging
    /// each copy with the generation last shipped to that peer — the
    /// wire-cost model's delta base. The digest itself is identical
    /// either way; only its charged bytes differ (O(changed) in steady
    /// state, the full filter after a reset or for a first contact).
    fn gossip_send_digest(&mut self, id: ServerId, peers: &[ServerId]) {
        // xtask: region(dispatch): begin — gossip send helper: the digest snapshot and per-peer generation stamps mutate the sender's own context
        let digest = match self.ctxs.get_mut(id.index()) {
            Some(c) => c.server.gossip_digest(),
            None => return,
        };
        let gen = digest.generation();
        for &peer in peers {
            let since = match self.ctxs.get_mut(id.index()) {
                Some(c) => c.server.gossip.note_sent(peer, gen),
                None => None,
            };
            // xtask: region(dispatch): end
            let msg = Message::GossipDigest {
                from: id,
                // xtask: allow(alloc): Arc-backed digest clone, O(1) per peer
                digest: digest.clone(),
                since,
            };
            self.send_direct(id, peer, msg);
        }
    }

    /// The eager push arm: singleton hosting advertisements plus object
    /// copies, membership-filtered per peer so no server ends up holding
    /// a copy outside its objects' replica sets. `changed = None` pushes
    /// everything the server hosts (chatty); `Some(nodes)` restricts the
    /// payload to that sorted change set (hybrid).
    fn gossip_push(&mut self, id: ServerId, peers: &[ServerId], changed: Option<&[NodeId]>) {
        let mut targets = std::mem::take(&mut self.store_targets);
        let mut objects = std::mem::take(&mut self.gossip_objects);
        for &peer in peers {
            // Each push advertises only the authoritative fact the pusher
            // can vouch for — "I host this node", a singleton map — same
            // rule as reconcile pushes: forwarding full maps would spread
            // exactly the stale third-party pointers anti-entropy exists
            // to retire. Chatty advertises its whole hosted set, replica
            // ads included — deliberately profligate, and the ads go
            // stale the moment a crash resets the pusher's replicas.
            // Hybrid's eager push sticks to *owned* nodes: ownership is
            // the static assignment, so those ads can never go stale,
            // and its digest already retires everything else.
            let records: Vec<(NodeId, NodeMap)> = match self.ctxs.get(id.index()).map(|c| &c.server)
            {
                Some(s) => match changed {
                    None => s
                        .owned_ids()
                        .chain(s.replica_ids())
                        .map(|n| (n, NodeMap::singleton(id)))
                        .collect(), // xtask: allow(alloc): each push message owns its payload
                    Some(nodes) => nodes
                        .iter()
                        .copied()
                        .filter(|&n| self.shared.assignment.owner(n) == id)
                        .map(|n| (n, NodeMap::singleton(id)))
                        .collect(), // xtask: allow(alloc): each push message owns its payload
                },
                None => Vec::new(),
            };
            objects.clear();
            if let Some(s) = self.ctxs.get(id.index()).map(|c| &c.server) {
                for (node, obj) in s.stored_objects() {
                    if let Some(nodes) = changed {
                        if nodes.binary_search(&node).is_err() {
                            continue;
                        }
                    }
                    self.shared.replica_targets(node, &mut targets);
                    if targets.contains(&peer) {
                        objects.push((node, obj));
                    }
                }
            }
            objects.sort_unstable_by_key(|&(n, _)| n);
            if records.is_empty() && objects.is_empty() {
                continue;
            }
            let msg = Message::GossipPush {
                from: id,
                records,
                // xtask: allow(alloc): each push message owns its payload
                objects: objects.clone(),
            };
            self.send_direct(id, peer, msg);
        }
        self.store_targets = targets;
        self.gossip_objects = objects;
    }

    /// Recomputes the durability gauges: an object is *alive* while any
    /// live replica-set member holds a copy (a copy on a crashed server
    /// is wiped at recovery, so it does not count), *lost* otherwise.
    /// Sets `stats.objects_alive` / `stats.objects_lost` absolutely and
    /// returns `(alive, lost)`. Ran once per simulated second while
    /// storage is enabled; benches call it directly before reading the
    /// summary.
    pub fn measure_durability(&mut self) -> (u64, u64) {
        let n = self.committed.len();
        let mut alive = 0u64;
        let mut targets = std::mem::take(&mut self.store_targets);
        for o in 0..n {
            let node = NodeId(o as u32);
            self.shared.replica_targets(node, &mut targets);
            let held = targets.iter().any(|&t| {
                !self.is_failed(t)
                    && self
                        .ctxs
                        .get(t.index())
                        .is_some_and(|c| c.server.stored_object(node).is_some())
            });
            if held {
                alive += 1;
            }
        }
        self.store_targets = targets;
        let lost = (n as u64).saturating_sub(alive);
        self.stats.objects_alive = alive;
        self.stats.objects_lost = lost;
        (alive, lost)
    }

    /// Crashes `round(fraction × n_servers)` currently-live servers,
    /// chosen uniformly via the fault RNG (rejection sampling with a
    /// deterministic linear sweep as fallback).
    fn correlated_crash(&mut self, fraction: f64) {
        use rand::Rng;
        let n = self.shared.cfg.n_servers as usize;
        let live = n.saturating_sub(self.failed_count());
        let k = ((fraction * n as f64).round() as usize).min(live);
        let mut crashed = 0;
        let mut tries = 0;
        while crashed < k && tries < 64 * n.max(1) {
            tries += 1;
            let s = ServerId(self.rng_faults.gen_range(0..self.shared.cfg.n_servers));
            if !self.is_failed(s) {
                self.fail_server(s);
                self.stats.scenario_crashes += 1;
                crashed += 1;
            }
        }
        for i in 0..self.shared.cfg.n_servers {
            if crashed >= k {
                break;
            }
            let s = ServerId(i);
            if !self.is_failed(s) {
                self.fail_server(s);
                self.stats.scenario_crashes += 1;
                crashed += 1;
            }
        }
    }

    /// Whether `server` sits on the minority side of the most recent
    /// effective cut (the sticky label the per-side availability series
    /// classify by).
    fn is_minority(&self, server: ServerId) -> bool {
        self.minority.get(server.index()).copied().unwrap_or(false)
    }

    /// Whether a server has been failed. Ids outside the fleet read as
    /// failed: nothing can be delivered to them.
    pub fn is_failed(&self, id: ServerId) -> bool {
        self.ctxs.get(id.index()).is_none_or(|c| c.failed)
    }

    /// Number of currently failed servers.
    pub fn failed_count(&self) -> usize {
        self.ctxs.iter().filter(|c| c.failed).count()
    }

    /// Stops (or restarts) query injection. With injection off, a further
    /// [`System::run_until`] drains in-flight traffic so that
    /// `resolved + dropped == injected` exactly.
    pub fn set_injection(&mut self, on: bool) {
        let was = self.injecting;
        self.injecting = on;
        if !on {
            // Flash crowds are injection too: they end with it, so drain
            // phases really drain (they do not resume with injection).
            self.flash = None;
            self.flash_epoch += 1;
        }
        if on && !was {
            let gap = self.arrivals.next_gap(&mut self.rng_arrivals);
            self.engine.schedule_in(gap, Event::Inject);
            // The storage write/read drivers are injection too: they
            // went quiet with the toggle (their handlers early-return
            // without re-arming) and resume with it.
            if self.shared.cfg.storage.enabled {
                if self.shared.cfg.storage.write_rate > 0.0 {
                    let gap = exp_draw(
                        &mut self.rng_faults,
                        1.0 / self.shared.cfg.storage.write_rate,
                    );
                    self.engine.schedule_in(gap, Event::StorePut);
                }
                if self.shared.cfg.storage.read_rate > 0.0 {
                    let gap = exp_draw(
                        &mut self.rng_faults,
                        1.0 / self.shared.cfg.storage.read_rate,
                    );
                    self.engine.schedule_in(gap, Event::StoreGet);
                }
            }
        }
    }

    /// Runs the simulation until the clock reaches `t_end` (absolute
    /// simulation seconds); can be called repeatedly to continue a run.
    ///
    /// While the event loop runs, the thread's allocation counters (the
    /// counting global allocator, DESIGN.md §16) are snapshotted at entry
    /// and exit and the delta accumulated into `stats.alloc_events` /
    /// `stats.alloc_bytes` — so the ledger charges exactly the allocations
    /// the simulation performed, not harness setup or reporting. Without
    /// the `alloc-ledger` feature both deltas are zero.
    pub fn run_until(&mut self, t_end: f64) {
        let alloc_at_entry = terradir_allocledger::snapshot();
        while let Some(ev) = self.engine.pop_before(t_end) {
            self.handle(ev);
        }
        let alloc = terradir_allocledger::snapshot().since(alloc_at_entry);
        self.stats.alloc_events = self.stats.alloc_events.wrapping_add(alloc.events);
        self.stats.alloc_bytes = self.stats.alloc_bytes.wrapping_add(alloc.bytes);
        self.sync_draw_ledger();
    }

    /// Rebuilds `stats.rng_draws` from the construction baseline plus every
    /// live stream's counter. Idempotent — it *sets* absolute totals — and
    /// called after each [`System::run_until`], so the ledger in
    /// [`RunStats`] always reflects the run's total per-tag consumption.
    /// Two replays of one seed must produce equal ledgers; a mismatch means
    /// some code path drew from the wrong stream (DESIGN.md §15).
    fn sync_draw_ledger(&mut self) {
        // Rebuilt in place (clear + copy) so the per-`run_until` resync
        // reuses the ledger vec's buffer instead of reallocating.
        let ledger = &mut self.stats.rng_draws;
        ledger.clear();
        ledger.extend_from_slice(&self.setup_draws);
        for (tag, n) in [
            (self.rng_service.tag(), self.rng_service.draws()),
            (self.rng_protocol.tag(), self.rng_protocol.draws()),
            (self.rng_arrivals.tag(), self.rng_arrivals.draws()),
            (self.rng_faults.tag(), self.rng_faults.draws()),
        ] {
            ledger_add(ledger, tag, n);
        }
        for (tag, n) in self.stream.rng_draws() {
            ledger_add(ledger, tag, n);
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    /// Total simulation events processed by the engine so far (the speed
    /// baseline's events/sec numerator).
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.shared.ns
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.shared.cfg
    }

    /// The ownership assignment.
    pub fn assignment(&self) -> &OwnerAssignment {
        &self.shared.assignment
    }

    /// The per-server speed-factor table (id-indexed).
    pub fn speed_table(&self) -> &[f64] {
        &self.shared.speeds
    }

    /// Read access to a server's protocol state. Out-of-range ids (only
    /// constructible by hand) degrade to the first server.
    pub fn server(&self, id: ServerId) -> &ServerState {
        match self.ctxs.get(id.index()) {
            Some(c) => &c.server,
            None => match self.ctxs.first() {
                Some(c) => &c.server,
                None => unreachable!("a system always has at least one server"),
            },
        }
    }

    /// All servers, in id order.
    pub fn servers(&self) -> impl Iterator<Item = &ServerState> + '_ {
        self.ctxs.iter().map(|c| &c.server)
    }

    /// The fleet role map (`None` with roles off).
    pub fn roles(&self) -> Option<&crate::roles::RoleMap> {
        self.shared.roles.as_deref()
    }

    /// The tenant partition (`None` with tenants off).
    pub fn tenants(&self) -> Option<&crate::roles::TenantMap> {
        self.shared.tenants.as_deref()
    }

    /// Total replicas currently hosted across all servers.
    pub fn total_replicas(&self) -> usize {
        self.ctxs.iter().map(|c| c.server.replica_count()).sum()
    }

    /// Replicas currently hosted per namespace level.
    pub fn replicas_per_level(&self) -> Vec<usize> {
        // xtask: allow(alloc): harness diagnostic, not on the event path
        let mut out = vec![0usize; self.shared.ns.max_depth() as usize + 1];
        for c in &self.ctxs {
            for n in c.server.replica_ids() {
                if let Some(slot) = out.get_mut(self.shared.ns.depth(n) as usize) {
                    *slot += 1;
                }
            }
        }
        out
    }

    /// Runs every structural invariant checker over the live fleet and
    /// returns the combined violation list (empty when the system state is
    /// sound). Failed servers are skipped: their state is frozen, not
    /// maintained. Debug builds call this once per simulated second; tests
    /// call it directly at any point.
    pub fn audit(&self) -> Vec<String> {
        let now = self.engine.now();
        let mut v = Vec::new();
        for ctx in &self.ctxs {
            if !ctx.failed {
                let server = &ctx.server;
                v.extend(crate::invariants::audit_server(&self.shared.ns, server));
                v.extend(crate::invariants::check_lease_freshness(server, now));
                if let Some(roles) = self.shared.roles.as_deref() {
                    v.extend(crate::invariants::check_role_placement(roles, server));
                }
            }
        }
        v.extend(crate::invariants::check_pending_hygiene(
            self.shared.cfg.retry.enabled,
            self.stats.injected,
            self.stats.resolved,
            self.stats.dropped_total(),
            self.pending.len(),
        ));
        if self.shared.cfg.storage.enabled {
            for ctx in &self.ctxs {
                if !ctx.failed {
                    v.extend(crate::invariants::check_storage_soundness(
                        &self.shared.ns,
                        &self.shared.assignment,
                        &self.shared.cfg.storage,
                        self.shared.roles.as_deref(),
                        &self.committed,
                        &ctx.server,
                    ));
                }
            }
            v.extend(crate::invariants::check_storage_replica_counts(
                &self.shared.ns,
                &self.shared.assignment,
                &self.shared.cfg.storage,
                self.shared.roles.as_deref(),
                self.committed.len(),
                self.ctxs.iter().map(|c| &c.server),
            ));
        }
        v
    }

    /// Forward-emission audit: checks every `Query` a server just emitted
    /// against the sender's current state (`invariants::check_incremental_progress`).
    fn audit_outgoing(&self, from: ServerId, effects: &[Outgoing]) {
        let Some(sender) = self.ctxs.get(from.index()).map(|c| &c.server) else {
            return;
        };
        for o in effects {
            if let Outgoing::Send {
                msg: Message::Query(p),
                ..
            } = o
            {
                let violations = crate::invariants::check_incremental_progress(sender, p);
                debug_assert!(
                    violations.is_empty(),
                    "forward invariants violated: {violations:#?}"
                );
            }
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Inject => self.inject(),
            Event::Deliver { to, from, msg } => self.deliver(to, from, msg),
            Event::ServiceDone { server, epoch } => self.finish_service(server, epoch),
            Event::QueryTimeout { id, attempt } => self.on_query_timeout(id, attempt),
            Event::ChurnFail { server } => self.churn_fail(server),
            Event::ChurnRecover { server } => self.churn_recover(server),
            Event::Chaos { idx } => self.apply_chaos(idx),
            Event::CutStart { cut } => {
                let groups = self
                    .shared
                    .cfg
                    .partitions
                    .cuts
                    .get(cut)
                    // xtask: allow(alloc): scheduled cut, a handful per run; the clone detaches the cfg borrow so apply_cut may mutate self
                    .map(|w| w.groups.clone());
                if let Some(g) = groups {
                    self.apply_cut(&g);
                }
            }
            Event::CutStop => self.heal_cut(),
            Event::FlashInject { epoch } => self.flash_inject(epoch),
            Event::StorePut => self.store_put(),
            Event::StoreGet => self.store_get(),
            Event::StoreReadDone { id } => self.finish_read(id),
            Event::GossipRound => self.gossip_round(),
            // xtask: region(dispatch): begin — periodic sweeps: maintenance/sampling step every server's context
            Event::Maintain => {
                let now = self.engine.now();
                let n = self.ctxs.len();
                // Phase 1 — compute (order-independent): each live
                // server's maintenance touches only its own context and
                // draws no randomness, writing its effects into its own
                // buffer. The shadow-exec permutation may step this
                // sweep in any order.
                let order = self.sweep_order(n);
                let mut bufs = std::mem::take(&mut self.maint_bufs);
                for &oi in &order {
                    let i = oi as usize;
                    let Some(ctx) = self.ctxs.get_mut(i) else {
                        continue;
                    };
                    if ctx.failed {
                        continue;
                    }
                    let Some(buf) = bufs.get_mut(i) else {
                        continue;
                    };
                    debug_assert!(buf.is_empty());
                    ctx.server.maintenance(now, buf);
                }
                // Phase 2 — apply (canonical id order): dispatch draws
                // loss/jitter randomness and schedules calendar events,
                // so effects apply in id order for byte-identical replay.
                for i in 0..n {
                    let Some(buf) = bufs.get_mut(i) else {
                        continue;
                    };
                    self.dispatch_effects(ServerId(i as u32), buf);
                }
                self.maint_bufs = bufs;
                self.perm_buf = order;
                self.engine
                    .schedule_in(config::LOAD_WINDOW, Event::Maintain);
            }
            Event::Sample => {
                let now = self.engine.now();
                let n = self.ctxs.len();
                // Phase 1 — compute: each meter rolls its own window
                // (no RNG, own context only), in shadow-permutable order.
                let order = self.sweep_order(n);
                for &oi in &order {
                    if let Some(ctx) = self.ctxs.get_mut(oi as usize) {
                        ctx.util.roll(now);
                    }
                }
                self.perm_buf = order;
                // Phase 2 — accumulate in canonical id order: float
                // addition is not associative, so the reduction order is
                // pinned regardless of the sweep permutation.
                let mut sum = 0.0;
                let mut max = 0.0f64;
                for ctx in &self.ctxs {
                    let v = ctx.util.measured();
                    sum += v;
                    max = max.max(v);
                }
                self.stats
                    .load_mean_per_sec
                    .push(sum / self.ctxs.len() as f64);
                self.stats.load_max_per_sec.push(max);
                if self.shared.cfg.storage.enabled {
                    self.measure_durability();
                }
                if cfg!(debug_assertions) {
                    let violations = self.audit();
                    debug_assert!(
                        violations.is_empty(),
                        "protocol invariants violated at t={now}: {violations:#?}"
                    );
                }
                self.engine.schedule_in(1.0, Event::Sample);
            } // xtask: region(dispatch): end
        }
    }

    /// A uniformly random live server, drawn from the fault RNG (rejection
    /// sampling with a deterministic linear fallback). `None` only when
    /// the whole fleet is dead. Never draws while no server is failed, so
    /// failure-free runs spend zero fault randomness here.
    fn random_live_origin(&mut self) -> Option<ServerId> {
        use rand::Rng;
        let n = self.shared.cfg.n_servers;
        if self.failed_count() >= n as usize {
            return None;
        }
        for _ in 0..64 {
            let s = ServerId(self.rng_faults.gen_range(0..n));
            if !self.is_failed(s) {
                return Some(s);
            }
        }
        (0..n).map(ServerId).find(|&s| !self.is_failed(s))
    }

    /// The timeout armed for a given attempt number: capped exponential
    /// backoff `min(base · 2^(attempt-1), cap)`.
    fn timeout_for(attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(52);
        (config::RETRY_BASE_TIMEOUT * f64::powi(2.0, exp as i32)).min(config::RETRY_CAP)
    }

    /// Issues a new query from `src` for `target` — the one path for
    /// stream and flash-crowd injections alike: allocates its id, counts
    /// the injection (per side and per tenant too), arms the first retry
    /// timer under the reliability layer, and delivers it at its origin.
    fn issue_query(&mut self, src: ServerId, target: NodeId) {
        let now = self.engine.now();
        let id = self.next_query_id;
        self.next_query_id += 1;
        let minority = self.is_minority(src);
        let tenant = self.shared.tenant_of(target);
        self.stats.on_injected(now, minority, tenant);
        if self.shared.cfg.retry.enabled {
            let pending = Pending {
                origin: src,
                target,
                issued_at: now,
                attempt: 1,
            };
            self.pending.insert(id, pending);
            let first = Event::QueryTimeout { id, attempt: 1 };
            self.engine.schedule_in(Self::timeout_for(1), first);
        }
        let packet = QueryPacket::new(id, src, target, now);
        self.deliver(src, None, Message::Query(packet));
    }

    fn inject(&mut self) {
        if !self.injecting {
            return;
        }
        let now = self.engine.now();
        let (mut src, dst) = self.stream.next_query(now);
        // Clients attach to live servers: redirect an injection aimed at a
        // failed origin to a uniformly random live one (a deterministic
        // "next live" scan would funnel every orphaned client onto the
        // failed server's successor and manufacture a hot spot).
        if self.is_failed(src) {
            if let Some(live) = self.random_live_origin() {
                src = live;
            } else {
                // Whole fleet dead: the query is never issued, but the
                // arrival process must keep ticking or injection would
                // silently stop for the rest of the run.
                let gap = self.arrivals.next_gap(&mut self.rng_arrivals);
                self.engine.schedule_in(gap, Event::Inject);
                return;
            }
        }
        self.issue_query(src, dst);
        let gap = self.arrivals.next_gap(&mut self.rng_arrivals);
        self.engine.schedule_in(gap, Event::Inject);
    }

    /// A retry timer fired. Stale unless the pending record still exists
    /// at exactly this attempt number (a resolution removes the record; a
    /// retry bumps the attempt). On a live timeout: either finalize the
    /// query as a `Timeout` drop (attempt budget spent) or re-issue it
    /// from a live origin with the *original* issue time, so latency
    /// measures client-perceived time including all retries.
    fn on_query_timeout(&mut self, id: u64, attempt: u32) {
        let now = self.engine.now();
        let (origin0, target, issued_at) = match self.pending.get(&id) {
            Some(p) if p.attempt == attempt => (p.origin, p.target, p.issued_at),
            _ => return,
        };
        if attempt >= config::RETRY_MAX_ATTEMPTS {
            self.pending.remove(&id);
            let tenant = self.shared.tenant_of(target);
            self.stats.on_lost(now, DropKind::Timeout, true, tenant);
            return;
        }
        // Re-resolve the origin, excluding hosts observed dead.
        let origin = if self.is_failed(origin0) {
            self.random_live_origin()
        } else {
            Some(origin0)
        };
        let next = attempt + 1;
        if let Some(p) = self.pending.get_mut(&id) {
            p.attempt = next;
            if let Some(o) = origin {
                p.origin = o;
            }
        }
        self.engine.schedule_in(
            Self::timeout_for(next),
            Event::QueryTimeout { id, attempt: next },
        );
        if let Some(origin) = origin {
            self.stats.retries += 1;
            let packet = QueryPacket::new(id, origin, target, issued_at);
            self.deliver(origin, None, Message::Query(packet));
        }
        // With the whole fleet dead no attempt can be issued; the armed
        // timer keeps the budget ticking so the query still finalizes.
    }

    /// Queue admission: bounded for query traffic ("queries arriving in
    /// excess being dropped"), unbounded for the rare control messages.
    fn deliver(&mut self, to: ServerId, from: Option<ServerId>, msg: Message) {
        let now = self.engine.now();
        let retry = self.shared.cfg.retry.enabled;
        // Partition enforcement (DESIGN.md §13): a protocol send crossing
        // the active cut is dropped at delivery time — in-flight messages
        // die when a cut lands mid-hop. Injections and substrate feedback
        // (`from = None`) originate locally and never cross a wire.
        if let Some(sender) = from {
            if self.crosses_cut(sender, to) {
                self.stats.messages_cut += 1;
                // The sender observes the failed send exactly as it would
                // a dead host (PR 2's negative-caching path). The far
                // side is unreachable, not dead: entries clear via
                // proof-of-life after the heal or expire at `DEAD_TTL`.
                if retry {
                    self.notify(sender, Message::HostDown { host: to });
                }
                if msg.is_query_traffic() {
                    let tenant = self.shared.tenant_of_msg(&msg);
                    self.stats.on_lost(now, DropKind::Partition, retry, tenant);
                }
                return;
            }
        }
        if self.is_failed(to) {
            self.stats.messages_to_dead += 1;
            // Transport-level failure detection: the previous hop learns
            // its send failed (a connection reset in a real deployment)
            // and corrects the map it routed from. The query itself is
            // lost — TerraDir has no hop-level retransmission.
            if let Message::Query(p) = &msg {
                if let (Some(prev), Some(via)) = (p.prev_hop, p.intended_via) {
                    self.notify(
                        prev,
                        Message::NotHosting {
                            node: via,
                            from: to,
                        },
                    );
                }
            }
            // Negative-caching feedback: the live sender — whatever the
            // message kind — learns the host is unreachable and purges it
            // from its soft state (DESIGN.md §12).
            if let (true, Some(sender)) = (retry, from) {
                self.notify(sender, Message::HostDown { host: to });
            }
            if msg.is_query_traffic() {
                // The one loss without a `DropKind` under retries.
                if retry {
                    self.stats.on_attempt_dead();
                } else {
                    let tenant = self.shared.tenant_of_msg(&msg);
                    self.stats.on_lost(now, DropKind::Queue, false, tenant);
                }
            }
            return;
        }
        if cfg!(debug_assertions) {
            if let (Some(sender), Some(side)) = (from, self.cut_side.as_deref()) {
                let violations = crate::invariants::check_cut_delivery(side, sender, to);
                debug_assert!(
                    violations.is_empty(),
                    "partition invariant violated: {violations:#?}"
                );
            }
        }
        // xtask: region(dispatch): begin — queueing executor: admission, service start/finish act on the target's context
        let Some(ctx) = self.ctxs.get_mut(to.index()) else {
            return;
        };
        // Per-server admission bound (DESIGN.md §19): relays run deeper
        // queues; with roles off every entry equals the scalar capacity.
        let cap = ctx.queue_cap;
        let q = &mut ctx.queue;
        if msg.is_query_traffic() && q.len() >= cap {
            if !self.shared.cfg.shedding {
                let tenant = self.shared.tenant_of_msg(&msg);
                self.stats.on_lost(now, DropKind::Queue, retry, tenant);
                return;
            }
            // Graceful degradation (DESIGN.md §13): shed the deepest-TTL
            // query — the one with the most remaining hop budget, i.e.
            // the freshest, least-invested one — in favor of deeper
            // traffic. Every hop a query has taken is service capacity
            // the fleet already paid; discarding invested work raises
            // the mean cost per resolution, so under overload the fresh
            // query is the cheapest to lose. Results are never shed
            // (badness −1): a result is a query one delivery away from
            // resolving. If nothing queued is strictly worse than the
            // arrival, the arrival itself is shed.
            let ttl = i64::from(config::TTL_HOPS);
            let badness = |m: &Message| match m {
                Message::Query(p) => ttl - i64::from(p.hops),
                _ => -1,
            };
            let incoming = badness(&msg);
            let victim = q
                .iter()
                .enumerate()
                .filter(|(_, m)| m.is_query_traffic())
                .max_by_key(|&(_, m)| badness(m))
                .filter(|&(_, m)| badness(m) > incoming)
                .map(|(i, _)| i);
            // Keep hold of whichever message was shed (the evicted victim
            // or the arrival itself) for tenant attribution.
            let shed = match victim {
                Some(i) => match q.remove(i) {
                    Some(v) => {
                        q.push_back(msg);
                        v
                    }
                    None => msg,
                },
                None => msg,
            };
            let tenant = self.shared.tenant_of_msg(&shed);
            self.stats.on_lost(now, DropKind::Shed, retry, tenant);
            if victim.is_some() {
                self.try_start(to);
            }
            return;
        }
        q.push_back(msg);
        self.try_start(to);
    }

    fn try_start(&mut self, s: ServerId) {
        let i = s.index();
        let now = self.engine.now();
        let Some(ctx) = self.ctxs.get_mut(i) else {
            return;
        };
        if ctx.in_service.is_some() {
            return;
        }
        let Some(msg) = ctx.queue.pop_front() else {
            return;
        };
        let mut d = self.service.sample(&mut self.rng_service) / ctx.speed;
        match &msg {
            Message::Query(_) => self.stats.query_messages += 1,
            // Result delivery and control traffic are lightweight: the
            // paper's service time models routing steps, not the direct
            // response to the querier.
            _ => d *= config::CONTROL_SERVICE_FACTOR,
        }
        ctx.server.record_busy(now, d);
        ctx.util.record_busy(now, d);
        ctx.in_service = Some(msg);
        let epoch = ctx.epoch;
        self.engine
            .schedule_in(d, Event::ServiceDone { server: s, epoch });
    }

    fn finish_service(&mut self, s: ServerId, epoch: u64) {
        let i = s.index();
        let now = self.engine.now();
        debug_assert!(self.out_buf.is_empty());
        let mut out = std::mem::take(&mut self.out_buf);
        {
            let Some(ctx) = self.ctxs.get_mut(i) else {
                self.out_buf = out;
                return;
            };
            if ctx.epoch != epoch {
                // Completion scheduled before a crash: the message already
                // died (and was accounted) in fail_server.
                self.out_buf = out;
                return;
            }
            let Some(msg) = ctx.in_service.take() else {
                debug_assert!(false, "service completion without a message in service");
                self.out_buf = out;
                return;
            };
            let was_query = matches!(msg, Message::Query(_));
            ctx.server
                .handle_message(now, msg, &mut self.rng_protocol, &mut out);
            if was_query {
                // "A server checks its load after each processed query."
                ctx.server
                    .maybe_start_session(now, &mut self.rng_protocol, &mut out);
            }
        }
        self.out_buf = out;
        self.dispatch(s);
        self.try_start(s);
    }
    // xtask: region(dispatch): end

    /// Interprets the effects a server emitted.
    /// Deterministic wire-byte accounting (DESIGN.md §18): every message
    /// crossing the network is charged its modeled size at send time —
    /// before any loss draw, since a lost packet still spent its bytes.
    /// Local hand-offs and substrate-synthesized feedback (`from = None`
    /// deliveries) never touch a wire and are never charged.
    fn charge_wire(&mut self, msg: &Message) {
        let bytes = msg.wire_bytes();
        self.stats.bytes_on_wire += bytes;
        if matches!(
            msg,
            Message::GossipDigest { .. } | Message::GossipPush { .. } | Message::GossipReply { .. }
        ) {
            self.stats.gossip_bytes += bytes;
        }
    }

    /// Sends `msg` from `from` to `to` at flat network delay, outside the
    /// loss and jitter model: substrate-scheduled traffic (storage
    /// propagation, reconcile pushes, gossip) must draw nothing from the
    /// fault stream it shares with churn and chaos. It still carries its
    /// sender, so cuts and dead targets lose it like protocol traffic,
    /// and it counts as control traffic, charged to the wire unless it
    /// stays local.
    fn send_direct(&mut self, from: ServerId, to: ServerId, msg: Message) {
        self.stats.control_messages += 1;
        if to != from {
            self.charge_wire(&msg);
        }
        let delay = self.shared.cfg.network_delay;
        let from = Some(from);
        self.engine
            .schedule_in(delay, Event::Deliver { to, from, msg });
    }

    /// Substrate feedback (`HostDown`, `NotHosting`) to `to` if it is
    /// live: flat network delay, no sender, never charged to the wire.
    fn notify(&mut self, to: ServerId, msg: Message) {
        if !self.is_failed(to) {
            let delay = self.shared.cfg.network_delay;
            let from = None;
            self.engine
                .schedule_in(delay, Event::Deliver { to, from, msg });
        }
    }

    fn dispatch(&mut self, from: ServerId) {
        let mut effects = std::mem::take(&mut self.out_buf);
        self.dispatch_effects(from, &mut effects);
        self.out_buf = effects;
    }

    /// Applies a drained effect buffer (the buffer keeps its capacity —
    /// the Maintain sweep and `dispatch` reuse theirs every round).
    fn dispatch_effects(&mut self, from: ServerId, effects: &mut Vec<Outgoing>) {
        let now = self.engine.now();
        if cfg!(debug_assertions) {
            self.audit_outgoing(from, effects);
        }
        for o in effects.drain(..) {
            match o {
                Outgoing::Send { to, msg } => {
                    if msg.is_control() {
                        self.stats.control_messages += 1;
                    }
                    if to == from {
                        // Local hand-off: no wire, no faults.
                        self.engine.schedule_in(
                            0.0,
                            Event::Deliver {
                                to,
                                from: Some(from),
                                msg,
                            },
                        );
                        continue;
                    }
                    self.charge_wire(&msg);
                    let mut delay = self.shared.cfg.network_delay;
                    let loss_prob = self.shared.cfg.faults.loss_prob;
                    let jitter = self.shared.cfg.faults.jitter;
                    if loss_prob > 0.0 {
                        use rand::Rng;
                        if self.rng_faults.gen::<f64>() < loss_prob {
                            self.stats.messages_lost += 1;
                            if msg.is_query_traffic() {
                                let retry = self.shared.cfg.retry.enabled;
                                let tenant = self.shared.tenant_of_msg(&msg);
                                self.stats.on_lost(now, DropKind::Lost, retry, tenant);
                            }
                            continue;
                        }
                    }
                    if jitter > 0.0 {
                        use rand::Rng;
                        delay += self.rng_faults.gen::<f64>() * jitter;
                    }
                    self.engine.schedule_in(
                        delay,
                        Event::Deliver {
                            to,
                            from: Some(from),
                            msg,
                        },
                    );
                }
                Outgoing::Event(e) => self.on_protocol_event(now, from, e),
            }
        }
    }

    fn on_protocol_event(&mut self, now: f64, at: ServerId, e: ProtocolEvent) {
        match e {
            ProtocolEvent::Resolved {
                id,
                target,
                issued_at,
                hops,
                misrouted,
                detour_hops,
                ..
            } => {
                let counts = if self.shared.cfg.retry.enabled {
                    // Only the first resolution of a still-pending query
                    // counts: retries can race a slow earlier attempt, and
                    // a resolution after timeout exhaustion arrives too
                    // late (the query already finalized as a drop).
                    self.pending.remove(&id).is_some()
                } else {
                    true
                };
                if counts {
                    self.stats
                        .on_resolved(now, issued_at, hops, misrouted, detour_hops);
                    if let Some(t) = self.shared.tenant_of(target) {
                        self.stats.on_tenant_resolved(t, now - issued_at, misrouted);
                    }
                    // Per-side availability numerator: results deliver at
                    // the origin, so `at` is the side the query was
                    // served to.
                    if self.is_minority(at) {
                        self.stats.resolved_per_sec_minority.record(now);
                    } else {
                        self.stats.resolved_per_sec_majority.record(now);
                    }
                }
            }
            ProtocolEvent::DroppedTtl { target, .. } => {
                let tenant = self.shared.tenant_of(target);
                let retry = self.shared.cfg.retry.enabled;
                self.stats.on_lost(now, DropKind::Ttl, retry, tenant);
            }
            ProtocolEvent::DroppedStuck { target, .. } => {
                let tenant = self.shared.tenant_of(target);
                let retry = self.shared.cfg.retry.enabled;
                self.stats.on_lost(now, DropKind::Stuck, retry, tenant);
            }
            ProtocolEvent::HostMarkedDead { .. } => self.stats.negative_evictions += 1,
            ProtocolEvent::Misrouted { .. } => self.stats.misroutes += 1,
            ProtocolEvent::LeaseExpired { count, .. } => self.stats.lease_evictions += count,
            ProtocolEvent::ReplicaCreated { node, .. } => {
                let level = self.shared.ns.depth(node);
                self.stats.on_replica_created(now, level);
            }
            ProtocolEvent::ReplicaDeleted { .. } => self.stats.replicas_deleted += 1,
            ProtocolEvent::SessionStarted { .. } => self.stats.sessions_started += 1,
            ProtocolEvent::SessionCompleted { .. } => self.stats.sessions_completed += 1,
            ProtocolEvent::SessionAborted { .. } => self.stats.sessions_aborted += 1,
            ProtocolEvent::DataFetched { ok, .. } => {
                if ok {
                    self.stats.data_fetches_ok += 1;
                } else {
                    self.stats.data_fetches_failed += 1;
                }
            }
            ProtocolEvent::GossipSolicited { at, from, digest } => {
                // Object arm of a digest exchange (DESIGN.md §18): from
                // the copies `at` holds, select the versions the digest
                // shows the gossiper missing or holding older —
                // restricted to objects whose replica set includes the
                // gossiper, bounded by `gossip.window` — and pull them
                // back with a reply. A second exchange at the same state
                // selects nothing: the round is idempotent.
                let window = self.shared.cfg.gossip.window as usize;
                let mut targets = std::mem::take(&mut self.store_targets);
                let mut out = std::mem::take(&mut self.gossip_objects);
                let mut key_buf = std::mem::take(&mut self.gossip_key_buf);
                out.clear();
                if let Some(server) = self.ctxs.get(at.index()).map(|c| &c.server) {
                    let shared = &self.shared;
                    crate::gossip::select_pull(
                        &shared.ns,
                        &digest,
                        server.stored_objects(),
                        |node| {
                            shared.replica_targets(node, &mut targets);
                            targets.contains(&from)
                        },
                        window,
                        &mut key_buf,
                        &mut out,
                    );
                }
                if !out.is_empty() {
                    let msg = Message::GossipReply {
                        from: at,
                        // xtask: allow(alloc): each reply owns its payload
                        objects: out.clone(),
                    };
                    self.send_direct(at, from, msg);
                }
                self.store_targets = targets;
                self.gossip_objects = out;
                self.gossip_key_buf = key_buf;
            }
            ProtocolEvent::StorageReadReply { id, obj } => {
                let closed = match self.reads.get_mut(&id) {
                    Some(r) => {
                        r.got += 1;
                        if let Some(o) = obj {
                            r.best = Some(match r.best {
                                Some(b) => crate::storage::lww_merge(b, o),
                                None => o,
                            });
                        }
                        r.got >= r.expect
                    }
                    // Late reply after the read finalized: ignored.
                    None => false,
                };
                if closed {
                    self.finish_read(id);
                }
            }
        }
    }

    /// Whether a partition cut is currently severing the fleet.
    pub fn cut_active(&self) -> bool {
        self.cut_side.is_some()
    }

    /// For tests: servers classified as the minority side of the most
    /// recent effective cut (sticky across the heal).
    pub fn minority_servers(&self) -> Vec<ServerId> {
        self.minority
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| ServerId(i as u32))
            .collect() // xtask: allow(alloc): test accessor, not on the event path
    }

    /// For tests: outstanding queries in the retry layer's pending table.
    pub fn pending_queries(&self) -> usize {
        self.pending.len()
    }

    /// For tests: owner of a node per the assignment.
    pub fn owner_of(&self, node: NodeId) -> ServerId {
        self.shared.assignment.owner(node)
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("servers", &self.ctxs.len())
            .field("nodes", &self.shared.ns.len())
            .field("now", &self.engine.now())
            .field("injected", &self.stats.injected)
            .finish_non_exhaustive()
    }
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

    fn small_system(cfg_mod: impl FnOnce(&mut Config)) -> System {
        let ns = balanced_tree(2, 5); // 63 nodes
        let mut cfg = Config::paper_default(8).with_seed(7);
        cfg_mod(&mut cfg);
        System::new(ns, cfg, StreamPlan::unif(60.0), 40.0)
    }

    #[test]
    fn low_load_resolves_everything() {
        let mut sys = small_system(|_| {});
        sys.run_until(30.0);
        let st = sys.stats();
        assert!(st.injected > 500, "injected {}", st.injected);
        // At trivial utilization nothing should drop; allow in-flight tail.
        assert_eq!(st.dropped_total(), 0, "drops at low load");
        assert!(
            st.resolved as f64 >= st.injected as f64 * 0.95,
            "resolved {} of {}",
            st.resolved,
            st.injected
        );
    }

    #[test]
    fn latency_includes_network_and_service() {
        let mut sys = small_system(|_| {});
        sys.run_until(20.0);
        let mean = sys.stats().latency.mean().expect("resolved queries");
        // At least one service (≥ ~20ms mean) and usually ≥ 1 network hop.
        assert!(mean > 0.02, "mean latency {mean}");
        assert!(mean < 2.0, "mean latency {mean} absurdly high at low load");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sys = small_system(|_| {});
            sys.run_until(10.0);
            (
                sys.stats().injected,
                sys.stats().resolved,
                sys.stats().replicas_created,
                sys.stats().latency.mean(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeds_change_outcomes() {
        let run = |seed| {
            let ns = balanced_tree(2, 5);
            let cfg = Config::paper_default(8).with_seed(seed);
            let mut sys = System::new(ns, cfg, StreamPlan::unif(60.0), 40.0);
            sys.run_until(10.0);
            sys.stats().latency.mean()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn overload_without_replication_drops_queries() {
        let ns = balanced_tree(2, 5);
        let mut cfg = Config::base_system(8).with_seed(3);
        cfg.cache_slots = 0;
        // 8 servers × 50 msg/s capacity = 400 steps/s; λ=200 with ~6 hops
        // needs ~1200 — heavy overload.
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.2, 60.0), 200.0);
        sys.run_until(30.0);
        assert!(
            sys.stats().drop_fraction() > 0.2,
            "expected heavy drops, got {}",
            sys.stats().drop_fraction()
        );
    }

    #[test]
    fn replication_reduces_drops_under_skew() {
        let run = |cfg: Config| {
            let ns = balanced_tree(2, 5);
            let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.5, 60.0), 120.0);
            sys.run_until(40.0);
            sys.stats().drop_fraction()
        };
        let without = run(Config::caching_only(8).with_seed(11));
        let with = run(Config::paper_default(8).with_seed(11));
        assert!(
            with < without,
            "replication should reduce drops: with={with} without={without}"
        );
    }

    #[test]
    fn replication_creates_replicas_under_load() {
        let ns = balanced_tree(2, 5);
        let cfg = Config::paper_default(8).with_seed(5);
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.5, 60.0), 120.0);
        sys.run_until(30.0);
        assert!(
            sys.stats().replicas_created > 0,
            "hot-spot load must trigger replication"
        );
        assert!(sys.total_replicas() > 0);
        // Control traffic stays well below query traffic (the paper reports
        // two orders of magnitude at 4096 servers; at this 8-server toy
        // scale the gap narrows but must remain decisive).
        assert!(sys.stats().control_messages * 5 < sys.stats().query_messages);
    }

    #[test]
    fn replica_caps_respected_globally() {
        let ns = balanced_tree(2, 5);
        let cfg = Config::paper_default(8).with_seed(5);
        let r_fact = cfg.r_fact;
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.5, 60.0), 150.0);
        sys.run_until(30.0);
        for s in sys.servers() {
            let cap = (r_fact * s.owned_count() as f64).floor() as usize;
            assert!(
                s.replica_count() <= cap,
                "server {} exceeds replica cap: {} > {cap}",
                s.id(),
                s.replica_count()
            );
        }
    }

    #[test]
    fn utilization_samples_are_recorded() {
        let mut sys = small_system(|_| {});
        sys.run_until(10.0);
        let st = sys.stats();
        assert!(st.load_mean_per_sec.len() >= 9);
        assert!(st
            .load_mean_per_sec
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
        assert!(st
            .load_max_per_sec
            .iter()
            .zip(&st.load_mean_per_sec)
            .all(|(mx, mn)| mx >= mn));
    }

    #[test]
    fn injection_toggle_drains_cleanly() {
        let mut sys = small_system(|_| {});
        sys.run_until(5.0);
        sys.set_injection(false);
        let frozen = sys.stats().injected;
        sys.run_until(15.0);
        assert_eq!(sys.stats().injected, frozen, "no injection while off");
        let st = sys.stats();
        assert_eq!(st.resolved + st.dropped_total(), st.injected);
        // Toggling back on resumes arrivals.
        sys.set_injection(true);
        sys.run_until(20.0);
        assert!(sys.stats().injected > frozen);
    }

    #[test]
    fn heterogeneous_speeds_are_normalized() {
        let ns = balanced_tree(2, 5);
        let mut cfg = Config::paper_default(8).with_seed(9);
        cfg.speed_spread = 3.0;
        let sys = System::new(ns, cfg, StreamPlan::unif(10.0), 10.0);
        let mean: f64 = sys.speed_table().iter().sum::<f64>() / sys.speed_table().len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "speed mean {mean}");
        assert!(sys.speed_table().iter().any(|&s| s > 1.2));
        assert!(sys.speed_table().iter().any(|&s| s < 0.8));
        assert!(sys
            .speed_table()
            .iter()
            .all(|&s| (1.0 / 3.5..=3.5).contains(&s)));
    }

    #[test]
    fn failed_server_gets_no_service() {
        let mut sys = small_system(|_| {});
        sys.run_until(2.0);
        sys.fail_server(ServerId(0));
        let busy_at_fail = sys.server(ServerId(0)).measured_load();
        let _ = busy_at_fail;
        sys.run_until(10.0);
        // The dead server's utilization meter reads zero in steady state.
        let m = &sys.ctxs[0].util;
        assert_eq!(m.measured(), 0.0);
    }

    #[test]
    fn run_until_is_resumable() {
        let mut sys = small_system(|_| {});
        sys.run_until(5.0);
        let early = sys.stats().injected;
        sys.run_until(10.0);
        assert!(sys.stats().injected > early);
        assert!((sys.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn recovering_replication_initiator_aborts_session_cleanly() {
        let mut sys = small_system(|_| {});
        sys.run_until(2.0);
        let id = ServerId(1);
        let now = sys.now();
        // Plant an in-flight session with this server as initiator, then
        // crash and recover it: the session must die with the reset (no
        // stranded probe can complete against the rebooted state) and the
        // abort must enter the ledger.
        sys.ctxs[id.index()].server.session =
            Some(crate::replication::Session::new_for_tests(ServerId(2), now));
        let before = sys.stats().sessions_aborted;
        sys.fail_server(id);
        sys.recover_server(id);
        assert!(
            sys.ctxs[id.index()].server.session.is_none(),
            "session survived initiator recovery"
        );
        assert_eq!(sys.stats().sessions_aborted, before + 1);
        sys.run_until(10.0);
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
    }

    #[test]
    fn warm_rejoin_pushes_advertisements_only_when_enabled() {
        let run = |enabled: bool| {
            let mut sys = small_system(|c| c.reconcile.enabled = enabled);
            sys.run_until(2.0);
            sys.fail_server(ServerId(1));
            sys.recover_server(ServerId(1));
            sys.run_until(4.0);
            sys.stats().reconcile_pushes
        };
        let on = run(true);
        let cfg = Config::paper_default(8);
        assert!(on > 0, "enabled rejoin must push advertisements");
        assert!(
            on <= u64::from(cfg.reconcile.fanout) * u64::from(config::RECONCILE_BATCH),
            "pushes {on} exceed fanout × batch bound"
        );
        assert_eq!(run(false), 0, "disabled reconcile must stay silent");
    }

    #[test]
    fn storage_disabled_touches_nothing() {
        let mut sys = small_system(|_| {});
        sys.run_until(10.0);
        let st = sys.stats();
        assert_eq!(st.objects_written, 0);
        assert_eq!(st.objects_alive, 0);
        assert_eq!(st.objects_lost, 0);
        assert_eq!(st.object_puts, 0);
        assert_eq!(st.object_reads, 0);
        assert_eq!(st.reads_failed, 0);
        assert_eq!(st.stale_reads, 0);
        assert!(sys.servers().all(|s| s.stored_object_count() == 0));
    }

    #[test]
    fn storage_enabled_writes_reads_and_audits_clean() {
        let mut sys = small_system(|c| {
            c.storage.enabled = true;
            c.gossip.enabled = true;
            c.gossip.culture = GossipCulture::Taciturn;
        });
        sys.run_until(15.0);
        let (alive, lost) = sys.measure_durability();
        let st = sys.stats();
        assert!(st.object_puts > 0, "write driver must commit writes");
        assert!(st.object_reads > 0, "read driver must complete reads");
        assert_eq!(
            st.objects_written,
            alive + lost,
            "durability identity must be exact"
        );
        // No failures: every pre-seeded object stays alive and no read
        // comes back empty.
        assert_eq!(lost, 0, "objects lost without any churn");
        assert_eq!(st.reads_failed, 0, "failed reads without any churn");
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
    }

    #[test]
    fn storage_accounting_is_exact_under_churn() {
        let mut sys = small_system(|c| {
            c.storage.enabled = true;
            c.gossip.enabled = true;
            c.gossip.culture = GossipCulture::Taciturn;
            c.churn.enabled = true;
            c.churn.mean_uptime = 4.0;
            c.churn.mean_downtime = 2.0;
            c.churn.stop = 25.0;
        });
        sys.run_until(30.0);
        let (alive, lost) = sys.measure_durability();
        assert_eq!(sys.stats().objects_written, alive + lost);
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
    }

    #[test]
    fn storage_runs_replay_byte_identically() {
        let run = || {
            let mut sys = small_system(|c| {
                c.storage.enabled = true;
                c.gossip.enabled = true;
                c.gossip.culture = GossipCulture::Taciturn;
                c.churn.enabled = true;
                c.churn.mean_uptime = 5.0;
                c.churn.mean_downtime = 2.0;
                c.churn.stop = 10.0;
            });
            sys.run_until(12.0);
            format!("{:?}", sys.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gossip_disabled_touches_nothing() {
        let mut sys = small_system(|_| {});
        sys.run_until(10.0);
        let st = sys.stats();
        // Query traffic is on the wire books, but not one gossip byte —
        // the round never arms, no gossip message ever exists.
        assert!(st.bytes_on_wire > 0, "queries must be charged");
        assert_eq!(st.gossip_bytes, 0, "gossip-off run charged gossip bytes");
    }

    #[test]
    fn gossip_replays_bitwise() {
        let run = |culture: GossipCulture| {
            let mut sys = small_system(|c| {
                c.gossip.enabled = true;
                c.gossip.culture = culture;
                c.gossip.interval = 0.5;
                c.storage.enabled = true;
                c.churn.enabled = true;
                c.churn.mean_uptime = 4.0;
                c.churn.mean_downtime = 2.0;
                c.churn.stop = 10.0;
            });
            sys.run_until(12.0);
            format!("{:?}", sys.stats())
        };
        for culture in [
            GossipCulture::Chatty,
            GossipCulture::Taciturn,
            GossipCulture::Hybrid,
        ] {
            assert_eq!(run(culture), run(culture), "replay diverged: {culture:?}");
        }
    }

    #[test]
    fn gossip_cultures_exchange_bytes_and_audit_clean() {
        for culture in [
            GossipCulture::Chatty,
            GossipCulture::Taciturn,
            GossipCulture::Hybrid,
        ] {
            let mut sys = small_system(|c| {
                c.gossip.enabled = true;
                c.gossip.culture = culture;
                c.gossip.interval = 0.5;
                c.storage.enabled = true;
            });
            sys.run_until(10.0);
            let st = sys.stats();
            assert!(st.gossip_bytes > 0, "{culture:?} exchanged no bytes");
            assert!(
                st.gossip_bytes <= st.bytes_on_wire,
                "{culture:?} gossip bytes exceed the wire total"
            );
            assert!(sys.audit().is_empty(), "{culture:?}: {:?}", sys.audit());
        }
    }

    #[test]
    fn gossip_digests_repair_objects() {
        // Crash+recover wipes server 1's object store. The digest
        // exchange restores its copies: the rejoined server's fresh
        // snapshot digest disclaims every object key, so peers
        // pull-reply the versions it is a member of.
        let mut sys = small_system(|c| {
            c.storage.enabled = true;
            c.gossip.enabled = true;
            c.gossip.culture = GossipCulture::Taciturn;
            c.gossip.interval = 0.5;
        });
        sys.run_until(2.0);
        sys.fail_server(ServerId(1));
        sys.recover_server(ServerId(1));
        let wiped = sys
            .servers()
            .nth(1)
            .map_or(usize::MAX, crate::server::ServerState::stored_object_count);
        assert_eq!(wiped, 0, "recovery must wipe the store");
        sys.run_until(12.0);
        let st = sys.stats();
        assert!(st.gossip_bytes > 0, "digest rounds must run");
        let restored = sys
            .servers()
            .nth(1)
            .map_or(0, crate::server::ServerState::stored_object_count);
        assert!(restored > 0, "digest-driven repair restored nothing");
    }

    #[test]
    fn quorum_reads_dodge_a_stale_replica() {
        // Any-replica reads may hit a replica that missed the latest
        // write; quorum reads probe a majority and take the freshest.
        // Deterministic seeds at this scale: just assert both modes
        // complete reads and the stale count is only ever nonzero for
        // a mode that actually reads.
        let run = |quorum: bool| {
            let mut sys = small_system(|c| {
                c.storage.enabled = true;
                c.storage.quorum_reads = quorum;
                c.faults.loss_prob = 0.2;
            });
            sys.run_until(15.0);
            (sys.stats().object_reads, sys.stats().stale_reads)
        };
        let (reads_q, _) = run(true);
        let (reads_a, _) = run(false);
        assert!(reads_q > 0, "quorum mode must complete reads");
        assert!(reads_a > 0, "any-replica mode must complete reads");
    }

    #[test]
    fn disabled_roles_and_tenants_are_inert() {
        // The role/tenant structs default to disabled; their mere
        // presence (even with populated specs) must not perturb a
        // single RNG draw or stat relative to the plain config.
        let run = |cfg_mod: fn(&mut Config)| {
            let mut sys = small_system(cfg_mod);
            sys.run_until(25.0);
            format!("{:?}", sys.stats())
        };
        let plain = run(|_| {});
        let loaded = run(|c| {
            c.roles.enabled = false;
            c.roles.relay_every = 2;
            c.roles.relay_queue_factor = 8.0;
            c.tenants.enabled = false;
            c.tenants.specs.push(crate::config::TenantSpec {
                weight: 1.0,
                zipf_theta: 0.8,
                slo_availability: 0.99,
            });
        });
        assert_eq!(plain, loaded, "disabled roles/tenants changed the run");
    }

    #[test]
    fn roles_on_replays_bitwise() {
        let run = || {
            let mut sys = small_system(|c| {
                c.roles.enabled = true;
                c.storage.enabled = true;
                c.gossip.enabled = true;
            });
            sys.run_until(25.0);
            format!("{:?}", sys.stats())
        };
        assert_eq!(run(), run(), "roles-on run is not replayable");
    }

    #[test]
    fn audit_stays_clean_with_roles_on() {
        let mut sys = small_system(|c| {
            c.roles.enabled = true;
            c.storage.enabled = true;
            c.gossip.enabled = true;
            c.gossip.culture = GossipCulture::Taciturn;
        });
        sys.run_until(20.0);
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
        assert!(sys.roles().is_some(), "role map must be built");
    }

    // Error-path coverage for the invariant checkers themselves: a
    // checker that never fires on corrupted state is indistinguishable
    // from one that checks nothing, so each test below breaks a System
    // by hand and demands the matching auditor reports it.

    #[test]
    fn future_lease_stamp_trips_the_freshness_checker() {
        let mut sys = small_system(|_| {});
        sys.run_until(5.0);
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
        let ctx = sys
            .ctxs
            .iter_mut()
            .find(|c| !c.server.owned.is_empty())
            .expect("someone owns records");
        let rec = ctx.server.owned.values_mut().next().expect("non-empty");
        rec.lease_at = 1.0e12;
        let direct = crate::invariants::check_lease_freshness(&ctx.server, 5.0);
        assert_eq!(direct.len(), 1, "{direct:?}");
        assert!(direct[0].contains("leased at"), "{direct:?}");
        let v = sys.audit();
        assert!(v.iter().any(|m| m.contains("leased at")), "{v:?}");
    }

    #[test]
    fn foreign_replica_trips_the_role_placement_checker() {
        let mut sys = small_system(|c| {
            // The degenerate all-edge fleet with an empty allowlist: no
            // server admits any non-spine node, so any planted foreign
            // replica is guaranteed to violate placement.
            c.roles.enabled = true;
            c.roles.relay_every = 0;
            c.roles.keeper_every = 0;
            c.roles.owned_admission = false;
        });
        sys.run_until(5.0);
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
        let roles = sys.roles().expect("roles on").clone();
        // Steal an owned record and plant it as a replica on a server
        // whose role does not admit that node's region.
        let mut planted = None;
        'outer: for ctx in &sys.ctxs {
            for (n, r) in &ctx.server.owned {
                for j in 0..sys.ctxs.len() {
                    if !roles.admits(ServerId(j as u32), *n) {
                        planted = Some((*n, r.clone(), j));
                        break 'outer;
                    }
                }
            }
        }
        let (node, rec, j) = planted.expect("some (server, node) pair is not admitted");
        sys.ctxs[j].server.replicas.insert(node, rec);
        let direct = crate::invariants::check_role_placement(&roles, &sys.ctxs[j].server);
        assert!(
            direct
                .iter()
                .any(|m| m.contains("outside its admitted regions")),
            "{direct:?}"
        );
        let v = sys.audit();
        assert!(
            v.iter().any(|m| m.contains("outside its admitted regions")),
            "{v:?}"
        );
    }

    #[test]
    fn overversioned_object_copy_trips_the_storage_checker() {
        let mut sys = small_system(|c| {
            c.storage.enabled = true;
        });
        sys.run_until(5.0);
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
        let (i, node) = sys
            .ctxs
            .iter()
            .enumerate()
            .find_map(|(i, c)| c.server.store.keys().next().map(|n| (i, *n)))
            .expect("storage pre-seeds copies");
        let obj = sys.ctxs[i].server.store.get_mut(&node).expect("present");
        obj.version = u64::MAX;
        let direct = crate::invariants::check_storage_soundness(
            &sys.shared.ns,
            &sys.shared.assignment,
            &sys.shared.cfg.storage,
            sys.shared.roles.as_deref(),
            &sys.committed,
            &sys.ctxs[i].server,
        );
        assert!(
            direct.iter().any(|m| m.contains("outside 1..=")),
            "{direct:?}"
        );
        let v = sys.audit();
        assert!(v.iter().any(|m| m.contains("outside 1..=")), "{v:?}");
    }

    #[test]
    fn class_wave_crashes_and_recovers_every_relay() {
        use crate::config::{ScenarioEvent, ServerClass};
        let mut sys = small_system(|c| {
            c.roles.enabled = true;
            c.scenario.events.push(ScenarioEvent {
                at: 5.0,
                action: ChaosAction::ClassCrash {
                    class: ServerClass::Relay,
                },
            });
            c.scenario.events.push(ScenarioEvent {
                at: 10.0,
                action: ChaosAction::ClassRecover {
                    class: ServerClass::Relay,
                },
            });
        });
        sys.run_until(7.0);
        let roles = sys.roles().expect("roles on").clone();
        let n_relays = (0..8)
            .filter(|&i| roles.class_of(ServerId(i)) == crate::config::ServerClass::Relay)
            .count();
        assert!(n_relays > 0, "fleet must contain relays");
        for i in 0..8 {
            let id = ServerId(i);
            let is_relay = roles.class_of(id) == crate::config::ServerClass::Relay;
            assert_eq!(sys.is_failed(id), is_relay, "server {i} wave state");
        }
        assert_eq!(sys.stats().scenario_crashes, n_relays as u64);
        sys.run_until(20.0);
        for i in 0..8 {
            assert!(!sys.is_failed(ServerId(i)), "server {i} still down");
        }
        assert!(sys.audit().is_empty(), "{:?}", sys.audit());
    }

    #[test]
    fn tenant_accounting_conserves_queries() {
        let mut sys = small_system(|c| {
            c.tenants.enabled = true;
            c.tenants.cut_depth = 1;
            for (w, theta, slo) in [(3.0, 0.8, 0.9), (1.0, 0.0, 0.99)] {
                c.tenants.specs.push(crate::config::TenantSpec {
                    weight: w,
                    zipf_theta: theta,
                    slo_availability: slo,
                });
            }
        });
        sys.run_until(30.0);
        let st = sys.stats();
        assert_eq!(st.tenant_injected.len(), 2);
        let inj: u64 = st.tenant_injected.iter().sum();
        assert_eq!(inj, st.injected, "every query must carry a tenant");
        for t in 0..2 {
            assert!(
                st.tenant_resolved[t] + st.tenant_dropped[t] <= st.tenant_injected[t],
                "tenant {t} over-accounted"
            );
        }
        // Weight 3:1 must skew arrivals toward tenant 0.
        assert!(
            st.tenant_injected[0] > st.tenant_injected[1],
            "weights ignored: {:?}",
            st.tenant_injected
        );
        let avail = st.tenant_availability();
        assert!(avail.iter().all(|&a| (0.0..=1.0).contains(&a)));
        assert!(sys.tenants().is_some());
    }

    #[test]
    fn tenant_drops_are_attributed_under_stress() {
        // Saturate tiny queues so shed/queue-full drops occur, then
        // check the per-tenant ledger saw them.
        let run = |tenants: bool| {
            let ns = balanced_tree(2, 5);
            let mut cfg = Config::paper_default(4).with_seed(11);
            cfg.queue_capacity = 2;
            if tenants {
                cfg.tenants.enabled = true;
                cfg.tenants.specs.push(crate::config::TenantSpec {
                    weight: 1.0,
                    zipf_theta: 0.5,
                    slo_availability: 0.999,
                });
            }
            let mut sys = System::new(ns, cfg, StreamPlan::unif(900.0), 40.0);
            sys.run_until(20.0);
            (
                sys.stats().dropped_total(),
                sys.stats().tenant_dropped.clone(),
            )
        };
        let (drops, per_tenant) = run(true);
        assert!(drops > 0, "stress run must drop");
        assert_eq!(per_tenant.iter().sum::<u64>(), drops, "tenant drop ledger");
        let (drops_off, per_off) = run(false);
        assert!(drops_off > 0);
        assert!(per_off.is_empty(), "tenants-off must not allocate ledgers");
    }
}
