//! Protocol and simulation configuration.

// ---- Fixed protocol parameters ----
//
// The paper fixes these once (§3, §4.1) and no workload varies them, so
// they are constants rather than `Config` fields.

/// Mean of the exponential per-message service time, seconds.
pub const MEAN_SERVICE: f64 = 0.020;
/// Load-metric window W, seconds ("e.g. half a second").
pub const LOAD_WINDOW: f64 = 0.5;
/// Minimum load gap δ_min for a destination to accept replicas.
pub const DELTA_MIN: f64 = 0.25;
/// Failed partner-selection attempts before a session aborts.
pub const MAX_SESSION_ATTEMPTS: u32 = 3;
/// Cooldown after an aborted session before retrying, seconds.
pub const SESSION_COOLDOWN: f64 = 0.5;
/// A session older than this is abandoned (lost control message).
pub const SESSION_TIMEOUT: f64 = 2.0;
/// Half-life of node-weight demand counters, seconds (the paper rescales
/// counters periodically; we decay them continuously, which is the same
/// estimator without a rescale event).
pub const WEIGHT_HALF_LIFE: f64 = 2.0;
/// Minimum replica age before idle eviction, seconds.
pub const EVICT_MIN_AGE: f64 = 5.0;
/// Target false-positive rate of inverse-mapping digests.
pub const DIGEST_FPR: f64 = 0.0001;
/// Known-load table slots per server (LRU).
pub const KNOWN_LOAD_SLOTS: usize = 256;
/// Load information older than this is ignored when picking partners.
pub const LOAD_STALE_AFTER: f64 = 5.0;
/// Hop TTL; queries exceeding it are dropped (guards against routing
/// loops caused by stale soft state).
pub const TTL_HOPS: u32 = 64;
/// Maximum path entries propagated with a query (path propagation cap).
pub const PATH_CAP: usize = 32;
/// Service cost of a control message relative to a query's.
pub const CONTROL_SERVICE_FACTOR: f64 = 0.1;
/// After advertising a new replica, a host back-propagates its map
/// upstream for this long (§3.7 back-propagation).
pub const BACKPROP_WINDOW: f64 = 3.0;
/// Minimum gap between back-propagations of the same record.
pub const BACKPROP_MIN_GAP: f64 = 0.25;
/// An incoming replica only displaces an existing one when its demand
/// weight exceeds the victim's by this factor (anti-thrash guard on
/// capacity evictions; see DESIGN.md).
pub const EVICT_DISPLACE_FACTOR: f64 = 1.5;
/// How long a negative-cache entry ("host observed dead") is kept
/// before the host may re-enter maps via normal soft-state spread.
pub const DEAD_TTL: f64 = 10.0;
/// Maximum owned-record advertisements a rejoining server sends to each
/// chosen reconcile peer.
pub const RECONCILE_BATCH: u32 = 16;
/// Relay service-rate multiplier applied on top of the (possibly
/// heterogeneous) static speed. Deterministic scaling — no extra RNG
/// draws.
pub const RELAY_SPEED_FACTOR: f64 = 2.0;
/// Namespace depth of admission-region roots: every node at this depth
/// roots a region covering its subtree; shallower nodes form the spine,
/// which every server admits.
pub const REGION_DEPTH: u16 = 1;
/// Total attempts per query under the reliability layer, including the
/// first; after the last one times out the query is a final `Timeout`
/// drop.
pub const RETRY_MAX_ATTEMPTS: u32 = 4;
/// Timeout of a query's first attempt, seconds; attempt `k` waits
/// `RETRY_BASE_TIMEOUT · 2^(k-1)`, capped at [`RETRY_CAP`].
pub const RETRY_BASE_TIMEOUT: f64 = 1.0;
/// Upper bound on any single attempt's timeout, seconds.
pub const RETRY_CAP: f64 = 8.0;

/// All protocol and environment knobs, with the paper's evaluation defaults
/// (§4.1 and DESIGN.md §3 for glyph-decoded values).
///
/// The three systems compared in Fig. 5 are configuration points:
///
/// | System | `caching` | `replication` |
/// |--------|-----------|---------------|
/// | B      | false     | false         |
/// | BC     | true      | false         |
/// | BCR    | true      | true          |
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of participating servers.
    pub n_servers: u32,
    /// Constant application-layer network delay per hop, seconds.
    pub network_delay: f64,
    /// Per-server request queue capacity; queries arriving beyond it drop.
    pub queue_capacity: usize,
    /// Route-cache slots per server.
    pub cache_slots: usize,
    /// Enable route caching with path propagation (the "C" in BC/BCR).
    pub caching: bool,
    /// Enable adaptive replication (the "R" in BCR).
    pub replication: bool,
    /// Enable inverse-mapping digests (shortcuts + map pruning).
    pub digests: bool,
    /// Cache the whole propagated path at every step (the paper's path
    /// propagation). When disabled, only the query endpoints are cached —
    /// the strawman the paper compares against in §2.4.
    pub path_propagation: bool,
    /// Apply the hysteresis load adjustment of §3.3 step 4. Disabling it
    /// is the ablation for replica thrashing.
    pub hysteresis: bool,
    /// High-water load threshold T_high triggering replication sessions.
    pub t_high: f64,
    /// Replication factor R_fact: max replicas hosted per server relative
    /// to the number of owned nodes.
    pub r_fact: f64,
    /// Maximum node-map size R_map (entries per map, stored and shipped).
    pub r_map: usize,
    /// Replicas whose decayed weight falls below this are eligible for idle
    /// eviction at maintenance time.
    pub evict_weight_threshold: f64,
    /// Maximum digests retained per server (LRU).
    pub digest_store_slots: usize,
    /// Maximum Bloom tests spent per routing step on shortcut discovery.
    pub digest_test_budget: usize,
    /// Server speed heterogeneity: per-server service rates are drawn
    /// log-uniformly from `[1/spread, spread]` and normalized to mean 1
    /// (so aggregate capacity is spread-invariant). 1.0 = homogeneous.
    /// The paper's normalized load metric exists precisely so the
    /// replication protocol can exploit such heterogeneity (§3.1, §5).
    pub speed_spread: f64,
    /// Static replication bootstrap (the paper’s §2.3 alternative, \[15\]):
    /// nodes at depth < this value receive `static_replicas_per_node`
    /// replicas at start-up. 0 disables it.
    pub static_top_levels: u16,
    /// Replicas installed per statically replicated node.
    pub static_replicas_per_node: usize,
    /// Transport fault injection: message loss and latency jitter.
    pub faults: FaultConfig,
    /// Source-side query reliability: timeout, backoff, bounded retries.
    pub retry: RetryConfig,
    /// Continuous churn process (exponential up/down times per server).
    pub churn: ChurnConfig,
    /// Group-based network-partition fault model (DESIGN.md §13).
    pub partitions: PartitionConfig,
    /// Timed chaos-scenario script executed from the event calendar
    /// (DESIGN.md §13).
    pub scenario: ScenarioConfig,
    /// Soft-state lease lifecycle: lease stamps on replicas, neighbor
    /// maps, and cache entries, with a periodic lazy sweep and the
    /// `Misroute` repair NACK (DESIGN.md §14).
    pub leases: LeaseConfig,
    /// Warm rejoin and post-heal anti-entropy: recovered or healed
    /// servers re-advertise owned records to namespace neighbors
    /// (DESIGN.md §14).
    pub reconcile: ReconcileConfig,
    /// Replicated object storage on the routing substrate: versioned
    /// payloads with last-writer-wins merge, quorum or any-replica
    /// reads, placed on a deterministic replica set (DESIGN.md §17).
    pub storage: StorageConfig,
    /// Generalized anti-entropy gossip: periodic digest exchanges with
    /// namespace-neighbor peers that repair both routing soft state and
    /// stored objects between the event-driven triggers (DESIGN.md §18).
    pub gossip: GossipConfig,
    /// Heterogeneous fleet roles: relay/edge/keeper server classes with
    /// admission-region placement enforcement and keeper pinning
    /// (DESIGN.md §19).
    pub roles: RoleConfig,
    /// Multi-tenant namespace partition with per-tenant arrival shares,
    /// popularity laws, and availability SLOs (DESIGN.md §19).
    pub tenants: TenantConfig,
    /// Graceful degradation: when a request queue is full, shed the
    /// deepest-TTL queued query in favor of the arrival instead of
    /// FIFO-dropping the arrival (DESIGN.md §13). Control traffic is
    /// unbounded either way.
    pub shedding: bool,
    /// Master seed for every random component.
    pub seed: u64,
}

/// Transport-level fault injection applied to every remote delivery
/// (`System::deliver`). The defaults are inert: a run without faults takes
/// exactly the same code path (and consumes zero fault-RNG draws) as before
/// the failure model existed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that a remote message is silently lost in transit.
    pub loss_prob: f64,
    /// Uniform extra latency in `[0, jitter)` seconds added per remote hop.
    pub jitter: f64,
}

impl FaultConfig {
    /// Whether any transport fault is being injected.
    pub fn enabled(&self) -> bool {
        self.loss_prob > 0.0 || self.jitter > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            loss_prob: 0.0,
            jitter: 0.0,
        }
    }
}

/// Source-side query reliability (DESIGN.md §12): the issuing server keeps
/// a per-query timer and re-issues unanswered queries with capped
/// exponential backoff ([`RETRY_MAX_ATTEMPTS`], [`RETRY_BASE_TIMEOUT`],
/// [`RETRY_CAP`]). With `enabled = false` (the default) queries are
/// fire-and-forget, exactly the pre-reliability behavior.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RetryConfig {
    /// Master switch for the reliability layer (pending table + timers)
    /// and the negative caching that rides on it: hosts observed dead
    /// are evicted from maps, cache and digests.
    pub enabled: bool,
}

/// Continuous churn (DESIGN.md §12): each server alternates exponential
/// up/down periods inside `[start, stop)`; after `stop` only recoveries
/// fire, so the fleet heals and time-to-recover is measurable.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Master switch for the churn process.
    pub enabled: bool,
    /// Simulation time at which failures may begin, seconds.
    pub start: f64,
    /// No *new* failures occur at or after this time (recoveries still do).
    pub stop: f64,
    /// Mean up-time between a server's recoveries and its next failure.
    pub mean_uptime: f64,
    /// Mean down-time between a server's failure and its recovery.
    pub mean_downtime: f64,
    /// A failure is suppressed when it would push the failed fraction of
    /// the fleet above this bound (keeps churn runs live).
    pub max_down_fraction: f64,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            enabled: false,
            start: 0.0,
            stop: f64::INFINITY,
            mean_uptime: 30.0,
            mean_downtime: 5.0,
            max_down_fraction: 0.5,
        }
    }
}

/// Group-based network partitions (DESIGN.md §13). Server `s` belongs to
/// reachability group `s mod n_groups`; a *cut* severs a set of groups
/// from the rest of the fleet for a window of simulated time. Remote
/// deliveries crossing the active cut are dropped at delivery time, with
/// `HostDown` feedback synthesized at the sender when the reliability
/// layer is on. The default (`n_groups = 1`, no cuts) is inert.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of reachability groups (≥ 1). With a single group every cut
    /// is a no-op: there is never a far side to sever.
    pub n_groups: u32,
    /// Statically scheduled cut windows, independent of `Config::scenario`.
    pub cuts: Vec<CutWindow>,
}

impl Default for PartitionConfig {
    fn default() -> PartitionConfig {
        PartitionConfig {
            n_groups: 1,
            cuts: Vec::new(),
        }
    }
}

/// One scheduled partition window: the listed groups are severed from the
/// rest of the fleet over `[start, stop)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CutWindow {
    /// Simulation time the cut activates, seconds.
    pub start: f64,
    /// Simulation time the cut heals, seconds (∞ = never heals).
    pub stop: f64,
    /// Reachability groups on the severed side of the cut.
    pub groups: Vec<u32>,
}

/// Soft-state leases (DESIGN.md §14): every replica record, neighbor
/// context map, and route-cache entry carries a lease stamp; stamps are
/// refreshed when fresh evidence arrives and on routing use, and a lazy
/// sweep at maintenance time evicts entries whose lease has been stale
/// for longer than `ttl`. The `misroute` flag additionally upgrades the
/// `NotHosting` correction into a digest-carrying `Misroute` NACK so one
/// stale hop repairs every stale entry for that server. The default is
/// inert: `enabled = false` changes no behavior and consumes
/// zero RNG draws.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseConfig {
    /// Master switch for lease stamping and the lazy sweep.
    pub enabled: bool,
    /// Seconds a lease survives without refresh before the sweep may
    /// evict the entry. `0` is legal and means "evict anything not
    /// refreshed in the current instant" (the degenerate corner).
    pub ttl: f64,
    /// Reply to stale-pointer hops with a digest-carrying `Misroute`
    /// NACK instead of the plain `NotHosting` correction: the receiver
    /// evicts the stale per-(node, host) pair and then purges every
    /// other local pointer at the sender that its digest
    /// authoritatively disclaims.
    pub misroute: bool,
}

impl Default for LeaseConfig {
    fn default() -> LeaseConfig {
        LeaseConfig {
            enabled: false,
            ttl: 120.0,
            misroute: false,
        }
    }
}

/// Bounded anti-entropy reconciliation (DESIGN.md §14): when a server
/// recovers, or a partition heals, the rejoining servers push fresh
/// self-advertisements for their owned records to the owners of
/// namespace-neighbor nodes so stale remote soft state is corrected
/// eagerly instead of waiting for misroutes. Only the authoritative
/// "I host this node" fact is pushed — never the pusher's full host
/// map, which could propagate exactly the staleness being repaired. Peer
/// selection draws only from the `tags::FAULTS` stream, so scripted chaos
/// replays stay byte-identical. The default is inert.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconcileConfig {
    /// Master switch for warm-rejoin / post-heal advertisement pushes.
    pub enabled: bool,
    /// Maximum distinct neighbor owners pushed to per rejoining server.
    pub fanout: u32,
}

impl Default for ReconcileConfig {
    fn default() -> ReconcileConfig {
        ReconcileConfig {
            enabled: false,
            fanout: 8,
        }
    }
}

/// Replicated object storage (DESIGN.md §17): every object is a
/// versioned payload owned by one namespace node and replicated onto a
/// deterministic replica set of `replication_factor` servers derived
/// from the node→server assignment (subtree-affine, placing copies on
/// the owners of namespace neighbors first, à la DistHash).
/// Writes bump a monotonic version and propagate to every replica;
/// reads probe either a single replica or a majority quorum. The
/// default is inert: `enabled = false` stores nothing, schedules
/// nothing, and consumes zero RNG draws, so a disabled run is
/// bitwise-identical to a build without the subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Master switch for the storage subsystem.
    pub enabled: bool,
    /// Objects stored (keyed by the first `n_objects` namespace nodes,
    /// capped at the namespace size).
    pub n_objects: u32,
    /// Copies kept per object (capped at the fleet size).
    pub replication_factor: u32,
    /// Read policy: `true` probes every replica and accepts the
    /// freshest of a majority; `false` probes one uniformly random
    /// replica (any-replica reads — cheaper, staler).
    pub quorum_reads: bool,
    /// Mean object writes per simulated second (Poisson, exponential
    /// gaps from the fault RNG stream).
    pub write_rate: f64,
    /// Mean object reads per simulated second.
    pub read_rate: f64,
    /// Seconds a read session waits for replica replies before
    /// finalizing with whatever arrived.
    pub read_timeout: f64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            enabled: false,
            n_objects: 64,
            replication_factor: 2,
            quorum_reads: true,
            write_rate: 20.0,
            read_rate: 20.0,
            read_timeout: 2.0,
        }
    }
}

/// How a server spends its per-round gossip budget (DESIGN.md §18).
/// The names follow Cordelia's chatty/taciturn distinction between
/// eager state push and digest-driven anti-entropy pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipCulture {
    /// Eager push: every round a server pushes fresh advertisements for
    /// every owned record plus its stored-object copies to each chosen
    /// peer. Fast propagation, O(state) bytes per round, and no
    /// stale-entry purging (pushes only add evidence).
    Chatty,
    /// Digest-driven pull: every round a server ships its windowed
    /// digest; receivers purge entries the digest disclaims and push
    /// back only object versions the digest shows missing or older.
    /// O(changed) bytes in steady state.
    Taciturn,
    /// Taciturn plus an eager push of the keys changed since the last
    /// round (bounded by `window`): digest economy at steady state,
    /// chatty-grade propagation for fresh changes.
    Hybrid,
}

/// Generalized anti-entropy gossip (DESIGN.md §18): every `interval`
/// seconds each live server picks `fanout` namespace-neighbor owners
/// (peer shuffle drawn from the `tags::FAULTS` stream) and exchanges
/// state per its [`GossipCulture`]. It complements event-driven
/// repair: routing soft state is purged against the shipped digest
/// (`purge_disclaimed`), and stored objects are pulled via
/// last-writer-wins merge, so staleness accruing *between*
/// recover/heal triggers is bounded by the gossip interval. Taciturn
/// gossip is the only path that re-replicates lost object copies. The default is inert: `enabled = false`
/// schedules nothing and consumes zero RNG draws, so a disabled run is
/// bitwise-identical to a build without the subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// Master switch for the anti-entropy gossip subsystem.
    pub enabled: bool,
    /// How rounds spend bytes: eager push, digest pull, or both.
    pub culture: GossipCulture,
    /// Seconds between gossip rounds (each round every live server
    /// gossips once).
    pub interval: f64,
    /// Distinct namespace-neighbor peers contacted per server per round.
    pub fanout: u32,
    /// Bounds both the digest's recent-change window (delta entries
    /// kept before falling back to a full digest) and the entries
    /// exchanged per pull reply or hybrid push.
    pub window: u32,
}

impl Default for GossipConfig {
    fn default() -> GossipConfig {
        GossipConfig {
            enabled: false,
            culture: GossipCulture::Taciturn,
            interval: 1.0,
            fanout: 3,
            window: 32,
        }
    }
}

/// The capacity/placement class of a server in a heterogeneous fleet
/// (DESIGN.md §19). Classes are assigned deterministically from server
/// ids by [`RoleConfig`]; the class governs which subtrees a server may
/// accept replicas and stored objects for, its queue depth, and its
/// service rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerClass {
    /// Backbone server: accepts replicas/objects for *any* subtree and
    /// runs with `relay_queue_factor ×` queue depth and
    /// [`RELAY_SPEED_FACTOR`]`×` service rate.
    Relay,
    /// Leaf server: accepts replicas/objects only for admission regions
    /// on its allowlist (the regions containing nodes it owns, unless
    /// `owned_admission` is off).
    Edge,
    /// An edge that additionally *pins* the replicas of its admitted
    /// regions: pinned records are exempt from lease expiry, idle
    /// eviction, and capacity displacement.
    Keeper,
}

/// Heterogeneous fleet roles (DESIGN.md §19): splits the namespace into
/// admission regions rooted at depth [`REGION_DEPTH`] and the fleet into
/// [`ServerClass`]es by server id. Every placement decision — replication
/// partner ranking, storage `replica_targets`, gossip candidate pools,
/// and reconcile push targets — consults the role map; violations are
/// caught by `invariants::check_role_placement`. The default is inert:
/// `enabled = false` builds no role map, changes no behavior, and
/// consumes zero RNG draws, so a disabled run is bitwise-identical to a
/// build without the subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleConfig {
    /// Master switch for the role subsystem.
    pub enabled: bool,
    /// Server `s` is a relay when `relay_every > 0` and
    /// `s % relay_every == 0`. `0` means a fleet with zero relays.
    pub relay_every: u32,
    /// Among non-relay servers, `s` is a keeper when `keeper_every > 0`
    /// and `s % keeper_every == 0`; otherwise it is a plain edge. `0`
    /// means no keepers.
    pub keeper_every: u32,
    /// Relay queue depth relative to `queue_capacity` (≥ 1).
    pub relay_queue_factor: f64,
    /// When `false`, edges and keepers do *not* derive admission from
    /// the regions containing their owned nodes and admit only the
    /// spine. The all-edge/empty-allowlist degenerate fleet.
    pub owned_admission: bool,
}

impl Default for RoleConfig {
    fn default() -> RoleConfig {
        RoleConfig {
            enabled: false,
            relay_every: 4,
            keeper_every: 2,
            relay_queue_factor: 4.0,
            owned_admission: true,
        }
    }
}

/// One tenant of a multi-tenant namespace (DESIGN.md §19).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Relative share of the global arrival rate routed to this tenant
    /// (normalized over all tenants; must be positive).
    pub weight: f64,
    /// Zipf exponent of the tenant's within-subtree popularity law;
    /// `0` draws destinations uniformly over the tenant's nodes.
    pub zipf_theta: f64,
    /// Availability SLO: the tenant's resolved/injected fraction the
    /// operator promises, reported against in `Summary::to_json`.
    pub slo_availability: f64,
}

/// Multi-tenant namespace partition (DESIGN.md §19): the nodes at depth
/// `cut_depth` are dealt round-robin (by node id) to tenants, each
/// tenant owning the disjoint union of its subtrees; shallower spine
/// nodes belong to no tenant. With tenants enabled the query stream
/// draws a tenant by weight, then a destination inside that tenant from
/// its own popularity law; per-tenant availability, latency, drops, and
/// staleness are reported in `RunStats`/`Summary::to_json`. The default
/// is inert: `enabled = false` changes neither the workload nor the RNG
/// draw sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Master switch for the tenant partition.
    pub enabled: bool,
    /// Namespace depth whose nodes seed the round-robin deal of
    /// subtrees to tenants.
    pub cut_depth: u16,
    /// The tenants (must be non-empty when enabled).
    pub specs: Vec<TenantSpec>,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            enabled: false,
            cut_depth: 1,
            specs: Vec::new(),
        }
    }
}

/// A timed chaos script (DESIGN.md §13): actions fire from the event
/// calendar at their scheduled times, under the run's single fault-RNG
/// stream, so every scenario replays bit-identically from a seed. The
/// default (no events) is inert.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioConfig {
    /// The script: chaos actions with absolute fire times.
    pub events: Vec<ScenarioEvent>,
}

impl ScenarioConfig {
    /// Whether the script contains any events.
    pub fn enabled(&self) -> bool {
        !self.events.is_empty()
    }
}

/// One scripted chaos event.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// Absolute simulation time the action fires, seconds. Events past the
    /// end of the run simply never fire.
    pub at: f64,
    /// The chaos action applied at `at`.
    pub action: ChaosAction,
}

/// The chaos-action alphabet of `ScenarioConfig`.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Sever the listed reachability groups from the rest of the fleet
    /// (replaces any active cut; an empty or all-covering side is a no-op
    /// relation).
    Cut {
        /// Groups on the severed side (each < `partitions.n_groups`).
        groups: Vec<u32>,
    },
    /// Clear the active cut, whatever installed it.
    Heal,
    /// Aim an extra Poisson query stream at one node: total arrivals for
    /// that node become `rate_multiplier ×` the base system rate while
    /// active. A multiplier ≤ 1 (or an out-of-namespace node) turns the
    /// flash crowd off.
    FlashCrowd {
        /// The namespace node suddenly in demand.
        node: u32,
        /// Extra stream rate = `(rate_multiplier − 1) ×` base rate.
        rate_multiplier: f64,
    },
    /// Instantaneously crash `round(fraction × n_servers)` live servers,
    /// chosen uniformly from the fault RNG.
    CorrelatedCrash {
        /// Fraction of the fleet to crash, in `[0, 1]`.
        fraction: f64,
    },
    /// Recover every currently failed server (cold rejoin).
    Recover,
    /// Instantaneously crash every live server of the named class — the
    /// cross-class failure wave (DESIGN.md §19). Deterministic target
    /// set, zero RNG draws. Requires `roles.enabled`.
    ClassCrash {
        /// The class whose live members all crash.
        class: ServerClass,
    },
    /// Recover every currently failed server of the named class (cold
    /// rejoin). Requires `roles.enabled`.
    ClassRecover {
        /// The class whose failed members all recover.
        class: ServerClass,
    },
}

impl Config {
    /// The paper's evaluation defaults for a system of `n_servers` servers.
    pub fn paper_default(n_servers: u32) -> Config {
        Config {
            n_servers,
            network_delay: 0.025,
            queue_capacity: 32,
            cache_slots: 24,
            caching: true,
            replication: true,
            digests: true,
            path_propagation: true,
            hysteresis: true,
            t_high: 0.75,
            r_fact: 2.0,
            r_map: 5,
            evict_weight_threshold: 0.01,
            digest_store_slots: 128,
            digest_test_budget: 256,
            speed_spread: 1.0,
            static_top_levels: 0,
            static_replicas_per_node: 3,
            faults: FaultConfig::default(),
            retry: RetryConfig::default(),
            churn: ChurnConfig::default(),
            partitions: PartitionConfig::default(),
            scenario: ScenarioConfig::default(),
            leases: LeaseConfig::default(),
            reconcile: ReconcileConfig::default(),
            storage: StorageConfig::default(),
            gossip: GossipConfig::default(),
            roles: RoleConfig::default(),
            tenants: TenantConfig::default(),
            shedding: false,
            seed: 0,
        }
    }

    /// The base system **B** of Fig. 5: no caching, no replication.
    pub fn base_system(n_servers: u32) -> Config {
        Config {
            caching: false,
            replication: false,
            digests: false,
            ..Config::paper_default(n_servers)
        }
    }

    /// The **BC** system of Fig. 5: caching only.
    pub fn caching_only(n_servers: u32) -> Config {
        Config {
            replication: false,
            ..Config::paper_default(n_servers)
        }
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    /// Maximum number of replicas a server owning `owned` nodes may host.
    pub fn replica_cap(&self, owned: usize) -> usize {
        (self.r_fact * owned as f64).floor() as usize
    }

    /// Whether stale-pointer hops are answered with the digest-carrying
    /// `Misroute` NACK (rides on the lease subsystem).
    pub fn misroute_active(&self) -> bool {
        self.leases.enabled && self.leases.misroute
    }

    /// Whether the heterogeneous role subsystem is active.
    pub fn roles_active(&self) -> bool {
        self.roles.enabled
    }

    /// Whether the multi-tenant namespace partition is active.
    pub fn tenants_active(&self) -> bool {
        self.tenants.enabled && !self.tenants.specs.is_empty()
    }

    /// Validates internal consistency; returns a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_servers == 0 {
            return Err("n_servers must be positive".into());
        }
        if self.network_delay < 0.0 {
            return Err("network_delay must be non-negative".into());
        }
        if !(0.0 < self.t_high && self.t_high <= 1.0) {
            return Err("t_high must be in (0, 1]".into());
        }
        if self.r_fact < 0.0 {
            return Err("r_fact must be non-negative".into());
        }
        if self.r_map == 0 {
            return Err("r_map must be at least 1".into());
        }
        if self.speed_spread.is_nan() || self.speed_spread < 1.0 {
            return Err("speed_spread must be ≥ 1".into());
        }
        if self.replication && !self.caching {
            // The paper always pairs R with C (BCR); replication without
            // caching is allowed in principle but advertises replicas via
            // path dissemination, so warn via error to avoid accidental use.
            return Err("replication requires caching (BCR stacking)".into());
        }
        if self.faults.loss_prob.is_nan() || !(0.0..=1.0).contains(&self.faults.loss_prob) {
            return Err("faults.loss_prob must be in [0, 1]".into());
        }
        if !self.faults.jitter.is_finite() || self.faults.jitter < 0.0 {
            return Err("faults.jitter must be finite and non-negative".into());
        }
        if self.churn.enabled {
            if !self.churn.mean_uptime.is_finite() || self.churn.mean_uptime <= 0.0 {
                return Err("churn.mean_uptime must be positive".into());
            }
            if !self.churn.mean_downtime.is_finite() || self.churn.mean_downtime <= 0.0 {
                return Err("churn.mean_downtime must be positive".into());
            }
            if self.churn.start.is_nan() || self.churn.start < 0.0 {
                return Err("churn.start must be non-negative".into());
            }
            if self.churn.stop.is_nan() || self.churn.stop < self.churn.start {
                return Err("churn.stop must be ≥ churn.start".into());
            }
            if self.churn.max_down_fraction.is_nan()
                || !(0.0..=1.0).contains(&self.churn.max_down_fraction)
            {
                return Err("churn.max_down_fraction must be in [0, 1]".into());
            }
        }
        if self.partitions.n_groups == 0 {
            return Err("partitions.n_groups must be at least 1".into());
        }
        for cut in &self.partitions.cuts {
            if !cut.start.is_finite() || cut.start < 0.0 {
                return Err("partition cut start must be finite and non-negative".into());
            }
            if cut.stop.is_nan() || cut.stop < cut.start {
                return Err("partition cut stop must be ≥ its start".into());
            }
            if let Some(g) = cut.groups.iter().find(|&&g| g >= self.partitions.n_groups) {
                return Err(format!(
                    "partition cut names group {g} but n_groups is {}",
                    self.partitions.n_groups
                ));
            }
        }
        if self.leases.enabled && (!self.leases.ttl.is_finite() || self.leases.ttl < 0.0) {
            return Err("leases.ttl must be finite and non-negative".into());
        }
        if self.reconcile.enabled && self.reconcile.fanout == 0 {
            return Err("reconcile.fanout must be at least 1".into());
        }
        if self.storage.enabled {
            if self.storage.n_objects == 0 {
                return Err("storage.n_objects must be at least 1".into());
            }
            if self.storage.replication_factor == 0 {
                return Err("storage.replication_factor must be at least 1".into());
            }
            if !self.storage.write_rate.is_finite() || self.storage.write_rate < 0.0 {
                return Err("storage.write_rate must be finite and non-negative".into());
            }
            if !self.storage.read_rate.is_finite() || self.storage.read_rate < 0.0 {
                return Err("storage.read_rate must be finite and non-negative".into());
            }
            if !self.storage.read_timeout.is_finite() || self.storage.read_timeout <= 0.0 {
                return Err("storage.read_timeout must be positive".into());
            }
        }
        if self.gossip.enabled {
            if !self.gossip.interval.is_finite() || self.gossip.interval <= 0.0 {
                return Err("gossip.interval must be positive".into());
            }
            if self.gossip.fanout == 0 {
                return Err("gossip.fanout must be at least 1".into());
            }
            if self.gossip.window == 0 {
                return Err("gossip.window must be at least 1".into());
            }
        }
        if self.roles.enabled
            && (!self.roles.relay_queue_factor.is_finite() || self.roles.relay_queue_factor < 1.0)
        {
            return Err("roles.relay_queue_factor must be finite and ≥ 1".into());
        }
        if self.tenants.enabled {
            if self.tenants.specs.is_empty() {
                return Err("tenants.enabled requires at least one tenant spec".into());
            }
            for (i, t) in self.tenants.specs.iter().enumerate() {
                if !t.weight.is_finite() || t.weight <= 0.0 {
                    return Err(format!("tenant {i} weight must be finite and positive"));
                }
                if !t.zipf_theta.is_finite() || t.zipf_theta < 0.0 {
                    return Err(format!("tenant {i} zipf_theta must be finite and ≥ 0"));
                }
                if t.slo_availability.is_nan() || !(0.0..=1.0).contains(&t.slo_availability) {
                    return Err(format!("tenant {i} slo_availability must be in [0, 1]"));
                }
            }
        }
        for ev in &self.scenario.events {
            if !ev.at.is_finite() || ev.at < 0.0 {
                return Err("scenario event time must be finite and non-negative".into());
            }
            match &ev.action {
                ChaosAction::Cut { groups } => {
                    if let Some(g) = groups.iter().find(|&&g| g >= self.partitions.n_groups) {
                        return Err(format!(
                            "scenario cut names group {g} but n_groups is {}",
                            self.partitions.n_groups
                        ));
                    }
                }
                ChaosAction::FlashCrowd {
                    rate_multiplier, ..
                } => {
                    if !rate_multiplier.is_finite() || *rate_multiplier < 0.0 {
                        return Err(
                            "flash-crowd rate_multiplier must be finite and non-negative".into(),
                        );
                    }
                }
                ChaosAction::CorrelatedCrash { fraction } => {
                    if fraction.is_nan() || !(0.0..=1.0).contains(fraction) {
                        return Err("correlated-crash fraction must be in [0, 1]".into());
                    }
                }
                ChaosAction::ClassCrash { .. } | ChaosAction::ClassRecover { .. } => {
                    if !self.roles.enabled {
                        return Err("class-wave chaos actions require roles.enabled".into());
                    }
                }
                ChaosAction::Heal | ChaosAction::Recover => {}
            }
        }
        Ok(())
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

    #[test]
    fn paper_default_is_valid() {
        assert_eq!(Config::paper_default(4096).validate(), Ok(()));
    }

    #[test]
    fn baseline_configs_toggle_features() {
        let b = Config::base_system(8);
        assert!(!b.caching && !b.replication);
        assert_eq!(b.validate(), Ok(()));
        let bc = Config::caching_only(8);
        assert!(bc.caching && !bc.replication);
        assert_eq!(bc.validate(), Ok(()));
    }

    #[test]
    fn replica_cap_scales_with_owned() {
        let c = Config::paper_default(4);
        assert_eq!(c.replica_cap(8), 16);
        let half = Config {
            r_fact: 0.5,
            ..Config::paper_default(4)
        };
        assert_eq!(half.replica_cap(8), 4);
        assert_eq!(half.replica_cap(1), 0);
    }

    #[test]
    fn validate_catches_bad_values() {
        let mut c = Config::paper_default(4);
        c.t_high = 1.5;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.n_servers = 0;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.caching = false;
        assert!(c.validate().is_err(), "R without C should be rejected");
    }

    #[test]
    fn with_seed_overrides() {
        let c = Config::paper_default(4).with_seed(99);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn failure_model_defaults_are_inert_and_valid() {
        let c = Config::paper_default(4);
        assert!(!c.faults.enabled());
        assert!(!c.retry.enabled);
        assert!(!c.churn.enabled);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_failure_model_values() {
        let mut c = Config::paper_default(4);
        c.faults.loss_prob = 1.5;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.faults.jitter = -0.1;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.churn.enabled = true;
        c.churn.mean_uptime = 0.0;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.churn.enabled = true;
        c.churn.stop = 1.0;
        c.churn.start = 2.0;
        assert!(c.validate().is_err());
        // Churn bounds are only enforced when the process is enabled.
        let mut c = Config::paper_default(4);
        c.churn.mean_uptime = 0.0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn chaos_defaults_are_inert_and_valid() {
        let c = Config::paper_default(4);
        assert_eq!(c.partitions, PartitionConfig::default());
        assert_eq!(c.partitions.n_groups, 1);
        assert!(c.partitions.cuts.is_empty());
        assert!(!c.scenario.enabled());
        assert!(!c.shedding);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_partition_values() {
        let mut c = Config::paper_default(4);
        c.partitions.n_groups = 0;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.partitions.cuts.push(CutWindow {
            start: -1.0,
            stop: 5.0,
            groups: vec![0],
        });
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.partitions.cuts.push(CutWindow {
            start: 5.0,
            stop: 1.0,
            groups: vec![0],
        });
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.partitions.n_groups = 2;
        c.partitions.cuts.push(CutWindow {
            start: 0.0,
            stop: 1.0,
            groups: vec![2],
        });
        assert!(c.validate().is_err(), "out-of-range group must be rejected");
        // A never-healing cut is legal.
        let mut c = Config::paper_default(4);
        c.partitions.n_groups = 2;
        c.partitions.cuts.push(CutWindow {
            start: 1.0,
            stop: f64::INFINITY,
            groups: vec![1],
        });
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_scenario_values() {
        let mut c = Config::paper_default(4);
        c.scenario.events.push(ScenarioEvent {
            at: f64::NAN,
            action: ChaosAction::Heal,
        });
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.scenario.events.push(ScenarioEvent {
            at: 1.0,
            action: ChaosAction::Cut { groups: vec![7] },
        });
        assert!(c.validate().is_err(), "scenario cut group beyond n_groups");
        let mut c = Config::paper_default(4);
        c.scenario.events.push(ScenarioEvent {
            at: 1.0,
            action: ChaosAction::FlashCrowd {
                node: 0,
                rate_multiplier: f64::INFINITY,
            },
        });
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.scenario.events.push(ScenarioEvent {
            at: 1.0,
            action: ChaosAction::CorrelatedCrash { fraction: 1.5 },
        });
        assert!(c.validate().is_err());
        // A full, in-range script validates.
        let mut c = Config::paper_default(4);
        c.partitions.n_groups = 2;
        c.scenario.events = vec![
            ScenarioEvent {
                at: 1.0,
                action: ChaosAction::Cut { groups: vec![1] },
            },
            ScenarioEvent {
                at: 2.0,
                action: ChaosAction::Heal,
            },
            ScenarioEvent {
                at: 3.0,
                action: ChaosAction::FlashCrowd {
                    node: 5,
                    rate_multiplier: 4.0,
                },
            },
            ScenarioEvent {
                at: 4.0,
                action: ChaosAction::CorrelatedCrash { fraction: 0.25 },
            },
            ScenarioEvent {
                at: 5.0,
                action: ChaosAction::Recover,
            },
        ];
        assert!(c.scenario.enabled());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn lease_and_reconcile_defaults_are_inert_and_valid() {
        let c = Config::paper_default(4);
        assert_eq!(c.leases, LeaseConfig::default());
        assert!(!c.leases.enabled);
        assert!(!c.misroute_active());
        assert_eq!(c.reconcile, ReconcileConfig::default());
        assert!(!c.reconcile.enabled);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_lease_and_reconcile_values() {
        let mut c = Config::paper_default(4);
        c.leases.enabled = true;
        c.leases.ttl = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.leases.enabled = true;
        c.leases.ttl = -1.0;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.reconcile.enabled = true;
        c.reconcile.fanout = 0;
        assert!(c.validate().is_err());
        // Bounds are only enforced when the subsystem is enabled.
        let mut c = Config::paper_default(4);
        c.leases.ttl = -1.0;
        c.reconcile.fanout = 0;
        assert_eq!(c.validate(), Ok(()));
        // ttl = 0 is a legal degenerate corner: sweep everything.
        let mut c = Config::paper_default(4);
        c.leases.enabled = true;
        c.leases.ttl = 0.0;
        assert_eq!(c.validate(), Ok(()));
        // misroute requires the lease layer to be on to take effect.
        let mut c = Config::paper_default(4);
        c.leases.misroute = true;
        assert!(!c.misroute_active());
        c.leases.enabled = true;
        assert!(c.misroute_active());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn storage_defaults_are_inert_and_valid() {
        let c = Config::paper_default(4);
        assert_eq!(c.storage, StorageConfig::default());
        assert!(!c.storage.enabled);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_storage_values() {
        let mut c = Config::paper_default(4);
        c.storage.enabled = true;
        c.storage.n_objects = 0;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.storage.enabled = true;
        c.storage.replication_factor = 0;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.storage.enabled = true;
        c.storage.write_rate = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.storage.enabled = true;
        c.storage.read_rate = -1.0;
        assert!(c.validate().is_err());
        let mut c = Config::paper_default(4);
        c.storage.enabled = true;
        c.storage.read_timeout = 0.0;
        assert!(c.validate().is_err());
        // Bounds are only enforced when the subsystem is enabled.
        let mut c = Config::paper_default(4);
        c.storage.n_objects = 0;
        assert_eq!(c.validate(), Ok(()));
        // Zero write/read rates are legal: a static, read-only store.
        let mut c = Config::paper_default(4);
        c.storage.enabled = true;
        c.storage.write_rate = 0.0;
        c.storage.read_rate = 0.0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn gossip_defaults_are_inert_and_valid() {
        let c = Config::paper_default(4);
        assert_eq!(c.gossip, GossipConfig::default());
        assert!(!c.gossip.enabled);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_gossip_values() {
        let mut c = Config::paper_default(4);
        c.gossip.enabled = true;
        assert_eq!(c.validate(), Ok(()));
        c.gossip.interval = 0.0;
        assert!(c.validate().is_err());
        c.gossip.interval = f64::NAN;
        assert!(c.validate().is_err());
        c.gossip.interval = 1.0;
        c.gossip.fanout = 0;
        assert!(c.validate().is_err());
        c.gossip.fanout = 3;
        c.gossip.window = 0;
        assert!(c.validate().is_err());
        c.gossip.window = 32;
        assert_eq!(c.validate(), Ok(()));
        // Bounds are only enforced when the subsystem is enabled, and
        // every culture validates.
        let mut c = Config::paper_default(4);
        c.gossip.interval = 0.0;
        c.gossip.window = 0;
        assert_eq!(c.validate(), Ok(()));
        for culture in [
            GossipCulture::Chatty,
            GossipCulture::Taciturn,
            GossipCulture::Hybrid,
        ] {
            let mut c = Config::paper_default(4);
            c.gossip.enabled = true;
            c.gossip.culture = culture;
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    fn role_and_tenant_defaults_are_inert_and_valid() {
        let c = Config::paper_default(4);
        assert_eq!(c.roles, RoleConfig::default());
        assert!(!c.roles.enabled);
        assert!(!c.roles_active());
        assert_eq!(c.tenants, TenantConfig::default());
        assert!(!c.tenants.enabled);
        assert!(!c.tenants_active());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_role_and_tenant_values() {
        let mut c = Config::paper_default(4);
        c.roles.enabled = true;
        assert_eq!(c.validate(), Ok(()));
        c.roles.relay_queue_factor = 0.5;
        assert!(c.validate().is_err());
        c.roles.relay_queue_factor = 4.0;
        assert_eq!(c.validate(), Ok(()));
        // A zero-relay, zero-keeper (all-edge) fleet is legal.
        c.roles.relay_every = 0;
        c.roles.keeper_every = 0;
        assert_eq!(c.validate(), Ok(()));
        // Bounds are only enforced when the subsystem is enabled.
        let mut c = Config::paper_default(4);
        c.roles.relay_queue_factor = 0.0;
        assert_eq!(c.validate(), Ok(()));

        let mut c = Config::paper_default(4);
        c.tenants.enabled = true;
        assert!(c.validate().is_err(), "enabled tenants need specs");
        c.tenants.specs.push(TenantSpec {
            weight: 1.0,
            zipf_theta: 0.0,
            slo_availability: 0.99,
        });
        assert_eq!(c.validate(), Ok(()));
        assert!(c.tenants_active());
        c.tenants.specs[0].weight = 0.0;
        assert!(c.validate().is_err());
        c.tenants.specs[0].weight = 1.0;
        c.tenants.specs[0].zipf_theta = -1.0;
        assert!(c.validate().is_err());
        c.tenants.specs[0].zipf_theta = 1.25;
        c.tenants.specs[0].slo_availability = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn class_wave_scenarios_require_roles() {
        let mut c = Config::paper_default(4);
        c.scenario.events.push(ScenarioEvent {
            at: 1.0,
            action: ChaosAction::ClassCrash {
                class: ServerClass::Relay,
            },
        });
        assert!(c.validate().is_err(), "class wave without roles");
        c.roles.enabled = true;
        assert_eq!(c.validate(), Ok(()));
        c.scenario.events.push(ScenarioEvent {
            at: 2.0,
            action: ChaosAction::ClassRecover {
                class: ServerClass::Relay,
            },
        });
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn degenerate_retry_settings_are_valid() {
        // Certain loss under the reliability layer is a legal corner
        // (`total_loss_still_accounts_exactly` runs it).
        let mut c = Config::paper_default(4);
        c.retry.enabled = true;
        assert_eq!(c.validate(), Ok(()));
        c.faults.loss_prob = 1.0;
        assert_eq!(c.validate(), Ok(()));
    }
}
