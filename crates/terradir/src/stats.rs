//! Run statistics: everything the paper's figures plot.

use terradir_sim::{BinnedCounter, Histogram};

/// Counters, per-second series, and distributions collected over a run.
///
/// Fields are public: the benchmark harness reads them directly to print
/// the paper's series.
#[derive(Debug)]
pub struct RunStats {
    /// Queries injected.
    pub injected: u64,
    /// Queries resolved (result delivered at the origin).
    pub resolved: u64,
    /// Query-traffic messages dropped at full request queues.
    pub dropped_queue: u64,
    /// Queries dropped for exceeding the hop TTL.
    pub dropped_ttl: u64,
    /// Queries dropped with no routable candidate.
    pub dropped_stuck: u64,
    /// Queries finalized by exhausting every retry attempt (the only final
    /// drop kind while the reliability layer is on).
    pub dropped_timeout: u64,
    /// Query-traffic messages lost in transit with no retry layer to
    /// recover them (final drops under fault injection without retries).
    pub dropped_lost: u64,
    /// Query-path messages serviced (each is one routing/result step).
    pub query_messages: u64,
    /// Replication control messages sent (probes, replies, requests, acks,
    /// denies) — the paper's "load balancing messages".
    pub control_messages: u64,
    /// Replicas installed.
    pub replicas_created: u64,
    /// Replicas evicted.
    pub replicas_deleted: u64,
    /// Replication sessions started.
    pub sessions_started: u64,
    /// Replication sessions that installed replicas.
    pub sessions_completed: u64,
    /// Replication sessions aborted.
    pub sessions_aborted: u64,
    /// Dropped queries per second (Fig. 3).
    pub drops_per_sec: BinnedCounter,
    /// Replicas created per second (Fig. 4) / per minute (Fig. 8).
    pub replicas_per_sec: BinnedCounter,
    /// Query latency in seconds, injection → result at origin (Fig. 9).
    pub latency: Histogram,
    /// Network hops per resolved query.
    pub hops: Histogram,
    /// Mean server utilization each second (Fig. 6).
    pub load_mean_per_sec: Vec<f64>,
    /// Maximum server utilization each second (Fig. 6).
    pub load_max_per_sec: Vec<f64>,
    /// Replicas created per namespace level (Fig. 7), indexed by depth.
    pub created_per_level: Vec<u64>,
    /// Data retrievals (two-step access) that obtained data.
    pub data_fetches_ok: u64,
    /// Data retrievals that exhausted every mapped host.
    pub data_fetches_failed: u64,
    /// Query re-issues by the reliability layer (attempts beyond the
    /// first; `injected + retries` = total attempts launched).
    pub retries: u64,
    /// Messages lost to transport fault injection (all kinds).
    pub messages_lost: u64,
    /// Messages addressed to a failed server (all kinds).
    pub messages_to_dead: u64,
    /// Attempt-level query losses under retry, by cause. These are *not*
    /// final drops — the pending-table timeout is — but together with
    /// `retries` they decompose exactly where attempts went.
    pub attempts_lost_queue: u64,
    /// Attempt-level losses: hop TTL exceeded (retry mode).
    pub attempts_lost_ttl: u64,
    /// Attempt-level losses: no routable candidate (retry mode).
    pub attempts_lost_stuck: u64,
    /// Attempt-level losses: delivery to a dead server (retry mode).
    pub attempts_lost_dead: u64,
    /// Attempt-level losses: transport loss injection (retry mode).
    pub attempts_lost_transport: u64,
    /// Hosts newly marked dead (negative-cache insertions) across servers.
    pub negative_evictions: u64,
    /// Servers failed by the churn process.
    pub churn_failures: u64,
    /// Servers recovered (churn or `System::recover_server`).
    pub churn_recoveries: u64,
    /// Queries injected per second (availability-curve denominator).
    pub injected_per_sec: BinnedCounter,
    /// Queries resolved per second, binned at resolve time (availability-
    /// curve numerator).
    pub resolved_per_sec: BinnedCounter,
    /// Queries shed by the deepest-TTL admission policy (final drops with
    /// shedding on and no retry layer).
    pub dropped_shed: u64,
    /// Queries finalized by a delivery crossing an active partition cut
    /// (no retry layer).
    pub dropped_partition: u64,
    /// Attempt-level losses: shed by the admission policy (retry mode).
    pub attempts_lost_shed: u64,
    /// Attempt-level losses: delivery crossed an active cut (retry mode).
    pub attempts_lost_partition: u64,
    /// Messages of every kind dropped for crossing an active cut.
    pub messages_cut: u64,
    /// Partition cuts applied (scenario `Cut` actions).
    pub cuts_applied: u64,
    /// Heals applied (scenario `Heal` actions).
    pub heals_applied: u64,
    /// Extra queries injected by flash crowds (already in `injected`).
    pub flash_injected: u64,
    /// Servers crashed by `CorrelatedCrash` scenario actions (already in
    /// `churn_failures`).
    pub scenario_crashes: u64,
    /// Per-second injections whose origin sat on the minority side of the
    /// most recent cut (sticky across the heal, until the next cut).
    pub injected_per_sec_minority: BinnedCounter,
    /// Per-second resolutions delivered on the minority side.
    pub resolved_per_sec_minority: BinnedCounter,
    /// Per-second injections from majority-side (or never-cut) origins.
    pub injected_per_sec_majority: BinnedCounter,
    /// Per-second resolutions delivered on the majority side.
    pub resolved_per_sec_majority: BinnedCounter,
    /// Forwarded queries that landed on a server not hosting the node the
    /// sender routed via (stale-pointer detections; DESIGN.md §14). Pure
    /// observation: counted with or without misroute repair enabled.
    pub misroutes: u64,
    /// Total forwarding steps resolved queries spent after their first
    /// misroute (the aggregate detour cost of stale soft state).
    pub detour_hops: u64,
    /// Soft-state entries (replica records, context maps, cache entries)
    /// evicted by the lease sweep.
    pub lease_evictions: u64,
    /// `MapUpdate` advertisements pushed by warm-rejoin / post-heal
    /// anti-entropy reconciliation.
    pub reconcile_pushes: u64,
    /// Per-second resolutions that never hit a stale pointer (numerator of
    /// the reconvergence curve; denominator is `resolved_per_sec`).
    pub clean_resolved_per_sec: BinnedCounter,
    /// Stored objects ever written (pre-seeded + durability-scan
    /// universe size; DESIGN.md §17). With storage enabled this is the
    /// constant object count, so `objects_alive + objects_lost`
    /// partitions it exactly at every scan.
    pub objects_written: u64,
    /// Objects with at least one copy on a live replica at the latest
    /// durability scan (absolute gauge, not a running total).
    pub objects_alive: u64,
    /// Objects with no live copy at the latest durability scan —
    /// every replica-set member either dead or wiped since the write.
    pub objects_lost: u64,
    /// Object writes issued by the storage write driver (each fans out
    /// to the whole replica set).
    pub object_puts: u64,
    /// Object reads that finalized with *some* copy (fresh or stale).
    pub object_reads: u64,
    /// Object reads that finalized with no copy at all (probed replicas
    /// all empty, dead, or cut off).
    pub reads_failed: u64,
    /// Object reads that returned a copy older than the latest version
    /// committed when the read was issued (the staleness cost of
    /// any-replica reads; quorum reads shrink it).
    pub stale_reads: u64,
    /// Modeled bytes of every remote message send, from the
    /// per-`Message` byte-cost model (DESIGN.md §18): queries, control
    /// traffic, storage propagation, and gossip.
    /// Local hand-offs and substrate-synthesized feedback cost nothing.
    pub bytes_on_wire: u64,
    /// The subset of `bytes_on_wire` spent by the anti-entropy gossip
    /// subsystem (digests at delta or full cost, pushes, pull replies).
    pub gossip_bytes: u64,
    /// Per-tenant queries injected (DESIGN.md §19), indexed by tenant id.
    /// Empty when tenants are off; spine-targeted queries (no tenant)
    /// are uncounted.
    pub tenant_injected: Vec<u64>,
    /// Per-tenant queries resolved.
    pub tenant_resolved: Vec<u64>,
    /// Per-tenant final query drops (all kinds folded).
    pub tenant_dropped: Vec<u64>,
    /// Per-tenant sum of resolution latencies in seconds (divide by
    /// `tenant_resolved` for the mean).
    pub tenant_latency_sum: Vec<f64>,
    /// Per-tenant resolutions that hit at least one stale pointer (the
    /// tenant-facing staleness signal).
    pub tenant_misrouted: Vec<u64>,
    /// Per-tenant availability SLO targets, copied from the config so
    /// reports carry their own pass/fail threshold.
    pub tenant_slo: Vec<f64>,
    /// RNG draw ledger: total 64-bit draws per component tag, indexed by
    /// `terradir_workload::seed::tags` (slot 0 unused). Synced by the
    /// system after every `run_until`; equal ledgers across two replays of
    /// one seed are the runtime half of the stream-discipline guarantee
    /// (DESIGN.md §15).
    pub rng_draws: Vec<u64>,
    /// Allocator events (alloc/realloc calls) charged to the simulation
    /// thread while `run_until` executed, from the counting global
    /// allocator (DESIGN.md §16). Zero unless the `alloc-ledger` feature
    /// installed the allocator.
    pub alloc_events: u64,
    /// Bytes requested across those allocator events.
    pub alloc_bytes: u64,
}

/// Per-second availability from an injected/resolved bin pair: each bin is
/// `resolved / injected` capped at 1; a bin with no injections reads as
/// fully available.
pub fn availability_curve(injected: &BinnedCounter, resolved: &BinnedCounter) -> Vec<f64> {
    let res = resolved.bins();
    injected
        .bins()
        .iter()
        .enumerate()
        .map(|(t, &inj)| {
            if inj == 0 {
                1.0
            } else {
                (res.get(t).copied().unwrap_or(0) as f64 / inj as f64).min(1.0)
            }
        })
        .collect()
}

impl RunStats {
    /// Fresh statistics for a namespace with `max_depth` levels.
    pub fn new(max_depth: u16) -> RunStats {
        RunStats {
            injected: 0,
            resolved: 0,
            dropped_queue: 0,
            dropped_ttl: 0,
            dropped_stuck: 0,
            query_messages: 0,
            control_messages: 0,
            replicas_created: 0,
            replicas_deleted: 0,
            sessions_started: 0,
            sessions_completed: 0,
            sessions_aborted: 0,
            drops_per_sec: BinnedCounter::new(1.0),
            replicas_per_sec: BinnedCounter::new(1.0),
            latency: Histogram::new(30.0, 3000),
            hops: Histogram::new(64.0, 64),
            load_mean_per_sec: Vec::new(),
            load_max_per_sec: Vec::new(),
            created_per_level: vec![0; max_depth as usize + 1],
            data_fetches_ok: 0,
            data_fetches_failed: 0,
            dropped_timeout: 0,
            dropped_lost: 0,
            retries: 0,
            messages_lost: 0,
            messages_to_dead: 0,
            attempts_lost_queue: 0,
            attempts_lost_ttl: 0,
            attempts_lost_stuck: 0,
            attempts_lost_dead: 0,
            attempts_lost_transport: 0,
            negative_evictions: 0,
            churn_failures: 0,
            churn_recoveries: 0,
            injected_per_sec: BinnedCounter::new(1.0),
            resolved_per_sec: BinnedCounter::new(1.0),
            dropped_shed: 0,
            dropped_partition: 0,
            attempts_lost_shed: 0,
            attempts_lost_partition: 0,
            messages_cut: 0,
            cuts_applied: 0,
            heals_applied: 0,
            flash_injected: 0,
            scenario_crashes: 0,
            injected_per_sec_minority: BinnedCounter::new(1.0),
            resolved_per_sec_minority: BinnedCounter::new(1.0),
            injected_per_sec_majority: BinnedCounter::new(1.0),
            resolved_per_sec_majority: BinnedCounter::new(1.0),
            misroutes: 0,
            detour_hops: 0,
            lease_evictions: 0,
            reconcile_pushes: 0,
            clean_resolved_per_sec: BinnedCounter::new(1.0),
            objects_written: 0,
            objects_alive: 0,
            objects_lost: 0,
            object_puts: 0,
            object_reads: 0,
            reads_failed: 0,
            stale_reads: 0,
            bytes_on_wire: 0,
            gossip_bytes: 0,
            tenant_injected: Vec::new(),
            tenant_resolved: Vec::new(),
            tenant_dropped: Vec::new(),
            tenant_latency_sum: Vec::new(),
            tenant_misrouted: Vec::new(),
            tenant_slo: Vec::new(),
            rng_draws: Vec::new(),
            alloc_events: 0,
            alloc_bytes: 0,
        }
    }

    /// Sizes the per-tenant series and installs the availability SLO
    /// targets (DESIGN.md §19). Called once at construction when tenants
    /// are active; with tenants off every per-tenant series stays empty.
    pub fn init_tenants(&mut self, slos: impl Iterator<Item = f64>) {
        self.tenant_slo = slos.collect();
        let n = self.tenant_slo.len();
        self.tenant_injected = vec![0; n];
        self.tenant_resolved = vec![0; n];
        self.tenant_dropped = vec![0; n];
        self.tenant_latency_sum = vec![0.0; n];
        self.tenant_misrouted = vec![0; n];
    }

    /// Records a query injection at time `t`: the fleet-wide count and
    /// availability denominator, the per-side denominator by the
    /// origin's sticky `minority` label, and the target's tenant (`None`
    /// for spine targets or with tenants off).
    pub fn on_injected(&mut self, t: f64, minority: bool, tenant: Option<u16>) {
        self.injected += 1;
        self.injected_per_sec.record(t);
        if minority {
            self.injected_per_sec_minority.record(t);
        } else {
            self.injected_per_sec_majority.record(t);
        }
        if let Some(slot) = tenant.and_then(|i| self.tenant_injected.get_mut(i as usize)) {
            *slot += 1;
        }
    }

    /// Records a resolution attributed to tenant `t` with its latency and
    /// whether the winning attempt hit a stale pointer.
    pub fn on_tenant_resolved(&mut self, t: u16, latency: f64, misrouted: bool) {
        if let Some(slot) = self.tenant_resolved.get_mut(t as usize) {
            *slot += 1;
        }
        if let Some(slot) = self.tenant_latency_sum.get_mut(t as usize) {
            *slot += latency.max(0.0);
        }
        if misrouted {
            if let Some(slot) = self.tenant_misrouted.get_mut(t as usize) {
                *slot += 1;
            }
        }
    }

    /// Per-tenant whole-run availability: `resolved / injected`, capped
    /// at 1; a tenant that saw no injections reads fully available.
    pub fn tenant_availability(&self) -> Vec<f64> {
        self.tenant_injected
            .iter()
            .zip(&self.tenant_resolved)
            .map(|(&inj, &res)| {
                if inj == 0 {
                    1.0
                } else {
                    (res as f64 / inj as f64).min(1.0)
                }
            })
            .collect()
    }

    /// Per-tenant mean resolution latency in seconds (0 when a tenant
    /// resolved nothing).
    pub fn tenant_latency_mean(&self) -> Vec<f64> {
        self.tenant_latency_sum
            .iter()
            .zip(&self.tenant_resolved)
            .map(|(&sum, &res)| if res == 0 { 0.0 } else { sum / res as f64 })
            .collect()
    }

    /// Worst per-tenant availability (1.0 with no tenants configured).
    pub fn tenant_worst_availability(&self) -> f64 {
        self.tenant_availability().into_iter().fold(1.0, f64::min)
    }

    /// Tenants whose whole-run availability fell below their SLO target.
    pub fn tenant_slo_misses(&self) -> u64 {
        self.tenant_availability()
            .iter()
            .zip(&self.tenant_slo)
            .filter(|(got, want)| *got < *want)
            .count() as u64
    }

    /// Total dropped queries (queue + TTL + stuck + timeout + lost + shed
    /// + partition).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_queue
            + self.dropped_ttl
            + self.dropped_stuck
            + self.dropped_timeout
            + self.dropped_lost
            + self.dropped_shed
            + self.dropped_partition
    }

    /// Fleet-wide per-second availability curve.
    pub fn availability(&self) -> Vec<f64> {
        availability_curve(&self.injected_per_sec, &self.resolved_per_sec)
    }

    /// Availability of queries issued on the minority side of the most
    /// recent cut (the full run's curve; before any cut the series is
    /// empty and reads fully available).
    pub fn availability_minority(&self) -> Vec<f64> {
        availability_curve(
            &self.injected_per_sec_minority,
            &self.resolved_per_sec_minority,
        )
    }

    /// Availability of queries issued on the majority (or never-cut) side.
    pub fn availability_majority(&self) -> Vec<f64> {
        availability_curve(
            &self.injected_per_sec_majority,
            &self.resolved_per_sec_majority,
        )
    }

    /// Fraction of injected queries that were dropped.
    pub fn drop_fraction(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.dropped_total() as f64 / self.injected as f64
        }
    }

    /// Fraction of injected queries resolved.
    pub fn resolve_fraction(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.resolved as f64 / self.injected as f64
        }
    }

    /// Records a query lost at time `t` to `kind` — the one place a lost
    /// query is counted. Under the reliability layer (`retry`) a loss is
    /// attempt-level: the query stays pending and only its timeout
    /// finalizes it, so just the matching `attempts_lost_*` counter
    /// moves. Otherwise, and always for `Timeout` (the finalizing kind),
    /// it is a final drop: the `dropped_*` counter, the per-second drop
    /// series and the target's tenant (`None` for spine targets or with
    /// tenants off) all move.
    pub fn on_lost(&mut self, t: f64, kind: DropKind, retry: bool, tenant: Option<u16>) {
        let final_drop = !retry || kind == DropKind::Timeout;
        let counter = match (final_drop, kind) {
            (true, DropKind::Queue) => &mut self.dropped_queue,
            (true, DropKind::Ttl) => &mut self.dropped_ttl,
            (true, DropKind::Stuck) => &mut self.dropped_stuck,
            (_, DropKind::Timeout) => &mut self.dropped_timeout,
            (true, DropKind::Lost) => &mut self.dropped_lost,
            (true, DropKind::Shed) => &mut self.dropped_shed,
            (true, DropKind::Partition) => &mut self.dropped_partition,
            (false, DropKind::Queue) => &mut self.attempts_lost_queue,
            (false, DropKind::Ttl) => &mut self.attempts_lost_ttl,
            (false, DropKind::Stuck) => &mut self.attempts_lost_stuck,
            (false, DropKind::Lost) => &mut self.attempts_lost_transport,
            (false, DropKind::Shed) => &mut self.attempts_lost_shed,
            (false, DropKind::Partition) => &mut self.attempts_lost_partition,
        };
        *counter += 1;
        if final_drop {
            self.drops_per_sec.record(t);
            if let Some(slot) = tenant.and_then(|i| self.tenant_dropped.get_mut(i as usize)) {
                *slot += 1;
            }
        }
    }

    /// Records a resolved query. `misrouted`/`detour_hops` come from the
    /// winning attempt's packet: a clean resolution (no stale pointer hit)
    /// feeds the reconvergence-curve numerator.
    pub fn on_resolved(&mut self, t: f64, issued_at: f64, hops: u32, misrouted: bool, detour: u32) {
        self.resolved += 1;
        self.resolved_per_sec.record(t);
        self.latency.record((t - issued_at).max(0.0));
        self.hops.record(hops as f64);
        self.detour_hops += u64::from(detour);
        if !misrouted {
            self.clean_resolved_per_sec.record(t);
        }
    }

    /// Per-second reconvergence curve (DESIGN.md §14): the fraction of
    /// resolutions each second that never hit a stale pointer. A second
    /// with no resolutions reads fully reconverged.
    pub fn reconvergence(&self) -> Vec<f64> {
        availability_curve(&self.resolved_per_sec, &self.clean_resolved_per_sec)
    }

    /// Records an attempt-level loss to a dead-server delivery (no
    /// `DropKind`: without the reliability layer such a loss is a final
    /// `Queue` drop).
    pub fn on_attempt_dead(&mut self) {
        self.attempts_lost_dead += 1;
    }

    /// Records a replica installation at a node of the given depth.
    pub fn on_replica_created(&mut self, t: f64, level: u16) {
        self.replicas_created += 1;
        self.replicas_per_sec.record(t);
        let idx = level as usize;
        if idx >= self.created_per_level.len() {
            self.created_per_level.resize(idx + 1, 0);
        }
        if let Some(slot) = self.created_per_level.get_mut(idx) {
            *slot += 1;
        }
    }
}

/// A flat, serializable snapshot of a run's headline numbers (JSON export
/// for harnesses and the CLI's `--json` flag).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Queries injected.
    pub injected: u64,
    /// Queries resolved.
    pub resolved: u64,
    /// Total dropped (queue + TTL + stuck).
    pub dropped: u64,
    /// Drop fraction.
    pub drop_fraction: f64,
    /// Mean latency in seconds (0 when nothing resolved).
    pub latency_mean_s: f64,
    /// 99th-percentile latency in seconds.
    pub latency_p99_s: f64,
    /// Mean hops per resolved query.
    pub hops_mean: f64,
    /// Replicas created.
    pub replicas_created: u64,
    /// Replicas deleted.
    pub replicas_deleted: u64,
    /// Replication sessions completed.
    pub sessions_completed: u64,
    /// Control messages sent.
    pub control_messages: u64,
    /// Successful data fetches.
    pub data_fetches_ok: u64,
    /// Query re-issues by the reliability layer.
    pub retries: u64,
    /// Messages lost to transport fault injection.
    pub messages_lost: u64,
    /// Servers failed by the churn process.
    pub churn_failures: u64,
    /// Servers recovered.
    pub churn_recoveries: u64,
    /// Queries shed by the admission policy (final drops).
    pub dropped_shed: u64,
    /// Queries finalized by crossing an active cut.
    pub dropped_partition: u64,
    /// Messages dropped for crossing an active cut.
    pub messages_cut: u64,
    /// Partition cuts applied.
    pub cuts_applied: u64,
    /// Heals applied.
    pub heals_applied: u64,
    /// Extra queries injected by flash crowds.
    pub flash_injected: u64,
    /// Stale-pointer detections (queries landing on a non-hosting server).
    pub misroutes: u64,
    /// Aggregate post-misroute forwarding steps over resolved queries.
    pub detour_hops: u64,
    /// Soft-state entries evicted by the lease sweep.
    pub lease_evictions: u64,
    /// Anti-entropy advertisements pushed on warm rejoin / post-heal.
    pub reconcile_pushes: u64,
    /// Stored objects ever written (the durability universe).
    pub objects_written: u64,
    /// Objects with a live copy at the latest durability scan.
    pub objects_alive: u64,
    /// Objects with no live copy at the latest durability scan.
    pub objects_lost: u64,
    /// Object writes issued by the storage write driver.
    pub object_puts: u64,
    /// Object reads that finalized with some copy.
    pub object_reads: u64,
    /// Object reads that finalized with no copy at all.
    pub reads_failed: u64,
    /// Object reads that returned a stale version.
    pub stale_reads: u64,
    /// Modeled bytes of every remote message send (DESIGN.md §18).
    pub bytes_on_wire: u64,
    /// The gossip subsystem's share of `bytes_on_wire`.
    pub gossip_bytes: u64,
    /// Query-path messages serviced.
    pub query_messages: u64,
    /// Replication sessions aborted.
    pub sessions_aborted: u64,
    /// Data retrievals that exhausted every mapped host.
    pub data_fetches_failed: u64,
    /// Messages addressed to a failed server.
    pub messages_to_dead: u64,
    /// Attempt-level losses: request queue overflow (retry mode).
    pub attempts_lost_queue: u64,
    /// Attempt-level losses: hop TTL exceeded (retry mode).
    pub attempts_lost_ttl: u64,
    /// Attempt-level losses: no routable candidate (retry mode).
    pub attempts_lost_stuck: u64,
    /// Attempt-level losses: delivery to a dead server (retry mode).
    pub attempts_lost_dead: u64,
    /// Attempt-level losses: transport loss injection (retry mode).
    pub attempts_lost_transport: u64,
    /// Attempt-level losses: shed by the admission policy (retry mode).
    pub attempts_lost_shed: u64,
    /// Attempt-level losses: delivery crossed an active cut (retry mode).
    pub attempts_lost_partition: u64,
    /// Servers crashed by `CorrelatedCrash` scenario actions.
    pub scenario_crashes: u64,
    /// Tenants configured (0 with tenants off).
    pub tenant_count: u64,
    /// Worst per-tenant whole-run availability (1.0 with no tenants).
    pub tenant_worst_availability: f64,
    /// Tenants whose availability fell below their SLO target.
    pub tenant_slo_misses: u64,
    /// Total RNG draws across every tagged stream (ledger sum).
    pub rng_draws: u64,
    /// Allocator events charged to the run (0 without the alloc ledger).
    pub alloc_events: u64,
    /// Bytes requested across those allocator events.
    pub alloc_bytes: u64,
}

impl Summary {
    /// Renders the summary as a JSON object (hand-rolled: every field is
    /// numeric, so no JSON library is needed).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"injected\":{},\"resolved\":{},\"dropped\":{},",
                "\"drop_fraction\":{:.6},\"latency_mean_s\":{:.6},",
                "\"latency_p99_s\":{:.6},\"hops_mean\":{:.4},",
                "\"replicas_created\":{},\"replicas_deleted\":{},",
                "\"sessions_completed\":{},\"control_messages\":{},",
                "\"data_fetches_ok\":{},\"retries\":{},",
                "\"messages_lost\":{},\"churn_failures\":{},",
                "\"churn_recoveries\":{},\"dropped_shed\":{},",
                "\"dropped_partition\":{},\"messages_cut\":{},",
                "\"cuts_applied\":{},\"heals_applied\":{},",
                "\"flash_injected\":{},\"misroutes\":{},",
                "\"detour_hops\":{},\"lease_evictions\":{},",
                "\"reconcile_pushes\":{},\"objects_written\":{},",
                "\"objects_alive\":{},\"objects_lost\":{},",
                "\"object_puts\":{},\"object_reads\":{},",
                "\"reads_failed\":{},\"stale_reads\":{},",
                "\"bytes_on_wire\":{},\"gossip_bytes\":{},",
                "\"query_messages\":{},\"sessions_aborted\":{},",
                "\"data_fetches_failed\":{},\"messages_to_dead\":{},",
                "\"attempts_lost_queue\":{},\"attempts_lost_ttl\":{},",
                "\"attempts_lost_stuck\":{},\"attempts_lost_dead\":{},",
                "\"attempts_lost_transport\":{},\"attempts_lost_shed\":{},",
                "\"attempts_lost_partition\":{},\"scenario_crashes\":{},",
                "\"tenant_count\":{},\"tenant_worst_availability\":{:.6},",
                "\"tenant_slo_misses\":{},",
                "\"rng_draws\":{},",
                "\"alloc_events\":{},\"alloc_bytes\":{}}}"
            ),
            self.injected,
            self.resolved,
            self.dropped,
            self.drop_fraction,
            self.latency_mean_s,
            self.latency_p99_s,
            self.hops_mean,
            self.replicas_created,
            self.replicas_deleted,
            self.sessions_completed,
            self.control_messages,
            self.data_fetches_ok,
            self.retries,
            self.messages_lost,
            self.churn_failures,
            self.churn_recoveries,
            self.dropped_shed,
            self.dropped_partition,
            self.messages_cut,
            self.cuts_applied,
            self.heals_applied,
            self.flash_injected,
            self.misroutes,
            self.detour_hops,
            self.lease_evictions,
            self.reconcile_pushes,
            self.objects_written,
            self.objects_alive,
            self.objects_lost,
            self.object_puts,
            self.object_reads,
            self.reads_failed,
            self.stale_reads,
            self.bytes_on_wire,
            self.gossip_bytes,
            self.query_messages,
            self.sessions_aborted,
            self.data_fetches_failed,
            self.messages_to_dead,
            self.attempts_lost_queue,
            self.attempts_lost_ttl,
            self.attempts_lost_stuck,
            self.attempts_lost_dead,
            self.attempts_lost_transport,
            self.attempts_lost_shed,
            self.attempts_lost_partition,
            self.scenario_crashes,
            self.tenant_count,
            self.tenant_worst_availability,
            self.tenant_slo_misses,
            self.rng_draws,
            self.alloc_events,
            self.alloc_bytes,
        )
    }
}

impl RunStats {
    /// Builds the serializable summary.
    pub fn summary(&self) -> Summary {
        Summary {
            injected: self.injected,
            resolved: self.resolved,
            dropped: self.dropped_total(),
            drop_fraction: self.drop_fraction(),
            latency_mean_s: self.latency.mean().unwrap_or(0.0),
            latency_p99_s: self.latency.quantile(0.99).unwrap_or(0.0),
            hops_mean: self.hops.mean().unwrap_or(0.0),
            replicas_created: self.replicas_created,
            replicas_deleted: self.replicas_deleted,
            sessions_completed: self.sessions_completed,
            control_messages: self.control_messages,
            data_fetches_ok: self.data_fetches_ok,
            retries: self.retries,
            messages_lost: self.messages_lost,
            churn_failures: self.churn_failures,
            churn_recoveries: self.churn_recoveries,
            dropped_shed: self.dropped_shed,
            dropped_partition: self.dropped_partition,
            messages_cut: self.messages_cut,
            cuts_applied: self.cuts_applied,
            heals_applied: self.heals_applied,
            flash_injected: self.flash_injected,
            misroutes: self.misroutes,
            detour_hops: self.detour_hops,
            lease_evictions: self.lease_evictions,
            reconcile_pushes: self.reconcile_pushes,
            objects_written: self.objects_written,
            objects_alive: self.objects_alive,
            objects_lost: self.objects_lost,
            object_puts: self.object_puts,
            object_reads: self.object_reads,
            reads_failed: self.reads_failed,
            stale_reads: self.stale_reads,
            bytes_on_wire: self.bytes_on_wire,
            gossip_bytes: self.gossip_bytes,
            query_messages: self.query_messages,
            sessions_aborted: self.sessions_aborted,
            data_fetches_failed: self.data_fetches_failed,
            messages_to_dead: self.messages_to_dead,
            attempts_lost_queue: self.attempts_lost_queue,
            attempts_lost_ttl: self.attempts_lost_ttl,
            attempts_lost_stuck: self.attempts_lost_stuck,
            attempts_lost_dead: self.attempts_lost_dead,
            attempts_lost_transport: self.attempts_lost_transport,
            attempts_lost_shed: self.attempts_lost_shed,
            attempts_lost_partition: self.attempts_lost_partition,
            scenario_crashes: self.scenario_crashes,
            tenant_count: self.tenant_slo.len() as u64,
            tenant_worst_availability: self.tenant_worst_availability(),
            tenant_slo_misses: self.tenant_slo_misses(),
            rng_draws: self.rng_draws.iter().sum(),
            alloc_events: self.alloc_events,
            alloc_bytes: self.alloc_bytes,
        }
    }
}

/// Why a query was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Request queue overflow.
    Queue,
    /// Hop TTL exceeded.
    Ttl,
    /// No routable candidate.
    Stuck,
    /// Every retry attempt timed out at the issuing server.
    Timeout,
    /// Lost to transport fault injection with no retry layer.
    Lost,
    /// Shed by the deepest-TTL admission policy at a full queue.
    Shed,
    /// Delivery crossed an active partition cut.
    Partition,
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
    fn fractions_handle_empty_run() {
        let s = RunStats::new(4);
        assert_eq!(s.drop_fraction(), 0.0);
        assert_eq!(s.resolve_fraction(), 0.0);
    }

    #[test]
    fn drop_accounting_by_kind() {
        let mut s = RunStats::new(4);
        s.injected = 10;
        s.on_lost(0.5, DropKind::Queue, false, None);
        s.on_lost(1.5, DropKind::Ttl, false, None);
        s.on_lost(1.7, DropKind::Stuck, false, None);
        assert_eq!(s.dropped_total(), 3);
        assert_eq!(s.drop_fraction(), 0.3);
        assert_eq!(s.drops_per_sec.bins(), &[1, 2]);
    }

    #[test]
    fn resolved_records_latency_and_hops() {
        let mut s = RunStats::new(4);
        s.injected = 1;
        s.on_resolved(2.0, 1.5, 7, false, 0);
        assert_eq!(s.resolved, 1);
        assert!((s.latency.mean().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(s.hops.mean(), Some(7.0));
    }

    #[test]
    fn summary_snapshot_matches_fields() {
        let mut s = RunStats::new(2);
        s.injected = 4;
        s.on_resolved(1.0, 0.5, 3, false, 0);
        s.on_lost(1.0, DropKind::Queue, false, None);
        let sum = s.summary();
        assert_eq!(sum.injected, 4);
        assert_eq!(sum.resolved, 1);
        assert_eq!(sum.dropped, 1);
        assert!((sum.drop_fraction - 0.25).abs() < 1e-12);
        assert!((sum.latency_mean_s - 0.5).abs() < 1e-9);
        assert_eq!(sum.hops_mean, 3.0);
    }

    #[test]
    fn summary_json_is_well_formed() {
        let mut s = RunStats::new(2);
        s.injected = 2;
        s.on_resolved(1.0, 0.5, 3, false, 0);
        let json = s.summary().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"injected\":2"));
        assert!(json.contains("\"hops_mean\":3.0000"));
        // Balanced quotes and braces (cheap well-formedness probe).
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn reliability_drop_kinds_are_decomposable() {
        let kinds = [
            DropKind::Queue,
            DropKind::Ttl,
            DropKind::Stuck,
            DropKind::Timeout,
            DropKind::Lost,
            DropKind::Shed,
            DropKind::Partition,
        ];
        let counters = |s: &RunStats| {
            [
                s.dropped_queue,
                s.dropped_ttl,
                s.dropped_stuck,
                s.dropped_timeout,
                s.dropped_lost,
                s.dropped_shed,
                s.dropped_partition,
                s.attempts_lost_queue,
                s.attempts_lost_ttl,
                s.attempts_lost_stuck,
                s.attempts_lost_dead,
                s.attempts_lost_transport,
                s.attempts_lost_shed,
                s.attempts_lost_partition,
            ]
        };
        for kind in kinds {
            for retry in [false, true] {
                let mut s = RunStats::new(2);
                s.init_tenants([0.9, 0.9].into_iter());
                s.on_lost(1.5, kind, retry, Some(1));
                // `Timeout` is the finalizer: final in both regimes.
                let final_drop = !retry || kind == DropKind::Timeout;
                let moved = match (final_drop, kind) {
                    (true, DropKind::Queue) => s.dropped_queue,
                    (true, DropKind::Ttl) => s.dropped_ttl,
                    (true, DropKind::Stuck) => s.dropped_stuck,
                    (_, DropKind::Timeout) => s.dropped_timeout,
                    (true, DropKind::Lost) => s.dropped_lost,
                    (true, DropKind::Shed) => s.dropped_shed,
                    (true, DropKind::Partition) => s.dropped_partition,
                    (false, DropKind::Queue) => s.attempts_lost_queue,
                    (false, DropKind::Ttl) => s.attempts_lost_ttl,
                    (false, DropKind::Stuck) => s.attempts_lost_stuck,
                    (false, DropKind::Lost) => s.attempts_lost_transport,
                    (false, DropKind::Shed) => s.attempts_lost_shed,
                    (false, DropKind::Partition) => s.attempts_lost_partition,
                };
                let what = format!("{kind:?} with retry {retry}");
                assert_eq!(moved, 1, "{what}: its own counter moves");
                assert_eq!(counters(&s).iter().sum::<u64>(), 1, "{what}: only it");
                // Attempt-level losses never reach the final-drop totals,
                // the drop series or the tenant ledger.
                let finals = u64::from(final_drop);
                assert_eq!(s.dropped_total(), finals, "{what}");
                assert_eq!(s.drops_per_sec.total(), finals, "{what}");
                assert_eq!(s.tenant_dropped, vec![0, finals], "{what}");
            }
        }
        let mut s = RunStats::new(2);
        s.on_attempt_dead();
        assert_eq!(counters(&s).iter().sum::<u64>(), 1);
        assert_eq!(s.attempts_lost_dead, 1);
        assert_eq!(s.dropped_total(), 0);
    }

    #[test]
    fn availability_series_track_injection_and_resolution() {
        let mut s = RunStats::new(2);
        s.injected_per_sec.record(0.2);
        s.injected_per_sec.record(1.4);
        s.on_resolved(1.5, 0.2, 3, false, 0);
        assert_eq!(s.injected_per_sec.bins(), &[1, 1]);
        assert_eq!(s.resolved_per_sec.bins(), &[0, 1]);
    }

    #[test]
    fn chaos_drop_kinds_enter_the_totals() {
        let mut s = RunStats::new(2);
        s.injected = 4;
        s.on_lost(0.5, DropKind::Shed, false, None);
        s.on_lost(0.7, DropKind::Partition, false, None);
        assert_eq!(s.dropped_shed, 1);
        assert_eq!(s.dropped_partition, 1);
        assert_eq!(s.dropped_total(), 2);
        s.on_lost(0.8, DropKind::Shed, true, None);
        s.on_lost(0.9, DropKind::Partition, true, None);
        assert_eq!(s.attempts_lost_shed, 1);
        assert_eq!(s.attempts_lost_partition, 1);
        // Attempt-level losses never enter the final totals.
        assert_eq!(s.dropped_total(), 2);
    }

    #[test]
    fn availability_curve_handles_empty_and_partial_bins() {
        let mut s = RunStats::new(2);
        s.injected_per_sec.record(0.5);
        s.injected_per_sec.record(0.6);
        s.injected_per_sec.record(2.5);
        s.on_resolved(0.9, 0.5, 3, false, 0);
        let curve = s.availability();
        assert_eq!(curve.len(), 3);
        assert!((curve[0] - 0.5).abs() < 1e-12);
        assert_eq!(curve[1], 1.0, "no injections in bin 1 reads available");
        assert_eq!(curve[2], 0.0);
        // Per-side series start empty: fully available by definition.
        assert!(s.availability_minority().is_empty());
        s.injected_per_sec_minority.record(0.5);
        s.resolved_per_sec_minority.record(0.6);
        assert_eq!(s.availability_minority(), vec![1.0]);
    }

    #[test]
    fn reconvergence_curve_tracks_clean_resolutions() {
        let mut s = RunStats::new(2);
        s.on_resolved(0.5, 0.1, 3, true, 2);
        s.on_resolved(0.6, 0.1, 3, false, 0);
        s.on_resolved(1.5, 0.9, 4, false, 0);
        assert_eq!(s.detour_hops, 2);
        let curve = s.reconvergence();
        assert_eq!(curve.len(), 2);
        assert!((curve[0] - 0.5).abs() < 1e-12, "1 of 2 resolved cleanly");
        assert_eq!(curve[1], 1.0, "all-clean bin fully reconverged");
    }

    #[test]
    fn self_healing_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.misroutes = 4;
        s.lease_evictions = 2;
        s.reconcile_pushes = 5;
        s.on_resolved(0.5, 0.1, 3, true, 7);
        let json = s.summary().to_json();
        assert!(json.contains("\"misroutes\":4"));
        assert!(json.contains("\"detour_hops\":7"));
        assert!(json.contains("\"lease_evictions\":2"));
        assert!(json.contains("\"reconcile_pushes\":5"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn chaos_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.messages_cut = 3;
        s.cuts_applied = 1;
        s.heals_applied = 1;
        s.flash_injected = 9;
        s.on_lost(0.1, DropKind::Shed, false, None);
        let json = s.summary().to_json();
        assert!(json.contains("\"messages_cut\":3"));
        assert!(json.contains("\"cuts_applied\":1"));
        assert!(json.contains("\"heals_applied\":1"));
        assert!(json.contains("\"flash_injected\":9"));
        assert!(json.contains("\"dropped_shed\":1"));
        assert!(json.contains("\"dropped_partition\":0"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn storage_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.objects_written = 64;
        s.objects_alive = 60;
        s.objects_lost = 4;
        s.object_puts = 31;
        s.object_reads = 29;
        s.reads_failed = 2;
        s.stale_reads = 3;
        let json = s.summary().to_json();
        assert!(json.contains("\"objects_written\":64"));
        assert!(json.contains("\"objects_alive\":60"));
        assert!(json.contains("\"objects_lost\":4"));
        assert!(json.contains("\"object_puts\":31"));
        assert!(json.contains("\"object_reads\":29"));
        assert!(json.contains("\"reads_failed\":2"));
        assert!(json.contains("\"stale_reads\":3"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn wire_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.bytes_on_wire = 123_456;
        s.gossip_bytes = 7_890;
        let json = s.summary().to_json();
        assert!(json.contains("\"bytes_on_wire\":123456"));
        assert!(json.contains("\"gossip_bytes\":7890"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn attempt_decomposition_reaches_the_summary_json() {
        let mut s = RunStats::new(2);
        s.query_messages = 11;
        s.messages_to_dead = 2;
        s.scenario_crashes = 1;
        s.on_lost(0.1, DropKind::Queue, true, None);
        s.on_attempt_dead();
        let json = s.summary().to_json();
        assert!(json.contains("\"query_messages\":11"));
        assert!(json.contains("\"messages_to_dead\":2"));
        assert!(json.contains("\"scenario_crashes\":1"));
        assert!(json.contains("\"attempts_lost_queue\":1"));
        assert!(json.contains("\"attempts_lost_dead\":1"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn draw_ledger_total_reaches_the_summary_json() {
        let mut s = RunStats::new(2);
        s.rng_draws = vec![0, 3, 4];
        let sum = s.summary();
        assert_eq!(sum.rng_draws, 7);
        assert!(sum.to_json().contains("\"rng_draws\":7"));
    }

    #[test]
    fn alloc_ledger_reaches_the_summary_json() {
        let mut s = RunStats::new(2);
        s.alloc_events = 12;
        s.alloc_bytes = 4096;
        let sum = s.summary();
        assert_eq!(sum.alloc_events, 12);
        assert_eq!(sum.alloc_bytes, 4096);
        let json = sum.to_json();
        assert!(json.contains("\"alloc_events\":12"));
        assert!(json.contains("\"alloc_bytes\":4096"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn per_level_counts_grow_dynamically() {
        let mut s = RunStats::new(2);
        s.on_replica_created(0.0, 1);
        s.on_replica_created(0.0, 5); // beyond initial depth
        assert_eq!(s.created_per_level[1], 1);
        assert_eq!(s.created_per_level[5], 1);
        assert_eq!(s.replicas_created, 2);
    }

    #[test]
    fn tenant_ledger_math_and_summary() {
        let mut s = RunStats::new(2);
        s.init_tenants([0.95, 0.5].into_iter());
        for _ in 0..10 {
            s.on_injected(0.5, false, Some(0));
        }
        for _ in 0..4 {
            s.on_injected(0.5, true, Some(1));
        }
        for _ in 0..9 {
            s.on_tenant_resolved(0, 0.1, false);
        }
        s.on_lost(0.6, DropKind::Ttl, false, Some(0));
        s.on_tenant_resolved(1, 0.2, true);
        s.on_lost(0.6, DropKind::Ttl, false, Some(1));
        assert_eq!(s.injected, 14);
        assert_eq!(s.injected_per_sec_minority.total(), 4);
        assert_eq!(s.injected_per_sec_majority.total(), 10);
        let avail = s.tenant_availability();
        assert!((avail[0] - 0.9).abs() < 1e-12);
        assert!((avail[1] - 0.25).abs() < 1e-12);
        assert!((s.tenant_worst_availability() - 0.25).abs() < 1e-12);
        // Tenant 0 misses its 0.95 SLO at 0.9; tenant 1 meets 0.5? No:
        // 0.25 < 0.5 misses too.
        assert_eq!(s.tenant_slo_misses(), 2);
        let lat = s.tenant_latency_mean();
        assert!((lat[0] - 0.1).abs() < 1e-12);
        assert!((lat[1] - 0.2).abs() < 1e-12);
        assert_eq!(s.tenant_misrouted, vec![0, 1]);
        let sum = s.summary();
        assert_eq!(sum.tenant_count, 2);
        assert_eq!(sum.tenant_slo_misses, 2);
        let json = sum.to_json();
        assert!(json.contains("\"tenant_count\":2"));
        assert!(json.contains("\"tenant_slo_misses\":2"));
        assert!(json.contains("\"tenant_worst_availability\":0.250000"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn tenant_ledger_is_empty_without_init() {
        let s = RunStats::new(1);
        assert!(s.tenant_availability().is_empty());
        assert!(s.tenant_latency_mean().is_empty());
        assert!((s.tenant_worst_availability() - 1.0).abs() < 1e-12);
        assert_eq!(s.tenant_slo_misses(), 0);
        let sum = s.summary();
        assert_eq!(sum.tenant_count, 0);
        assert!((sum.tenant_worst_availability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_availability_is_one_when_idle() {
        let mut s = RunStats::new(1);
        s.init_tenants([0.9].into_iter());
        // No arrivals: availability defaults to 1.0 and meets any SLO.
        assert_eq!(s.tenant_availability(), vec![1.0]);
        assert_eq!(s.tenant_slo_misses(), 0);
    }
}
