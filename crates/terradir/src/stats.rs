//! Run statistics: everything the paper's figures plot.
//!
//! Every statistic is declared once, as one row of the `stats_table!`
//! invocation below. The table generates [`RunStats`], [`Summary`],
//! `RunStats::new`, `RunStats::summary` and `Summary::to_json`, so a
//! `Summary` field cannot drift from its `RunStats` source and a JSON key
//! cannot drift from its field. DESIGN.md §15.3 documents every row; a
//! unit test below holds the two together, and `tests/golden_route.rs`
//! checks that behaviour code feeds every row.

use terradir_sim::{BinnedCounter, Histogram};

/// Declares the run statistics. The first line names the parameter of
/// `RunStats::new` (row initialisers may use it); each row after it is
/// one statistic with its doc, in JSON key order:
///
/// - `mirror name: u64;` — a `RunStats` counter that `Summary` copies by
///   name;
/// - `runstats name: T [= init];` — a `RunStats`-only field: a component
///   of a derived quantity, a series, a histogram or a per-tenant ledger
///   (`init` defaults to `Default::default()`);
/// - `derived name: T = |s| expr, "fmt";` — a `Summary` field folded from
///   the `RunStats` `s` and rendered in JSON with `fmt`.
///
/// The rows are munched one at a time into four lists: `RunStats` fields,
/// `Summary` fields, mirrored names and `(name, kind, type)` rows.
macro_rules! stats_table {
    (fn new($p:ident: $pt:ty); $($rows:tt)*) => {
        stats_table!(@munch ($p: $pt) [] [] [] [] $($rows)*);
    };
    (@init) => { Default::default() };
    (@init $init:expr) => { $init };
    (@munch $new:tt [$($rs:tt)*] [$($sm:tt)*] [$($mi:tt)*] [$($kd:tt)*]
        $(#[$m:meta])* mirror $n:ident: $t:ty; $($rest:tt)*) => {
        stats_table!(@munch $new
            [$($rs)* { $(#[$m])* $n: $t = Default::default() }]
            [$($sm)* { $(#[$m])* $n: $t = |s| s.$n, "{}" }]
            [$($mi)* $n]
            [$($kd)* { $n mirror $t }]
            $($rest)*);
    };
    (@munch $new:tt [$($rs:tt)*] [$($sm:tt)*] [$($mi:tt)*] [$($kd:tt)*]
        $(#[$m:meta])* runstats $n:ident: $t:ty $(= $init:expr)?; $($rest:tt)*) => {
        stats_table!(@munch $new
            [$($rs)* { $(#[$m])* $n: $t = stats_table!(@init $($init)?) }]
            [$($sm)*]
            [$($mi)*]
            [$($kd)* { $n runstats $t }]
            $($rest)*);
    };
    (@munch $new:tt [$($rs:tt)*] [$($sm:tt)*] [$($mi:tt)*] [$($kd:tt)*]
        $(#[$m:meta])* derived $n:ident: $t:ty = |$s:ident| $e:expr, $f:literal;
        $($rest:tt)*) => {
        stats_table!(@munch $new
            [$($rs)*]
            [$($sm)* { $(#[$m])* $n: $t = |$s| $e, $f }]
            [$($mi)*]
            [$($kd)* { $n derived $t }]
            $($rest)*);
    };
    (@munch ($p:ident: $pt:ty)
        [$({ $(#[$rm:meta])* $rn:ident: $rt:ty = $ri:expr })*]
        [$({ $(#[$sm:meta])* $sn:ident: $st:ty = |$ss:ident| $se:expr, $sf:literal })*]
        [$($mn:ident)*]
        [$({ $kn:ident $kk:ident $kt:ty })*]) => {
        /// Counters, per-second series, and distributions collected over a
        /// run.
        ///
        /// Fields are public: the benchmark harness reads them directly to
        /// print the paper's series.
        #[derive(Debug)]
        pub struct RunStats {
            $($(#[$rm])* pub $rn: $rt,)*
        }

        /// A flat, serializable snapshot of a run's headline numbers (JSON
        /// export for harnesses and the CLI's `--json` flag).
        #[derive(Debug, Clone, PartialEq)]
        pub struct Summary {
            $($(#[$sm])* pub $sn: $st,)*
        }

        impl RunStats {
            /// Fresh statistics for a namespace with `max_depth` levels.
            pub fn new($p: $pt) -> RunStats {
                RunStats {
                    $($rn: $ri,)*
                }
            }

            /// Builds the serializable summary.
            pub fn summary(&self) -> Summary {
                Summary {
                    $($sn: {
                        let $ss = self;
                        $se
                    },)*
                }
            }

            /// The statistics this run never fed, each named once:
            /// `RunStats` fields still zero (or holding only zeros) and
            /// `Summary` fields that read zero. `tests/golden_route.rs`
            /// requires each name to be fed by at least one run.
            pub fn unfed(&self) -> Vec<&'static str> {
                let summary = self.summary();
                let mut out = Vec::new();
                $(if !Fed::fed(&self.$rn) {
                    out.push(stringify!($rn));
                })*
                $(if !Fed::fed(&summary.$sn) && !out.contains(&stringify!($sn)) {
                    out.push(stringify!($sn));
                })*
                out
            }

            /// Every mirrored counter, by name, in table order.
            #[cfg(test)]
            fn mirrored_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
                vec![$((stringify!($mn), &mut self.$mn)),*]
            }
        }

        /// Every row as `(name, kind, type)`, in table order.
        #[cfg(test)]
        const ROWS: &[(&str, &str, &str)] =
            &[$((stringify!($kn), stringify!($kk), stringify!($kt))),*];

        impl Summary {
            /// Renders the summary as a JSON object, one key per field in
            /// table order (hand-rolled: every field is numeric, so no JSON
            /// library is needed).
            pub fn to_json(&self) -> String {
                let fields =
                    [$(format!(concat!("\"", stringify!($sn), "\":", $sf), self.$sn)),*];
                format!("{{{}}}", fields.join(","))
            }
        }
    };
}

/// Whether a statistic moved off its initial state.
trait Fed {
    fn fed(&self) -> bool;
}

impl Fed for u64 {
    fn fed(&self) -> bool {
        *self != 0
    }
}

impl Fed for f64 {
    fn fed(&self) -> bool {
        *self != 0.0
    }
}

impl<T: Fed> Fed for Vec<T> {
    fn fed(&self) -> bool {
        self.iter().any(Fed::fed)
    }
}

impl Fed for BinnedCounter {
    fn fed(&self) -> bool {
        self.total() != 0
    }
}

impl Fed for Histogram {
    fn fed(&self) -> bool {
        self.count() != 0
    }
}

stats_table! {
    fn new(max_depth: u16);

    /// Queries injected.
    mirror injected: u64;
    /// Queries resolved (result delivered at the origin).
    mirror resolved: u64;
    /// Final query drops: the sum of the seven final-drop kinds
    /// (`dropped_total`).
    derived dropped: u64 = |s| s.dropped_total(), "{}";
    /// Query-traffic messages dropped at full request queues.
    runstats dropped_queue: u64;
    /// Queries dropped for exceeding the hop TTL.
    runstats dropped_ttl: u64;
    /// Queries dropped with no routable candidate.
    runstats dropped_stuck: u64;
    /// Queries finalized by exhausting every retry attempt (the only final
    /// drop kind while the reliability layer is on).
    runstats dropped_timeout: u64;
    /// Query-traffic messages lost in transit with no retry layer to
    /// recover them (final drops under fault injection without retries).
    runstats dropped_lost: u64;
    /// Fraction of injected queries dropped.
    derived drop_fraction: f64 = |s| s.drop_fraction(), "{:.6}";
    /// Dropped queries per second (Fig. 3).
    runstats drops_per_sec: BinnedCounter = BinnedCounter::new(1.0);
    /// Mean latency in seconds (0 when nothing resolved).
    derived latency_mean_s: f64 = |s| s.latency.mean().unwrap_or(0.0), "{:.6}";
    /// 99th-percentile latency in seconds.
    derived latency_p99_s: f64 = |s| s.latency.quantile(0.99).unwrap_or(0.0), "{:.6}";
    /// Query latency in seconds, injection → result at origin (Fig. 9).
    runstats latency: Histogram = Histogram::new(30.0, 3000);
    /// Mean hops per resolved query.
    derived hops_mean: f64 = |s| s.hops.mean().unwrap_or(0.0), "{:.4}";
    /// Network hops per resolved query.
    runstats hops: Histogram = Histogram::new(64.0, 64);
    /// Mean server utilization each second (Fig. 6).
    runstats load_mean_per_sec: Vec<f64>;
    /// Maximum server utilization each second (Fig. 6).
    runstats load_max_per_sec: Vec<f64>;
    /// Replicas installed.
    mirror replicas_created: u64;
    /// Replicas created per second (Fig. 4) / per minute (Fig. 8).
    runstats replicas_per_sec: BinnedCounter = BinnedCounter::new(1.0);
    /// Replicas created per namespace level (Fig. 7), indexed by depth.
    runstats created_per_level: Vec<u64> = vec![0; max_depth as usize + 1];
    /// Replicas evicted.
    mirror replicas_deleted: u64;
    /// Replication sessions started.
    runstats sessions_started: u64;
    /// Replication sessions that installed replicas.
    mirror sessions_completed: u64;
    /// Replication control messages sent (probes, replies, requests, acks,
    /// denies) — the paper's "load balancing messages".
    mirror control_messages: u64;
    /// Data retrievals (two-step access) that obtained data.
    mirror data_fetches_ok: u64;
    /// Query re-issues by the reliability layer (attempts beyond the
    /// first; `injected + retries` = total attempts launched).
    mirror retries: u64;
    /// Messages lost to transport fault injection (all kinds).
    mirror messages_lost: u64;
    /// Servers failed by the churn process.
    mirror churn_failures: u64;
    /// Servers recovered (churn or `System::recover_server`).
    mirror churn_recoveries: u64;
    /// Hosts newly marked dead (negative-cache insertions) across servers.
    runstats negative_evictions: u64;
    /// Queries shed by the deepest-TTL admission policy (final drops with
    /// shedding on and no retry layer).
    mirror dropped_shed: u64;
    /// Queries finalized by a delivery crossing an active partition cut
    /// (no retry layer).
    mirror dropped_partition: u64;
    /// Messages of every kind dropped for crossing an active cut.
    mirror messages_cut: u64;
    /// Partition cuts applied (scenario `Cut` actions).
    mirror cuts_applied: u64;
    /// Heals applied (scenario `Heal` actions).
    mirror heals_applied: u64;
    /// Extra queries injected by flash crowds (already in `injected`).
    mirror flash_injected: u64;
    /// Queries injected per second (availability-curve denominator).
    runstats injected_per_sec: BinnedCounter = BinnedCounter::new(1.0);
    /// Queries resolved per second, binned at resolve time (availability-
    /// curve numerator).
    runstats resolved_per_sec: BinnedCounter = BinnedCounter::new(1.0);
    /// Per-second injections whose origin sat on the minority side of the
    /// most recent cut (sticky across the heal, until the next cut).
    runstats injected_per_sec_minority: BinnedCounter = BinnedCounter::new(1.0);
    /// Per-second resolutions delivered on the minority side.
    runstats resolved_per_sec_minority: BinnedCounter = BinnedCounter::new(1.0);
    /// Per-second injections from majority-side (or never-cut) origins.
    runstats injected_per_sec_majority: BinnedCounter = BinnedCounter::new(1.0);
    /// Per-second resolutions delivered on the majority side.
    runstats resolved_per_sec_majority: BinnedCounter = BinnedCounter::new(1.0);
    /// Forwarded queries that landed on a server not hosting the node the
    /// sender routed via (stale-pointer detections; DESIGN.md §14). Pure
    /// observation: counted with or without misroute repair enabled.
    mirror misroutes: u64;
    /// Total forwarding steps resolved queries spent after their first
    /// misroute (the aggregate detour cost of stale soft state).
    mirror detour_hops: u64;
    /// Per-second resolutions that never hit a stale pointer (numerator of
    /// the reconvergence curve; denominator is `resolved_per_sec`).
    runstats clean_resolved_per_sec: BinnedCounter = BinnedCounter::new(1.0);
    /// Soft-state entries (replica records, context maps, cache entries)
    /// evicted by the lease sweep.
    mirror lease_evictions: u64;
    /// `MapUpdate` advertisements pushed by warm-rejoin / post-heal
    /// anti-entropy reconciliation.
    mirror reconcile_pushes: u64;
    /// Stored objects pre-seeded at construction (DESIGN.md §17): a
    /// constant of the run and the durability scan's universe, so
    /// `objects_alive + objects_lost` partitions it exactly at every scan.
    mirror objects_written: u64;
    /// Objects with at least one copy on a live replica at the latest
    /// durability scan (absolute gauge, not a running total).
    mirror objects_alive: u64;
    /// Objects with no live copy at the latest durability scan —
    /// every replica-set member either dead or wiped since the write.
    mirror objects_lost: u64;
    /// Object writes issued by the storage write driver (each fans out
    /// to the whole replica set).
    mirror object_puts: u64;
    /// Object reads that finalized with *some* copy (fresh or stale).
    mirror object_reads: u64;
    /// Object reads that finalized with no copy at all (probed replicas
    /// all empty, dead, or cut off).
    mirror reads_failed: u64;
    /// Object reads that returned a copy older than the latest version
    /// committed when the read was issued (the staleness cost of
    /// any-replica reads; quorum reads shrink it).
    mirror stale_reads: u64;
    /// Modeled bytes of every remote message send, from the
    /// per-`Message` byte-cost model (DESIGN.md §18): queries, control
    /// traffic, storage propagation, and gossip.
    /// Local hand-offs and substrate-synthesized feedback cost nothing.
    mirror bytes_on_wire: u64;
    /// The subset of `bytes_on_wire` spent by the anti-entropy gossip
    /// subsystem (digests at delta or full cost, pushes, pull replies).
    mirror gossip_bytes: u64;
    /// Query-path messages serviced (each is one routing/result step).
    mirror query_messages: u64;
    /// Replication sessions aborted.
    mirror sessions_aborted: u64;
    /// Data retrievals that exhausted every mapped host.
    mirror data_fetches_failed: u64;
    /// Messages addressed to a failed server (all kinds).
    mirror messages_to_dead: u64;
    /// Attempt-level query losses under retry, by cause: request queue
    /// overflow. These are *not* final drops — the pending-table timeout
    /// is — but together with `retries` they decompose exactly where
    /// attempts went.
    mirror attempts_lost_queue: u64;
    /// Attempt-level losses: hop TTL exceeded (retry mode).
    mirror attempts_lost_ttl: u64;
    /// Attempt-level losses: no routable candidate (retry mode).
    mirror attempts_lost_stuck: u64;
    /// Attempt-level losses: delivery to a dead server (retry mode).
    mirror attempts_lost_dead: u64;
    /// Attempt-level losses: transport loss injection (retry mode).
    mirror attempts_lost_transport: u64;
    /// Attempt-level losses: shed by the admission policy (retry mode).
    mirror attempts_lost_shed: u64;
    /// Attempt-level losses: delivery crossed an active cut (retry mode).
    mirror attempts_lost_partition: u64;
    /// Servers crashed by `CorrelatedCrash` scenario actions (already in
    /// `churn_failures`).
    mirror scenario_crashes: u64;
    /// Tenants configured (0 with tenants off).
    derived tenant_count: u64 = |s| s.tenant_slo.len() as u64, "{}";
    /// Worst per-tenant whole-run availability (1.0 with no tenants).
    derived tenant_worst_availability: f64 = |s| s.tenant_worst_availability(), "{:.6}";
    /// Tenants whose availability fell below their SLO target.
    derived tenant_slo_misses: u64 = |s| s.tenant_slo_misses(), "{}";
    /// Per-tenant queries injected (DESIGN.md §19), indexed by tenant id.
    /// Empty when tenants are off; spine-targeted queries (no tenant)
    /// are uncounted.
    runstats tenant_injected: Vec<u64>;
    /// Per-tenant queries resolved.
    runstats tenant_resolved: Vec<u64>;
    /// Per-tenant final query drops (all kinds folded).
    runstats tenant_dropped: Vec<u64>;
    /// Per-tenant sum of resolution latencies in seconds (divide by
    /// `tenant_resolved` for the mean).
    runstats tenant_latency_sum: Vec<f64>;
    /// Per-tenant resolutions that hit at least one stale pointer (the
    /// tenant-facing staleness signal).
    runstats tenant_misrouted: Vec<u64>;
    /// Per-tenant availability SLO targets, copied from the config so
    /// reports carry their own pass/fail threshold.
    runstats tenant_slo: Vec<f64>;
    /// Total RNG draws across every tagged stream (ledger sum).
    derived rng_draws: u64 = |s| s.rng_draws.iter().sum(), "{}";
    /// RNG draw ledger: total 64-bit draws per component tag, indexed by
    /// `terradir_workload::seed::tags` (slot 0 unused). Synced by the
    /// system after every `run_until`; equal ledgers across two replays of
    /// one seed are the runtime half of the stream-discipline guarantee
    /// (DESIGN.md §15).
    runstats rng_draws: Vec<u64>;
    /// Allocator events (alloc/realloc calls) charged to the simulation
    /// thread while `run_until` executed, from the counting global
    /// allocator (DESIGN.md §16). Zero unless the `alloc-ledger` feature
    /// installed the allocator.
    mirror alloc_events: u64;
    /// Bytes requested across those allocator events.
    mirror alloc_bytes: u64;
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
    fn every_mirrored_counter_reaches_the_summary_json() {
        let mut s = RunStats::new(2);
        let mut want = Vec::new();
        for (i, (name, slot)) in (1000u64..).zip(s.mirrored_mut()) {
            *slot = i;
            want.push(format!("\"{name}\":{i}"));
        }
        let json = s.summary().to_json();
        let mut from = 0;
        for pair in &want {
            let at = json[from..]
                .find(pair.as_str())
                .unwrap_or_else(|| panic!("{pair} missing or out of table order in {json}"));
            from += at + pair.len();
        }
        let summary_rows = ROWS.iter().filter(|(_, kind, _)| *kind != "runstats");
        assert_eq!(json.matches("\":").count(), summary_rows.count(), "{json}");
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

    /// DESIGN.md §15.3 lists every row of the stats table, and nothing
    /// else, as `| \`name\` | \`type\` | kind | meaning |`.
    #[test]
    fn design_stats_table_matches_the_rows() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("### 15.3")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("DESIGN.md has a §15.3");
        let row = |name: &str, kind: &str, ty: &str| {
            (name.to_string(), kind.to_string(), ty.replace(' ', ""))
        };
        let documented: Vec<_> = section
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
                let ty = cells.get(2)?.strip_prefix('`')?.strip_suffix('`')?;
                Some(row(name, cells.get(3)?, ty))
            })
            .collect();
        let declared: Vec<_> = ROWS.iter().map(|&(n, k, t)| row(n, k, t)).collect();
        let undocumented: Vec<_> = declared
            .iter()
            .filter(|r| !documented.contains(r))
            .collect();
        let stray: Vec<_> = documented
            .iter()
            .filter(|r| !declared.contains(r))
            .collect();
        assert!(
            undocumented.is_empty() && stray.is_empty(),
            "rows missing from DESIGN.md §15.3: {undocumented:?}\n\
             §15.3 rows the table does not declare: {stray:?}"
        );
    }
}
