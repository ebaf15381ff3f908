//! The adaptive replication protocol (paper §3.3–§3.5).
//!
//! A server whose effective load exceeds `T_high` starts a *session*: it
//! picks the least-loaded server it knows about, probes its actual load,
//! and — if the gap is at least `δ_min` — ships the top-ranked hosted node
//! records so that the transferred demand fraction is `(l_s − l_d)/(2·l_s)`.
//! Both sides then bias their loads by half the gap (hysteresis against
//! thrashing). Failed attempts retry against the next candidate a bounded
//! number of times before the session aborts into a cooldown.
//!
//! Replica deletion is purely local: capacity evictions here (the `R_fact`
//! bound) and idle evictions in [`ServerState::maintenance`]. Other servers
//! learn about deletions lazily, or never — stale maps are tolerated and
//! pruned by digests.

use crate::det::DetHashMap;

use rand::Rng;
use rand::RngCore;

use terradir_namespace::{NodeId, ServerId};

use crate::config;
use crate::messages::{Message, ReplicaPayload};
use crate::records::NodeRecord;
use crate::server::{Outgoing, ProtocolEvent, ServerState};

/// Profiled load information about other servers, bounded LRU-by-age.
#[derive(Debug, Clone)]
pub(crate) struct KnownLoads {
    slots: usize,
    entries: DetHashMap<ServerId, (f64, f64)>, // load, observed-at
}

impl KnownLoads {
    pub(crate) fn new(slots: usize) -> KnownLoads {
        KnownLoads {
            slots,
            entries: DetHashMap::default(),
        }
    }

    /// Records a load observation (newest wins).
    pub(crate) fn observe(&mut self, server: ServerId, load: f64, now: f64) {
        if self.slots == 0 {
            return;
        }
        if self.entries.len() >= self.slots && !self.entries.contains_key(&server) {
            // Evict the oldest observation (deterministic tie-break by id).
            if let Some(victim) = self
                .entries
                .iter()
                .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then(a.0.cmp(b.0)))
                .map(|(&s, _)| s)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(server, (load, now));
    }

    /// The freshest known load of a server, if recent enough.
    pub(crate) fn get_fresh(&self, server: ServerId, now: f64, stale_after: f64) -> Option<f64> {
        self.entries
            .get(&server)
            .filter(|(_, at)| now - at <= stale_after)
            .map(|(l, _)| *l)
    }

    /// The known server with minimum fresh load, excluding `exclude`.
    /// Deterministic: an exact load tie breaks by *higher static speed*
    /// (`speeds`, indexed by server id; missing entries count as 1.0 so
    /// a homogeneous fleet — `speed_spread == 1.0` or an empty table —
    /// degrades to the old id tie-break with identical results), then
    /// by server id. Draws no randomness either way.
    pub(crate) fn best_candidate(
        &self,
        now: f64,
        stale_after: f64,
        exclude: &[ServerId],
        speeds: &[f64],
    ) -> Option<ServerId> {
        let speed = |s: ServerId| speeds.get(s.0 as usize).copied().unwrap_or(1.0);
        self.entries
            .iter()
            .filter(|(s, (_, at))| now - at <= stale_after && !exclude.contains(s))
            .min_by(|a, b| {
                a.1 .0
                    .total_cmp(&b.1 .0)
                    .then(speed(*b.0).total_cmp(&speed(*a.0)))
                    .then(a.0.cmp(b.0))
            })
            .map(|(&s, _)| s)
    }

    /// Number of tracked servers.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drops the observation for a server (negative caching: a dead host
    /// must not win partner selection on a stale low-load reading).
    pub(crate) fn forget(&mut self, server: ServerId) {
        self.entries.remove(&server);
    }
}

/// An in-flight replication session at the overloaded server.
#[derive(Debug, Clone)]
pub(crate) struct Session {
    /// Current candidate partner.
    pub(crate) target: ServerId,
    /// Attempts made so far (including the current one).
    pub(crate) attempts: u32,
    /// When the session started.
    pub(crate) started_at: f64,
    /// Every partner tried this session (never retried).
    pub(crate) tried: Vec<ServerId>,
    /// Set once the replicate request is sent: the load shift we expect to
    /// apply as hysteresis on ack.
    pub(crate) pending_shift: Option<f64>,
}

impl Session {
    /// Test fixture: a fresh session probing `target`.
    #[cfg(test)]
    pub(crate) fn new_for_tests(target: ServerId, now: f64) -> Session {
        Session {
            target,
            attempts: 1,
            started_at: now,
            tried: vec![target],
            pending_shift: None,
        }
    }
}

impl ServerState {
    /// Checks the replication trigger (run by the substrate after each
    /// processed query): "replication is triggered when a server's load
    /// exceeds the high-water threshold; a server checks its load after
    /// each processed query" (§3.3 step 1).
    pub fn maybe_start_session(
        &mut self,
        now: f64,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) {
        if !self.cfg.replication || self.session.is_some() || now < self.cooldown_until {
            return;
        }
        // Trigger on *sustained* overload (two consecutive windows): a
        // single busy window at moderate utilization is queueing noise and
        // replicating on it churns soft state for nothing. A *saturated*
        // window (≥ 98 % busy) is not noise — it fast-paths the trigger so
        // sudden hot-spot shifts shed load a window earlier.
        let sustained = self.load.effective_sustained(now);
        let saturated = self.load.measured() >= 0.98;
        if sustained < self.cfg.t_high && !saturated {
            return;
        }
        let ls = self.load.effective(now);
        // Nothing to shed if we host nothing with demand.
        if self.owned.is_empty() && self.replicas.is_empty() {
            return;
        }
        let Some(target) = self.pick_partner(now, &[], rng) else {
            // No eligible partner — nothing started, just back off.
            self.cooldown_until = now + config::SESSION_COOLDOWN;
            return;
        };
        self.session = Some(Session {
            target,
            attempts: 1,
            started_at: now,
            tried: vec![target],
            pending_shift: None,
        });
        out.push(Outgoing::Event(ProtocolEvent::SessionStarted {
            by: self.id,
        }));
        out.push(Outgoing::Send {
            to: target,
            msg: Message::LoadProbe {
                from: self.id,
                load: ls,
            },
        });
    }

    /// §3.3 step 2: "among all the servers that it knows about, pick the
    /// one with minimum load" — based on profiled (piggybacked) load
    /// information. A candidate whose *known* load already rules out the
    /// δ_min gap is not worth probing, so when the profile table has fresh
    /// entries but none eligible we return `None` (abort cheaply). Only a
    /// server with an empty profile falls back to a uniformly random peer.
    fn pick_partner(
        &self,
        now: f64,
        extra_exclude: &[ServerId],
        rng: &mut impl RngCore,
    ) -> Option<ServerId> {
        let mut exclude: Vec<ServerId> = vec![self.id];
        exclude.extend_from_slice(extra_exclude);
        // Hosts observed dead are never worth probing; without this the
        // random fallback can hand a fresh session straight to a host the
        // negative cache just evicted.
        exclude.extend(self.negative.keys().copied());
        // Role-aware partner ranking (DESIGN.md §19): an edge or keeper
        // that does not admit our home region could never install what we
        // would ship, so it is excluded up front — covering both the
        // profiled ranking and the random fallback. Gated on the role map
        // handle so the roles-off path is byte-identical.
        if let Some(roles) = self.role_map() {
            if let Some(home) = self.home_node() {
                for s in 0..self.cfg.n_servers {
                    let sid = ServerId(s);
                    if sid != self.id && !roles.admits(sid, home) && !exclude.contains(&sid) {
                        exclude.push(sid);
                    }
                }
            }
        }
        if let Some(s) = self.known_loads.best_candidate(
            now,
            config::LOAD_STALE_AFTER,
            &exclude,
            self.static_speeds(),
        ) {
            let ls = self.load.effective(now);
            let known = self
                .known_loads
                .get_fresh(s, now, config::LOAD_STALE_AFTER)
                .unwrap_or(0.0);
            if ls - known >= config::DELTA_MIN {
                return Some(s);
            }
            // Freshly profiled table says nobody has room: don't spam
            // probes, let the cooldown retry later.
            return None;
        }
        if self.cfg.n_servers <= 1 {
            return None;
        }
        // Uniform random fallback, rejecting excluded ids (bounded tries).
        for _ in 0..16 {
            let s = ServerId(rng.gen_range(0..self.cfg.n_servers));
            if !exclude.contains(&s) {
                return Some(s);
            }
        }
        None
    }

    /// §3.3 step 3 at the source: the probed partner answered.
    pub(crate) fn on_probe_reply(
        &mut self,
        now: f64,
        from: ServerId,
        ld: f64,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) {
        self.known_loads.observe(from, ld, now);
        let Some(sess) = &self.session else { return };
        if sess.target != from || sess.pending_shift.is_some() {
            return;
        }
        let ls = self.load.effective(now);
        if ls - ld >= config::DELTA_MIN {
            let frac = ((ls - ld) / (2.0 * ls)).clamp(0.0, 0.5);
            let payloads = self.build_payloads(now, frac);
            if payloads.is_empty() {
                self.abort_session(now, out);
                return;
            }
            if let Some(sess) = &mut self.session {
                sess.pending_shift = Some((ls - ld) / 2.0);
            }
            out.push(Outgoing::Send {
                to: from,
                msg: Message::ReplicateRequest {
                    from: self.id,
                    sender_load: ls,
                    replicas: payloads,
                },
            });
        } else {
            self.retry_session(now, rng, out);
        }
    }

    /// §3.3 step 5: try another partner or give up.
    fn retry_session(&mut self, now: f64, rng: &mut impl RngCore, out: &mut Vec<Outgoing>) {
        let Some(sess) = &self.session else { return };
        if sess.attempts >= config::MAX_SESSION_ATTEMPTS {
            self.abort_session(now, out);
            return;
        }
        let tried = sess.tried.clone();
        let Some(next) = self.pick_partner(now, &tried, rng) else {
            self.abort_session(now, out);
            return;
        };
        let ls = self.load.effective(now);
        if let Some(sess) = &mut self.session {
            sess.target = next;
            sess.attempts += 1;
            sess.tried.push(next);
        }
        out.push(Outgoing::Send {
            to: next,
            msg: Message::LoadProbe {
                from: self.id,
                load: ls,
            },
        });
    }

    pub(crate) fn abort_session(&mut self, now: f64, out: &mut Vec<Outgoing>) {
        self.session = None;
        self.cooldown_until = now + config::SESSION_COOLDOWN;
        out.push(Outgoing::Event(ProtocolEvent::SessionAborted {
            by: self.id,
        }));
    }

    /// §3.3 step 3, transfer rule: rank hosted nodes by decayed weight and
    /// take the smallest prefix whose weight fraction reaches `frac`.
    fn build_payloads(&mut self, now: f64, frac: f64) -> Vec<ReplicaPayload> {
        let ranked = self.weights.ranked(now);
        let hosted_ranked: Vec<(NodeId, f64)> = ranked
            .into_iter()
            .filter(|(n, w)| *w > 0.0 && self.hosts(*n))
            .collect();
        let total: f64 = hosted_ranked.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mut payloads = Vec::new();
        let mut acc = 0.0;
        for (node, w) in hosted_ranked {
            // `hosted_ranked` filtered on `self.hosts(node)` just above.
            let Some(rec) = self.host_record(node) else {
                continue;
            };
            // Ensure the shipped map advertises us as a host.
            let mut map = rec.map.clone();
            if !map.contains(self.id) {
                map.advertise(self.id, self.cfg.r_map);
            }
            let neighbors: Vec<(NodeId, crate::map::NodeMap)> = self
                .ns
                .neighbors(node)
                .into_iter()
                .filter_map(|nb| self.neighbor_maps.get(&nb).map(|m| (nb, m.clone())))
                .collect();
            payloads.push(ReplicaPayload {
                node,
                map,
                meta: rec.meta.clone(),
                neighbors,
                weight: w * 0.5,
            });
            acc += w;
            if acc / total >= frac {
                break;
            }
        }
        payloads
    }

    /// Destination side: admission check, installation, capacity eviction.
    pub(crate) fn on_replicate_request(
        &mut self,
        now: f64,
        from: ServerId,
        sender_load: f64,
        payloads: Vec<ReplicaPayload>,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) {
        self.known_loads.observe(from, sender_load, now);
        let ld = self.load.effective(now);
        // "A server will agree to host new replicas if there is a
        // difference of at least δ_min between the load of the requester
        // and its own load" (§3.1).
        if !self.cfg.replication || sender_load - ld < config::DELTA_MIN {
            out.push(Outgoing::Send {
                to: from,
                msg: Message::ReplicateDeny {
                    from: self.id,
                    load: ld,
                },
            });
            return;
        }
        let installed = self.install_replicas(now, payloads, rng, out);
        let shift = (sender_load - ld) / 2.0;
        if !installed.is_empty() && self.cfg.hysteresis {
            self.load.add_bias(now, shift);
        }
        out.push(Outgoing::Send {
            to: from,
            msg: Message::ReplicateAck {
                from: self.id,
                installed,
                shift,
            },
        });
    }

    /// Installs replica payloads, respecting the `R_fact` capacity by
    /// evicting the lowest-ranked existing replicas first (§3.5), then the
    /// lowest-ranked incoming ones if the batch alone exceeds capacity.
    pub(crate) fn install_replicas(
        &mut self,
        now: f64,
        payloads: Vec<ReplicaPayload>,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) -> Vec<NodeId> {
        let cap = self.cfg.replica_cap(self.owned.len());
        let mut installed = Vec::new();
        for p in payloads {
            if self.owned.contains_key(&p.node) {
                // We own it already; just absorb the incoming map.
                self.absorb_mapping(p.node, &p.map, now, rng);
                continue;
            }
            // Receiver-side role admission (DESIGN.md §19): an edge or
            // keeper never installs a replica for a region it does not
            // admit, no matter what the sender believed.
            if !self.admits_node(p.node) {
                continue;
            }
            if let Some(rec) = self.replicas.get_mut(&p.node) {
                rec.absorb_meta(&p.meta);
                // A re-shipped payload is fresh evidence: renew the lease.
                rec.refresh_lease(now);
                let map = p.map.clone();
                self.absorb_mapping(p.node, &map, now, rng);
                continue;
            }
            if cap == 0 {
                continue;
            }
            // Make room: evict lowest-weight replicas not installed in this
            // batch — but only when the incoming replica is decisively
            // hotter than the victim (anti-thrash guard: under flat demand
            // every replica has similar weight and blind displacement just
            // churns soft state and staleness).
            while self.replicas.len() >= cap {
                let victim = {
                    // Keeper-pinned replicas (our owned region's soft
                    // state) are never displacement victims (§19).
                    let mut candidates: Vec<(f64, NodeId)> = self
                        .replicas
                        .keys()
                        .filter(|n| !installed.contains(*n) && !self.pins_node(**n))
                        .map(|&n| (self.weights.value(n, now), n))
                        .collect();
                    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    candidates.first().copied()
                };
                match victim {
                    Some((w, v)) if p.weight >= w * config::EVICT_DISPLACE_FACTOR => {
                        self.remove_replica(v, out);
                    }
                    _ => break, // nothing displaceable
                }
            }
            if self.replicas.len() >= cap {
                continue; // at capacity and the incoming node is not hotter
            }
            let mut map = p.map.clone();
            self.strip_negative(&mut map);
            if !map.contains(self.id) {
                map.advertise(self.id, self.cfg.r_map);
            }
            let mut rec = NodeRecord::new(p.node, map, p.meta.clone(), now);
            rec.advertised_at = now; // we are the fresh advertisement
            self.replicas.insert(p.node, rec);
            self.weights.set(p.node, now, p.weight);
            for (nb, m) in &p.neighbors {
                let mut m = m.clone();
                self.strip_negative(&mut m);
                if m.is_empty() {
                    continue;
                }
                if let Some(mine) = self.neighbor_maps.get_mut(nb) {
                    let mut merged = mine.merge(&m, self.cfg.r_map, rng);
                    // A tolerated sole dead entry in the existing map must
                    // not survive a merge that brings in live hosts.
                    for &h in self.negative.keys() {
                        merged.remove(h, false);
                    }
                    *mine = merged;
                } else {
                    m.truncate(self.cfg.r_map);
                    self.neighbor_maps.insert(*nb, m);
                }
                // Shipped context is fresh evidence for the lease.
                let stamp = self.context_lease.entry(*nb).or_insert(now);
                if now > *stamp {
                    *stamp = now;
                }
            }
            self.digest_dirty = true;
            if self.cfg.gossip.enabled {
                self.gossip.mark(p.node);
            }
            installed.push(p.node);
            out.push(Outgoing::Event(ProtocolEvent::ReplicaCreated {
                node: p.node,
                at: self.id,
            }));
        }
        installed
    }

    /// §3.3 step 4 at the source: apply the mirror hysteresis and advertise
    /// the new replicas in our maps for those nodes.
    pub(crate) fn on_replicate_ack(
        &mut self,
        now: f64,
        from: ServerId,
        installed: Vec<NodeId>,
        shift: f64,
        out: &mut Vec<Outgoing>,
    ) {
        let Some(sess) = &self.session else { return };
        if sess.target != from {
            return;
        }
        if !installed.is_empty() && self.cfg.hysteresis {
            self.load.add_bias(now, -shift);
        }
        let r_map = self.cfg.r_map;
        for node in &installed {
            if let Some(rec) = self.host_record_mut(*node) {
                rec.map.advertise(from, r_map);
                rec.advertised_at = now;
            }
        }
        out.push(Outgoing::Event(ProtocolEvent::SessionCompleted {
            by: self.id,
            installed: installed.len(),
        }));
        self.session = None;
    }

    /// The partner refused: fold its load into the table and retry.
    pub(crate) fn on_replicate_deny(
        &mut self,
        now: f64,
        from: ServerId,
        load: f64,
        rng: &mut impl RngCore,
        out: &mut Vec<Outgoing>,
    ) {
        self.known_loads.observe(from, load, now);
        let Some(sess) = &mut self.session else {
            return;
        };
        if sess.target != from {
            return;
        }
        sess.pending_shift = None;
        self.retry_session(now, rng, out);
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
    use crate::config::Config;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use terradir_namespace::{balanced_tree, Namespace, OwnerAssignment};

    fn world(n_servers: u32) -> (Arc<Namespace>, OwnerAssignment, Vec<ServerState>) {
        let ns = Arc::new(balanced_tree(2, 4));
        let cfg = Arc::new(Config::paper_default(n_servers));
        let asg = OwnerAssignment::round_robin(&ns, n_servers);
        let servers = (0..n_servers)
            .map(|i| ServerState::new(ServerId(i), Arc::clone(&ns), Arc::clone(&cfg), &asg))
            .collect();
        (ns, asg, servers)
    }

    fn overload(s: &mut ServerState, now: f64) {
        // Saturate the previous two windows so the sustained trigger sees
        // measured load = 1.
        s.record_busy(now - 1.0, 1.0);
        s.load.roll(now);
        // Give hosted nodes demand so there is something to shed.
        let hosted: Vec<NodeId> = s.hosted_ids().collect();
        for (i, n) in hosted.iter().enumerate() {
            for _ in 0..=(i % 4) {
                s.bump_weight(*n, now);
            }
        }
    }

    #[test]
    fn known_loads_best_candidate_and_bound() {
        let mut k = KnownLoads::new(2);
        k.observe(ServerId(1), 0.9, 0.0);
        k.observe(ServerId(2), 0.1, 0.0);
        assert_eq!(k.best_candidate(0.0, 5.0, &[], &[]), Some(ServerId(2)));
        assert_eq!(
            k.best_candidate(0.0, 5.0, &[ServerId(2)], &[]),
            Some(ServerId(1))
        );
        // Stale entries are ignored.
        assert_eq!(k.best_candidate(100.0, 5.0, &[], &[]), None);
        // Bound: inserting a third evicts the oldest.
        k.observe(ServerId(3), 0.5, 1.0);
        assert_eq!(k.len(), 2);
        assert!(k.get_fresh(ServerId(3), 1.0, 5.0).is_some());
    }

    #[test]
    fn best_candidate_load_tie_breaks_by_speed_then_id() {
        let mut k = KnownLoads::new(4);
        k.observe(ServerId(1), 0.2, 0.0);
        k.observe(ServerId(2), 0.2, 0.0);
        k.observe(ServerId(3), 0.2, 0.0);
        // Homogeneous speeds (or none at all): lowest id wins the tie.
        assert_eq!(k.best_candidate(0.0, 5.0, &[], &[]), Some(ServerId(1)));
        let flat = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(k.best_candidate(0.0, 5.0, &[], &flat), Some(ServerId(1)));
        // Heterogeneous: the fastest of the tied candidates wins.
        let speeds = [1.0, 1.0, 2.5, 2.5];
        assert_eq!(k.best_candidate(0.0, 5.0, &[], &speeds), Some(ServerId(2)));
        // A strictly lower load still beats a faster server.
        k.observe(ServerId(1), 0.05, 0.0);
        assert_eq!(k.best_candidate(0.0, 5.0, &[], &speeds), Some(ServerId(1)));
    }

    #[test]
    fn session_starts_only_above_threshold() {
        let (_, _, mut servers) = world(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        servers[0].maybe_start_session(1.0, &mut rng, &mut out);
        assert!(out.is_empty(), "idle server must not start a session");
        overload(&mut servers[0], 1.0);
        servers[0].maybe_start_session(1.0, &mut rng, &mut out);
        assert!(servers[0].session.is_some());
        assert!(out.iter().any(|o| matches!(
            o,
            Outgoing::Send {
                msg: Message::LoadProbe { .. },
                ..
            }
        )));
    }

    #[test]
    fn full_session_round_trip_creates_replicas() {
        let (_, _, mut servers) = world(4);
        let mut rng = StdRng::seed_from_u64(2);
        let now = 1.0;
        overload(&mut servers[0], now);
        servers[0].known_loads.observe(ServerId(2), 0.05, now);

        let mut out = Vec::new();
        servers[0].maybe_start_session(now, &mut rng, &mut out);
        // Probe goes to the known least-loaded server 2.
        let probe_to = out
            .iter()
            .find_map(|o| match o {
                Outgoing::Send {
                    to,
                    msg: Message::LoadProbe { .. },
                } => Some(*to),
                _ => None,
            })
            .unwrap();
        assert_eq!(probe_to, ServerId(2));

        // Server 2 replies with its (zero) load.
        let mut out2 = Vec::new();
        servers[2].handle_message(
            now,
            Message::LoadProbe {
                from: ServerId(0),
                load: 1.0,
            },
            &mut rng,
            &mut out2,
        );
        let reply = out2
            .iter()
            .find_map(|o| match o {
                Outgoing::Send {
                    msg: m @ Message::LoadProbeReply { .. },
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .unwrap();

        // Source receives the reply and ships replicas.
        let mut out3 = Vec::new();
        servers[0].handle_message(now, reply, &mut rng, &mut out3);
        let req = out3
            .iter()
            .find_map(|o| match o {
                Outgoing::Send {
                    msg: m @ Message::ReplicateRequest { .. },
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("gap 1.0 - 0.0 exceeds DELTA_MIN, must replicate");

        // Destination installs and acks.
        let mut out4 = Vec::new();
        servers[2].handle_message(now, req, &mut rng, &mut out4);
        assert!(servers[2].replica_count() > 0, "replicas installed");
        let created = out4
            .iter()
            .filter(|o| matches!(o, Outgoing::Event(ProtocolEvent::ReplicaCreated { .. })))
            .count();
        assert_eq!(created, servers[2].replica_count());
        let ack = out4
            .iter()
            .find_map(|o| match o {
                Outgoing::Send {
                    msg: m @ Message::ReplicateAck { .. },
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        // Destination biased its load upward.
        assert!(servers[2].effective_load(now) > 0.0);

        // Source completes the session, advertises, applies hysteresis.
        let load_before = servers[0].effective_load(now);
        let mut out5 = Vec::new();
        servers[0].handle_message(now, ack, &mut rng, &mut out5);
        assert!(servers[0].session.is_none());
        assert!(servers[0].effective_load(now) < load_before);
        assert!(out5
            .iter()
            .any(|o| matches!(o, Outgoing::Event(ProtocolEvent::SessionCompleted { .. }))));
        // The shipped nodes' maps at the source now advertise server 2.
        let replicated: Vec<NodeId> = servers[2].replica_ids().collect();
        for n in replicated {
            let rec = servers[0]
                .host_record(n)
                .expect("source hosts what it shipped");
            assert!(rec.map.contains(ServerId(2)), "replica advertised");
        }
    }

    #[test]
    fn destination_denies_when_gap_too_small() {
        let (_, _, mut servers) = world(4);
        let mut rng = StdRng::seed_from_u64(3);
        let now = 1.0;
        // Destination is itself busy.
        overload(&mut servers[1], now);
        let mut out = Vec::new();
        servers[1].on_replicate_request(
            now,
            ServerId(0),
            1.0, // sender load equal to ours → gap 0 < DELTA_MIN
            vec![],
            &mut rng,
            &mut out,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Outgoing::Send {
                msg: Message::ReplicateDeny { .. },
                ..
            }
        )));
        assert_eq!(servers[1].replica_count(), 0);
    }

    #[test]
    fn transfer_rule_takes_smallest_sufficient_prefix() {
        let (_, _, mut servers) = world(4);
        let now = 1.0;
        let hosted: Vec<NodeId> = servers[0].hosted_ids().collect();
        // Weights 8, 4, 2, 1, ... on hosted nodes.
        for (i, n) in hosted.iter().enumerate() {
            servers[0]
                .weights
                .set(*n, now, 8.0 / (1 << i.min(6)) as f64);
        }
        let total: f64 = hosted
            .iter()
            .enumerate()
            .map(|(i, _)| 8.0 / (1 << i.min(6)) as f64)
            .sum();
        // frac small: one node suffices (top weight 8 ≥ frac·total).
        let p = servers[0].build_payloads(now, 8.0 / total * 0.99);
        assert_eq!(p.len(), 1);
        // frac requiring the top two.
        let p = servers[0].build_payloads(now, 12.0 / total * 0.99);
        assert_eq!(p.len(), 2);
        assert!(p[0].weight >= p[1].weight);
    }

    #[test]
    fn capacity_eviction_prefers_lowest_rank() {
        let (ns, _, mut servers) = world(4);
        let mut rng = StdRng::seed_from_u64(4);
        let now = 1.0;
        let cap = servers[1].cfg.replica_cap(servers[1].owned_count());
        assert!(cap >= 2);
        // Fill to capacity with ascending weights.
        let candidates: Vec<NodeId> = ns.ids().filter(|&n| !servers[1].hosts(n)).collect();
        let mut out = Vec::new();
        for (i, &n) in candidates.iter().take(cap).enumerate() {
            let payload = ReplicaPayload {
                node: n,
                map: crate::map::NodeMap::singleton(ServerId(0)),
                meta: crate::meta::Meta::new(),
                neighbors: vec![],
                weight: (i + 1) as f64,
            };
            let installed = servers[1].install_replicas(now, vec![payload], &mut rng, &mut out);
            assert_eq!(installed.len(), 1);
        }
        assert_eq!(servers[1].replica_count(), cap);
        let lowest = candidates[0];
        // One more arrives with high weight: the weight-1 replica goes.
        let newcomer = candidates[cap];
        let payload = ReplicaPayload {
            node: newcomer,
            map: crate::map::NodeMap::singleton(ServerId(0)),
            meta: crate::meta::Meta::new(),
            neighbors: vec![],
            weight: 100.0,
        };
        out.clear();
        let installed = servers[1].install_replicas(now, vec![payload], &mut rng, &mut out);
        assert_eq!(installed, vec![newcomer]);
        assert_eq!(servers[1].replica_count(), cap);
        assert!(!servers[1].hosts(lowest), "lowest-ranked replica evicted");
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Event(ProtocolEvent::ReplicaDeleted { node, .. }) if *node == lowest)));
    }

    #[test]
    fn edges_refuse_foreign_region_payloads() {
        use crate::config::RoleConfig;
        use crate::roles::RoleMap;
        let ns = Arc::new(balanced_tree(2, 4));
        // Round-robin ownership, except that server 1 hands its nodes in
        // the first depth-1 region to server 0: server 1 is an edge whose
        // owned admission covers only the second region.
        let roots: Vec<NodeId> = ns.children(ns.root()).to_vec();
        let region_root = |mut n: NodeId| {
            while ns.depth(n) > 1 {
                n = ns.parent(n).unwrap();
            }
            n
        };
        let owners: Vec<ServerId> = ns
            .ids()
            .enumerate()
            .map(|(i, n)| match ServerId(i as u32 % 4) {
                ServerId(1) if ns.depth(n) >= 1 && region_root(n) == roots[0] => ServerId(0),
                s => s,
            })
            .collect();
        let asg = OwnerAssignment::from_owner_vec(owners, 4);
        let cfg = Arc::new(Config::paper_default(4));
        let mut servers: Vec<ServerState> = (0..4)
            .map(|i| ServerState::new(ServerId(i), Arc::clone(&ns), Arc::clone(&cfg), &asg))
            .collect();
        let roles_cfg = RoleConfig {
            enabled: true,
            relay_every: 0,
            keeper_every: 0,
            ..RoleConfig::default()
        };
        let map = Arc::new(RoleMap::build(&ns, &asg, &roles_cfg, 4));
        servers[1].set_role_map(Arc::clone(&map));
        let mut rng = StdRng::seed_from_u64(7);
        let mut out = Vec::new();
        let payload = |node: NodeId| ReplicaPayload {
            node,
            map: crate::map::NodeMap::singleton(ServerId(0)),
            meta: crate::meta::Meta::new(),
            neighbors: vec![],
            weight: 5.0,
        };
        let foreign = ns
            .ids()
            .find(|&n| ns.depth(n) >= 1 && !map.admits(ServerId(1), n) && !servers[1].hosts(n))
            .unwrap();
        let installed =
            servers[1].install_replicas(1.0, vec![payload(foreign)], &mut rng, &mut out);
        assert!(installed.is_empty(), "edge must refuse a foreign replica");
        assert!(!servers[1].hosts(foreign));
        // An admitted node from the owned region still installs.
        let granted = ns
            .ids()
            .find(|&n| ns.depth(n) >= 1 && map.admits(ServerId(1), n) && !servers[1].hosts(n))
            .unwrap();
        let installed =
            servers[1].install_replicas(1.0, vec![payload(granted)], &mut rng, &mut out);
        assert_eq!(installed, vec![granted]);
    }

    #[test]
    fn keeper_pinned_replicas_resist_displacement() {
        use crate::config::RoleConfig;
        use crate::roles::RoleMap;
        let (ns, asg, mut servers) = world(4);
        // Everyone is a keeper: server 1 pins (and admits) the regions
        // holding its owned nodes.
        let roles_cfg = RoleConfig {
            enabled: true,
            relay_every: 0,
            keeper_every: 1,
            ..RoleConfig::default()
        };
        let map = Arc::new(RoleMap::build(&ns, &asg, &roles_cfg, 4));
        servers[1].set_role_map(Arc::clone(&map));
        let mut rng = StdRng::seed_from_u64(9);
        let now = 1.0;
        let cap = servers[1].cfg.replica_cap(servers[1].owned_count());
        let candidates: Vec<NodeId> = ns
            .ids()
            .filter(|&n| {
                !servers[1].hosts(n) && map.admits(ServerId(1), n) && map.pins(ServerId(1), n)
            })
            .collect();
        assert!(candidates.len() > cap, "fixture needs spare candidates");
        let mut out = Vec::new();
        for &n in candidates.iter().take(cap) {
            let p = ReplicaPayload {
                node: n,
                map: crate::map::NodeMap::singleton(ServerId(0)),
                meta: crate::meta::Meta::new(),
                neighbors: vec![],
                weight: 1.0,
            };
            let installed = servers[1].install_replicas(now, vec![p], &mut rng, &mut out);
            assert_eq!(installed.len(), 1);
        }
        assert_eq!(servers[1].replica_count(), cap);
        // A far hotter newcomer cannot displace a pinned victim.
        let newcomer = candidates[cap];
        let p = ReplicaPayload {
            node: newcomer,
            map: crate::map::NodeMap::singleton(ServerId(0)),
            meta: crate::meta::Meta::new(),
            neighbors: vec![],
            weight: 1000.0,
        };
        out.clear();
        let installed = servers[1].install_replicas(now, vec![p], &mut rng, &mut out);
        assert!(
            installed.is_empty(),
            "pinned replicas must not be displaced"
        );
        assert_eq!(servers[1].replica_count(), cap);
        for &n in candidates.iter().take(cap) {
            assert!(servers[1].hosts(n), "pinned replica {n} survived");
        }
    }

    #[test]
    fn pick_partner_skips_non_admitting_servers() {
        use crate::config::RoleConfig;
        use crate::roles::RoleMap;
        let (ns, asg, mut servers) = world(4);
        // All-edge fleet with empty allowlists: nobody admits server 0's
        // home region, so there is no partner at all — neither via the
        // profiled ranking nor the random fallback.
        let roles_cfg = RoleConfig {
            enabled: true,
            relay_every: 0,
            keeper_every: 0,
            owned_admission: false,
            ..RoleConfig::default()
        };
        let map = Arc::new(RoleMap::build(&ns, &asg, &roles_cfg, 4));
        servers[0].set_role_map(map);
        let now = 1.0;
        servers[0].known_loads.observe(ServerId(2), 0.0, now);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..8 {
            assert_eq!(servers[0].pick_partner(now, &[], &mut rng), None);
        }
    }

    #[test]
    fn partner_death_mid_session_aborts_cleanly() {
        // Regression: a partner dying while a session is in flight must
        // abort the session on the spot, not strand it until
        // `SESSION_TIMEOUT` — otherwise the overloaded server cannot shed
        // load for the whole timeout window.
        let (_, _, mut servers) = world(4);
        let mut cfg = Config::paper_default(4);
        cfg.retry.enabled = true; // negative caching active
        let cfg = Arc::new(cfg);
        servers[0].cfg = Arc::clone(&cfg);
        let now = 1.0;
        servers[0].session = Some(Session::new_for_tests(ServerId(2), now));
        let mut out = Vec::new();
        servers[0].mark_host_dead(now, ServerId(2), &mut out);
        assert!(servers[0].session.is_none(), "session must abort");
        assert!(servers[0].cooldown_until > now, "cooldown armed");
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Event(ProtocolEvent::SessionAborted { .. }))));
        // A session targeting a different host survives.
        servers[0].session = Some(Session::new_for_tests(ServerId(3), now));
        out.clear();
        servers[0].mark_host_dead(now, ServerId(1), &mut out);
        assert!(servers[0].session.is_some());
    }

    #[test]
    fn dead_hosts_are_never_picked_as_partners() {
        let (_, _, mut servers) = world(4);
        let mut cfg = Config::paper_default(4);
        cfg.retry.enabled = true;
        servers[0].cfg = Arc::new(cfg);
        let now = 1.0;
        // Everybody except server 3 is observed dead; the fallback must
        // only ever pick 3.
        let mut out = Vec::new();
        servers[0].mark_host_dead(now, ServerId(1), &mut out);
        servers[0].mark_host_dead(now, ServerId(2), &mut out);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..32 {
            if let Some(p) = servers[0].pick_partner(now, &[], &mut rng) {
                assert_eq!(p, ServerId(3), "negatively cached host picked");
            }
        }
    }

    #[test]
    fn retry_moves_to_next_candidate_then_aborts() {
        let (_, _, mut servers) = world(8);
        let mut rng = StdRng::seed_from_u64(5);
        let now = 1.0;
        overload(&mut servers[0], now);
        servers[0].known_loads.observe(ServerId(3), 0.1, now);
        servers[0].known_loads.observe(ServerId(4), 0.2, now);
        let mut out = Vec::new();
        servers[0].maybe_start_session(now, &mut rng, &mut out);
        assert_eq!(servers[0].session.as_ref().unwrap().target, ServerId(3));
        // Partner 3 claims high load → retry with 4.
        out.clear();
        servers[0].on_probe_reply(now, ServerId(3), 0.95, &mut rng, &mut out);
        assert_eq!(servers[0].session.as_ref().unwrap().target, ServerId(4));
        assert_eq!(servers[0].session.as_ref().unwrap().attempts, 2);
        // 4 also refuses; third attempt goes somewhere random, then a
        // fourth failure aborts (MAX_SESSION_ATTEMPTS = 3).
        out.clear();
        servers[0].on_probe_reply(now, ServerId(4), 0.95, &mut rng, &mut out);
        let t3 = servers[0].session.as_ref().unwrap().target;
        out.clear();
        servers[0].on_probe_reply(now, t3, 0.95, &mut rng, &mut out);
        assert!(
            servers[0].session.is_none(),
            "session aborted after max attempts"
        );
        assert!(servers[0].cooldown_until > now);
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Event(ProtocolEvent::SessionAborted { .. }))));
    }
}
