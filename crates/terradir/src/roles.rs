//! Heterogeneous fleet roles and multi-tenant namespace partition
//! (DESIGN.md §19).
//!
//! [`RoleMap`] materializes [`RoleConfig`](crate::config::RoleConfig):
//! every server gets a [`ServerClass`] from its id, the namespace is
//! split into *admission regions* rooted at `REGION_DEPTH`, and a dense
//! bitmap answers "may server `s` hold soft state for node `n`?" in
//! O(1) with zero allocation — the query runs at every placement
//! decision (partner ranking, storage placement, gossip pools,
//! reconcile pushes). Keepers additionally *pin* the regions containing
//! their owned nodes: pinned replicas are exempt from lease expiry,
//! idle eviction, and capacity displacement.
//!
//! [`TenantMap`] materializes [`TenantConfig`](crate::config::TenantConfig):
//! the nodes at `cut_depth` are dealt round-robin (by node id) to
//! tenants, each tenant owning the disjoint union of its subtrees.
//! Spine nodes (shallower than the cut) belong to no tenant. The map
//! answers "which tenant does node `n` belong to?" in O(1) — the query
//! runs at every accounting site (injection, resolution, every drop
//! kind, stale reads).
//!
//! Both maps are built once at system construction and never consult an
//! RNG, so enabling roles or tenants perturbs no random stream by
//! itself.

use terradir_namespace::{Namespace, NodeId, OwnerAssignment, ServerId};

use crate::config::{self, RoleConfig, ServerClass, TenantConfig};

/// Sentinel region index for spine nodes (shallower than `REGION_DEPTH`).
const SPINE: u32 = u32::MAX;

/// Sentinel tenant index for nodes above the tenant cut.
const NO_TENANT: u16 = u16::MAX;

/// Dense role map: per-server classes, per-node admission regions, and
/// the server × region admission/pinning bitmaps.
#[derive(Debug, Clone)]
pub struct RoleMap {
    class: Vec<ServerClass>,
    /// Per node: index into `region_roots`, or [`SPINE`].
    region_of: Vec<u32>,
    region_roots: Vec<NodeId>,
    /// `admit[s * n_regions + r]`: may edge/keeper `s` hold soft state
    /// for region `r`? (Relays admit everything and skip the bitmap.)
    admit: Vec<bool>,
    /// `pinned[s * n_regions + r]`: does keeper `s` pin region `r`?
    pinned: Vec<bool>,
}

impl RoleMap {
    /// The class `roles` assigns to server `s` (pure id arithmetic).
    pub fn class_from_cfg(roles: &RoleConfig, s: ServerId) -> ServerClass {
        if roles.relay_every > 0 && s.0.is_multiple_of(roles.relay_every) {
            ServerClass::Relay
        } else if roles.keeper_every > 0 && s.0.is_multiple_of(roles.keeper_every) {
            ServerClass::Keeper
        } else {
            ServerClass::Edge
        }
    }

    /// Builds the role map for a fleet of `n_servers` servers over `ns`.
    ///
    /// Edges and keepers admit the regions containing nodes they own;
    /// keepers also pin them.
    pub fn build(
        ns: &Namespace,
        assignment: &OwnerAssignment,
        roles: &RoleConfig,
        n_servers: u32,
    ) -> RoleMap {
        let n = n_servers as usize;
        let class: Vec<ServerClass> = (0..n_servers)
            .map(|s| RoleMap::class_from_cfg(roles, ServerId(s)))
            // xtask: allow(alloc): role-map construction, runs once per system
            .collect();

        // Region roots are the nodes at exactly `REGION_DEPTH`, in id
        // order; every deeper node inherits its ancestor's region.
        // xtask: allow(alloc): role-map construction, runs once per system
        let mut region_roots = Vec::new();
        // xtask: allow(alloc): role-map construction, runs once per system
        let mut region_of = vec![SPINE; ns.len()];
        for node in ns.ids() {
            let d = ns.depth(node);
            let r = match d.cmp(&config::REGION_DEPTH) {
                std::cmp::Ordering::Equal => {
                    region_roots.push(node);
                    region_roots.len() as u32 - 1
                }
                std::cmp::Ordering::Greater => match ns.parent(node) {
                    // Parents precede children in id order, so the
                    // parent's region is already resolved.
                    Some(p) => region_of.get(p.index()).copied().unwrap_or(SPINE),
                    None => SPINE,
                },
                std::cmp::Ordering::Less => SPINE,
            };
            if let Some(slot) = region_of.get_mut(node.index()) {
                *slot = r;
            }
        }

        let n_regions = region_roots.len();
        // xtask: allow(alloc): role-map construction, runs once per system
        let mut admit = vec![false; n * n_regions];
        // xtask: allow(alloc): role-map construction, runs once per system
        let mut pinned = vec![false; n * n_regions];
        for s in 0..n {
            // Each class's placement policy, named per variant.
            let pins = match class.get(s).copied().unwrap_or(ServerClass::Edge) {
                ServerClass::Relay => continue, // relays admit everything; bitmap unused
                ServerClass::Edge => false,
                ServerClass::Keeper => true,
            };
            for &node in assignment.owned_by(ServerId(s as u32)) {
                let Some(&r) = region_of.get(node.index()) else {
                    continue;
                };
                if r == SPINE {
                    continue;
                }
                let idx = s * n_regions + r as usize;
                if let Some(slot) = admit.get_mut(idx) {
                    *slot = true;
                }
                if pins {
                    if let Some(slot) = pinned.get_mut(idx) {
                        *slot = true;
                    }
                }
            }
        }
        RoleMap {
            class,
            region_of,
            region_roots,
            admit,
            pinned,
        }
    }

    /// The class of server `s`.
    #[inline]
    pub fn class_of(&self, s: ServerId) -> ServerClass {
        self.class
            .get(s.index())
            .copied()
            .unwrap_or(ServerClass::Edge)
    }

    /// May server `s` hold replicas / stored objects for `node`?
    ///
    /// Relays admit everything; spine nodes are admitted by everyone
    /// (the spine is shared routing fabric); otherwise the admission
    /// bitmap decides.
    #[inline]
    pub fn admits(&self, s: ServerId, node: NodeId) -> bool {
        if self.class_of(s) == ServerClass::Relay {
            return true;
        }
        let Some(&r) = self.region_of.get(node.index()) else {
            return true;
        };
        if r == SPINE {
            return true;
        }
        let n_regions = self.region_roots.len();
        self.admit
            .get(s.index() * n_regions + r as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Does keeper `s` pin `node`'s region against eviction?
    #[inline]
    pub fn pins(&self, s: ServerId, node: NodeId) -> bool {
        let Some(&r) = self.region_of.get(node.index()) else {
            return false;
        };
        if r == SPINE {
            return false;
        }
        let n_regions = self.region_roots.len();
        self.pinned
            .get(s.index() * n_regions + r as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Is `node` on the spine (shallower than `REGION_DEPTH`, shared by
    /// the whole fleet)?
    #[inline]
    pub fn in_spine(&self, node: NodeId) -> bool {
        self.region_of.get(node.index()).is_none_or(|&r| r == SPINE)
    }

    /// Number of admission regions.
    #[inline]
    pub fn n_regions(&self) -> usize {
        self.region_roots.len()
    }

    /// The region roots, in node-id order.
    #[inline]
    pub fn region_roots(&self) -> &[NodeId] {
        &self.region_roots
    }

    /// May `a` and `b` exchange soft-state traffic (gossip digests,
    /// reconcile pushes)? Relays talk to everyone; two non-relays must
    /// share at least one admitted region — an edge's digest about a
    /// foreign region would only advertise payloads the peer refuses
    /// anyway (DESIGN.md §19).
    pub fn gossip_compatible(&self, a: ServerId, b: ServerId) -> bool {
        if self.class_of(a) == ServerClass::Relay || self.class_of(b) == ServerClass::Relay {
            return true;
        }
        self.region_roots
            .iter()
            .any(|&r| self.admits(a, r) && self.admits(b, r))
    }
}

/// Dense tenant map: per-node tenant indices and per-tenant member
/// lists (ascending node-id order).
#[derive(Debug, Clone)]
pub struct TenantMap {
    /// Per node: tenant index, or [`NO_TENANT`] for the spine.
    tenant_of: Vec<u16>,
    members: Vec<Vec<NodeId>>,
}

impl TenantMap {
    /// Builds the tenant map: the nodes at `cut_depth`, in id order, are
    /// dealt round-robin to the `tenants.specs.len()` tenants; each
    /// deeper node inherits its ancestor's tenant.
    pub fn build(ns: &Namespace, tenants: &TenantConfig) -> TenantMap {
        let n_tenants = tenants.specs.len().min(NO_TENANT as usize);
        // xtask: allow(alloc): tenant-map construction, runs once per system
        let mut tenant_of = vec![NO_TENANT; ns.len()];
        // xtask: allow(alloc): tenant-map construction, runs once per system
        let mut members = vec![Vec::new(); n_tenants];
        if n_tenants == 0 {
            return TenantMap { tenant_of, members };
        }
        let mut dealt: usize = 0;
        for node in ns.ids() {
            let d = ns.depth(node);
            let t = match d.cmp(&tenants.cut_depth) {
                std::cmp::Ordering::Equal => {
                    let t = (dealt % n_tenants) as u16;
                    dealt += 1;
                    t
                }
                std::cmp::Ordering::Greater => match ns.parent(node) {
                    // Parents precede children in id order.
                    Some(p) => tenant_of.get(p.index()).copied().unwrap_or(NO_TENANT),
                    None => NO_TENANT,
                },
                std::cmp::Ordering::Less => NO_TENANT,
            };
            if let Some(slot) = tenant_of.get_mut(node.index()) {
                *slot = t;
            }
            if t != NO_TENANT {
                if let Some(list) = members.get_mut(t as usize) {
                    list.push(node);
                }
            }
        }
        TenantMap { tenant_of, members }
    }

    /// The tenant of `node`, or `None` for spine nodes above the cut.
    #[inline]
    pub fn tenant_of(&self, node: NodeId) -> Option<u16> {
        match self.tenant_of.get(node.index()).copied() {
            Some(t) if t != NO_TENANT => Some(t),
            _ => None,
        }
    }

    /// Number of tenants.
    #[inline]
    pub fn n_tenants(&self) -> usize {
        self.members.len()
    }

    /// The nodes of tenant `t`, ascending by node id.
    #[inline]
    pub fn members(&self, t: u16) -> &[NodeId] {
        self.members.get(t as usize).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, TenantSpec};
    use terradir_namespace::balanced_tree;

    fn roles_on() -> RoleConfig {
        RoleConfig {
            enabled: true,
            ..RoleConfig::default()
        }
    }

    #[test]
    fn classes_follow_id_arithmetic() {
        let r = roles_on(); // relay_every 4, keeper_every 2
        assert_eq!(RoleMap::class_from_cfg(&r, ServerId(0)), ServerClass::Relay);
        assert_eq!(RoleMap::class_from_cfg(&r, ServerId(4)), ServerClass::Relay);
        assert_eq!(
            RoleMap::class_from_cfg(&r, ServerId(2)),
            ServerClass::Keeper
        );
        assert_eq!(RoleMap::class_from_cfg(&r, ServerId(1)), ServerClass::Edge);
        assert_eq!(RoleMap::class_from_cfg(&r, ServerId(3)), ServerClass::Edge);
        let none = RoleConfig {
            relay_every: 0,
            keeper_every: 0,
            ..roles_on()
        };
        for s in 0..8 {
            assert_eq!(
                RoleMap::class_from_cfg(&none, ServerId(s)),
                ServerClass::Edge
            );
        }
    }

    #[test]
    fn regions_root_at_depth_and_cover_subtrees() {
        let ns = balanced_tree(2, 4); // 31 nodes, root + 2 at depth 1
        let asg = OwnerAssignment::round_robin(&ns, 8);
        let map = RoleMap::build(&ns, &asg, &roles_on(), 8);
        assert_eq!(map.n_regions(), 2);
        // Every non-root node sits in the region of its depth-1 ancestor.
        for node in ns.ids() {
            if node == ns.root() {
                continue;
            }
            let mut anc = node;
            while ns.depth(anc) > 1 {
                anc = ns.parent(anc).unwrap();
            }
            let want = map.region_roots().iter().position(|&r| r == anc).unwrap();
            let mut cur = node;
            while ns.depth(cur) > 1 {
                cur = ns.parent(cur).unwrap();
            }
            assert_eq!(map.region_roots()[want], cur);
        }
    }

    #[test]
    fn relays_admit_everything_and_spine_is_shared() {
        let ns = balanced_tree(2, 4);
        let asg = OwnerAssignment::round_robin(&ns, 8);
        let map = RoleMap::build(&ns, &asg, &roles_on(), 8);
        assert_eq!(map.class_of(ServerId(0)), ServerClass::Relay);
        for node in ns.ids() {
            assert!(map.admits(ServerId(0), node));
        }
        // The root is spine (depth 0 < REGION_DEPTH 1): everyone admits it.
        for s in 0..8 {
            assert!(map.admits(ServerId(s), ns.root()));
        }
    }

    #[test]
    fn edges_admit_owned_regions_only() {
        let ns = balanced_tree(2, 4);
        let asg = OwnerAssignment::round_robin(&ns, 8);
        let map = RoleMap::build(&ns, &asg, &roles_on(), 8);
        let s = ServerId(1); // edge
        assert_eq!(map.class_of(s), ServerClass::Edge);
        for node in ns.ids() {
            if ns.depth(node) == 0 {
                continue;
            }
            let owned_region = asg.owned_by(s).iter().any(|&o| {
                ns.depth(o) >= 1 && {
                    let mut a = o;
                    while ns.depth(a) > 1 {
                        a = ns.parent(a).unwrap();
                    }
                    let mut b = node;
                    while ns.depth(b) > 1 {
                        b = ns.parent(b).unwrap();
                    }
                    a == b
                }
            });
            assert_eq!(map.admits(s, node), owned_region, "node {node}");
        }
    }

    #[test]
    fn all_edge_fleet_admits_the_spine_and_owned_leaves_only() {
        // A one-level tree makes every leaf its own region, so an edge
        // admits the root and the leaves it owns, and nothing else.
        let ns = balanced_tree(8, 1);
        let asg = OwnerAssignment::round_robin(&ns, 4);
        let cfg = RoleConfig {
            relay_every: 0,
            keeper_every: 0,
            ..roles_on()
        };
        let map = RoleMap::build(&ns, &asg, &cfg, 4);
        for s in (0..4).map(ServerId) {
            for node in ns.ids() {
                let admitted = ns.depth(node) == 0 || asg.owner(node) == s;
                assert_eq!(map.admits(s, node), admitted, "{s} {node}");
            }
        }
    }

    #[test]
    fn keepers_pin_owned_regions_and_edges_pin_nothing() {
        let ns = balanced_tree(2, 4);
        let asg = OwnerAssignment::round_robin(&ns, 8);
        let map = RoleMap::build(&ns, &asg, &roles_on(), 8);
        let keeper = ServerId(2);
        assert_eq!(map.class_of(keeper), ServerClass::Keeper);
        let pins_any = ns.ids().any(|n| map.pins(keeper, n));
        assert!(pins_any, "a keeper owning deep nodes must pin something");
        for n in ns.ids() {
            if map.pins(keeper, n) {
                assert!(map.admits(keeper, n), "pinned implies admitted");
            }
            assert!(!map.pins(ServerId(1), n), "edges pin nothing");
            assert!(!map.pins(ServerId(0), n), "relays pin nothing");
        }
        // Pins never cover the spine.
        assert!(!map.pins(keeper, ns.root()));
    }

    #[test]
    fn tenant_deal_is_round_robin_and_disjoint() {
        let ns = balanced_tree(2, 4);
        let spec = |w: f64| TenantSpec {
            weight: w,
            zipf_theta: 0.0,
            slo_availability: 0.9,
        };
        let cfg = TenantConfig {
            enabled: true,
            cut_depth: 2,
            specs: vec![spec(1.0), spec(2.0), spec(1.0)],
        };
        let map = TenantMap::build(&ns, &cfg);
        assert_eq!(map.n_tenants(), 3);
        // 4 nodes at depth 2 dealt 0,1,2,0.
        let mut covered = 0;
        for t in 0..3u16 {
            for &n in map.members(t) {
                assert_eq!(map.tenant_of(n), Some(t));
                assert!(ns.depth(n) >= 2);
                covered += 1;
            }
        }
        // Every node at depth ≥ 2 belongs to exactly one tenant.
        let deep = ns.ids().filter(|&n| ns.depth(n) >= 2).count();
        assert_eq!(covered, deep);
        // Spine nodes belong to none.
        assert_eq!(map.tenant_of(ns.root()), None);
        for &c in ns.children(ns.root()) {
            assert_eq!(map.tenant_of(c), None);
        }
    }

    #[test]
    fn more_tenants_than_cut_nodes_leaves_some_empty() {
        let ns = balanced_tree(2, 3); // 2 nodes at depth 1
        let spec = TenantSpec {
            weight: 1.0,
            zipf_theta: 0.0,
            slo_availability: 0.9,
        };
        let cfg = TenantConfig {
            enabled: true,
            cut_depth: 1,
            specs: vec![spec.clone(), spec.clone(), spec],
        };
        let map = TenantMap::build(&ns, &cfg);
        assert_eq!(map.n_tenants(), 3);
        assert!(!map.members(0).is_empty());
        assert!(!map.members(1).is_empty());
        assert!(map.members(2).is_empty());
    }

    #[test]
    fn disabled_config_gates_build_at_the_caller() {
        let c = Config::paper_default(8);
        assert!(!c.roles.enabled);
        assert!(!c.tenants_active());
    }
}
