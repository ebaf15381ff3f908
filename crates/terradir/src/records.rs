//! Hosted-node records (the paper's Table 1 state matrix).
//!
//! | Node state   | Name | Map | Data | Meta | Context |
//! |--------------|------|-----|------|------|---------|
//! | Owned        |  ✓   |  ✓  |  ✓   |  ✓   |    ✓    |
//! | Replicated   |  ✓   |  ✓  |      |  ✓   |    ✓    |
//! | Neighboring  |  ✓   |  ✓  |      |      |         |
//! | Cached       |  ✓   |  ✓  |      |      |         |
//!
//! A [`NodeRecord`] is the owned/replicated row: name (implicit via the
//! shared [`Namespace`](terradir_namespace::Namespace)), map, meta-data
//! (modeled as an opaque version — "we assume that node meta-data is
//! invariant or else that there are no consistency/freshness requirements";
//! only the owner bumps it, replicas keep the newest seen), and routing
//! context (the neighbor maps, held in the server's shared neighbor table).
//! Node *data* stays with the owner only and never replicates — the
//! protocol replicates routing state, not data.

use terradir_namespace::NodeId;

use crate::map::NodeMap;
use crate::meta::Meta;

/// State a host keeps for a node it owns or replicates.
#[derive(Debug, Clone)]
pub struct NodeRecord {
    /// The node.
    pub node: NodeId,
    /// Hosts of this node as far as this server knows (self included).
    pub map: NodeMap,
    /// Application meta-data; replicas keep the newest version
    /// encountered.
    pub meta: Meta,
    /// When the record was installed at this host (owner records use the
    /// bootstrap time 0); drives the replica idle-eviction minimum age.
    pub installed_at: f64,
    /// Last time a newly created replica was advertised into this map
    /// (drives back-propagation: fresh advertisements are pushed upstream).
    pub advertised_at: f64,
    /// Last time this record's map was back-propagated (rate limit).
    pub backprop_at: f64,
    /// Soft-state lease stamp (DESIGN.md §14): last time fresh evidence
    /// for this record arrived (installation, an absorbed payload, or a
    /// resolution at this host). The lazy sweep evicts *replica* records
    /// whose stamp is older than `leases.ttl`; owned records are
    /// authoritative and exempt.
    pub lease_at: f64,
}

impl NodeRecord {
    /// A new record installed at `installed_at` with the given map.
    pub fn new(node: NodeId, map: NodeMap, meta: Meta, installed_at: f64) -> NodeRecord {
        NodeRecord {
            node,
            map,
            meta,
            installed_at,
            advertised_at: f64::NEG_INFINITY,
            backprop_at: f64::NEG_INFINITY,
            lease_at: installed_at,
        }
    }

    /// Refreshes the lease stamp; stamps never move backwards.
    pub fn refresh_lease(&mut self, now: f64) {
        if now > self.lease_at {
            self.lease_at = now;
        }
    }

    /// Adopts incoming meta-data if it is fresher ("replicas will keep the
    /// newest version that they have encountered").
    pub fn absorb_meta(&mut self, incoming: &Meta) {
        self.meta.absorb(incoming);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terradir_namespace::ServerId;

    #[test]
    fn lease_stamp_initializes_and_never_regresses() {
        let mut r = NodeRecord::new(NodeId(1), NodeMap::singleton(ServerId(0)), Meta::new(), 3.0);
        assert!((r.lease_at - 3.0).abs() < 1e-12);
        r.refresh_lease(5.0);
        assert!((r.lease_at - 5.0).abs() < 1e-12);
        r.refresh_lease(4.0);
        assert!((r.lease_at - 5.0).abs() < 1e-12, "stamps never move back");
    }

    #[test]
    fn absorb_meta_keeps_newest() {
        let mut newer = Meta::new();
        newer.set_attr("k", "v");
        let mut r = NodeRecord::new(NodeId(1), NodeMap::singleton(ServerId(0)), Meta::new(), 0.0);
        r.absorb_meta(&newer);
        assert_eq!(r.meta.version(), 1);
        assert_eq!(r.meta.get("k"), Some("v"));
        r.absorb_meta(&Meta::new());
        assert_eq!(r.meta.version(), 1, "older meta ignored");
    }
}
