//! Hierarchical namespace model for TerraDir.
//!
//! TerraDir names are fully qualified hierarchical paths, much like Unix file
//! names (`/university/public/people`). This crate provides:
//!
//! - [`NodeName`]: a validated, cheaply clonable path name ([`name`]).
//! - [`Namespace`]: an arena-backed tree of nodes with parent/children links
//!   and O(1) name interning ([`tree`]).
//! - Namespace distance, lowest common ancestors, and hop-by-hop paths — the
//!   metric the routing protocol's *incremental progress* guarantee is
//!   defined over ([`mod@distance`]).
//! - Namespace generators: perfectly balanced k-ary trees (the paper's T_S)
//!   and a synthetic file-system-shaped tree standing in for the Coda
//!   "barber" trace (the paper's T_C) ([`builder`]).
//! - Node→server ownership assignment ([`mapping`]).
//!
//! The simulation and protocol layers work exclusively with dense [`NodeId`]
//! handles; names are materialized only at API boundaries and when hashing
//! into Bloom digests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod det;
pub mod distance;
pub mod error;
pub mod mapping;
pub mod name;
pub mod tree;

pub use builder::{balanced_tree, coda_like, from_paths, CodaParams};
pub use distance::{ancestors, distance, is_ancestor_or_self, lca, next_hop_toward, path_between};
pub use error::NameError;
pub use mapping::OwnerAssignment;
pub use name::NodeName;
pub use tree::{Namespace, NodeId};

/// Identifier of a participating server (peer).
///
/// Servers are dense indices `0..n_servers`; the simulator, the protocol
/// crate, and the live deployment all share this handle type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The server id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(ServerId(7).to_string(), "s7");
        assert_eq!(NodeId(12).to_string(), "n12");
        assert_eq!(ServerId(3).index(), 3);
    }

    #[test]
    fn node_name_std_trait_impls() {
        let n: NodeName = "/a/b".parse().expect("FromStr");
        assert_eq!(n.as_ref(), "/a/b");
        assert!("nope".parse::<NodeName>().is_err());
    }
}
