//! Deterministic hash containers — re-exported from `terradir-namespace`.
//!
//! The canonical module lives at the bottom of the crate graph
//! ([`terradir_namespace::det`]) so the namespace tree itself can use the
//! fixed-key hasher; this alias keeps the original `terradir::det` path
//! every protocol-layer caller refers to.

pub use terradir_namespace::det::{det_map_with_capacity, DetBuildHasher, DetHashMap, DetHashSet};
