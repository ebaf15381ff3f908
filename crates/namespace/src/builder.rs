//! Namespace generators for the paper's two evaluation namespaces.
//!
//! - [`balanced_tree`] builds the synthetic namespace T_S: a perfectly
//!   balanced k-ary tree (the paper uses a binary tree with levels 0–14,
//!   i.e. 32 767 nodes).
//! - [`coda_like`] builds a file-system-shaped namespace standing in for the
//!   paper's T_C (one month of the Coda "barber" server, ~80 k nodes). We do
//!   not have that 1993 trace, so we generate a seeded random tree with the
//!   same qualitative shape: moderate depth, heavy-tailed directory fanout,
//!   and a majority of leaf (file) nodes. The evaluation only exercises the
//!   *tree shape* (queries are synthetic), so this preserves the behaviour
//!   that matters: unbalanced hierarchical bottlenecks.
//! - [`from_paths`] builds a namespace from an explicit path list (e.g. a
//!   real file-system scan), for downstream users with their own traces.

use rand::Rng;

use crate::error::NameError;
use crate::name::NodeName;
use crate::tree::{Namespace, NodeId};

/// Builds a perfectly balanced `arity`-ary tree with `levels` levels below
/// the root (the root is level 0, leaves are level `levels`).
///
/// Child segments are the digits `0..arity`, so node names look like
/// `/1/0/1`. Total node count is `(arity^(levels+1) − 1) / (arity − 1)` for
/// `arity ≥ 2`, or `levels + 1` for a unary chain.
///
/// ```
/// use terradir_namespace::balanced_tree;
/// let ns = balanced_tree(2, 14);
/// assert_eq!(ns.len(), 32_767); // the paper's T_S
/// assert_eq!(ns.max_depth(), 14);
/// ```
pub fn balanced_tree(arity: u32, levels: u16) -> Namespace {
    assert!(arity >= 1, "arity must be at least 1");
    let mut ns = Namespace::new();
    // Level `l` holds `arity^l` nodes, each with an `l + 1`-long root path:
    // reserve the arena and the path table at their final size.
    let (mut width, mut nodes, mut path_entries) = (1usize, 0usize, 0usize);
    for l in 1..=usize::from(levels) {
        width = width.saturating_mul(arity as usize);
        nodes = nodes.saturating_add(width);
        path_entries = path_entries.saturating_add(width.saturating_mul(l + 1));
    }
    ns.reserve_exact(nodes, path_entries);
    let mut frontier = vec![ns.root()];
    let segments: Vec<String> = (0..arity).map(|i| i.to_string()).collect();
    for _ in 0..levels {
        let mut next = Vec::with_capacity(frontier.len() * arity as usize);
        for parent in frontier {
            for seg in &segments {
                // Segments `0..arity` are unique per parent by construction.
                match ns.add_child(parent, seg) {
                    Ok(c) => next.push(c),
                    Err(_) => debug_assert!(false, "balanced tree segment collision"),
                }
            }
        }
        frontier = next;
    }
    ns
}

/// Parameters of the synthetic Coda-like file-system namespace.
#[derive(Debug, Clone)]
pub struct CodaParams {
    /// Target total number of nodes (directories + files), root included.
    pub nodes: usize,
    /// Maximum directory depth (files can sit at `max_depth + 1`).
    pub max_depth: u16,
    /// Fraction of non-root nodes that are directories (the rest are files,
    /// i.e. leaves). Real file systems are file-dominated; Coda-era volumes
    /// ran around 15–25 % directories.
    pub dir_fraction: f64,
    /// Preferential-attachment bias: weight of a directory when choosing a
    /// parent is `children + attach_bias`. Lower values make fanout more
    /// heavy-tailed (a few huge directories), matching `ls -R` reality.
    pub attach_bias: f64,
}

impl Default for CodaParams {
    fn default() -> Self {
        CodaParams {
            nodes: 80_000,
            max_depth: 12,
            dir_fraction: 0.2,
            attach_bias: 1.0,
        }
    }
}

/// Builds a synthetic file-system-shaped namespace (the T_C stand-in).
///
/// The generator grows a tree one node at a time. Each new node picks an
/// existing directory as its parent with probability proportional to
/// `children + attach_bias` (preferential attachment ⇒ heavy-tailed fanout),
/// subject to the depth cap; the node itself becomes a directory with
/// probability `dir_fraction`, otherwise a leaf file.
///
/// Deterministic for a given `params` and `rng` state.
pub fn coda_like<R: Rng + ?Sized>(params: &CodaParams, rng: &mut R) -> Namespace {
    assert!(params.nodes >= 1, "need at least the root");
    assert!(
        (0.0..=1.0).contains(&params.dir_fraction),
        "dir_fraction must be a probability"
    );
    assert!(params.attach_bias > 0.0, "attach_bias must be positive");
    let mut ns = Namespace::new();
    // Two-stage sampler for P(dir) ∝ children(dir) + attach_bias in O(1):
    // with probability bias·|dirs| / (bias·|dirs| + edges) pick a directory
    // uniformly (the `+ bias` term), otherwise pick a child-edge slot
    // uniformly (the `children` term).
    let mut dirs: Vec<NodeId> = vec![ns.root()];
    let mut child_slots: Vec<u32> = Vec::with_capacity(params.nodes);
    let mut counter = 0u64;

    while ns.len() < params.nodes {
        let total_bias = params.attach_bias * dirs.len() as f64;
        let total = total_bias + child_slots.len() as f64;
        let pick = if child_slots.is_empty() || rng.gen_bool(total_bias / total) {
            rng.gen_range(0..dirs.len())
        } else {
            let slot = rng.gen_range(0..child_slots.len());
            child_slots.get(slot).map_or(0, |&s| s as usize)
        };
        // Slot values always index `dirs` (it only grows); root fallback is
        // unreachable on a well-formed sampler state.
        let parent = dirs.get(pick).copied().unwrap_or_else(|| ns.root());
        // Depth-capped directories only take file children so directory
        // chains stay within max_depth (files may sit at max_depth + 1).
        let is_dir = ns.depth(parent) < params.max_depth && rng.gen_bool(params.dir_fraction);
        let seg = if is_dir {
            format!("d{counter}")
        } else {
            format!("f{counter}")
        };
        counter += 1;
        let Ok(child) = ns.add_child(parent, &seg) else {
            // `counter` makes every segment fresh; a collision is impossible.
            debug_assert!(false, "fresh segment collided");
            continue;
        };
        child_slots.push(pick as u32);
        if is_dir {
            dirs.push(child);
        }
    }
    ns
}

/// Builds a namespace from an explicit list of absolute paths, creating
/// intermediate directories as needed.
///
/// ```
/// use terradir_namespace::from_paths;
/// let ns = from_paths(["/etc/passwd", "/etc/hosts", "/usr/bin/env"]).unwrap();
/// assert!(ns.lookup_str("/etc").is_ok());
/// assert_eq!(ns.len(), 7); // /, /etc, 2 files, /usr, /usr/bin, env
/// ```
pub fn from_paths<I, S>(paths: I) -> Result<Namespace, NameError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut ns = Namespace::new();
    for p in paths {
        let name = NodeName::parse(p.as_ref())?;
        ns.insert_path(&name);
    }
    Ok(ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn balanced_binary_counts() {
        let ns = balanced_tree(2, 4);
        assert_eq!(ns.len(), 31);
        assert_eq!(ns.level_sizes(), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn balanced_ternary_counts() {
        let ns = balanced_tree(3, 3);
        assert_eq!(ns.len(), 1 + 3 + 9 + 27);
        assert_eq!(ns.max_depth(), 3);
    }

    #[test]
    fn balanced_unary_chain() {
        let ns = balanced_tree(1, 5);
        assert_eq!(ns.len(), 6);
        assert_eq!(ns.max_depth(), 5);
    }

    /// The digest scan hashes a target's name once and finishes at each
    /// ancestor's length, which holds only if every parent's name is a
    /// byte prefix of its child's.
    fn assert_parent_names_are_prefixes(ns: &Namespace) {
        for id in ns.ids() {
            if let Some(p) = ns.parent(id) {
                let (child, parent) = (ns.name(id).as_str(), ns.name(p).as_str());
                assert!(
                    child.as_bytes().starts_with(parent.as_bytes()),
                    "{parent:?} is not a prefix of {child:?}"
                );
            }
        }
    }

    #[test]
    fn parent_names_are_byte_prefixes() {
        assert_parent_names_are_prefixes(&balanced_tree(2, 10));
        assert_parent_names_are_prefixes(&balanced_tree(5, 4));
        assert_parent_names_are_prefixes(&balanced_tree(1, 100));
        for seed in [1, 42] {
            let params = CodaParams {
                nodes: 5_000,
                ..CodaParams::default()
            };
            assert_parent_names_are_prefixes(&coda_like(&params, &mut StdRng::seed_from_u64(seed)));
        }
    }

    /// The route decision expands a directory's children lazily and
    /// relies on their ids ascending and exceeding the directory's.
    fn assert_children_ascend_past_parent(ns: &Namespace) {
        for id in ns.ids() {
            let children = ns.children(id);
            assert!(
                children.windows(2).all(|w| w[0] < w[1]),
                "children of {id} do not ascend: {children:?}"
            );
            assert!(
                children.iter().all(|&c| c > id),
                "a child of {id} has a smaller id: {children:?}"
            );
        }
    }

    #[test]
    fn children_ids_ascend_and_exceed_the_parent() {
        assert_children_ascend_past_parent(&balanced_tree(2, 10));
        assert_children_ascend_past_parent(&balanced_tree(7, 4));
        assert_children_ascend_past_parent(&balanced_tree(1, 100));
        for seed in [1, 42] {
            let params = CodaParams {
                nodes: 5_000,
                ..CodaParams::default()
            };
            assert_children_ascend_past_parent(&coda_like(
                &params,
                &mut StdRng::seed_from_u64(seed),
            ));
        }
        // Paths inserted out of order: a later path may add children to
        // a directory created long before, and deep paths create their
        // intermediate directories on the way down.
        let paths = ["/z/y/x", "/a", "/z/b", "/a/q/r/s", "/z/y/a", "/a/b", "/m"];
        assert_children_ascend_past_parent(&from_paths(paths).unwrap());
        let mut ns = from_paths(["/z/y"]).unwrap();
        for p in ["/a/b/c", "/z/a", "/z/y/c", "/a/a", "/z/y/b/d"] {
            ns.insert_path(&NodeName::parse(p).unwrap());
        }
        assert_children_ascend_past_parent(&ns);
    }

    #[test]
    fn coda_like_hits_target_size_and_cap() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = CodaParams {
            nodes: 2_000,
            max_depth: 8,
            ..CodaParams::default()
        };
        let ns = coda_like(&params, &mut rng);
        assert_eq!(ns.len(), 2_000);
        // Files may sit one below the directory cap.
        assert!(ns.max_depth() <= 9);
    }

    #[test]
    fn coda_like_is_deterministic_per_seed() {
        let params = CodaParams {
            nodes: 500,
            ..CodaParams::default()
        };
        let a = coda_like(&params, &mut StdRng::seed_from_u64(42));
        let b = coda_like(&params, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.name(id), b.name(id));
        }
    }

    #[test]
    fn coda_like_fanout_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(11);
        let params = CodaParams {
            nodes: 5_000,
            attach_bias: 0.5,
            ..CodaParams::default()
        };
        let ns = coda_like(&params, &mut rng);
        let mut fanouts: Vec<usize> = ns
            .ids()
            .filter(|&id| !ns.is_leaf(id))
            .map(|id| ns.children(id).len())
            .collect();
        fanouts.sort_unstable();
        let max = *fanouts.last().unwrap();
        let median = fanouts[fanouts.len() / 2];
        // Heavy tail: the largest directory dwarfs the median one.
        assert!(
            max >= median * 10,
            "expected heavy-tailed fanout, got median {median}, max {max}"
        );
    }

    #[test]
    fn from_paths_dedupes_shared_prefixes() {
        let ns = from_paths(["/a/b/c", "/a/b/d", "/a/e"]).unwrap();
        assert_eq!(ns.len(), 6); // /, /a, /a/b, c, d, e
    }

    #[test]
    fn from_paths_rejects_bad_names() {
        assert!(from_paths(["relative/path"]).is_err());
    }
}
