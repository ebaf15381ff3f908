//! Arena-backed namespace tree with name interning.

use crate::det::DetHashMap;
use crate::error::NameError;
use crate::name::NodeName;

/// Dense handle of a node in a [`Namespace`].
///
/// Node ids index into the namespace arena and are assigned in insertion
/// order; the root is always `NodeId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct NodeInfo {
    name: NodeName,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    depth: u16,
}

/// An immutable-after-construction namespace tree.
///
/// The namespace owns every node's name, parent/children links, and depth.
/// The TerraDir data model allows arbitrary graph-rooted topologies; like the
/// paper's evaluation, we restrict ourselves to trees rooted at `/`.
///
/// ```
/// use terradir_namespace::Namespace;
/// let mut ns = Namespace::new();
/// let a = ns.add_child(ns.root(), "a").unwrap();
/// let b = ns.add_child(a, "b").unwrap();
/// assert_eq!(ns.name(b).as_str(), "/a/b");
/// assert_eq!(ns.parent(b), Some(a));
/// assert_eq!(ns.depth(b), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Namespace {
    nodes: Vec<NodeInfo>,
    by_name: DetHashMap<NodeName, NodeId>,
    /// Flattened root-to-node paths: node `i`'s path, root first and `i`
    /// last, is `paths[path_off[i]..path_off[i + 1]]`. Ids are dense and
    /// assigned in insertion order, so [`Namespace::add_child`] only
    /// appends. [`crate::distance`] binary searches two of these for their
    /// common prefix.
    paths: Vec<NodeId>,
    path_off: Vec<u32>,
}

impl Namespace {
    /// Resolves a node id to its arena entry without panicking: the arena
    /// always holds the root, and an out-of-range id (only constructible by
    /// hand, since `NodeId.0` is public) degrades to the root entry.
    fn info(&self, id: NodeId) -> &NodeInfo {
        match self.nodes.get(id.index()) {
            Some(info) => info,
            None => match self.nodes.first() {
                Some(root) => root,
                None => unreachable!("namespace always contains the root"),
            },
        }
    }

    /// Creates a namespace containing only the root node `/`.
    pub fn new() -> Self {
        let root_name = NodeName::root();
        let mut by_name = DetHashMap::default();
        // xtask: allow(alloc): NodeName is Arc-backed — a refcount bump
        by_name.insert(root_name.clone(), NodeId(0));
        Namespace {
            // xtask: allow(alloc): construction, runs once per namespace
            nodes: vec![NodeInfo {
                name: root_name,
                parent: None,
                children: Vec::new(),
                depth: 0,
            }],
            by_name,
            // xtask: allow(alloc): construction, runs once per namespace
            paths: vec![NodeId(0)],
            // xtask: allow(alloc): construction, runs once per namespace
            path_off: vec![0, 1],
        }
    }

    /// Reserves room for `nodes` more nodes whose root-to-node paths hold
    /// `path_entries` ids in total, so a builder that knows its final
    /// shape grows the arena and the path table exactly once. A hint
    /// only: a shape too large to reserve grows on demand instead.
    pub(crate) fn reserve_exact(&mut self, nodes: usize, path_entries: usize) {
        let _ = self.nodes.try_reserve_exact(nodes);
        let _ = self.path_off.try_reserve_exact(nodes);
        let _ = self.paths.try_reserve_exact(path_entries);
    }

    /// The root node id (always `NodeId(0)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes, including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the namespace contains only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Adds a child with the given segment under `parent`.
    ///
    /// Returns an error if the segment is invalid or a child with that
    /// segment already exists.
    pub fn add_child(&mut self, parent: NodeId, segment: &str) -> Result<NodeId, NameError> {
        let Some(parent_info) = self.nodes.get(parent.index()) else {
            return Err(NameError::UnknownNode(parent.0));
        };
        let name = parent_info.name.child(segment)?;
        if self.by_name.contains_key(&name) {
            return Err(NameError::DuplicateChild {
                // xtask: allow(alloc): cold error path, diagnostic payload
                parent: parent_info.name.as_str().to_string(),
                // xtask: allow(alloc): cold error path, diagnostic payload
                segment: segment.to_string(),
            });
        }
        let id = NodeId(self.nodes.len() as u32);
        let depth = parent_info.depth + 1;
        self.nodes.push(NodeInfo {
            // xtask: allow(alloc): NodeName is Arc-backed — a refcount bump
            name: name.clone(),
            parent: Some(parent),
            children: Vec::new(),
            depth,
        });
        if let Some(parent_info) = self.nodes.get_mut(parent.index()) {
            parent_info.children.push(id);
        }
        self.by_name.insert(name, id);
        let parent_path = self.path_range(parent);
        self.paths.extend_from_within(parent_path);
        self.paths.push(id);
        self.path_off.push(self.paths.len() as u32);
        Ok(id)
    }

    /// Inserts a full path, creating any missing intermediate nodes, and
    /// returns the id of the final component.
    pub fn insert_path(&mut self, name: &NodeName) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let mut cur = self.root();
        let mut cur_name = NodeName::root();
        for seg in name.segments() {
            let Ok(next_name) = cur_name.child(seg) else {
                // Segments of a parsed NodeName re-validate by construction.
                debug_assert!(false, "NodeName segment failed revalidation");
                continue;
            };
            cur_name = next_name;
            cur = if let Some(&id) = self.by_name.get(&cur_name) {
                id
            } else if let Ok(id) = self.add_child(cur, seg) {
                id
            } else {
                debug_assert!(false, "validated absent segment failed insert");
                return cur;
            };
        }
        cur
    }

    /// Looks up a node by name.
    pub fn lookup(&self, name: &NodeName) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a node by string path, returning an error for unknown names.
    pub fn lookup_str(&self, path: &str) -> Result<NodeId, NameError> {
        let name = NodeName::parse(path)?;
        self.lookup(&name)
            // xtask: allow(alloc): cold error path, diagnostic payload
            .ok_or_else(|| NameError::UnknownName(path.to_string()))
    }

    /// The name of a node.
    #[inline]
    pub fn name(&self, id: NodeId) -> &NodeName {
        &self.info(id).name
    }

    /// The parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.info(id).parent
    }

    /// The children of a node, in insertion order. Ids are assigned in
    /// insertion order too, so the slice ascends and every child's id
    /// exceeds its parent's.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.info(id).children
    }

    /// Depth of a node; the root has depth 0.
    #[inline]
    pub fn depth(&self, id: NodeId) -> u16 {
        self.info(id).depth
    }

    /// The topological neighbors of a node: its parent (if any) followed by
    /// its children. This is exactly the *routing context* a host must keep
    /// for the node (paper §2.2.2).
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let info = self.info(id);
        let mut out = Vec::with_capacity(info.children.len() + 1);
        if let Some(p) = info.parent {
            out.push(p);
        }
        out.extend_from_slice(&info.children);
        out
    }

    /// The range of `id`'s root-to-node path in `paths`; an out-of-range
    /// id degrades to the root's, like [`Namespace::info`].
    fn path_range(&self, id: NodeId) -> std::ops::Range<usize> {
        let i = id.index();
        match (self.path_off.get(i), self.path_off.get(i + 1)) {
            (Some(&start), Some(&end)) => start as usize..end as usize,
            _ => 0..1,
        }
    }

    /// The path from the root down to `id`, both included: entry `d` is
    /// `id`'s ancestor at depth `d`, so the slice is `depth(id) + 1` long.
    ///
    /// ```
    /// use terradir_namespace::balanced_tree;
    /// let ns = balanced_tree(2, 3);
    /// let n = ns.lookup_str("/1/0").unwrap();
    /// let path = ns.root_path(n);
    /// assert_eq!(path, [ns.root(), ns.lookup_str("/1").unwrap(), n]);
    /// ```
    #[inline]
    pub fn root_path(&self, id: NodeId) -> &[NodeId] {
        self.paths.get(self.path_range(id)).unwrap_or_default()
    }

    /// Whether the node has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.info(id).children.is_empty()
    }

    /// Iterator over every node id in the namespace (insertion order,
    /// starting with the root).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Maximum depth over all nodes.
    pub fn max_depth(&self) -> u16 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Number of nodes at each depth, indexed by level (level 0 is the root).
    pub fn level_sizes(&self) -> Vec<usize> {
        // xtask: allow(alloc): topology diagnostic, not on the event path
        let mut out = vec![0usize; self.max_depth() as usize + 1];
        for n in &self.nodes {
            if let Some(slot) = out.get_mut(n.depth as usize) {
                *slot += 1;
            }
        }
        out
    }
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
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
    fn new_namespace_has_root_only() {
        let ns = Namespace::new();
        assert_eq!(ns.len(), 1);
        assert!(ns.is_empty());
        assert!(ns.name(ns.root()).is_root());
        assert_eq!(ns.parent(ns.root()), None);
        assert_eq!(ns.depth(ns.root()), 0);
    }

    #[test]
    fn add_child_links_both_ways() {
        let mut ns = Namespace::new();
        let a = ns.add_child(ns.root(), "a").unwrap();
        assert_eq!(ns.parent(a), Some(ns.root()));
        assert_eq!(ns.children(ns.root()), &[a]);
        assert_eq!(ns.depth(a), 1);
        assert_eq!(ns.lookup(&NodeName::parse("/a").unwrap()), Some(a));
    }

    #[test]
    fn duplicate_child_rejected() {
        let mut ns = Namespace::new();
        ns.add_child(ns.root(), "a").unwrap();
        assert!(matches!(
            ns.add_child(ns.root(), "a"),
            Err(NameError::DuplicateChild { .. })
        ));
    }

    #[test]
    fn insert_path_creates_intermediates() {
        let mut ns = Namespace::new();
        let n = ns.insert_path(&NodeName::parse("/x/y/z").unwrap());
        assert_eq!(ns.len(), 4);
        assert_eq!(ns.name(n).as_str(), "/x/y/z");
        // Re-inserting is idempotent.
        let n2 = ns.insert_path(&NodeName::parse("/x/y/z").unwrap());
        assert_eq!(n, n2);
        assert_eq!(ns.len(), 4);
        // Intermediate exists and is shared.
        let y = ns.lookup_str("/x/y").unwrap();
        assert_eq!(ns.parent(n), Some(y));
    }

    #[test]
    fn neighbors_are_parent_then_children() {
        let mut ns = Namespace::new();
        let a = ns.add_child(ns.root(), "a").unwrap();
        let b = ns.add_child(a, "b").unwrap();
        let c = ns.add_child(a, "c").unwrap();
        assert_eq!(ns.neighbors(a), vec![ns.root(), b, c]);
        assert_eq!(ns.neighbors(ns.root()), vec![a]);
        assert!(ns.is_leaf(b));
    }

    #[test]
    fn level_sizes_count_depths() {
        let mut ns = Namespace::new();
        let a = ns.add_child(ns.root(), "a").unwrap();
        ns.add_child(ns.root(), "b").unwrap();
        ns.add_child(a, "c").unwrap();
        assert_eq!(ns.level_sizes(), vec![1, 2, 1]);
        assert_eq!(ns.max_depth(), 2);
    }

    #[test]
    fn lookup_str_unknown() {
        let ns = Namespace::new();
        assert!(matches!(
            ns.lookup_str("/nope"),
            Err(NameError::UnknownName(_))
        ));
    }
}
