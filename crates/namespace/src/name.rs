//! Validated hierarchical node names.

use std::fmt;
use std::sync::Arc;

use crate::error::NameError;

/// A fully qualified hierarchical name such as `/university/public/people`.
///
/// `NodeName` is immutable and cheap to clone (`Arc<str>` internally). The
/// root of every namespace is the special name `/`.
///
/// Invariants enforced at construction:
/// - starts with `/`;
/// - no empty segments (so no `//` and no trailing `/`, except the root);
/// - no NUL bytes (reserved by the digest hashing layer).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeName(Arc<str>);

impl NodeName {
    /// The root name `/`.
    pub fn root() -> Self {
        NodeName(Arc::from("/"))
    }

    /// Parses and validates a name.
    ///
    /// ```
    /// use terradir_namespace::NodeName;
    /// let n = NodeName::parse("/university/public").unwrap();
    /// assert_eq!(n.depth(), 2);
    /// assert!(NodeName::parse("university").is_err());
    /// assert!(NodeName::parse("/a//b").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<Self, NameError> {
        if !s.starts_with('/') {
            return Err(NameError::NotAbsolute);
        }
        if s.contains('\0') {
            return Err(NameError::NulByte);
        }
        if s == "/" {
            return Ok(Self::root());
        }
        if s.ends_with('/') {
            return Err(NameError::EmptySegment);
        }
        for seg in s[1..].split('/') {
            if seg.is_empty() {
                return Err(NameError::EmptySegment);
            }
        }
        Ok(NodeName(Arc::from(s)))
    }

    /// Builds the name of a child of `self` with the given segment.
    pub fn child(&self, segment: &str) -> Result<Self, NameError> {
        if segment.is_empty() {
            return Err(NameError::EmptySegment);
        }
        if segment.contains('/') || segment.contains('\0') {
            return Err(NameError::NulByte);
        }
        let s = if self.is_root() {
            format!("/{segment}")
        } else {
            format!("{}/{segment}", self.0)
        };
        Ok(NodeName(Arc::from(s.as_str())))
    }

    /// Whether this is the root name `/`.
    #[inline]
    pub fn is_root(&self) -> bool {
        &*self.0 == "/"
    }

    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of segments; the root has depth 0.
    pub fn depth(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.0.bytes().filter(|&b| b == b'/').count()
        }
    }

    /// Iterator over the segments from the top down (empty for the root).
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        let body = if self.is_root() { "" } else { &self.0[1..] };
        body.split('/').filter(|s| !s.is_empty())
    }

    /// The parent name, or `None` for the root.
    ///
    /// ```
    /// use terradir_namespace::NodeName;
    /// let n = NodeName::parse("/a/b/c").unwrap();
    /// assert_eq!(n.parent().unwrap().as_str(), "/a/b");
    /// assert_eq!(NodeName::root().parent(), None);
    /// ```
    pub fn parent(&self) -> Option<Self> {
        if self.is_root() {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(Self::root()),
            Some(idx) => Some(NodeName(Arc::from(&self.0[..idx]))),
            None => None,
        }
    }

    /// All proper ancestor names from the parent up to and including the
    /// root, in bottom-up order.
    ///
    /// This is the *prefix extraction* primitive used by inverse-mapping
    /// digest shortcut discovery (paper §3.6.1).
    pub fn ancestors(&self) -> Vec<Self> {
        let mut out = Vec::with_capacity(self.depth());
        let mut cur = self.parent();
        while let Some(p) = cur {
            cur = p.parent();
            out.push(p);
        }
        out
    }

    /// Whether `self` is a (non-strict) prefix ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &NodeName) -> bool {
        if self.is_root() {
            return true;
        }
        if self == other {
            return true;
        }
        other.0.starts_with(&*self.0) && other.0.as_bytes().get(self.0.len()) == Some(&b'/')
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeName({})", self.0)
    }
}

impl std::str::FromStr for NodeName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

impl AsRef<str> for NodeName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let r = NodeName::root();
        assert!(r.is_root());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.parent(), None);
        assert_eq!(r.segments().count(), 0);
        assert!(r.ancestors().is_empty());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(NodeName::parse("abc"), Err(NameError::NotAbsolute));
        assert_eq!(NodeName::parse(""), Err(NameError::NotAbsolute));
        assert_eq!(NodeName::parse("/a//b"), Err(NameError::EmptySegment));
        assert_eq!(NodeName::parse("/a/"), Err(NameError::EmptySegment));
        assert_eq!(NodeName::parse("/a\0b"), Err(NameError::NulByte));
    }

    #[test]
    fn parse_accepts_root_and_paths() {
        assert!(NodeName::parse("/").unwrap().is_root());
        let n = NodeName::parse("/university/public/people").unwrap();
        assert_eq!(n.depth(), 3);
        let segs: Vec<_> = n.segments().collect();
        assert_eq!(segs, vec!["university", "public", "people"]);
    }

    #[test]
    fn child_builds_names() {
        let r = NodeName::root();
        let a = r.child("a").unwrap();
        assert_eq!(a.as_str(), "/a");
        let ab = a.child("b").unwrap();
        assert_eq!(ab.as_str(), "/a/b");
        assert!(a.child("").is_err());
        assert!(a.child("x/y").is_err());
    }

    #[test]
    fn parent_chain() {
        let n = NodeName::parse("/a/b/c").unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.as_str(), "/a/b");
        let gp = p.parent().unwrap();
        assert_eq!(gp.as_str(), "/a");
        let r = gp.parent().unwrap();
        assert!(r.is_root());
    }

    #[test]
    fn ancestors_bottom_up() {
        let n = NodeName::parse("/a/b/c").unwrap();
        let anc: Vec<String> = n
            .ancestors()
            .iter()
            .map(|a| a.as_str().to_string())
            .collect();
        assert_eq!(anc, vec!["/a/b", "/a", "/"]);
    }

    #[test]
    fn ancestry_predicate() {
        let a = NodeName::parse("/a").unwrap();
        let ab = NodeName::parse("/a/b").unwrap();
        let abc = NodeName::parse("/a/bc").unwrap();
        assert!(a.is_ancestor_of(&ab));
        assert!(NodeName::root().is_ancestor_of(&ab));
        assert!(ab.is_ancestor_of(&ab));
        // "/a/b" must not be treated as an ancestor of "/a/bc".
        assert!(!ab.is_ancestor_of(&abc));
        assert!(!ab.is_ancestor_of(&a));
    }
}
