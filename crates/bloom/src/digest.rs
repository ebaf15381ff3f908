//! Versioned inverse-mapping digests.
//!
//! A [`Digest`] is the unit TerraDir servers actually exchange: an immutable
//! snapshot of one server's hosted-name set as a Bloom filter, tagged with a
//! monotonically increasing *generation*. Receivers keep, per remote server,
//! only the freshest generation they have seen — replicas come and go, so a
//! server regenerates its digest whenever its hosted set changes (paper
//! §3.6: "each server generates a digest regarding its hosted nodes").

use std::sync::Arc;

use crate::bloom::{BloomFilter, BloomParams};

/// An immutable, shareable snapshot of a server's hosted-name set.
///
/// Digests are cheap to clone (`Arc` inside) because the same snapshot is
/// piggybacked onto many messages and retained by many peers.
#[derive(Debug, Clone)]
pub struct Digest {
    filter: Arc<BloomFilter>,
    generation: u64,
}

impl Digest {
    /// An empty digest at generation 0 (a server hosting nothing).
    pub fn empty(params: BloomParams) -> Digest {
        Digest {
            filter: Arc::new(BloomFilter::new(params)),
            generation: 0,
        }
    }

    /// Tests a node name against the digest. `false` is authoritative
    /// ("this server did not host that name when the digest was taken");
    /// `true` may be a false positive.
    #[inline]
    pub fn test(&self, name: &str) -> bool {
        self.filter.contains(name.as_bytes())
    }

    /// [`BloomFilter::contains_prefixes`] over `W` digests: bit `j` of lane
    /// `l` is set iff `digests[l]` tests positive for `name[..lens[j]]`.
    #[inline]
    pub fn test_prefixes<const W: usize>(
        digests: [&Digest; W],
        name: &str,
        lens: &[usize],
    ) -> [u64; W] {
        BloomFilter::contains_prefixes(digests.map(|d| d.filter.as_ref()), name.as_bytes(), lens)
    }

    /// The digest's generation; higher generations supersede lower ones.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of names baked into the snapshot.
    #[inline]
    pub fn items(&self) -> usize {
        self.filter.items()
    }

    /// Wire size of the digest in bytes.
    pub fn byte_size(&self) -> usize {
        self.filter.byte_size() + std::mem::size_of::<u64>()
    }

    /// Whether `other` is a strictly fresher snapshot of the same server.
    #[inline]
    pub fn is_superseded_by(&self, other: &Digest) -> bool {
        other.generation > self.generation
    }
}

/// Incrementally accumulates hosted names, then seals them into a [`Digest`].
///
/// ```
/// use terradir_bloom::{BloomParams, DigestBuilder};
/// let params = BloomParams::for_capacity(16, 0.01, 0);
/// let mut b = DigestBuilder::new(params);
/// b.add("/university/public");
/// b.add("/university/public/people");
/// let d = b.seal(3);
/// assert!(d.test("/university/public"));
/// assert!(!d.test("/university/private"));
/// assert_eq!(d.generation(), 3);
/// ```
#[derive(Debug)]
pub struct DigestBuilder {
    filter: BloomFilter,
}

impl DigestBuilder {
    /// Starts an empty builder with the given filter parameters.
    pub fn new(params: BloomParams) -> DigestBuilder {
        DigestBuilder {
            filter: BloomFilter::new(params),
        }
    }

    /// Adds one hosted name.
    pub fn add(&mut self, name: &str) {
        self.filter.insert(name.as_bytes());
    }

    /// Seals the builder into an immutable digest with the given generation.
    pub fn seal(self, generation: u64) -> Digest {
        Digest {
            filter: Arc::new(self.filter),
            generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BloomParams {
        BloomParams::for_capacity(64, 0.01, 99)
    }

    #[test]
    fn empty_digest_tests_false() {
        let d = Digest::empty(params());
        assert!(!d.test("/a"));
        assert_eq!(d.generation(), 0);
        assert_eq!(d.items(), 0);
    }

    #[test]
    fn builder_round_trip() {
        let mut b = DigestBuilder::new(params());
        for n in ["/a", "/a/b", "/c"] {
            b.add(n);
        }
        let d = b.seal(5);
        assert!(d.test("/a"));
        assert!(d.test("/a/b"));
        assert!(d.test("/c"));
        assert_eq!(d.items(), 3);
        assert_eq!(d.generation(), 5);
    }

    #[test]
    fn generations_order_supersession() {
        let old = Digest::empty(params());
        let mut b = DigestBuilder::new(params());
        b.add("/x");
        let new = b.seal(1);
        assert!(old.is_superseded_by(&new));
        assert!(!new.is_superseded_by(&old));
        // Same generation does not supersede.
        let same = Digest::empty(params());
        assert!(!old.is_superseded_by(&same));
    }

    #[test]
    fn clones_share_storage() {
        let mut b = DigestBuilder::new(params());
        b.add("/shared");
        let d1 = b.seal(1);
        let d2 = d1.clone();
        assert!(Arc::ptr_eq(&d1.filter, &d2.filter));
        assert!(d2.test("/shared"));
    }

    #[test]
    fn byte_size_includes_generation_tag() {
        let d = Digest::empty(params());
        assert!(d.byte_size() > 8);
    }
}
