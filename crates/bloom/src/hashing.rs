//! Self-contained 128-bit string hashing for digest membership tests.
//!
//! The digest layer needs a fast, stable, seedable hash of node-name bytes
//! producing two independent 64-bit values for double hashing. We implement
//! a variant of FNV-1a widened with a xxHash-style avalanche finalizer —
//! no external dependency, identical output on every platform and run,
//! which keeps simulations reproducible.

/// Two independent 64-bit hash values of the input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hash128 {
    /// First (base) hash value.
    pub h1: u64,
    /// Second (step) hash value used for double hashing.
    pub h2: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Final avalanche mix (from SplitMix64); decorrelates low/high bits.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The two FNV-1a lanes of [`hash128`] part-way through an input.
///
/// Splitting the hash into seed, byte update and finalisation lets a caller
/// that holds a name and its prefixes hash them all in one pass: FNV
/// consumes bytes left to right and the length enters only at
/// [`Lanes::finish`], so finishing at each prefix length yields that
/// prefix's [`hash128`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    /// The lanes before any byte is consumed.
    #[inline]
    pub fn seeded(seed: u64) -> Lanes {
        Lanes {
            a: FNV_OFFSET ^ mix64(seed),
            b: FNV_OFFSET ^ mix64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Consumes one byte.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ byte as u64)
            .wrapping_mul(FNV_PRIME)
            .rotate_left(29);
    }

    /// The hash of the `len` bytes consumed so far.
    #[inline]
    pub fn finish(self, len: usize) -> Hash128 {
        Hash128 {
            h1: mix64(self.a ^ (len as u64)),
            h2: mix64(self.b) | 1, // force odd so double-hash steps hit all slots
        }
    }
}

/// Hashes `bytes` with the given seed into two 64-bit values.
///
/// The two lanes run FNV-1a with different offsets; each is finished with
/// [`mix64`] so similar names (common in hierarchical namespaces, where
/// siblings share long prefixes) spread over the full bit range.
pub fn hash128(bytes: &[u8], seed: u64) -> Hash128 {
    let mut lanes = Lanes::seeded(seed);
    for &byte in bytes {
        lanes.push(byte);
    }
    lanes.finish(bytes.len())
}

/// The `i`-th double-hash index in `[0, m)` for a hashed item.
///
/// `g_i(x) = h1(x) + i·h2(x) mod m` (Kirsch–Mitzenmacher construction);
/// `h2` is forced odd by [`hash128`] so consecutive probes do not collapse
/// for power-of-two `m`.
#[inline]
pub fn index(h: Hash128, i: u32, m: u64) -> u64 {
    debug_assert!(m > 0);
    h.h1.wrapping_add((i as u64).wrapping_mul(h.h2)) % m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(bytes, seed, h1, h2)`: the empty name, a long name, and a T_S name
    /// under a server's digest seed (`0x7e55_a5ed ^ 1023`).
    const PINS: [(&[u8], u64, u64, u64); 3] = [
        (b"", 0, 0xf52a_15e9_a9b5_e89b, 0xaebe_53f8_5cdc_3c4d),
        (
            b"/university/public/people",
            42,
            0x62a4_e76a_bcbc_d92c,
            0x5258_7785_b1c8_1ff1,
        ),
        (
            b"/0/1/1/0",
            0x7e55_a5ed ^ 1023,
            0xb829_d864_0e80_9f5f,
            0x5502_035a_715a_3ab3,
        ),
    ];

    #[test]
    fn hash128_is_pinned() {
        // terrabench's provenance fingerprint is the first lane of this
        // hash, so its output must never drift.
        for (bytes, seed, h1, h2) in PINS {
            assert_eq!(hash128(bytes, seed), Hash128 { h1, h2 }, "{bytes:?}");
        }
    }

    #[test]
    fn lanes_finish_at_every_prefix() {
        let name = b"/u/p/people/students/Ann";
        let mut lanes = Lanes::seeded(11);
        assert_eq!(lanes.finish(0), hash128(b"", 11));
        for (i, &byte) in name.iter().enumerate() {
            lanes.push(byte);
            assert_eq!(lanes.finish(i + 1), hash128(&name[..=i], 11));
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let a = hash128(b"/university/public", 42);
        let b = hash128(b"/university/public", 42);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_output() {
        let a = hash128(b"/a/b", 1);
        let b = hash128(b"/a/b", 2);
        assert_ne!(a.h1, b.h1);
    }

    #[test]
    fn sibling_names_diverge() {
        // Hierarchical names share long prefixes; the hashes must not.
        let a = hash128(b"/u/p/people/students/Ann", 0);
        let b = hash128(b"/u/p/people/students/Amy", 0);
        assert_ne!(a.h1, b.h1);
        assert_ne!(a.h2, b.h2);
        // And differ in many bits, not just a few.
        assert!((a.h1 ^ b.h1).count_ones() > 16);
    }

    #[test]
    fn prefix_of_name_diverges() {
        let a = hash128(b"/a/b", 0);
        let b = hash128(b"/a/b/c", 0);
        assert_ne!(a.h1, b.h1);
    }

    #[test]
    fn h2_is_odd() {
        for s in 0..64 {
            let h = hash128(b"some-name", s);
            assert_eq!(h.h2 & 1, 1);
        }
    }

    #[test]
    fn indices_stay_in_range_and_vary() {
        let h = hash128(b"/x/y/z", 7);
        let m = 1021; // prime
        let idxs: Vec<u64> = (0..8).map(|i| index(h, i, m)).collect();
        assert!(idxs.iter().all(|&i| i < m));
        let distinct: std::collections::BTreeSet<_> = idxs.iter().collect();
        assert!(distinct.len() >= 6, "double hashing should rarely collide");
    }

    #[test]
    fn empty_input_is_valid() {
        let h = hash128(b"", 3);
        assert_eq!(h.h2 & 1, 1);
        let _ = index(h, 0, 64);
    }

    #[test]
    fn bit_distribution_is_roughly_uniform() {
        // Hash 4k distinct names into 64 buckets; every bucket should be
        // populated and no bucket should hold more than ~3x the mean.
        let mut buckets = [0u32; 64];
        for i in 0..4096 {
            let name = format!("/dir{}/file{}", i % 61, i);
            let h = hash128(name.as_bytes(), 0);
            buckets[(h.h1 % 64) as usize] += 1;
        }
        let mean = 4096 / 64;
        assert!(buckets.iter().all(|&c| c > 0));
        assert!(buckets.iter().all(|&c| c < 3 * mean));
    }
}
