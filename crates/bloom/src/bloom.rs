//! The Bloom filter bit array.

use crate::hashing::{hash128, index, Hash128, Lanes};

/// Sizing parameters of a Bloom filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BloomParams {
    /// Number of bits in the filter.
    pub bits: u64,
    /// Number of hash probes per item.
    pub k: u32,
    /// Hash seed; digests with different seeds are incompatible.
    pub seed: u64,
}

impl BloomParams {
    /// Computes optimal parameters for an expected `capacity` items at a
    /// target false-positive rate `fpr`.
    ///
    /// Uses the classic formulas `m = −n·ln p / (ln 2)²` and
    /// `k = (m/n)·ln 2`, clamped to at least 64 bits and one probe.
    ///
    /// ```
    /// use terradir_bloom::BloomParams;
    /// let p = BloomParams::for_capacity(1000, 0.01, 0);
    /// assert!(p.bits >= 9000 && p.bits <= 10200);
    /// assert!(p.k >= 6 && p.k <= 8);
    /// ```
    pub fn for_capacity(capacity: usize, fpr: f64, seed: u64) -> BloomParams {
        assert!(fpr > 0.0 && fpr < 1.0, "fpr must be in (0, 1)");
        let n = capacity.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let bits = (-n * fpr.ln() / (ln2 * ln2)).ceil().max(64.0) as u64;
        let k = ((bits as f64 / n) * ln2).round().max(1.0) as u32;
        BloomParams { bits, k, seed }
    }

    /// The predicted false-positive rate once `n` items are inserted:
    /// `(1 − e^{−kn/m})^k`.
    pub fn predicted_fpr(&self, n: usize) -> f64 {
        let exponent = -(self.k as f64) * (n as f64) / (self.bits as f64);
        (1.0 - exponent.exp()).powi(self.k as i32)
    }
}

/// A Bloom filter over byte strings (node names).
///
/// Membership tests have one-sided error: [`BloomFilter::contains`] may
/// return `true` for an item never inserted (false positive), but never
/// `false` for an inserted item. That asymmetry is what makes digest-based
/// map pruning *conservative* (paper §3.6.2): a failed test proves the
/// server does not host the node, so the map entry can be dropped safely.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    params: BloomParams,
    /// The hash lanes seeded with `params.seed`, computed once.
    seeded: Lanes,
    words: Box<[u64]>,
    items: usize,
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters.
    pub fn new(params: BloomParams) -> BloomFilter {
        assert!(params.bits >= 1, "filter needs at least one bit");
        assert!(params.k >= 1, "filter needs at least one probe");
        // xtask: allow(alloc): the bit array is built once, at construction
        let words = vec![0u64; params.bits.div_ceil(64) as usize].into_boxed_slice();
        BloomFilter {
            params,
            seeded: Lanes::seeded(params.seed),
            words,
            items: 0,
        }
    }

    /// Convenience constructor sized for `capacity` items at rate `fpr`.
    pub fn with_capacity(capacity: usize, fpr: f64, seed: u64) -> BloomFilter {
        Self::new(BloomParams::for_capacity(capacity, fpr, seed))
    }

    /// The filter's sizing parameters.
    #[inline]
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of items inserted so far.
    #[inline]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Whether no item has been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    // Probe indices are always `< params.bits` (reduced in `index`), so the
    // word lookup cannot miss; the checked access keeps the hot path
    // panic-free regardless.
    #[inline]
    fn set_bit(&mut self, bit: u64) {
        if let Some(word) = self.words.get_mut((bit / 64) as usize) {
            *word |= 1u64 << (bit % 64);
        }
    }

    #[inline]
    fn get_bit(&self, bit: u64) -> bool {
        self.words
            .get((bit / 64) as usize)
            .is_some_and(|word| word & (1u64 << (bit % 64)) != 0)
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: &[u8]) {
        let h = hash128(item, self.params.seed);
        for i in 0..self.params.k {
            self.set_bit(index(h, i, self.params.bits));
        }
        self.items += 1;
    }

    /// Tests membership: `false` means *definitely not present*, `true`
    /// means *probably present*.
    pub fn contains(&self, item: &[u8]) -> bool {
        let [mask] = Self::contains_prefixes([self], item, &[item.len()]);
        mask & 1 != 0
    }

    /// Tests several prefixes of `item` against `W` filters in one pass
    /// over its bytes: bit `j` of lane `l` is set iff `filters[l]` contains
    /// `item[..lens[j]]`.
    ///
    /// `lens` is non-increasing, at most 64 long, and bounded by
    /// `item.len()`. The hash consumes bytes left to right and takes the
    /// length only when it finishes, so the lanes run once up to the
    /// longest prefix and finish at each shorter one on the way. The `W`
    /// filters' lanes are independent multiply chains; advancing them
    /// together per byte overlaps their latencies.
    ///
    /// ```
    /// use terradir_bloom::BloomFilter;
    /// let mut f = BloomFilter::with_capacity(16, 0.01, 3);
    /// f.insert(b"/a/b");
    /// let [mask] = BloomFilter::contains_prefixes([&f], b"/a/b/c", &[6, 4, 2]);
    /// assert_eq!(mask & 0b010, 0b010); // "/a/b" is present
    /// ```
    pub fn contains_prefixes<const W: usize>(
        filters: [&BloomFilter; W],
        item: &[u8],
        lens: &[usize],
    ) -> [u64; W] {
        debug_assert!(lens.len() <= 64, "one mask bit per prefix");
        debug_assert!(
            lens.windows(2).all(|w| matches!(w, [a, b] if a >= b)),
            "prefix lengths must be non-increasing"
        );
        debug_assert!(lens.iter().all(|&len| len <= item.len()));
        let mut lanes = filters.map(|f| f.seeded);
        let mut masks = [0u64; W];
        let mut hashed = 0;
        // Shortest prefix first: each one resumes where the last stopped.
        for (j, &len) in lens.iter().enumerate().rev() {
            for &byte in item.get(hashed..len).unwrap_or_default() {
                for lane in &mut lanes {
                    lane.push(byte);
                }
            }
            hashed = len;
            for ((mask, lane), filter) in masks.iter_mut().zip(lanes).zip(filters) {
                if filter.probe(lane.finish(len)) {
                    *mask |= 1 << j;
                }
            }
        }
        masks
    }

    /// Whether all `k` double-hash probes of `h` land on set bits.
    #[inline]
    fn probe(&self, h: Hash128) -> bool {
        (0..self.params.k).all(|i| self.get_bit(index(h, i, self.params.bits)))
    }

    /// Fraction of bits set — a saturation measure (0.5 at the design
    /// capacity for optimally sized filters).
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.params.bits as f64
    }

    /// Size of the bit array in bytes (what a digest costs on the wire).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
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
    use proptest::prelude::*;

    /// Membership as computed before the prefix kernel: one full
    /// [`hash128`] per item.
    fn contains_reference(f: &BloomFilter, item: &[u8]) -> bool {
        let h = hash128(item, f.params.seed);
        (0..f.params.k).all(|i| f.get_bit(index(h, i, f.params.bits)))
    }

    /// A small filter holding some prefixes of `item` and some random
    /// names, so both hits and (false-positive-prone) misses occur.
    fn filter_for(
        item: &[u8],
        cuts: &[usize],
        noise: &[Vec<u8>],
        bits: u64,
        seed: u64,
    ) -> BloomFilter {
        let mut f = BloomFilter::new(BloomParams { bits, k: 3, seed });
        for &c in cuts {
            f.insert(&item[..c % (item.len() + 1)]);
        }
        for n in noise {
            f.insert(n);
        }
        f
    }

    /// Non-increasing prefix lengths of `item`: the full length, 0, the
    /// inserted cuts and the random picks, deduplicated.
    fn prefix_lens(item: &[u8], cuts: &[usize], picks: &[usize]) -> Vec<usize> {
        let mut lens: Vec<usize> = cuts
            .iter()
            .chain(picks)
            .map(|&p| p % (item.len() + 1))
            .collect();
        lens.extend([0, item.len()]);
        lens.sort_unstable_by(|a, b| b.cmp(a));
        lens.dedup();
        lens
    }

    #[test]
    fn sixty_four_prefixes_fill_the_mask() {
        // Every prefix of a 63-byte name, the root-like empty one included:
        // one bit per prefix, bit 63 for the empty prefix.
        let item: Vec<u8> = (0..63u8).map(|b| b'a' + b % 26).collect();
        let lens: Vec<usize> = (0..=63).rev().collect();
        let mut f = BloomFilter::new(BloomParams {
            bits: 4096,
            k: 4,
            seed: 5,
        });
        for len in (0..=63).step_by(3) {
            f.insert(&item[..len]);
        }
        let [mask] = BloomFilter::contains_prefixes([&f], &item, &lens);
        for (j, &len) in lens.iter().enumerate() {
            assert_eq!(mask >> j & 1 == 1, contains_reference(&f, &item[..len]));
        }
        assert_eq!(mask >> 63, 1, "the empty prefix was inserted");
    }

    proptest! {
        #[test]
        fn prefix_bits_match_per_prefix_tests(
            item in proptest::collection::vec(0u8..=255, 0..80),
            picks in proptest::collection::vec(0usize..1000, 0..56),
            cuts in proptest::collection::vec(0usize..1000, 0..6),
            noise in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..12), 0..20),
            bits in 64u64..512,
            seed in 0u64..=u64::MAX,
        ) {
            let f = filter_for(&item, &cuts, &noise, bits, seed);
            let lens = prefix_lens(&item, &cuts, &picks);
            let [mask] = BloomFilter::contains_prefixes([&f], &item, &lens);
            for (j, &len) in lens.iter().enumerate() {
                let expected = contains_reference(&f, &item[..len]);
                prop_assert_eq!(mask >> j & 1 == 1, expected, "prefix {} of {:?}", len, item);
                prop_assert_eq!(f.contains(&item[..len]), expected);
            }
            prop_assert_eq!(mask >> lens.len(), 0, "no bit past the last prefix");
        }

        #[test]
        fn four_lanes_match_four_single_calls(
            item in proptest::collection::vec(0u8..=255, 0..40),
            picks in proptest::collection::vec(0usize..1000, 0..10),
            cuts in proptest::collection::vec(0usize..1000, 0..4),
            seeds in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            bits in 64u64..256,
        ) {
            let fs = [seeds.0, seeds.1, seeds.2, seeds.3].map(|s| filter_for(&item, &cuts, &[], bits, s));
            let lens = prefix_lens(&item, &cuts, &picks);
            let together = BloomFilter::contains_prefixes([&fs[0], &fs[1], &fs[2], &fs[3]], &item, &lens);
            let alone = fs.each_ref().map(|f| BloomFilter::contains_prefixes([f], &item, &lens)[0]);
            prop_assert_eq!(together, alone);
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(100, 0.01, 7);
        let names: Vec<String> = (0..100).map(|i| format!("/srv/n{i}")).collect();
        for n in &names {
            f.insert(n.as_bytes());
        }
        for n in &names {
            assert!(f.contains(n.as_bytes()), "false negative for {n}");
        }
        assert_eq!(f.items(), 100);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_capacity(10, 0.01, 0);
        assert!(f.is_empty());
        assert!(!f.contains(b"/anything"));
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn fpr_near_design_target() {
        let cap = 2000;
        let mut f = BloomFilter::with_capacity(cap, 0.01, 123);
        for i in 0..cap {
            f.insert(format!("/present/{i}").as_bytes());
        }
        let trials = 20_000;
        let fp = (0..trials)
            .filter(|i| f.contains(format!("/absent/{i}").as_bytes()))
            .count();
        let rate = fp as f64 / trials as f64;
        assert!(
            rate < 0.03,
            "observed FPR {rate} way above 1% design target"
        );
    }

    #[test]
    fn predicted_fpr_monotonic_in_load() {
        let p = BloomParams::for_capacity(1000, 0.01, 0);
        assert!(p.predicted_fpr(100) < p.predicted_fpr(1000));
        assert!(p.predicted_fpr(1000) < p.predicted_fpr(5000));
    }

    #[test]
    fn fill_ratio_about_half_at_capacity() {
        let cap = 1000;
        let mut f = BloomFilter::with_capacity(cap, 0.01, 5);
        for i in 0..cap {
            f.insert(format!("/n/{i}").as_bytes());
        }
        let r = f.fill_ratio();
        assert!((0.4..0.6).contains(&r), "fill ratio {r} not near 0.5");
    }

    #[test]
    fn different_seeds_give_different_filters() {
        let mut a = BloomFilter::with_capacity(10, 0.01, 1);
        let mut b = BloomFilter::with_capacity(10, 0.01, 2);
        a.insert(b"/x");
        b.insert(b"/x");
        assert_ne!(a.words, b.words);
    }

    #[test]
    fn tiny_filters_are_legal() {
        let mut f = BloomFilter::new(BloomParams {
            bits: 64,
            k: 1,
            seed: 0,
        });
        f.insert(b"/a");
        assert!(f.contains(b"/a"));
        assert_eq!(f.byte_size(), 8);
    }

    #[test]
    #[should_panic(expected = "fpr must be in (0, 1)")]
    fn rejects_invalid_fpr() {
        BloomParams::for_capacity(10, 0.0, 0);
    }
}
