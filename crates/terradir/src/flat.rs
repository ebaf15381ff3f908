//! A small sorted-array map for per-server tables whose order no output
//! reads.
//!
//! A server keeps one context map per topological neighbor of every node
//! it hosts (hundreds on the Coda-like T_C tree) and up to
//! [`crate::config::KNOWN_LOAD_SLOTS`] profiled peer loads. In a hash
//! table each entry pays a bucket, a control byte and the load-factor
//! slack, and every lookup a hash. [`FlatMap`] keeps the keys sorted in
//! one `Vec` and the values in a parallel `Vec`: a lookup is a binary
//! search over packed keys, and iteration goes in key order, a function
//! of the contents alone (DESIGN.md §16.4).

/// A map from `K` to `V` stored as a sorted key `Vec` and a parallel
/// value `Vec` (`values[i]` belongs to `keys[i]`). Inserts and removals
/// shift the tail, which suits tables of a few hundred entries that are
/// read far more often than they change.
#[derive(Debug, Clone)]
pub(crate) struct FlatMap<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> FlatMap<K, V> {
        FlatMap {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    /// `Ok(slot)` of `key`, or `Err(slot)` where it would go.
    #[inline]
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.keys.binary_search(key)
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether `key` has an entry.
    #[inline]
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// The value of `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().and_then(|i| self.values.get(i))
    }

    /// The value of `key`, if any, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().and_then(|i| self.values.get_mut(i))
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => self
                .values
                .get_mut(i)
                .map(|slot| std::mem::replace(slot, value)),
            Err(i) => {
                self.keys.insert(i, key);
                self.values.insert(i, value);
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        self.keys.remove(i);
        Some(self.values.remove(i))
    }

    /// The value of `key`, inserting `make()` first if it has none.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, key);
                self.values.insert(i, make());
                i
            }
        };
        match self.values.get_mut(i) {
            Some(v) => v,
            None => unreachable!("keys and values have equal lengths"),
        }
    }

    /// Drops every entry, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
    }

    /// The keys, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.keys.iter()
    }

    /// `(key, value)` pairs in key order.
    pub(crate) fn iter(&self) -> std::iter::Zip<std::slice::Iter<'_, K>, std::slice::Iter<'_, V>> {
        self.keys.iter().zip(self.values.iter())
    }

    /// `(key, value)` pairs in key order, values mutably.
    pub(crate) fn iter_mut(
        &mut self,
    ) -> std::iter::Zip<std::slice::Iter<'_, K>, std::slice::IterMut<'_, V>> {
        self.keys.iter().zip(self.values.iter_mut())
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a FlatMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a mut FlatMap<K, V> {
    type Item = (&'a K, &'a mut V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, K>, std::slice::IterMut<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::DetHashMap;
    use crate::map::NodeMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use terradir_namespace::{NodeId, ServerId};

    fn sorted(m: &DetHashMap<u32, u64>) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        v.sort_unstable();
        v
    }

    fn rows(m: &FlatMap<u32, u64>) -> Vec<(u32, u64)> {
        m.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Random operation sequences give the same return values and the
    /// same contents as a hash map, and the keys stay strictly sorted.
    #[test]
    fn flat_map_matches_a_hash_map() {
        let mut ops = StdRng::seed_from_u64(27);
        for _ in 0..40 {
            let span = ops.gen_range(1..300u32);
            let (mut flat, mut hash) = (FlatMap::default(), DetHashMap::default());
            for step in 0..800 {
                let k = ops.gen_range(0..span);
                let v = ops.gen::<u64>();
                match ops.gen_range(0..8) {
                    0..=2 => assert_eq!(flat.insert(k, v), hash.insert(k, v), "step {step}"),
                    3 => assert_eq!(flat.remove(&k), hash.remove(&k), "step {step}"),
                    4 => {
                        let a = *flat.get_or_insert_with(k, || v);
                        let b = *hash.entry(k).or_insert_with(|| v);
                        assert_eq!(a, b, "step {step}");
                    }
                    5 => {
                        if let Some(x) = flat.get_mut(&k) {
                            *x ^= v;
                        }
                        if let Some(x) = hash.get_mut(&k) {
                            *x ^= v;
                        }
                    }
                    6 => {
                        for (_, x) in &mut flat {
                            *x = x.wrapping_add(1);
                        }
                        for x in hash.values_mut() {
                            *x = x.wrapping_add(1);
                        }
                    }
                    _ => {
                        if ops.gen_range(0..40) == 0 {
                            flat.clear();
                            hash.clear();
                        }
                    }
                }
                assert_eq!(flat.get(&k), hash.get(&k), "step {step}");
                assert_eq!(flat.contains_key(&k), hash.contains_key(&k));
                assert_eq!(flat.len(), hash.len());
                assert_eq!(rows(&flat), sorted(&hash), "step {step}");
                assert!(flat.keys().zip(flat.keys().skip(1)).all(|(a, b)| a < b));
            }
        }
    }

    fn context_rows<'a>(
        entries: impl Iterator<Item = (&'a NodeId, &'a NodeMap)>,
    ) -> Vec<(NodeId, NodeMap)> {
        let mut v: Vec<_> = entries.map(|(&n, &m)| (n, m)).collect();
        v.sort_by_key(|r| r.0);
        v
    }

    /// The context table the flat one replaced: a `DetHashMap`, driven
    /// through the same operations the production sites perform.
    type HashContext = DetHashMap<NodeId, NodeMap>;

    /// Random sequences of the context table's production operations —
    /// bootstrap, replica-install merges (which draw RNG), negative
    /// caching, digest purges and replica removal — give the same
    /// entries and RNG draws on the flat table as on the hash-backed
    /// reference.
    #[test]
    fn context_table_matches_the_hash_reference() {
        let mut ops = StdRng::seed_from_u64(2704);
        let r_map = 5;
        for round in 0..30 {
            let mut flat: FlatMap<NodeId, NodeMap> = FlatMap::default();
            let mut hash = HashContext::default();
            let (mut rng_a, mut rng_b) =
                (StdRng::seed_from_u64(round), StdRng::seed_from_u64(round));
            let span = ops.gen_range(8..400u32);
            for step in 0..300 {
                let map = NodeMap::from_entries(
                    (0..ops.gen_range(1..8)).map(|_| ServerId(ops.gen_range(0..12))),
                );
                let nodes: Vec<NodeId> = (0..ops.gen_range(1..40))
                    .map(|_| NodeId(ops.gen_range(0..span)))
                    .collect();
                let host = ServerId(ops.gen_range(0..12));
                match ops.gen_range(0..6) {
                    0 => {
                        for &n in &nodes {
                            flat.get_or_insert_with(n, || map);
                            hash.entry(n).or_insert_with(|| map);
                        }
                    }
                    1 | 2 => {
                        let mut truncated = map;
                        truncated.truncate(r_map);
                        for &n in &nodes {
                            if let Some(mine) = flat.get_mut(&n) {
                                *mine = mine.merge(&map, r_map, &mut rng_a);
                            } else {
                                flat.insert(n, truncated);
                            }
                            if let Some(mine) = hash.get_mut(&n) {
                                *mine = mine.merge(&map, r_map, &mut rng_b);
                            } else {
                                hash.insert(n, truncated);
                            }
                        }
                    }
                    3 | 4 => {
                        // Negative caching (every node) or a digest
                        // disclaiming the odd node ids.
                        let odd_only = ops.gen_bool(0.5);
                        for (&n, m) in &mut flat {
                            if m.contains(host) && (!odd_only || n.0 % 2 == 1) {
                                m.remove(host, false);
                            }
                        }
                        for (&n, m) in &mut hash {
                            if m.contains(host) && (!odd_only || n.0 % 2 == 1) {
                                m.remove(host, false);
                            }
                        }
                    }
                    _ => {
                        for n in &nodes {
                            assert_eq!(flat.remove(n), hash.remove(n), "step {step}");
                        }
                    }
                }
                assert_eq!(
                    context_rows(flat.iter()),
                    context_rows(hash.iter()),
                    "step {step}"
                );
                for n in &nodes {
                    assert_eq!(flat.get(n), hash.get(n));
                    assert_eq!(flat.contains_key(n), hash.contains_key(n));
                }
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "step {step}");
            }
        }
    }

    #[test]
    fn iteration_goes_in_key_order() {
        let mut m = FlatMap::default();
        for k in [5u32, 1, 9, 3] {
            m.insert(k, u64::from(k) * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [1, 3, 5, 9]);
        for (_, v) in &mut m {
            *v += 1;
        }
        let pairs: Vec<(u32, u64)> = (&m).into_iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs, [(1, 11), (3, 31), (5, 51), (9, 91)]);
    }
}
