//! A sorted-vector map for the per-agent query tables.
//!
//! An agent's tables hold a handful of rows (the mean LQT is 0.2–2 rows)
//! and most agents hold none, so the layout is chosen for the empty and
//! the tiny case: the handle is one boxed slice (16 bytes: pointer and
//! length, no capacity), an empty map owns no heap, a one-row map owns
//! exactly one row — the buffer always holds exactly the rows, so every
//! insert or removal resizes it — and iteration is a contiguous
//! ascending-key scan. Lookups are a binary search; a linear scan for
//! short tables was measured and did not beat it (DESIGN.md §12).

use std::mem::take;

/// Map from `K` to `V` kept as one key-sorted boxed slice of rows.
/// Method names and return values follow `BTreeMap`; iteration is
/// ascending by key.
#[derive(Debug)]
pub(crate) struct FlatMap<K, V> {
    rows: Box<[(K, V)]>,
}

const _: () = assert!(std::mem::size_of::<FlatMap<u32, u64>>() == 16);

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            rows: Box::default(),
        }
    }
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn search(&self, key: &K) -> Result<usize, usize> {
        self.rows.binary_search_by_key(key, |row| row.0)
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.rows[i].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|i| &mut self.rows[i].1)
    }

    /// The value under `key`, inserting `make()` first when absent
    /// (`BTreeMap::entry(..).or_insert_with(..)`).
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = self.search(&key).unwrap_or_else(|i| {
            self.insert_row(i, key, make());
            i
        });
        &mut self.rows[i].1
    }

    /// Inserts or replaces, returning the replaced value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.rows[i].1, value)),
            Err(i) => {
                self.insert_row(i, key, value);
                None
            }
        }
    }

    /// Runs `edit` on the rows as a `Vec` whose capacity is their count,
    /// then boxes them again: one reallocation when `edit` changed the
    /// count, none otherwise, and none at all for an empty result.
    fn edit<R>(&mut self, edit: impl FnOnce(&mut Vec<(K, V)>) -> R) -> R {
        let mut rows = take(&mut self.rows).into_vec();
        let out = edit(&mut rows);
        self.rows = rows.into_boxed_slice();
        out
    }

    /// Growth is exact: a one-row table is one row, not `Vec`'s four.
    fn insert_row(&mut self, at: usize, key: K, value: V) {
        self.edit(|rows| {
            rows.reserve_exact(1);
            rows.insert(at, (key, value));
        });
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.search(key).ok()?;
        Some(self.edit(|rows| rows.remove(i).1))
    }

    /// Keeps the rows `keep` accepts, visiting them in ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        if self.rows.is_empty() {
            return;
        }
        self.edit(|rows| rows.retain_mut(|(k, v)| keep(k, v)));
    }

    pub fn clear(&mut self) {
        self.rows = Box::default();
    }

    /// The first row's address (dangling when empty), for prefetching.
    pub fn as_ptr(&self) -> *const (K, V) {
        self.rows.as_ptr()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.rows.iter().map(|(k, v)| (k, v))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.rows.iter_mut().map(|(k, v)| (&*k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.rows.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|(_, v)| v)
    }

    /// Allocated row slots (tests: always the row count, zero whenever
    /// the map is empty).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        std::mem::size_of_val(&*self.rows) / std::mem::size_of::<(K, V)>().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::FlatMap;
    use std::collections::BTreeMap;

    /// Deterministic splitmix64 generator.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    fn assert_same(flat: &FlatMap<u32, u64>, oracle: &BTreeMap<u32, u64>, what: &str) {
        assert_eq!(flat.len(), oracle.len(), "{what}: len");
        assert_eq!(flat.is_empty(), oracle.is_empty(), "{what}: is_empty");
        assert!(
            flat.iter().eq(oracle.iter()),
            "{what}: ascending iteration differs"
        );
        assert!(flat.keys().eq(oracle.keys()), "{what}: keys");
        assert!(flat.values().eq(oracle.values()), "{what}: values");
        if flat.is_empty() {
            assert_eq!(flat.capacity(), 0, "{what}: an empty map holds a buffer");
        }
    }

    /// Seeded random op sequences against a `BTreeMap` oracle: same return
    /// values, same ascending iteration after every op, no buffer whenever
    /// empty. Key spaces of 4 and 24 keep the table in the handful-of-rows
    /// regime the agents live in; the third run starts from a pre-filled
    /// table of more than 256 rows.
    #[test]
    fn matches_btreemap_oracle_on_random_op_sequences() {
        let mut largest = 0;
        for (seed, key_space, prefill, ops) in
            [(1, 4, 0, 2_000), (2, 24, 0, 4_000), (3, 400, 800, 4_000)]
        {
            let mut rng = Rng(seed);
            let mut flat: FlatMap<u32, u64> = FlatMap::default();
            let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
            for step in 0..prefill + ops {
                let key = rng.below(key_space) as u32;
                let value = rng.next_u64();
                let what = match if step < prefill { 0 } else { rng.below(16) } {
                    0..=6 => {
                        assert_eq!(flat.insert(key, value), oracle.insert(key, value));
                        "insert"
                    }
                    7..=9 => {
                        assert_eq!(flat.remove(&key), oracle.remove(&key));
                        "remove"
                    }
                    10..=11 => {
                        assert_eq!(flat.get(&key), oracle.get(&key));
                        if let Some(v) = flat.get_mut(&key) {
                            *v = value;
                        }
                        if let Some(v) = oracle.get_mut(&key) {
                            *v = value;
                        }
                        "get_mut"
                    }
                    12 => {
                        let got = *flat.get_or_insert_with(key, || value);
                        assert_eq!(got, *oracle.entry(key).or_insert(value));
                        "get_or_insert_with"
                    }
                    13 => {
                        for (k, v) in flat.iter_mut() {
                            *v = v.wrapping_add(*k as u64);
                        }
                        for (k, v) in oracle.iter_mut() {
                            *v = v.wrapping_add(*k as u64);
                        }
                        "iter_mut"
                    }
                    14 => {
                        // Drops about a quarter of the rows, mutating the
                        // survivors, and records the visiting order.
                        let (mut seen_flat, mut seen_oracle) = (Vec::new(), Vec::new());
                        flat.retain(|k, v| {
                            seen_flat.push(*k);
                            *v ^= 1;
                            (*k as u64 ^ value) & 3 != 0
                        });
                        oracle.retain(|k, v| {
                            seen_oracle.push(*k);
                            *v ^= 1;
                            (*k as u64 ^ value) & 3 != 0
                        });
                        assert_eq!(seen_flat, seen_oracle, "retain visits ascending");
                        "retain"
                    }
                    _ => {
                        if rng.below(64) == 0 {
                            flat.clear();
                            oracle.clear();
                        }
                        "clear"
                    }
                };
                assert_same(&flat, &oracle, &format!("seed {seed} step {step} {what}"));
                largest = largest.max(flat.len());
            }
        }
        assert!(largest >= 256, "largest table reached {largest} rows");
    }

    #[test]
    fn growth_is_exact_and_an_emptied_map_releases_its_buffer() {
        let mut flat: FlatMap<u32, [u64; 14]> = FlatMap::default();
        assert_eq!(flat.capacity(), 0);
        flat.retain(|_, _| unreachable!("empty map has no rows to visit"));
        flat.insert(7, [0; 14]);
        assert_eq!(flat.capacity(), 1, "one row must not allocate four");
        flat.insert(3, [1; 14]);
        assert_eq!(flat.capacity(), 2);
        assert_eq!(flat.remove(&7), Some([0; 14]));
        flat.retain(|_, _| false);
        assert_eq!((flat.len(), flat.capacity()), (0, 0));
    }
}
