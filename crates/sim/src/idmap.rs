//! A deterministic flat hash map for word-sized ids.
//!
//! The replica, the certifier, Skeen's engine and the kernel look up
//! transactions, messages, keys and timers by id on every message, and
//! none of those lookups uses key order. A B-tree pays a search down its
//! nodes for each; [`IdMap`] pays one multiply and, at load ≤ 1/2, about
//! one probe.
//!
//! Layout (the store's `KeyIndex` layout, with the entries beside it):
//! entries live densely in a `Vec<(K, V)>`, and an open-addressing index
//! of power-of-two size holds `position + 1` per slot (`0` = empty), probed
//! linearly from the slot the top bits of the key's hash select.
//!
//! Determinism: the hash is fixed — the key's `Hash` words folded by
//! multiply and rotate, no `RandomState` — so the layout is a pure function
//! of the operations applied. Nothing public iterates in storage order: a
//! walk goes through [`IdMap::sorted_keys`], the order a `BTreeMap` gives.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// Fibonacci multiplier (golden-ratio fraction of 2⁶⁴), as in the store's
/// `KeyIndex`: spreads dense integer ids uniformly over the top bits.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Log2 of the index size at the first insert (8 slots, 4 entries).
const FIRST_LOG2: u32 = 3;

/// Folds the words a key's `Hash` writes into one `u64`. A lone word `w`
/// hashes to `w * FIB`, the store's `KeyIndex` hash.
struct IdHasher(u64);

impl Hasher for IdHasher {
    /// Any other integer arrives as its bytes, folded 8 at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FIB);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash<K: Hash>(key: &K) -> u64 {
    let mut h = IdHasher(0);
    key.hash(&mut h);
    h.finish()
}

/// A map from word-sized ids to values, for point lookups only.
///
/// `IdMap::new()` allocates nothing; the index is created by the first
/// insert. Removal is a backward-shift delete in the index and a
/// `swap_remove` in the entries, so no tombstones accumulate.
#[derive(Clone)]
pub struct IdMap<K, V> {
    entries: Vec<(K, V)>,
    /// `position + 1` into `entries` per slot, `0` = empty; empty or a
    /// power of two at least twice `entries.len()`.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the multiply-shift slot extractor.
    shift: u32,
}

impl<K, V> IdMap<K, V> {
    /// An empty map, holding no allocation.
    pub const fn new() -> Self {
        IdMap {
            entries: Vec::new(),
            index: Vec::new(),
            shift: 64,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry, keeping the allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.fill(0);
    }
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> IdMap<K, V> {
    /// The slot `key`'s probe chain starts at; the index must be non-empty.
    fn home(&self, key: &K) -> usize {
        (hash(key) >> self.shift) as usize
    }

    /// `key`'s slot and entry position, or the empty slot ending its chain.
    fn probe(&self, key: &K) -> Result<(usize, usize), usize> {
        let mask = self.index.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.index[i] {
                0 => return Err(i),
                s => {
                    let pos = (s - 1) as usize;
                    if self.entries[pos].0 == *key {
                        return Ok((i, pos));
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn find(&self, key: &K) -> Option<(usize, usize)> {
        if self.index.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|(_, pos)| &self.entries[pos].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).map(|(_, pos)| &mut self.entries[pos].1)
    }

    /// True if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `value` under `key`; returns the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some((_, pos)) = self.find(&key) {
            return Some(std::mem::replace(&mut self.entries[pos].1, value));
        }
        self.push(key, value);
        None
    }

    /// The value under `key`, inserting `f()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &mut V {
        let pos = match self.find(&key) {
            Some((_, pos)) => pos,
            None => self.push(key, f()),
        };
        &mut self.entries[pos].1
    }

    /// Appends an entry for an absent `key`; returns its position.
    fn push(&mut self, key: K, value: V) -> usize {
        // Keep load ≤ 1/2 so probe chains stay short.
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let slot = self.probe(&key).expect_err("the caller checked absence");
        let pos = self.entries.len();
        self.index[slot] = u32::try_from(pos + 1).expect("an IdMap holds < 2³² entries");
        self.entries.push((key, value));
        pos
    }

    /// Doubles the index (or creates it) and re-places every entry.
    fn grow(&mut self) {
        let log2 = if self.index.is_empty() {
            FIRST_LOG2
        } else {
            self.index.len().trailing_zeros() + 1
        };
        self.index = vec![0; 1 << log2];
        self.shift = 64 - log2;
        for pos in 0..self.entries.len() {
            let slot = self
                .probe(&self.entries[pos].0)
                .expect_err("re-placing, the key is absent");
            self.index[slot] = pos as u32 + 1;
        }
    }

    /// Removes `key`'s entry; returns its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (slot, pos) = self.find(key)?;
        // Backward-shift delete: walk the chain after the hole and pull
        // back each entry whose home does not lie between the hole and it.
        let mask = self.index.len() - 1;
        let (mut hole, mut j) = (slot, slot);
        loop {
            j = (j + 1) & mask;
            let s = self.index[j];
            if s == 0 {
                break;
            }
            let home = self.home(&self.entries[(s - 1) as usize].0);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                hole = j;
            }
        }
        self.index[hole] = 0;
        let last = self.entries.len() - 1;
        let (_, value) = self.entries.swap_remove(pos);
        if pos != last {
            // The last entry moved to `pos`: re-point its slot.
            let mut i = self.home(&self.entries[pos].0);
            while self.index[i] as usize != last + 1 {
                i = (i + 1) & mask;
            }
            self.index[i] = pos as u32 + 1;
        }
        Some(value)
    }
}

impl<K: Ord + Copy, V> IdMap<K, V> {
    /// Every key, ascending — the order a `BTreeMap` walks. The only way to
    /// walk the map.
    pub fn sorted_keys(&self) -> Vec<K> {
        let mut keys: Vec<K> = self.entries.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys
    }
}

impl<K: Hash + Eq, V> Index<&K> for IdMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry for the key in IdMap")
    }
}

/// Entries in key order, as a `BTreeMap` prints them.
impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<&(K, V)> = self.entries.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        f.debug_map()
            .entries(entries.into_iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    use super::*;

    /// SplitMix64: a seeded operation stream without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn agree<K: Hash + Ord + Copy + Debug>(
        map: &IdMap<K, u64>,
        reference: &BTreeMap<K, u64>,
        universe: &[K],
    ) {
        assert_eq!(map.len(), reference.len());
        assert_eq!(map.is_empty(), reference.is_empty());
        for k in universe {
            assert_eq!(map.get(k), reference.get(k), "get({k:?})");
            assert_eq!(map.contains_key(k), reference.contains_key(k));
        }
        let keys: Vec<K> = reference.keys().copied().collect();
        assert_eq!(map.sorted_keys(), keys);
        assert!(map.index.is_empty() || map.index.len() >= 2 * map.len());
    }

    /// One seeded sequence of inserts, overwrites, removes,
    /// `get_or_insert_with`s and rare clears over `universe`, checked
    /// against a `BTreeMap` after every step.
    fn differential<K: Hash + Ord + Copy + Debug>(seed: u64, universe: &[K], steps: usize) {
        let mut rng = Rng(seed);
        let mut map: IdMap<K, u64> = IdMap::new();
        let mut reference: BTreeMap<K, u64> = BTreeMap::new();
        let mut peak = 0;
        for step in 0..steps {
            let k = universe[rng.below(universe.len() as u64) as usize];
            let v = rng.next();
            // A phase that mostly inserts, then one that mostly removes, so
            // the map grows across several doublings and drains again.
            let filling = (step / (steps / 4)).is_multiple_of(2);
            if step % 1_300 == 1_299 {
                map.clear();
                reference.clear();
            }
            match rng.below(100) {
                r if r < if filling { 55 } else { 20 } => {
                    assert_eq!(map.insert(k, v), reference.insert(k, v));
                }
                r if r < if filling { 75 } else { 30 } => {
                    let got = *map.get_or_insert_with(k, || v);
                    assert_eq!(got, *reference.entry(k).or_insert(v));
                    *map.get_mut(&k).expect("just inserted") += 1;
                    *reference.get_mut(&k).expect("just inserted") += 1;
                }
                _ => assert_eq!(map.remove(&k), reference.remove(&k)),
            }
            peak = peak.max(map.len());
            agree(&map, &reference, universe);
        }
        assert!(peak >= 64, "the sequence grew past several doublings");
    }

    #[test]
    fn matches_a_btreemap_on_random_operations() {
        let words: Vec<u64> = (0..300).collect();
        differential(11, &words, 4_000);
        // Transaction-id shaped words: a coordinator in the high bits.
        let ids: Vec<u64> = (0..300)
            .map(|i| (i % 7) << 40 | (i / 7) << 20 | i)
            .collect();
        differential(23, &ids, 4_000);
        // Two-word keys, as Skeen's message ids hash.
        let pairs: Vec<(u32, u64)> = (0..300).map(|i| ((i % 5) as u32, i / 5)).collect();
        differential(7, &pairs, 4_000);
    }

    /// Keys whose chain starts in the index's last slot, at `log2`.
    fn homed_last(log2: u32, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|k| hash(k) >> (64 - log2) == (1 << log2) - 1)
            .take(n)
            .collect()
    }

    #[test]
    fn a_chain_that_wraps_the_end_of_the_index_survives_removal_from_its_middle() {
        for victim in 0..4 {
            // Four keys at the first size (8 slots) fill slots 7, 0, 1, 2.
            let keys = homed_last(FIRST_LOG2, 4);
            let mut map = IdMap::new();
            let mut reference = BTreeMap::new();
            for (v, &k) in keys.iter().enumerate() {
                map.insert(k, v as u64);
                reference.insert(k, v as u64);
            }
            assert_eq!(map.index.len(), 1 << FIRST_LOG2, "no growth yet");
            assert_eq!(map.index[7], 1, "the first key sits in the last slot");
            assert_ne!(map.index[0], 0, "the chain wraps");
            assert_eq!(map.remove(&keys[victim]), reference.remove(&keys[victim]));
            agree(&map, &reference, &keys);
            // The chain still closes: a fresh insert lands in it and a
            // second removal finds everything it should.
            map.insert(keys[victim], 99);
            reference.insert(keys[victim], 99);
            agree(&map, &reference, &keys);
            let other = keys[(victim + 2) % 4];
            assert_eq!(map.remove(&other), reference.remove(&other));
            agree(&map, &reference, &keys);
        }
        // The same at a grown size, mixed with keys homed elsewhere.
        let mut keys = homed_last(5, 6);
        keys.extend(0..8);
        let mut map = IdMap::new();
        let mut reference = BTreeMap::new();
        for (v, &k) in keys.iter().enumerate() {
            map.insert(k, v as u64);
            reference.insert(k, v as u64);
        }
        assert_eq!(map.index.len(), 32);
        for k in [keys[2], keys[7], keys[0], keys[4]] {
            assert_eq!(map.remove(&k), reference.remove(&k));
            agree(&map, &reference, &keys);
        }
    }

    #[test]
    fn new_holds_no_allocation() {
        const EMPTY: IdMap<u64, u64> = IdMap::new();
        let map = EMPTY;
        assert_eq!(map.entries.capacity(), 0);
        assert_eq!(map.index.capacity(), 0);
        assert_eq!(map.get(&3), None);
        let mut map = map;
        assert_eq!(map.remove(&3), None);
        map.clear();
        assert_eq!(map.index.capacity(), 0);
    }

    #[test]
    fn index_and_debug_follow_key_order() {
        let mut map = IdMap::new();
        for k in [5u64, 1, 9, 3] {
            map.insert(k, k * 10);
        }
        assert_eq!(map[&9], 90);
        assert_eq!(format!("{map:?}"), "{1: 10, 3: 30, 5: 50, 9: 90}");
    }
}
