//! The multi-version object store held by each replica (`ds` in the paper's
//! Algorithms 1–2).
//!
//! Every key maps to its committed versions in install order. The two read
//! paths of §4.2:
//!
//! * [`MultiVersionStore::latest`] — `choose_last`;
//! * [`MultiVersionStore::versions`] — `choose_cons`: the replica walks the
//!   list newest first under its snapshot's admission predicate
//!   (`gdur_core::Snapshot::admits`), fixed (VTS) or greedy (GMV/PDV).
//!
//! The initial load is copy-on-write. A deployment's partitions start as
//! 10⁵ objects that all carry the *same* seed version (§8.1) and a run
//! overwrites a few percent of them, so the load is held as a
//! [`SeedImage`] — one seed [`VersionRecord`] per hosted partition,
//! O(partitions) memory — and a key gets a version list of its own only on
//! its first write. The seed version stays in the image even then: a
//! written key's list holds only its installs, and a per-key flag says
//! whether the image's seed still precedes them. Every read path answers
//! exactly as if the load had been seeded record by record.

use gdur_net::SiteId;
use gdur_versioning::Stamp;

use crate::placement::{partition_index, PartitionId, Placement};
use crate::types::{Key, TxId, Value};

/// Interned key handle: an index into the store's dense slot table.
///
/// A key is interned when it first needs a version list of its own — its
/// first [`MultiVersionStore::install`], or an explicit
/// [`MultiVersionStore::seed`]. Every lookup resolves `Key → Symbol` with
/// one multiply-shift hash and an integer-compare probe — no SipHash, no
/// per-lookup hasher state — and a miss falls through to the
/// [`SeedImage`]. `u32` bounds the store at ~4 billion written keys, far
/// beyond the paper's workloads.
type Symbol = u32;

/// Fibonacci multiplier (golden-ratio fraction of 2⁶⁴) — spreads the
/// workload's dense integer key ids uniformly over the table.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressing `Key → Symbol` index with linear probing.
///
/// Slots hold `symbol + 1` (`0` = empty), so a fresh table is all-zeros.
/// The key list itself lives in the store (`keys[symbol]`), keeping this
/// table a flat `Vec<u32>` that rebuilds trivially on growth. Determinism:
/// probe order is a pure function of the inserted key set, and iteration
/// happens over the dense key list (insertion order), never this table.
#[derive(Debug, Clone)]
struct KeyIndex {
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the multiply-shift bucket extractor.
    shift: u32,
}

impl KeyIndex {
    fn with_log2(log2: u32) -> Self {
        KeyIndex {
            table: vec![0; 1 << log2],
            shift: 64 - log2,
        }
    }

    fn new() -> Self {
        Self::with_log2(4)
    }

    /// Finds `key`'s symbol, or the empty slot where it would be inserted.
    fn probe(&self, key: Key, keys: &[Key]) -> Result<Symbol, usize> {
        let mut i = (key.0.wrapping_mul(FIB) >> self.shift) as usize;
        let mask = self.table.len() - 1;
        loop {
            match self.table[i] {
                0 => return Err(i),
                s => {
                    if keys[(s - 1) as usize] == key {
                        return Ok(s - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, key: Key, keys: &[Key]) -> Option<Symbol> {
        self.probe(key, keys).ok()
    }

    /// Inserts a key known to be absent; `keys` must not yet contain it.
    fn insert(&mut self, key: Key, sym: Symbol, keys: &[Key]) {
        // Keep load ≤ 1/2 so probe chains stay short.
        if (keys.len() + 1) * 2 > self.table.len() {
            *self = Self::with_log2(self.table.len().trailing_zeros() + 1);
            for (s, &k) in keys.iter().enumerate() {
                let slot = self.probe(k, keys).expect_err("rebuilding, key absent");
                self.table[slot] = s as u32 + 1;
            }
        }
        let slot = self.probe(key, keys).expect_err("caller checked absence");
        self.table[slot] = sym + 1;
    }
}

/// One committed version of an object.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionRecord {
    /// The payload.
    pub value: Value,
    /// Mechanism-specific version number Θ(xᵢ).
    pub stamp: Stamp,
    /// Per-key monotone sequence: 0 is the seed version, certification
    /// compares these to detect stale reads and overwritten bases.
    pub seq: u64,
    /// Transaction that wrote this version.
    pub writer: TxId,
}

// One per retained version of every written key; a field added here is
// paid ~10⁵ times per replica.
const _: () = assert!(std::mem::size_of::<VersionRecord>() <= 80);

/// The transaction id used for seed (initial-load) versions: the largest
/// coordinator id, which no process gets, at sequence 0.
pub const SEED_TX: TxId = match TxId::try_new(TxId::MAX_COORD, 0) {
    Some(tx) => tx,
    None => panic!("the seed writer id is in range"),
};

impl VersionRecord {
    /// The initial-load version: sequence 0, written by [`SEED_TX`].
    fn seed(value: Value, stamp: Stamp) -> Self {
        VersionRecord {
            value,
            stamp,
            seq: 0,
            writer: SEED_TX,
        }
    }
}

/// A replica's initial load, described by rule instead of record by record.
///
/// Keys `0..total_keys` spread round-robin over the partitions (the
/// [`Placement`] rule), and every key of a hosted partition starts at that
/// partition's one seed version. The image is O(partitions) whatever the
/// keyspace, and immutable: a restart rebuilds the pre-crash initial load
/// by cloning it.
#[derive(Debug, Clone, Default)]
pub struct SeedImage {
    total_keys: u64,
    /// Per partition, the seed version of each of its keys; `None` where
    /// the replica does not host the partition.
    seeds: Vec<Option<VersionRecord>>,
    /// Number of keys below `total_keys` in hosted partitions.
    hosted: usize,
}

impl SeedImage {
    /// The initial load of the replica at `site`: every key below
    /// `total_keys` whose partition `placement` puts at `site` holds
    /// `value`, stamped `stamp(partition)`.
    pub fn new(
        placement: &Placement,
        site: SiteId,
        total_keys: u64,
        value: &Value,
        stamp: impl Fn(PartitionId) -> Stamp,
    ) -> Self {
        let partitions = placement.partitions() as u64;
        let seeds: Vec<Option<VersionRecord>> = (0..partitions)
            .map(|p| {
                let part = PartitionId(p as u32);
                placement
                    .replicas(part)
                    .contains(&site)
                    .then(|| VersionRecord::seed(value.clone(), stamp(part)))
            })
            .collect();
        // Partition p owns keys p, p + partitions, ... below total_keys.
        let hosted = (0..partitions)
            .filter(|p| seeds[*p as usize].is_some())
            .map(|p| (total_keys + partitions - 1 - p) / partitions)
            .sum::<u64>() as usize;
        SeedImage {
            total_keys,
            seeds,
            hosted,
        }
    }

    /// The seed version of `key`, if the image hosts it.
    #[inline]
    fn record(&self, key: Key) -> Option<&VersionRecord> {
        if key.0 >= self.total_keys {
            return None;
        }
        self.seeds[partition_index(key, self.seeds.len())].as_ref()
    }

    /// Hosted keys in ascending order.
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        (0..self.total_keys)
            .map(Key)
            .filter(|k| self.record(*k).is_some())
    }
}

/// A replica-local multi-version store over the keys of the partitions the
/// replica hosts.
///
/// The store is a [`SeedImage`] plus the installs of the keys written since.
/// A key is interned to a dense [`Symbol`] at its first write (or explicit
/// [`seed`](Self::seed)); its list holds only what was written, each list
/// sized exactly to what it keeps, and the image's seed version is not
/// copied: `seeded` marks the keys whose versions still begin with it.
/// Until its first write every read answers from the image. A lookup on the
/// hot read/certify/install paths is one integer hash-probe into a table
/// sized by the *written* keys, plus a dense-`Vec` index or the image's
/// per-partition record. Key iteration is deterministic: the image's keys
/// ascending, then explicitly seeded keys in seed order.
#[derive(Debug, Clone)]
pub struct MultiVersionStore {
    image: SeedImage,
    /// Symbol → key (the interner's reverse map).
    keys: Vec<Key>,
    /// Symbol → installed (or explicitly seeded) versions in install order.
    slots: Vec<Vec<VersionRecord>>,
    /// Symbol → the image's seed version still precedes `slots[symbol]`;
    /// cleared when garbage collection drops it.
    seeded: Vec<bool>,
    index: KeyIndex,
    /// Interned keys outside the image (explicitly seeded ones).
    extra: usize,
    /// Cap on retained versions per key (garbage collection); the paper's
    /// `post_commit` hook is where real systems trigger this.
    max_versions: usize,
}

impl Default for MultiVersionStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiVersionStore {
    /// Default number of versions retained per key.
    pub const DEFAULT_MAX_VERSIONS: usize = 8;

    /// An empty store; keys enter through [`seed`](Self::seed).
    pub fn new() -> Self {
        Self::from_image(SeedImage::default())
    }

    /// A store holding exactly the initial load `image` describes.
    pub fn from_image(image: SeedImage) -> Self {
        MultiVersionStore {
            image,
            keys: Vec::new(),
            slots: Vec::new(),
            seeded: Vec::new(),
            index: KeyIndex::new(),
            extra: 0,
            max_versions: Self::DEFAULT_MAX_VERSIONS,
        }
    }

    /// This store as of its initial load: same image and retention cap,
    /// every write forgotten. O(partitions).
    pub fn pristine(&self) -> Self {
        Self::from_image(self.image.clone()).with_max_versions(self.max_versions)
    }

    /// Sets the per-key version-retention cap.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_max_versions(mut self, max: usize) -> Self {
        assert!(max > 0, "must retain at least one version");
        self.max_versions = max;
        self
    }

    /// Resolves a key to its interned symbol, if it has been written.
    #[inline]
    fn sym(&self, key: Key) -> Option<usize> {
        self.index.get(key, &self.keys).map(|s| s as usize)
    }

    /// Gives `key` a version list of its own: empty, with room for the first
    /// install, and marked `seeded` when the image hosts the key — the seed
    /// version itself stays in the image.
    fn intern(&mut self, key: Key) -> usize {
        let sym = self.keys.len();
        self.index.insert(key, sym as Symbol, &self.keys);
        self.keys.push(key);
        let seeded = self.image.record(key).is_some();
        self.extra += usize::from(!seeded);
        self.seeded.push(seeded);
        self.slots.push(Vec::with_capacity(1));
        sym
    }

    /// Loads an initial version of `key` (seq 0, seed writer) by hand —
    /// for stores assembled without an image: log recovery, unit tests.
    ///
    /// # Panics
    ///
    /// Panics if the image hosts `key`: its seed version is the image's,
    /// and a second one would be a second seq-0 version.
    pub fn seed(&mut self, key: Key, value: Value, stamp: Stamp) {
        assert!(
            self.image.record(key).is_none(),
            "seed of key {key}, which the image already seeds"
        );
        let s = self.sym(key).unwrap_or_else(|| self.intern(key));
        let versions = &mut self.slots[s];
        versions.reserve_exact(1);
        versions.push(VersionRecord::seed(value, stamp));
    }

    /// True if the replica holds a copy of `key`.
    pub fn contains_key(&self, key: Key) -> bool {
        self.versions(key).is_some()
    }

    /// Number of keys stored here.
    pub fn len(&self) -> usize {
        self.image.hosted + self.extra
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys holding a version list of their own — written or
    /// explicitly seeded — rather than answering from the image.
    pub fn materialized(&self) -> usize {
        self.keys.len()
    }

    /// The most recent committed version of `key` (`choose_last`).
    pub fn latest(&self, key: Key) -> Option<&VersionRecord> {
        self.versions(key)?.last()
    }

    /// Per-key sequence of the latest version, or `None` if absent.
    pub fn latest_seq(&self, key: Key) -> Option<u64> {
        self.latest(key).map(|r| r.seq)
    }

    /// All retained versions of `key` in install order (oldest first), for
    /// callers that apply their own snapshot predicate: one lookup, and a
    /// view of the image's seed (while the key retains it) followed by the
    /// installs. An unwritten key's versions are the image's one seed.
    #[inline]
    pub fn versions(&self, key: Key) -> Option<Versions<'_>> {
        match self.sym(key) {
            Some(s) => Some(Versions {
                seed: self.image.record(key).filter(|_| self.seeded[s]),
                rest: &self.slots[s],
            }),
            None => self.image.record(key).map(|seed| Versions {
                seed: Some(seed),
                rest: &[],
            }),
        }
    }

    /// Installs a new committed version of `key`, returning its per-key
    /// sequence. Old versions beyond the retention cap are garbage
    /// collected, the image's seed first.
    ///
    /// # Panics
    ///
    /// Panics if the store does not hold `key`: replicas only apply
    /// after-values for keys of partitions they host.
    pub fn install(&mut self, key: Key, value: Value, stamp: Stamp, writer: TxId) -> u64 {
        let s = match self.sym(key) {
            Some(s) => s,
            None if self.image.record(key).is_some() => self.intern(key),
            None => panic!("install on unknown key {key}"),
        };
        let seeded = &mut self.seeded[s];
        let versions = &mut self.slots[s];
        let seq = versions.last().map_or(u64::from(*seeded), |r| r.seq + 1);
        // Collect before the push, so a list at the cap never outgrows it.
        let kept = usize::from(*seeded) + versions.len() + 1;
        let mut excess = kept.saturating_sub(self.max_versions);
        if excess > 0 && *seeded {
            *seeded = false;
            excess -= 1;
        }
        versions.drain(..excess);
        versions.reserve_exact(1);
        versions.push(VersionRecord {
            value,
            stamp,
            seq,
            writer,
        });
        seq
    }

    /// Iterates over keys held by this replica: the image's keys in
    /// ascending order, then explicitly seeded ones in seed order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        let seeded = self.keys.iter().copied();
        self.image
            .keys()
            .chain(seeded.filter(|k| self.image.record(*k).is_none()))
    }

    /// The keys written since the initial load, each with the sequence of
    /// its latest version, in the order they were first written (or
    /// explicitly seeded).
    pub fn written(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        let latest = self.slots.iter().map(|v| v.last().map_or(0, |r| r.seq));
        self.keys
            .iter()
            .copied()
            .zip(latest)
            .filter(|(_, seq)| *seq > 0)
    }

    /// Number of retained versions of `key`.
    pub fn version_count(&self, key: Key) -> usize {
        self.versions(key).map_or(0, |v| v.len())
    }
}

/// The retained versions of one key, oldest first: the image's seed version
/// while the key retains it, then the key's installs. A borrowed, `Copy`
/// view — what [`MultiVersionStore::versions`] returns.
#[derive(Debug, Clone, Copy)]
pub struct Versions<'a> {
    seed: Option<&'a VersionRecord>,
    rest: &'a [VersionRecord],
}

// Returned by value on every consistent read.
const _: () = assert!(std::mem::size_of::<Versions<'_>>() <= 24);

impl<'a> Versions<'a> {
    /// The versions oldest first; `.rev()` walks them newest first.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = &'a VersionRecord> + 'a {
        self.seed.into_iter().chain(self.rest)
    }

    /// Number of retained versions.
    pub fn len(self) -> usize {
        usize::from(self.seed.is_some()) + self.rest.len()
    }

    /// True if no version is retained (never, for a key the store holds).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The `i`-th oldest retained version.
    pub fn get(self, i: usize) -> Option<&'a VersionRecord> {
        self.iter().nth(i)
    }

    /// The most recent version.
    pub fn last(self) -> Option<&'a VersionRecord> {
        self.rest.last().or(self.seed)
    }
}

impl PartialEq for Versions<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use gdur_versioning::VersionVec;
    use std::collections::BTreeSet;

    fn ts(n: u64) -> Stamp {
        Stamp::Ts(n)
    }

    fn vstamp(origin: u32, entries: &[u64]) -> Stamp {
        Stamp::Vec {
            origin,
            vec: VersionVec::from_entries(entries.to_vec()),
        }
    }

    fn tx(n: u64) -> TxId {
        TxId::new(1, n)
    }

    #[test]
    fn seed_then_latest() {
        let mut s = MultiVersionStore::new();
        s.seed(Key(1), Value::from_u64(10), ts(0));
        assert_eq!(s.latest(Key(1)).unwrap().seq, 0);
        assert_eq!(s.latest(Key(1)).unwrap().writer, SEED_TX);
        assert_eq!(s.latest_seq(Key(2)), None);
        assert!(s.contains_key(Key(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn install_bumps_seq() {
        let mut s = MultiVersionStore::new();
        s.seed(Key(1), Value::from_u64(0), ts(0));
        assert_eq!(s.install(Key(1), Value::from_u64(1), ts(1), tx(1)), 1);
        assert_eq!(s.install(Key(1), Value::from_u64(2), ts(2), tx(2)), 2);
        assert_eq!(s.latest_seq(Key(1)), Some(2));
        assert_eq!(s.latest(Key(1)).unwrap().value.as_u64(), Some(2));
        assert_eq!(
            s.versions(Key(1)).unwrap().get(1).unwrap().value.as_u64(),
            Some(1)
        );
    }

    #[test]
    fn written_names_each_key_above_its_load_with_its_latest_sequence() {
        let mut s = MultiVersionStore::new().with_max_versions(2);
        for k in [1, 2, 3] {
            s.seed(Key(k), Value::from_u64(0), ts(0));
        }
        for (k, n) in [(3, 1), (1, 2), (3, 3), (3, 4)] {
            s.install(Key(k), Value::from_u64(n), ts(n), tx(n));
        }
        let written: Vec<(Key, u64)> = s.written().collect();
        assert_eq!(written, [(Key(1), 1), (Key(3), 3)]);
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn install_unknown_key_panics() {
        let mut s = MultiVersionStore::new();
        s.install(Key(9), Value::empty(), ts(1), tx(1));
    }

    /// The image of site 0 in a 3-site DT deployment of 30 keys: partitions
    /// 0 and 2, keys 0, 2, 3, 5, ... — with either stamp family.
    fn image(vector: bool) -> (SeedImage, Placement) {
        let placement = Placement::disaster_tolerant(3);
        let image = SeedImage::new(&placement, SiteId(0), 30, &Value::from_u64(7), |p| {
            if vector {
                vstamp(p.0, &[0, 0, 0])
            } else {
                ts(0)
            }
        });
        (image, placement)
    }

    #[test]
    fn image_hosts_by_rule() {
        let (image, _) = image(true);
        let s = MultiVersionStore::from_image(image);
        assert_eq!(s.len(), 20);
        assert_eq!(s.materialized(), 0);
        assert!(s.contains_key(Key(0)) && s.contains_key(Key(29)));
        assert!(!s.contains_key(Key(1)), "partition 1 lives at sites 1, 2");
        assert!(!s.contains_key(Key(30)), "beyond the keyspace");
        let seed = s.latest(Key(5)).unwrap();
        assert_eq!((seed.seq, seed.writer), (0, SEED_TX));
        assert_eq!(seed.stamp, vstamp(2, &[0, 0, 0]));
        assert_eq!(s.versions(Key(5)).unwrap().len(), 1);
    }

    #[test]
    fn first_install_copies_the_seed_version() {
        let (image, _) = image(false);
        let mut s = MultiVersionStore::from_image(image);
        assert_eq!(s.install(Key(3), Value::from_u64(1), ts(1), tx(1)), 1);
        assert_eq!(s.materialized(), 1);
        assert_eq!(s.len(), 20, "a written key is still one key");
        let seqs: Vec<u64> = s.versions(Key(3)).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1]);
        assert_eq!(
            s.versions(Key(3)).unwrap().get(0).unwrap().value.as_u64(),
            Some(7)
        );
        let fresh = s.pristine();
        assert_eq!((fresh.materialized(), fresh.len()), (0, 20));
        assert_eq!(fresh.latest_seq(Key(3)), Some(0));
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn install_on_unhosted_image_key_panics() {
        let (image, _) = image(false);
        let mut s = MultiVersionStore::from_image(image);
        s.install(Key(1), Value::empty(), ts(1), tx(1));
    }

    /// An image-backed store and one seeded record by record answer every
    /// operation identically — under either stamp family, on hosted,
    /// unhosted and out-of-range keys, with the seed version GC'd on the way.
    #[test]
    fn image_store_equals_eagerly_seeded_store() {
        for vector in [false, true] {
            let (image, placement) = image(vector);
            let mut eager = MultiVersionStore::new().with_max_versions(2);
            for k in (0..30).map(Key) {
                if placement.is_local(SiteId(0), k) {
                    let seed = image.record(k).unwrap();
                    eager.seed(k, seed.value.clone(), seed.stamp.clone());
                }
            }
            let mut lazy = MultiVersionStore::from_image(image).with_max_versions(2);
            let mut installed = BTreeSet::new();
            let mut clock = [0u64; 3];
            // xorshift64: a fixed pseudo-random operation sequence.
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let mut next = |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            for step in 0..4000u64 {
                let key = Key(next(34));
                let hosted = key.0 < 30 && placement.is_local(SiteId(0), key);
                assert_eq!(lazy.contains_key(key), hosted, "{key}");
                assert_eq!(eager.contains_key(key), hosted, "{key}");
                match next(4) {
                    0 | 1 if hosted => {
                        let p = placement.partition_of(key).index();
                        clock[p] += 1;
                        let stamp = if vector {
                            vstamp(p as u32, &clock)
                        } else {
                            ts(step)
                        };
                        let v = Value::from_u64(step);
                        let a = eager.install(key, v.clone(), stamp.clone(), tx(step));
                        let b = lazy.install(key, v, stamp, tx(step));
                        assert_eq!(a, b, "install seq of {key}");
                        installed.insert(key);
                    }
                    2 => assert_eq!(eager.latest(key), lazy.latest(key)),
                    _ => {
                        assert_eq!(eager.versions(key), lazy.versions(key));
                        assert_eq!(eager.version_count(key), lazy.version_count(key));
                    }
                }
            }
            assert_eq!(eager.len(), lazy.len());
            assert!(eager.keys().eq(lazy.keys()), "key iteration order");
            assert_eq!(lazy.materialized(), installed.len());
            assert!(installed.len() > 10, "the sequence wrote most hosted keys");
            assert!(
                installed
                    .iter()
                    .any(|k| lazy.versions(*k).unwrap().get(0).unwrap().seq > 0),
                "some seed version was garbage collected"
            );
        }
    }

    /// Every observation of `store` equals the reference layout's, on every
    /// key in `0..universe`.
    fn assert_same(store: &MultiVersionStore, model: &reference::ReferenceStore, universe: u64) {
        for key in (0..universe).map(Key) {
            let (got, want) = (store.versions(key), model.versions(key));
            assert_eq!(got.map(|v| v.len()), want.map(<[_]>::len), "{key}");
            if let (Some(got), Some(want)) = (got, want) {
                assert!(got.iter().eq(want), "versions of {key}");
                for (i, r) in want.iter().enumerate() {
                    assert_eq!(got.get(i), Some(r), "version {i} of {key}");
                }
                assert_eq!(got.get(want.len()), None);
            }
            assert_eq!(store.latest(key), model.latest(key), "{key}");
            assert_eq!(store.latest_seq(key), model.latest(key).map(|r| r.seq));
            assert_eq!(store.version_count(key), want.map_or(0, <[_]>::len));
            assert_eq!(store.contains_key(key), model.contains_key(key), "{key}");
        }
        assert_eq!(store.len(), model.len());
        assert_eq!(store.materialized(), model.materialized());
        assert!(store.keys().eq(model.keys()), "key iteration order");
    }

    /// The store against the previous layout (`reference`: a seed clone in
    /// every written key's list): seeded random installs over image-hosted
    /// keys and explicit seeds of image-less ones, under either stamp family
    /// and four retention caps, compared after every step.
    #[test]
    fn matches_the_reference_layout_step_by_step() {
        const UNIVERSE: u64 = 36;
        for vector in [false, true] {
            for max in [1, 2, 3, 8] {
                let (image, placement) = image(vector);
                let mut store = MultiVersionStore::from_image(image.clone()).with_max_versions(max);
                let mut model = reference::ReferenceStore::from_image(image, max);
                let mut clock = [0u64; 3];
                // xorshift64, seeded per configuration.
                let mut x = 0x2545_F491_4F6C_DD1Du64 ^ (max as u64) << 8 ^ u64::from(vector);
                let mut next = |n: u64| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % n
                };
                let (mut seeds, mut seed_dropped) = (0, false);
                for step in 0..300u64 {
                    let key = Key(next(UNIVERSE));
                    let p = placement.partition_of(key).index();
                    clock[p] += 1;
                    let stamp = if vector {
                        vstamp(p as u32, &clock)
                    } else {
                        ts(step)
                    };
                    let v = Value::from_u64(step);
                    if model.contains_key(key) {
                        let a = store.install(key, v.clone(), stamp.clone(), tx(step));
                        let b = model.install(key, v, stamp, tx(step));
                        assert_eq!(a, b, "install seq of {key} at step {step}");
                    } else {
                        store.seed(key, v.clone(), stamp.clone());
                        model.seed(key, v, stamp);
                        seeds += 1;
                    }
                    assert_same(&store, &model, UNIVERSE);
                    assert_same(&store.pristine(), &model.pristine(), UNIVERSE);
                    seed_dropped |= (0..30).map(Key).any(|k| {
                        placement.is_local(SiteId(0), k)
                            && store.versions(k).is_some_and(|v| v.seed.is_none())
                    });
                }
                assert!(seeds > 0, "the sequence seeded image-less keys");
                assert!(seed_dropped, "cap {max}: some seed version was collected");
            }
        }
    }

    #[test]
    fn every_list_is_sized_exactly() {
        for max in [1, 2, 3, 8] {
            for installs in 1..=10u64 {
                let (image, _) = image(true);
                let mut s = MultiVersionStore::from_image(image).with_max_versions(max);
                s.seed(Key(31), Value::from_u64(0), ts(0));
                for i in 1..=installs {
                    for key in [Key(3), Key(5), Key(31)] {
                        s.install(key, Value::from_u64(i), vstamp(0, &[i, 0, 0]), tx(i));
                    }
                }
                for slot in &s.slots {
                    assert_eq!(
                        slot.capacity(),
                        slot.len(),
                        "cap {max}, {installs} installs"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed of key k3")]
    fn seed_of_an_image_hosted_key_panics() {
        let (image, _) = image(false);
        let mut s = MultiVersionStore::from_image(image);
        s.seed(Key(3), Value::from_u64(1), ts(0));
    }

    #[test]
    fn retention_cap_drops_oldest() {
        let mut s = MultiVersionStore::new().with_max_versions(2);
        s.seed(Key(1), Value::from_u64(0), ts(0));
        s.install(Key(1), Value::from_u64(1), ts(1), tx(1));
        s.install(Key(1), Value::from_u64(2), ts(2), tx(2));
        assert_eq!(s.version_count(Key(1)), 2);
        assert_eq!(
            s.versions(Key(1)).unwrap().get(0).unwrap().seq,
            1,
            "seed GCed"
        );
        assert_eq!(s.latest_seq(Key(1)), Some(2));
    }

    #[test]
    fn written_key_holds_two_versions_and_gc_still_caps_growth() {
        let (image, _) = image(false);
        let mut s = MultiVersionStore::from_image(image).with_max_versions(2);
        s.install(Key(3), Value::from_u64(1), ts(1), tx(1));
        let slot = &s.slots[s.sym(Key(3)).unwrap()];
        assert_eq!(
            (slot.len(), slot.capacity()),
            (1, 1),
            "the first install alone: the seed stays in the image"
        );
        s.install(Key(3), Value::from_u64(2), ts(2), tx(2));
        let seqs: Vec<u64> = s.versions(Key(3)).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            [1, 2],
            "max_versions drops the seed on the third write"
        );
    }

    #[test]
    fn interner_survives_growth_and_iterates_in_seed_order() {
        // Enough keys to force several KeyIndex rebuilds (initial capacity
        // 16, load ≤ 1/2), with ids spread to exercise probe collisions.
        let mut s = MultiVersionStore::new();
        let ids: Vec<u64> = (0..300u64).map(|i| i * 1_000_003 % 7919).collect();
        for &id in &ids {
            s.seed(Key(id), Value::from_u64(id), ts(0));
        }
        assert_eq!(s.len(), ids.len());
        for &id in &ids {
            assert!(s.contains_key(Key(id)), "lost key {id} across growth");
            assert_eq!(s.latest(Key(id)).unwrap().value.as_u64(), Some(id));
        }
        assert!(!s.contains_key(Key(u64::MAX)));
        assert!(s.latest(Key(u64::MAX)).is_none());
        // Iteration order is the seed order, not hash order.
        let iterated: Vec<u64> = s.keys().map(|k| k.0).collect();
        assert_eq!(iterated, ids);
    }
}
