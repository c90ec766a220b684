//! The previous store layout, kept as the reference model of the
//! differential test: every written key holds its own list that starts
//! with a clone of the image's seed version, and garbage collection drops
//! the oldest record past the cap, seed or not.

use std::collections::BTreeMap;

use gdur_versioning::Stamp;

use super::{SeedImage, VersionRecord};
use crate::types::{Key, TxId, Value};

/// A list-per-key store over a [`SeedImage`].
#[derive(Debug, Clone)]
pub(super) struct ReferenceStore {
    image: SeedImage,
    /// Written or seeded keys, in the order they got a list.
    order: Vec<Key>,
    lists: BTreeMap<Key, Vec<VersionRecord>>,
    max_versions: usize,
}

impl ReferenceStore {
    pub(super) fn from_image(image: SeedImage, max_versions: usize) -> Self {
        ReferenceStore {
            image,
            order: Vec::new(),
            lists: BTreeMap::new(),
            max_versions,
        }
    }

    pub(super) fn pristine(&self) -> Self {
        Self::from_image(self.image.clone(), self.max_versions)
    }

    fn list(&mut self, key: Key) -> &mut Vec<VersionRecord> {
        if !self.lists.contains_key(&key) {
            self.order.push(key);
            let seed = self.image.record(key).cloned();
            self.lists.insert(key, seed.into_iter().collect());
        }
        self.lists.get_mut(&key).expect("just inserted")
    }

    pub(super) fn seed(&mut self, key: Key, value: Value, stamp: Stamp) {
        self.list(key).push(VersionRecord::seed(value, stamp));
    }

    pub(super) fn install(&mut self, key: Key, value: Value, stamp: Stamp, writer: TxId) -> u64 {
        assert!(self.contains_key(key), "install on unknown key {key}");
        let max = self.max_versions;
        let versions = self.list(key);
        let seq = versions.last().map(|r| r.seq + 1).unwrap_or(0);
        versions.push(VersionRecord {
            value,
            stamp,
            seq,
            writer,
        });
        if versions.len() > max {
            let excess = versions.len() - max;
            versions.drain(..excess);
        }
        seq
    }

    pub(super) fn versions(&self, key: Key) -> Option<&[VersionRecord]> {
        match self.lists.get(&key) {
            Some(list) => Some(list),
            None => self.image.record(key).map(std::slice::from_ref),
        }
    }

    pub(super) fn latest(&self, key: Key) -> Option<&VersionRecord> {
        self.versions(key)?.last()
    }

    pub(super) fn contains_key(&self, key: Key) -> bool {
        self.versions(key).is_some()
    }

    pub(super) fn len(&self) -> usize {
        let extra = self.order.iter();
        self.image.hosted + extra.filter(|k| self.image.record(**k).is_none()).count()
    }

    pub(super) fn materialized(&self) -> usize {
        self.order.len()
    }

    pub(super) fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        let seeded = self.order.iter().copied();
        self.image
            .keys()
            .chain(seeded.filter(|k| self.image.record(*k).is_none()))
    }
}
