//! Data placement: which site replicates which partition.
//!
//! The paper evaluates two configurations (§8.1): *disaster prone* (DP),
//! where every object is stored at exactly one site, and *disaster
//! tolerant* (DT), where every object is replicated at two sites. Both are
//! instances of a partitioned placement: keys hash to partitions, and each
//! partition is replicated at an explicit list of sites.

use gdur_net::SiteId;
use std::collections::BTreeSet;

use crate::types::Key;

/// Identifies a partition (placement group of keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Returns the partition id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PartitionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "part{}", self.0)
    }
}

/// The key → partition rule: keys spread round-robin over `partitions`.
#[inline]
pub(crate) fn partition_index(key: Key, partitions: usize) -> usize {
    (key.0 % partitions as u64) as usize
}

/// Maps keys to partitions and partitions to replica sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    sites: usize,
    replicas_of: Vec<Vec<SiteId>>,
}

impl Placement {
    /// Builds a placement from an explicit partition → sites table.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 sites (a replica tallies votes in
    /// a 64-bit site mask), if there are no partitions, if any partition
    /// has no replicas, or if a replica site is out of range.
    pub fn new(sites: usize, replicas_of: Vec<Vec<SiteId>>) -> Self {
        assert!(sites <= 64, "{sites} sites: a placement has at most 64");
        assert!(!replicas_of.is_empty(), "need at least one partition");
        for (p, reps) in replicas_of.iter().enumerate() {
            assert!(!reps.is_empty(), "partition {p} has no replicas");
            for s in reps {
                assert!(s.index() < sites, "replica site {s} out of range");
            }
        }
        Placement { sites, replicas_of }
    }

    /// Disaster-prone placement: one partition per site, one replica each.
    pub fn disaster_prone(sites: usize) -> Self {
        Placement::new(sites, (0..sites).map(|s| vec![SiteId(s as u16)]).collect())
    }

    /// Disaster-tolerant placement: one partition per site, replicated at
    /// the home site and its ring successor.
    ///
    /// # Panics
    ///
    /// Panics if `sites < 2`.
    pub fn disaster_tolerant(sites: usize) -> Self {
        assert!(sites >= 2, "DT needs at least two sites");
        Placement::new(
            sites,
            (0..sites)
                .map(|s| vec![SiteId(s as u16), SiteId(((s + 1) % sites) as u16)])
                .collect(),
        )
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.replicas_of.len()
    }

    /// Number of sites in the deployment.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Replication degree of a partition.
    pub fn replication_degree(&self, p: PartitionId) -> usize {
        self.replicas_of[p.index()].len()
    }

    /// Partition owning `key` (keys are spread round-robin).
    pub fn partition_of(&self, key: Key) -> PartitionId {
        PartitionId(partition_index(key, self.partitions()) as u32)
    }

    /// Sites replicating partition `p`.
    pub fn replicas(&self, p: PartitionId) -> &[SiteId] {
        &self.replicas_of[p.index()]
    }

    /// Sites replicating the partition of `key`.
    pub fn replicas_of_key(&self, key: Key) -> &[SiteId] {
        self.replicas(self.partition_of(key))
    }

    /// The first (home) replica of `key`'s partition.
    pub fn primary_of_key(&self, key: Key) -> SiteId {
        self.replicas_of_key(key)[0]
    }

    /// True if `site` holds a replica of `key`.
    pub fn is_local(&self, site: SiteId, key: Key) -> bool {
        self.replicas_of_key(key).contains(&site)
    }

    /// Union of replica sites over a set of keys — `replicas(obj)` in the
    /// paper's notation.
    pub fn replicas_of_keys<I: IntoIterator<Item = Key>>(&self, keys: I) -> BTreeSet<SiteId> {
        let mut out = BTreeSet::new();
        for k in keys {
            out.extend(self.replicas_of_key(k).iter().copied());
        }
        out
    }

    /// Partitions hosted at `site`.
    pub fn partitions_at(&self, site: SiteId) -> Vec<PartitionId> {
        (0..self.partitions())
            .map(|p| PartitionId(p as u32))
            .filter(|p| self.replicas(*p).contains(&site))
            .collect()
    }

    /// All sites (the set Π of the paper when every site hosts a replica).
    pub fn all_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.sites).map(|s| SiteId(s as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_places_one_replica_per_partition() {
        let p = Placement::disaster_prone(4);
        assert_eq!(p.partitions(), 4);
        for i in 0..4 {
            assert_eq!(p.replicas(PartitionId(i)), &[SiteId(i as u16)]);
            assert_eq!(p.replication_degree(PartitionId(i)), 1);
        }
    }

    #[test]
    fn dt_places_two_replicas_on_a_ring() {
        let p = Placement::disaster_tolerant(4);
        assert_eq!(p.replicas(PartitionId(0)), &[SiteId(0), SiteId(1)]);
        assert_eq!(p.replicas(PartitionId(3)), &[SiteId(3), SiteId(0)]);
        assert_eq!(p.replication_degree(PartitionId(3)), 2);
    }

    #[test]
    fn keys_spread_round_robin() {
        let p = Placement::disaster_prone(4);
        assert_eq!(p.partition_of(Key(0)), PartitionId(0));
        assert_eq!(p.partition_of(Key(5)), PartitionId(1));
        assert_eq!(p.partition_of(Key(7)), PartitionId(3));
    }

    #[test]
    fn locality_checks() {
        let p = Placement::disaster_tolerant(3);
        assert!(p.is_local(SiteId(0), Key(0)));
        assert!(p.is_local(SiteId(1), Key(0)));
        assert!(!p.is_local(SiteId(2), Key(0)));
        assert_eq!(p.primary_of_key(Key(1)), SiteId(1));
    }

    #[test]
    fn replicas_of_keys_unions_sites() {
        let p = Placement::disaster_prone(4);
        let sites = p.replicas_of_keys([Key(0), Key(1), Key(5)]);
        assert_eq!(
            sites.into_iter().collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1)]
        );
    }

    #[test]
    fn partitions_at_site() {
        let p = Placement::disaster_tolerant(3);
        assert_eq!(
            p.partitions_at(SiteId(0)),
            vec![PartitionId(0), PartitionId(2)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_replica_site_rejected() {
        let _ = Placement::new(2, vec![vec![SiteId(5)]]);
    }

    #[test]
    #[should_panic(expected = "65 sites: a placement has at most 64")]
    fn more_than_64_sites_rejected() {
        assert_eq!(Placement::disaster_prone(64).sites(), 64);
        let _ = Placement::disaster_prone(65);
    }
}
