//! The copy-on-write initial load at deployment level: building a cluster
//! at the paper's keyspace materializes no key, and a run materializes
//! exactly the keys it writes. (`persistence.rs` and `recovery.rs` are the
//! oracle for the restart half: image + WAL replay equals the live store.)

use std::collections::BTreeSet;

use gdur_core::Cluster;
use gdur_harness::{Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_sim::SimDuration;
use gdur_store::Key;

/// A fig3b point at the paper's scale (§8.1): Walter, 4 sites disaster
/// tolerant, 10⁵ objects of 1 KB per partition.
fn paper_keyspace_cluster() -> Cluster {
    let exp = Experiment::new(
        gdur_protocols::walter(),
        WorkloadKind::B,
        0.7,
        4,
        PlacementKind::Dt,
    );
    exp.deployment(&Scale::paper(), 8).build()
}

#[test]
fn building_the_paper_keyspace_materializes_no_key() {
    let cluster = paper_keyspace_cluster();
    for site in cluster.placement().all_sites() {
        let store = cluster.replica(site).store();
        assert_eq!(store.materialized(), 0, "{site} copied keys at build");
        assert_eq!(store.len(), 200_000, "{site} hosts two partitions");
    }
}

#[test]
fn a_run_materializes_exactly_the_keys_it_writes() {
    let mut cluster = paper_keyspace_cluster();
    cluster.run_for(SimDuration::from_millis(400));
    let mut written_anywhere = 0;
    for site in cluster.placement().all_sites() {
        let replica = cluster.replica(site);
        let written: BTreeSet<Key> = replica.installs().iter().map(|i| i.key).collect();
        assert_eq!(replica.store().materialized(), written.len(), "{site}");
        assert_eq!(
            replica.store().len(),
            200_000,
            "{site}: a write adds no key"
        );
        written_anywhere += written.len();
    }
    assert!(
        written_anywhere > 100,
        "the run barely wrote: {written_anywhere}"
    );
}
