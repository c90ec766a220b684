//! The persistence layer, end to end: replicas run with the write-ahead
//! log attached, and a replica that crashes and restarts rebuilds its store
//! from its log.

use gdur_core::{Cluster, ClusterConfig};
use gdur_harness::build_ycsb;
use gdur_net::SiteId;
use gdur_persist::LogRecord;
use gdur_store::{Key, VersionRecord};
use gdur_workload::WorkloadSpec;

#[test]
fn wal_replay_reproduces_every_replica_store() {
    let mut cfg = ClusterConfig::small(gdur_protocols::jessy_2pc(), 3);
    cfg.persistence = true;
    cfg.keys_per_partition = 100;
    cfg.clients_per_site = 2;
    cfg.max_txns_per_client = Some(40);
    let total = cfg.keys_per_partition * 3;
    let mut cluster = build_ycsb(cfg, &WorkloadSpec::a(), 0.3, 0.0);
    cluster.run_until_idle();

    // Every hosted key of every replica: its latest version, stamp and
    // writer included.
    let latest = |cluster: &Cluster| -> Vec<Vec<VersionRecord>> {
        let site = |s| {
            let store = cluster.replica(SiteId(s)).store();
            (0..total)
                .filter_map(|k| store.latest(Key(k)).cloned())
                .collect()
        };
        (0..3u16).map(site).collect()
    };
    let live = latest(&cluster);
    // Disaster-prone placement: no partition has a second replica, so a
    // restarted replica has its own log to rebuild from and nothing else.
    for pid in cluster.replica_pids().to_vec() {
        let now = cluster.now();
        cluster.sim_mut().schedule_crash(pid, now);
        cluster.sim_mut().schedule_restart(pid, now);
    }
    cluster.run_until_idle();

    for s in 0..3u16 {
        let replica = cluster.replica(SiteId(s));
        assert_eq!(replica.stats().recoveries, 1, "site{s}");
        let logged = replica.wal().expect("persistence attached").scan();
        let decided = logged
            .iter()
            .filter(|r| matches!(r, LogRecord::Decision { .. }));
        assert!(decided.count() > 0, "site{s} logged no decisions");
    }
    let rebuilt = latest(&cluster);
    assert_eq!(rebuilt, live, "a restarted replica's store diverged");
    let updated = live.iter().flatten().filter(|v| v.seq > 0).count();
    assert!(updated > 10, "scenario exercised too few durable keys");
}

#[test]
fn persistence_costs_cpu_but_preserves_results() {
    let build = |persistence: bool| {
        let mut cfg = ClusterConfig::small(gdur_protocols::walter(), 2);
        cfg.persistence = persistence;
        cfg.keys_per_partition = 200;
        cfg.max_txns_per_client = Some(30);
        let mut cluster = build_ycsb(cfg, &WorkloadSpec::a(), 0.5, 0.0);
        cluster.run_until_idle();
        cluster
    };
    let with = build(true);
    let without = build(false);
    // Same transactions decided either way; durability is off the commit
    // decision path in our model (group commit would hide it), so outcomes
    // match while the logs exist only on one side.
    assert_eq!(with.records().len(), without.records().len());
    assert!(with.replica(SiteId(0)).wal().is_some());
    assert!(without.replica(SiteId(0)).wal().is_none());
}
