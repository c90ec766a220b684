//! Failure injection across crates: crashes, recovery, and network
//! partitions against the commitment protocols' dependability claims
//! (§5.3).

use gdur_core::{Cluster, ClusterConfig, ProtocolSpec};
use gdur_harness::build_ycsb;
use gdur_net::SiteId;
use gdur_sim::SimDuration;
use gdur_store::Placement;
use gdur_workload::WorkloadSpec;

fn config(spec: ProtocolSpec, sites: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(spec, sites);
    cfg.placement = Placement::disaster_tolerant(sites);
    cfg.keys_per_partition = 500;
    cfg.clients_per_site = 3;
    cfg.max_txns_per_client = None;
    cfg.record_history = false;
    cfg
}

fn build(spec: ProtocolSpec, sites: usize) -> Cluster {
    build_ycsb(config(spec, sites), &WorkloadSpec::a(), 0.5, 0.0)
}

/// Crashes the replica of `site` before the next event runs.
fn crash_now(cluster: &mut Cluster, site: usize) {
    let (victim, now) = (cluster.replica_pids()[site], cluster.now());
    cluster.sim_mut().schedule_crash(victim, now);
}

fn throughput_around_crash(spec: ProtocolSpec) -> (usize, usize) {
    let mut cluster = build(spec, 3);
    cluster.run_for(SimDuration::from_secs(2));
    let before = cluster.records().len();
    crash_now(&mut cluster, 2);
    cluster.run_for(SimDuration::from_secs(3));
    (before, cluster.records().len() - before)
}

#[test]
fn quorum_commitment_survives_a_crash() {
    let (healthy, after) = throughput_around_crash(gdur_protocols::p_store_ab());
    assert!(
        after * 3 > healthy,
        "AB-Cast commitment should retain most throughput: {after} vs {healthy}"
    );
}

#[test]
fn two_phase_commit_blocks_on_a_crash() {
    let (healthy, after) = throughput_around_crash(gdur_protocols::p_store_2pc());
    assert!(
        after * 10 < healthy,
        "2PC should block without every vote: {after} vs {healthy}"
    );
}

#[test]
fn two_phase_commit_resumes_after_recovery() {
    let mut cfg = config(gdur_protocols::p_store_2pc(), 3);
    cfg.persistence = true;
    let mut cluster = build_ycsb(cfg, &WorkloadSpec::a(), 0.5, 0.0);
    cluster.run_for(SimDuration::from_secs(2));
    crash_now(&mut cluster, 2);
    cluster.run_for(SimDuration::from_secs(2));
    let blocked = cluster.records().len();
    // Crash-recovery model: the replica comes back from its durable log,
    // catches up, and the system drains the backlog.
    let (victim, now) = (cluster.replica_pids()[2], cluster.now());
    cluster.sim_mut().schedule_restart(victim, now);
    cluster.run_for(SimDuration::from_secs(3));
    let resumed = cluster.records().len() - blocked;
    assert!(
        resumed > 50,
        "2PC must make progress again after recovery (got {resumed})"
    );
}

/// One fault model: no restart keeps the state the crash destroyed. Without
/// a log there is nothing to recover from, and the replica says which field
/// attaches one.
#[test]
#[should_panic(expected = "ClusterConfig::persistence")]
fn restart_without_a_log_is_refused() {
    let mut cluster = build(gdur_protocols::p_store_2pc(), 3);
    cluster.run_for(SimDuration::from_secs(1));
    crash_now(&mut cluster, 2);
    let (victim, now) = (cluster.replica_pids()[2], cluster.now());
    cluster.sim_mut().schedule_restart(victim, now);
    cluster.run_for(SimDuration::from_secs(1));
}

#[test]
fn partition_blocks_cross_site_transactions_and_heals() {
    let mut cluster = build(gdur_protocols::jessy_2pc(), 3);
    let ctl = {
        // Rebuild with partition control exposed: cut site 0 from site 2.
        cluster.run_for(SimDuration::from_secs(1));
        cluster.partition_control()
    };
    let before = cluster.records().len();
    ctl.cut(SiteId(0), SiteId(2));
    ctl.cut(SiteId(1), SiteId(2));
    cluster.run_for(SimDuration::from_secs(2));
    let during = cluster.records().len() - before;
    ctl.heal(SiteId(0), SiteId(2));
    ctl.heal(SiteId(1), SiteId(2));
    cluster.run_for(SimDuration::from_secs(2));
    let after = cluster.records().len() - before - during;
    assert!(
        after > during,
        "healing the partition must restore throughput ({during} during vs {after} after)"
    );
}

/// Each site's clients submit through their colocated replica only: when
/// site 1's replica crashes, its pool stalls while the pools of sites 0
/// and 2 keep finishing transactions.
#[test]
fn crashed_coordinator_only_stalls_its_own_clients() {
    let mut cluster = build(gdur_protocols::p_store_ab(), 3);
    cluster.run_for(SimDuration::from_secs(2));
    let per_site = |cluster: &Cluster| -> Vec<usize> {
        (0..3)
            .map(|s| cluster.pool(SiteId(s)).records().len())
            .collect()
    };
    let before = per_site(&cluster);
    crash_now(&mut cluster, 1);
    cluster.run_for(SimDuration::from_secs(3));
    let after = per_site(&cluster);
    let finished: Vec<usize> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(
        finished[1], 0,
        "site 1's clients finished transactions after their coordinator crashed ({before:?} -> {after:?})"
    );
    for s in [0, 2] {
        assert!(
            finished[s] > 50,
            "site {s}'s clients should keep finishing transactions ({before:?} -> {after:?})"
        );
    }
}
