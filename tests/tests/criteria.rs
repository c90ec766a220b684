//! Every protocol of the library, run on a contended geo-replicated
//! deployment, must uphold the consistency criterion the paper assigns it
//! (§6) — in both the disaster-prone and disaster-tolerant placements.

use gdur_consistency::{check_first_committer_wins, Criterion, CriterionCheck, History, Violation};
use gdur_core::{Cluster, ClusterConfig, ProtocolSpec};
use gdur_store::Placement;
use gdur_workload::{WorkloadSpec, YcsbSource};

/// Three sites, three clients each, 30 transactions per client on a small
/// keyspace — real contention, so aborts exercise certification — run to
/// idle.
fn run_contended(spec: ProtocolSpec, dt: bool, seed: u64) -> Cluster {
    let sites = 3;
    let mut cfg = ClusterConfig::small(spec, sites);
    if dt {
        cfg.placement = Placement::disaster_tolerant(sites);
    }
    cfg.keys_per_partition = 40;
    cfg.clients_per_site = 3;
    cfg.max_txns_per_client = Some(30);
    cfg.record_history = true;
    cfg.seed = seed;
    let total_keys = cfg.keys_per_partition * sites as u64;
    let mut cluster = Cluster::build(cfg, move |_, site| {
        Box::new(YcsbSource::new(
            WorkloadSpec::a(),
            total_keys,
            sites as u64,
            site.0 as u64 % sites as u64,
            0.5,
        ))
    });
    cluster.run_until_idle();
    cluster
}

fn run_checked(spec: ProtocolSpec, criterion: Criterion, dt: bool, seed: u64) {
    let name = spec.name;
    let cluster = run_contended(spec, dt, seed);
    let records = cluster.records();
    assert_eq!(
        records.len(),
        3 * 3 * 30,
        "{name}: liveness violated (dt={dt})"
    );
    let history = History::from_cluster(&cluster);
    if let Err(v) = criterion.check(&history) {
        panic!("{name} violated {criterion:?} (dt={dt}): {v}");
    }
}

macro_rules! criterion_tests {
    ($($test:ident: $proto:ident => $crit:ident),+ $(,)?) => {
        $(
            mod $test {
                use super::*;

                #[test]
                fn disaster_prone() {
                    run_checked(gdur_protocols::$proto(), Criterion::$crit, false, 7);
                }

                #[test]
                fn disaster_tolerant() {
                    run_checked(gdur_protocols::$proto(), Criterion::$crit, true, 11);
                }
            }
        )+
    };
}

criterion_tests! {
    p_store_is_serializable: p_store => Ser,
    s_dur_is_serializable: s_dur => Ser,
    gmu_is_update_serializable: gmu => Us,
    serrano_is_snapshot_isolated: serrano => Si,
    walter_is_psi: walter => Psi,
    jessy_is_nmsi: jessy_2pc => Nmsi,
    rc_reads_committed: read_committed => Rc,
    p_store_la_is_serializable: p_store_la => Ser,
    p_store_2pc_is_serializable: p_store_2pc => Ser,
    p_store_ab_is_serializable: p_store_ab => Ser,
    p_store_paxos_is_serializable: p_store_paxos => Ser,
    gmu_star_reads_committed: gmu_star => Rc,
    read_atomic_is_unfractured: read_atomic => Ra,
}

/// The history the oracle reads is every coordinator's outcome log, whole:
/// one transaction per coordinated decision, the committed ones included
/// exactly as often as the replicas counted them.
#[test]
fn the_history_holds_every_coordinated_transaction() {
    for spec in gdur_protocols::all_protocols() {
        let name = spec.name;
        let cluster = run_contended(spec, false, 7);
        let history = History::from_cluster(&cluster);
        let stats = cluster.replica_stats();
        let committed = history.committed().count() as u64;
        assert_eq!(history.txns.len() as u64, stats.coordinated, "{name}");
        assert_eq!(committed, stats.committed, "{name}");
        assert_eq!(history.txns.len(), cluster.records().len(), "{name}");
    }
}

/// The brutal-contention scenario: 12 keys, 4 clients on each of 3 sites,
/// 25 transactions each, run to idle.
fn run_brutal(spec: ProtocolSpec) -> Cluster {
    let mut cfg = ClusterConfig::small(spec, 3);
    cfg.keys_per_partition = 4; // 12 keys total: brutal contention
    cfg.clients_per_site = 4;
    cfg.max_txns_per_client = Some(25);
    cfg.record_history = true;
    let mut cluster = Cluster::build(cfg, move |_, site| {
        Box::new(YcsbSource::new(
            WorkloadSpec::a(),
            12,
            3,
            site.0 as u64 % 3,
            0.2,
        ))
    });
    cluster.run_until_idle();
    cluster
}

/// The SI-family protocols must also prevent lost updates under heavy
/// write-write contention on a handful of keys.
#[test]
fn si_family_prevents_lost_updates_under_heavy_contention() {
    for spec in [
        gdur_protocols::walter(),
        gdur_protocols::jessy_2pc(),
        gdur_protocols::serrano(),
    ] {
        let name = spec.name;
        let cluster = run_brutal(spec);
        let history = History::from_cluster(&cluster);
        check_first_committer_wins(&history)
            .unwrap_or_else(|v| panic!("{name} lost an update: {v}"));
        let aborted = cluster.records().iter().filter(|r| !r.committed).count();
        assert!(
            aborted > 0,
            "{name}: contention scenario produced no aborts"
        );
    }
}

/// The negative control: Read Committed certifies nothing, so in the same
/// scenario two of its writers supersede one version, and the check says so.
#[test]
fn read_committed_loses_updates_under_heavy_contention() {
    let cluster = run_brutal(gdur_protocols::read_committed());
    let verdict = check_first_committer_wins(&History::from_cluster(&cluster));
    assert!(
        matches!(verdict, Err(Violation::LostUpdate { .. })),
        "Read Committed kept first-committer-wins: {verdict:?}"
    );
}
