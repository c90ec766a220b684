//! Every protocol of the library, run on a contended geo-replicated
//! deployment, must uphold the consistency criterion the paper assigns it
//! (§6) — in both the disaster-prone and disaster-tolerant placements —
//! and the rest of the invariant bundle: converged stores and the
//! abort-cause partition.

use gdur_consistency::{check_first_committer_wins, Criterion, History, Violation};
use gdur_core::ProtocolSpec;
use gdur_harness::{run_checked, CheckedRun, Deployment, FaultSchedule, Horizon, PlacementKind};

/// Three sites, three clients each, 30 transactions per client on a small
/// keyspace — real contention, so aborts exercise certification — drained.
fn contended(spec: ProtocolSpec, placement: PlacementKind, seed: u64) -> Deployment {
    Deployment {
        placement,
        clients_per_site: 3,
        keys_per_partition: 40,
        seed,
        ..Deployment::new(spec, FaultSchedule::new())
    }
}

/// Runs `dep` and asserts a clean verdict.
fn run_clean(dep: &Deployment) -> CheckedRun {
    run_checked(dep, None, None).expect_clean(&dep.label)
}

fn run_contended(spec: ProtocolSpec, criterion: Criterion, placement: PlacementKind, seed: u64) {
    let name = spec.name;
    assert_eq!(spec.criterion, criterion, "{name} claims another criterion");
    let run = run_clean(&contended(spec, placement, seed));
    assert_eq!(
        run.cluster.records().len(),
        3 * 3 * 30,
        "{name}: liveness violated ({placement:?})"
    );
}

macro_rules! criterion_tests {
    ($($test:ident: $proto:ident => $crit:ident),+ $(,)?) => {
        $(
            mod $test {
                use super::*;

                #[test]
                fn disaster_prone() {
                    run_contended(gdur_protocols::$proto(), Criterion::$crit, PlacementKind::Dp, 7);
                }

                #[test]
                fn disaster_tolerant() {
                    run_contended(gdur_protocols::$proto(), Criterion::$crit, PlacementKind::Dt, 11);
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
        let cluster = run_clean(&contended(spec, PlacementKind::Dp, 7)).cluster;
        let history = History::from_cluster(&cluster);
        let stats = cluster.replica_stats();
        let committed = history.committed().count() as u64;
        assert_eq!(history.txns.len() as u64, stats.coordinated, "{name}");
        assert_eq!(committed, stats.committed, "{name}");
        assert_eq!(history.txns.len(), cluster.records().len(), "{name}");
    }
}

/// The brutal-contention scenario: 12 keys, 4 clients on each of 3 sites,
/// 25 transactions each at 20 % read-only, drained.
fn brutal(spec: ProtocolSpec) -> Deployment {
    Deployment {
        read_only_ratio: 0.2,
        clients_per_site: 4,
        keys_per_partition: 4, // 12 keys total: brutal contention
        seed: 42,
        horizon: Horizon::Drain(25),
        ..Deployment::new(spec, FaultSchedule::new())
    }
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
        let cluster = run_clean(&brutal(spec)).cluster;
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
    let cluster = run_clean(&brutal(gdur_protocols::read_committed())).cluster;
    let verdict = check_first_committer_wins(&History::from_cluster(&cluster));
    assert!(
        matches!(verdict, Err(Violation::LostUpdate { .. })),
        "Read Committed kept first-committer-wins: {verdict:?}"
    );
}
