//! The deferred-read poll as a number (ROADMAP item 1, customer (c)): a
//! read that cannot be served yet is parked on a 500 µs timer and re-parked
//! at every fire until it can, so a recovery polls every parked read for
//! its whole length. `ReplicaStats::deferred_read_retries` counts the
//! parkings.

use gdur_harness::{
    build_point, run_chaos, ChaosConfig, Experiment, FaultSchedule, PlacementKind, Scale,
    WorkloadKind,
};
use gdur_sim::SimDuration;

#[test]
fn a_recovery_polls_its_parked_reads() {
    let schedule = FaultSchedule::new().crash(1, 350).restart(1, 900);
    // Enough closed-loop load that reads reach site 1 during its catch-up
    // (at the CI default of 2 clients the transfer ends before one does).
    let mut cfg = ChaosConfig::new(gdur_protocols::p_store_2pc(), schedule);
    cfg.clients_per_site = 32;
    cfg.txns_per_client = 200;
    let (report, _events) = run_chaos(&cfg);
    assert!(report.ok(), "{}", report.golden_line());
    assert_eq!(report.recovery_completes, 1);
    assert!(
        report.deferred_read_retries > 0,
        "no read was parked while site 1 caught up"
    );
}

#[test]
fn a_fault_free_p_store_run_never_parks_a_read() {
    let exp = Experiment::new(
        gdur_protocols::p_store(),
        WorkloadKind::A,
        0.5,
        3,
        PlacementKind::Dp,
    );
    let mut cluster = build_point(&exp, &Scale::quick(), 4);
    cluster.run_for(SimDuration::from_millis(500));
    let stats = cluster.replica_stats();
    assert!(stats.committed > 0);
    assert_eq!(stats.deferred_read_retries, 0);
}
