//! Parked reads wake on the event they wait for (Algorithm 1, lines 13–14).
//! A read that cannot be served on arrival — the replica is catching up
//! after a restart, or its visibility frontier lags the snapshot — waits
//! on that condition and is taken up again when it changes, not on a
//! timer: `ReplicaStats::reads_parked` counts the reads,
//! `parked_read_checks` the times one was looked at again, and at idle
//! nothing is left parked.

use gdur_harness::{
    run_checked, Deployment, Experiment, FaultSchedule, Horizon, PlacementKind, Scale, WorkloadKind,
};
use gdur_obs::TraceHandle;
use gdur_sim::SimDuration;

/// Reads that reach site 1 during its catch-up wait for
/// `recovery.complete` and are each looked at exactly once more, however
/// long the transfer takes.
#[test]
fn a_recovery_wakes_its_parked_reads_once() {
    for (crash_ms, restart_ms) in [(350, 900), (1000, 4000)] {
        let schedule = FaultSchedule::new()
            .crash(1, crash_ms)
            .restart(1, restart_ms);
        // Enough closed-loop load that reads reach site 1 during its
        // catch-up (at the CI default of 2 clients the transfer ends
        // before one does).
        let mut dep = Deployment::new(gdur_protocols::p_store_2pc(), schedule);
        (dep.clients_per_site, dep.horizon) = (32, Horizon::Drain(200));
        let run = run_checked(&dep, None, Some(TraceHandle::new())).expect_clean(&dep.label);
        assert_eq!(run.recoveries().completes, 1);
        let stats = run.cluster.replica_stats();
        assert!(
            stats.reads_parked > 0,
            "no read was parked while site 1 caught up"
        );
        assert_eq!(
            stats.parked_read_checks, stats.reads_parked,
            "a parked read was looked at more (or less) than once"
        );
        assert_eq!(run.cluster.parked_reads(), 0);
    }
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
    let mut cluster = exp.deployment(&Scale::quick(), 4).build();
    cluster.run_for(SimDuration::from_millis(500));
    let stats = cluster.replica_stats();
    assert!(stats.committed > 0);
    assert_eq!(stats.reads_parked, 0);
}

/// The frontier-lag path: under vote-time commit clocks a GMU replica can
/// be asked for a partition whose frontier is still below what the
/// snapshot already admits (the sibling install is in flight). The read
/// waits for that frontier advance and is served in the handler that makes
/// it. The load is the `Scale::quick()` point of GMU / workload B / 70 %
/// read-only / 4 sites DT at 128 clients per site, bounded so it drains.
#[test]
fn a_read_behind_the_frontier_waits_for_the_advance() {
    let gmu = gdur_protocols::gmu();
    let exp = Experiment::new(gmu, WorkloadKind::B, 0.7, 4, PlacementKind::Dt);
    let dep = Deployment {
        horizon: Horizon::Drain(20),
        ..exp.deployment(&Scale::quick(), 128)
    };
    let run = run_checked(&dep, None, None).expect_clean(&dep.label);
    let cluster = &run.cluster;
    assert_eq!(cluster.records().len(), 4 * 128 * 20);
    let stats = cluster.replica_stats();
    assert!(
        stats.reads_parked >= 1,
        "no read arrived behind the frontier"
    );
    assert!(stats.parked_read_checks >= stats.reads_parked);
    assert_eq!(cluster.parked_reads(), 0);
}
