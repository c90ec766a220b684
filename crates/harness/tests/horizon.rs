//! The horizon rule of a checked run: a windowed run stops at
//! `warmup + measure`, and store convergence is judged on a drained run
//! whose crashed replicas all restart — a run stopped at its window still
//! has installs in flight, and a replica that stays down is stale, so
//! replicas that differ there are not a violation.

use gdur_harness::{run_checked, stores_converged, Deployment, FaultSchedule, Horizon};
use gdur_harness::{PlacementKind, WorkloadKind};
use gdur_sim::SimDuration;

/// `spec` at 8 clients/site under `schedule`, warmed up 100 ms and
/// measured 300 ms.
fn windowed(spec: gdur_core::ProtocolSpec, schedule: FaultSchedule) -> Deployment {
    let ms = SimDuration::from_millis;
    Deployment {
        clients_per_site: 8,
        horizon: Horizon::Window {
            warmup: ms(100),
            measure: ms(300),
        },
        ..Deployment::new(spec, schedule)
    }
}

#[test]
fn convergence_is_judged_on_a_drained_run_only() {
    let mut dep = windowed(gdur_protocols::walter(), FaultSchedule::new());
    dep.placement = PlacementKind::Dt;
    dep.workload = WorkloadKind::B.spec(dep.keys_per_partition * dep.sites as u64);
    assert!(dep.spec.orders_write_conflicts());
    let stopped = run_checked(&dep, None, None);
    assert!(stopped.cluster.replica_stats().committed > 0);
    assert!(
        !stores_converged(&stopped.cluster),
        "the replicas must differ at the horizon for this test to pin anything"
    );
    assert_eq!(stopped.violations, Vec::<String>::new());

    dep.horizon = Horizon::Drain(20);
    let drained = run_checked(&dep, None, None);
    assert!(stores_converged(&drained.cluster));
    assert_eq!(drained.violations, Vec::<String>::new());
}

/// A replica that crashes for good misses what its peers install after
/// the crash: the drained run's stores differ, and that is no verdict.
#[test]
fn a_replica_down_for_good_gets_no_convergence_verdict() {
    let crash = FaultSchedule::new().crash(1, 100);
    let mut dep = Deployment::new(gdur_protocols::p_store_2pc(), crash);
    assert!(dep.spec.orders_write_conflicts());
    let run = run_checked(&dep, None, None);
    assert!(
        !stores_converged(&run.cluster),
        "the dead replica must be stale for this test to pin anything"
    );
    assert_eq!(run.violations, Vec::<String>::new());
    dep.schedule = dep.schedule.restart(1, 600);
    assert!(stores_converged(&run_checked(&dep, None, None).cluster));
}

/// A link event past the horizon never happens, and nothing is decided
/// after it.
#[test]
fn a_windowed_run_stops_at_its_horizon() {
    let schedule = FaultSchedule::new().partition(0, 2, 500).heal(0, 2, 600);
    let dep = windowed(gdur_protocols::p_store_2pc(), schedule);
    let run = run_checked(&dep, None, None);
    let end = run.window_start + SimDuration::from_millis(300);
    assert_eq!(run.cluster.now(), end);
    assert!(run.cluster.records().iter().all(|r| r.decided_at <= end));
}
