//! Crash–recovery edge cases (§5.3): the lifecycle must leave no stuck
//! transactions and a verifiable history no matter where in the protocol
//! the crash lands.
//!
//! Every scenario runs through [`gdur_harness::run_checked`], which keeps
//! the invariant bundle in the loop: history verification, cross-replica
//! store convergence once every crashed replica is back, and the
//! abort-cause partition.
//! `recovery_support_matrix` is the contract of DESIGN.md §3.7: every
//! assembly of the library either recovers, at the size where recovery
//! bugs show, or is refused.

use gdur_core::ReplicaStats;
use gdur_harness::{chaos_library, run_checked, CheckedRun, Deployment, FaultSchedule, Horizon};
use gdur_net::SiteId;
use gdur_obs::TraceHandle;
use gdur_protocols::{all_protocols, p_store_2pc, p_store_ab, p_store_paxos};

/// Runs `dep` traced and asserts its verdict is clean and that every
/// closed-loop transaction reached *some* decision (commit, certification
/// abort, or a crash-timeout abort) — a shortfall means a transaction is
/// stuck. Returns the run and its summed replica counters.
fn run_and_check(dep: &Deployment) -> (CheckedRun, ReplicaStats) {
    let run = run_checked(dep, None, Some(TraceHandle::new()));
    let txns = dep.horizon.txns_per_client().expect("a chaos run drains");
    assert_eq!(
        run.cluster.records().len() as u64,
        (dep.sites * dep.clients_per_site) as u64 * txns,
        "{}: stuck transactions (some clients never finished)",
        dep.label
    );
    assert!(
        run.violations.is_empty(),
        "{}: {:?}",
        dep.label,
        run.violations
    );
    let stats = run.cluster.replica_stats();
    (run, stats)
}

/// A crash in the middle of a busy workload lands between WAL appends and
/// their termination sends for whatever was in flight; restart must replay
/// the log, resubmit the undecided terminations, and finish every
/// transaction.
#[test]
fn crash_between_wal_append_and_termination_send() {
    let schedule = FaultSchedule::new().crash(1, 350).restart(1, 900);
    let (run, stats) = run_and_check(&Deployment::new(p_store_2pc(), schedule));
    let r = run.recoveries();
    assert_eq!(r.crashes, 1);
    assert_eq!(stats.recoveries, 1, "restart must replay the WAL");
    assert!(
        stats.resubmissions > 0,
        "no undecided termination was resubmitted; the schedule missed the \
         append-to-send window"
    );
    assert!(
        r.post_restart_commits > 0,
        "the recovered replica never committed again"
    );
}

/// Restarting while a link to a catch-up peer is cut: the transfer must
/// ride out the partition (the retry timer asks the peer again) and still
/// converge once the link heals.
#[test]
fn restart_during_active_partition() {
    let schedule = FaultSchedule::new()
        .crash(1, 300)
        .partition(0, 1, 500)
        .restart(1, 700)
        .heal(0, 1, 1_500);
    let (run, stats) = run_and_check(&Deployment::new(p_store_paxos(), schedule));
    let r = run.recoveries();
    assert_eq!((r.crashes, stats.recoveries), (1, 1));
    assert_eq!(r.completes, 1, "catch-up never completed despite the heal");
}

/// The same replica crashes twice; each restart replays the WAL laid down
/// so far (including what the first recovery re-logged) and catch-up
/// completes both times.
#[test]
fn double_crash_of_same_replica() {
    let schedule = FaultSchedule::new()
        .crash(1, 300)
        .restart(1, 600)
        .crash(1, 900)
        .restart(1, 1_300);
    let (run, stats) = run_and_check(&Deployment::new(p_store_2pc(), schedule));
    let r = run.recoveries();
    assert_eq!((r.crashes, r.restarts), (2, 2));
    assert_eq!(stats.recoveries, 2, "each restart must replay the WAL");
    assert_eq!(r.completes, 2);
    assert!(r.post_restart_commits > 0);
}

/// A coordinator crashing mid-vote (GC distributed voting, where the
/// coordinator decides from votes alone) and never coming back: its
/// clients' in-flight operations time out with a crash abort instead of
/// hanging, and the peers terminate every transaction via coverage.
#[test]
fn coordinator_crash_mid_vote() {
    let dep = Deployment::new(p_store_ab(), FaultSchedule::new().crash(1, 400));
    let (run, _) = run_and_check(&dep);
    let r = run.recoveries();
    assert_eq!((r.crashes, r.restarts), (1, 0));
    // The crash-timeout path must actually have fired for the dead
    // coordinator's clients: that is what "no stuck transactions" means
    // while the replica is down.
    assert!(
        run.cluster.records().iter().any(|t| !t.committed),
        "no client observed the coordinator crash"
    );
}

/// The support matrix, columns "participant crash without restart" and
/// "partition": every assembly of the library stays safe and leaves no
/// transaction undecided, at the size where the bugs live, when site 1 dies
/// for good and when the link between sites 0 and 2 is cut for 300 ms.
/// The size matters: with a vote timeout under group communication — which
/// `Cluster::build` refuses for this reason — the cut makes the replicas of
/// Serrano and P-Store-AB diverge at 16 × 200 and never at 2 × 30.
#[test]
fn the_library_survives_a_crash_and_a_partition() {
    let crash = FaultSchedule::new().crash(1, 400);
    let cut = FaultSchedule::new().partition(0, 2, 600).heal(0, 2, 900);
    for spec in all_protocols() {
        for schedule in [&crash, &cut] {
            let mut dep = Deployment::new(spec.clone(), schedule.clone());
            (dep.clients_per_site, dep.horizon) = (16, Horizon::Drain(200));
            // The dead replica's store is stale by definition: its verdict
            // holds the history and the abort causes, not convergence.
            run_and_check(&dep);
        }
    }
}

/// The support matrix, column "crash + restart": an assembly either recovers
/// — the library schedule at the CI size and at 16 × 200, where the bugs
/// live (ROADMAP item 10), leaves no transaction undecided, no criterion
/// violation and, where certification orders writes, converged stores — or
/// `run_checked` refuses the schedule with the diagnostic of
/// `recovery_support`. There is no third state.
#[test]
fn recovery_support_matrix() {
    let schedule = chaos_library()[0].schedule.clone();
    for spec in all_protocols() {
        let mut dep = Deployment::new(spec, schedule.clone());
        if let Err(refusal) = dep.spec.recovery_support() {
            assert_eq!(refusal.code, "E-RECOVERY-GC");
            let panic = std::panic::catch_unwind(|| run_checked(&dep, None, None).violations)
                .expect_err("a refused assembly must not run a restart");
            let msg = panic.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains(refusal.code), "{}: {msg}", dep.label);
            continue;
        }
        for (clients, txns) in [(2, 30), (16, 200)] {
            for seed in [7, 11] {
                (dep.clients_per_site, dep.seed) = (clients, seed);
                dep.horizon = Horizon::Drain(txns);
                let completes = run_and_check(&dep).0.recoveries().completes;
                assert_eq!(completes, 1, "{clients} x {txns}, seed {seed}");
            }
        }
    }
}

/// A restart under commitment by group communication is refused where it
/// happens, too: a deployment driven without the harness cannot slip a
/// rejoin past the matrix.
#[test]
#[should_panic(expected = "E-RECOVERY-GC")]
fn a_group_communication_replica_refuses_to_restart() {
    let mut cluster = gdur_harness::build_ycsb(
        gdur_core::ClusterConfig {
            persistence: true,
            max_txns_per_client: Some(5),
            ..gdur_core::ClusterConfig::small(gdur_protocols::p_store(), 3)
        },
        &gdur_workload::WorkloadSpec::a(),
        0.5,
        0.0,
    );
    let victim = cluster.replica_pids()[1];
    cluster
        .sim_mut()
        .schedule_crash(victim, gdur_sim::SimTime::ZERO);
    cluster
        .sim_mut()
        .schedule_restart(victim, gdur_sim::SimTime::ZERO);
    cluster.run_until_idle();
}

/// Catch-up ships what the restarted replica lacks: on the library
/// schedule, every assembly that restarts ships only records whose replay
/// changes the requester, but for at most one page of records that its
/// summary, fixed when the transfer started, could not rule out — a
/// decision both peers ship, or one that arrived live meanwhile (41, 52
/// and 97 records). Shipping each peer's log whole from record 0 let 891,
/// 589 and 576 through.
#[test]
fn catchup_ships_at_most_one_page_of_records_the_replica_held() {
    for mut dep in chaos_library() {
        (dep.clients_per_site, dep.horizon) = (16, Horizon::Drain(200));
        let (run, stats) = run_and_check(&dep);
        assert_eq!(run.recoveries().completes, 1, "{}", dep.label);
        assert!(stats.catchup_pages > 0, "{}", dep.label);
        assert!(
            stats.catchup_records_unchanged <= 256,
            "{}: {} of {} shipped records changed nothing",
            dep.label,
            stats.catchup_records_unchanged,
            stats.catchup_records_shipped
        );
    }
}

/// Serving catch-up costs the host what it reads, not pages × log: a page
/// reads the peer's log from its start record and stops when full. The
/// library's crash → partition → heal → restart schedule, moved late enough
/// that the peers' logs are many pages long when the transfer starts,
/// examines each peer record at most once — 11 278 records against peer
/// logs of 7 592 + 7 627, for 2 pages of what the replica lacked. Before
/// `Wal::scan_from` every one of the 32 pages, each log shipped whole,
/// decoded its peer's whole log: 181 191.
#[test]
fn catchup_decodes_a_linear_number_of_log_records() {
    let schedule = FaultSchedule::new()
        .crash(1, 5_000)
        .partition(0, 2, 5_500)
        .heal(0, 2, 6_000)
        .restart(1, 8_000);
    let mut dep = Deployment::new(p_store_paxos(), schedule);
    (dep.clients_per_site, dep.horizon) = (16, Horizon::Drain(100));
    let (run, stats) = run_and_check(&dep);
    assert_eq!(run.recoveries().completes, 1);
    assert!(stats.catchup_installs > 0);
    // Site 1 crashed; sites 0 and 2 served it.
    let wal = |site| {
        run.cluster
            .replica(SiteId(site))
            .wal()
            .map_or(0, |w| w.len())
    };
    let peers = wal(0) + wal(2);
    assert!(
        stats.catchup_records_decoded <= 2 * peers,
        "catch-up decoded {} records to serve from logs of {peers}",
        stats.catchup_records_decoded
    );
}
