//! Crash–recovery edge cases (§5.3): the lifecycle must leave no stuck
//! transactions and a verifiable history no matter where in the protocol
//! the crash lands.
//!
//! Every scenario runs through [`gdur_harness::run_chaos`], which keeps
//! the invariant bundle in the loop: history verification, cross-replica
//! store convergence, and the abort-cause partition.
//! `recovery_support_matrix` is the contract of DESIGN.md §3.7: every
//! assembly of the library either recovers, at the size where recovery
//! bugs show, or is refused.

use gdur_harness::{chaos_library, run_chaos, Deployment, FaultSchedule, Horizon};
use gdur_protocols::{all_protocols, p_store_2pc, p_store_ab, p_store_paxos};

/// Expected client-visible record count: every closed-loop transaction
/// must reach *some* decision (commit, certification abort, or a
/// crash-timeout abort) — a shortfall means a transaction is stuck.
fn expected_records(cfg: &Deployment) -> u64 {
    let txns = cfg.horizon.txns_per_client().expect("a chaos run drains");
    (cfg.sites * cfg.clients_per_site) as u64 * txns
}

fn run_and_check(cfg: Deployment) -> gdur_harness::ChaosReport {
    let (report, _events) = run_chaos(&cfg);
    assert_eq!(
        report.committed + report.aborted,
        expected_records(&cfg),
        "{}: stuck transactions (some clients never finished)",
        report.label
    );
    assert!(
        report.violation.is_none(),
        "{}: history violation: {:?}",
        report.label,
        report.violation
    );
    report
}

/// A crash in the middle of a busy workload lands between WAL appends and
/// their termination sends for whatever was in flight; restart must replay
/// the log, resubmit the undecided terminations, and finish every
/// transaction.
#[test]
fn crash_between_wal_append_and_termination_send() {
    let schedule = FaultSchedule::new().crash(1, 350).restart(1, 900);
    let report = run_and_check(Deployment::new(p_store_2pc(), schedule));
    assert_eq!(report.crashes, 1);
    assert_eq!(report.replays, 1, "restart must replay the WAL");
    assert!(
        report.resubmissions > 0,
        "no undecided termination was resubmitted; the schedule missed the \
         append-to-send window"
    );
    assert!(report.converged, "stores diverged after recovery");
    assert!(
        report.post_restart_commits > 0,
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
    let report = run_and_check(Deployment::new(p_store_paxos(), schedule));
    assert_eq!(report.crashes, 1);
    assert_eq!(report.replays, 1);
    assert_eq!(
        report.recovery_completes, 1,
        "catch-up never completed despite the heal"
    );
    assert!(report.converged, "stores diverged after recovery");
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
    let report = run_and_check(Deployment::new(p_store_2pc(), schedule));
    assert_eq!(report.crashes, 2);
    assert_eq!(report.restarts, 2);
    assert_eq!(report.replays, 2, "each restart must replay the WAL");
    assert_eq!(report.recovery_completes, 2);
    assert!(
        report.converged,
        "stores diverged after the second recovery"
    );
    assert!(report.post_restart_commits > 0);
}

/// A coordinator crashing mid-vote (GC distributed voting, where the
/// coordinator decides from votes alone) and never coming back: its
/// clients' in-flight operations time out with a crash abort instead of
/// hanging, and the peers terminate every transaction via coverage.
#[test]
fn coordinator_crash_mid_vote() {
    let cfg = Deployment::new(p_store_ab(), FaultSchedule::new().crash(1, 400));
    let report = run_and_check(cfg);
    assert_eq!((report.crashes, report.restarts), (1, 0));
    // The crash-timeout path must actually have fired for the dead
    // coordinator's clients: that is what "no stuck transactions" means
    // while the replica is down.
    assert!(
        report.aborted > 0,
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
        let run = |schedule: &FaultSchedule| {
            let mut cfg = Deployment::new(spec.clone(), schedule.clone());
            (cfg.clients_per_site, cfg.horizon) = (16, Horizon::Drain(200));
            run_and_check(cfg)
        };
        // The dead replica's store is stale by definition: only safety and
        // termination are at stake.
        run(&crash);
        let report = run(&cut);
        assert!(report.ok(&spec), "{}", report.golden_line());
    }
}

/// The support matrix, column "crash + restart": an assembly either recovers
/// — the library schedule at the CI size and at 16 × 200, where the bugs
/// live (ROADMAP item 10), leaves no transaction undecided, no criterion
/// violation and, where certification orders writes, converged stores — or
/// `run_chaos` refuses the schedule with the diagnostic of
/// `recovery_support`. There is no third state.
#[test]
fn recovery_support_matrix() {
    let schedule = chaos_library()[0].schedule.clone();
    for spec in all_protocols() {
        let mut cfg = Deployment::new(spec, schedule.clone());
        if let Err(refusal) = cfg.spec.recovery_support() {
            assert_eq!(refusal.code, "E-RECOVERY-GC");
            let panic = std::panic::catch_unwind(|| run_chaos(&cfg))
                .expect_err("a refused assembly must not run a restart");
            let msg = panic.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains(refusal.code), "{}: {msg}", cfg.label);
            continue;
        }
        for (clients, txns) in [(2, 30), (16, 200)] {
            for seed in [7, 11] {
                (cfg.clients_per_site, cfg.seed) = (clients, seed);
                cfg.horizon = Horizon::Drain(txns);
                let report = run_and_check(cfg.clone());
                assert!(
                    report.ok(&cfg.spec) && report.recovery_completes == 1,
                    "{clients} x {txns}, seed {seed}: {}",
                    report.golden_line()
                );
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
    for mut cfg in chaos_library() {
        (cfg.clients_per_site, cfg.horizon) = (16, Horizon::Drain(200));
        let report = run_and_check(cfg);
        assert_eq!(report.recovery_completes, 1, "{}", report.label);
        assert!(report.catchup_pages > 0, "{}", report.label);
        assert!(
            report.catchup_records_unchanged <= 256,
            "{}: {} of {} shipped records changed nothing",
            report.label,
            report.catchup_records_unchanged,
            report.catchup_records_shipped
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
    let mut cfg = Deployment::new(p_store_paxos(), schedule);
    (cfg.clients_per_site, cfg.horizon) = (16, Horizon::Drain(100));
    let report = run_and_check(cfg);
    assert_eq!(report.recovery_completes, 1);
    assert!(report.converged, "stores diverged after recovery");
    assert!(report.catchup_installs > 0);
    // Site 1 crashed; sites 0 and 2 served it.
    let peers: u64 = report.wal_records[0] + report.wal_records[2];
    assert!(
        report.catchup_records_decoded <= 2 * peers,
        "catch-up decoded {} records to serve from logs of {peers}",
        report.catchup_records_decoded
    );
}
