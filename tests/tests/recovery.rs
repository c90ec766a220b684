//! Crash–recovery edge cases (§5.3): the lifecycle must leave no stuck
//! transactions and a verifiable history no matter where in the protocol
//! the crash lands.
//!
//! Every scenario runs through [`gdur_harness::run_chaos`], which keeps
//! the always-on history verification and the cross-replica store
//! convergence check in the loop.

use gdur_harness::{run_chaos, ChaosConfig, FaultSchedule};
use gdur_protocols::{p_store_2pc, p_store_ab, p_store_paxos};

/// Expected client-visible record count: every closed-loop transaction
/// must reach *some* decision (commit, certification abort, or a
/// crash-timeout abort) — a shortfall means a transaction is stuck.
fn expected_records(cfg: &ChaosConfig) -> u64 {
    (cfg.sites * cfg.clients_per_site) as u64 * cfg.txns_per_client
}

fn run_and_check(cfg: ChaosConfig) -> gdur_harness::ChaosReport {
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
    let report = run_and_check(ChaosConfig::new(p_store_2pc(), schedule));
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
/// ride out the partition (retry timers rotate peers) and still converge
/// once the link heals.
#[test]
fn restart_during_active_partition() {
    let schedule = FaultSchedule::new()
        .crash(1, 300)
        .partition(0, 1, 500)
        .restart(1, 700)
        .heal(0, 1, 1_500);
    let report = run_and_check(ChaosConfig::new(p_store_paxos(), schedule));
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
    let report = run_and_check(ChaosConfig::new(p_store_2pc(), schedule));
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
/// coordinator decides from votes alone): its clients' in-flight
/// operations time out with a crash abort instead of hanging, peers
/// terminate via coverage, and after the late restart the stores converge.
#[test]
fn coordinator_crash_mid_vote() {
    let schedule = FaultSchedule::new().crash(1, 400).restart(1, 2_000);
    let cfg = ChaosConfig::new(p_store_ab(), schedule);
    let (report, _events) = run_chaos(&cfg);
    assert_eq!(
        report.committed + report.aborted,
        expected_records(&cfg),
        "stuck transactions"
    );
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.converged, "stores diverged after recovery");
    // The crash-timeout path must actually have fired for the dead
    // coordinator's clients: that is what "no stuck transactions" means
    // while the replica is down.
    assert!(
        report.aborted > 0,
        "no client observed the coordinator crash"
    );
    assert!(report.post_restart_commits > 0);
}

/// Known failing configuration (benchmark/README.md (b)): the library's
/// P-Store-AB schedule at 32 clients/site × 400 txns over 10⁴ keys/partition
/// ends with `converged=false`; 8 × 100 and 16 × 200 converge.
#[test]
#[ignore = "known failure: P-Store-AB 32x400 ends with diverged stores"]
fn p_store_ab_library_schedule_converges_at_32_clients_per_site() {
    let mut cfg = gdur_harness::chaos_library()
        .into_iter()
        .find(|c| c.spec.name == p_store_ab().name)
        .expect("the library covers P-Store-AB");
    cfg.clients_per_site = 32;
    cfg.txns_per_client = 400;
    cfg.keys_per_partition = 10_000;
    let (report, _events) = run_chaos(&cfg);
    assert!(report.converged, "{}", report.golden_line());
}

/// Serving catch-up costs the host what it ships, not pages × log: a page
/// reads the peer's log from its start record and stops when full. The
/// library's crash → partition → heal → restart schedule, moved late enough
/// that the peers' logs are many pages long when the transfer starts,
/// decodes each peer record about once — 11 375 records against peer logs
/// of 7 566 + 7 598. Before `Wal::scan_from` every one of the 32 pages
/// decoded its peer's whole log: 181 191.
#[test]
fn catchup_decodes_a_linear_number_of_log_records() {
    let schedule = FaultSchedule::new()
        .crash(1, 5_000)
        .partition(0, 2, 5_500)
        .heal(0, 2, 6_000)
        .restart(1, 8_000);
    let mut cfg = ChaosConfig::new(p_store_paxos(), schedule);
    cfg.clients_per_site = 16;
    cfg.txns_per_client = 100;
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
