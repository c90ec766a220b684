//! Abort-cause taxonomy tests (observability layer): each forced failure
//! mode must surface the right [`AbortCause`] on both the client-side
//! `TxnRecord` and the replica counters, and the per-cause counters must
//! partition `aborted` exactly — no abort is ever uncounted or
//! double-counted.

use gdur_core::{AbortCause, Cluster, ClusterConfig, PlanOp, ProtocolSpec, ScriptSource, TxnPlan};
use gdur_sim::{SimDuration, SimTime};
use gdur_store::{Key, Placement};

/// The partition identity: per-cause counters sum to `aborted`, and a
/// record carries a cause exactly when it aborted.
fn assert_partition(cluster: &Cluster) {
    let s = cluster.replica_stats();
    assert_eq!(
        s.aborted,
        s.aborted_by_cause.iter().sum::<u64>(),
        "abort causes must partition `aborted`: {s:?}"
    );
    for r in cluster.records() {
        assert_eq!(
            r.committed,
            r.cause.is_none(),
            "cause must be present iff the transaction aborted: {r:?}"
        );
    }
}

/// Every client hammers the same key with read-modify-writes, so losers of
/// concurrent certification must abort with `CertificationConflict`.
fn run_contended(spec: ProtocolSpec) -> Cluster {
    let mut cfg = ClusterConfig::small(spec, 3);
    cfg.clients_per_site = 2;
    cfg.max_txns_per_client = Some(15);
    let plans = vec![TxnPlan {
        ops: vec![PlanOp::Read(Key(0)), PlanOp::Update(Key(1))],
    }];
    let mut cluster = Cluster::build(cfg, move |_, _| Box::new(ScriptSource::new(plans.clone())));
    cluster.run_until_idle();
    cluster
}

#[test]
fn forced_cert_conflicts_surface_certification_conflict() {
    let mut any_aborts = 0u64;
    for spec in [
        gdur_protocols::jessy_2pc(),
        gdur_protocols::p_store(),
        gdur_protocols::walter(),
        gdur_protocols::s_dur(),
    ] {
        let name = spec.name;
        let cluster = run_contended(spec);
        assert_partition(&cluster);
        let s = cluster.replica_stats();
        // Crash-free run with unbounded reads: conflicts are the only cause.
        assert_eq!(
            s.aborted_by_cause.iter().sum::<u64>()
                - s.aborted_by_cause[AbortCause::CertificationConflict.code() as usize],
            0,
            "{name}: crash-free contention must only yield cert conflicts: {s:?}"
        );
        for r in cluster.records() {
            if !r.committed {
                assert_eq!(
                    r.cause,
                    Some(AbortCause::CertificationConflict),
                    "{name}: wrong cause on record {r:?}"
                );
            }
        }
        any_aborts += s.aborted;
    }
    assert!(
        any_aborts > 0,
        "contended workload produced no aborts at all"
    );
}

#[test]
fn contended_2pc_actually_aborts() {
    let cluster = run_contended(gdur_protocols::jessy_2pc());
    let s = cluster.replica_stats();
    assert!(
        s.aborted_by_cause[AbortCause::CertificationConflict.code() as usize] > 0,
        "six clients RMW-ing one key under 2PC must conflict: {s:?}"
    );
}

/// A crashed participant under disaster-tolerant placement: the coordinator
/// reads key 1 from the surviving replica (site 2), but 2PC needs *all*
/// replicas of the write set to vote, and site 1 never answers — the vote
/// timeout fires and the abort is attributed to `VoteTimeout`.
#[test]
fn crashed_participant_surfaces_vote_timeout() {
    let mut cfg = ClusterConfig::small(gdur_protocols::jessy_2pc(), 3);
    cfg.placement = Placement::disaster_tolerant(3);
    cfg.vote_timeout = Some(SimDuration::from_millis(600));
    cfg.max_txns_per_client = Some(2);
    let mut cluster = Cluster::build(cfg, |_, site| {
        let plans = if site.0 == 0 {
            // Key 1 lives on sites {1, 2}; site 1 is crashed below.
            vec![TxnPlan {
                ops: vec![PlanOp::Update(Key(1))],
            }]
        } else {
            vec![TxnPlan {
                ops: vec![PlanOp::Read(Key(0))],
            }]
        };
        Box::new(ScriptSource::new(plans))
    });
    let dead = cluster.replica_pids()[1];
    cluster.sim_mut().schedule_crash(dead, SimTime::ZERO);
    cluster.run_until_idle();

    let s = cluster.replica_stats();
    assert!(
        s.aborted_by_cause[AbortCause::VoteTimeout.code() as usize] > 0,
        "expected vote-timeout aborts: {s:?}"
    );
    assert!(
        cluster
            .records()
            .iter()
            .any(|r| r.cause == Some(AbortCause::VoteTimeout)),
        "no record carries the VoteTimeout cause"
    );
    assert_partition(&cluster);
}

/// Version-selection failure: under disaster-prone placement the only
/// replica of key 1 is crashed, so read failover cycles through an empty
/// candidate set; with `max_read_attempts` bounded, the transaction aborts
/// with `ReadImpossible` instead of retrying forever.
#[test]
fn exhausted_read_failover_surfaces_read_impossible() {
    let mut cfg = ClusterConfig::small(gdur_protocols::p_store(), 3);
    cfg.max_read_attempts = Some(2);
    cfg.max_txns_per_client = Some(2);
    let mut cluster = Cluster::build(cfg, |_, site| {
        let plans = if site.0 == 0 {
            // Key 1's only replica (site 1) is crashed below.
            vec![TxnPlan {
                ops: vec![PlanOp::Read(Key(1))],
            }]
        } else {
            vec![TxnPlan {
                ops: vec![PlanOp::Read(Key(0))],
            }]
        };
        Box::new(ScriptSource::new(plans))
    });
    let dead = cluster.replica_pids()[1];
    cluster.sim_mut().schedule_crash(dead, SimTime::ZERO);
    cluster.run_until_idle();

    let s = cluster.replica_stats();
    assert!(
        s.aborted_by_cause[AbortCause::ReadImpossible.code() as usize] > 0,
        "expected read-impossible aborts: {s:?}"
    );
    assert!(
        cluster
            .records()
            .iter()
            .any(|r| r.cause == Some(AbortCause::ReadImpossible)),
        "no record carries the ReadImpossible cause"
    );
    assert_partition(&cluster);
}
