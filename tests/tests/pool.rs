//! Client pools: each site's closed-loop clients run as one
//! [`gdur_core::ClientPool`] actor.
//!
//! These tests pin that every deployment has that one layout, and exercise
//! the races a pool multiplexes: a late decision after a client-side op
//! timeout, and a client restart mid-transaction.

use gdur_consistency::{CriterionCheck, History};
use gdur_core::{AbortCause, Cluster, ClusterConfig, ProtocolSpec, ScriptSource, TxnPlan};
use gdur_obs::pool_seq_parts;
use gdur_sim::{SimDuration, SimTime};
use gdur_store::Key;
use gdur_workload::{WorkloadSpec, YcsbSource};

const SITES: usize = 3;
const CPS: usize = 3;
const TXNS: u64 = 8;

fn contended_config(spec: ProtocolSpec, client_pooling: bool, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(spec, SITES);
    // Small keyspace → real contention → certification aborts happen, so
    // the comparison below covers the abort paths too.
    cfg.keys_per_partition = 40;
    cfg.clients_per_site = CPS;
    cfg.max_txns_per_client = Some(TXNS);
    cfg.client_pooling = client_pooling;
    cfg.seed = seed;
    cfg
}

fn build_contended(spec: ProtocolSpec, client_pooling: bool, seed: u64) -> Cluster {
    let cfg = contended_config(spec, client_pooling, seed);
    let total_keys = cfg.keys_per_partition * SITES as u64;
    Cluster::build(cfg, move |_, site| {
        Box::new(YcsbSource::new(
            WorkloadSpec::a(),
            total_keys,
            SITES as u64,
            site.0 as u64 % SITES as u64,
            0.5,
        ))
    })
}

fn run_contended(spec: ProtocolSpec, client_pooling: bool, seed: u64) -> Cluster {
    let mut cluster = build_contended(spec, client_pooling, seed);
    cluster.run_until_idle();
    cluster
}

/// Every deployment runs one [`gdur_core::ClientPool`] per site:
/// `ClusterConfig::client_pooling` is read by nothing, so both of its
/// values build the same cluster — one client actor per site, the same
/// records, the same verdict of the assembly's criterion — for every
/// assembly of the library.
#[test]
fn client_pooling_is_vestigial_across_the_library() {
    for spec in gdur_protocols::all_protocols() {
        let name = spec.name;
        let criterion = spec.criterion;
        let runs = [false, true].map(|pooling| run_contended(spec.clone(), pooling, 13));
        for (cluster, pooling) in runs.iter().zip([false, true]) {
            assert_eq!(
                cluster.client_pids().len(),
                SITES,
                "{name} (client_pooling={pooling}): one client actor per site"
            );
            assert_eq!(
                cluster.records().len(),
                SITES * CPS * TXNS as usize,
                "{name} (client_pooling={pooling}): lost transactions"
            );
            let history = History::from_cluster(cluster);
            if let Err(v) = criterion.check(&history) {
                panic!("{name} (client_pooling={pooling}) violated {criterion:?}: {v}");
            }
        }
        assert_eq!(
            runs[0].records(),
            runs[1].records(),
            "{name}: client_pooling changed the outcomes"
        );
    }
}

/// A restarted client machine has nothing durable: whatever it had in
/// flight is accounted as a crash abort at the restart instant, and the
/// closed loop resumes from the next sequence number — so a bounded run
/// still decides every transaction it issued.
#[test]
fn restarted_client_accounts_for_its_in_flight_transaction() {
    let mut cluster = build_contended(gdur_protocols::p_store(), false, 5);
    let victim = cluster.client_pids()[0];
    let restart_at = SimTime::from_nanos(4_000_000);
    let sim = cluster.sim_mut();
    sim.schedule_crash(victim, SimTime::from_nanos(3_000_000));
    sim.schedule_restart(victim, restart_at);
    cluster.run_until_idle();

    let records = cluster.records();
    assert_eq!(
        records.len(),
        SITES * CPS * TXNS as usize,
        "decided {} of {}",
        records.len(),
        SITES * CPS * TXNS as usize
    );
    let first = records
        .iter()
        .find(|r| r.tx.coord() == victim.0)
        .expect("the victim decided something");
    assert_eq!(
        (
            pool_seq_parts(first.tx.seq()),
            first.committed,
            first.cause,
            first.decided_at
        ),
        ((0, 1), false, Some(AbortCause::Crash), restart_at),
        "the in-flight transaction must be crash-aborted at restart"
    );
}

/// Builds the late-decision scenario: every transaction reads a local key
/// (sub-millisecond LAN round trip) and updates a *remote*-partition key —
/// the update itself is buffered at the coordinator (fast), but the commit
/// must certify at the remote partition's replica, a cross-site round trip
/// of tens of milliseconds. With a 5 ms op timeout, the client abandons
/// each commit as [`AbortCause::Crash`] while the decision is still in
/// flight, and the decision arrives at a client that has already moved on.
fn run_late_decision() -> Cluster {
    let mut cfg = ClusterConfig::small(gdur_protocols::p_store(), SITES);
    cfg.keys_per_partition = 40;
    cfg.clients_per_site = 2;
    cfg.max_txns_per_client = Some(4);
    cfg.client_op_timeout = Some(SimDuration::from_millis(5));
    cfg.seed = 23;
    let mut cluster = Cluster::build(cfg, move |idx, site| {
        // Keys are partitioned `key % sites`: the read stays local, the
        // update lands on the next site's partition.
        let s = site.0 as u64;
        let n = SITES as u64;
        let local = Key(s + n * (idx as u64));
        let remote = Key((s + 1) % n + n * (idx as u64));
        Box::new(ScriptSource::new(vec![TxnPlan {
            ops: vec![
                gdur_core::PlanOp::Read(local),
                gdur_core::PlanOp::Update(remote),
            ],
        }]))
    });
    cluster.run_until_idle();
    cluster
}

/// A decision arriving after the client already gave up on the operation
/// must be dropped: no panic, no double-counted outcome. Every issued
/// transaction gets exactly one record, the abort-cause partition stays
/// exact, and each client of each pool decided its own transactions
/// exactly once, in order — a late reply is never credited to the
/// client's next transaction.
#[test]
fn late_decision_after_op_timeout_is_dropped_per_client() {
    let cluster = run_late_decision();
    let records = cluster.records();
    assert_eq!(
        records.len(),
        SITES * 2 * 4,
        "each issued transaction must be decided exactly once"
    );
    let crash_aborts = records
        .iter()
        .filter(|r| r.cause == Some(AbortCause::Crash))
        .count();
    assert!(
        crash_aborts > 0,
        "scenario failed to trigger any client-side op timeout"
    );
    for r in &records {
        assert_eq!(
            r.committed,
            r.cause.is_none(),
            "cause must be present iff aborted"
        );
    }
    let mut seqs: std::collections::BTreeMap<(u32, u32), Vec<u64>> = Default::default();
    for r in &records {
        let (client, local) = pool_seq_parts(r.tx.seq());
        seqs.entry((r.tx.coord(), client)).or_default().push(local);
    }
    assert_eq!(seqs.len(), SITES * 2, "every client must decide something");
    for ((pool, client), mut local) in seqs {
        local.sort_unstable();
        assert_eq!(
            local,
            vec![1, 2, 3, 4],
            "pool {pool} client {client}: each transaction decided exactly once"
        );
    }
}

/// Same race through the pool's shared timer wheel: the wheel entry for a
/// timed-out operation is consumed exactly once, the late reply is
/// discarded by the per-slot stale check, and the aggregate counters keep
/// `issued = committed + aborted` with an exact cause partition.
#[test]
fn late_decision_after_op_timeout_is_dropped_pooled() {
    let cluster = run_late_decision();
    let mut issued = 0;
    let mut counts_crash = 0;
    for s in 0..SITES {
        let c = cluster.pool(gdur_net::SiteId(s as u16)).counts();
        assert_eq!(
            c.issued,
            c.committed + c.aborted,
            "site {s}: a late decision was double-counted (issued {} vs {} committed + {} aborted)",
            c.issued,
            c.committed,
            c.aborted
        );
        assert_eq!(
            c.aborted,
            c.aborted_by_cause.iter().sum::<u64>(),
            "site {s}: abort causes must partition the abort count"
        );
        issued += c.issued;
        counts_crash += c.aborted_by_cause[AbortCause::Crash.code() as usize];
    }
    assert_eq!(issued, (SITES * 2 * 4) as u64, "liveness violated");
    assert!(
        counts_crash > 0,
        "scenario failed to trigger any pool op timeout"
    );
}
