//! Client-pool granularity: one actor per site vs one actor per client.
//!
//! Grouping is a pure aggregation: N closed-loop clients multiplexed
//! through one actor per site must produce the *same outcomes* as N
//! single-client pools — same per-client transaction streams, same
//! commit/abort decisions, same consistency verdicts. These tests pin that
//! across the protocol library, and exercise the races (late decision
//! after a client-side op timeout, client restart mid-transaction) at
//! both granularities.

use gdur_consistency::{CriterionCheck, History};
use gdur_core::{
    AbortCause, Cluster, ClusterConfig, ProtocolSpec, ScriptSource, TxnPlan, TxnRecord,
};
use gdur_obs::pool_seq_parts;
use gdur_sim::{SimDuration, SimTime};
use gdur_store::Key;
use gdur_workload::{WorkloadSpec, YcsbSource};

const SITES: usize = 3;
const CPS: usize = 3;
const TXNS: u64 = 8;

fn contended_config(spec: ProtocolSpec, pooled: bool, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(spec, SITES);
    // Small keyspace → real contention → certification aborts happen, so
    // the equivalence below covers the abort paths too.
    cfg.keys_per_partition = 40;
    cfg.clients_per_site = CPS;
    cfg.max_txns_per_client = Some(TXNS);
    cfg.client_pooling = pooled;
    cfg.seed = seed;
    cfg
}

fn build_contended(spec: ProtocolSpec, pooled: bool, seed: u64) -> Cluster {
    let cfg = contended_config(spec, pooled, seed);
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

fn run_contended(spec: ProtocolSpec, pooled: bool, seed: u64) -> Cluster {
    let mut cluster = build_contended(spec, pooled, seed);
    cluster.run_until_idle();
    cluster
}

/// One record, keyed by the logical client that ran it: `(site,
/// client-within-site, per-client sequence)` plus every outcome-relevant
/// field. Transaction ids differ between modes by construction (pid-seq vs
/// pooled pid + packed seq), so equivalence is stated modulo that renaming.
type KeyedRecord = (
    (usize, u32, u64),
    (SimTime, SimTime, SimTime, bool, bool, Option<AbortCause>),
);

fn keyed_records(cluster: &Cluster, pooled: bool) -> Vec<KeyedRecord> {
    let pids = cluster.client_pids();
    let mut out: Vec<KeyedRecord> = cluster
        .records()
        .into_iter()
        .map(|r: TxnRecord| {
            let pos = pids
                .iter()
                .position(|p| p.0 == r.tx.coord())
                .expect("record from a known client pid");
            let key = if pooled {
                let (idx, local_seq) = pool_seq_parts(r.tx.seq());
                (pos, idx, local_seq)
            } else {
                ((pos / CPS), (pos % CPS) as u32, r.tx.seq())
            };
            (
                key,
                (
                    r.started_at,
                    r.submitted_at,
                    r.decided_at,
                    r.committed,
                    r.read_only,
                    r.cause,
                ),
            )
        })
        .collect();
    out.sort();
    out
}

/// Tentpole equivalence: for every protocol in the library, the pooled and
/// per-client deployments produce identical per-client transaction streams
/// — same instants, same decisions, same abort causes — and identical
/// history-verification verdicts.
#[test]
fn pools_match_individual_clients_across_the_library() {
    for spec in gdur_protocols::all_protocols() {
        let name = spec.name;
        let criterion = spec.criterion;
        let single = run_contended(spec.clone(), false, 13);
        let pooled = run_contended(spec, true, 13);

        let single_records = keyed_records(&single, false);
        let pooled_records = keyed_records(&pooled, true);
        assert_eq!(
            single_records.len(),
            SITES * CPS * TXNS as usize,
            "{name}: per-client run lost transactions"
        );
        assert_eq!(
            single_records, pooled_records,
            "{name}: pooled outcomes diverged from per-client actors"
        );

        for (mode, cluster) in [("per-client", &single), ("pooled", &pooled)] {
            let history = History::from_cluster(cluster);
            if let Err(v) = criterion.check(&history) {
                panic!("{name} ({mode}) violated {criterion:?}: {v}");
            }
        }
    }
}

/// A restarted client machine has nothing durable: whatever it had in
/// flight is accounted as a crash abort at the restart instant, and the
/// closed loop resumes from the next sequence number — so a bounded run
/// still decides every transaction it issued, at either granularity.
#[test]
fn restarted_client_accounts_for_its_in_flight_transaction() {
    for pooled in [false, true] {
        let mut cluster = build_contended(gdur_protocols::p_store(), pooled, 5);
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
            "pooled={pooled}: decided {} of {}",
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
            "pooled={pooled}: the in-flight transaction must be crash-aborted at restart"
        );
    }
}

/// Builds the late-decision scenario: every transaction reads a local key
/// (sub-millisecond LAN round trip) and updates a *remote*-partition key —
/// the update itself is buffered at the coordinator (fast), but the commit
/// must certify at the remote partition's replica, a cross-site round trip
/// of tens of milliseconds. With a 5 ms op timeout, the client abandons
/// each commit as [`AbortCause::Crash`] while the decision is still in
/// flight, and the decision arrives at a client that has already moved on.
fn run_late_decision(pooled: bool) -> Cluster {
    let mut cfg = ClusterConfig::small(gdur_protocols::p_store(), SITES);
    cfg.keys_per_partition = 40;
    cfg.clients_per_site = 2;
    cfg.max_txns_per_client = Some(4);
    cfg.client_op_timeout = Some(SimDuration::from_millis(5));
    cfg.client_pooling = pooled;
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
/// transaction gets exactly one record, and the abort-cause partition
/// stays exact.
#[test]
fn late_decision_after_op_timeout_is_dropped_per_client() {
    let cluster = run_late_decision(false);
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
}

/// Same race through the pool's shared timer wheel: the wheel entry for a
/// timed-out operation is consumed exactly once, the late reply is
/// discarded by the per-slot stale check, and the aggregate counters keep
/// `issued = committed + aborted` with an exact cause partition.
#[test]
fn late_decision_after_op_timeout_is_dropped_pooled() {
    let cluster = run_late_decision(true);
    let mut issued = 0;
    let mut counts_crash = 0;
    for s in 0..SITES {
        let pool = cluster
            .pool(gdur_net::SiteId(s as u16))
            .expect("pooled deployment has a pool per site");
        let c = pool.counts();
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
        "scenario failed to trigger any pooled op timeout"
    );
}

/// The pooled path through the full harness: `run_point` with
/// `client_pooling` keeps the always-on history verification green and
/// still commits work.
#[test]
fn pooled_run_point_passes_the_consistency_oracle() {
    use gdur_harness::{run_point, Experiment, PlacementKind, Scale, WorkloadKind};
    let mut scale = Scale::quick();
    scale.client_pooling = true;
    scale.measure = SimDuration::from_secs(1);
    let exp = Experiment::new(
        gdur_protocols::s_dur(),
        WorkloadKind::C,
        0.9,
        3,
        PlacementKind::Dp,
    );
    let point = run_point(&exp, &scale, 16);
    assert!(point.committed > 0, "pooled point committed nothing");
}

/// Pools under fault injection: crash, partition, heal, and restart with
/// one pool actor per site must keep both safety verdicts green (store
/// convergence and the consistency criterion) and still recover.
#[test]
fn pooled_chaos_run_stays_safe() {
    let mut cfg = gdur_harness::chaos_library()
        .into_iter()
        .next()
        .expect("chaos library is non-empty");
    cfg.client_pooling = true;
    let (report, _events) = gdur_harness::run_chaos(&cfg);
    assert!(
        report.ok(&cfg.spec),
        "pooled chaos run failed: converged={}, violation={:?}",
        report.converged,
        report.violation
    );
    assert!(
        report.crashes > 0 && report.restarts > 0,
        "schedule was a no-op"
    );
}
