//! One repetition: build a workload's deployment, drive it, check its
//! outputs, and report everything measured as a flat `name → number` map.
//!
//! A repetition is a process of its own (see `driver`), so `setup_s` and
//! `peak_rss_mib` are those of a fresh process and nothing else runs beside
//! the simulator.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use gdur_consistency::{CriterionCheck, History};
use gdur_core::{AbortCause, Cluster, CommitmentKind, TxnRecord};
use gdur_gc::XcastKind;
use gdur_harness::stores_converged;
use gdur_obs::{
    critical_path, labels, Attribution, Blame, CausalIndex, ObsEvent, Phase, PhaseBreakdown,
    TraceHandle,
};
use gdur_sim::{ProcessId, SimTime};

use crate::json::Json;
use crate::replay;
use crate::spans::{self, Recorder, Span};
use crate::stats::{nearest_rank, samples_beyond, MIN_SAMPLES_BEYOND};
use crate::workloads::{Horizon, Shape, Workload, CORES_PER_REPLICA};

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub horizon: Horizon,
    /// Attach a causal trace sink and fold it into the per-layer numbers.
    pub traced: bool,
    /// Run the replay kernels against the finished deployment.
    pub replay: bool,
}

/// What one repetition measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metric values by name; raw counters are prefixed `raw.`.
    pub values: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    /// Output checks that failed; empty on a correct run.
    pub violations: Vec<String>,
}

impl Report {
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("spans", spans::to_json(&self.spans)),
            (
                "violations",
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Report, String> {
        let values = v
            .get("values")
            .and_then(Json::as_obj)
            .ok_or("report without values")?
            .iter()
            .map(|(k, n)| (k.clone(), n.as_f64().unwrap_or(f64::NAN)))
            .collect();
        let violations = v
            .get("violations")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| s.as_str().map(String::from))
            .collect();
        Ok(Report {
            values,
            spans: v.get("spans").map_or_else(Vec::new, spans::from_json),
            violations,
        })
    }
}

/// Virtual-time summary of the records decided inside the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub committed: u64,
    pub aborted: u64,
    pub commit_tps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p99_samples_beyond: usize,
    pub term_latency_update_ms: f64,
    pub commit_ratio: f64,
    pub abort_ratio: f64,
}

pub fn summarize(records: &[TxnRecord], window_s: f64) -> Summary {
    let mut latency_ns: Vec<u64> = Vec::new();
    let (mut update_term_ns, mut updates) = (0u128, 0u64);
    for r in records.iter().filter(|r| r.committed) {
        latency_ns.push(r.total_latency().as_nanos());
        if !r.read_only {
            update_term_ns += u128::from(r.termination_latency().as_nanos());
            updates += 1;
        }
    }
    latency_ns.sort_unstable();
    let committed = latency_ns.len() as u64;
    let decided = records.len() as u64;
    let aborted = decided - committed;
    let ms = |ns: Option<u64>| ns.map_or(0.0, |ns| ns as f64 / 1e6);
    let ratio = |part: u64| {
        if decided == 0 {
            0.0
        } else {
            part as f64 / decided as f64
        }
    };
    Summary {
        committed,
        aborted,
        commit_tps: committed as f64 / window_s,
        p50_ms: ms(nearest_rank(&latency_ns, 0.5)),
        p99_ms: ms(nearest_rank(&latency_ns, 0.99)),
        p99_samples_beyond: samples_beyond(latency_ns.len(), 0.99),
        term_latency_update_ms: if updates == 0 {
            0.0
        } else {
            update_term_ns as f64 / updates as f64 / 1e6
        },
        commit_ratio: ratio(committed),
        abort_ratio: ratio(aborted),
    }
}

/// Client-observed aborts by cause; `Err` if an abort carries no cause or a
/// commit carries one, i.e. the causes do not partition `aborted`.
pub fn abort_causes(records: &[TxnRecord]) -> Result<[u64; 4], String> {
    let mut by_cause = [0u64; 4];
    for r in records {
        match (r.committed, r.cause) {
            (true, None) => {}
            (false, Some(c)) => by_cause[c.code() as usize] += 1,
            (true, Some(c)) => return Err(format!("{} committed with abort cause {c:?}", r.tx)),
            (false, None) => return Err(format!("{} aborted without a cause", r.tx)),
        }
    }
    Ok(by_cause)
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition. `process_start` is when this process began: set-up
/// time runs from there to `Cluster::build` returning.
pub fn run(opts: RunOpts, process_start: Instant) -> Report {
    let w = opts.workload;
    let spec = (w.spec)();
    let mut rec = Recorder::starting_at(process_start);
    let mut values = BTreeMap::new();
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let mut violations: Vec<String> = Vec::new();

    rec.enter("repetition");
    let mut cluster = rec.span("core.build", |_| w.build(opts.seed, opts.horizon));
    set("setup_s", process_start.elapsed().as_secs_f64());
    let trace = opts.traced.then(TraceHandle::causal);
    if let Some(t) = &trace {
        cluster.attach_obs(t.sink());
    }

    // The `point` span is wall_s: everything a figure point costs after
    // set-up.
    rec.enter("point");
    let window_start = w.drive(&mut cluster, opts.horizon, &mut rec);
    let history = rec.span("consistency.history", |_| History::from_cluster(&cluster));
    let verdict = rec.span("consistency.check", |_| spec.criterion.check(&history));
    let shape = w.shape_at(opts.horizon);
    let (all_records, records, window_end, summary) = rec.span("harness.summarize", |_| {
        let all = cluster.records();
        // A drained run idles until messages parked behind the partition
        // (an hour of virtual delay) arrive; it is over at its last decision.
        let window_end = match shape {
            Shape::Chaos { .. } => all
                .iter()
                .map(|r| r.decided_at)
                .max()
                .unwrap_or(window_start),
            _ => cluster.now(),
        };
        let windowed: Vec<TxnRecord> = all
            .iter()
            .filter(|r| r.decided_at >= window_start)
            .copied()
            .collect();
        let summary = summarize(&windowed, (window_end - window_start).as_secs_f64());
        (all, windowed, window_end, summary)
    });
    rec.exit();
    set("wall_s", rec.seconds("point"));

    // Output checks.
    if let Err(v) = verdict {
        violations.push(format!("history violates {:?}: {v}", spec.criterion));
    }
    let causes = abort_causes(&records).unwrap_or_else(|e| {
        violations.push(e);
        [0; 4]
    });
    if causes.iter().sum::<u64>() != summary.aborted {
        violations.push("abort causes do not sum to aborted".into());
    }
    if summary.committed == 0 {
        violations.push("nothing committed".into());
    }
    if opts.horizon == Horizon::Full && summary.p99_samples_beyond < MIN_SAMPLES_BEYOND {
        violations.push(format!(
            "only {} samples beyond p99 (need {MIN_SAMPLES_BEYOND})",
            summary.p99_samples_beyond
        ));
    }
    let decided_total = all_records.len() as u64;
    let issued = match shape {
        Shape::Pool { .. } => {
            let issued = cluster.pool_counts().issued;
            if issued < decided_total {
                violations.push(format!(
                    "issued {issued} < committed + aborted {decided_total}"
                ));
            }
            issued
        }
        // Bounded clients drained to idle: every transaction was issued.
        Shape::Chaos {
            txns_per_client, ..
        } => {
            let issued = txns_per_client * (w.clients_per_site * w.sites) as u64;
            if decided_total != issued {
                violations.push(format!(
                    "drained run decided {decided_total} of {issued} transactions"
                ));
            }
            if !stores_converged(&cluster) {
                violations.push("replica stores did not converge".into());
            }
            issued
        }
        // Per-client actors expose no issue count; those decided stand in
        // (each client has at most one more in flight).
        Shape::Window { .. } => decided_total,
    };

    // End-to-end, virtual clock.
    set("commit_tps", summary.commit_tps);
    set("commit_latency_p50_ms", summary.p50_ms);
    set("commit_latency_p99_ms", summary.p99_ms);
    set("term_latency_update_ms", summary.term_latency_update_ms);
    set("commit_ratio", summary.commit_ratio);
    set("raw.committed", summary.committed as f64);
    set("raw.aborted", summary.aborted as f64);
    set("raw.issued", issued as f64);
    set("raw.p99_samples_beyond", summary.p99_samples_beyond as f64);
    set("raw.window_s", (window_end - window_start).as_secs_f64());

    // Per layer, from counters every run has.
    let stats = cluster.sim().stats();
    let rs = cluster.replica_stats();
    let run_s = rec.seconds("sim.run.warmup") + rec.seconds("sim.run.measure");
    let commits_total = all_records.iter().filter(|r| r.committed).count() as f64;
    let per_commit = |n: u64| n as f64 / commits_total.max(1.0);
    let events = stats.events_processed;
    set("sim.events", events as f64);
    set("sim.msgs_delivered", stats.messages_delivered as f64);
    set("sim.events_per_commit", per_commit(events));
    set("sim.run_s", run_s);
    set("sim.events_per_s", events as f64 / run_s);
    set("sim.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    set("core.build_s", rec.seconds("core.build"));
    set("core.abort_ratio", summary.abort_ratio);
    set(
        "core.certifications_per_commit",
        per_commit(rs.certifications),
    );
    set("core.votes_per_commit", per_commit(rs.votes_cast));
    set("core.applies_per_commit", per_commit(rs.applies));
    set(
        "core.remote_reads_per_txn",
        rs.remote_reads_served as f64 / (decided_total as f64).max(1.0),
    );
    let replicas: Vec<_> = cluster.placement().all_sites().collect();
    set(
        "core.cert_queue_len_end",
        replicas
            .iter()
            .map(|s| cluster.replica(*s).queue_len())
            .sum::<usize>() as f64,
    );
    for cause in AbortCause::ALL {
        let name = match cause {
            AbortCause::CertificationConflict => "core.abort_cert_conflict",
            AbortCause::VoteTimeout => "core.abort_vote_timeout",
            AbortCause::ReadImpossible => "core.abort_read_impossible",
            AbortCause::Crash => "core.abort_crash",
        };
        set(name, causes[cause.code() as usize] as f64);
    }
    set("core.recoveries", rs.recoveries as f64);
    set("core.resubmissions", rs.resubmissions as f64);
    set("core.catchup_installs", rs.catchup_installs as f64);
    let (mut keys, mut versions) = (0usize, 0usize);
    for s in &replicas {
        let store = cluster.replica(*s).store();
        keys += store.len();
        versions += store.keys().map(|k| store.version_count(k)).sum::<usize>();
    }
    set(
        "store.versions_per_key_end",
        versions as f64 / keys.max(1) as f64,
    );
    let (wal_records, wal_bytes) = replicas
        .iter()
        .filter_map(|s| cluster.replica(*s).wal())
        .fold((0u64, 0usize), |(r, b), wal| {
            (r + wal.len(), b + wal.byte_len())
        });
    set("persist.wal_records", wal_records as f64);
    set("persist.wal_bytes_per_commit", per_commit(wal_bytes as u64));
    set("consistency.history_s", rec.seconds("consistency.history"));
    set("consistency.check_s", rec.seconds("consistency.check"));
    set("consistency.txns_checked", history.txns.len() as f64);
    set("harness.summarize_s", rec.seconds("harness.summarize"));

    if let Some(trace) = trace {
        let events = trace.take();
        rec.enter("obs.fold");
        fold_trace(
            &events,
            &cluster,
            (window_start, window_end),
            &mut rec,
            &mut set,
            &mut violations,
        );
        rec.exit();
    }

    if opts.replay {
        let (multicasts, broadcasts) = match spec.commitment {
            CommitmentKind::GroupCommunication {
                xcast: XcastKind::AmCast | XcastKind::AmPwCast,
            } => (rs.coordinated, 0),
            CommitmentKind::GroupCommunication {
                xcast: XcastKind::AbCast,
            } => (0, rs.coordinated),
            _ => (0, 0),
        };
        let counts = replay::Counts {
            events,
            msgs: stats.messages_delivered,
            multicasts,
            broadcasts,
            reads: history.txns.iter().map(|t| t.reads.len() as u64).sum(),
            installs: rs.applies,
            txns: issued,
            wal_records,
        };
        rec.enter("replay");
        for (name, v) in replay::run_all(w, &cluster, counts, run_s * 1e9, &mut rec) {
            set(name, v);
        }
        rec.exit();
    }

    set("peak_rss_mib", peak_rss_mib());
    rec.exit();
    Report {
        values,
        spans: rec.into_spans(),
        violations,
    }
}

/// Folds a causal trace into the per-layer numbers only a trace can give,
/// and checks that every committed transaction's critical path adds up.
fn fold_trace(
    events: &[ObsEvent],
    cluster: &Cluster,
    (window_start, window_end): (SimTime, SimTime),
    rec: &mut Recorder,
    set: &mut impl FnMut(&str, f64),
    violations: &mut Vec<String>,
) {
    set("obs.events_traced", events.len() as f64);
    let breakdown = rec.span("obs.breakdown", |_| {
        PhaseBreakdown::from_events(events, cluster.topology(), window_start)
    });
    let index = rec.span("obs.index", |_| CausalIndex::build(events));
    let clients: BTreeSet<ProcessId> = cluster.client_pids().iter().copied().collect();
    let attribution = rec.span("obs.attribute", |_| {
        let mut total = Attribution::default();
        for (&tx, points) in &index.tx_points {
            let committed_in_window = points.iter().any(|&i| {
                matches!(events[i], ObsEvent::Point { at, label, value, .. }
                    if label == labels::TXN_DECIDE && value == 1 && at >= window_start)
            });
            if !committed_in_window {
                continue;
            }
            if let Some(path) = critical_path(events, &index, &clients, tx) {
                if path.attributed_ns() != path.latency_ns {
                    violations.push(format!(
                        "critical path of tx {tx:#x} sums to {} ns, latency is {} ns",
                        path.attributed_ns(),
                        path.latency_ns
                    ));
                }
                total.add(&path);
            }
        }
        total
    });
    set("obs.index_s", rec.seconds("obs.index"));
    set("obs.attribute_s", rec.seconds("obs.attribute"));

    let per_commit = |n: u64| n as f64 / (breakdown.committed as f64).max(1.0);
    let flows = || breakdown.msgs.iter();
    set("net.msgs_per_commit", per_commit(breakdown.total_msgs()));
    set(
        "net.wan_msgs_per_commit",
        per_commit(flows().map(|(_, f)| f.wan_count).sum()),
    );
    set(
        "net.wan_bytes_per_commit",
        per_commit(breakdown.wan_bytes()),
    );
    set(
        "gc.msgs_per_commit",
        per_commit(
            flows()
                .filter(|(label, _)| label.starts_with("gc."))
                .map(|(_, f)| f.count)
                .sum(),
        ),
    );
    let share =
        |b: Blame| attribution.blame_ns[b.index()] as f64 / (attribution.total_ns as f64).max(1.0);
    set("net.critical_path_share", share(Blame::Network));
    set("core.queue_share", share(Blame::Queue));
    set("core.service_share", share(Blame::Service));
    set("core.straggler_share", share(Blame::Straggler));
    let ms = |ns: u64| ns as f64 / 1e6;
    let depth = &breakdown.queue_depth;
    set("core.cert_queue_depth_p50", depth.quantile(0.5) as f64);
    set("core.cert_queue_depth_p99", depth.quantile(0.99) as f64);
    let wait = breakdown.phase(Phase::QueueWait);
    set("core.queue_wait_ms_p50", ms(wait.quantile(0.5)));
    set("core.queue_wait_ms_p99", ms(wait.quantile(0.99)));
    set(
        "core.execute_ms_p50",
        ms(breakdown.phase(Phase::Execute).quantile(0.5)),
    );
    set(
        "core.termination_ms_p50",
        ms(breakdown.phase(Phase::Termination).quantile(0.5)),
    );
    set(
        "core.install_lag_ms_p50",
        ms(breakdown.phase(Phase::InstallLag).quantile(0.5)),
    );

    // Replica CPU: virtual handler time inside the window over the cores
    // the window offered, for the busiest replica.
    let window_ns = (window_end - window_start).as_nanos();
    let busiest = cluster
        .replica_pids()
        .iter()
        .map(|&pid| {
            index
                .handlers
                .iter()
                .filter(|h| h.actor == pid)
                .map(|h| {
                    let (from, to) = (h.start.max(window_start), h.end.min(window_end));
                    to.saturating_since(from).as_nanos()
                })
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    set(
        "core.replica_busy_share",
        busiest as f64 / (window_ns as f64 * f64::from(CORES_PER_REPLICA)).max(1.0),
    );

    // Recovery: a kernel restart to the replica's recovery.complete.
    let mut restarted: BTreeMap<ProcessId, SimTime> = BTreeMap::new();
    let mut recovery_ns = 0u64;
    for ev in events {
        if let ObsEvent::Point {
            at, actor, label, ..
        } = *ev
        {
            if label == labels::KERNEL_RESTART {
                restarted.insert(actor, at);
            } else if label == labels::RECOVERY_COMPLETE {
                if let Some(since) = restarted.remove(&actor) {
                    recovery_ns = recovery_ns.max(at.saturating_since(since).as_nanos());
                }
            }
        }
    }
    set("core.recovery_ms", ms(recovery_ns));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdur_sim::SimDuration;
    use gdur_store::TxId;

    /// A record that began at 0, was submitted at `submit_ms` and decided at
    /// `decide_ms`.
    fn record(
        seq: u64,
        submit_ms: u64,
        decide_ms: u64,
        outcome: Result<(), AbortCause>,
        read_only: bool,
    ) -> TxnRecord {
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        TxnRecord {
            tx: TxId::new(1, seq),
            started_at: at(0),
            submitted_at: at(submit_ms),
            decided_at: at(decide_ms),
            committed: outcome.is_ok(),
            read_only,
            cause: outcome.err(),
        }
    }

    #[test]
    fn summary_counts_aborts_against_decided() {
        let records = [
            record(1, 5, 10, Ok(()), true),
            record(2, 5, 20, Ok(()), false),
            record(3, 10, 40, Ok(()), false),
            record(4, 5, 30, Err(AbortCause::CertificationConflict), false),
            record(5, 5, 2_000, Err(AbortCause::Crash), false),
        ];
        let s = summarize(&records, 2.0);
        assert_eq!((s.committed, s.aborted), (3, 2));
        assert_eq!(s.commit_tps, 1.5);
        assert_eq!((s.commit_ratio, s.abort_ratio), (0.6, 0.4));
        // Latency is over committed transactions only: the timed-out one
        // costs the ratio, not the percentiles.
        assert_eq!((s.p50_ms, s.p99_ms), (20.0, 40.0));
        assert_eq!(s.p99_samples_beyond, 0);
        // Mean submit -> decide of the two committed updates.
        assert_eq!(s.term_latency_update_ms, (15.0 + 30.0) / 2.0);

        let empty = summarize(&[], 1.0);
        assert_eq!(
            (empty.committed, empty.commit_ratio, empty.p99_ms),
            (0, 0.0, 0.0)
        );
    }

    #[test]
    fn abort_causes_must_partition_aborted() {
        let ok = [
            record(1, 1, 2, Ok(()), true),
            record(2, 1, 2, Err(AbortCause::Crash), false),
            record(3, 1, 2, Err(AbortCause::Crash), false),
            record(4, 1, 2, Err(AbortCause::VoteTimeout), false),
        ];
        let causes = abort_causes(&ok).unwrap();
        assert_eq!(causes[AbortCause::Crash.code() as usize], 2);
        assert_eq!(causes.iter().sum::<u64>(), 3);

        let mut uncaused = record(5, 1, 2, Err(AbortCause::Crash), false);
        uncaused.cause = None;
        assert!(abort_causes(&[uncaused]).is_err());
        let mut miscaused = record(6, 1, 2, Ok(()), false);
        miscaused.cause = Some(AbortCause::Crash);
        assert!(abort_causes(&[miscaused]).is_err());
    }

    #[test]
    fn report_survives_the_child_to_parent_line() {
        let report = Report {
            values: [
                ("commit_tps".to_string(), 20774.75),
                ("wall_s".to_string(), 0.1 + 0.2),
            ]
            .into(),
            spans: vec![Span {
                name: "point".into(),
                start_ns: 5,
                end_ns: 9,
                parent: None,
            }],
            violations: vec!["nothing committed".into()],
        };
        let line = report.to_json().render();
        assert!(!line.contains('\n'));
        assert_eq!(
            Report::from_json(&Json::parse(&line).unwrap()).unwrap(),
            report
        );
    }
}
