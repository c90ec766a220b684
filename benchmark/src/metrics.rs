//! The metric catalogue: every name the benchmark reports, with its unit,
//! its clock, which way is better and — written down before measuring —
//! which end-to-end metric it should move, on which workload.
//!
//! Two clocks, always labelled. *Virtual* metrics are what the modelled
//! system would do: a pure function of the seed, bit-identical across
//! repetitions. *Host* metrics are what the simulator costs on this
//! machine: noisy, reported as a median over repetitions. A change meant
//! only to speed up or simplify the simulator must leave every virtual
//! metric and `sim.events` identical.
//!
//! `../BENCHMARK.json` repeats names, units, directions and bounds in the
//! driver's schema; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Virtual,
    Host,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Absolute change below which the metric never counts as moved
    /// (`--compare` only; the driver's schema has relative bounds alone).
    pub floor: f64,
    pub what: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<what>`; the layer is the crate the number belongs to.
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};
use Clock::{Host, Virtual};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "commit_tps",
        unit: "txn/s",
        clock: Virtual,
        better: Higher,
        bound: 0.08,
        floor: 0.0,
        what: "committed transactions decided in the measurement window per virtual second (crash_recovery: up to the last decision; overload_pool: whole horizon)",
    },
    EndToEnd {
        name: "commit_latency_p50_ms",
        unit: "ms",
        clock: Virtual,
        better: Lower,
        bound: 0.05,
        floor: 0.0,
        what: "nearest-rank median of begin to decide over committed transactions",
    },
    EndToEnd {
        name: "commit_latency_p99_ms",
        unit: "ms",
        clock: Virtual,
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        what: "nearest-rank 99th percentile of the same, with at least 80 samples beyond it",
    },
    EndToEnd {
        name: "term_latency_update_ms",
        unit: "ms",
        clock: Virtual,
        better: Lower,
        bound: 0.2,
        floor: 0.0,
        what: "mean submit to decide of committed update transactions (the y-axis of fig 3)",
    },
    EndToEnd {
        name: "commit_ratio",
        unit: "fraction",
        clock: Virtual,
        better: Higher,
        bound: 0.05,
        floor: 0.005,
        what: "committed / decided, i.e. 1 - abort ratio; a timed-out or crashed transaction is an abort",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        clock: Host,
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        what: "everything a figure point costs after set-up: warm-up and measured run, history extraction, criterion check, summary; median over repetitions",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        clock: Host,
        better: Lower,
        bound: 0.1,
        floor: 0.0,
        what: "VmHWM of a repetition's process at exit; median over repetitions",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Host,
        better: Lower,
        bound: 0.25,
        floor: 0.05,
        what: "process start to Cluster::build returning (store seeding, actor spawn, workload sources); median over repetitions",
    },
];

macro_rules! per_layer {
    ($( $name:literal, $unit:literal, $clock:ident, $better:ident, $moves:literal; )*) => {
        &[ $( PerLayer { name: $name, unit: $unit, clock: $clock, better: $better, moves: $moves }, )* ]
    };
}

pub const PER_LAYER: &[PerLayer] = per_layer! {
    // sim: the kernel. Counts are the identity check: equal counts mean a
    // host-time difference is pure simulator speed.
    "sim.events", "count", Virtual, Lower, "identity check on every workload; no virtual metric may move without it";
    "sim.msgs_delivered", "count", Virtual, Lower, "identity check, with sim.events";
    "sim.events_per_commit", "count", Virtual, Lower, "wall_s on all; a protocol change that saves messages shows here first";
    "sim.run_s", "s", Host, Lower, "wall_s on all (it is most of it)";
    "sim.events_per_s", "1/s", Host, Higher, "wall_s on all, most on wfq_2pc_uniform; falls with queue depth on overload_pool";
    "sim.ns_per_event", "ns", Host, Lower, "wall_s on all; compare across commits when sim.events differs";
    "sim.kernel_floor_ns_per_event", "ns", Host, Lower, "wall_s on all: heap + dispatch + delay with no protocol; most visible on wfq_2pc_uniform";
    "sim.kernel_floor_share", "fraction", Host, Higher, "share of sim.run_s the bare kernel explains; the rest is protocol work";
    "sim.wheel_ns_per_op", "ns", Host, Lower, "wall_s on overload_pool only (TimerWheel at clients/site depth); none elsewhere";
    // net
    "net.msgs_per_commit", "count", Virtual, Lower, "wall_s and commit_tps on all; highest on overload_pool (wasted work of aborted txns)";
    "net.wan_msgs_per_commit", "count", Virtual, Lower, "commit_latency_p50_ms on wfq_2pc_uniform and vector_dt_update";
    "net.wan_bytes_per_commit", "B", Virtual, Lower, "commit_latency_p50_ms on vector_dt_update (vector stamps, 1 KB values)";
    "net.critical_path_share", "fraction", Virtual, Higher, "bounds what any host-side or CPU-model change can do to latency: ~0.96 on wfq_2pc_uniform";
    "net.delay_ns_per_msg", "ns", Host, Lower, "wall_s, small everywhere (already inside the kernel floor)";
    // gc
    "gc.msgs_per_commit", "count", Virtual, Lower, "term_latency_update_ms on convoy_amcast_zipf and overload_pool; ~0 on the 2PC workloads";
    "gc.skeen_ns_per_multicast", "ns", Host, Lower, "wall_s on convoy_amcast_zipf and overload_pool";
    "gc.abcast_ns_per_broadcast", "ns", Host, Lower, "no workload broadcasts; kept so an AB-Cast change has a number";
    "gc.replay_share", "fraction", Host, Lower, "wall_s on convoy_amcast_zipf and overload_pool; 0 on the 2PC workloads (predict no change)";
    // core
    "core.abort_ratio", "fraction", Virtual, Lower, "commit_ratio on all (it is 1 - commit_ratio)";
    "core.certifications_per_commit", "count", Virtual, Lower, "commit_tps on convoy_amcast_zipf and overload_pool (queries certified too)";
    "core.votes_per_commit", "count", Virtual, Lower, "term_latency_update_ms on the DT workloads";
    "core.applies_per_commit", "count", Virtual, Lower, "wall_s and peak_rss_mib on vector_dt_update";
    "core.remote_reads_per_txn", "count", Virtual, Lower, "commit_latency_p50_ms on wfq_2pc_uniform and vector_dt_update";
    "core.cert_queue_depth_p50", "count", Virtual, Lower, "commit_tps and commit_latency_p99_ms: shallow on convoy_amcast_zipf, thousands on overload_pool";
    "core.cert_queue_depth_p99", "count", Virtual, Lower, "same; must rise from convoy_amcast_zipf to overload_pool while commit_tps falls";
    "core.cert_queue_len_end", "count", Virtual, Lower, "backlog left at the end: growing means past the knee (overload_pool)";
    "core.queue_wait_ms_p50", "ms", Virtual, Lower, "commit_latency_p50_ms on overload_pool";
    "core.queue_wait_ms_p99", "ms", Virtual, Lower, "commit_latency_p99_ms on convoy_amcast_zipf and overload_pool";
    "core.queue_share", "fraction", Virtual, Lower, "share of commit latency spent in the cert queue: the convoy";
    "core.service_share", "fraction", Virtual, Lower, "share of commit latency that is replica CPU: vector_dt_update";
    "core.straggler_share", "fraction", Virtual, Lower, "share waiting for the slowest voter: DT (vector_dt_update, crash_recovery), not DP";
    "core.replica_busy_share", "fraction", Virtual, Lower, "how close the busiest replica is to its CPU knee; commit_tps stops rising at 1";
    "core.execute_ms_p50", "ms", Virtual, Lower, "commit_latency_p50_ms on the wait-free-query workloads";
    "core.termination_ms_p50", "ms", Virtual, Lower, "term_latency_update_ms on convoy_amcast_zipf";
    "core.install_lag_ms_p50", "ms", Virtual, Lower, "staleness of reads; grows with the queue on overload_pool";
    "core.abort_cert_conflict", "count", Virtual, Lower, "commit_ratio on convoy_amcast_zipf";
    "core.abort_vote_timeout", "count", Virtual, Lower, "commit_ratio on crash_recovery";
    "core.abort_read_impossible", "count", Virtual, Lower, "commit_ratio on crash_recovery";
    "core.abort_crash", "count", Virtual, Lower, "commit_ratio on overload_pool (client timeouts) and crash_recovery";
    "core.recoveries", "count", Virtual, Lower, "crash_recovery only: 1 per restart";
    "core.resubmissions", "count", Virtual, Lower, "crash_recovery only";
    "core.catchup_installs", "count", Virtual, Lower, "crash_recovery only";
    "core.recovery_ms", "ms", Virtual, Lower, "commit_latency_p99_ms and commit_ratio on crash_recovery: restart to recovery.complete";
    "core.build_s", "s", Host, Lower, "setup_s on all (it is most of it)";
    "core.residual_share", "fraction", Host, Lower, "share of sim.run_s no replay kernel explains: replica, client and pool handlers";
    "core.residual_ns_per_event", "ns", Host, Lower, "wall_s; rises with queue depth from convoy_amcast_zipf to overload_pool";
    // store
    "store.read_ns_per_op", "ns", Host, Lower, "wall_s on wfq_2pc_uniform (reads dominate)";
    "store.install_ns_per_op", "ns", Host, Lower, "wall_s on vector_dt_update (install-heavy)";
    "store.versions_per_key_end", "count", Virtual, Lower, "peak_rss_mib on vector_dt_update";
    "store.replay_share", "fraction", Host, Lower, "wall_s on wfq_2pc_uniform and vector_dt_update";
    // versioning
    "versioning.merge_ns", "ns", Host, Lower, "wall_s on vector_dt_update";
    "versioning.compat_ns", "ns", Host, Lower, "wall_s on vector_dt_update and wfq_2pc_uniform";
    "versioning.replay_share", "fraction", Host, Lower, "wall_s on the vector-stamp workloads; 0 on scalar timestamps";
    // persist
    "persist.wal_records", "count", Virtual, Lower, "crash_recovery only";
    "persist.wal_bytes_per_commit", "B", Virtual, Lower, "crash_recovery only";
    "persist.append_ns_per_record", "ns", Host, Lower, "wall_s on crash_recovery only";
    "persist.recover_s", "s", Host, Lower, "wall_s on crash_recovery (the host cost behind core.recovery_ms)";
    "persist.replay_share", "fraction", Host, Lower, "wall_s on crash_recovery only";
    // workload
    "workload.plan_ns_per_txn", "ns", Host, Lower, "setup_s and wall_s; zipfian (C) costs more than uniform (A)";
    "workload.replay_share", "fraction", Host, Lower, "wall_s, small everywhere";
    // consistency: the always-on oracle
    "consistency.history_s", "s", Host, Lower, "wall_s on all";
    "consistency.check_s", "s", Host, Lower, "wall_s on all; largest on crash_recovery";
    "consistency.txns_checked", "count", Virtual, Higher, "every decided transaction must reach the oracle";
    // obs
    "obs.events_traced", "count", Virtual, Lower, "none of the eight (tracing is off for them)";
    "obs.trace_overhead_ratio", "fraction", Host, Lower, "none of the eight; guards zero-cost-when-detached";
    "obs.index_s", "s", Host, Lower, "none of the eight";
    "obs.attribute_s", "s", Host, Lower, "none of the eight";
    // harness
    "harness.summarize_s", "s", Host, Lower, "wall_s, negligible";
};

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// True if `name` is measured on the host clock; everything else the
/// benchmark reports must repeat bit for bit under one seed.
pub fn is_host(name: &str) -> bool {
    end_to_end(name).is_some_and(|m| m.clock == Host)
        || PER_LAYER.iter().any(|m| m.name == name && m.clock == Host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_schema() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// BENCHMARK.json is what the driver reads; this catalogue is what the
    /// program reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let listed = |section: &str| doc.get(section).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = listed("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.label().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = listed("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
            .collect();
        assert_eq!(layers, expected);

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::driver::DEFAULT_SECONDS as f64)
        );
    }
}
