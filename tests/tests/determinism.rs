//! Reproducibility: a deployment run is a pure function of its seed —
//! every library assembly, fault-free and under the chaos schedules,
//! replays its records and its trace byte for byte. `clippy.toml` keeps
//! the constructs that would break this out of the sources; these tests
//! check the property itself.

use std::fmt::Debug;

use gdur_core::{ProtocolSpec, TxnRecord};
use gdur_harness::{run_checked, Deployment, FaultSchedule, Horizon};
use gdur_obs::{jsonl, TraceHandle};

/// One small contended run: its records and its JSONL trace.
fn run_traced(spec: ProtocolSpec, seed: u64) -> (Vec<TxnRecord>, String) {
    let dep = Deployment {
        read_only_ratio: 0.8,
        seed,
        horizon: Horizon::Drain(25),
        ..Deployment::new(spec, FaultSchedule::new())
    };
    let run = run_checked(&dep, None, Some(TraceHandle::new())).expect_clean(&dep.label);
    let mut records = run.cluster.records();
    records.sort_by_key(|r| (r.tx, r.decided_at));
    (records, jsonl::export(&run.events))
}

/// Fails naming `what` and the first position at which two same-seed runs
/// differ.
fn assert_same<T: PartialEq + Debug>(what: &str, a: &[T], b: &[T]) {
    if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
        panic!(
            "{what} #{i} differs between same-seed runs:\n  {:?}\n  {:?}",
            a[i], b[i]
        );
    }
    assert_eq!(a.len(), b.len(), "{what}: one run is a prefix of the other");
}

fn assert_same_trace(who: &str, a: &str, b: &str) {
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    assert_same(&format!("{who}: trace event"), &a, &b);
}

#[test]
fn identical_seeds_identical_histories() {
    for spec in gdur_protocols::all_protocols() {
        for seed in [7, 1042] {
            let who = format!("{} (seed {seed})", spec.name);
            let (records_a, trace_a) = run_traced(spec.clone(), seed);
            let (records_b, trace_b) = run_traced(spec.clone(), seed);
            assert_same(&format!("{who}: record"), &records_a, &records_b);
            assert_same_trace(&who, &trace_a, &trace_b);
        }
    }
}

/// The recovery paths — WAL replay, catch-up transfer, resubmission —
/// stay inside the same deterministic envelope.
#[test]
fn chaos_library_replays_identically() {
    for dep in gdur_harness::chaos_library() {
        let who = format!("{} (seed {})", dep.label, dep.seed);
        let run = || run_checked(&dep, None, Some(TraceHandle::new())).expect_clean(&who);
        let (a, b) = (run(), run());
        assert_same_trace(&who, &jsonl::export(&a.events), &jsonl::export(&b.events));
        assert_eq!(
            (a.recoveries(), a.cluster.replica_stats()),
            (b.recoveries(), b.cluster.replica_stats()),
            "{who}: recovery counts differ between same-seed runs"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run_traced(gdur_protocols::jessy_2pc(), 1).0;
    let b = run_traced(gdur_protocols::jessy_2pc(), 2).0;
    // Same transaction counts (bounded clients), different timings.
    assert_eq!(a.len(), b.len());
    assert_ne!(a, b, "different seeds should explore different schedules");
}
