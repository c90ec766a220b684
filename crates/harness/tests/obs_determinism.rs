//! Determinism and non-perturbation tests for the observability layer:
//! same-seed traced runs export byte-identical traces and metrics
//! snapshots, attaching a sink never changes the measured result, and the
//! trace stream respects per-(transaction, actor) causal order.

use std::collections::BTreeMap;

use gdur_harness::{run_point, run_point_traced, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_obs::{jsonl, ObsEvent};
use gdur_sim::SimDuration;

fn tiny_scale() -> Scale {
    Scale {
        keys_per_partition: 500,
        value_size: 64,
        warmup: SimDuration::from_millis(200),
        measure: SimDuration::from_millis(800),
        client_sweep: vec![2],
        cores: 4,
        seed: 11,
        client_pooling: false,
    }
}

fn exp() -> Experiment {
    Experiment::new(
        gdur_protocols::p_store(),
        WorkloadKind::A,
        0.9,
        3,
        PlacementKind::Dp,
    )
}

#[test]
fn same_seed_traces_and_metrics_are_byte_identical() {
    let (exp, scale) = (exp(), tiny_scale());
    let (p1, b1, e1) = run_point_traced(&exp, &scale, 2);
    let (p2, b2, e2) = run_point_traced(&exp, &scale, 2);
    assert_eq!(p1, p2, "same-seed point results must match");

    let (t1, t2) = (jsonl::export(&e1), jsonl::export(&e2));
    let n = jsonl::validate(&t1).expect("exported trace must satisfy its own schema");
    assert!(n > 0, "traced run produced no events");
    assert_eq!(t1, t2, "same-seed trace streams must be byte-identical");

    let (s1, s2) = (b1.to_registry().snapshot(), b2.to_registry().snapshot());
    assert_eq!(s1, s2, "same-seed metrics snapshots must be byte-identical");
}

#[test]
fn tracing_does_not_perturb_the_measurement() {
    let (exp, scale) = (exp(), tiny_scale());
    let plain = run_point(&exp, &scale, 2);
    let (traced, breakdown, _) = run_point_traced(&exp, &scale, 2);
    assert_eq!(
        plain, traced,
        "attaching an obs sink must not change a single measured bit"
    );
    assert!(breakdown.committed > 0, "traced window saw no commits");
}

#[test]
fn point_events_are_monotone_per_transaction_and_actor() {
    let (exp, scale) = (exp(), tiny_scale());
    let (_, _, events) = run_point_traced(&exp, &scale, 2);
    // The global stream interleaves transactions and actors arbitrarily,
    // but within one (tx, actor) pair, lifecycle points must appear in
    // nondecreasing SimTime order.
    let mut last: BTreeMap<(u64, u32), gdur_sim::SimTime> = BTreeMap::new();
    let mut points = 0u64;
    for ev in &events {
        if let ObsEvent::Point {
            at,
            actor,
            tx,
            label,
            ..
        } = *ev
        {
            if let Some(prev) = last.insert((tx, actor.0), at) {
                assert!(
                    at >= prev,
                    "event {label} for tx {tx} at actor {} goes back in time ({at} < {prev})",
                    actor.0
                );
            }
            points += 1;
        }
    }
    assert!(points > 0, "no point events in the trace");
}
