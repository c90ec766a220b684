//! Determinism and non-perturbation tests for the observability layer:
//! same-seed traced runs export byte-identical traces and equal phase
//! breakdowns, attaching a sink never changes the measured result, and the
//! trace stream respects per-(transaction, actor) causal order.

use std::collections::BTreeMap;

use gdur_harness::{
    run_checked, run_point, CheckedRun, Experiment, PlacementKind, Scale, WorkloadKind,
};
use gdur_obs::{jsonl, ObsEvent, TraceHandle};
use gdur_sim::SimDuration;

fn tiny_scale() -> Scale {
    Scale {
        keys_per_partition: 500,
        value_size: 64,
        warmup: SimDuration::from_millis(200),
        measure: SimDuration::from_millis(800),
        client_sweep: vec![2],
        seed: 11,
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

fn traced(exp: &Experiment, scale: &Scale) -> CheckedRun {
    let dep = exp.deployment(scale, 2);
    run_checked(&dep, None, Some(TraceHandle::new())).expect_clean(&dep.label)
}

#[test]
fn same_seed_traces_and_metrics_are_byte_identical() {
    let (exp, scale) = (exp(), tiny_scale());
    let r1 = traced(&exp, &scale);
    let r2 = traced(&exp, &scale);
    assert_eq!(r1.point(), r2.point(), "same-seed point results must match");

    assert!(!r1.events.is_empty(), "traced run produced no events");
    let (t1, t2) = (jsonl::export(&r1.events), jsonl::export(&r2.events));
    assert_eq!(t1, t2, "same-seed trace streams must be byte-identical");

    assert_eq!(
        r1.breakdown(),
        r2.breakdown(),
        "same-seed phase breakdowns must be equal"
    );
}

#[test]
fn tracing_does_not_perturb_the_measurement() {
    let (exp, scale) = (exp(), tiny_scale());
    let plain = run_point(&exp, &scale, 2);
    let traced = traced(&exp, &scale);
    assert_eq!(
        plain,
        traced.point(),
        "attaching an obs sink must not change a single measured bit"
    );
    assert!(
        traced.breakdown().committed > 0,
        "traced window saw no commits"
    );
}

#[test]
fn point_events_are_monotone_per_transaction_and_actor() {
    let (exp, scale) = (exp(), tiny_scale());
    let events = traced(&exp, &scale).events;
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
