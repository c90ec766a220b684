//! Causal tracing: exact critical-path attribution, span-tree
//! well-formedness, Send↔Deliver matching, same-seed attribution
//! byte-identity, and zero perturbation — across the protocol library.
//! These are the invariants behind the attribution table of the
//! `obs_smoke` golden, asserted here and nowhere else.

use std::collections::BTreeMap;

use gdur_harness::{
    run_checked, run_point, CheckedRun, Experiment, PlacementKind, Scale, WorkloadKind,
};
use gdur_obs::{
    critical_path, jsonl, labels, render_attribution_text, tx_span_tree, Attribution, CausalIndex,
    ObsEvent, TraceHandle,
};
use gdur_sim::SimDuration;

fn scale() -> Scale {
    Scale {
        keys_per_partition: 500,
        value_size: 64,
        warmup: SimDuration::from_millis(200),
        measure: SimDuration::from_millis(500),
        client_sweep: vec![2],
        seed: 11,
    }
}

fn causal(spec: gdur_core::ProtocolSpec) -> CheckedRun {
    let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);
    let dep = exp.deployment(&scale(), 2);
    run_checked(&dep, None, Some(TraceHandle::causal())).expect_clean(&dep.label)
}

/// The committed-in-window transactions of a causal run.
fn committed(run: &CheckedRun, ix: &CausalIndex) -> Vec<u64> {
    ix.tx_points
        .iter()
        .filter(|(_, pts)| {
            pts.iter().any(|&pi| {
                matches!(run.events[pi], ObsEvent::Point { at, label, value, .. }
                    if label == labels::TXN_DECIDE && value == 1 && at >= run.window_start)
            })
        })
        .map(|(&tx, _)| tx)
        .collect()
}

#[test]
fn span_trees_are_well_formed_across_the_protocol_library() {
    for spec in [
        gdur_protocols::p_store(),
        gdur_protocols::s_dur(),
        gdur_protocols::walter(),
        gdur_protocols::jessy_2pc(),
    ] {
        let name = spec.name;
        let run = causal(spec);
        let ix = CausalIndex::build(&run.events);
        let txs = committed(&run, &ix);
        assert!(!txs.is_empty(), "{name}: no committed txns in the window");
        // The attribution table aggregates exactly these transactions.
        let a = Attribution::collect(&run.events, &ix, &run.clients(), run.window_start);
        assert_eq!(a.txns, txs.len() as u64, "{name}: attribution window");
        for tx in txs {
            // Exactly one root per committed transaction, acyclic by
            // construction (a tree), every child interval in its parent.
            let tree = tx_span_tree(&run.events, &ix, tx)
                .unwrap_or_else(|| panic!("{name}: committed tx {tx} has no span tree"));
            tree.well_formed()
                .unwrap_or_else(|e| panic!("{name}: tx {tx}: {e}"));
            assert!(tree.count() >= 2, "{name}: tx {tx}: root has no children");
            // And its critical path attributes the whole latency, exactly.
            let cp = critical_path(&run.events, &ix, &run.clients(), tx)
                .unwrap_or_else(|| panic!("{name}: committed tx {tx} has no critical path"));
            assert_eq!(
                cp.attributed_ns(),
                cp.latency_ns,
                "{name}: tx {tx}: attribution must be exact"
            );
            for w in cp.segments.windows(2) {
                assert_eq!(
                    w[0].to, w[1].from,
                    "{name}: tx {tx}: critical path has a gap or overlap"
                );
            }
        }
    }
}

#[test]
fn every_send_is_matched_by_exactly_one_deliver_when_no_actor_crashes() {
    let run = causal(gdur_protocols::p_store());
    let ix = CausalIndex::build(&run.events);
    let mut delivers: BTreeMap<u64, u32> = BTreeMap::new();
    for ev in &run.events {
        if let ObsEvent::Deliver { mid, .. } = *ev {
            *delivers.entry(mid).or_insert(0) += 1;
        }
    }
    for (&mid, &n) in &delivers {
        assert!(ix.sends.contains_key(&mid), "deliver {mid} without a send");
        assert_eq!(n, 1, "mid {mid} delivered more than once");
    }
    // The run is time-bounded: only messages still on the wire at the
    // cutoff may lack a Deliver, calibrated by the largest observed delay.
    let end = run.events.iter().map(ObsEvent::at).max().expect("events");
    let slack = ix
        .sends
        .values()
        .filter_map(|s| s.delivered.map(|d| d.saturating_since(s.departed)))
        .max()
        .unwrap_or(SimDuration::ZERO);
    for (&mid, s) in &ix.sends {
        if s.delivered.is_none() {
            assert!(
                s.departed + slack >= end,
                "send mid={mid} ({} p{}→p{}) dropped mid-run without a crash",
                s.label,
                s.from.0,
                s.to.0
            );
        }
    }
    // Every delivery-triggered handler traces back to its send.
    for h in &ix.handlers {
        if h.trigger == gdur_sim::trigger::MSG {
            assert!(
                ix.sends.contains_key(&h.mid),
                "handler on p{} triggered by unknown mid {}",
                h.actor.0,
                h.mid
            );
        }
    }
}

/// What `gdur-trace dump --tx/--actor` relies on: JSONL is one line per
/// event, so a causal trace cut down to one transaction's points, or to one
/// actor's events, exports exactly the full export's lines for the kept
/// events.
#[test]
fn a_causal_trace_filtered_to_one_tx_or_one_actor_exports_its_lines() {
    let run = causal(gdur_protocols::walter());
    let ix = CausalIndex::build(&run.events);
    let full = jsonl::export(&run.events);
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), run.events.len());
    let filtered = |keep: &dyn Fn(&ObsEvent) -> bool| {
        let kept: Vec<ObsEvent> = run.events.iter().filter(|e| keep(e)).copied().collect();
        let want: String = run
            .events
            .iter()
            .zip(&lines)
            .filter(|(e, _)| keep(e))
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert_eq!(jsonl::export(&kept), want);
        kept.len()
    };

    let tx = committed(&run, &ix)[0];
    let points = filtered(&|e| matches!(*e, ObsEvent::Point { tx: t, .. } if t == tx));
    assert_eq!(points, ix.tx_points[&tx].len());

    let replica = gdur_sim::ProcessId(0);
    let at_replica = filtered(&|e| match *e {
        ObsEvent::Point { actor, .. }
        | ObsEvent::HandleStart { actor, .. }
        | ObsEvent::HandleEnd { actor, .. } => actor == replica,
        ObsEvent::Send { from, to, .. } => from == replica || to == replica,
        ObsEvent::Deliver { to, .. } => to == replica,
    });
    assert!(at_replica > 0 && at_replica < run.events.len());
}

#[test]
fn same_seed_attribution_tables_are_byte_identical() {
    let render = || {
        let run = causal(gdur_protocols::s_dur());
        let ix = CausalIndex::build(&run.events);
        let a = Attribution::collect(&run.events, &ix, &run.clients(), run.window_start);
        render_attribution_text(&[("S-DUR".to_string(), a)])
    };
    assert_eq!(render(), render());
}

#[test]
fn causal_tracing_does_not_perturb_the_measured_point() {
    let spec = gdur_protocols::walter();
    let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);
    let untraced = run_point(&exp, &scale(), 2);
    let traced = run_checked(
        &exp.deployment(&scale(), 2),
        None,
        Some(TraceHandle::causal()),
    );
    assert_eq!(traced.point(), untraced);
    // The causal trace really is causal: handler brackets are present and
    // were recorded without drawing any virtual time.
    let ix = CausalIndex::build(&traced.events);
    assert!(!ix.handlers.is_empty(), "no handler brackets recorded");
}
