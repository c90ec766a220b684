//! CI causal-tracing gate: runs causally-traced sweep points for three
//! protocols (Walter's deferred-read polling exercises the unchainable
//! timer path), hard-asserts the tracing invariants, and diffs the
//! critical-path attribution tables against the checked-in golden file.
//!
//! Asserted per protocol, before any golden comparison:
//!
//! 1. **Exact attribution** — every committed transaction's critical-path
//!    segments are contiguous and sum EXACTLY to its measured begin→decide
//!    latency (no residual, no double counting).
//! 2. **Span-tree well-formedness** — one root per committed transaction,
//!    every child interval inside its parent.
//! 3. **Send↔Deliver matching** — in a crash-free run every `Send` has
//!    exactly one `Deliver` with the same message id.
//! 4. **Schema** — the JSONL export validates (v2), and the Chrome export
//!    parses as JSON.
//! 5. **Zero perturbation** — the causally-traced point result is
//!    bit-identical to the untraced [`run_point`] of the same seed.
//!
//! Usage: `cargo run --release -p gdur-bench --bin trace_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/trace_smoke.txt`).

use std::collections::BTreeMap;
use std::process::exit;

use gdur_harness::{run_point, run_point_with, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_obs::{
    critical_path, export_chrome, jsonl, labels, render_attribution_text, tx_span_tree,
    validate_json, Attribution, CausalIndex, ObsEvent, TraceHandle,
};
use gdur_sim::SimDuration;

/// A fixed scale, independent of `--quick`/`--seed`: the rendered table is
/// diffed byte-for-byte against the golden file.
fn smoke_scale() -> Scale {
    Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![4],
        seed: 7,
        ..Scale::quick()
    }
}

fn main() {
    let scale = smoke_scale();
    let cps = scale.client_sweep[0];
    let mut rows: Vec<(String, Attribution)> = Vec::new();

    for spec in [
        gdur_protocols::p_store(),
        gdur_protocols::s_dur(),
        gdur_protocols::walter(),
    ] {
        let name = spec.name;
        let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);

        // (5) zero perturbation: causal tracing must not move a single bit
        // of the measured point.
        let untraced = run_point(&exp, &scale, cps);
        let run = run_point_with(&exp, &scale, cps, Some(TraceHandle::causal()));
        assert_eq!(
            run.point, untraced,
            "{name}: causal tracing perturbed the run"
        );

        // (4) schema: JSONL v2 and Chrome JSON both validate.
        let trace = jsonl::export(&run.events);
        if let Err(e) = jsonl::validate(&trace) {
            eprintln!("trace_smoke: {name} exported an invalid JSONL trace: {e}");
            exit(1);
        }
        let ix = CausalIndex::build(&run.events);
        let chrome = export_chrome(&run.events, &ix, &run.actor_names);
        if let Err(e) = validate_json(&chrome) {
            eprintln!("trace_smoke: {name} chrome export is not valid JSON: {e}");
            exit(1);
        }

        // (3) Send↔Deliver matching: crash-free runs deliver every message
        // exactly once. The run is time-bounded, so messages still on the
        // wire at the cutoff legitimately lack a Deliver — tolerate exactly
        // those, calibrated by the largest delivery delay actually observed.
        let mut delivers: BTreeMap<u64, u32> = BTreeMap::new();
        for ev in &run.events {
            if let ObsEvent::Deliver { mid, .. } = *ev {
                *delivers.entry(mid).or_insert(0) += 1;
            }
        }
        for (&mid, &n) in &delivers {
            assert!(
                ix.sends.contains_key(&mid),
                "{name}: deliver mid={mid} has no matching send"
            );
            assert_eq!(n, 1, "{name}: mid={mid} delivered more than once");
        }
        let end = run
            .events
            .iter()
            .map(ObsEvent::at)
            .max()
            .expect("non-empty trace");
        let slack = ix
            .sends
            .values()
            .filter_map(|s| s.delivered.map(|d| d.saturating_since(s.departed)))
            .max()
            .unwrap_or(gdur_sim::SimDuration::ZERO);
        for (&mid, s) in &ix.sends {
            if s.delivered.is_none() {
                assert!(
                    s.departed + slack >= end,
                    "{name}: send mid={mid} ({} p{}→p{}) was dropped mid-run, \
                     not merely in flight at the cutoff",
                    s.label,
                    s.from.0,
                    s.to.0
                );
            }
        }

        // (1) exact attribution + (2) span-tree well-formedness, for every
        // committed transaction of the measurement window.
        let mut walked = 0u64;
        for (&tx, pts) in &ix.tx_points {
            let committed = pts.iter().any(|&pi| {
                matches!(run.events[pi], ObsEvent::Point { at, label, value, .. }
                    if label == labels::TXN_DECIDE && value == 1 && at >= run.warm_end)
            });
            if !committed {
                continue;
            }
            let cp = critical_path(&run.events, &ix, &run.clients, tx)
                .unwrap_or_else(|| panic!("{name}: committed tx {tx} has no critical path"));
            assert_eq!(
                cp.attributed_ns(),
                cp.latency_ns,
                "{name}: tx {tx}: attributed phases must sum exactly to commit latency"
            );
            for w in cp.segments.windows(2) {
                assert_eq!(
                    w[0].to, w[1].from,
                    "{name}: tx {tx}: critical path has a gap or overlap"
                );
            }
            let tree = tx_span_tree(&run.events, &ix, tx)
                .unwrap_or_else(|| panic!("{name}: committed tx {tx} has no span tree"));
            if let Err(e) = tree.well_formed() {
                eprintln!("trace_smoke: {name}: tx {tx} span tree malformed: {e}");
                exit(1);
            }
            walked += 1;
        }
        if walked == 0 {
            eprintln!("trace_smoke: {name}: no committed transactions in the window");
            exit(1);
        }
        println!(
            "{name} @ {cps} clients/site: {} events, {} handler spans, \
             {walked} committed txns attributed exactly",
            run.events.len(),
            ix.handlers.len()
        );

        let a = Attribution::collect(&run.events, &ix, &run.clients, run.warm_end);
        assert_eq!(a.txns, walked, "{name}: attribution window mismatch");
        rows.push((name.to_string(), a));
    }

    let table = render_attribution_text(&rows);
    println!("\n{table}");
    gdur_bench::golden::check("trace_smoke", "attribution table", &table);
}
