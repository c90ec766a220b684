//! CI observability gate: runs a small traced sweep for two Table-2 GC
//! protocols, validates the exported JSONL trace against its schema, checks
//! the convoy-effect and abort-partition invariants, and diffs the
//! phase-breakdown table against the checked-in golden file.
//!
//! Usage: `cargo run --release -p gdur-bench --bin obs_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/obs_smoke.txt`).

use std::process::exit;

use gdur_harness::{
    render_breakdown_text, run_point_with, BreakdownRow, Experiment, PlacementKind, PointRun,
    Scale, WorkloadKind,
};
use gdur_obs::{jsonl, Phase, TraceHandle};
use gdur_sim::SimDuration;

/// A fixed scale, independent of `--quick`/`--seed`: the rendered table is
/// diffed byte-for-byte against the golden file.
fn smoke_scale() -> Scale {
    Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![2, 24],
        seed: 7,
        ..Scale::quick()
    }
}

fn main() {
    let scale = smoke_scale();
    let mut rows: Vec<BreakdownRow> = Vec::new();

    for spec in [gdur_protocols::p_store(), gdur_protocols::s_dur()] {
        let name = spec.name;
        let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);
        for &cps in &scale.client_sweep {
            let PointRun {
                breakdown, events, ..
            } = run_point_with(&exp, &scale, cps, Some(TraceHandle::new()));
            let trace = jsonl::export(&events);
            match jsonl::validate(&trace) {
                Ok(n) => println!("{name} @ {cps} clients/site: {n} trace events, schema ok"),
                Err(e) => {
                    eprintln!("obs_smoke: {name} exported an invalid trace: {e}");
                    exit(1);
                }
            }
            assert_eq!(
                breakdown.causes_sum(),
                breakdown.aborted,
                "{name} @ {cps}: abort causes must partition `aborted`"
            );
            rows.push(BreakdownRow {
                label: name.to_string(),
                clients: cps * exp.sites,
                breakdown,
            });
        }
        // The convoy effect (§6): certification-queue residence grows with
        // offered load toward the saturation knee.
        let (lo, hi) = (&rows[rows.len() - 2], &rows[rows.len() - 1]);
        let (lo_wait, hi_wait) = (
            lo.breakdown.phase(Phase::QueueWait).mean(),
            hi.breakdown.phase(Phase::QueueWait).mean(),
        );
        if hi_wait <= lo_wait {
            eprintln!(
                "obs_smoke: {name}: queue wait did not grow with load \
                 ({lo_wait:.0} ns @ {} clients vs {hi_wait:.0} ns @ {} clients)",
                lo.clients, hi.clients
            );
            exit(1);
        }
    }

    let table = render_breakdown_text(&rows);
    println!("\n{table}");
    gdur_bench::golden::check("obs_smoke", "breakdown table", &table);
}
