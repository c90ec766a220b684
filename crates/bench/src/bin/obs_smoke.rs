//! CI observability gate: renders the two tables the paper-style analysis
//! rests on, for one deployment (workload C, 70 % queries, 3 sites DP,
//! seed 7), and diffs them against `crates/bench/golden/obs_smoke.txt`:
//!
//! * the phase breakdown of P-Store and S-DUR at 2 and 24 clients/site;
//! * the critical-path attribution of P-Store, S-DUR and Walter at 4
//!   clients/site — the table `gdur-trace attribute` prints.
//!
//! The invariants behind the numbers are tier-1 tests, each asserted in one
//! place: exact attribution, span trees, Send↔Deliver matching and zero
//! perturbation in `tests/tests/trace.rs`; the abort partition and the
//! convoy in `crates/harness/tests/breakdown.rs`; same-seed trace bytes in
//! `crates/harness/tests/obs_determinism.rs` and `tests/tests/determinism.rs`.
//!
//! Usage: `cargo run --release -p gdur-bench --bin obs_smoke [--bless]`
//! (`--bless` regenerates the golden file).

use gdur_harness::{
    render_breakdown_text, run_checked, BreakdownRow, Experiment, PlacementKind, Scale,
    WorkloadKind,
};
use gdur_obs::{render_attribution_text, Attribution, CausalIndex, TraceHandle};
use gdur_sim::SimDuration;

/// A fixed scale, independent of `--quick`/`--seed`: the rendered tables
/// are diffed byte-for-byte against the golden file.
fn smoke_scale() -> Scale {
    Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![2, 24],
        seed: 7,
    }
}

/// Clients per site of the attribution table (`gdur-trace`'s default).
const ATTRIBUTION_CLIENTS: usize = 4;

fn experiment(spec: gdur_core::ProtocolSpec) -> Experiment {
    Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp)
}

fn main() {
    let args = gdur_bench::Args::of("obs_smoke", &["--bless"], &[]);
    let scale = smoke_scale();

    let mut rows: Vec<BreakdownRow> = Vec::new();
    for spec in [gdur_protocols::p_store(), gdur_protocols::s_dur()] {
        let exp = experiment(spec);
        for &cps in &scale.client_sweep {
            let dep = exp.deployment(&scale, cps);
            let run = run_checked(&dep, None, Some(TraceHandle::new())).expect_clean(&dep.label);
            rows.push(BreakdownRow {
                label: exp.spec.name.to_string(),
                clients: cps * exp.sites,
                breakdown: run.breakdown(),
            });
        }
    }

    let mut attributions: Vec<(String, Attribution)> = Vec::new();
    for spec in [
        gdur_protocols::p_store(),
        gdur_protocols::s_dur(),
        gdur_protocols::walter(),
    ] {
        let exp = experiment(spec);
        let dep = exp.deployment(&scale, ATTRIBUTION_CLIENTS);
        let run = run_checked(&dep, None, Some(TraceHandle::causal())).expect_clean(&dep.label);
        let ix = CausalIndex::build(&run.events);
        let a = Attribution::collect(&run.events, &ix, &run.clients(), run.window_start);
        attributions.push((exp.spec.name.to_string(), a));
    }

    let tables = format!(
        "{}\n{}",
        render_breakdown_text(&rows),
        render_attribution_text(&attributions)
    );
    print!("{tables}");
    gdur_bench::golden::check(
        &args,
        "obs_smoke",
        "breakdown and attribution tables",
        &tables,
    );
}
