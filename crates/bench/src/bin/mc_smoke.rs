//! CI model-checking gate: bounded DPOR-lite exploration over the
//! `gdur-mc` library configs plus the Walter-PSI regression config.
//!
//! Checks that every library config explores at least `MIN_SCHEDULES`
//! distinct schedules with the invariant bundle holding on each, that
//! commutativity pruning removes at least half of the naive branches in
//! aggregate, that exploration is a pure function of the config
//! (same-config reruns agree on every count), and that the re-introduced
//! PR 1 PSI fractured-read bug is found, minimized, and replayed to the
//! same violation. The per-config counts are then diffed against the
//! checked-in golden file — any drift in the explored schedule tree is a
//! kernel or scheduler semantics change and must be blessed consciously.
//!
//! Usage: `cargo run --release -p gdur-bench --bin mc_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/mc_smoke.txt`).

use std::process::exit;

use gdur_bench::mc::{explore, mc_library, replay, walter_psi_bug_config};
use gdur_obs::TraceHandle;

/// Acceptance floor for distinct schedules per library config.
const MIN_SCHEDULES: u64 = 1000;
/// Schedule budget per library config.
const BUDGET: u64 = 1200;
/// Budget for the regression config (the bug must show up early).
const BUG_BUDGET: u64 = 50;

fn main() {
    let args = gdur_bench::Args::of("mc_smoke", &["--bless"], &[]);
    let mut lines = Vec::new();
    let (mut naive_total, mut explored_total) = (0u64, 0u64);

    for cfg in mc_library() {
        let r = explore(&cfg, BUDGET);
        println!(
            "{}: schedules={} choice_points={} naive_branches={} \
             explored_branches={} pruned={:.1}%",
            r.label,
            r.schedules,
            r.choice_points,
            r.naive_branches,
            r.explored_branches,
            r.pruned_pct()
        );
        if let Some(cx) = &r.counterexample {
            eprintln!(
                "mc_smoke: {}: library config violated an invariant: {}\n{}",
                r.label,
                cx.violation,
                cx.to_text().unwrap_or_else(|e| e)
            );
            exit(1);
        }
        if r.schedules < MIN_SCHEDULES {
            eprintln!(
                "mc_smoke: {}: explored only {} schedules (need >= {MIN_SCHEDULES})",
                r.label, r.schedules
            );
            exit(1);
        }
        // Same config → same tree: exploration must be deterministic.
        let again = explore(&cfg, BUDGET);
        if (
            again.schedules,
            again.naive_branches,
            again.explored_branches,
        ) != (r.schedules, r.naive_branches, r.explored_branches)
        {
            eprintln!(
                "mc_smoke: {}: same-config rerun explored a different tree",
                r.label
            );
            exit(1);
        }
        naive_total += r.naive_branches;
        explored_total += r.explored_branches;
        lines.push(format!(
            "{} schedules={} choice_points={} naive={} explored={} pruned={:.1}% clean",
            r.label,
            r.schedules,
            r.choice_points,
            r.naive_branches,
            r.explored_branches,
            r.pruned_pct()
        ));
    }

    let pruned = 100.0 * (1.0 - explored_total as f64 / naive_total as f64);
    println!("aggregate: pruned={pruned:.1}% of {naive_total} naive branches");
    if pruned < 50.0 {
        eprintln!("mc_smoke: DPOR pruning fell below 50% ({pruned:.1}%)");
        exit(1);
    }
    lines.push(format!(
        "aggregate naive={naive_total} explored={explored_total} pruned={pruned:.1}%"
    ));

    // The regression half: the re-armed PR 1 PSI fractured read must be
    // found within a small budget, minimized, and replayable.
    let bug = walter_psi_bug_config();
    let label = &bug.deployment.label;
    let r = explore(&bug, BUG_BUDGET);
    let Some(cx) = &r.counterexample else {
        eprintln!(
            "mc_smoke: {label} ran {} schedules clean — the re-introduced PSI bug \
             was not found",
            r.schedules
        );
        exit(1);
    };
    println!(
        "{label}: found after {} schedules, minimized to {} decisions in {} runs: {}",
        r.schedules,
        cx.decisions.len(),
        r.minimize_runs,
        cx.violation
    );
    if r.schedules <= 1 {
        eprintln!("mc_smoke: {label}: default schedule already violates; the config no longer demonstrates schedule exploration");
        exit(1);
    }
    let out = replay(cx, TraceHandle::new());
    if out.run.violations.first() != Some(&cx.violation) {
        eprintln!(
            "mc_smoke: {label}: replay did not reproduce the recorded violation \
             (got {:?})",
            out.run.violations
        );
        exit(1);
    }
    lines.push(format!(
        "{label} found_after={} minimized={} trace_events={} violation={}",
        r.schedules,
        cx.decisions.len(),
        out.run.events.len(),
        cx.violation
    ));

    let table = format!("{}\n", lines.join("\n"));
    gdur_bench::golden::check(&args, "mc_smoke", "exploration counts", &table);
}
