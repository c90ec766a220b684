//! CI chaos gate: runs the schedule library (crash → partition → heal →
//! restart, one entry per recovery path) at 16 clients/site × 200
//! transactions — the size at which recovery bugs show, where 2 × 30 hid
//! them (ROADMAP item 10) — checks that the run passes its one verdict
//! (`check_invariants`: the history, converged stores, the abort causes)
//! and that restarted replicas commit new transactions, and diffs the
//! recovery-event counts against the checked-in golden file. That same-seed
//! reruns of this library are trace-identical is `tests/tests/determinism.rs`'s
//! check.
//!
//! Usage: `cargo run --release -p gdur-bench --bin chaos_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/chaos_smoke.txt`).

use std::process::exit;

use gdur_harness::{chaos_library, run_checked, stores_converged, Horizon};
use gdur_obs::TraceHandle;

fn main() {
    let args = gdur_bench::Args::of("chaos_smoke", &["--bless"], &[]);
    let mut lines = Vec::new();

    for mut dep in chaos_library() {
        (dep.clients_per_site, dep.horizon) = (16, Horizon::Drain(200));
        let run = run_checked(&dep, None, Some(TraceHandle::new()));
        let (label, cluster) = (&dep.label, &run.cluster);
        let (r, stats) = (run.recoveries(), cluster.replica_stats());
        let records = cluster.records();
        let committed = records.iter().filter(|t| t.committed).count();
        println!(
            "{label}: {committed} committed / {} aborted, {} post-restart commits, \
             {} catch-up installs, {} trace events",
            records.len() - committed,
            r.post_restart_commits,
            stats.catchup_installs,
            run.events.len()
        );
        if let Some(v) = run.violations.first() {
            eprintln!("chaos_smoke: {label} failed its verdict: {v}");
            exit(1);
        }
        if r.crashes == 0 || r.restarts == 0 || stats.recoveries == 0 {
            eprintln!(
                "chaos_smoke: {label}: schedule did not exercise crash-recovery \
                 (crashes={} restarts={} replays={})",
                r.crashes, r.restarts, stats.recoveries
            );
            exit(1);
        }
        if r.post_restart_commits == 0 {
            eprintln!(
                "chaos_smoke: {label}: the restarted replica committed nothing \
                 after its restart"
            );
            exit(1);
        }
        // Client-visible commit/abort counts are left out on purpose: they
        // depend on virtual-time races that legitimately shift when cost
        // models are tuned, while the recovery-event counts are structural.
        // Only a run that passed its verdict gets a line.
        let ms = |d: gdur_sim::SimDuration| d.as_nanos() as f64 / 1e6;
        lines.push(format!(
            "{label}: crashes={} restarts={} replays={} resubmissions={} completes={} pages={} \
             replay_ms={:.3} recovery_ms={:.3} converged={} violation=none",
            r.crashes,
            r.restarts,
            stats.recoveries,
            stats.resubmissions,
            r.completes,
            stats.catchup_pages,
            ms(r.replay),
            ms(r.recovery),
            stores_converged(cluster),
        ));
    }

    let table = format!("{}\n", lines.join("\n"));
    gdur_bench::golden::check(&args, "chaos_smoke", "recovery counts", &table);
}
