//! CI chaos gate: runs the schedule library (crash → partition → heal →
//! restart, one entry per recovery path) at 16 clients/site × 200
//! transactions — the size at which recovery bugs show, where 2 × 30 hid
//! them (ROADMAP item 10) — checks that history verification passes, that
//! restarted replicas converge with their peers and commit new
//! transactions, and diffs the recovery-event counts against the
//! checked-in golden file. That same-seed reruns of this
//! library are trace-identical is `tests/tests/determinism.rs`'s check.
//!
//! Usage: `cargo run --release -p gdur-bench --bin chaos_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/chaos_smoke.txt`).

use std::process::exit;

use gdur_harness::{chaos_library, run_chaos, Horizon};

fn main() {
    let mut lines = Vec::new();

    for mut cfg in chaos_library() {
        (cfg.clients_per_site, cfg.horizon) = (16, Horizon::Drain(200));
        let (report, events) = run_chaos(&cfg);
        println!(
            "{}: {} committed / {} aborted, {} post-restart commits, \
             {} catch-up installs, {} trace events",
            report.label,
            report.committed,
            report.aborted,
            report.post_restart_commits,
            report.catchup_installs,
            events.len()
        );
        if let Some(v) = &report.violation {
            eprintln!("chaos_smoke: {} violated its criterion: {v}", report.label);
            exit(1);
        }
        if !report.converged {
            eprintln!(
                "chaos_smoke: {}: replica stores diverged after recovery",
                report.label
            );
            exit(1);
        }
        if report.crashes == 0 || report.restarts == 0 || report.replays == 0 {
            eprintln!(
                "chaos_smoke: {}: schedule did not exercise crash-recovery \
                 (crashes={} restarts={} replays={})",
                report.label, report.crashes, report.restarts, report.replays
            );
            exit(1);
        }
        if report.post_restart_commits == 0 {
            eprintln!(
                "chaos_smoke: {}: the restarted replica committed nothing \
                 after its restart",
                report.label
            );
            exit(1);
        }
        lines.push(report.golden_line());
    }

    let table = format!("{}\n", lines.join("\n"));
    gdur_bench::golden::check("chaos_smoke", "recovery counts", &table);
}
