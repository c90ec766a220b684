//! `--selfcheck`: the benchmark checking its own premises, at quarter
//! horizons so it ends within half a minute.
//!
//! * each workload run twice under one seed gives bit-identical virtual
//!   numbers (every reported value not on the host clock, `sim.events`
//!   among them);
//! * a traced run equals an untraced one at the same horizon (tracing is
//!   zero-perturbation);
//! * the replay shares and `core.residual_share` sum to 1, with a warning
//!   when the replay kernels alone claim more than the whole run;
//! * `overload_pool`'s deployment, sized as `mega_smoke` sizes it, repeats
//!   the P-Store line of that gate's golden file at seed 11.
//!
//! Only virtual numbers are compared, so repetitions may share the machine:
//! two children run at a time.

use crate::driver::{collect, spawn, virtual_differences, warn_over_attribution, DEFAULT_SEED};
use crate::replay::SHARES;
use crate::run::{Report, RunOpts};
use crate::workloads::{Horizon, Workload, MEGA_SMOKE, WORKLOADS};

fn pair(a: RunOpts, b: RunOpts) -> Result<(Report, Report), String> {
    let (ca, cb) = (spawn(a)?, spawn(b));
    // Both are waited for before either error is looked at.
    let (ra, rb) = (collect(ca), cb.and_then(collect));
    Ok((ra?, rb?))
}

fn golden_line() -> Result<String, String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../crates/bench/golden/mega_smoke.txt"
    );
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .lines()
        .find(|l| l.starts_with("P-Store:"))
        .map(String::from)
        .ok_or_else(|| format!("no P-Store line in {path}"))
}

fn check_workload(w: &'static Workload, failures: &mut Vec<String>) -> Result<(), String> {
    let quarter = RunOpts {
        workload: w,
        seed: DEFAULT_SEED,
        horizon: Horizon::Quarter,
        traced: false,
        replay: false,
    };
    let (first, second) = pair(
        RunOpts {
            replay: true,
            ..quarter
        },
        quarter,
    )?;
    let with_trace = collect(spawn(RunOpts {
        traced: true,
        ..quarter
    })?)?;
    let mut fail = |what: String| failures.push(format!("{}: {what}", w.name));
    for r in [&first, &second, &with_trace] {
        for v in &r.violations {
            fail(format!("output check failed: {v}"));
        }
    }
    for name in virtual_differences(&first, &second) {
        fail(format!("{name} differs between two runs of one seed"));
    }
    for name in virtual_differences(&second, &with_trace) {
        fail(format!(
            "{name} differs between a traced and an untraced run"
        ));
    }
    let replayed: f64 = SHARES.iter().map(|s| first.get(s)).sum();
    let total = replayed + first.get("core.residual_share");
    if (total - 1.0).abs() > 1e-9 {
        fail(format!("replay shares and residual sum to {total}, not 1"));
    }
    warn_over_attribution(w, &first);
    println!(
        "  {:<20} {} events twice, traced run identical, replay explains {:.1}%",
        w.name,
        first.get("sim.events"),
        replayed * 100.0
    );
    Ok(())
}

/// Runs every check; returns the failures (empty = pass).
pub fn selfcheck() -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    // Started first: it is the longest single run, and shares the machine
    // with the quarter-horizon checks.
    let golden_run = spawn(RunOpts {
        workload: &MEGA_SMOKE,
        seed: DEFAULT_SEED,
        horizon: Horizon::Full,
        traced: false,
        replay: false,
    })?;
    let mut checked = Ok(());
    for w in &WORKLOADS {
        checked = check_workload(w, &mut failures);
        if checked.is_err() {
            break;
        }
    }
    // Collected even after a failure, so no child outlives this process.
    let r = collect(golden_run);
    checked?;
    let r = r?;
    let got = format!(
        "P-Store: clients={} issued={} committed={} aborted={} timeout_aborts={} events={}",
        MEGA_SMOKE.clients_per_site * MEGA_SMOKE.sites,
        r.get("raw.issued"),
        r.get("raw.committed"),
        r.get("raw.aborted"),
        r.get("core.abort_crash"),
        r.get("sim.events"),
    );
    let want = golden_line()?;
    if got != want {
        failures.push(format!("mega_smoke golden: want `{want}`, got `{got}`"));
    }
    failures.extend(
        r.violations
            .iter()
            .map(|v| format!("mega_smoke golden: {v}")),
    );
    println!("  {got}");
    Ok(failures)
}
