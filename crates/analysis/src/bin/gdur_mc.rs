//! `gdur-mc` — CLI for the DPOR-lite schedule explorer.
//!
//! ```text
//! gdur-mc list
//! gdur-mc explore <label> [--budget N] [--random N] [--seed S] [--out FILE]
//! gdur-mc replay <counterexample-file> [--trace FILE] [--chrome FILE]
//! ```
//!
//! `explore` runs bounded DFS (or `--random` uniform walks) over the named
//! configuration and writes a minimized, replayable counterexample file on
//! violation. `replay` re-executes a counterexample's exact schedule and
//! dumps the violating run's observability trace as jsonl (`--trace`)
//! and/or as a Chrome/Perfetto trace with one track per actor and flow
//! arrows along the message edges of the violating schedule (`--chrome`).

use std::process::ExitCode;

use gdur_analysis::mc::{
    explore, mc_library, random_walks, replay, replay_causal, walter_psi_bug_config,
    Counterexample, ExploreResult, McConfig,
};

fn configs() -> Vec<McConfig> {
    let mut all = mc_library();
    all.push(walter_psi_bug_config());
    all
}

fn report(r: &ExploreResult) {
    println!(
        "{}: schedules={} choice_points={} naive_branches={} explored_branches={} pruned={:.1}% {}",
        r.label,
        r.schedules,
        r.choice_points,
        r.naive_branches,
        r.explored_branches,
        r.pruned_pct(),
        if r.exhausted {
            "space-exhausted"
        } else {
            "budget-bounded"
        }
    );
    match &r.counterexample {
        Some(cx) => println!(
            "  VIOLATION {} (minimized to {} decisions in {} runs)",
            cx.violation,
            cx.decisions.len(),
            r.minimize_runs
        ),
        None => println!("  invariants hold on every explored schedule"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            for cfg in configs() {
                println!(
                    "{}: protocol={} sites={} clients_per_site={} txns_per_client={} window={}ns{}",
                    cfg.label,
                    cfg.spec.name,
                    cfg.sites,
                    cfg.clients_per_site,
                    cfg.txns_per_client,
                    cfg.window.as_nanos(),
                    if cfg.reintroduce_psi_bug {
                        " [psi-bug re-introduced]"
                    } else {
                        ""
                    }
                );
            }
            ExitCode::SUCCESS
        }
        Some("explore") => {
            let Some(label) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: gdur-mc explore <label> [--budget N] [--random N] [--out FILE]");
                return ExitCode::FAILURE;
            };
            let Some(mut cfg) = configs().into_iter().find(|c| &c.label == label) else {
                eprintln!("unknown config {label:?}; try `gdur-mc list`");
                return ExitCode::FAILURE;
            };
            if let Some(seed) = flag("--seed") {
                cfg.seed = seed.parse().expect("--seed takes a number");
            }
            let budget: u64 = flag("--budget")
                .map(|v| v.parse().expect("--budget takes a number"))
                .unwrap_or(500);
            let result = match flag("--random") {
                Some(n) => random_walks(&cfg, n.parse().expect("--random takes a number"), 1),
                None => explore(&cfg, budget),
            };
            report(&result);
            if let Some(cx) = &result.counterexample {
                if let Some(path) = flag("--out") {
                    std::fs::write(&path, cx.to_text()).expect("write counterexample");
                    println!("  counterexample written to {path}");
                } else {
                    print!("{}", cx.to_text());
                }
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("replay") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: gdur-mc replay <counterexample-file> [--trace FILE]");
                return ExitCode::FAILURE;
            };
            let text = std::fs::read_to_string(path).expect("read counterexample");
            let cx = Counterexample::parse(&text).expect("parse counterexample");
            let (violations, trace) = replay(&cx).expect("rebuild config");
            println!(
                "{}: replayed {} decisions, {} trace events",
                cx.label,
                cx.decisions.len(),
                trace.len()
            );
            let jsonl = gdur_obs::jsonl::export(&trace);
            if let Some(out) = flag("--trace") {
                std::fs::write(&out, jsonl).expect("write trace");
                println!("trace written to {out}");
            }
            if let Some(out) = flag("--chrome") {
                // A second, causally-traced replay of the same schedule:
                // deterministic, so it reproduces the identical run with
                // handler brackets and message ids added.
                let causal = replay_causal(&cx).expect("rebuild config");
                let ix = gdur_obs::CausalIndex::build(&causal.trace);
                let chrome = gdur_obs::export_chrome(&causal.trace, &ix, &causal.actor_names);
                std::fs::write(&out, chrome).expect("write chrome trace");
                println!(
                    "chrome trace written to {out} \
                     (load in chrome://tracing or https://ui.perfetto.dev)"
                );
            }
            match violations.first() {
                Some(v) => {
                    println!("reproduced: {v}");
                    ExitCode::SUCCESS
                }
                None => {
                    println!("NOT reproduced: schedule ran clean");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: gdur-mc <list|explore|replay> ...");
            ExitCode::FAILURE
        }
    }
}
