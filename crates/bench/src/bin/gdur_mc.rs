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
//!
//! A missing or unknown subcommand or argument, a flag the subcommand does
//! not take, a flag without a value and a non-numeric `--seed`, `--budget`
//! or `--random` exit 2, naming the argument ([`Args`]); so does a
//! counterexample file that cannot be read or parsed, naming the file and
//! the error.

use std::process::ExitCode;

use gdur_bench::mc::{
    explore, mc_library, random_walks, replay, walter_psi_bug_config, Counterexample,
    ExploreResult, McConfig,
};
use gdur_bench::Args;
use gdur_obs::TraceHandle;

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
    let args = |flags, positionals| Args::of("gdur-mc", flags, positionals);
    match std::env::args().nth(1).as_deref() {
        Some("list") => {
            args(&[], &["list"]);
            list()
        }
        Some("explore") => explore_cmd(&args(
            &["--budget N", "--random N", "--seed S", "--out FILE"],
            &["explore", "LABEL"],
        )),
        Some("replay") => replay_cmd(&args(
            &["--trace FILE", "--chrome FILE"],
            &["replay", "FILE"],
        )),
        _ => {
            eprintln!("usage: gdur-mc <list|explore|replay> ...");
            ExitCode::from(2)
        }
    }
}

fn list() -> ExitCode {
    for cfg in configs() {
        let d = &cfg.deployment;
        let horizon = match d.horizon.txns_per_client() {
            Some(txns) => format!("txns_per_client={txns}"),
            None => format!("horizon={:?}", d.horizon),
        };
        println!(
            "{}: protocol={} sites={} clients_per_site={} {horizon} window={}ns{}",
            d.label,
            d.spec.name,
            d.sites,
            d.clients_per_site,
            cfg.window.as_nanos(),
            if d.reintroduce_psi_bug {
                " [psi-bug re-introduced]"
            } else {
                ""
            }
        );
    }
    ExitCode::SUCCESS
}

fn explore_cmd(args: &Args) -> ExitCode {
    let Some(label) = args.positionals().get(1) else {
        args.refuse(
            "usage: gdur-mc explore <label> [--budget N] [--random N] [--seed S] [--out FILE]",
        );
    };
    let number = |flag| args.number::<u64>(flag, "an unsigned integer");
    let (seed, budget, random) = (number("--seed"), number("--budget"), number("--random"));
    let Some(mut cfg) = configs().into_iter().find(|c| &c.deployment.label == label) else {
        eprintln!("unknown config {label:?}; try `gdur-mc list`");
        return ExitCode::FAILURE;
    };
    if let Some(seed) = seed {
        cfg.deployment.seed = seed;
    }
    let result = match random {
        Some(n) => random_walks(&cfg, n, 1),
        None => explore(&cfg, budget.unwrap_or(500)),
    };
    report(&result);
    if let Some(cx) = &result.counterexample {
        match (cx.to_text(), args.value("--out")) {
            (Err(e), _) => eprintln!("gdur-mc: {e}"),
            (Ok(text), Some(path)) => {
                std::fs::write(path, text).expect("write counterexample");
                println!("  counterexample written to {path}");
            }
            (Ok(text), None) => print!("{text}"),
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn replay_cmd(args: &Args) -> ExitCode {
    let Some(path) = args.positionals().get(1) else {
        args.refuse("usage: gdur-mc replay <counterexample-file> [--trace FILE] [--chrome FILE]");
    };
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    let cx = match text.and_then(|text| Counterexample::parse(&text)) {
        Ok(cx) => cx,
        Err(e) => args.refuse(&format!("{path}: {e}")),
    };
    let out = replay(&cx, TraceHandle::new());
    println!(
        "{}: replayed {} decisions, {} trace events",
        cx.config.deployment.label,
        cx.decisions.len(),
        out.run.events.len()
    );
    let jsonl = gdur_obs::jsonl::export(&out.run.events);
    if let Some(out) = args.value("--trace") {
        std::fs::write(out, jsonl).expect("write trace");
        println!("trace written to {out}");
    }
    if let Some(out) = args.value("--chrome") {
        // A second, causally-traced replay of the same schedule:
        // deterministic, so it reproduces the identical run with
        // handler brackets and message ids added.
        let causal = replay(&cx, TraceHandle::causal());
        let (events, names) = (&causal.run.events, causal.run.cluster.actor_names());
        let ix = gdur_obs::CausalIndex::build(events);
        let chrome = gdur_obs::export_chrome(events, &ix, &names);
        std::fs::write(out, chrome).expect("write chrome trace");
        println!(
            "chrome trace written to {out} \
                 (load in chrome://tracing or https://ui.perfetto.dev)"
        );
    }
    match out.run.violations.first() {
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
