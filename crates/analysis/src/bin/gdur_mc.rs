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
//! A flag the subcommand does not take, a flag without a value, and a
//! non-numeric `--seed`, `--budget` or `--random` exit 2, naming the flag
//! and the value; so does a counterexample file that cannot be read or
//! parsed, naming the file and the error.

use std::process::ExitCode;

use gdur_analysis::mc::{
    explore, mc_library, random_walks, replay, walter_psi_bug_config, Counterexample,
    ExploreResult, McConfig,
};
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

/// The `--flag value` pairs that follow a subcommand's positional
/// argument; anything but a flag of `known` followed by its value is an
/// error naming it.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        if !known.contains(&flag) {
            let what = if flag.starts_with("--") {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            return Err(format!("{what} {flag} (supported: {})", known.join(", ")));
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        out.push((flag, value));
    }
    Ok(out)
}

/// What `explore` was asked for.
#[derive(Debug, PartialEq)]
struct Explore {
    seed: Option<u64>,
    budget: u64,
    random: Option<u64>,
    out: Option<String>,
}

fn explore_flags(args: &[String]) -> Result<Explore, String> {
    let mut e = Explore {
        seed: None,
        budget: 500,
        random: None,
        out: None,
    };
    for (flag, value) in flags(args, &["--budget", "--random", "--seed", "--out"])? {
        let number = || {
            value
                .parse()
                .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
        };
        match flag {
            "--seed" => e.seed = Some(number()?),
            "--budget" => e.budget = number()?,
            "--random" => e.random = Some(number()?),
            _ => e.out = Some(value.to_string()),
        }
    }
    Ok(e)
}

/// A refused command line: exit 2 with the reason.
fn refuse(e: String) -> ExitCode {
    eprintln!("gdur-mc: {e}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
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
        Some("explore") => {
            let Some(label) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!(
                    "usage: gdur-mc explore <label> [--budget N] [--random N] [--seed S] [--out FILE]"
                );
                return ExitCode::FAILURE;
            };
            let opts = match explore_flags(&args[2..]) {
                Ok(opts) => opts,
                Err(e) => return refuse(e),
            };
            let Some(mut cfg) = configs().into_iter().find(|c| &c.deployment.label == label) else {
                eprintln!("unknown config {label:?}; try `gdur-mc list`");
                return ExitCode::FAILURE;
            };
            if let Some(seed) = opts.seed {
                cfg.deployment.seed = seed;
            }
            let result = match opts.random {
                Some(n) => random_walks(&cfg, n, 1),
                None => explore(&cfg, opts.budget),
            };
            report(&result);
            if let Some(cx) = &result.counterexample {
                match (cx.to_text(), opts.out) {
                    (Err(e), _) => eprintln!("gdur-mc: {e}"),
                    (Ok(text), Some(path)) => {
                        std::fs::write(&path, text).expect("write counterexample");
                        println!("  counterexample written to {path}");
                    }
                    (Ok(text), None) => print!("{text}"),
                }
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("replay") => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!(
                    "usage: gdur-mc replay <counterexample-file> [--trace FILE] [--chrome FILE]"
                );
                return ExitCode::FAILURE;
            };
            let opts = match flags(&args[2..], &["--trace", "--chrome"]) {
                Ok(opts) => opts,
                Err(e) => return refuse(e),
            };
            let flag = |name: &str| opts.iter().find(|(f, _)| *f == name).map(|(_, v)| *v);
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
            let cx = match text.and_then(|text| Counterexample::parse(&text)) {
                Ok(cx) => cx,
                Err(e) => return refuse(format!("{path}: {e}")),
            };
            let out = replay(&cx, TraceHandle::new());
            println!(
                "{}: replayed {} decisions, {} trace events",
                cx.config.deployment.label,
                cx.decisions.len(),
                out.run.events.len()
            );
            let jsonl = gdur_obs::jsonl::export(&out.run.events);
            if let Some(out) = flag("--trace") {
                std::fs::write(out, jsonl).expect("write trace");
                println!("trace written to {out}");
            }
            if let Some(out) = flag("--chrome") {
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
        _ => {
            eprintln!("usage: gdur-mc <list|explore|replay> ...");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bad_flags_are_refused_by_name() {
        let ok = explore_flags(&args(&["--budget", "10", "--seed", "3", "--out", "cx.txt"]));
        assert_eq!(
            ok,
            Ok(Explore {
                seed: Some(3),
                budget: 10,
                random: None,
                out: Some("cx.txt".into()),
            })
        );
        assert_eq!(explore_flags(&[]).map(|e| e.budget), Ok(500));
        let e = explore_flags(&args(&["--budgte", "10"])).expect_err("misspelt");
        assert!(e.contains("--budgte") && e.contains("--budget"), "{e}");
        for flag in ["--seed", "--budget", "--random"] {
            let e = explore_flags(&args(&[flag, "ten"])).expect_err("not a number");
            assert!(e.contains(flag) && e.contains("\"ten\""), "{e}");
        }
        let e = explore_flags(&args(&["--random"])).expect_err("no value");
        assert!(e.contains("--random"), "{e}");
        let e = flags(&args(&["--out", "x"]), &["--trace", "--chrome"]).expect_err("explore's");
        assert!(e.contains("--out"), "{e}");
        let e = flags(&args(&["stray"]), &["--trace"]).expect_err("positional");
        assert!(e.contains("stray"), "{e}");
    }
}
