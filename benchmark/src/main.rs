//! The G-DUR reproduction's benchmark, measured from outside: five named
//! workloads, eight end-to-end metrics and a per-layer ledger. See
//! README.md for the glossary and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! gdur-benchmark --workload W --seed N --seconds S --trace 0|1   one result line, for the driver
//! gdur-benchmark [--workload W] [--seed N] [--seconds S | --reps N]   table + out/latest.json
//! gdur-benchmark --compare A.json B.json
//! gdur-benchmark --selfcheck
//! gdur-benchmark --list | --benchmark-json
//! ```

mod compare;
mod driver;
mod json;
mod metrics;
mod replay;
mod run;
mod selfcheck;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use driver::{Budget, Outcome, DEFAULT_SECONDS, DEFAULT_SEED};
use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use workloads::{Horizon, Workload, WORKLOADS};

/// Command-line arguments: `--flag` or `--key value`.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1..i + 1 + n)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} takes a whole number, not `{v}`"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        self.value("--workload")
            .map(|name| {
                workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })
            })
            .transpose()
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One repetition, in this process: prints its report as one JSON line.
fn child(args: &Args, start: Instant) -> Result<ExitCode, String> {
    let opts = run::RunOpts {
        workload: args.workload()?.ok_or("--child needs --workload")?,
        seed: args.number("--seed")?.unwrap_or(DEFAULT_SEED),
        horizon: args
            .value("--horizon")
            .map_or(Some(Horizon::Full), driver::parse_horizon)
            .ok_or("--horizon takes full, trace or quarter")?,
        traced: args.flag("--traced"),
        replay: args.flag("--replay"),
    };
    println!("{}", run::run(opts, start).to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn report_violations(out: &Outcome) {
    for v in &out.violations {
        eprintln!("  OUTPUT CHECK FAILED: {v}");
    }
}

/// The driver's invocation: one workload, one trace mode, one result line.
fn contract(args: &Args, trace: &str) -> Result<ExitCode, String> {
    let w = args.workload()?.ok_or("--trace needs --workload")?;
    let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args.number("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out = match trace {
        "0" => driver::untraced(w, seed, Budget::Seconds(seconds))?,
        "1" => driver::traced(w, seed)?,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    report_violations(&out);
    println!("{}", driver::contract_line(&out));
    Ok(exit_code(out.correct()))
}

/// The one command: every selected workload in both modes, a table of every
/// metric by name, and `out/latest.json`.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
    let budget = match args.number("--reps")? {
        Some(n) => Budget::Reps(n as usize),
        None => Budget::Seconds(args.number("--seconds")?.unwrap_or(DEFAULT_SECONDS)),
    };
    let selected: Vec<&'static Workload> = match args.workload()? {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results: Vec<(&'static Workload, Outcome, Outcome)> = Vec::new();
    for w in selected {
        eprintln!("{}: {}", w.name, w.why);
        let untraced = driver::untraced(w, seed, budget)?;
        let traced = driver::traced(w, seed)?;
        report_violations(&untraced);
        report_violations(&traced);
        results.push((w, untraced, traced));
    }
    let e2e: Vec<_> = results.iter().map(|(w, u, _)| (w.name, u)).collect();
    let layers: Vec<_> = results.iter().map(|(w, _, t)| (w.name, t)).collect();
    println!(
        "{}",
        driver::table(&format!("end to end, seed {seed}"), &e2e)
    );
    println!("{}", driver::table("per layer", &layers));
    let reps: Vec<String> = results
        .iter()
        .map(|(w, u, _)| format!("{} x{}", w.name, u.repetitions))
        .collect();
    println!("virtual = modelled system, exact per seed; host = this machine, median of repetitions ({})", reps.join(", "));

    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        (
            "host_cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("claim", Json::Null),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|(w, u, t)| (w.name.to_string(), driver::section(u, t)))
                    .collect(),
            ),
        ),
    ]);
    let dir = driver::out_dir();
    let path = dir.join("latest.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let correct = results.iter().all(|(_, u, t)| u.correct() && t.correct());
    Ok(exit_code(correct))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The catalogue as a table: what each number is and what it should move.
fn list() {
    println!("workloads");
    for w in &WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    println!("\nend to end (bound = share of the parent's median it may worsen by)");
    for m in &END_TO_END {
        println!(
            "  {:<24} {:<9} {:<8} {:<7} {:>5.1}%  {}",
            m.name,
            m.unit,
            m.clock.label(),
            m.better.label(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper layer (and the end-to-end metric and workload each should move)");
    for m in PER_LAYER {
        println!(
            "  {:<32} {:<9} {:<8} {:<7} {}",
            m.name,
            m.unit,
            m.clock.label(),
            m.better.label(),
            m.moves
        );
    }
}

/// BENCHMARK.json in the driver's schema, from the catalogue.
fn benchmark_json() -> Json {
    let text = |s: &str| Json::Str(s.into());
    Json::obj([
        (
            "command",
            Json::Arr(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(args: &Args, start: Instant) -> Result<ExitCode, String> {
    if args.flag("--child") {
        return child(args, start);
    }
    if args.flag("--list") {
        list();
        return Ok(ExitCode::SUCCESS);
    }
    if args.flag("--benchmark-json") {
        print!("{}", benchmark_json().render_pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if args.flag("--selfcheck") {
        let failures = selfcheck::selfcheck()?;
        for f in &failures {
            eprintln!("SELFCHECK FAILED: {f}");
        }
        println!(
            "selfcheck {} in {:.1} s",
            if failures.is_empty() {
                "passed"
            } else {
                "FAILED"
            },
            start.elapsed().as_secs_f64()
        );
        return Ok(exit_code(failures.is_empty()));
    }
    if args.flag("--compare") {
        let files = args
            .values("--compare", 2)
            .ok_or("--compare takes two files")?;
        let nothing_worse = compare::compare(&load(&files[0])?, &load(&files[1])?);
        return Ok(exit_code(nothing_worse));
    }
    match args.value("--trace") {
        Some(trace) => contract(args, trace),
        None => suite(args),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = Args(std::env::args().skip(1).collect());
    dispatch(&args, start).unwrap_or_else(|e| {
        eprintln!("gdur-benchmark: {e}");
        ExitCode::from(2)
    })
}
