//! The parent process: runs repetitions as child processes, one at a time,
//! and aggregates them.
//!
//! One child per repetition keeps `setup_s` and `peak_rss_mib` those of a
//! fresh process, and leaves the second core of a 2-CPU box idle rather
//! than competing. Every child prints one JSON line; the parent checks that
//! the virtual numbers of same-seed repetitions are bit-identical and takes
//! medians of the host numbers.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{self, Clock, END_TO_END, PER_LAYER};
use crate::run::{Report, RunOpts};
use crate::stats::Spread;
use crate::workloads::{Horizon, Workload};

/// `run_seconds` of BENCHMARK.json: how long the untraced repetitions of
/// one invocation go on for.
pub const DEFAULT_SECONDS: u64 = 20;
/// The seed the reference numbers were taken at; 23 is held out.
pub const DEFAULT_SEED: u64 = 11;
/// Fewest repetitions a median is taken over.
const MIN_REPS: usize = 3;

/// When to stop repeating.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Keep starting repetitions until this much time has gone by.
    Seconds(u64),
    /// Exactly this many.
    Reps(usize),
}

pub fn horizon_arg(h: Horizon) -> &'static str {
    match h {
        Horizon::Full => "full",
        Horizon::Trace => "trace",
        Horizon::Quarter => "quarter",
    }
}

pub fn parse_horizon(s: &str) -> Option<Horizon> {
    [Horizon::Full, Horizon::Trace, Horizon::Quarter]
        .into_iter()
        .find(|h| horizon_arg(*h) == s)
}

/// Starts one repetition in a process of its own.
pub fn spawn(opts: RunOpts) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", opts.workload.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--horizon", horizon_arg(opts.horizon)]);
    if opts.traced {
        cmd.arg("--traced");
    }
    if opts.replay {
        cmd.arg("--replay");
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start repetition: {e}"))
}

/// Waits for a repetition to end and reads its report.
pub fn collect(child: Child) -> Result<Report, String> {
    let out = child
        .wait_with_output()
        .map_err(|e| format!("repetition did not end cleanly: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("repetition printed nothing")?;
    Report::from_json(&Json::parse(line)?)
}

fn repetition(opts: RunOpts) -> Result<Report, String> {
    collect(spawn(opts)?)
}

/// Names both reports carry on the virtual clock whose values differ,
/// although seed and horizon are the same. (A traced or replaying
/// repetition reports numbers a plain one has no way to; those are not
/// differences.)
pub fn virtual_differences(a: &Report, b: &Report) -> Vec<String> {
    a.values
        .iter()
        .filter(|(name, _)| !metrics::is_host(name))
        .filter(|(name, v)| {
            b.values
                .get(*name)
                .is_some_and(|other| other.to_bits() != v.to_bits())
        })
        .map(|(name, _)| name.clone())
        .collect()
}

/// Warns when the replay kernels alone claim more than the whole run: the
/// shares are estimates from a quiet cache and can over-attribute.
pub fn warn_over_attribution(w: &Workload, replayed: &Report) {
    let explained = 1.0 - replayed.get("core.residual_share");
    if explained > 1.0 {
        eprintln!(
            "  warning: {}: replay kernels explain {:.0}% of sim.run_s (over-attribution)",
            w.name,
            explained * 100.0
        );
    }
}

/// What one invocation measured on one workload in one trace mode.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Reported metrics in catalogue order, each with its spread over the
    /// repetitions (a single value has `n == 1`).
    pub metrics: Vec<(&'static str, Spread)>,
    pub repetitions: usize,
    /// Transactions decided in the measured windows of all repetitions.
    pub attempted: u64,
    /// Those among them in repetitions whose output checks failed.
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.median)
    }

    fn tally(&mut self, label: &str, report: &Report) {
        let decided = (report.get("raw.committed") + report.get("raw.aborted")) as u64;
        self.attempted += decided;
        if !report.violations.is_empty() {
            self.failed += decided;
        }
        self.violations
            .extend(report.violations.iter().map(|v| format!("{label}: {v}")));
    }
}

/// The untraced pass: same-seed repetitions at the full horizon until the
/// budget is spent; gives the eight end-to-end metrics.
pub fn untraced(w: &'static Workload, seed: u64, budget: Budget) -> Result<Outcome, String> {
    let start = Instant::now();
    let opts = RunOpts {
        workload: w,
        seed,
        horizon: Horizon::Full,
        traced: false,
        replay: false,
    };
    let mut out = Outcome::default();
    let mut reps: Vec<Report> = Vec::new();
    loop {
        let done = match budget {
            Budget::Seconds(s) => {
                reps.len() >= MIN_REPS && start.elapsed() >= Duration::from_secs(s)
            }
            Budget::Reps(n) => reps.len() >= n.max(1),
        };
        if done {
            break;
        }
        let report = repetition(opts)?;
        out.tally(&format!("repetition {}", reps.len()), &report);
        if let Some(first) = reps.first() {
            for name in virtual_differences(first, &report) {
                out.violations.push(format!(
                    "repetition {}: virtual metric {name} differs from repetition 0 under one seed",
                    reps.len()
                ));
            }
        }
        eprintln!(
            "  {} seed {seed} repetition {}: wall {:.3} s, setup {:.3} s, {} events",
            w.name,
            reps.len(),
            report.get("wall_s"),
            report.get("setup_s"),
            report.get("sim.events"),
        );
        reps.push(report);
    }
    out.repetitions = reps.len();
    for m in &END_TO_END {
        let values: Vec<f64> = reps.iter().map(|r| r.get(m.name)).collect();
        out.metrics.push((m.name, Spread::of(&values)));
    }
    Ok(out)
}

/// Where the traced pass writes `<workload>.spans.json`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The traced pass: one untraced full-horizon repetition followed by the
/// replay kernels, then an untraced and a traced repetition at the trace
/// horizon. Gives every per-layer metric and writes the spans file.
pub fn traced(w: &'static Workload, seed: u64) -> Result<Outcome, String> {
    let base = RunOpts {
        workload: w,
        seed,
        horizon: Horizon::Full,
        traced: false,
        replay: true,
    };
    let full = repetition(base)?;
    let same_horizon = w.shape_at(Horizon::Trace) == w.shape_at(Horizon::Full);
    let short = RunOpts {
        horizon: Horizon::Trace,
        replay: false,
        ..base
    };
    // The traced repetition's own baseline: same horizon, no sink attached.
    let plain = if same_horizon {
        full.clone()
    } else {
        repetition(short)?
    };
    let with_trace = repetition(RunOpts {
        traced: true,
        ..short
    })?;

    let mut out = Outcome::default();
    out.tally("full horizon", &full);
    if !same_horizon {
        out.tally("trace horizon", &plain);
    }
    out.tally("traced", &with_trace);
    // Zero perturbation: attaching the sink may change no virtual number.
    for name in virtual_differences(&plain, &with_trace) {
        out.violations
            .push(format!("tracing perturbed the run: {name} differs"));
    }
    warn_over_attribution(w, &full);

    let overhead = with_trace.get("sim.ns_per_event") / plain.get("sim.ns_per_event") - 1.0;
    out.metrics = PER_LAYER
        .iter()
        .map(|m| {
            // From the full-horizon repetition where it has the number; only
            // what a trace alone can give comes from the traced one.
            let v = match m.name {
                "obs.trace_overhead_ratio" => overhead,
                name => full
                    .values
                    .get(name)
                    .or_else(|| with_trace.values.get(name))
                    .copied()
                    .unwrap_or(0.0),
            };
            (m.name, Spread::of(&[v]))
        })
        .collect();

    let spans = Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(seed as f64)),
        (
            "processes",
            Json::Arr(
                [
                    ("untraced, full horizon, then replay kernels", &full),
                    ("untraced, trace horizon", &plain),
                    ("traced, trace horizon", &with_trace),
                ]
                .into_iter()
                .map(|(role, r)| {
                    Json::obj([
                        ("role", Json::Str(role.into())),
                        ("spans", crate::spans::to_json(&r.spans)),
                    ])
                })
                .collect(),
            ),
        ),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{}.spans.json", w.name)),
                spans.render_pretty(),
            )
        })
        .map_err(|e| format!("cannot write spans under {}: {e}", dir.display()))?;
    Ok(out)
}

fn unit_and_clock(name: &str) -> (&'static str, Clock) {
    metrics::end_to_end(name)
        .map(|m| (m.unit, m.clock))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.clock))
        })
        .expect("reported metrics are catalogued")
}

/// The one line the driver reads: `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(out: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|(name, s)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("value", Json::Num(s.median)),
                                ("unit", Json::Str(unit_and_clock(name).0.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// One workload's section of `latest.json`.
pub fn section(untraced: &Outcome, traced: &Outcome) -> Json {
    let metric = |(name, s): &(&str, Spread)| {
        let (unit, clock) = unit_and_clock(name);
        (
            name.to_string(),
            Json::obj([
                ("value", Json::Num(s.median)),
                ("unit", Json::Str(unit.into())),
                ("clock", Json::Str(clock.label().into())),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
            ]),
        )
    };
    let violations: Vec<Json> = untraced
        .violations
        .iter()
        .chain(&traced.violations)
        .cloned()
        .map(Json::Str)
        .collect();
    Json::obj([
        (
            "correct",
            Json::Bool(untraced.correct() && traced.correct()),
        ),
        (
            "attempted",
            Json::Num((untraced.attempted + traced.attempted) as f64),
        ),
        (
            "failed",
            Json::Num((untraced.failed + traced.failed) as f64),
        ),
        ("repetitions", Json::Num(untraced.repetitions as f64)),
        (
            "end_to_end",
            Json::Obj(untraced.metrics.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Obj(traced.metrics.iter().map(metric).collect()),
        ),
        ("violations", Json::Arr(violations)),
    ])
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1e5 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// Every metric by name, with unit and clock, one column per workload.
pub fn table(title: &str, columns: &[(&str, &Outcome)]) -> String {
    let Some((_, first)) = columns.first() else {
        return String::new();
    };
    let mut out = format!("{title:<32} {:<9} {:<8}", "unit", "clock");
    for (name, _) in columns {
        out.push_str(&format!(" {name:>18}"));
    }
    out.push('\n');
    for (metric, _) in &first.metrics {
        let (unit, clock) = unit_and_clock(metric);
        out.push_str(&format!("{metric:<32} {unit:<9} {:<8}", clock.label()));
        for (_, outcome) in columns {
            let cell = outcome.value(metric).map_or("-".into(), fmt_value);
            out.push_str(&format!(" {cell:>18}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)], violations: &[&str]) -> Report {
        Report {
            values: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            spans: Vec::new(),
            violations: violations.iter().map(|v| v.to_string()).collect(),
        }
    }

    #[test]
    fn failed_counts_the_transactions_of_repetitions_that_failed_a_check() {
        let mut out = Outcome::default();
        out.tally(
            "repetition 0",
            &report(&[("raw.committed", 90.0), ("raw.aborted", 10.0)], &[]),
        );
        assert_eq!((out.attempted, out.failed, out.correct()), (100, 0, true));
        // Aborts are attempts with a defined outcome, not failures ...
        out.tally(
            "repetition 1",
            &report(
                &[("raw.committed", 30.0), ("raw.aborted", 20.0)],
                &["history violates Ser"],
            ),
        );
        // ... but nothing a repetition with a failed check decided counts.
        assert_eq!((out.attempted, out.failed, out.correct()), (150, 50, false));
        assert_eq!(out.violations, ["repetition 1: history violates Ser"]);
    }

    #[test]
    fn only_virtual_numbers_must_repeat() {
        let a = report(
            &[
                ("commit_tps", 100.0),
                ("sim.events", 5.0),
                ("wall_s", 1.0),
                ("sim.run_s", 0.9),
            ],
            &[],
        );
        let same = report(
            &[
                ("commit_tps", 100.0),
                ("sim.events", 5.0),
                ("wall_s", 1.3),
                ("sim.run_s", 1.2),
            ],
            &[],
        );
        assert!(virtual_differences(&a, &same).is_empty());
        let moved = report(
            &[
                ("commit_tps", 100.0 + 1e-9),
                ("sim.events", 6.0),
                ("wall_s", 1.0),
            ],
            &[],
        );
        assert_eq!(
            virtual_differences(&a, &moved),
            ["commit_tps", "sim.events"]
        );
    }

    #[test]
    fn contract_line_has_exactly_the_drivers_keys() {
        let out = Outcome {
            metrics: vec![("wall_s", Spread::of(&[1.0, 3.0, 2.0]))],
            repetitions: 3,
            attempted: 7,
            failed: 0,
            violations: Vec::new(),
        };
        let line = Json::parse(&contract_line(&out)).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
