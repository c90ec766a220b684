//! Running figures and rendering their results as text tables.

use std::fmt::Write as _;

use gdur_obs::{AbortCause, Phase, PhaseBreakdown};

use crate::experiment::{max_throughput, run_sweep, PointResult, Scale};
use crate::figures::{Figure, Metric};

/// Results of one curve.
#[derive(Debug, Clone)]
pub struct SeriesResult {
    /// Curve label.
    pub label: String,
    /// One point per sweep entry.
    pub points: Vec<PointResult>,
}

/// Results of one panel.
#[derive(Debug, Clone)]
pub struct PanelResult {
    /// Panel caption.
    pub title: String,
    /// Reported metric.
    pub metric: Metric,
    /// One series per experiment.
    pub series: Vec<SeriesResult>,
}

/// Results of a whole figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure id (e.g. `fig3a`).
    pub id: &'static str,
    /// Paper caption.
    pub caption: &'static str,
    /// Per-panel results.
    pub panels: Vec<PanelResult>,
}

/// Sweeps every curve of `fig` at the given scale. Panels run
/// sequentially; the sweep points inside each curve run in parallel.
pub fn run_figure(fig: &Figure, scale: &Scale) -> FigureResult {
    let mut panels = Vec::new();
    for panel in &fig.panels {
        let mut series = Vec::new();
        for exp in &panel.series {
            let points = run_sweep(exp, scale);
            series.push(SeriesResult {
                label: exp.label.clone(),
                points,
            });
        }
        panels.push(PanelResult {
            title: panel.title.clone(),
            metric: panel.metric,
            series,
        });
    }
    FigureResult {
        id: fig.id,
        caption: fig.caption,
        panels,
    }
}

fn metric_value(metric: Metric, p: &PointResult) -> f64 {
    match metric {
        Metric::TermLatencyUpdate => p.term_latency_update_ms,
        Metric::AvgLatency => p.avg_latency_ms,
        Metric::AbortRatio => p.abort_ratio * 100.0,
        Metric::MaxThroughput => p.throughput_tps,
    }
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::TermLatencyUpdate => "term.lat.upd (ms)",
        Metric::AvgLatency => "avg latency (ms)",
        Metric::AbortRatio => "abort ratio (%)",
        Metric::MaxThroughput => "throughput (tps)",
    }
}

/// Renders a figure result as aligned text tables (the binaries' stdout).
pub fn render_text(res: &FigureResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} : {} ==", res.id, res.caption);
    for panel in &res.panels {
        let _ = writeln!(out, "\n-- {} --", panel.title);
        if panel.metric == Metric::MaxThroughput {
            let _ = writeln!(out, "{:<24} {:>18}", "series", "max throughput (tps)");
            for s in &panel.series {
                let _ = writeln!(out, "{:<24} {:>18.0}", s.label, max_throughput(&s.points));
            }
            continue;
        }
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>18} {:>10} {:>10}",
            "series",
            "clients",
            "tps",
            metric_name(panel.metric),
            "committed",
            "aborted"
        );
        for s in &panel.series {
            for p in &s.points {
                let _ = writeln!(
                    out,
                    "{:<16} {:>8} {:>12.0} {:>18.2} {:>10} {:>10}",
                    s.label,
                    p.clients_total,
                    p.throughput_tps,
                    metric_value(panel.metric, p),
                    p.committed,
                    p.aborted
                );
            }
        }
    }
    out
}

/// One traced sweep point paired with its phase breakdown, ready for the
/// paper-style breakdown report.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Series label (protocol name).
    pub label: String,
    /// Total client threads at this point.
    pub clients: usize,
    /// The point's phase breakdown.
    pub breakdown: PhaseBreakdown,
}

/// Renders traced points as an aligned phase-breakdown table.
///
/// Every value is an integer (counts, nearest-rank quantiles in µs), so the
/// output is byte-stable across same-seed runs — CI diffs it against a
/// golden file.
pub fn render_breakdown_text(rows: &[BreakdownRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>5} {:>5} {:>5} {:>5} {:>9}",
        "series",
        "clients",
        "committed",
        "aborted",
        "exec_p50",
        "queue_p50",
        "term_p50",
        "inst_p50",
        "qd_p99",
        "cc",
        "vt",
        "ri",
        "cr",
        "wan_kb"
    );
    for r in rows {
        let us = |p: Phase| r.breakdown.phase(p).quantile(0.5) / 1_000;
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>5} {:>5} {:>5} {:>5} {:>9}",
            r.label,
            r.clients,
            r.breakdown.committed,
            r.breakdown.aborted,
            us(Phase::Execute),
            us(Phase::QueueWait),
            us(Phase::Termination),
            us(Phase::InstallLag),
            r.breakdown.queue_depth.quantile(0.99),
            r.breakdown.aborts_for(AbortCause::CertificationConflict),
            r.breakdown.aborts_for(AbortCause::VoteTimeout),
            r.breakdown.aborts_for(AbortCause::ReadImpossible),
            r.breakdown.aborts_for(AbortCause::Crash),
            r.breakdown.wan_bytes() / 1024,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        FigureResult {
            id: "figX",
            caption: "test",
            panels: vec![PanelResult {
                title: "panel".into(),
                metric: Metric::TermLatencyUpdate,
                series: vec![SeriesResult {
                    label: "P-Store".into(),
                    points: vec![PointResult {
                        clients_total: 8,
                        throughput_tps: 1234.0,
                        term_latency_update_ms: 45.6,
                        avg_latency_ms: 30.0,
                        abort_ratio: 0.01,
                        committed: 9876,
                        aborted: 99,
                    }],
                }],
            }],
        }
    }

    #[test]
    fn text_contains_series_and_values() {
        let s = render_text(&sample());
        assert!(s.contains("P-Store"));
        assert!(s.contains("1234"));
        assert!(s.contains("45.6"));
    }
}
