//! `--compare A.json B.json`: one verdict per (workload, end-to-end metric)
//! between two `latest.json` files, A the parent and B the change.
//!
//! Virtual metrics are compared exactly first: equal bits are `same`
//! without further ado. Otherwise a metric is `worse` or `better` when B's
//! median moved past the metric's bound (a share of A's median, with an
//! absolute floor where the catalogue sets one), and `unresolved` when
//! either side's own run-to-run quartile spread exceeds that bound — a
//! difference smaller than the noise is not a result.

use crate::json::Json;
use crate::metrics::{Better, Clock, EndToEnd, END_TO_END};
use crate::stats::Spread;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` and `b` are each side's median and quartiles over its repetitions.
pub fn verdict(m: &EndToEnd, a: Spread, b: Spread) -> Verdict {
    if m.clock == Clock::Virtual && a.median.to_bits() == b.median.to_bits() {
        return Verdict::Same;
    }
    if a.relative_iqr().max(b.relative_iqr()) > m.bound {
        return Verdict::Unresolved;
    }
    let allowed = (m.bound * a.median.abs()).max(m.floor);
    let worsening = match m.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if worsening > allowed {
        Verdict::Worse
    } else if -worsening > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn sample(doc: &Json, workload: &str, metric: &str) -> Option<Spread> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    let median = num("value")?;
    Some(Spread {
        n: num("n").unwrap_or(1.0) as usize,
        median,
        q1: num("q1").unwrap_or(median),
        q3: num("q3").unwrap_or(median),
    })
}

fn events(doc: &Json, workload: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get("sim.events")?
        .get("value")?
        .as_f64()
}

/// Prints the verdict table; returns true if nothing got worse.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (sample(a, w.name, m.name), sample(b, w.name, m.name))
            else {
                continue;
            };
            let v = verdict(m, sa, sb);
            ok &= v != Verdict::Worse;
            println!(
                "{:<20} {:<24} {:>14.6} {:>14.6} {:>+7.2}%  {}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                (sb.median / sa.median - 1.0) * 100.0,
                v.label()
            );
        }
        // The identity check: equal event counts mean any host-time
        // difference is pure simulator speed.
        if let (Some(ea), Some(eb)) = (events(a, w.name), events(b, w.name)) {
            println!(
                "{:<20} {:<24} {ea:>14} {eb:>14} {:>8}  {}",
                w.name,
                "sim.events",
                "",
                if ea == eb {
                    "identical"
                } else {
                    "differs: compare sim.ns_per_event and every virtual metric"
                }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn exact(v: f64) -> Spread {
        Spread {
            n: 1,
            median: v,
            q1: v,
            q3: v,
        }
    }

    fn noisy(median: f64, iqr: f64) -> Spread {
        Spread {
            n: 5,
            median,
            q1: median - iqr / 2.0,
            q3: median + iqr / 2.0,
        }
    }

    #[test]
    fn virtual_metrics_compare_exactly_first() {
        let tps = end_to_end("commit_tps").unwrap();
        assert_eq!(
            verdict(tps, exact(20774.75), exact(20774.75)),
            Verdict::Same
        );
        // Higher is better: a drop past the bound is worse, a rise better.
        let drop = 20774.75 * (1.0 - tps.bound - 0.01);
        let rise = 20774.75 * (1.0 + tps.bound + 0.01);
        assert_eq!(verdict(tps, exact(20774.75), exact(drop)), Verdict::Worse);
        assert_eq!(verdict(tps, exact(20774.75), exact(rise)), Verdict::Better);
        // Inside the bound but not identical: same.
        assert_eq!(verdict(tps, exact(20774.75), exact(20775.0)), Verdict::Same);
    }

    #[test]
    fn lower_is_better_metrics_flip_the_sign() {
        let p99 = end_to_end("commit_latency_p99_ms").unwrap();
        let up = 100.0 * (1.0 + p99.bound + 0.01);
        assert_eq!(verdict(p99, exact(100.0), exact(up)), Verdict::Worse);
        let down = 100.0 * (1.0 - p99.bound - 0.01);
        assert_eq!(verdict(p99, exact(100.0), exact(down)), Verdict::Better);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let wall = end_to_end("wall_s").unwrap();
        let wide = noisy(2.0, 2.0 * (wall.bound + 0.05));
        assert_eq!(verdict(wall, wide, exact(4.0)), Verdict::Unresolved);
        assert_eq!(verdict(wall, exact(2.0), wide), Verdict::Unresolved);
        let tight = noisy(2.0, 2.0 * wall.bound / 4.0);
        assert_eq!(verdict(wall, tight, exact(4.0)), Verdict::Worse);
        assert_eq!(
            verdict(wall, tight, exact(2.0 * (1.0 + wall.bound / 2.0))),
            Verdict::Same
        );
    }

    #[test]
    fn absolute_floors_override_small_relative_bounds() {
        // 0.02 s of set-up: 25% of it is 5 ms, but the floor is 50 ms.
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.bound * 0.02 < setup.floor);
        assert_eq!(verdict(setup, exact(0.02), exact(0.06)), Verdict::Same);
        assert_eq!(verdict(setup, exact(0.02), exact(0.08)), Verdict::Worse);
        // Past the floor the relative bound rules again.
        assert_eq!(
            verdict(setup, exact(1.0), exact(1.0 + setup.bound * 0.8)),
            Verdict::Same
        );
        assert_eq!(
            verdict(setup, exact(1.0), exact(1.0 + setup.bound * 1.2)),
            Verdict::Worse
        );
        // commit_ratio: an abort-ratio rise of less than 0.005 never counts.
        let ratio = end_to_end("commit_ratio").unwrap();
        assert_eq!(verdict(ratio, exact(0.05), exact(0.046)), Verdict::Same);
    }
}
