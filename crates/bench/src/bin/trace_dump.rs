//! Dumps the full JSONL trace of one traced sweep point to
//! `bench_results/trace_<protocol>.jsonl` — the quick-start path for
//! inspecting a protocol's lifecycle events with `jq`/`grep`.
//!
//! Usage:
//! `cargo run --release -p gdur-bench --bin trace_dump [-- <protocol>] [--clients N] [--tx COORD:SEQ] [--actor PID]`
//! (default protocol `P-Store`; see `gdur_protocols::by_name` for names).
//!
//! `--tx` keeps only the lifecycle points of one transaction (and exits
//! non-zero if that transaction does not appear in the trace); `--actor`
//! keeps only events involving one process id. Filters compose.

use std::process::exit;

use gdur_harness::{run_point_with, Experiment, PlacementKind, PointRun, Scale, WorkloadKind};
use gdur_obs::{jsonl, tx_code, ObsEvent, TraceHandle};
use gdur_sim::SimDuration;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// True when the event involves `pid` (as emitter, sender, or destination).
fn involves(ev: &ObsEvent, pid: u32) -> bool {
    match *ev {
        ObsEvent::Point { actor, .. } => actor.0 == pid,
        ObsEvent::Send { from, to, .. } => from.0 == pid || to.0 == pid,
        ObsEvent::Deliver { to, .. } => to.0 == pid,
        ObsEvent::HandleStart { actor, .. } => actor.0 == pid,
        ObsEvent::HandleEnd { actor, .. } => actor.0 == pid,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = {
        let mut skip = false;
        args.iter()
            .find(|a| {
                if skip {
                    skip = false;
                    return false;
                }
                if matches!(a.as_str(), "--clients" | "--tx" | "--actor") {
                    skip = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .map(String::as_str)
            .unwrap_or("P-Store")
    };
    let clients = flag_value(&args, "--clients")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let tx_filter = flag_value(&args, "--tx").map(|s| {
        let parsed = s
            .split_once(':')
            .and_then(|(c, q)| Some(tx_code(c.parse().ok()?, q.parse().ok()?)));
        match parsed {
            Some(tx) => tx,
            None => {
                eprintln!("trace_dump: --tx expects COORD:SEQ, got {s:?}");
                exit(2);
            }
        }
    });
    let actor_filter: Option<u32> = flag_value(&args, "--actor").map(|s| match s.parse() {
        Ok(p) => p,
        Err(_) => {
            eprintln!("trace_dump: --actor expects a process id, got {s:?}");
            exit(2);
        }
    });
    let Some(spec) = gdur_protocols::by_name(name) else {
        eprintln!("trace_dump: unknown protocol {name:?}; known protocols:");
        for p in gdur_protocols::all_protocols() {
            eprintln!("  {}", p.name);
        }
        exit(1);
    };

    let scale = Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![clients],
        cores: 4,
        seed: 7,
        client_pooling: false,
    };
    let exp = Experiment::new(spec, WorkloadKind::A, 0.9, 3, PlacementKind::Dp);
    let PointRun {
        point,
        breakdown,
        mut events,
        ..
    } = run_point_with(&exp, &scale, clients, Some(TraceHandle::new()));

    if let Some(tx) = tx_filter {
        let seen = events
            .iter()
            .any(|e| matches!(*e, ObsEvent::Point { tx: t, .. } if t == tx));
        if !seen {
            eprintln!(
                "trace_dump: transaction {} not found in the {name} trace",
                flag_value(&args, "--tx").unwrap_or("?")
            );
            exit(1);
        }
        events.retain(|e| matches!(*e, ObsEvent::Point { tx: t, .. } if t == tx));
    }
    if let Some(pid) = actor_filter {
        events.retain(|e| involves(e, pid));
    }

    let trace = jsonl::export(&events);
    if let Err(e) = jsonl::validate(&trace) {
        eprintln!("trace_dump: exported trace violates its schema: {e}");
        exit(1);
    }
    let slug: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    let path = format!("bench_results/trace_{slug}.jsonl");
    std::fs::create_dir_all("bench_results").expect("create bench_results");
    std::fs::write(&path, &trace).expect("write trace");
    println!(
        "{name}: {} events → {path} ({} committed, {} aborted in window, {:.0} tps)",
        events.len(),
        breakdown.committed,
        breakdown.aborted,
        point.throughput_tps
    );
}
