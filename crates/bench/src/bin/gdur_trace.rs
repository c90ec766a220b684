//! `gdur-trace` — causal trace explorer: span trees, critical-path latency
//! attribution, Chrome/Perfetto export, and the raw JSONL dump.
//!
//! Usage:
//!
//! ```text
//! gdur-trace tree --tx POOL:CLIENT:SEQ [PROTOCOL] [--clients N]
//! gdur-trace attribute [PROTOCOL...] [--clients N]
//! gdur-trace export --chrome PATH [PROTOCOL] [--clients N]
//! gdur-trace dump [PROTOCOL] [--tx POOL:CLIENT:SEQ] [--actor PID] [--clients N]
//! ```
//!
//! All subcommands run one causally-traced sweep point of the standard
//! 3-site deployment (workload C, 70% read-only, disaster-prone placement,
//! seed 7) and analyse its trace:
//!
//! * `tree` prints the span tree of one transaction plus its critical-path
//!   blame table; exits non-zero if the transaction does not exist in the
//!   trace. A transaction is named by its pool's process id, the client's
//!   index in the pool and its local sequence (`3:1:2`, printed `p3.c1.2`),
//!   or by the coordinator and packed sequence of its `TxId` (`3:1048578`).
//! * `attribute` prints per-protocol critical-path attribution tables over
//!   every committed transaction of the measurement window (default
//!   protocols: P-Store, S-DUR, Walter).
//! * `export` writes a Chrome trace-event JSON (`chrome://tracing` or
//!   <https://ui.perfetto.dev>) with one track per actor, handler spans,
//!   lifecycle instants, and flow arrows along message edges.
//! * `dump` writes the whole trace as JSONL (schema in `gdur_obs::jsonl`)
//!   to stdout, for `jq`/`grep`, and a one-line summary to stderr. `--tx`
//!   keeps only the lifecycle points of one transaction (non-zero exit if
//!   it is not in the trace), `--actor` only the events involving one
//!   process id; the filters compose.
//!
//! A flag other than `--tx`, `--clients`, `--chrome` and `--actor`, or one
//! without its value, exits 2 naming it ([`Args`]).

use std::io::Write as _;
use std::process::exit;

use gdur_bench::Args;
use gdur_core::PooledTx;
use gdur_harness::{run_checked, CheckedRun, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_obs::{
    critical_path, export_chrome, jsonl, render_attribution_text, tx_span_tree, Attribution,
    CausalIndex, ObsEvent, TraceHandle, MAX_POOL_CLIENTS, MAX_POOL_LOCAL_SEQ,
};
use gdur_sim::SimDuration;
use gdur_store::TxId;

fn scale(clients: usize) -> Scale {
    Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![clients],
        seed: 7,
    }
}

fn run(name: &str, clients: usize) -> CheckedRun {
    let Some(spec) = gdur_protocols::by_name(name) else {
        eprintln!("gdur-trace: unknown protocol {name:?}; known protocols:");
        for p in gdur_protocols::all_protocols() {
            eprintln!("  {}", p.name);
        }
        exit(1);
    };
    let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);
    let dep = exp.deployment(&scale(clients), clients);
    run_checked(&dep, None, Some(TraceHandle::causal())).expect_clean(name)
}

/// `POOL:CLIENT:SEQ` or `COORD:SEQ` as a transaction code.
fn parse_tx(s: &str) -> Option<u64> {
    let (c, q) = s.split_once(':')?;
    let seq = match q.split_once(':') {
        Some((client, local)) => {
            let client: u32 = client.parse().ok()?;
            let local: u64 = local.parse().ok()?;
            let fits = client < MAX_POOL_CLIENTS && (1..=MAX_POOL_LOCAL_SEQ).contains(&local);
            fits.then(|| gdur_obs::pool_seq(client, local))?
        }
        None => q.parse().ok()?,
    };
    TxId::try_new(c.parse().ok()?, seq).map(TxId::code)
}

/// True when the event involves `pid` (as emitter, sender, or destination).
fn involves(ev: &ObsEvent, pid: u32) -> bool {
    match *ev {
        ObsEvent::Point { actor, .. }
        | ObsEvent::HandleStart { actor, .. }
        | ObsEvent::HandleEnd { actor, .. } => actor.0 == pid,
        ObsEvent::Send { from, to, .. } => from.0 == pid || to.0 == pid,
        ObsEvent::Deliver { to, .. } => to.0 == pid,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: gdur-trace tree --tx POOL:CLIENT:SEQ [PROTOCOL] [--clients N]\n\
         \x20      gdur-trace attribute [PROTOCOL...] [--clients N]\n\
         \x20      gdur-trace export --chrome PATH [PROTOCOL] [--clients N]\n\
         \x20      gdur-trace dump [PROTOCOL] [--tx POOL:CLIENT:SEQ] [--actor PID] [--clients N]"
    );
    exit(2);
}

fn main() {
    let args = Args::of(
        "gdur-trace",
        &[
            "--tx POOL:CLIENT:SEQ",
            "--clients N",
            "--chrome PATH",
            "--actor PID",
        ],
        &["COMMAND", "PROTOCOL..."],
    );
    let Some((cmd, positionals)) = args.positionals().split_first() else {
        usage();
    };
    let name = positionals.first().map_or("P-Store", String::as_str);
    let clients: usize = args
        .number("--clients", "a client count per site")
        .unwrap_or(4);
    let tx = args.read("--tx", "POOL:CLIENT:SEQ or COORD:SEQ", parse_tx);
    let tx = tx.zip(args.value("--tx"));
    let actor_filter: Option<u32> = args.number("--actor", "a process id");
    match cmd.as_str() {
        "tree" => {
            let Some((tx, tx_arg)) = tx else {
                usage();
            };
            let run = run(name, clients);
            let ix = CausalIndex::build(&run.events);
            let Some(mut tree) = tx_span_tree(&run.events, &ix, tx) else {
                eprintln!(
                    "gdur-trace: transaction {tx_arg} not found in the {name} trace \
                     ({} transactions traced)",
                    ix.tx_points.len()
                );
                exit(1);
            };
            tree.label = format!("txn {}", PooledTx(TxId::from_code(tx)));
            print!("{}", tree.render(tree.start));
            if let Some(cp) = critical_path(&run.events, &ix, &run.clients(), tx) {
                println!("\ncritical path ({} ns total):", cp.latency_ns);
                for s in &cp.segments {
                    println!(
                        "  +{:>9} ns  {:>9} ns  {:<12} {}",
                        s.from.saturating_since(tree.start).as_nanos(),
                        s.duration_ns(),
                        s.blame.label(),
                        s.note
                    );
                }
                if let Some(v) = cp.last_voter {
                    println!("  last voter: p{}", v.0);
                }
            }
        }
        "attribute" => {
            let names = if positionals.is_empty() {
                vec!["P-Store", "S-DUR", "Walter"]
            } else {
                positionals.iter().map(String::as_str).collect()
            };
            let mut rows: Vec<(String, Attribution)> = Vec::new();
            for name in names {
                let run = run(name, clients);
                let ix = CausalIndex::build(&run.events);
                let a = Attribution::collect(&run.events, &ix, &run.clients(), run.window_start);
                rows.push((name.to_string(), a));
            }
            print!("{}", render_attribution_text(&rows));
        }
        "export" => {
            let Some(path) = args.value("--chrome") else {
                usage();
            };
            let run = run(name, clients);
            let ix = CausalIndex::build(&run.events);
            let out = export_chrome(&run.events, &ix, &run.cluster.actor_names());
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create output dir");
                }
            }
            std::fs::write(path, &out).expect("write chrome trace");
            println!(
                "{name}: {} events, {} handler spans → {path} \
                 (load in chrome://tracing or https://ui.perfetto.dev)",
                run.events.len(),
                ix.handlers.len()
            );
        }
        "dump" => {
            let mut run = run(name, clients);
            let point = run.point();
            let breakdown = run.breakdown();
            let events = &mut run.events;
            if let Some((tx, tx_arg)) = tx {
                events.retain(|e| matches!(*e, ObsEvent::Point { tx: t, .. } if t == tx));
                if events.is_empty() {
                    eprintln!("gdur-trace: transaction {tx_arg} not found in the {name} trace");
                    exit(1);
                }
            }
            if let Some(pid) = actor_filter {
                events.retain(|e| involves(e, pid));
            }
            let trace = jsonl::export(events);
            // A reader that stops early (`| head`) is not a failure.
            if let Err(e) = std::io::stdout().write_all(trace.as_bytes()) {
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("gdur-trace: cannot write the trace to stdout: {e}");
                    exit(1);
                }
            }
            eprintln!(
                "{name}: {} events ({} committed, {} aborted in window, {:.0} tps)",
                events.len(),
                breakdown.committed,
                breakdown.aborted,
                point.throughput_tps
            );
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_transaction_is_named_by_pool_client_and_sequence_or_packed() {
        let packed = TxId::new(3, 1_048_578).code();
        assert_eq!(parse_tx("3:1:2"), Some(packed));
        assert_eq!(parse_tx("3:1048578"), Some(packed));
        for bad in ["3", "3:x", "3:1:0", "3:1048576:1", "3:0:1048576", "3:1:2:4"] {
            assert_eq!(parse_tx(bad), None, "{bad}");
        }
    }
}
