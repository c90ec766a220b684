//! CI parallel-kernel gate: proves the lookahead-sharded kernel is
//! *invisible* — a pure performance knob with no observable effect.
//!
//! Two probes, each run once under the sequential kernel and once sharded
//! across `GDUR_KERNEL_THREADS` workers (default 4) on a jitter-free
//! topology:
//!
//! 1. a protocol-library sample (P-Store, Walter, Jessy-2PC) on the
//!    contended YCSB-A workload, comparing transaction records, the full
//!    JSONL trace stream, and the kernel event counter byte for byte;
//! 2. one chaos schedule (crash → partition → heal → restart of
//!    P-Store-2PC), comparing the recovery report and trace stream —
//!    faults of an actor living on *another shard* must replay
//!    identically.
//!
//! The sequential run's counters are then diffed against the checked-in
//! golden file, so the gate pins both equalities *and* absolute values.
//!
//! Usage: `cargo run --release -p gdur-bench --bin par_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/par_smoke.txt`).

use std::process::exit;

use gdur_core::{Cluster, ClusterConfig, ProtocolSpec, TxnRecord};
use gdur_harness::{run_chaos, ChaosConfig, FaultSchedule};
use gdur_workload::{WorkloadSpec, YcsbSource};

fn threads_from_env() -> usize {
    std::env::var("GDUR_KERNEL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 1)
        .unwrap_or(4)
}

/// One library run: 3 sites, contended YCSB-A, jitter-free topology,
/// `threads` kernel workers. Returns records, the JSONL trace stream, and
/// the kernel's event counter.
fn run_protocol(spec: ProtocolSpec, threads: usize) -> (Vec<TxnRecord>, String, u64) {
    let sites = 3;
    let mut cfg = ClusterConfig::small(spec, sites);
    cfg.keys_per_partition = 60;
    cfg.clients_per_site = 3;
    cfg.max_txns_per_client = Some(15);
    cfg.seed = 42;
    cfg.kernel_threads = threads;
    cfg.jitter = Some(0.0);
    let total_keys = cfg.keys_per_partition * sites as u64;
    let mut cluster = Cluster::build(cfg, move |_, site| {
        Box::new(YcsbSource::new(
            WorkloadSpec::a(),
            total_keys,
            sites as u64,
            site.0 as u64 % sites as u64,
            0.5,
        ))
    });
    let trace = gdur_obs::TraceHandle::new();
    cluster.attach_obs(trace.sink());
    cluster.run_until_idle();
    let events = cluster.sim().stats().events_processed;
    (
        cluster.records(),
        gdur_obs::jsonl::export(&trace.take()),
        events,
    )
}

fn chaos_cfg(threads: usize) -> ChaosConfig {
    let schedule = FaultSchedule::new()
        .crash(1, 400)
        .partition(0, 2, 600)
        .heal(0, 2, 900)
        .restart(1, 1_200);
    let mut cfg = ChaosConfig::new(gdur_protocols::p_store_2pc(), schedule);
    cfg.kernel_threads = threads;
    cfg.jitter = Some(0.0);
    cfg
}

fn main() {
    let threads = threads_from_env();
    let mut out = String::new();

    for spec in [
        gdur_protocols::p_store(),
        gdur_protocols::walter(),
        gdur_protocols::jessy_2pc(),
    ] {
        let name = spec.name;
        let (seq_recs, seq_trace, seq_events) = run_protocol(spec.clone(), 1);
        let (par_recs, par_trace, par_events) = run_protocol(spec, threads);
        if seq_recs != par_recs {
            let first = seq_recs
                .iter()
                .zip(&par_recs)
                .position(|(a, b)| a != b)
                .unwrap_or(seq_recs.len().min(par_recs.len()));
            eprintln!(
                "par_smoke: {name}: transaction record #{first} differs between \
                 the sequential and {threads}-thread kernels"
            );
            exit(1);
        }
        if seq_trace != par_trace {
            let first = seq_trace
                .lines()
                .zip(par_trace.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(seq_trace.lines().count().min(par_trace.lines().count()));
            eprintln!(
                "par_smoke: {name}: trace streams diverge at event #{first} \
                 between the sequential and {threads}-thread kernels"
            );
            exit(1);
        }
        if seq_events != par_events {
            eprintln!(
                "par_smoke: {name}: event counts differ: {seq_events} sequential \
                 vs {par_events} at {threads} threads"
            );
            exit(1);
        }
        out.push_str(&format!(
            "{name}: records={} trace_events={} kernel_events={}\n",
            seq_recs.len(),
            seq_trace.lines().count(),
            seq_events
        ));
    }

    let (seq_report, seq_events) = run_chaos(&chaos_cfg(1));
    let (par_report, par_events) = run_chaos(&chaos_cfg(threads));
    let (seq_trace, par_trace) = (
        gdur_obs::jsonl::export(&seq_events),
        gdur_obs::jsonl::export(&par_events),
    );
    if seq_trace != par_trace {
        let first = seq_trace
            .lines()
            .zip(par_trace.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(seq_trace.lines().count().min(par_trace.lines().count()));
        eprintln!(
            "par_smoke: chaos traces diverge at event #{first} between the \
             sequential and {threads}-thread kernels"
        );
        exit(1);
    }
    if seq_report.golden_line() != par_report.golden_line() {
        eprintln!(
            "par_smoke: chaos reports differ:\n  sequential: {}\n  {threads}-thread: {}",
            seq_report.golden_line(),
            par_report.golden_line()
        );
        exit(1);
    }
    out.push_str(&format!(
        "chaos {}: trace_events={} report: {}\n",
        seq_report.label,
        seq_trace.lines().count(),
        seq_report.golden_line()
    ));
    print!("{out}");
    println!("par_smoke: {threads}-thread kernel byte-identical to sequential");

    gdur_bench::golden::check("par_smoke", "counters", &out);
}
