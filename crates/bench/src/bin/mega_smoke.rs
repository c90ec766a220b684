//! CI scale gate: pooled-client points (one `ClientPool` actor per site,
//! workload C at 90 % queries, 3 disaster-prone sites, 1 s think time, 2 s
//! op timeout, 4 s horizon, seed 11) whose deterministic counters are
//! diffed against the checked-in golden file — P-Store and S-DUR at 10⁴
//! clients per site, then P-Store at 10⁵, which pins the zero-commit wall
//! of ROADMAP item 7. Virtual-time results are a pure function of the seed,
//! so any divergence means pooled-client behaviour changed, not just speed.
//!
//! Usage: `cargo run --release -p gdur-bench --bin mega_smoke [--bless]
//! [CLIENTS_PER_SITE...]` (`--bless` regenerates
//! `crates/bench/golden/mega_smoke.txt`). Given rungs, it prints P-Store's
//! line for each and compares nothing — the 10⁶ rung (≈ 25 s, 2.5 GiB) is
//! run that way, timed from outside.

use gdur_core::{ClusterConfig, ProtocolSpec};
use gdur_obs::AbortCause;
use gdur_sim::SimDuration;
use gdur_store::Placement;
use gdur_workload::WorkloadSpec;

/// Runs one pooled point; its whole-run counters as a line under `label`.
fn pooled_point(label: &str, spec: ProtocolSpec, clients_per_site: usize) -> String {
    let placement = Placement::disaster_prone(3);
    let clients = clients_per_site * placement.sites();
    let keys_per_partition = 10_000;
    let total_keys = keys_per_partition * placement.partitions() as u64;
    // The one deployment without history or per-transaction records:
    // memory is bounded by client state, not by the transaction count.
    let cfg = ClusterConfig {
        keys_per_partition,
        value_size: 64,
        clients_per_site,
        record_history: false,
        record_txn_metrics: false,
        client_think_time: Some(SimDuration::from_secs(1)),
        client_op_timeout: Some(SimDuration::from_secs(2)),
        seed: 11 ^ (clients_per_site as u64) << 32,
        ..ClusterConfig::new(spec, placement)
    };
    let mut cluster = gdur_harness::build_ycsb(cfg, &WorkloadSpec::c(total_keys), 0.9, 0.0);
    cluster.run_for(SimDuration::from_secs(4));
    let c = cluster.pool_counts();
    assert!(
        c.issued >= c.committed + c.aborted,
        "{label}: {} committed + {} aborted > {} issued",
        c.committed,
        c.aborted,
        c.issued
    );
    // A client op timeout is recorded as `AbortCause::Crash`.
    let timeouts = c.aborted_by_cause[AbortCause::Crash.code() as usize];
    format!(
        "{label}: clients={clients} issued={} committed={} aborted={} \
         timeout_aborts={timeouts} events={}\n",
        c.issued,
        c.committed,
        c.aborted,
        cluster.sim().stats().events_processed
    )
}

fn main() {
    let p_store_at = |cps| pooled_point(&format!("P-Store@{cps}"), gdur_protocols::p_store(), cps);
    let args = gdur_bench::Args::of("mega_smoke", &["--bless"], &["CLIENTS_PER_SITE..."]);
    let rungs: Vec<usize> = (args.positionals().iter())
        .map(|a| {
            a.parse()
                .unwrap_or_else(|_| args.refuse(&format!("not a client count per site: {a:?}")))
        })
        .collect();
    if !rungs.is_empty() {
        for cps in rungs {
            print!("{}", p_store_at(cps));
        }
        return;
    }
    let mut out = String::new();
    for spec in [gdur_protocols::p_store(), gdur_protocols::s_dur()] {
        out.push_str(&pooled_point(spec.name, spec, 10_000));
    }
    out.push_str(&p_store_at(100_000));
    print!("{out}");
    gdur_bench::golden::check(&args, "mega_smoke", "pooled counters", &out);
}
