//! CI scale gate: runs one bounded aggregated-pool point (10⁴ clients per
//! site — the mega sweep's smallest rung) and diffs its deterministic
//! counters against the checked-in golden file. Virtual-time results are a
//! pure function of the seed, so any divergence means pooled-client
//! behaviour changed, not just speed.
//!
//! Usage: `cargo run --release -p gdur-bench --bin mega_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/mega_smoke.txt`).

use gdur_harness::{run_mega_point, Experiment, MegaConfig, PlacementKind, WorkloadKind};

fn main() {
    let mut out = String::new();

    for spec in [gdur_protocols::p_store(), gdur_protocols::s_dur()] {
        let name = spec.name;
        let exp = Experiment::new(spec, WorkloadKind::C, 0.9, 3, PlacementKind::Dp);
        let cfg = MegaConfig::standard(10_000, 11);
        let r = run_mega_point(&exp, &cfg);
        assert!(r.committed > 0, "{name}: pooled run committed nothing");
        assert!(
            r.issued >= r.committed + r.aborted,
            "{name}: decided transactions exceed issued ({} committed + {} aborted > {} issued)",
            r.committed,
            r.aborted,
            r.issued
        );
        out.push_str(&format!(
            "{name}: clients={} issued={} committed={} aborted={} timeout_aborts={} events={}\n",
            r.clients_total, r.issued, r.committed, r.aborted, r.timeout_aborts, r.events
        ));
    }
    print!("{out}");

    gdur_bench::golden::check("mega_smoke", "pooled counters", &out);
}
