//! Ablation of the versioning-mechanism design choice (DESIGN.md §3.3):
//! the same PSI/NMSI-style protocol assembled with each Θ, isolating what
//! the mechanism costs (metadata bytes on every message) and buys
//! (snapshot freshness/consistency).
//!
//! ```text
//! cargo run --release -p gdur-bench --bin ablation_versioning [--quick] [--seed N]
//! ```

use gdur_core::{ChooseRule, Criterion, ProtocolSpec};
use gdur_harness::{run_point, Experiment, PlacementKind, WorkloadKind};
use gdur_versioning::Mechanism;

fn variant(name: &'static str, versioning: Mechanism, choose: ChooseRule) -> ProtocolSpec {
    // `choose_last` variants cannot assemble consistent snapshots, so they
    // only claim (and are only checked against) read committed.
    let criterion = match choose {
        ChooseRule::Consistent => Criterion::Nmsi,
        ChooseRule::Last => Criterion::Rc,
    };
    ProtocolSpec {
        name,
        criterion,
        versioning,
        choose,
        ..gdur_protocols::jessy_2pc()
    }
}

fn main() {
    let args = gdur_bench::Args::of("ablation_versioning", &["--quick", "--seed N"], &[]);
    let mut scale = args.scale();
    scale.client_sweep = vec![256];
    let clients = 256;

    println!("versioning-mechanism ablation over the Jessy2pc termination stack");
    println!("(Workload A, 4 sites, DP, 90% read-only, {clients} clients/site)\n");
    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>12}",
        "variant", "stamp B", "tps", "avg lat (ms)", "abort %"
    );
    let variants = [
        variant("TS + choose_last", Mechanism::Ts, ChooseRule::Last),
        variant("VTS + choose_cons", Mechanism::Vts, ChooseRule::Consistent),
        variant("GMV + choose_cons", Mechanism::Gmv, ChooseRule::Consistent),
        variant("PDV + choose_cons", Mechanism::Pdv, ChooseRule::Consistent),
        variant("PDV + choose_last", Mechanism::Pdv, ChooseRule::Last),
    ];
    for spec in variants {
        let stamp_bytes = spec.versioning.stamp_wire_size(4, 4);
        let exp = Experiment::new(spec, WorkloadKind::A, 0.9, 4, PlacementKind::Dp);
        let p = run_point(&exp, &scale, clients);
        println!(
            "{:<22} {:>10} {:>12.0} {:>14.2} {:>11.2}%",
            exp.label,
            stamp_bytes,
            p.throughput_tps,
            p.avg_latency_ms,
            p.abort_ratio * 100.0
        );
    }
    println!(
        "\nscalar TS is the cheapest but cannot assemble consistent snapshots;\n\
         VTS needs background propagation for freshness (Walter/S-DUR);\n\
         GMV/PDV pin fresh snapshots greedily with partition-sized vectors —\n\
         the metadata cost visible in the stamp-bytes column and the Fig. 4 gap."
    );
}
