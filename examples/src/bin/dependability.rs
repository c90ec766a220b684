//! Dependability (§5.3, §8.5): crash a replica mid-run and contrast the
//! blocking behaviour of 2PC with quorum-based group communication in a
//! disaster-tolerant deployment.
//!
//! Under 2PC every replica of every certified object must vote, so a
//! crashed replica stalls all transactions touching its partitions until
//! it recovers. Under quorum-based group communication (uniform AB-Cast
//! with majority delivery, one affirmative vote per object) the surviving
//! replica of each partition keeps the system live. Genuine AM-Cast would
//! need perfect failure detection to exclude the crashed destination
//! (§5.3), which we deliberately do not fake.
//!
//! ```text
//! cargo run --release -p gdur-examples --bin dependability
//! ```

use gdur_core::{ClusterConfig, ProtocolSpec};
use gdur_harness::build_ycsb;
use gdur_sim::SimDuration;
use gdur_store::Placement;
use gdur_workload::WorkloadSpec;

fn run(spec: ProtocolSpec, crash: bool) -> (usize, usize) {
    let name = spec.name;
    let mut cfg = ClusterConfig::small(spec, 3);
    cfg.placement = Placement::disaster_tolerant(3);
    cfg.keys_per_partition = 1_000;
    cfg.clients_per_site = 4;
    cfg.max_txns_per_client = None;
    cfg.record_history = false;
    let mut cluster = build_ycsb(cfg, &WorkloadSpec::a(), 0.5, 0.0);
    cluster.run_for(SimDuration::from_secs(2));
    let before = cluster.records().len();
    if crash {
        let victim = cluster.replica_pids()[2];
        let now = cluster.now();
        cluster.sim_mut().schedule_crash(victim, now);
        println!("{name:<12}: crashed the site-2 replica at t=2s");
    }
    cluster.run_for(SimDuration::from_secs(4));
    let after = cluster.records().len();
    (before, after - before)
}

fn main() {
    println!("disaster-tolerant deployment, 3 sites, replica of site 2 crashes\n");
    for spec in [gdur_protocols::p_store_ab(), gdur_protocols::p_store_2pc()] {
        let name = spec.name;
        let (_, healthy) = run(spec.clone(), false);
        let (_, after_crash) = run(spec, true);
        let retained = 100.0 * after_crash as f64 / healthy as f64;
        println!(
            "{name:<12}: {healthy:>6} decisions healthy, {after_crash:>6} after crash \
             ({retained:.0}% retained)\n"
        );
        if name == "P-Store-AB" {
            assert!(
                retained > 25.0,
                "quorum commitment should survive one crash"
            );
        } else {
            assert!(retained < 25.0, "2PC should block on the crashed replica");
        }
    }
    println!(
        "AM-Cast voting needs one live replica per object: throughput dips but \
         survives.\n2PC needs every replica's vote: transactions touching the \
         crashed site's\npartitions block until recovery — the §5.3 trade-off."
    );
}
