//! Prints the Table 3 workload definitions as encoded in `gdur-workload`.
//! Usage: `cargo run -p gdur-bench --bin table3_workloads`.

use gdur_workload::{KeyDist, WorkloadSpec};

fn main() {
    gdur_bench::Args::of("table3_workloads", &[], &[]);
    println!("Table 3: experimental settings");
    println!(
        "{:<9} {:<10} {:<22} {:<24}",
        "workload", "key dist.", "read-only transaction", "update transaction"
    );
    for w in [
        WorkloadSpec::a(),
        WorkloadSpec::b(),
        WorkloadSpec::c(100_000),
    ] {
        let dist = match w.dist {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian(_) => "zipfian",
        };
        println!(
            "{:<9} {:<10} {:<22} {:<24}",
            w.name,
            dist,
            format!("{} reads", w.ro_reads),
            format!("{} reads, {} updates", w.upd_reads, w.upd_writes)
        );
    }
}
