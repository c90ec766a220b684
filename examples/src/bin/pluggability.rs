//! Pluggability (§8.4): build *new* protocols by swapping single plug-ins,
//! exactly as the paper does to derive P-Store-la and SER+2PC, and compare
//! the variants head to head.
//!
//! Three derivations are demonstrated:
//! 1. P-Store → P-Store-la (waive certification for coordinator-local
//!    queries, read consistent PDV snapshots);
//! 2. P-Store → SER+2PC (swap AM-Cast for two-phase commit);
//! 3. a custom "Walter-Paxos": Walter with its 2PC replaced by Paxos
//!    Commit — one line, one new protocol.
//!
//! ```text
//! cargo run --release -p gdur-examples --bin pluggability
//! ```

use gdur_core::{CommitmentKind, ProtocolSpec};
use gdur_harness::{max_throughput, run_sweep, Experiment, PlacementKind, Scale, WorkloadKind};

/// Walter with Paxos Commit, each vote chosen by a majority of acceptors: a
/// protocol the paper never names, assembled in four lines.
fn walter_paxos() -> ProtocolSpec {
    ProtocolSpec {
        name: "Walter-Paxos",
        commitment: CommitmentKind::PaxosCommit,
        ..gdur_protocols::walter() // inherits Walter's PSI claim
    }
}

fn main() {
    let mut scale = Scale::quick();
    scale.keys_per_partition = 10_000;
    scale.client_sweep = vec![16, 128, 512];

    // 1 + 2: the paper's own derivations.
    println!("deriving protocols by swapping plug-ins\n");
    let variants = vec![
        (gdur_protocols::p_store(), 0.9),
        (gdur_protocols::p_store_la(), 0.9),
        (gdur_protocols::p_store_2pc(), 0.0),
        (walter_paxos(), 0.0),
        (gdur_protocols::walter(), 0.0),
    ];
    println!(
        "{:<14} {:>22} {:>16} {:>12}",
        "protocol", "max throughput (tps)", "upd latency (ms)", "genuine?"
    );
    let mut latency_ms = Vec::new();
    for (spec, locality) in variants {
        let mut exp = Experiment::new(spec, WorkloadKind::A, 0.9, 4, PlacementKind::Dp);
        exp.local_query_ratio = locality;
        let points = run_sweep(&exp, &scale);
        let last = points.last().expect("sweep has points");
        println!(
            "{:<14} {:>22.0} {:>16.1} {:>12}",
            exp.spec.name,
            max_throughput(&points),
            last.term_latency_update_ms,
            exp.spec.is_genuine()
        );
        latency_ms.push((exp.spec.name, last.term_latency_update_ms));
    }
    let latency = |name: &str| {
        let found = latency_ms.iter().find(|(n, _)| *n == name);
        found.expect("swept").1
    };
    println!(
        "\nP-Store-la turns local queries wait-free (throughput up at high \
         locality);\nSER+2PC trades a-priori ordering for two message delays \
         (latency down);\nWalter-Paxos has every vote chosen by a majority of \
         acceptors for {:+.1} ms per update\nat 4 sites, where a remote vote waits \
         for one phase 2b from a third acceptor.",
        latency("Walter-Paxos") - latency("Walter")
    );
}
