//! Tracked reproducers of known failing configurations: `#[ignore]`d so
//! tier-1 counts them as ignored, runnable with `cargo test --release -p
//! gdur-integration-tests --test known_failing -- --ignored`. The other
//! known failure, P-Store-AB's diverging chaos schedule, sits with the
//! scenarios it extends in `recovery.rs`.

use gdur_harness::{run_point, Experiment, PlacementKind, Scale, WorkloadKind};

/// benchmark/README.md "Known failing configurations" (a), ROADMAP item 1:
/// S-DUR under the zipfian workload C, 90 % read-only, 4 sites disaster
/// prone, 256 clients/site at the paper's keyspace, seed 11. The harness's
/// always-on oracle panics with a four-hop serialization cycle — two
/// single-key updates and two queries that observe them in opposite orders
/// (`update —wr→ query —rw→ update —wr→ query —rw→`, a long fork);
/// 16, 64 and 128 clients/site pass.
#[test]
#[ignore = "known failing: ROADMAP item 1"]
fn sdur_256_clients_serialization_cycle() {
    let exp = Experiment::new(
        gdur_protocols::s_dur(),
        WorkloadKind::C,
        0.9,
        4,
        PlacementKind::Dp,
    );
    let scale = Scale {
        seed: 11,
        ..Scale::paper()
    };
    // `run_point` derives the deployment seed as `seed ^ clients << 32` and
    // panics when the history violates the spec's criterion.
    let point = run_point(&exp, &scale, 256);
    assert!(point.committed > 0);
}
