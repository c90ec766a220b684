//! Paxos Commit's message delay against two-phase commit's, measured at a
//! fault-free quick-scale point (workload A, half the transactions queries,
//! 8 clients per site, the quick scale's seed).

use gdur_harness::{run_point, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_protocols::{p_store_2pc, p_store_paxos};

/// Mean termination latency of committed updates, ms, of `spec` at `sites`
/// sites.
fn term_latency_update_ms(
    spec: gdur_core::ProtocolSpec,
    sites: usize,
    placement: PlacementKind,
) -> f64 {
    let exp = Experiment::new(spec, WorkloadKind::A, 0.5, sites, placement);
    run_point(&exp, &Scale::quick(), 8).term_latency_update_ms
}

/// At three sites the voter's acceptor and the coordinator's are a
/// majority, so a remote vote is chosen where it arrives; only the
/// coordinator's own vote waits for a phase 2b, sent as it is cast. An
/// update terminates within 1 % of two-phase commit's latency.
#[test]
fn paxos_commit_at_three_sites_terminates_updates_at_two_phase_commits_delay() {
    for placement in [PlacementKind::Dt, PlacementKind::Dp] {
        let two_pc = term_latency_update_ms(p_store_2pc(), 3, placement);
        let paxos = term_latency_update_ms(p_store_paxos(), 3, placement);
        assert!(
            (paxos - two_pc).abs() <= 0.01 * two_pc,
            "{placement:?}: Paxos Commit {paxos:.3} ms, 2PC {two_pc:.3} ms"
        );
    }
}

/// At four and five sites a remote vote needs one phase 2b from a third
/// acceptor, so Paxos Commit costs more than two-phase commit — and less
/// than replicating the decision on a majority after the last vote, an
/// accept round that measured these latencies at the same points (ms).
#[test]
fn paxos_commit_at_four_and_five_sites_costs_less_than_a_decision_round() {
    let decision_round = [
        (4, PlacementKind::Dt, 65.1),
        (4, PlacementKind::Dp, 61.6),
        (5, PlacementKind::Dt, 62.8),
        (5, PlacementKind::Dp, 60.4),
    ];
    for (sites, placement, round_ms) in decision_round {
        let two_pc = term_latency_update_ms(p_store_2pc(), sites, placement);
        let paxos = term_latency_update_ms(p_store_paxos(), sites, placement);
        assert!(
            two_pc < paxos && paxos < round_ms,
            "{sites} sites {placement:?}: 2PC {two_pc:.3} ms, Paxos Commit {paxos:.3} ms, \
             decision round {round_ms} ms"
        );
    }
}
