//! The invariant bundle: the one verdict on every checked run
//! ([`crate::fault::run_checked`]) — a figure point, a chaos run, one
//! schedule of the model checker `gdur-mc` (in `gdur-bench`), or a
//! criterion test. It returns human-readable violation strings, empty when
//! the run is clean; a figure point panics on any of them
//! ([`crate::experiment::run_point`]).

use gdur_consistency::{CriterionCheck, History};
use gdur_core::Cluster;

use crate::fault::{stores_converged, Deployment};

/// Runs the invariant bundle against `cluster`, the run of `dep` at its
/// horizon:
///
/// 1. **History verification** — the committed history satisfies
///    `dep.spec.criterion` (the paper's "analyzing" pillar);
/// 2. **Convergence**, on a drained run whose schedule restarts every
///    crashed replica (a run stopped at its window still has installs in
///    flight, and a replica that stays down is stale by definition) — all
///    replicas of each partition hold the same per-key latest version, for
///    assemblies whose certification orders conflicting writes
///    ([`gdur_core::ProtocolSpec::orders_write_conflicts`]);
/// 3. **Abort-cause partition** — summed across replicas, coordinated
///    aborts equal the sum of the per-cause counters (no abort is
///    unaccounted for or double-counted).
///
/// Returns one string per violated invariant; an empty vector means the
/// run is clean.
pub fn check_invariants(dep: &Deployment, cluster: &Cluster) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(v) = dep.spec.criterion.check(&History::from_cluster(cluster)) {
        out.push(format!("history: {v}"));
    }
    let drained = dep.horizon.txns_per_client().is_some();
    let settled = drained && dep.schedule.restores_every_crash();
    if settled && dep.spec.orders_write_conflicts() && !stores_converged(cluster) {
        out.push("convergence: replica stores diverged".to_string());
    }
    let st = cluster.replica_stats();
    let causes = st.aborted_by_cause.iter().sum::<u64>();
    if causes != st.aborted {
        out.push(format!(
            "abort-partition: {} coordinated aborts but causes sum to {causes}",
            st.aborted
        ));
    }
    out
}
