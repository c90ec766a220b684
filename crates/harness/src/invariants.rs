//! The per-run invariant bundle of a checked run.
//!
//! Every experiment's history is verified against the spec's claimed
//! criterion ([`crate::experiment::run_point`] panics on violation). A
//! checked run ([`crate::fault::run_checked`]: a chaos run, or one schedule
//! of the model checker `gdur-mc` in `gdur-analysis`) needs that verdict
//! and two more as a value rather than a panic: this module bundles them
//! into one call returning human-readable violation strings, empty when
//! the run is clean.

use gdur_consistency::{CriterionCheck, History};
use gdur_core::{Cluster, ProtocolSpec};

use crate::fault::stores_converged;

/// The convergence violation of [`check_invariants`].
pub(crate) const DIVERGED: &str = "convergence: replica stores diverged";

/// Runs the invariant bundle against a finished (run-to-idle) cluster:
///
/// 1. **History verification** — the committed history satisfies
///    `spec.criterion` (the paper's "analyzing" pillar);
/// 2. **Convergence** — all replicas of each partition hold the same
///    per-key latest version, for assemblies whose certification orders
///    conflicting writes ([`ProtocolSpec::orders_write_conflicts`]);
/// 3. **Abort-cause partition** — summed across replicas, coordinated
///    aborts equal the sum of the per-cause counters (no abort is
///    unaccounted for or double-counted).
///
/// Returns one string per violated invariant; an empty vector means the
/// schedule is clean.
pub fn check_invariants(spec: &ProtocolSpec, cluster: &Cluster) -> Vec<String> {
    let mut out = Vec::new();
    let history = History::from_cluster(cluster);
    if let Err(v) = spec.criterion.check(&history) {
        out.push(format!("history: {v}"));
    }
    if spec.orders_write_conflicts() && !stores_converged(cluster) {
        out.push(DIVERGED.to_string());
    }
    let st = cluster.replica_stats();
    let causes = st.aborted_cert_conflict
        + st.aborted_vote_timeout
        + st.aborted_read_impossible
        + st.aborted_crash;
    if causes != st.aborted {
        out.push(format!(
            "abort-partition: {} coordinated aborts but causes sum to {causes}",
            st.aborted
        ));
    }
    out
}
