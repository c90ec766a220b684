//! The static protocol-assembly checker: [`ProtocolSpec::validate`].
//!
//! G-DUR's pitch is that a transactional protocol is *assembled* from
//! plug-ins — which also means an unsound protocol is one typo away: a
//! consistent-snapshot choose rule over scalar timestamps, a SER claim
//! certified against write sets only, a local-decide vote rule without the
//! totally-ordered install stream it relies on. None of these fail at
//! build time; all of them silently corrupt histories at run time.
//!
//! `validate` runs a rule table derived from the paper's §4–§6 constraints
//! over a spec and the active [`Placement`], producing structured
//! [`Diagnostic`]s. [`Severity::Error`] marks combinations that cannot
//! deliver the claimed criterion; [`Severity::Warning`] marks suspicious
//! but sound mixes (the §8.3 ablations deliberately trip these). Every
//! deployment entry point — `Cluster::build`, the harness, the figure
//! binaries — refuses to run a spec with errors.

use gdur_store::{PartitionId, Placement};
use gdur_versioning::Mechanism;

use crate::spec::{CertifyRule, CertifyingObjRule, ChooseRule, Criterion, ProtocolSpec, VoteRule};
use gdur_gc::XcastKind;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Sound but suspicious: the mix pays for something it does not use,
    /// or weakens a guarantee in a way the claimed criterion permits.
    Warning,
    /// The plug-in combination cannot deliver the claimed criterion; a
    /// deployment would produce inconsistent histories.
    Error,
}

/// One finding of the spec linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable rule code, e.g. `"CS-SCALAR"`.
    pub code: &'static str,
    /// Human-readable description of the specific conflict.
    pub message: String,
    /// One-line pointer into the paper justifying the rule.
    pub citation: &'static str,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{sev}[{}]: {} ({})",
            self.code, self.message, self.citation
        )
    }
}

fn multi_dimensional(m: Mechanism) -> bool {
    !matches!(m, Mechanism::Ts)
}

/// `certifying_obj` always includes the read set of an update transaction.
fn certifies_reads(rule: CertifyingObjRule) -> bool {
    matches!(
        rule,
        CertifyingObjRule::ReadWriteSet
            | CertifyingObjRule::ReadWriteSetIfUpdate
            | CertifyingObjRule::ReadWriteSetUnlessLocalQuery
            | CertifyingObjRule::AllObjects
    )
}

impl ProtocolSpec {
    /// Statically checks this plug-in assembly against the paper's
    /// compatibility constraints, under the given data placement.
    ///
    /// Returns every finding; an empty vector (or warnings only) means the
    /// assembly is accepted. Use [`ProtocolSpec::validate_strict`] to turn
    /// errors into a panic at deployment entry points.
    pub fn validate(&self, placement: &Placement) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut emit = |severity, code, message: String, citation| {
            out.push(Diagnostic {
                severity,
                code,
                message,
                citation,
            })
        };

        let gc_xcast = self.group_communication();
        let total_order_install = gc_xcast == Some(XcastKind::AbCast)
            && self.certifying_obj == CertifyingObjRule::AllObjects;

        // CS-SCALAR — choose_cons needs a multi-dimensional Θ. Scalar
        // timestamps carry no dependence information, so the compatibility
        // test degenerates and "consistent" snapshots are arbitrary. The
        // exception is Serrano's mix: with every update AB-Cast to every
        // replica, install order is total and scalar stamps do induce
        // consistent snapshots.
        if self.choose == ChooseRule::Consistent
            && !multi_dimensional(self.versioning)
            && !total_order_install
        {
            emit(
                Severity::Error,
                "CS-SCALAR",
                format!(
                    "choose_cons over scalar {:?} stamps cannot form consistent snapshots \
                     without a totally ordered install stream (AB-Cast to all objects)",
                    self.versioning
                ),
                "§4.2: the compatibility test needs VTS/GMV/PDV dependence vectors",
            );
        }

        // SER-READ-CERT — (update) serializability needs read-set
        // certification: without re-validating read versions, concurrent
        // committed writes produce non-serializable update transactions.
        if matches!(self.criterion, Criterion::Ser | Criterion::Us)
            && self.certify != CertifyRule::ReadSetCurrent
        {
            emit(
                Severity::Error,
                "SER-READ-CERT",
                format!(
                    "criterion {:?} requires certify = ReadSetCurrent, got {:?}",
                    self.criterion, self.certify
                ),
                "§6: SER/US protocols certify that read versions are still current",
            );
        }

        // CERT-OBJ-MISMATCH — the certification check must be able to see
        // the objects it validates: ReadSetCurrent needs the read set
        // synchronized; any check needs *some* certifying objects.
        if self.certify == CertifyRule::ReadSetCurrent && !certifies_reads(self.certifying_obj) {
            emit(
                Severity::Error,
                "CERT-OBJ-MISMATCH",
                format!(
                    "certify = ReadSetCurrent but certifying_obj = {:?} never synchronizes \
                     on read objects, so the check runs against no data",
                    self.certifying_obj
                ),
                "§5: vote_snd_obj must cover the objects the certification test reads",
            );
        }
        if self.certify != CertifyRule::AlwaysPass
            && self.certifying_obj == CertifyingObjRule::Nothing
        {
            emit(
                Severity::Error,
                "CERT-OBJ-MISMATCH",
                format!(
                    "certify = {:?} with certifying_obj = Nothing: transactions commit \
                     locally and the certification test never runs",
                    self.certify
                ),
                "§5: an empty certifying set skips termination synchronization entirely",
            );
        }

        // SI-WRITE-CERT — the snapshot-isolation family forbids concurrent
        // write-write conflicts; a trivially passing certification cannot
        // enforce first-committer-wins.
        if matches!(
            self.criterion,
            Criterion::Si | Criterion::Psi | Criterion::Nmsi
        ) && self.certify == CertifyRule::AlwaysPass
        {
            emit(
                Severity::Error,
                "SI-WRITE-CERT",
                format!(
                    "criterion {:?} requires write-write certification, got AlwaysPass",
                    self.criterion
                ),
                "§6: SI/PSI/NMSI enforce first-committer-wins on write sets",
            );
        }

        // SNAPSHOT-READS — every criterion that promises unfractured reads
        // needs consistent snapshots: choose_cons over a dependence-tracking
        // mechanism (or Serrano's totally ordered installs).
        if matches!(
            self.criterion,
            Criterion::Si | Criterion::Psi | Criterion::Nmsi | Criterion::Ra
        ) && self.choose != ChooseRule::Consistent
        {
            emit(
                Severity::Error,
                "SNAPSHOT-READS",
                format!(
                    "criterion {:?} promises unfractured reads but choose_last returns \
                     whatever committed most recently, mid-transaction",
                    self.criterion
                ),
                "§4.2: snapshot criteria read from consistent snapshots (choose_cons)",
            );
        }

        // WFQ-SER — wait-free queries under SER: a query that certifies
        // nothing must still read a serializable snapshot, which only
        // consistent snapshots kept fresh by background propagation provide
        // (S-DUR); P-Store instead certifies its queries.
        if self.criterion == Criterion::Ser
            && self.wait_free_queries()
            && self.choose != ChooseRule::Consistent
        {
            emit(
                Severity::Error,
                "WFQ-SER",
                "criterion Ser with wait-free queries requires consistent snapshots; \
                 uncertified choose_last queries can observe non-serializable states"
                    .to_string(),
                "§6.1: no SER protocol has WFQ without consistent snapshot reads",
            );
        }

        // LOCAL-DECIDE-ORDER — deciding locally with no vote exchange is
        // only sound when every decider observes the same totally ordered
        // stream of submitted transactions against a replicated version
        // table: AB-Cast to all objects (Serrano).
        if self.votes == VoteRule::LocalDecide && !total_order_install {
            emit(
                Severity::Error,
                "LOCAL-DECIDE-ORDER",
                format!(
                    "VoteRule::LocalDecide requires AB-Cast commitment over all objects \
                     (got {:?} over {:?}): without a total order, local decisions diverge",
                    self.commitment, self.certifying_obj
                ),
                "§5/Alg. 8: Serrano decides locally because AB-Cast makes inputs identical",
            );
        }

        // AMCAST-ALL-OBJECTS — certifying against *all* objects means every
        // replica must observe every submitted transaction; a genuine
        // multicast only reaches the addressed replicas, and unordered
        // multicast reaches them in no agreed order.
        if self.certifying_obj == CertifyingObjRule::AllObjects
            && matches!(
                gc_xcast,
                Some(XcastKind::AmCast) | Some(XcastKind::AmPwCast) | Some(XcastKind::Multicast)
            )
        {
            emit(
                Severity::Error,
                "AMCAST-ALL-OBJECTS",
                format!(
                    "certifying_obj = AllObjects needs every replica in one total order, \
                     but xcast = {:?} is genuine/partial by design",
                    gc_xcast.expect("gc commitment")
                ),
                "§5–§6: replicated-table certification requires non-genuine AB-Cast",
            );
        }

        // QUORUM-UNORDERED — under group-communication commitment the
        // decision quorum is one affirmative replica per certifying object;
        // those single-replica quorums only agree because ordered delivery
        // makes every replica of an object vote on the same prefix. With
        // unordered Multicast and replicated partitions, two coordinators
        // can assemble quorums from replicas that saw different orders.
        if gc_xcast == Some(XcastKind::Multicast) {
            let replicated: Vec<PartitionId> = (0..placement.partitions())
                .map(|p| PartitionId(p as u32))
                .filter(|p| placement.replication_degree(*p) > 1)
                .collect();
            if !replicated.is_empty() {
                emit(
                    Severity::Error,
                    "QUORUM-UNORDERED",
                    format!(
                        "group-communication commitment over unordered Multicast with \
                         {} replicated partition(s) under this placement: per-object \
                         single-replica vote quorums need not intersect in any agreed order",
                        replicated.len()
                    ),
                    "§5/Alg. 3: GC commitment assumes ordered delivery at every certifier",
                );
            }
        }

        // W-METADATA-UNUSED — multi-dimensional stamps are computed and
        // shipped but never consulted by choose_last. Sound (GMU* does
        // exactly this to isolate the metadata cost) but pure overhead.
        if multi_dimensional(self.versioning) && self.choose == ChooseRule::Last {
            emit(
                Severity::Warning,
                "W-METADATA-UNUSED",
                format!(
                    "{:?} metadata is maintained and marshaled but choose_last never \
                     reads it; this is the §8.3 ablation configuration",
                    self.versioning
                ),
                "§8.3: GMU* measures the cost of shipped-but-unused snapshot metadata",
            );
        }

        // W-OVERCERTIFY — a weak claim with a strong certification: sound,
        // but the protocol aborts transactions its criterion would allow.
        if matches!(self.criterion, Criterion::Rc | Criterion::Ra)
            && self.certify != CertifyRule::AlwaysPass
        {
            emit(
                Severity::Warning,
                "W-OVERCERTIFY",
                format!(
                    "criterion {:?} never requires certification, yet certify = {:?} \
                     will abort transactions the claim permits",
                    self.criterion, self.certify
                ),
                "§7: RC commits with a trivially passing certification",
            );
        }

        out
    }

    /// Whether a crashed replica of this assembly may restart: the
    /// crash–recovery support matrix (DESIGN.md §3.7) as one predicate.
    ///
    /// §5.3 makes Algorithm 4's state durable by logging, so 2PC and Paxos
    /// Commit replicas recover from their write-ahead log, a peer catch-up
    /// and resubmission. Commitment by group communication leaves fault
    /// tolerance to the ordering layer, and ours has none: a restarted
    /// member cannot re-enter the delivery order. `Replica::on_restart` and
    /// the chaos harness refuse with this diagnostic instead of diverging.
    pub fn recovery_support(&self) -> Result<(), Diagnostic> {
        let Some(xcast) = self.group_communication() else {
            return Ok(());
        };
        Err(Diagnostic {
            severity: Severity::Error,
            code: "E-RECOVERY-GC",
            message: format!(
                "'{}' commits by group communication ({xcast}), which has no rejoin here: \
                 fixed-sequencer AB-Cast does not retransmit the sequences a restarted \
                 member missed and Skeen does not recover its proposals, so the replica \
                 cannot re-enter the delivery order",
                self.name
            ),
            citation: "§5.3: Algorithm 4 logs its state; Algorithm 3 relies on the fault \
                       tolerance of its group-communication layer",
        })
    }

    /// Like [`validate`](ProtocolSpec::validate), but panics with a
    /// readable report when any [`Severity::Error`] diagnostic fires.
    /// Deployment entry points call this so a misassembled protocol fails
    /// fast instead of producing corrupt histories.
    pub fn validate_strict(&self, placement: &Placement) {
        let diags = self.validate(placement);
        let errors: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        if !errors.is_empty() {
            let report: Vec<String> = errors.iter().map(|d| format!("  {d}")).collect();
            panic!(
                "protocol spec '{}' failed static validation with {} error(s):\n{}",
                self.name,
                errors.len(),
                report.join("\n")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommitmentKind, CommuteRule, PostCommitRule};

    fn jessy_like() -> ProtocolSpec {
        ProtocolSpec {
            name: "jessy-like",
            criterion: Criterion::Nmsi,
            versioning: Mechanism::Pdv,
            choose: ChooseRule::Consistent,
            commitment: CommitmentKind::TwoPhaseCommit,
            certifying_obj: CertifyingObjRule::WriteSetIfUpdate,
            commute: CommuteRule::WriteWriteDisjoint,
            certify: CertifyRule::WriteSetCurrent,
            votes: VoteRule::Distributed,
            post_commit: PostCommitRule::Nothing,
        }
    }

    fn errors(spec: &ProtocolSpec) -> Vec<&'static str> {
        spec.validate(&Placement::disaster_tolerant(3))
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn sound_spec_is_clean() {
        assert!(errors(&jessy_like()).is_empty());
    }

    #[test]
    fn scalar_consistent_snapshots_rejected() {
        let mut s = jessy_like();
        s.versioning = Mechanism::Ts;
        assert!(errors(&s).contains(&"CS-SCALAR"));
    }

    #[test]
    fn every_diagnostic_has_a_citation() {
        let mut s = jessy_like();
        s.versioning = Mechanism::Ts;
        s.certify = CertifyRule::AlwaysPass;
        for d in s.validate(&Placement::disaster_prone(2)) {
            assert!(!d.citation.is_empty(), "{} lacks a citation", d.code);
            assert!(
                d.citation.contains('§'),
                "{} cites nothing: {}",
                d.code,
                d.citation
            );
        }
    }

    #[test]
    fn only_logged_commitment_supports_a_restart() {
        let mut s = jessy_like();
        assert_eq!(s.recovery_support(), Ok(()));
        s.commitment = CommitmentKind::PaxosCommit;
        assert_eq!(s.recovery_support(), Ok(()));
        for xcast in [XcastKind::AbCast, XcastKind::AmCast, XcastKind::AmPwCast] {
            s.commitment = CommitmentKind::GroupCommunication { xcast };
            let refusal = s.recovery_support().expect_err("no rejoin");
            assert_eq!(refusal.code, "E-RECOVERY-GC");
            assert!(refusal.citation.contains("§5.3"));
        }
    }

    #[test]
    fn strict_validation_panics_with_report() {
        let mut s = jessy_like();
        s.certify = CertifyRule::AlwaysPass; // SI-WRITE-CERT
        let err = std::panic::catch_unwind(|| {
            s.validate_strict(&Placement::disaster_prone(2));
        })
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(
            msg.contains("SI-WRITE-CERT"),
            "report names the rule: {msg}"
        );
    }
}
