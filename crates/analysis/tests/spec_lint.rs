//! Spec-linter coverage: every shipped constructor must validate cleanly,
//! and flipping any single plug-in axis of P-Store or Walter into an
//! unsound position must surface the documented diagnostic.

use gdur_core::{
    CertifyRule, CertifyingObjRule, ChooseRule, CommitmentKind, Criterion, ProtocolSpec, Severity,
    VoteRule,
};
use gdur_gc::XcastKind;
use gdur_store::Placement;
use gdur_versioning::Mechanism;

fn error_codes(spec: &ProtocolSpec, placement: &Placement) -> Vec<&'static str> {
    spec.validate(placement)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

#[test]
fn every_shipped_constructor_validates_cleanly() {
    for placement in [
        Placement::disaster_prone(3),
        Placement::disaster_tolerant(3),
    ] {
        for spec in gdur_protocols::all_protocols() {
            let errs = error_codes(&spec, &placement);
            assert!(
                errs.is_empty(),
                "{} must assemble soundly, got {errs:?}",
                spec.name
            );
        }
    }
}

#[test]
fn ablation_variants_trip_only_warnings() {
    // GMU* ships multi-dimensional stamps that choose_last ignores (§8.3);
    // the linter must call that out without rejecting the assembly.
    let diags = gdur_protocols::gmu_star().validate(&Placement::disaster_prone(3));
    assert!(
        diags.iter().any(|d| d.code == "W-METADATA-UNUSED"),
        "{diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.severity == Severity::Warning),
        "{diags:?}"
    );
}

/// Asserts that the mutated spec produces exactly the expected error code
/// (among possibly others caused by the same flip).
fn assert_flags(spec: ProtocolSpec, placement: &Placement, code: &str) {
    let errs = error_codes(&spec, placement);
    assert!(
        errs.contains(&code),
        "{} mutation should flag {code}, got {errs:?}",
        spec.name
    );
}

mod p_store_mutations {
    use super::*;

    fn dp() -> Placement {
        Placement::disaster_prone(3)
    }

    #[test]
    fn dropping_read_certification_breaks_ser() {
        let mut s = gdur_protocols::p_store();
        s.certify = CertifyRule::WriteSetCurrent;
        assert_flags(s, &dp(), "SER-READ-CERT");
    }

    #[test]
    fn certifying_only_writes_starves_the_read_check() {
        let mut s = gdur_protocols::p_store();
        s.certifying_obj = CertifyingObjRule::WriteSet;
        assert_flags(s, &dp(), "CERT-OBJ-MISMATCH");
    }

    #[test]
    fn consistent_snapshots_need_vector_stamps() {
        let mut s = gdur_protocols::p_store();
        s.choose = ChooseRule::Consistent;
        assert_flags(s, &dp(), "CS-SCALAR");
    }

    #[test]
    fn waiving_query_certification_breaks_ser_wfq() {
        let mut s = gdur_protocols::p_store();
        s.certifying_obj = CertifyingObjRule::ReadWriteSetIfUpdate;
        assert_flags(s, &dp(), "WFQ-SER");
    }

    #[test]
    fn local_decisions_need_a_total_order() {
        let mut s = gdur_protocols::p_store();
        s.votes = VoteRule::LocalDecide;
        assert_flags(s, &dp(), "LOCAL-DECIDE-ORDER");
    }

    #[test]
    fn genuine_amcast_cannot_feed_a_replicated_table() {
        let mut s = gdur_protocols::p_store();
        s.certifying_obj = CertifyingObjRule::AllObjects;
        assert_flags(s, &dp(), "AMCAST-ALL-OBJECTS");
    }

    #[test]
    fn unordered_multicast_quorums_need_unreplicated_partitions() {
        let mut s = gdur_protocols::p_store();
        s.commitment = CommitmentKind::GroupCommunication {
            xcast: XcastKind::Multicast,
        };
        // Sound under DP (replication degree 1)…
        assert!(!error_codes(&s, &dp()).contains(&"QUORUM-UNORDERED"));
        // …but unsound the moment the placement replicates partitions.
        assert_flags(s, &Placement::disaster_tolerant(3), "QUORUM-UNORDERED");
    }
}

mod walter_mutations {
    use super::*;

    fn dp() -> Placement {
        Placement::disaster_prone(3)
    }

    #[test]
    fn psi_reads_need_consistent_snapshots() {
        let mut s = gdur_protocols::walter();
        s.choose = ChooseRule::Last;
        assert_flags(s, &dp(), "SNAPSHOT-READS");
    }

    #[test]
    fn psi_needs_write_write_certification() {
        let mut s = gdur_protocols::walter();
        s.certify = CertifyRule::AlwaysPass;
        assert_flags(s, &dp(), "SI-WRITE-CERT");
    }

    #[test]
    fn scalar_stamps_cannot_assemble_walter_snapshots() {
        let mut s = gdur_protocols::walter();
        s.versioning = Mechanism::Ts;
        assert_flags(s, &dp(), "CS-SCALAR");
    }

    #[test]
    fn certifying_nothing_never_runs_the_check() {
        let mut s = gdur_protocols::walter();
        s.certifying_obj = CertifyingObjRule::Nothing;
        assert_flags(s, &dp(), "CERT-OBJ-MISMATCH");
    }

    #[test]
    fn downgrading_the_claim_to_rc_warns_about_overcertification() {
        let mut s = gdur_protocols::walter();
        s.criterion = Criterion::Rc;
        s.choose = ChooseRule::Last; // RC has no snapshot obligation
        let diags = s.validate(&dp());
        assert!(diags.iter().any(|d| d.code == "W-OVERCERTIFY"), "{diags:?}");
        assert!(
            !diags.iter().any(|d| d.severity == Severity::Error),
            "weakening the claim is sound: {diags:?}"
        );
    }
}
