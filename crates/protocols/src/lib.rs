//! # gdur-protocols — the protocol library (§6 of the paper)
//!
//! Each function below realizes one published DUR protocol by picking
//! plug-in values for G-DUR's realization points, mirroring the paper's
//! Algorithms 5–10 almost token for token. The point of the middleware is
//! that each of these is a handful of declarative lines — compare the
//! `table2` module, which reproduces the paper's source-lines-of-code
//! comparison against the monolithic originals.
//!
//! | protocol | criterion | Θ | choose | AC | certifying | certify |
//! |---|---|---|---|---|---|---|
//! | [`p_store`] | SER | TS | last | AM-Cast | rs∪ws | rs current |
//! | [`s_dur`] | SER | VTS | cons | AMpw-Cast | rs∪ws (upd) | rs current |
//! | [`gmu`] | US | GMV | cons | 2PC | rs∪ws (upd) | rs current |
//! | [`serrano`] | SI | TS | cons | AB-Cast | all (upd) | ws current |
//! | [`walter`] | PSI | VTS | cons | 2PC | ws (upd) | ws current |
//! | [`jessy_2pc`] | NMSI | PDV | cons | 2PC | ws (upd) | ws current |
//! | [`read_committed`] | RC | TS | last | 2PC | ws (upd) | always |
//!
//! The §8.3–§8.5 study variants are here too: [`gmu_star`] / [`gmu_star_star`]
//! (bottleneck ablations), [`p_store_la`] (locality-aware P-Store),
//! [`p_store_2pc`] (the dependability comparison of Figure 6), and
//! [`p_store_paxos`] (the Paxos Commit realization the paper elides).

use gdur_core::{
    CertifyRule, CertifyingObjRule, ChooseRule, CommitmentKind, CommuteRule, Criterion,
    PostCommitRule, ProtocolSpec, VoteRule,
};
use gdur_gc::XcastKind;
use gdur_versioning::Mechanism;

/// P-Store (Algorithm 5) — genuine partial replication under SER.
///
/// Timestamp versioning, `choose_last`, genuine atomic multicast, and
/// certification of **both** queries and updates over `rs ∪ ws`: queries
/// are not wait-free, the cost Figure 3-a exposes at 90% read-only load.
pub fn p_store() -> ProtocolSpec {
    ProtocolSpec {
        name: "P-Store",
        criterion: Criterion::Ser,
        versioning: Mechanism::Ts, // line 1: Θ ≡ TS
        choose: ChooseRule::Last,  // line 2: choose ≡ choose_last
        commitment: CommitmentKind::GroupCommunication {
            // line 3: AC ≡ gc
            xcast: XcastKind::AmCast, // line 4: xcast ≡ AM-Cast
        },
        certifying_obj: CertifyingObjRule::ReadWriteSet, // line 5: ws ∪ rs
        commute: CommuteRule::ReadWriteDisjoint,         // line 6
        certify: CertifyRule::ReadSetCurrent,            // line 7
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::Nothing,
    }
}

/// S-DUR (Algorithm 6) — SER with wait-free queries via pairwise-ordered
/// multicast and consistent snapshots, at the price of background stamp
/// propagation (no GPR system under SER can ensure WFQ).
pub fn s_dur() -> ProtocolSpec {
    ProtocolSpec {
        name: "S-DUR",
        criterion: Criterion::Ser,
        versioning: Mechanism::Vts,     // line 1: Θ ≡ VTS
        choose: ChooseRule::Consistent, // line 2: choose ≡ choose_cons
        commitment: CommitmentKind::GroupCommunication {
            // line 3: AC ≡ gc
            xcast: XcastKind::AmPwCast, // line 4: xcast ≡ AMpw-Cast
        },
        certifying_obj: CertifyingObjRule::ReadWriteSetIfUpdate, // line 5
        commute: CommuteRule::ReadWriteDisjoint,                 // line 6
        certify: CertifyRule::ReadSetCurrent,                    // line 7
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::PropagateStamps, // line 8: M-Cast Θ(Ti)
    }
}

/// GMU (Algorithm 7) — genuine multiversion update-serializable
/// replication: wait-free queries on fresh consistent snapshots, 2PC over
/// the replicas of `rs ∪ ws`.
pub fn gmu() -> ProtocolSpec {
    ProtocolSpec {
        name: "GMU",
        criterion: Criterion::Us,
        versioning: Mechanism::Gmv,                 // line 1: Θ ≡ GMV
        choose: ChooseRule::Consistent,             // line 2: choose ≡ choose_cons
        commitment: CommitmentKind::TwoPhaseCommit, // line 3: AC ≡ 2pc
        certifying_obj: CertifyingObjRule::ReadWriteSetIfUpdate, // line 4
        commute: CommuteRule::ReadWriteDisjoint,    // line 5
        certify: CertifyRule::ReadSetCurrent,       // line 6
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::Nothing,
    }
}

/// Serrano (Algorithm 8) — non-genuine partial replication under SI:
/// update transactions are atomic-broadcast to every replica, which
/// certifies write-write conflicts against a replicated version table and
/// decides locally, skipping the distributed voting phase.
pub fn serrano() -> ProtocolSpec {
    ProtocolSpec {
        name: "Serrano",
        criterion: Criterion::Si,
        versioning: Mechanism::Ts,      // line 2: Θ ≡ TS
        choose: ChooseRule::Consistent, // line 1: choose ≡ choose_cons
        commitment: CommitmentKind::GroupCommunication {
            // line 3: AC ≡ gc
            xcast: XcastKind::AbCast, // line 4: xcast ≡ AB-Cast
        },
        certifying_obj: CertifyingObjRule::AllObjects, // line 5: Objects
        commute: CommuteRule::WriteWriteDisjoint,      // line 6
        certify: CertifyRule::WriteSetCurrent,         // line 7
        votes: VoteRule::LocalDecide,                  // line 8: LocalObjects
        post_commit: PostCommitRule::Nothing,
    }
}

/// Walter (Algorithm 9) — PSI for geo-replicated systems: 2PC over the
/// written objects only, write-write certification, and background
/// propagation of vector timestamps to all replicas.
pub fn walter() -> ProtocolSpec {
    ProtocolSpec {
        name: "Walter",
        criterion: Criterion::Psi,
        versioning: Mechanism::Vts,                 // line 2: Θ ≡ VTS
        choose: ChooseRule::Consistent,             // line 1: choose ≡ choose_cons
        commitment: CommitmentKind::TwoPhaseCommit, // line 3: AC ≡ 2pc
        certifying_obj: CertifyingObjRule::WriteSetIfUpdate, // line 4: ws
        commute: CommuteRule::WriteWriteDisjoint,   // line 5
        certify: CertifyRule::WriteSetCurrent,      // line 6
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::PropagateStamps, // line 7: M-Cast Θ(Ti)
    }
}

/// Jessy2pc (Algorithm 10) — NMSI: partitioned dependence vectors give
/// consistent (possibly non-monotonic) snapshots with **no** background
/// propagation; 2PC over written objects only. The only protocol of the
/// six that is both genuine and wait-free for queries.
pub fn jessy_2pc() -> ProtocolSpec {
    ProtocolSpec {
        name: "Jessy2pc",
        criterion: Criterion::Nmsi,
        versioning: Mechanism::Pdv,                 // line 2: Θ ≡ PDV
        choose: ChooseRule::Consistent,             // line 1: choose ≡ choose_cons
        commitment: CommitmentKind::TwoPhaseCommit, // line 3: AC ≡ 2pc
        certifying_obj: CertifyingObjRule::WriteSetIfUpdate, // line 4: ws
        commute: CommuteRule::WriteWriteDisjoint,   // line 5
        certify: CertifyRule::WriteSetCurrent,      // line 6
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::Nothing,
    }
}

/// Read Committed (§7) — the weak-consistency baseline: reads see any
/// committed version, updates propagate to the write set's replicas with a
/// trivially passing certification. Shows the maximum achievable
/// performance of the middleware.
pub fn read_committed() -> ProtocolSpec {
    ProtocolSpec {
        name: "RC",
        criterion: Criterion::Rc,
        versioning: Mechanism::Ts,
        choose: ChooseRule::Last,
        commitment: CommitmentKind::TwoPhaseCommit,
        certifying_obj: CertifyingObjRule::WriteSetIfUpdate,
        commute: CommuteRule::Always,
        certify: CertifyRule::AlwaysPass,
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::Nothing,
    }
}

/// GMU* (§8.3) — GMU with the consistent-snapshot component replaced by
/// `choose_last`. The snapshot **metadata is still computed and shipped**
/// during execution (same GMV vectors on the wire), isolating the cost of
/// version selection from the cost of metadata.
pub fn gmu_star() -> ProtocolSpec {
    ProtocolSpec {
        name: "GMU*",
        criterion: Criterion::Rc,
        choose: ChooseRule::Last,
        ..gmu()
    }
}

/// GMU** (§8.3) — GMU* with certification turned off as well: every
/// transaction passes. What remains versus RC is the marshaling of GMV
/// metadata — the gap visible in Figure 4.
pub fn gmu_star_star() -> ProtocolSpec {
    ProtocolSpec {
        name: "GMU**",
        criterion: Criterion::Rc,
        choose: ChooseRule::Last,
        certify: CertifyRule::AlwaysPass,
        commute: CommuteRule::Always,
        ..gmu()
    }
}

/// P-Store-la (§8.4) — the locality-aware P-Store variant built by
/// replacing two plug-ins: reads take consistent snapshots via PDV, and
/// `certifying_obj` returns `∅` for queries that touched a single
/// (coordinator-local) partition, letting them commit without the
/// AM-Cast + certification round.
pub fn p_store_la() -> ProtocolSpec {
    ProtocolSpec {
        name: "P-Store-la",
        criterion: Criterion::Ser,
        versioning: Mechanism::Pdv,
        choose: ChooseRule::Consistent,
        certifying_obj: CertifyingObjRule::ReadWriteSetUnlessLocalQuery,
        ..p_store()
    }
}

/// SER + 2PC (§8.5) — P-Store with its atomic commitment swapped from
/// AM-Cast to two-phase commit: transactions rely on the spontaneous
/// ordering of the network, trading a-priori ordering for fewer message
/// delays (and, under contention in the DT setting, many preemptive
/// aborts).
pub fn p_store_2pc() -> ProtocolSpec {
    ProtocolSpec {
        name: "P-Store-2PC",
        criterion: Criterion::Ser,
        commitment: CommitmentKind::TwoPhaseCommit,
        ..p_store()
    }
}

/// Read Atomic — the paper's conclusion names read atomicity (RAMP) as a
/// criterion it plans to support; in G-DUR it is one more plug-in mix:
/// PDV consistent snapshots keep reads unfractured, while certification
/// always passes and everything commutes — no write-write ordering, no
/// serialization, just atomic visibility of each transaction's writes.
pub fn read_atomic() -> ProtocolSpec {
    ProtocolSpec {
        name: "ReadAtomic",
        criterion: Criterion::Ra,
        versioning: Mechanism::Pdv,
        choose: ChooseRule::Consistent,
        commitment: CommitmentKind::TwoPhaseCommit,
        certifying_obj: CertifyingObjRule::WriteSetIfUpdate,
        commute: CommuteRule::Always,
        certify: CertifyRule::AlwaysPass,
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::Nothing,
    }
}

/// SER + AB-Cast — P-Store with its genuine multicast swapped for uniform
/// atomic broadcast: non-genuine, but its quorum-based delivery and
/// one-vote-per-object quorums keep commitment live under `f < n/2` crashed
/// replicas (§5.3), unlike 2PC which blocks until recovery.
pub fn p_store_ab() -> ProtocolSpec {
    ProtocolSpec {
        name: "P-Store-AB",
        criterion: Criterion::Ser,
        commitment: CommitmentKind::GroupCommunication {
            xcast: XcastKind::AbCast,
        },
        ..p_store()
    }
}

/// SER + Paxos Commit — the third commitment realization of §5, elided in
/// the paper for space: Gray and Lamport's algorithm, 2PC in which each
/// vote is chosen by a majority of acceptors, one per site, before the
/// coordinator counts it. The voter's and the coordinator's acceptors
/// accept a vote on its way, so at three sites only the coordinator's own
/// vote waits for a phase 2b, and an update terminates at 2PC's latency.
pub fn p_store_paxos() -> ProtocolSpec {
    ProtocolSpec {
        name: "P-Store-Paxos",
        criterion: Criterion::Ser,
        commitment: CommitmentKind::PaxosCommit,
        ..p_store()
    }
}

/// The six protocols compared in §8.2, plus the RC baseline, in the
/// paper's plotting order.
pub fn comparison_set() -> Vec<ProtocolSpec> {
    vec![
        serrano(),
        read_committed(),
        p_store(),
        walter(),
        gmu(),
        s_dur(),
        jessy_2pc(),
    ]
}

/// All protocols and variants exposed by this library.
pub fn all_protocols() -> Vec<ProtocolSpec> {
    let mut v = comparison_set();
    v.extend([
        gmu_star(),
        gmu_star_star(),
        p_store_la(),
        p_store_2pc(),
        p_store_ab(),
        p_store_paxos(),
        read_atomic(),
    ]);
    v
}

/// Looks a protocol up by its display name.
pub fn by_name(name: &str) -> Option<ProtocolSpec> {
    all_protocols().into_iter().find(|p| p.name == name)
}

pub mod table2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_property_matrix() {
        // Genuineness (footnote 1 / §6): P-Store, GMU, Jessy are genuine;
        // Serrano, Walter, S-DUR are not.
        assert!(p_store().is_genuine());
        assert!(gmu().is_genuine());
        assert!(jessy_2pc().is_genuine());
        assert!(!serrano().is_genuine());
        assert!(!walter().is_genuine());
        assert!(!s_dur().is_genuine());

        // Wait-free queries (§6.1): everyone except P-Store.
        assert!(!p_store().wait_free_queries());
        for p in [
            s_dur(),
            gmu(),
            serrano(),
            walter(),
            jessy_2pc(),
            read_committed(),
        ] {
            assert!(p.wait_free_queries(), "{} must have WFQ", p.name);
        }
    }

    #[test]
    fn versioning_mechanisms_match_algorithms() {
        assert_eq!(p_store().versioning, Mechanism::Ts);
        assert_eq!(s_dur().versioning, Mechanism::Vts);
        assert_eq!(gmu().versioning, Mechanism::Gmv);
        assert_eq!(walter().versioning, Mechanism::Vts);
        assert_eq!(jessy_2pc().versioning, Mechanism::Pdv);
    }

    #[test]
    fn ablations_differ_only_in_the_stated_plugins() {
        let g = gmu();
        let g1 = gmu_star();
        assert_eq!(g1.versioning, g.versioning, "metadata unchanged");
        assert_ne!(g1.choose, g.choose);
        assert_eq!(g1.certify, g.certify);
        let g2 = gmu_star_star();
        assert_eq!(g2.versioning, g.versioning);
        assert_eq!(g2.certify, CertifyRule::AlwaysPass);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("Walter").unwrap().name, "Walter");
        assert_eq!(by_name("GMU**").unwrap().certify, CertifyRule::AlwaysPass);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn comparison_set_has_seven_curves() {
        let names: Vec<_> = comparison_set().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["Serrano", "RC", "P-Store", "Walter", "GMU", "S-DUR", "Jessy2pc"]
        );
    }
}
