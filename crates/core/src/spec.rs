//! [`ProtocolSpec`]: the realization points of the generic DUR algorithms.
//!
//! The paper's key insight (§3) is that DUR protocols differ only in a few
//! generic functions, underlined in Algorithms 1–4: `choose`,
//! `certifying_obj`, `commute`, `certify`, `vote_snd_obj`, `vote_recv_obj`,
//! the atomic-commitment algorithm `AC`, the `xcast` primitive, and the
//! `post_commit`/`post_abort` hooks. A protocol *is* a value of
//! [`ProtocolSpec`]; the protocol library in `gdur-protocols` mirrors the
//! paper's Algorithms 5–10 as ten-line constructor functions.

use gdur_gc::XcastKind;
use gdur_sim::SimDuration;
use gdur_versioning::Mechanism;

/// The consistency criteria of the paper (§2, Table 2), as *claims*: every
/// [`ProtocolSpec`] names the criterion it promises, the static linter
/// ([`ProtocolSpec::validate`]) checks the plug-in mix can deliver it, and
/// the `gdur-consistency` oracle checks executions against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// Serializability (P-Store, S-DUR).
    Ser,
    /// Update serializability (GMU).
    Us,
    /// Snapshot isolation (Serrano).
    Si,
    /// Parallel snapshot isolation (Walter).
    Psi,
    /// Non-monotonic snapshot isolation (Jessy2pc).
    Nmsi,
    /// Read committed (the RC baseline).
    Rc,
    /// Read atomicity (RAMP-style, the paper's future-work criterion):
    /// committed reads plus freedom from fractured reads, with no
    /// write-write or serialization guarantees.
    Ra,
}

/// Realization of `choose` (§4.2): which version a read returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChooseRule {
    /// `choose_last`: the most recent committed version.
    Last,
    /// `choose_cons`: the latest version forming a consistent snapshot with
    /// the transaction's previous reads, per the mechanism's compatibility
    /// test (fixed snapshot for VTS, greedy for GMV/PDV).
    Consistent,
}

/// Realization of `certifying_obj` (Algorithm 2, line 11): which objects a
/// transaction must synchronize on at termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertifyingObjRule {
    /// `∅` — commit locally without synchronization.
    Nothing,
    /// `ws(T)` for every transaction.
    WriteSet,
    /// `rs(T) ∪ ws(T)` for every transaction (P-Store certifies queries!).
    ReadWriteSet,
    /// `ws(T)`, or `∅` when the transaction is read-only (wait-free
    /// queries).
    WriteSetIfUpdate,
    /// `rs(T) ∪ ws(T)`, or `∅` when read-only.
    ReadWriteSetIfUpdate,
    /// All objects: every replica participates (Serrano).
    AllObjects,
    /// P-Store-la (§8.4): `∅` for a read-only transaction whose accesses
    /// all fall in partitions local to the coordinator's site; otherwise
    /// `rs(T) ∪ ws(T)`.
    ReadWriteSetUnlessLocalQuery,
}

/// Realization of `commute` (Algorithm 3 line 3 / Algorithm 4 line 3): when
/// two submitted transactions may certify independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommuteRule {
    /// `rs(Ti)∩ws(Tj) = ∅ ∧ rs(Tj)∩ws(Ti) = ∅` — the serializability
    /// conflict relation (P-Store, S-DUR, GMU).
    ReadWriteDisjoint,
    /// `ws(Ti)∩ws(Tj) = ∅` — the snapshot-isolation family conflict
    /// relation (Serrano, Walter, Jessy).
    WriteWriteDisjoint,
    /// Everything commutes — no queuing, no preemption (RC, ablations).
    Always,
}

/// Realization of `certify`: the version check a voting replica runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertifyRule {
    /// Every transaction passes (RC, the GMU** ablation).
    AlwaysPass,
    /// `∀x ∈ rs(T): Θ(latest(x)) ≤ Θ(x_read)` — the read versions are
    /// still current (SER/US family).
    ReadSetCurrent,
    /// `∀x ∈ ws(T): Θ(latest(x)) ≤ Θ(x_base)` — no concurrent committed
    /// write-write conflict (SI/PSI/NMSI family).
    WriteSetCurrent,
}

/// Realization of `vote_snd_obj` / `vote_recv_obj` (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoteRule {
    /// `vote_snd_obj = certifying_obj`, `vote_recv_obj = ws` — the default
    /// distributed voting of Figure 2.
    Distributed,
    /// Serrano: both equal the local objects — every replica certifies
    /// against a replicated version table and decides locally, with no vote
    /// exchange at all.
    LocalDecide,
}

/// The atomic-commitment algorithm `AC` (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitmentKind {
    /// Algorithm 3: ordered delivery via group communication, distributed
    /// votes, decide locally; transactions commit at the head of `Q`.
    GroupCommunication {
        /// The `xcast` primitive propagating submitted transactions.
        xcast: XcastKind,
    },
    /// Algorithm 4: plain multicast, votes to the coordinator, preemptive
    /// abort of transactions that do not commute with a queued one.
    TwoPhaseCommit,
    /// Paxos Commit (§5, third realization; Gray and Lamport): like 2PC,
    /// but the coordinator counts a vote once a majority of acceptors, one
    /// per site, has accepted it. The voter's and the coordinator's
    /// acceptors accept it on its way; where they are no majority the voter
    /// sends phase 2a to the others beside its vote.
    PaxosCommit,
}

/// The `post_commit` hook (Algorithm 2, line 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostCommitRule {
    /// No post-commit work.
    Nothing,
    /// Walter / S-DUR background propagation: after applying a
    /// transaction, the primary replica of each written partition sends the
    /// advanced vector entry to all replicas, keeping begin-snapshots
    /// fresh. The load of this hook scales with the update rate — the
    /// non-genuineness cost §8.2 measures.
    PropagateStamps,
}

/// CPU service-time model for a replica, in virtual time.
///
/// The defaults are calibrated so a 4-core replica saturates in the
/// 5–8 ktps range on the paper's workloads, matching the order of
/// magnitude of its Grid'5000 machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost of handling any message.
    pub per_message: SimDuration,
    /// Cost of a local read (version lookup + copy).
    pub per_read: SimDuration,
    /// Cost of applying one after-value.
    pub per_apply: SimDuration,
    /// Base cost of running a certification check.
    pub per_certify: SimDuration,
    /// Additional certification cost per read/write-set entry.
    pub per_certify_item: SimDuration,
    /// Marshaling cost per 8-byte stamp entry carried by a message
    /// (the metadata overhead isolated by the GMU**-vs-RC gap in Fig. 4).
    pub per_stamp_entry: SimDuration,
    /// Deserialization cost per received kilobyte (payload-size dependent;
    /// after-values and vector metadata both pay it).
    pub per_recv_kb: SimDuration,
    /// Cost of one durable log append (only paid when the persistence
    /// layer is attached).
    pub per_log_append: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_message: SimDuration::from_micros(50),
            per_read: SimDuration::from_micros(80),
            per_apply: SimDuration::from_micros(80),
            per_certify: SimDuration::from_micros(40),
            per_certify_item: SimDuration::from_micros(5),
            per_stamp_entry: SimDuration::from_micros(2),
            per_recv_kb: SimDuration::from_micros(50),
            per_log_append: SimDuration::from_micros(40),
        }
    }
}

/// A fully realized DUR protocol: the paper's Algorithms 5–10 are values of
/// this type (see `gdur-protocols`).
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Human-readable protocol name (e.g. `"P-Store"`).
    pub name: &'static str,
    /// The consistency criterion this assembly claims to implement; the
    /// spec linter checks the plug-ins against it, the history oracle
    /// checks executions against it.
    pub criterion: Criterion,
    /// Versioning mechanism Θ (§4.1).
    pub versioning: Mechanism,
    /// Version-selection rule (§4.2).
    pub choose: ChooseRule,
    /// Atomic-commitment algorithm (§5).
    pub commitment: CommitmentKind,
    /// Objects requiring synchronization at termination.
    pub certifying_obj: CertifyingObjRule,
    /// Commutativity relation used during certification queuing.
    pub commute: CommuteRule,
    /// The certification version check.
    pub certify: CertifyRule,
    /// Vote routing.
    pub votes: VoteRule,
    /// Post-commit hook.
    pub post_commit: PostCommitRule,
}

impl ProtocolSpec {
    /// True when this protocol is *genuine* (footnote 1): only replicas of
    /// objects accessed by a transaction take steps for it.
    pub fn is_genuine(&self) -> bool {
        let broadcast = matches!(
            self.commitment,
            CommitmentKind::GroupCommunication {
                xcast: XcastKind::AbCast
            }
        ) || matches!(self.certifying_obj, CertifyingObjRule::AllObjects);
        !broadcast && self.post_commit == PostCommitRule::Nothing
    }

    /// The `xcast` primitive, if commitment is by group communication
    /// (Algorithm 3: the votes decide, at every participant); `None` under
    /// 2PC and Paxos Commit, where the coordinator owns the decision.
    pub fn group_communication(&self) -> Option<XcastKind> {
        match self.commitment {
            CommitmentKind::GroupCommunication { xcast } => Some(xcast),
            CommitmentKind::TwoPhaseCommit | CommitmentKind::PaxosCommit => None,
        }
    }

    /// True when certification orders conflicting writes, so the replicas
    /// of a partition install every object's versions in one order and end
    /// a drained run with identical stores. Under a trivially passing
    /// certification (RC, GMU**, ReadAtomic) concurrent writers of one
    /// object all commit and each replica installs them in arrival order:
    /// store convergence is not a property of such an assembly.
    pub fn orders_write_conflicts(&self) -> bool {
        self.certify != CertifyRule::AlwaysPass
    }

    /// True when queries (read-only transactions) terminate without
    /// synchronization — the wait-free-queries property of §6.1.
    pub fn wait_free_queries(&self) -> bool {
        matches!(
            self.certifying_obj,
            CertifyingObjRule::Nothing
                | CertifyingObjRule::WriteSetIfUpdate
                | CertifyingObjRule::ReadWriteSetIfUpdate
                | CertifyingObjRule::AllObjects // ∅ when read-only (Alg. 8 l. 5)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ProtocolSpec {
        ProtocolSpec {
            name: "test",
            criterion: Criterion::Nmsi,
            versioning: Mechanism::Ts,
            choose: ChooseRule::Last,
            commitment: CommitmentKind::TwoPhaseCommit,
            certifying_obj: CertifyingObjRule::WriteSetIfUpdate,
            commute: CommuteRule::WriteWriteDisjoint,
            certify: CertifyRule::WriteSetCurrent,
            votes: VoteRule::Distributed,
            post_commit: PostCommitRule::Nothing,
        }
    }

    #[test]
    fn genuineness_classification() {
        let jessy_like = base();
        assert!(jessy_like.is_genuine());

        let mut serrano_like = base();
        serrano_like.commitment = CommitmentKind::GroupCommunication {
            xcast: XcastKind::AbCast,
        };
        serrano_like.certifying_obj = CertifyingObjRule::AllObjects;
        assert!(!serrano_like.is_genuine());

        let mut walter_like = base();
        walter_like.post_commit = PostCommitRule::PropagateStamps;
        assert!(!walter_like.is_genuine());
    }

    #[test]
    fn wait_free_query_classification() {
        assert!(base().wait_free_queries());
        let mut pstore_like = base();
        pstore_like.certifying_obj = CertifyingObjRule::ReadWriteSet;
        assert!(
            !pstore_like.wait_free_queries(),
            "P-Store certifies queries"
        );
    }

    #[test]
    fn default_costs_are_microsecond_scale() {
        let c = CostModel::default();
        assert!(c.per_read >= SimDuration::from_micros(1));
        assert!(c.per_read < SimDuration::from_millis(1));
    }
}
