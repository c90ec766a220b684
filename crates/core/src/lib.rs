//! # gdur-core — the G-DUR middleware
//!
//! A generic, tailorable implementation of Deferred Update Replication,
//! reproducing the middleware of *"G-DUR: A Middleware for Assembling,
//! Analyzing, and Improving Transactional Protocols"* (Middleware 2014).
//!
//! A transactional protocol is assembled by picking plug-in values for the
//! realization points of the paper's generic algorithms:
//!
//! * **Execution protocol** (Algorithm 1) — [`ChooseRule`] selects versions
//!   under a versioning [`Mechanism`](gdur_versioning::Mechanism); remote
//!   reads carry the [`Snapshot`] context.
//! * **Termination protocol** (Algorithm 2) — [`CertifyingObjRule`] decides
//!   who synchronizes; [`CommitmentKind`] picks atomic commitment by group
//!   communication (Algorithm 3), two-phase commit (Algorithm 4) or Paxos
//!   Commit; [`CommuteRule`] and [`CertifyRule`] govern certification;
//!   [`PostCommitRule`] hooks background work such as Walter's stamp
//!   propagation.
//!
//! The protocol library mirroring the paper's Algorithms 5–10 lives in
//! `gdur-protocols`; deployments are assembled by `gdur-harness`.

mod certifier;
mod client;
mod cluster;
mod lint;
mod messages;
mod node;
mod pool;
mod replica;
mod spec;
mod txn;

pub use client::TxnRecord;
pub use cluster::{Cluster, ClusterConfig};
pub use gdur_obs::AbortCause;
pub use lint::{Diagnostic, Severity};
pub use messages::{CatchupSummary, ClientOp, ClientReply, Msg, PayloadBody, TermPayload};
pub use node::Node;
pub use pool::{ClientPool, PoolCounts, PooledTx};
pub use replica::{
    InstallEvent, LoggedSet, OutcomeLog, Reads, Replica, ReplicaConfig, ReplicaStats, TxnOutcome,
    Writes,
};
pub use spec::{
    CertifyRule, CertifyingObjRule, ChooseRule, CommitmentKind, CommuteRule, CostModel, Criterion,
    PostCommitRule, ProtocolSpec, VoteRule,
};
pub use txn::{PlanOp, ReadEntry, ScriptSource, Snapshot, TxSource, TxnPlan, WriteEntry};
