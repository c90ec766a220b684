//! The wire protocol of the middleware: everything replicas and clients
//! exchange, with realistic size accounting.

use std::sync::Arc;

use gdur_gc::GcMsg;
use gdur_net::SiteId;
use gdur_obs::AbortCause;
use gdur_sim::{ProcessId, WireSize};
use gdur_store::{Key, TxId, Value};
use gdur_versioning::VersionVec;

use crate::txn::{ReadEntry, Snapshot, WriteEntry};

/// Client → coordinator operations (the begin/CRUD/commit interface of
/// Figure 1).
#[derive(Debug, Clone)]
pub enum ClientOp {
    /// Start a transaction.
    Begin,
    /// Read a key.
    Read {
        /// Key to read.
        key: Key,
    },
    /// Read-modify-write a key with a new value.
    Update {
        /// Key to update.
        key: Key,
        /// After-value to buffer.
        value: Value,
    },
    /// Submit the transaction for termination.
    Commit,
}

/// Coordinator → client replies.
#[derive(Debug, Clone)]
pub enum ClientReply {
    /// The transaction is executing.
    Began,
    /// A read completed (the value read, empty if the key is unknown).
    ReadDone {
        /// Key that was read.
        key: Key,
        /// Value observed.
        value: Value,
    },
    /// An update's read-modify-write completed.
    UpdateDone {
        /// Key that was updated.
        key: Key,
    },
    /// The transaction terminated.
    Outcome {
        /// True if the transaction committed.
        committed: bool,
        /// Why it aborted (`None` iff `committed`).
        cause: Option<AbortCause>,
    },
}

/// The termination record `xcast` to the replicas of
/// `certifying_obj(T)` (Algorithm 2, line 15).
///
/// One pointer to one immutable body, built once at `submit` (or from the
/// log's `Submit` record at a restart): fanning the payload out to many
/// replicas, Skeen's pending copy and every participation or coordinator
/// entry that keeps it bump one reference count and copy no set. Fields
/// are read through [`PayloadBody`].
#[derive(Debug, Clone)]
pub struct TermPayload(Arc<PayloadBody>);

// Every holder of a payload pays this per transaction in flight.
const _: () = assert!(std::mem::size_of::<TermPayload>() == std::mem::size_of::<usize>());

/// What a [`TermPayload`] carries; fixed at construction.
#[derive(Debug)]
pub struct PayloadBody {
    /// The terminating transaction.
    pub tx: TxId,
    /// Its coordinator (where votes/decisions flow back).
    pub coord: ProcessId,
    /// True if the transaction wrote nothing.
    pub read_only: bool,
    /// Cached wire size, re-read on every fan-out copy, send-cost charge
    /// and kernel traffic account.
    wire: u32,
    /// Read set with observed per-key versions.
    pub rs: Box<[ReadEntry]>,
    /// Write buffer with after-values and base versions.
    pub ws: Box<[WriteEntry]>,
    /// Dependency vector for commit stamping (dimension = mechanism dim).
    pub dep: VersionVec,
}

impl TermPayload {
    /// Assembles a payload, fixing its wire size once. The sets are kept
    /// right-sized: a buffer with spare capacity is shrunk to its length.
    pub fn new(
        tx: TxId,
        coord: ProcessId,
        read_only: bool,
        rs: Vec<ReadEntry>,
        ws: Vec<WriteEntry>,
        dep: VersionVec,
    ) -> Self {
        let ws_bytes: usize = ws.iter().map(|w| 16 + w.value.len()).sum();
        let wire = (32 + rs.len() * 16 + ws_bytes + dep.wire_size()) as u32;
        TermPayload(Arc::new(PayloadBody {
            tx,
            coord,
            read_only,
            wire,
            rs: rs.into_boxed_slice(),
            ws: ws.into_boxed_slice(),
            dep,
        }))
    }

    /// True if `a` and `b` are copies of one payload (one allocation).
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for TermPayload {
    type Target = PayloadBody;

    fn deref(&self) -> &PayloadBody {
        &self.0
    }
}

impl WireSize for TermPayload {
    fn wire_size(&self) -> usize {
        self.wire as usize
    }
}

/// What a restarted replica already holds, named in every catch-up request
/// so that the peer ships only what the requester lacks (§5.3 state
/// transfer): the latest sequence of each key of the requested partitions
/// written above the initial load, and the words of its decided-id bits
/// (id `tx` is bit `tx.code() & 63` of word `tx.code() >> 6`). Built once,
/// after the requester replayed its own log; every request of the transfer
/// shares it.
#[derive(Debug)]
pub struct CatchupSummary {
    /// `(key, latest sequence)`, ascending by key.
    keys: Box<[(Key, u64)]>,
    /// `(word index, word)`, ascending by index.
    decided: Box<[(u64, u64)]>,
    /// Encoded size: a varint count, then varint pairs; each word index a
    /// varint followed by its 8-byte word.
    wire: u32,
}

impl CatchupSummary {
    /// A summary of `keys` (each once) and the decided-id words `decided`
    /// (each index once), in any order.
    pub fn new(mut keys: Vec<(Key, u64)>, mut decided: Vec<(u64, u64)>) -> Self {
        use gdur_persist::codec::varint_len;
        keys.sort_unstable();
        decided.sort_unstable();
        let pairs: usize = keys
            .iter()
            .map(|(k, s)| varint_len(k.0) + varint_len(*s))
            .sum();
        let words: usize = decided.iter().map(|(i, _)| varint_len(*i) + 8).sum();
        let counts = varint_len(keys.len() as u64) + varint_len(decided.len() as u64);
        let wire = counts + pairs + words;
        CatchupSummary {
            keys: keys.into_boxed_slice(),
            decided: decided.into_boxed_slice(),
            wire: u32::try_from(wire).expect("a summary's size fits u32"),
        }
    }

    /// True unless the requester holds `key` at `seq` or above; a key the
    /// summary does not name is held at its initial load, sequence 0.
    pub fn lacks_install(&self, key: Key, seq: u64) -> bool {
        let held = match self.keys.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => self.keys[i].1,
            Err(_) => 0,
        };
        seq > held
    }

    /// True unless the requester holds a decision of `tx`.
    pub fn lacks_decision(&self, tx: TxId) -> bool {
        let (index, bit) = (tx.code() >> 6, tx.code() & 63);
        match self.decided.binary_search_by_key(&index, |(i, _)| *i) {
            Ok(i) => (self.decided[i].1 >> bit) & 1 == 0,
            Err(_) => true,
        }
    }
}

impl WireSize for CatchupSummary {
    fn wire_size(&self) -> usize {
        self.wire as usize
    }
}

/// All messages of the simulated deployment.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client operation addressed to its coordinator.
    Client {
        /// Transaction the operation belongs to.
        tx: TxId,
        /// The operation.
        op: ClientOp,
    },
    /// Coordinator reply to a client.
    Reply {
        /// Transaction the reply belongs to.
        tx: TxId,
        /// The reply.
        reply: ClientReply,
    },
    /// Remote read request (Algorithm 1, line 13): carries the snapshot
    /// context so the serving replica can run `choose` locally.
    ReadReq {
        /// Reading transaction.
        tx: TxId,
        /// Key to read.
        key: Key,
        /// The transaction's snapshot context.
        snap: Snapshot,
    },
    /// Remote read reply (Algorithm 1, line 14).
    ReadRep {
        /// Reading transaction.
        tx: TxId,
        /// Key that was read.
        key: Key,
        /// Value of the chosen version.
        value: Value,
        /// Per-key sequence of the chosen version.
        seq: u64,
        /// Wire size of the chosen version's stamp, which travels with it;
        /// the requester reads the stamp's effect from `snap`, never the
        /// stamp itself.
        stamp_bytes: u32,
        /// Updated snapshot context (greedy pins taken at the server).
        snap: Snapshot,
    },
    /// Group-communication traffic carrying termination payloads.
    Gc(GcMsg<TermPayload>),
    /// A certification vote (Algorithms 3–4).
    Vote {
        /// Transaction voted on.
        tx: TxId,
        /// True = certification succeeded at the voter.
        yes: bool,
        /// Commit-clock slots reserved by the voter for its locally hosted
        /// written partitions (vector mechanisms under voting commitment):
        /// the coordinator merges every voter's reservations into one
        /// complete commit vector, so all installs of the transaction are
        /// admitted or rejected atomically by any snapshot.
        clocks: Vec<(u32, u64)>,
    },
    /// A decision announcement (coordinator → participants).
    Decide {
        /// Decided transaction.
        tx: TxId,
        /// True = commit.
        commit: bool,
        /// The merged vote-clock reservations of every participant — the
        /// commit-vector entries all installs of this transaction carry.
        clocks: Vec<(u32, u64)>,
    },
    /// Paxos Commit's phase 2a (Gray & Lamport): a voter asks an acceptor
    /// to accept its vote, sent beside the vote when the voter's and the
    /// coordinator's acceptors are not a majority.
    PaxosAccept {
        /// Transaction voted on.
        tx: TxId,
        /// The vote to accept.
        yes: bool,
        /// The coordinator, to which the acceptor answers.
        coord: ProcessId,
    },
    /// Paxos Commit's phase 2b: an acceptor tells the coordinator that it
    /// accepted `voter`'s vote.
    PaxosAccepted {
        /// Transaction voted on.
        tx: TxId,
        /// The site whose vote was accepted.
        voter: SiteId,
        /// The accepted vote.
        yes: bool,
    },
    /// Background stamp propagation (`post_commit` of Walter/S-DUR): the
    /// primary of partition `partition` advanced to `seq`.
    Propagate {
        /// Partition whose clock advanced.
        partition: u32,
        /// New partition clock value.
        seq: u64,
    },
    /// Catch-up state transfer (§5.3 recovery): a restarted replica asks a
    /// peer for the installs of its hosted partitions and the decisions
    /// that it does not hold, paginated from the peer's log record index
    /// `from` in pages of at most `max` records.
    CatchupReq {
        /// Partitions the requester hosts and wants caught up.
        partitions: Vec<u32>,
        /// Resume index into the peer's log (0 = from the beginning).
        from: u64,
        /// Page size bound (records per reply).
        max: u32,
        /// What the requester holds: the peer skips those records.
        held: Arc<CatchupSummary>,
    },
    /// One page of catch-up state: the installs of the requested
    /// partitions and the decisions that the requester lacks, as the
    /// peer's log frames them.
    /// `next = None` marks the final page, which also carries the peer's
    /// per-partition visibility `frontier` so the requester can re-open its
    /// snapshot clock.
    CatchupRep {
        /// The page's records as a log of their own: the peer's WAL
        /// frames, in its log order.
        page: gdur_persist::Wal,
        /// Modelled size of those records, fixed when the page was built.
        records_wire: u32,
        /// Resume index for the next page; `None` = transfer complete.
        next: Option<u64>,
        /// Peer's knowledge entries for the requested partitions (final
        /// page only; empty otherwise).
        frontier: Vec<(u32, u64)>,
    },
}

// A message is boxed once at its send and moved whole into and out of the
// box, so its size is a cost on every send.
const _: () = assert!(std::mem::size_of::<Msg>() <= 144);

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        const HDR: usize = 16;
        match self {
            Msg::Client { op, .. } => {
                HDR + match op {
                    ClientOp::Begin | ClientOp::Commit => 8,
                    ClientOp::Read { .. } => 16,
                    ClientOp::Update { value, .. } => 16 + value.len(),
                }
            }
            Msg::Reply { reply, .. } => {
                HDR + match reply {
                    ClientReply::ReadDone { value, .. } => 16 + value.len(),
                    _ => 8,
                }
            }
            Msg::ReadReq { snap, .. } => HDR + 16 + snap.wire_size(),
            Msg::ReadRep {
                value,
                stamp_bytes,
                snap,
                ..
            } => HDR + 24 + value.len() + *stamp_bytes as usize + snap.wire_size(),
            Msg::Gc(m) => HDR + m.wire_size(),
            Msg::Vote { clocks, .. } => HDR + 16 + 12 * clocks.len(),
            Msg::Decide { clocks, .. } => HDR + 16 + 12 * clocks.len(),
            Msg::PaxosAccept { .. } | Msg::PaxosAccepted { .. } => HDR + 16,
            Msg::Propagate { .. } => HDR + 16,
            Msg::CatchupReq {
                partitions, held, ..
            } => HDR + 12 + 4 * partitions.len() + held.wire_size(),
            Msg::CatchupRep {
                records_wire,
                frontier,
                ..
            } => HDR + 9 + *records_wire as usize + 12 * frontier.len(),
        }
    }

    fn wire_label(&self) -> &'static str {
        match self {
            Msg::Client { .. } => "client",
            Msg::Reply { .. } => "reply",
            Msg::ReadReq { .. } => "read_req",
            Msg::ReadRep { .. } => "read_rep",
            Msg::Gc(m) => m.wire_label(),
            Msg::Vote { .. } => "vote",
            Msg::Decide { .. } => "decide",
            Msg::PaxosAccept { .. } => "paxos_accept",
            Msg::PaxosAccepted { .. } => "paxos_accepted",
            Msg::Propagate { .. } => "propagate",
            Msg::CatchupReq { .. } => "catchup_req",
            Msg::CatchupRep { .. } => "catchup_rep",
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn payload_size_scales_with_sets_and_values() {
        let empty = TermPayload::new(
            TxId::new(0, 1),
            ProcessId(0),
            true,
            vec![],
            vec![],
            VersionVec::zero(0),
        );
        let loaded = TermPayload::new(
            TxId::new(0, 1),
            ProcessId(0),
            false,
            vec![ReadEntry {
                key: Key(1),
                seq: 0,
            }],
            vec![WriteEntry {
                key: Key(2),
                value: Value::of_size(1024),
                base_seq: 0,
            }],
            VersionVec::zero(4),
        );
        assert!(loaded.wire_size() > empty.wire_size() + 1024);
    }

    #[test]
    fn update_message_carries_payload_size() {
        let m = Msg::Client {
            tx: TxId::new(0, 1),
            op: ClientOp::Update {
                key: Key(1),
                value: Value::of_size(1024),
            },
        };
        assert!(m.wire_size() >= 1024);
        let b = Msg::Client {
            tx: TxId::new(0, 1),
            op: ClientOp::Begin,
        };
        assert!(b.wire_size() < 64);
    }

    /// The summary names what it was given, whatever the order, and
    /// travels at its varint-encoded size.
    #[test]
    fn a_summary_lacks_what_it_does_not_name_and_costs_its_encoding() {
        let (a, b) = (TxId::new(0, 63), TxId::new(0, 64));
        let c = TxId::new(TxId::MAX_COORD, TxId::MAX_SEQ);
        let words = |txs: &[TxId]| {
            let mut words = BTreeMap::<u64, u64>::new();
            for tx in txs {
                *words.entry(tx.code() >> 6).or_default() |= 1 << (tx.code() & 63);
            }
            words.into_iter().rev().collect::<Vec<_>>()
        };
        let held = CatchupSummary::new(vec![(Key(300), 2), (Key(7), 129)], words(&[a, c]));
        assert!(!held.lacks_install(Key(7), 129) && held.lacks_install(Key(7), 130));
        assert!(!held.lacks_install(Key(300), 1) && held.lacks_install(Key(300), 3));
        assert!(!held.lacks_install(Key(8), 0) && held.lacks_install(Key(8), 1));
        assert!(!held.lacks_decision(a) && !held.lacks_decision(c));
        assert!(held.lacks_decision(b) && held.lacks_decision(TxId::new(0, 62)));
        // Counts 1 + 1; keys 1 + 2 and 2 + 1; words 1 + 8 and 9 + 8.
        assert_eq!(held.wire_size(), 2 + 6 + 26);
        let req = |held| Msg::CatchupReq {
            partitions: vec![0, 1],
            from: 0,
            max: 256,
            held: Arc::new(held),
        };
        let empty = CatchupSummary::new(Vec::new(), Vec::new());
        assert_eq!(req(empty).wire_size() + 6 + 26, req(held).wire_size());
    }

    #[test]
    fn snapshot_metadata_inflates_read_requests() {
        let lean = Msg::ReadReq {
            tx: TxId::new(0, 1),
            key: Key(1),
            snap: Snapshot::unconstrained(),
        };
        let fat = Msg::ReadReq {
            tx: TxId::new(0, 1),
            key: Key(1),
            snap: Snapshot::greedy(16),
        };
        assert!(fat.wire_size() > lean.wire_size() + 16 * 16 - 1);
    }
}
