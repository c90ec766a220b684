//! The G-DUR replica: one actor running the generic *execution* protocol
//! (Algorithm 1), the generic *termination* protocol (Algorithm 2), and the
//! pluggable atomic-commitment algorithms — group communication with
//! distributed voting (Algorithm 3), two-phase commit (Algorithm 4), Paxos
//! Commit (§5), and Serrano's vote-free local decision.
//!
//! All realization points are read from the [`ProtocolSpec`]; the replica
//! contains no protocol-specific code paths beyond dispatching on those
//! plug-in values, which is the paper's architectural claim.
//!
//! This file holds the state, its construction, the accessors, the message
//! entry point [`Replica::handle`] and the timer table. The algorithms are
//! `impl Replica` blocks in child modules, one per algorithm of the paper —
//! `execution` (Algorithm 1), `termination` (Algorithm 2), `commitment`
//! (Algorithms 3 and 4, Paxos Commit, `LocalDecide`), `recovery` (§5.3) —
//! which share this module's names and private fields. Every commitment
//! mechanism exists once; where Algorithms 3 and 4 differ, one function
//! branches on `gc_mode()` (DESIGN.md §3.2 lists them).

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use gdur_gc::{GcEvent, GroupComm, XcastKind};
use gdur_net::SiteId;
use gdur_obs::{labels, AbortCause};
use gdur_persist::codec::{get_varint, put_varint};
use gdur_sim::{Context, IdMap, ProcessId, SimDuration};
use gdur_store::{Key, MultiVersionStore, Placement, SeedImage, TxId, Value};
use gdur_versioning::{Mechanism, Stamp, VersionVec};

use crate::certifier::{Certifier, Ticket};
use crate::messages::{CatchupInstall, ClientOp, ClientReply, Msg, TermPayload};
use crate::spec::{
    CertifyRule, CertifyingObjRule, CommitmentKind, CommuteRule, CostModel, ProtocolSpec, VoteRule,
};
use crate::txn::{ReadEntry, Snapshot, WriteEntry};

/// Static configuration of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's site.
    pub site: SiteId,
    /// The realized protocol.
    pub spec: ProtocolSpec,
    /// Data placement.
    pub placement: Placement,
    /// Process id of the replica at each site (indexed by site id).
    pub replica_pids: Vec<ProcessId>,
    /// For each partition, the preferred (nearest) site to read from.
    pub read_target: Vec<SiteId>,
    /// CPU service-time model.
    pub costs: CostModel,
    /// Remote reads unanswered for this long are re-iterated to another
    /// replica (Algorithm 1's failover, "not covered" in the paper's
    /// pseudo-code but described in §4).
    pub read_timeout: SimDuration,
    /// Abort a submitted transaction whose votes have not produced a
    /// decision within this bound (`None` = wait forever, the paper's
    /// crash-free behaviour).
    pub vote_timeout: Option<SimDuration>,
    /// Give up on a read after this many failover attempts and abort the
    /// transaction (`None` = re-iterate forever).
    pub max_read_attempts: Option<usize>,
    /// Attach the durable write-ahead log (§5.3 crash-recovery model);
    /// the paper's experiments, like our performance runs, leave it off.
    pub persistence: bool,
    /// Record install events and the outcome log for consistency checking;
    /// the oracle (`gdur-consistency`) borrows both, it copies neither.
    pub record_history: bool,
    /// **Model-checker regression knob — never set in real runs.** Forces
    /// the legacy bump-at-install commit clocks even for vote-clocked
    /// protocols, re-introducing the Walter PSI fractured-read bug (one
    /// transaction's installs stamped independently per site) that the
    /// vote-time clock-reservation fix removed. `gdur-mc` uses it to prove
    /// the explorer finds that bug; see `gdur-analysis`.
    #[doc(hidden)]
    pub bug_unreserved_commit_clocks: bool,
}

/// An after-value installation, recorded for consistency checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallEvent {
    /// Key written.
    pub key: Key,
    /// Per-key sequence of the installed version.
    pub seq: u64,
    /// Writing transaction.
    pub tx: TxId,
}

// One per install at every replica of the written key.
const _: () = assert!(std::mem::size_of::<InstallEvent>() <= 24);

/// A terminated transaction as its coordinator's outcome log holds it: a
/// view into the log, valid as long as the replica is borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutcome<'a> {
    /// The transaction.
    pub tx: TxId,
    /// True if it committed.
    pub committed: bool,
    /// Read set: (key, per-key sequence of the version observed), in read
    /// order.
    pub reads: Reads<'a>,
    /// Written keys, in write order; empty for a query.
    pub writes: Writes<'a>,
}

/// One set of a decided transaction — its reads or its writes — as its
/// coordinator's [`OutcomeLog`] holds it: the item count, then the items,
/// as LEB128 varints. Copying the view copies two words; the items are
/// decoded as [`LoggedSet::iter`] walks them. Equal sets have equal bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LoggedSet<'a, T> {
    bytes: &'a [u8],
    item: PhantomData<fn() -> T>,
}

/// A read set: (key, per-key sequence observed) pairs, in read order.
pub type Reads<'a> = LoggedSet<'a, (Key, u64)>;

/// A write set's keys, in write order.
pub type Writes<'a> = LoggedSet<'a, Key>;

// Two views per transaction yielded by every walk of the history.
const _: () = assert!(std::mem::size_of::<Reads<'static>>() <= 16);
const _: () = assert!(std::mem::size_of::<Writes<'static>>() <= 16);

impl<'a, T> LoggedSet<'a, T> {
    fn new(bytes: &'a [u8]) -> Self {
        LoggedSet {
            bytes,
            item: PhantomData,
        }
    }

    /// Number of items.
    pub fn len(self) -> usize {
        read_varint(&mut { self.bytes }) as usize
    }

    /// True if the set has no item (a count of zero is the byte 0).
    pub fn is_empty(self) -> bool {
        self.bytes[0] == 0
    }

    /// The items after the count, and how many there are.
    fn items(self) -> (usize, &'a [u8]) {
        let mut rest = self.bytes;
        (read_varint(&mut rest) as usize, rest)
    }
}

impl<'a> Reads<'a> {
    /// The reads, in read order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = (Key, u64)> + 'a {
        let (n, mut rest) = self.items();
        (0..n).map(move |_| (Key(read_varint(&mut rest)), read_varint(&mut rest)))
    }
}

impl<'a> Writes<'a> {
    /// The written keys, in write order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = Key> + 'a {
        let (n, mut rest) = self.items();
        (0..n).map(move |_| Key(read_varint(&mut rest)))
    }
}

impl std::fmt::Debug for Reads<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl std::fmt::Debug for Writes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The next varint of an arena this crate wrote.
pub(crate) fn read_varint(bytes: &mut &[u8]) -> u64 {
    get_varint(bytes).expect("a record arena holds whole varints")
}

/// Splits `len` bytes off the front of `bytes`.
fn split_off<'a>(bytes: &mut &'a [u8], len: u64) -> &'a [u8] {
    let (head, rest) = bytes.split_at(len as usize);
    *bytes = rest;
    head
}

/// Appends what `put` writes to `out`, preceded by the varint
/// `head(length in bytes)`, so a reader can step over it undecoded.
fn put_sized(out: &mut Vec<u8>, head: impl FnOnce(u64) -> u64, put: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    put(out);
    let len = out.len() - start;
    put_varint(out, head(len as u64));
    let head_len = out.len() - start - len;
    out[start..].rotate_right(head_len);
}

/// The coordinator's record of every transaction it decided: the ids in
/// decision order, and everything else in one byte arena of LEB128
/// varints. Per transaction, the arena holds a head — the byte length of
/// the reads, shifted left once, plus the committed flag — the reads (their
/// count, then (key, seq) pairs), the byte length of the writes, and the
/// writes (their count, then keys). The lengths let a walk hand out both
/// sets as views without decoding either.
#[derive(Debug, Default)]
pub struct OutcomeLog {
    ids: Vec<TxId>,
    bytes: Vec<u8>,
}

impl OutcomeLog {
    /// Appends a decided transaction with its read set and the keys of its
    /// write buffer.
    pub fn push(&mut self, tx: TxId, committed: bool, rs: &[ReadEntry], ws: &[WriteEntry]) {
        self.ids.push(tx);
        let reads = |out: &mut Vec<u8>| {
            put_varint(out, rs.len() as u64);
            for e in rs {
                put_varint(out, e.key.0);
                put_varint(out, e.seq);
            }
        };
        put_sized(
            &mut self.bytes,
            |len| len << 1 | u64::from(committed),
            reads,
        );
        let writes = |out: &mut Vec<u8>| {
            put_varint(out, ws.len() as u64);
            for w in ws {
                put_varint(out, w.key.0);
            }
        };
        put_sized(&mut self.bytes, |len| len, writes);
    }

    /// Number of decided transactions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing was decided.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The decided transactions in decision order, as views into the log.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TxnOutcome<'_>> + '_ {
        let mut rest = self.bytes.as_slice();
        self.ids.iter().map(move |&tx| {
            let head = read_varint(&mut rest);
            let reads = LoggedSet::new(split_off(&mut rest, head >> 1));
            let writes_len = read_varint(&mut rest);
            TxnOutcome {
                tx,
                committed: head & 1 == 1,
                reads,
                writes: LoggedSet::new(split_off(&mut rest, writes_len)),
            }
        })
    }
}

/// Aggregate counters exposed by a replica after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Transactions this replica coordinated to a decision.
    pub coordinated: u64,
    /// ... of which committed.
    pub committed: u64,
    /// ... of which aborted.
    pub aborted: u64,
    /// Votes this replica cast.
    pub votes_cast: u64,
    /// Negative votes cast preemptively (Algorithm 4, line 3).
    pub preemptive_aborts: u64,
    /// Certification checks run.
    pub certifications: u64,
    /// Remote read requests served.
    pub remote_reads_served: u64,
    /// After-value installations.
    pub applies: u64,
    /// Background propagation messages sent.
    pub propagates_sent: u64,
    /// Coordinated aborts caused by a negative certification vote.
    pub aborted_cert_conflict: u64,
    /// Coordinated aborts caused by the vote timeout expiring.
    pub aborted_vote_timeout: u64,
    /// Coordinated aborts caused by an unserveable read.
    pub aborted_read_impossible: u64,
    /// Coordinated aborts caused by a crash (coordinator-side).
    pub aborted_crash: u64,
    /// Crash–restart recoveries performed (§5.3 WAL replay).
    pub recoveries: u64,
    /// In-flight terminations resumed from `Submit` log records at restart.
    pub resubmissions: u64,
    /// Install records adopted from peers during catch-up state transfer.
    pub catchup_installs: u64,
    /// Log records this replica decoded to serve catch-up pages to peers:
    /// the host cost of state transfer, linear in the records shipped.
    pub catchup_records_decoded: u64,
    /// Reads that could not be served on arrival (behind the visibility
    /// frontier, or during a recovery), each counted once however long.
    pub reads_parked: u64,
    /// Times a parked read was taken up again, woken by what it waited for.
    pub parked_read_checks: u64,
}

impl ReplicaStats {
    /// The counters of `self` and `other` added up. The literal names every
    /// field, so a counter added to the struct and not summed here does not
    /// compile.
    pub fn sum(self, other: ReplicaStats) -> ReplicaStats {
        ReplicaStats {
            coordinated: self.coordinated + other.coordinated,
            committed: self.committed + other.committed,
            aborted: self.aborted + other.aborted,
            votes_cast: self.votes_cast + other.votes_cast,
            preemptive_aborts: self.preemptive_aborts + other.preemptive_aborts,
            certifications: self.certifications + other.certifications,
            remote_reads_served: self.remote_reads_served + other.remote_reads_served,
            applies: self.applies + other.applies,
            propagates_sent: self.propagates_sent + other.propagates_sent,
            aborted_cert_conflict: self.aborted_cert_conflict + other.aborted_cert_conflict,
            aborted_vote_timeout: self.aborted_vote_timeout + other.aborted_vote_timeout,
            aborted_read_impossible: self.aborted_read_impossible + other.aborted_read_impossible,
            aborted_crash: self.aborted_crash + other.aborted_crash,
            recoveries: self.recoveries + other.recoveries,
            resubmissions: self.resubmissions + other.resubmissions,
            catchup_installs: self.catchup_installs + other.catchup_installs,
            catchup_records_decoded: self.catchup_records_decoded + other.catchup_records_decoded,
            reads_parked: self.reads_parked + other.reads_parked,
            parked_read_checks: self.parked_read_checks + other.parked_read_checks,
        }
    }
}

/// Execution-phase state of a transaction at its coordinator (Algorithm 1),
/// from `Begin` until `submit` moves its sets into the payload.
#[derive(Debug)]
struct ExecTxn {
    client: ProcessId,
    snapshot: Snapshot,
    rs: Vec<ReadEntry>,
    ws: Vec<WriteEntry>,
    /// Outstanding remote read: (key, update-value if this is an RMW,
    /// attempt counter for failover re-iteration).
    pending_read: Option<(Key, Option<Value>, usize)>,
    /// Failover timer of the outstanding read: (tag, kernel timer id).
    read_timer: Option<(u64, u64)>,
}

// One per transaction executing at its coordinator.
const _: () = assert!(std::mem::size_of::<ExecTxn>() <= 216);

impl ExecTxn {
    /// A transaction that has executed nothing yet.
    fn new(client: ProcessId, snapshot: Snapshot) -> Self {
        ExecTxn {
            client,
            snapshot,
            rs: Vec::new(),
            ws: Vec::new(),
            pending_read: None,
            read_timer: None,
        }
    }

    /// Records a completed read of version `seq` of `key` — and, for the
    /// read half of a read-modify-write, buffers the `update` — and returns
    /// the reply owed to the client.
    fn read_done(
        &mut self,
        key: Key,
        seq: u64,
        value: Value,
        update: Option<Value>,
    ) -> ClientReply {
        self.rs.push(ReadEntry { key, seq });
        match update {
            Some(value) => {
                self.ws.push(WriteEntry {
                    key,
                    value,
                    base_seq: seq,
                });
                ClientReply::UpdateDone { key }
            }
            None => ClientReply::ReadDone { key, value },
        }
    }
}

/// Termination-phase state of a submitted transaction at its coordinator
/// (Algorithm 2): the payload owns the sets, and the certifying keys are
/// derived from them (`certifying_of`).
#[derive(Debug)]
struct CoordTxn {
    client: ProcessId,
    /// The termination payload, retransmitted by 2PC and Paxos Commit
    /// retries and by a restarted coordinator.
    payload: TermPayload,
    /// Paxos Commit acknowledgments received.
    paxos_acks: u32,
    /// The pending Paxos decision, if in the accept round.
    paxos_decision: Option<bool>,
    /// True once the payload went out again (a retry, a resubmission after
    /// a restart): a participant answers every copy with its vote.
    resent: bool,
}

// One per submitted, undecided transaction at its coordinator.
const _: () = assert!(std::mem::size_of::<CoordTxn>() <= 24);

impl CoordTxn {
    /// A transaction just submitted with `payload`.
    fn new(client: ProcessId, payload: TermPayload) -> Self {
        CoordTxn {
            client,
            payload,
            paxos_acks: 0,
            paxos_decision: None,
            resent: false,
        }
    }
}

/// Termination-phase state of a transaction at a participant.
#[derive(Debug)]
struct PartTxn {
    payload: TermPayload,
    /// The vote this replica cast, for idempotent re-sends on retried
    /// termination (crash-recovery retransmission).
    my_vote: Option<bool>,
    outcome: Option<bool>,
    /// Vote-time commit clocks, boxed apart: only voting commitment over a
    /// vector mechanism ([`Replica::vote_clocked`]) fills them, so the
    /// other assemblies pay one null pointer per participation.
    clocks: Option<Box<PartClocks>>,
    /// This participation's handle in the [`Certifier`].
    ticket: Ticket,
}

// One per participation in flight: under overload, one per queued entry.
const _: () = assert!(std::mem::size_of::<PartTxn>() <= 24);

/// The commit clocks of one participation.
#[derive(Debug, Default)]
struct PartClocks {
    /// Slots this replica reserved at vote time for its locally hosted
    /// written partitions; resolved at termination.
    reserved: Box<[(u32, u64)]>,
    /// The merged vote clocks of every participant, learned from the
    /// decision (2PC/Paxos) or from the votes themselves (GC mode).
    decided: Box<[(u32, u64)]>,
}

impl PartTxn {
    fn reserved(&self) -> &[(u32, u64)] {
        self.clocks.as_deref().map_or(&[], |c| &c.reserved)
    }

    fn decided_clocks(&self) -> &[(u32, u64)] {
        self.clocks.as_deref().map_or(&[], |c| &c.decided)
    }

    /// The clocks entry, allocated on first use.
    fn clocks_mut(&mut self) -> &mut PartClocks {
        self.clocks.get_or_insert_with(Box::default)
    }
}

/// Votes observed for a transaction (participants and coordinators share
/// this view; in GC mode every `vote_recv` replica decides from it).
#[derive(Debug, Default)]
struct VoteState {
    /// Sites that voted yes, bit `s` for site `s`: a placement has at most
    /// 64 sites (`Placement::new` asserts it).
    yes_sites: u64,
    any_no: bool,
    /// Per-partition commit-clock reservations carried by yes votes,
    /// merged by maximum.
    clocks: Vec<(u32, u64)>,
}

impl VoteState {
    /// Records a yes vote of `site`.
    fn add_yes(&mut self, site: SiteId) {
        self.yes_sites |= 1 << site.0;
    }

    /// True if `site` voted yes.
    fn voted_yes(&self, site: SiteId) -> bool {
        self.yes_sites & (1 << site.0) != 0
    }
}

/// A read parked until the local visibility frontier catches up with the
/// snapshot that requested it, or until a recovery completes.
#[derive(Debug)]
enum DeferredRead {
    /// A remote `ReadReq` (requester, transaction, key, snapshot).
    Remote(ProcessId, TxId, Key, Snapshot),
    /// A local read at the coordinator (transaction, key, update value).
    Local(TxId, Key, Option<Value>),
}

/// Reads that could not be served on arrival, held by the event each one
/// waits for (Algorithm 1, lines 13–14: the read *waits*; nothing polls).
#[derive(Debug, Default)]
struct ParkedReads {
    /// Refused while `recovering()`, in arrival order; `finish_catchup`
    /// wakes them all.
    recovery: Vec<DeferredRead>,
    /// Refused behind the visibility frontier: (partition, wait bound) →
    /// the reads woken when `knowledge[partition]` reaches the bound.
    frontier: BTreeMap<(usize, u64), Vec<DeferredRead>>,
    /// Woken by the running handler, which serves them before it returns.
    woken: Vec<DeferredRead>,
}

/// The replica actor.
#[derive(Debug)]
pub struct Replica {
    cfg: ReplicaConfig,
    me: ProcessId,
    store: MultiVersionStore,
    /// Per-partition commit clocks; authoritative for local partitions,
    /// advanced by `Propagate` messages for remote ones. Under voting
    /// commitment with vector mechanisms this is the *visibility frontier*:
    /// it advances only over contiguously resolved reservations, so no
    /// snapshot built from it can admit a commit whose install is still in
    /// flight somewhere.
    knowledge: VersionVec,
    /// Highest commit-clock slot handed out per local partition at vote
    /// time; always ≥ the corresponding `knowledge` entry.
    reserved: VersionVec,
    /// Reservations resolved (installed or aborted) above the `knowledge`
    /// frontier, waiting for the gap below them to close.
    resolved_ahead: BTreeMap<usize, BTreeSet<u64>>,
    /// Serrano's replicated version table (per-key latest sequence for all
    /// objects), maintained only under `VoteRule::LocalDecide`.
    meta: BTreeMap<Key, u64>,
    gc: GroupComm<TermPayload>,
    /// Coordinated transactions still executing (Algorithm 1).
    executing: IdMap<TxId, ExecTxn>,
    /// Coordinated transactions submitted and not yet decided; disjoint
    /// from `executing`, which `submit` moves them out of.
    coord: IdMap<TxId, CoordTxn>,
    part: IdMap<TxId, PartTxn>,
    votes: IdMap<TxId, VoteState>,
    /// Delivery queue `Q` of Algorithm 2 with its `commute` conflict index
    /// and deferred-vote wait graph.
    certifier: Certifier,
    /// Emptied waiter buffers for [`Certifier::leave`], lent by
    /// `terminate` and given back by `wake`: one per termination nested in
    /// a wake loop.
    spare_waiters: Vec<Vec<Ticket>>,
    /// Decisions that raced ahead of the ordered delivery of their
    /// transaction (a coordinator can abort on the first negative vote
    /// before slower replicas deliver the payload). Only a destination of
    /// the payload files one, so the delivery removes every entry.
    early_decide: IdMap<TxId, (bool, Vec<(u32, u64)>)>,
    /// Reads waiting for a frontier advance or for `recovery.complete`.
    parked: ParkedReads,
    /// Transactions terminated here: participations, and the coordinations
    /// a vote may still reach whose payload is not addressed here. Late
    /// votes and duplicate decisions for them are dropped.
    done: TerminatedSet,
    /// Armed timers by tag; a tag absent when it fires was cancelled or
    /// died with a crash, and firing it does nothing.
    timers: IdMap<u64, Timer>,
    next_timer_tag: u64,
    /// Sites suspected crashed (eventually-perfect failure detector
    /// heuristic: suspect after a read timeout, trust again on any
    /// message). Suspected sites are skipped when picking read targets.
    suspected: std::collections::BTreeSet<SiteId>,
    stats: ReplicaStats,
    installs: Vec<InstallEvent>,
    outcomes: OutcomeLog,
    /// Durable log, when the persistence layer is attached.
    wal: Option<gdur_persist::Wal>,
    /// Durably decided outcomes, mirroring the log's `Decision` records, so
    /// a retransmitting coordinator can be answered after this replica
    /// already terminated its participation: per id, `[decided, committed]`.
    /// Maintained only under persistence.
    decided_outcomes: TxBits<2>,
    /// In-flight catch-up state transfer, present between a restart and the
    /// `recovery.complete` trace point.
    catchup: Option<CatchupState>,
}

/// What an armed timer stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// Failover of the outstanding remote read of a transaction.
    Read(TxId),
    /// Termination retry (2PC/Paxos crash-recovery retransmission).
    TermRetry(TxId),
    /// Vote timeout, armed at submit when `cfg.vote_timeout` is on.
    VoteTimeout(TxId),
    /// Catch-up retry: the peer a page was asked from.
    Catchup(ProcessId),
}

/// One peer's slice of an in-flight catch-up transfer.
#[derive(Debug)]
struct CatchupPeer {
    /// Locally hosted partitions this peer serves.
    partitions: Vec<u32>,
    /// Resume index into the peer's log.
    from: u64,
    /// Outstanding retry timer (tag, kernel id).
    timer: Option<(u64, u64)>,
}

/// Catch-up progress of a restarted replica (§5.3 state transfer).
#[derive(Debug)]
struct CatchupState {
    /// Peers still owing pages, with the partitions each one serves.
    pending: BTreeMap<ProcessId, CatchupPeer>,
    /// Install records adopted so far.
    applied: u64,
}

/// Transaction ids as bits of 64-bit words, `N` bit planes.
///
/// Word `tx.code() >> 6` holds bit `tx.code() & 63` of `tx`, so the 64
/// consecutive sequence numbers of one coordinator share one map entry. A
/// dense sequence costs an eighth of a byte per id and plane. The sparse
/// case — a pooled client (`client_idx << 20 | seq`) with 1–3 transactions,
/// or a participant that sees only some of a client's — sets 1–3 bits per
/// word; at `N = 1` its entry is 16 bytes against the 8 of a flat id set, so
/// at most twice that set. Nothing walks the bits.
#[derive(Debug, Default)]
struct TxBits<const N: usize>(IdMap<u64, [u64; N]>);

impl<const N: usize> TxBits<N> {
    /// `tx`'s bit in each plane.
    fn get(&self, tx: &TxId) -> [bool; N] {
        let words = self.0.get(&(tx.code() >> 6)).copied().unwrap_or([0; N]);
        words.map(|w| (w >> (tx.code() & 63)) & 1 == 1)
    }

    /// Sets `tx`'s bit in each plane to `bits`.
    fn set(&mut self, tx: TxId, bits: [bool; N]) {
        let bit = 1 << (tx.code() & 63);
        let words = self.0.get_or_insert_with(tx.code() >> 6, || [0; N]);
        for (w, on) in words.iter_mut().zip(bits) {
            *w = if on { *w | bit } else { *w & !bit };
        }
    }
}

/// The transactions terminated at a replica; it only ever grows.
type TerminatedSet = TxBits<1>;

impl TerminatedSet {
    fn contains(&self, tx: &TxId) -> bool {
        self.get(tx)[0]
    }

    fn insert(&mut self, tx: TxId) {
        self.set(tx, [true]);
    }
}

impl Replica {
    /// Creates a replica; `me` must match the process id it will be spawned
    /// at. The initial load is keys `0..total_keys`, each holding
    /// `seed_value`; the replica stores the ones of locally hosted
    /// partitions.
    pub fn new(me: ProcessId, cfg: ReplicaConfig, total_keys: u64, seed_value: &Value) -> Self {
        let partitions = cfg.placement.partitions();
        let dim = cfg.spec.versioning.dim(cfg.replica_pids.len(), partitions);
        let image = SeedImage::new(
            &cfg.placement,
            cfg.site,
            total_keys,
            seed_value,
            |p| match cfg.spec.versioning {
                Mechanism::Ts => Stamp::Ts(0),
                _ => Stamp::Vec {
                    origin: p.0,
                    vec: VersionVec::zero(dim),
                },
            },
        );
        let gc = GroupComm::new(me, cfg.replica_pids.clone());
        let gc_mode = cfg.spec.group_communication().is_some();
        // Serrano's vote-free decision never waits on a predecessor, so its
        // queue keeps the delivery order only.
        let commute = if gc_mode && cfg.spec.votes == VoteRule::LocalDecide {
            CommuteRule::Always
        } else {
            cfg.spec.commute
        };
        Replica {
            knowledge: VersionVec::zero(dim.max(partitions)),
            reserved: VersionVec::zero(dim.max(partitions)),
            resolved_ahead: BTreeMap::new(),
            parked: ParkedReads::default(),
            meta: BTreeMap::new(),
            gc,
            executing: IdMap::new(),
            coord: IdMap::new(),
            part: IdMap::new(),
            votes: IdMap::new(),
            certifier: Certifier::new(commute, gc_mode),
            spare_waiters: Vec::new(),
            early_decide: IdMap::new(),
            done: TerminatedSet::default(),
            timers: IdMap::new(),
            next_timer_tag: 0,
            suspected: std::collections::BTreeSet::new(),
            stats: ReplicaStats::default(),
            installs: Vec::new(),
            outcomes: OutcomeLog::default(),
            wal: cfg.persistence.then(gdur_persist::Wal::new),
            decided_outcomes: TxBits::default(),
            catchup: None,
            store: MultiVersionStore::from_image(image),
            me,
            cfg,
        }
    }

    /// The durable log, if persistence is attached.
    pub fn wal(&self) -> Option<&gdur_persist::Wal> {
        self.wal.as_ref()
    }

    /// Run statistics.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Install events recorded (empty unless `record_history`).
    pub fn installs(&self) -> &[InstallEvent] {
        &self.installs
    }

    /// The transactions this replica coordinated to a decision, in decision
    /// order (empty unless `record_history`). The consistency oracle's
    /// `History` borrows the log instead of copying it.
    pub fn outcomes(&self) -> &OutcomeLog {
        &self.outcomes
    }

    /// Direct read access to the local store (used by tests and examples).
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    /// Current length of the termination queue `Q`.
    pub fn queue_len(&self) -> usize {
        self.certifier.len()
    }

    fn pid_of_site(&self, s: SiteId) -> ProcessId {
        self.cfg.replica_pids[s.index()]
    }

    fn sites_of_keys(&self, keys: impl IntoIterator<Item = Key>) -> BTreeSet<SiteId> {
        self.cfg.placement.replicas_of_keys(keys)
    }

    fn is_local(&self, key: Key) -> bool {
        self.cfg.placement.is_local(self.cfg.site, key)
    }

    /// True under Algorithm 3 (commitment by group communication): ordered
    /// delivery, votes to every participant, termination at the head of `Q`.
    fn gc_mode(&self) -> bool {
        self.cfg.spec.group_communication().is_some()
    }

    /// Arms `timer` to fire `after` from now; returns (tag, kernel id).
    fn arm(&mut self, ctx: &mut Context<'_, Msg>, after: SimDuration, timer: Timer) -> (u64, u64) {
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        self.timers.insert(tag, timer);
        (tag, ctx.set_timer(after, tag))
    }

    /// Cancels a timer [`Replica::arm`] returned.
    fn cancel(&mut self, ctx: &mut Context<'_, Msg>, (tag, id): (u64, u64)) {
        ctx.cancel_timer(id);
        self.timers.remove(&tag);
    }

    /// Timer entry point wired into the actor: runs what the timer armed
    /// under `tag` stands for. A retry or a timeout of a transaction the
    /// coordinator has decided meanwhile finds no `coord` entry and does
    /// nothing.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        match self.timers.remove(&tag) {
            Some(Timer::Catchup(peer)) => self.retry_catchup(ctx, peer),
            Some(Timer::TermRetry(tx)) => {
                if let Some(t) = self.coord.get_mut(&tx) {
                    t.resent = true;
                    self.transmit(ctx, tx);
                }
            }
            Some(Timer::VoteTimeout(tx)) if self.coord.contains_key(&tx) => {
                self.decide_and_announce(ctx, tx, false, Some(AbortCause::VoteTimeout));
            }
            Some(Timer::Read(tx)) => self.fail_over_read(ctx, tx),
            // Cancelled, died with a crash, or the timeout of a decision
            // already taken.
            None | Some(Timer::VoteTimeout(_)) => {}
        }
        self.serve_woken_reads(ctx);
    }

    /// Site of a replica process, if `pid` is one.
    fn try_site_of_pid(&self, pid: ProcessId) -> Option<SiteId> {
        self.cfg
            .replica_pids
            .iter()
            .position(|p| *p == pid)
            .map(|i| SiteId(i as u16))
    }

    /// CPU cost of marshaling `entries` entries of versioning metadata.
    fn stamp_cost(&self, entries: usize) -> SimDuration {
        self.cfg
            .costs
            .per_stamp_entry
            .saturating_mul(entries as u64)
    }

    /// Handles every message kind; the entry point wired into the actor.
    pub fn handle(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        // Any message from a suspected site restores trust in it.
        if !self.suspected.is_empty() {
            if let Some(site) = self.try_site_of_pid(from) {
                self.suspected.remove(&site);
            }
        }
        // The fixed cost of a message plus size-dependent deserialization:
        // after-values and vector metadata both consume CPU proportional to
        // their wire size.
        let kb = gdur_sim::WireSize::wire_size(&msg) as u64;
        ctx.consume(SimDuration::from_nanos(
            self.cfg.costs.per_message.as_nanos()
                + self.cfg.costs.per_recv_kb.as_nanos() * kb / 1024,
        ));
        match msg {
            Msg::Client { tx, op } => self.on_client_op(ctx, from, tx, op),
            Msg::Reply { .. } => unreachable!("replicas do not receive client replies"),
            Msg::ReadReq { tx, key, snap } => self.on_read_req(ctx, from, tx, key, snap),
            Msg::ReadRep {
                tx,
                key,
                value,
                seq,
                stamp_bytes: _,
                snap,
            } => self.on_read_rep(ctx, tx, key, value, seq, snap),
            Msg::Gc(m) => {
                let mut out = Vec::new();
                self.gc.on_message(from, m, &mut out);
                self.flush_gc(ctx, out);
            }
            Msg::Vote { tx, yes, clocks } => {
                let site = self
                    .try_site_of_pid(from)
                    .expect("vote from a non-replica process");
                self.record_vote(ctx, tx, site, yes, clocks);
            }
            Msg::Decide { tx, commit, clocks } => {
                // A peer answering a resubmitted termination with the
                // already-fixed outcome: close the coordinator entry, if it
                // is still open, so the retransmission loop stops and the
                // client hears back.
                let due = self.payload_due(tx);
                self.finish_coord(ctx, tx, commit, None);
                if due {
                    self.on_decide(ctx, tx, commit, clocks);
                } else {
                    self.log_decision(ctx, tx, commit);
                }
            }
            Msg::PaxosAccept { tx, commit } => {
                ctx.send(from, Msg::PaxosAccepted { tx, commit });
            }
            Msg::PaxosAccepted { tx, .. } => {
                if let Some(t) = self.coord.get_mut(&tx) {
                    t.paxos_acks += 1;
                }
                self.check_paxos_majority(ctx, tx);
            }
            Msg::Propagate { partition, seq } => {
                let p = partition as usize;
                if self.knowledge.get(p) < seq {
                    self.advance_frontier(p, seq);
                }
            }
            Msg::CatchupReq {
                partitions,
                from: start,
                max,
            } => self.on_catchup_req(ctx, from, partitions, start, max),
            Msg::CatchupRep {
                installs,
                decisions,
                next,
                frontier,
            } => self.on_catchup_rep(ctx, from, installs, decisions, next, frontier),
        }
        self.serve_woken_reads(ctx);
    }
}

mod commitment;
mod execution;
mod recovery;
mod termination;

#[cfg(test)]
mod reference;
#[cfg(test)]
pub(crate) mod tests;
