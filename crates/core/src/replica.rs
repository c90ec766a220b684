//! The G-DUR replica: one actor running the generic *execution* protocol
//! (Algorithm 1), the generic *termination* protocol (Algorithm 2), and the
//! pluggable atomic-commitment algorithms — group communication with
//! distributed voting (Algorithm 3), two-phase commit (Algorithm 4), Paxos
//! Commit (§5), and Serrano's vote-free local decision.
//!
//! All realization points are read from the [`ProtocolSpec`]; the replica
//! contains no protocol-specific code paths beyond dispatching on those
//! plug-in values, which is the paper's architectural claim.

use std::collections::{BTreeMap, BTreeSet};

use gdur_gc::{GcEvent, GroupComm, XcastKind};
use gdur_net::SiteId;
use gdur_obs::{labels, tx_code, vote_value, AbortCause};
use gdur_sim::{Context, ProcessId, SimDuration, SimTime};
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
    /// Record install/outcome events for consistency checking.
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
    /// Virtual instant of installation.
    pub at: SimTime,
}

/// A terminated transaction, recorded at its coordinator.
#[derive(Debug, Clone)]
pub struct TxnOutcomeRecord {
    /// The transaction.
    pub tx: TxId,
    /// True if it committed.
    pub committed: bool,
    /// True if it wrote nothing.
    pub read_only: bool,
    /// Read set with observed versions.
    pub rs: Vec<ReadEntry>,
    /// Written keys with base versions.
    pub ws: Vec<(Key, u64)>,
    /// Instant the transaction was submitted for termination.
    pub submitted_at: SimTime,
    /// Instant the decision was taken at the coordinator.
    pub decided_at: SimTime,
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

/// Execution-phase state of a transaction at its coordinator.
#[derive(Debug)]
struct CoordTxn {
    client: ProcessId,
    snapshot: Snapshot,
    rs: Vec<ReadEntry>,
    ws: Vec<WriteEntry>,
    /// Outstanding remote read: (key, update-value if this is an RMW,
    /// attempt counter for failover re-iteration).
    pending_read: Option<(Key, Option<Value>, usize)>,
    /// Failover timer of the outstanding read: (tag, kernel timer id).
    read_timer: Option<(u64, u64)>,
    submitted_at: SimTime,
    /// Paxos Commit acknowledgments received.
    paxos_acks: usize,
    /// The pending Paxos decision, if in the accept round.
    paxos_decision: Option<bool>,
    /// Keys of `vote_snd_obj` (empty when no synchronization is needed).
    certifying: Vec<Key>,
    /// The termination payload, kept for crash-recovery retransmission.
    submitted_payload: Option<TermPayload>,
}

impl CoordTxn {
    /// A transaction that has executed nothing yet.
    fn new(client: ProcessId, snapshot: Snapshot) -> Self {
        CoordTxn {
            client,
            snapshot,
            rs: Vec::new(),
            ws: Vec::new(),
            pending_read: None,
            read_timer: None,
            submitted_at: SimTime::ZERO,
            paxos_acks: 0,
            paxos_decision: None,
            certifying: Vec::new(),
            submitted_payload: None,
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

/// Termination-phase state of a transaction at a participant.
#[derive(Debug)]
struct PartTxn {
    payload: TermPayload,
    /// The vote this replica cast, for idempotent re-sends on retried
    /// termination (crash-recovery retransmission).
    my_vote: Option<bool>,
    /// Commit-clock slots this replica reserved at vote time for its
    /// locally hosted written partitions; resolved at termination.
    reserved: Vec<(u32, u64)>,
    /// The merged vote clocks of every participant, learned from the
    /// decision (2PC/Paxos) or from the votes themselves (GC mode).
    decided_clocks: Vec<(u32, u64)>,
    outcome: Option<bool>,
    /// This participation's handle in the [`Certifier`].
    ticket: Ticket,
}

/// Votes observed for a transaction (participants and coordinators share
/// this view; in GC mode every `vote_recv` replica decides from it).
#[derive(Debug, Default)]
struct VoteState {
    /// Sites that voted yes, kept sorted. A flat vector: the set is bounded
    /// by the site count, so membership scans beat a tree node per insert.
    yes_sites: Vec<SiteId>,
    any_no: bool,
    /// Per-partition commit-clock reservations carried by yes votes,
    /// merged by maximum.
    clocks: Vec<(u32, u64)>,
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
    coord: BTreeMap<TxId, CoordTxn>,
    part: BTreeMap<TxId, PartTxn>,
    votes: BTreeMap<TxId, VoteState>,
    /// Delivery queue `Q` of Algorithm 2 with its `commute` conflict index
    /// and deferred-vote wait graph.
    certifier: Certifier,
    /// Decisions that raced ahead of the ordered delivery of their
    /// transaction (a coordinator can abort on the first negative vote
    /// before slower replicas deliver the payload).
    early_decide: BTreeMap<TxId, (bool, Vec<(u32, u64)>)>,
    /// Reads waiting for a frontier advance or for `recovery.complete`.
    parked: ParkedReads,
    /// Participations already terminated here; late votes and duplicate
    /// decisions for them are dropped.
    done: TerminatedSet,
    /// Armed timers by tag; a tag absent when it fires was cancelled or
    /// died with a crash, and firing it does nothing.
    timers: BTreeMap<u64, Timer>,
    next_timer_tag: u64,
    /// Sites suspected crashed (eventually-perfect failure detector
    /// heuristic: suspect after a read timeout, trust again on any
    /// message). Suspected sites are skipped when picking read targets.
    suspected: std::collections::BTreeSet<SiteId>,
    stats: ReplicaStats,
    installs: Vec<InstallEvent>,
    outcomes: Vec<TxnOutcomeRecord>,
    /// Durable log, when the persistence layer is attached.
    wal: Option<gdur_persist::Wal>,
    /// Durably decided outcomes, mirroring the log's `Decision` records, so
    /// a retransmitting coordinator can be answered after this replica
    /// already terminated its participation. Maintained only under
    /// persistence.
    decided_outcomes: BTreeMap<TxId, bool>,
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
    /// Rotation counter over candidate serving sites.
    attempt: usize,
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

/// The set of transactions that terminated at this replica, compressed per
/// coordinator.
///
/// Every message about a transaction checks this set, and it only ever
/// grows, so a flat `BTreeSet<TxId>` ends up as the deepest tree in the
/// replica. Clients run one transaction at a time, which means each
/// coordinator's sequence numbers (allocated from 1) terminate in order:
/// the set is a dense prefix `1..=watermark` per coordinator plus an
/// (almost always empty) out-of-order tail.
#[derive(Debug, Default)]
struct TerminatedSet {
    per_coord: BTreeMap<u32, CoordDone>,
}

#[derive(Debug, Default)]
struct CoordDone {
    /// Every seq in `1..=watermark` has terminated.
    watermark: u64,
    /// Terminated seqs above the watermark (plus a defensive slot for a
    /// seq-0 id, which real coordinators never allocate).
    sparse: BTreeSet<u64>,
}

impl TerminatedSet {
    fn contains(&self, tx: &TxId) -> bool {
        self.per_coord
            .get(&tx.coord)
            .is_some_and(|d| (tx.seq != 0 && tx.seq <= d.watermark) || d.sparse.contains(&tx.seq))
    }

    fn insert(&mut self, tx: TxId) {
        let d = self.per_coord.entry(tx.coord).or_default();
        if tx.seq != 0 && tx.seq <= d.watermark {
            return;
        }
        d.sparse.insert(tx.seq);
        while d.sparse.remove(&(d.watermark + 1)) {
            d.watermark += 1;
        }
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
        let gc_mode = matches!(
            cfg.spec.commitment,
            CommitmentKind::GroupCommunication { .. }
        );
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
            coord: BTreeMap::new(),
            part: BTreeMap::new(),
            votes: BTreeMap::new(),
            certifier: Certifier::new(commute, gc_mode),
            early_decide: BTreeMap::new(),
            done: TerminatedSet::default(),
            timers: BTreeMap::new(),
            next_timer_tag: 0,
            suspected: std::collections::BTreeSet::new(),
            stats: ReplicaStats::default(),
            installs: Vec::new(),
            outcomes: Vec::new(),
            wal: cfg.persistence.then(gdur_persist::Wal::new),
            decided_outcomes: BTreeMap::new(),
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

    /// Coordinator-side outcome records (empty unless `record_history`).
    pub fn outcomes(&self) -> &[TxnOutcomeRecord] {
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

    fn sites_of_keys<'a, I: IntoIterator<Item = &'a Key>>(&self, keys: I) -> BTreeSet<SiteId> {
        self.cfg
            .placement
            .replicas_of_keys(keys.into_iter().copied())
    }

    fn is_local(&self, key: Key) -> bool {
        self.cfg.placement.is_local(self.cfg.site, key)
    }

    /// True under Algorithm 3 (commitment by group communication): ordered
    /// delivery, votes to every participant, termination at the head of `Q`.
    fn gc_mode(&self) -> bool {
        matches!(
            self.cfg.spec.commitment,
            CommitmentKind::GroupCommunication { .. }
        )
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

    // ------------------------------------------------------------------
    // Execution protocol (Algorithm 1)
    // ------------------------------------------------------------------

    fn fresh_snapshot(&self) -> Snapshot {
        use crate::spec::ChooseRule;
        let dim = self
            .cfg
            .spec
            .versioning
            .dim(self.cfg.replica_pids.len(), self.cfg.placement.partitions());
        if dim == 0 {
            return Snapshot::unconstrained();
        }
        match (
            self.cfg.spec.choose,
            self.cfg.spec.versioning.fixed_snapshot(),
        ) {
            // choose_last still ships mechanism-sized metadata (GMU*), but
            // the snapshot never constrains reads because it is never
            // pinned or observed.
            (ChooseRule::Last, _) => Snapshot::greedy(dim),
            (ChooseRule::Consistent, true) => Snapshot::fixed(&self.knowledge),
            (ChooseRule::Consistent, false) => Snapshot::greedy(dim),
        }
    }

    /// `choose` (Algorithm 1, lines 22–30): selects a version of `key` from
    /// the local store under `snap`, updating the snapshot context.
    fn choose_version(&mut self, key: Key, snap: &mut Snapshot) -> (Value, u64, Stamp) {
        use crate::spec::ChooseRule;
        let p = self.cfg.placement.partition_of(key).index();
        let rec = match self.cfg.spec.choose {
            ChooseRule::Last => self
                .store
                .latest(key)
                .unwrap_or_else(|| panic!("read of unhosted key {key} at {}", self.me)),
            ChooseRule::Consistent => {
                snap.pin(p, self.knowledge.get(p));
                self.store
                    .versions(key)
                    .unwrap_or_else(|| panic!("read of unhosted key {key} at {}", self.me))
                    .iter()
                    .rev()
                    .find(|r| snap.admits(&r.stamp))
                    .expect("the seed version is admissible in every snapshot")
            }
        };
        let out = (rec.value.clone(), rec.seq, rec.stamp.clone());
        if self.cfg.spec.choose == ChooseRule::Consistent {
            snap.observe(&out.2);
        }
        out
    }

    fn on_client_op(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        op: ClientOp,
    ) {
        if !matches!(op, ClientOp::Begin) && !self.coord.contains_key(&tx) {
            // The volatile execution state of this transaction is gone —
            // the coordinator crashed since `Begin` — so answer the client
            // with an abort instead of leaving it waiting forever.
            ctx.send(
                from,
                Msg::Reply {
                    tx,
                    reply: ClientReply::Outcome {
                        committed: false,
                        cause: Some(AbortCause::Crash),
                    },
                },
            );
            return;
        }
        match op {
            ClientOp::Begin => {
                ctx.trace(labels::TXN_BEGIN, tx_code(tx.coord, tx.seq), 0);
                let snapshot = self.fresh_snapshot();
                self.coord.insert(tx, CoordTxn::new(from, snapshot));
                ctx.send(
                    from,
                    Msg::Reply {
                        tx,
                        reply: ClientReply::Began,
                    },
                );
            }
            ClientOp::Read { key } => self.start_read(ctx, tx, key, None),
            ClientOp::Update { key, value } => self.start_read(ctx, tx, key, Some(value)),
            ClientOp::Commit => self.submit(ctx, tx),
        }
    }

    /// Starts a read (or the read half of a read-modify-write).
    fn start_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        key: Key,
        update: Option<Value>,
    ) {
        let Some(t) = self.coord.get(&tx) else {
            return; // transaction already aborted/untracked
        };
        // Read-your-writes from the buffer (Algorithm 1, line 10).
        if t.ws.iter().any(|w| w.key == key) {
            let client = t.client;
            let t = self.coord.get_mut(&tx).expect("present");
            let entry = t.ws.iter_mut().find(|w| w.key == key).expect("just found");
            let reply = match update {
                Some(v) => {
                    entry.value = v;
                    ClientReply::UpdateDone { key }
                }
                None => ClientReply::ReadDone {
                    key,
                    value: entry.value.clone(),
                },
            };
            ctx.send(client, Msg::Reply { tx, reply });
            return;
        }
        if self.is_local(key) {
            // The local frontier, too, may lag a snapshot the transaction
            // already holds (the sibling install of an admitted write is
            // still in flight): defer until it lands.
            let p = self.cfg.placement.partition_of(key).index();
            if let Some(bound) = self.read_blocked(p, &t.snapshot) {
                self.park_read(p, bound, DeferredRead::Local(tx, key, update));
                return;
            }
            let mut snap = std::mem::replace(
                &mut self.coord.get_mut(&tx).expect("present").snapshot,
                Snapshot::unconstrained(),
            );
            ctx.consume(self.cfg.costs.per_read);
            let (value, seq, _stamp) = self.choose_version(key, &mut snap);
            let t = self.coord.get_mut(&tx).expect("present");
            t.snapshot = snap;
            let reply = t.read_done(key, seq, value, update);
            ctx.send(t.client, Msg::Reply { tx, reply });
        } else {
            // Remote read (Algorithm 1, line 13): ask the nearest replica.
            let t = self.coord.get_mut(&tx).expect("present");
            t.pending_read = Some((key, update, 0));
            self.send_remote_read(ctx, tx, key, 0);
        }
    }

    /// Picks the read target for `key` at the given failover attempt:
    /// attempt 0 prefers the nearest unsuspected replica; later attempts
    /// rotate through the partition's unsuspected replicas, falling back to
    /// the full list if everything is suspected.
    fn read_target_site(&self, key: Key, attempt: usize) -> SiteId {
        let p = self.cfg.placement.partition_of(key);
        let replicas = self.cfg.placement.replicas(p);
        let live: Vec<SiteId> = replicas
            .iter()
            .copied()
            .filter(|s| !self.suspected.contains(s))
            .collect();
        let pool: &[SiteId] = if live.is_empty() { replicas } else { &live };
        let nearest = self.cfg.read_target[p.index()];
        if attempt == 0 && pool.contains(&nearest) {
            nearest
        } else {
            pool[attempt % pool.len()]
        }
    }

    /// Issues (or re-issues) a remote read for `key`, picking the replica
    /// by attempt number with failure suspicion.
    fn send_remote_read(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, key: Key, attempt: usize) {
        ctx.trace(
            labels::TXN_READ_REMOTE,
            tx_code(tx.coord, tx.seq),
            attempt as u64,
        );
        let target_site = self.read_target_site(key, attempt);
        let target = self.pid_of_site(target_site);
        let Some(t) = self.coord.get(&tx) else { return };
        let snap = t.snapshot.clone();
        ctx.consume(self.stamp_cost(snap.meta_entries()));
        ctx.send(target, Msg::ReadReq { tx, key, snap });
        let timer = self.arm(ctx, self.cfg.read_timeout, Timer::Read(tx));
        if let Some(t) = self.coord.get_mut(&tx) {
            t.read_timer = Some(timer);
        }
    }

    /// Timer entry point wired into the actor: runs what the timer armed
    /// under `tag` stands for. A retry or a timeout of a transaction the
    /// coordinator has decided meanwhile finds no `coord` entry and does
    /// nothing.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        match self.timers.remove(&tag) {
            Some(Timer::Catchup(peer)) => self.retry_catchup(ctx, peer),
            Some(Timer::TermRetry(tx)) => {
                let payload = self
                    .coord
                    .get(&tx)
                    .and_then(|t| t.submitted_payload.clone());
                if let Some(payload) = payload {
                    self.transmit(ctx, tx, payload);
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

    /// The read-failover timer of `tx` fired: if the read is still pending,
    /// suspect the unresponsive replica and re-iterate the request to
    /// another one.
    fn fail_over_read(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get_mut(&tx) else {
            return;
        };
        let Some((key, _, attempt)) = t.pending_read.as_mut() else {
            return;
        };
        let (key, prev_attempt) = (*key, *attempt);
        *attempt += 1;
        let attempt = prev_attempt + 1;
        let timed_out = self.read_target_site(key, prev_attempt);
        self.suspected.insert(timed_out);
        if self.cfg.max_read_attempts.is_some_and(|max| attempt >= max) {
            // The read cannot be served: every failover attempt is
            // exhausted, so the transaction aborts instead of re-iterating
            // forever.
            let t = self.coord.get_mut(&tx).expect("present");
            t.pending_read = None;
            t.read_timer = None;
            self.finish_coord(ctx, tx, false, Some(AbortCause::ReadImpossible));
        } else {
            self.send_remote_read(ctx, tx, key, attempt);
        }
        // New suspicion may unwedge orphaned queries at the queue head.
        self.process_queue(ctx);
    }

    /// Site of a replica process, if `pid` is one.
    fn try_site_of_pid(&self, pid: ProcessId) -> Option<SiteId> {
        self.cfg
            .replica_pids
            .iter()
            .position(|p| *p == pid)
            .map(|i| SiteId(i as u16))
    }

    fn on_read_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        key: Key,
        snap: Snapshot,
    ) {
        ctx.consume(self.cfg.costs.per_read + self.stamp_cost(snap.meta_entries()));
        self.stats.remote_reads_served += 1;
        self.serve_remote_read(ctx, from, tx, key, snap);
    }

    /// Parks `read` of partition `p` on what it waits for: the end of the
    /// recovery, or `knowledge[p]` reaching the snapshot's wait `bound`.
    fn park_read(&mut self, p: usize, bound: u64, read: DeferredRead) {
        self.stats.reads_parked += 1;
        if self.recovering() {
            return self.parked.recovery.push(read);
        }
        let waiters = self.parked.frontier.entry((p, bound)).or_default();
        waiters.push(read);
    }

    /// Reads still parked (0 at idle once every recovery has completed and
    /// every admitted install has landed).
    pub fn parked_reads(&self) -> usize {
        let behind: usize = self.parked.frontier.values().map(Vec::len).sum();
        self.parked.recovery.len() + behind + self.parked.woken.len()
    }

    /// Serves the reads the running handler woke, so each reply leaves at
    /// the service end of the handler that made it servable. A read still
    /// held back by a second condition parks anew.
    fn serve_woken_reads(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.parked.woken.is_empty() {
            return;
        }
        let parked = self.stats.reads_parked;
        for read in std::mem::take(&mut self.parked.woken) {
            self.stats.parked_read_checks += 1;
            match read {
                DeferredRead::Remote(from, tx, key, snap) => {
                    self.serve_remote_read(ctx, from, tx, key, snap);
                }
                DeferredRead::Local(tx, key, update) => self.start_read(ctx, tx, key, update),
            }
        }
        // Only woken reads parked in the loop, and each was counted at its
        // arrival already.
        self.stats.reads_parked = parked;
        debug_assert!(self.parked.woken.is_empty(), "serving a read woke one");
    }

    /// Why a read of partition `p` under `snap` cannot be served now, as the
    /// wait bound to park it on: a recovery is rebuilding the store, or —
    /// under vote-time commit clocks — the visibility frontier lags the
    /// snapshot's wait bound, so this replica may still be missing installs
    /// the snapshot already admits and serving now would fracture atomic
    /// visibility.
    fn read_blocked(&self, p: usize, snap: &Snapshot) -> Option<u64> {
        let blocked = self.recovering()
            || (self.vote_clocked() && snap.wait_bound(p) > self.knowledge.get(p));
        blocked.then(|| snap.wait_bound(p))
    }

    /// Serves a remote read, or parks it until it can be served.
    fn serve_remote_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        key: Key,
        mut snap: Snapshot,
    ) {
        let p = self.cfg.placement.partition_of(key).index();
        if let Some(bound) = self.read_blocked(p, &snap) {
            self.park_read(p, bound, DeferredRead::Remote(from, tx, key, snap));
            return;
        }
        let (value, seq, stamp) = self.choose_version(key, &mut snap);
        ctx.send(
            from,
            Msg::ReadRep {
                tx,
                key,
                value,
                seq,
                stamp,
                snap,
            },
        );
    }

    fn on_read_rep(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        key: Key,
        value: Value,
        seq: u64,
        snap: Snapshot,
    ) {
        let Some(t) = self.coord.get_mut(&tx) else {
            return;
        };
        let Some((pending_key, update, _attempt)) = t.pending_read.take() else {
            return; // duplicate reply after a failover retry
        };
        if pending_key != key {
            // Stale reply of an earlier op; restore state and ignore.
            t.pending_read = Some((pending_key, update, _attempt));
            return;
        }
        let timer = t.read_timer.take();
        t.snapshot = snap;
        let reply = t.read_done(key, seq, value, update);
        let client = t.client;
        if let Some(timer) = timer {
            self.cancel(ctx, timer);
        }
        ctx.send(client, Msg::Reply { tx, reply });
    }

    // ------------------------------------------------------------------
    // Termination protocol (Algorithm 2)
    // ------------------------------------------------------------------

    /// `certifying_obj(T)` (Algorithm 2, line 11).
    fn certifying_keys(&self, t: &CoordTxn) -> Vec<Key> {
        use CertifyingObjRule::*;
        let rule = self.cfg.spec.certifying_obj;
        let read_only = t.ws.is_empty();
        // Who commits without synchronization.
        let exempt = match rule {
            Nothing => true,
            WriteSet | ReadWriteSet => false,
            WriteSetIfUpdate | ReadWriteSetIfUpdate | AllObjects => read_only,
            ReadWriteSetUnlessLocalQuery => read_only && t.rs.iter().all(|e| self.is_local(e.key)),
        };
        if exempt {
            return Vec::new();
        }
        let mut keys: Vec<Key> = match rule {
            WriteSet | WriteSetIfUpdate => Vec::new(),
            // Under `AllObjects` every replica participates; the key list
            // still names the accessed objects for certification.
            _ => t.rs.iter().map(|e| e.key).collect(),
        };
        for w in &t.ws {
            if !keys.contains(&w.key) {
                keys.push(w.key);
            }
        }
        keys
    }

    /// `submit(T)` (Algorithm 2, line 7): moves the transaction from
    /// `executing` to `submitted` and propagates it via `xcast`.
    fn submit(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get_mut(&tx) else {
            return;
        };
        t.submitted_at = ctx.now();
        let certifying = {
            let t = self.coord.get(&tx).expect("present");
            self.certifying_keys(t)
        };
        ctx.trace(
            labels::TXN_SUBMIT,
            tx_code(tx.coord, tx.seq),
            certifying.len() as u64,
        );
        if certifying.is_empty() {
            // Commit without synchronization (wait-free queries).
            self.finish_coord(ctx, tx, true, None);
            return;
        }
        if let Some(vt) = self.cfg.vote_timeout {
            self.arm(ctx, vt, Timer::VoteTimeout(tx));
        }
        let t = self.coord.get_mut(&tx).expect("present");
        t.certifying = certifying;
        let payload = TermPayload::new(
            tx,
            self.me,
            t.ws.is_empty(),
            std::sync::Arc::new(t.rs.clone()),
            std::sync::Arc::new(t.ws.clone()),
            std::sync::Arc::new(t.snapshot.dependency_vec()),
        );
        ctx.consume(self.stamp_cost(payload.dep.dim()));
        if let Some(wal) = self.wal.as_mut() {
            // §5.3 durable logging: the submitted transaction — sets,
            // after-values, and dependency vector — hits the log before any
            // termination message leaves, so a crashed coordinator can
            // resume retransmission from its log after restart.
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Submit {
                tx,
                rs: payload.rs.iter().map(|e| (e.key, e.seq)).collect(),
                ws: payload
                    .ws
                    .iter()
                    .map(|w| (w.key, w.base_seq, w.value.clone()))
                    .collect(),
                dep: payload.dep.iter().collect(),
            });
        }
        if !self.gc_mode() {
            // Kept for the retry `transmit` arms.
            self.coord.get_mut(&tx).expect("present").submitted_payload = Some(payload.clone());
        }
        self.transmit(ctx, tx, payload);
    }

    /// Propagates `payload` to the replicas of `certifying_obj(T)`
    /// (Algorithm 2, line 15) — the first time, on every retry and when a
    /// restarted coordinator resumes. Group communication relies on its
    /// ordered `xcast`; 2PC and Paxos Commit multicast and retry until the
    /// decision (Algorithm 4 in the crash-recovery model waits for crashed
    /// participants to come back online).
    fn transmit(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, payload: TermPayload) {
        let xcast = match self.cfg.spec.commitment {
            CommitmentKind::GroupCommunication { xcast } => xcast,
            CommitmentKind::TwoPhaseCommit | CommitmentKind::PaxosCommit => {
                let after = self.cfg.read_timeout.saturating_mul(4);
                self.arm(ctx, after, Timer::TermRetry(tx));
                XcastKind::Multicast
            }
        };
        let sites = if self.cfg.spec.certifying_obj == CertifyingObjRule::AllObjects {
            self.cfg.placement.all_sites().collect()
        } else {
            self.sites_of_keys(&self.coord[&tx].certifying)
        };
        // Built as an `Arc` once: every fan-out copy below shares it.
        let dests: std::sync::Arc<[ProcessId]> =
            sites.into_iter().map(|s| self.pid_of_site(s)).collect();
        let mut out = Vec::new();
        self.gc.xcast(xcast, dests, payload, &mut out);
        self.flush_gc(ctx, out);
    }

    fn flush_gc(&mut self, ctx: &mut Context<'_, Msg>, events: Vec<GcEvent<TermPayload>>) {
        for ev in events {
            match ev {
                GcEvent::Send { to, msg } => {
                    // Send-side marshaling: half the fixed per-message cost
                    // plus size-proportional serialization. Fan-outs (the
                    // AB-Cast sequencer, Skeen proposals) pay per copy.
                    let kb = gdur_sim::WireSize::wire_size(&msg) as u64;
                    ctx.consume(SimDuration::from_nanos(
                        self.cfg.costs.per_message.as_nanos() / 2
                            + self.cfg.costs.per_recv_kb.as_nanos() * kb / 2048,
                    ));
                    ctx.send(to, Msg::Gc(msg));
                }
                GcEvent::Deliver { payload, .. } => self.xdeliver(ctx, payload),
            }
        }
    }

    /// `xdeliver(T)` (Algorithm 2, line 16): enqueue into `Q` and run the
    /// commitment algorithm's vote step.
    fn xdeliver(&mut self, ctx: &mut Context<'_, Msg>, payload: TermPayload) {
        let tx = payload.tx;
        // Duplicate delivery (a coordinator retried termination): re-send
        // our vote if we already cast one; otherwise ignore.
        if self.done.contains(&tx) {
            // A restarted coordinator lost both our vote and the decision:
            // if the outcome is on durable record, answer it directly so
            // the retransmission loop terminates (§5.3).
            if payload.coord != self.me {
                if let Some(&commit) = self.decided_outcomes.get(&tx) {
                    let clocks = Vec::new();
                    ctx.send(payload.coord, Msg::Decide { tx, commit, clocks });
                }
            }
            return;
        }
        if let Some(p) = self.part.get(&tx) {
            if let Some(yes) = p.my_vote {
                if payload.coord != self.me {
                    // Re-send the identical vote, reservations included —
                    // voting is idempotent.
                    let clocks = p.reserved.clone();
                    ctx.send(payload.coord, Msg::Vote { tx, yes, clocks });
                }
            }
            return;
        }
        let gc_mode = self.gc_mode();
        let enqueued = self.certifier.enqueue(&payload);
        self.part.insert(
            tx,
            PartTxn {
                payload,
                my_vote: None,
                reserved: Vec::new(),
                decided_clocks: Vec::new(),
                outcome: None,
                ticket: enqueued.ticket,
            },
        );
        if gc_mode {
            ctx.trace(
                labels::CERT_ENQUEUE,
                tx_code(tx.coord, tx.seq),
                self.certifier.len() as u64,
            );
        }
        if let Some((commit, clocks)) = self.early_decide.remove(&tx) {
            // The coordinator decided before our ordered delivery arrived.
            self.on_decide(ctx, tx, commit, clocks);
            return;
        }
        if !gc_mode {
            // A queued transaction that does not commute turns the vote
            // negative (Algorithm 4, line 3).
            self.cast_vote(ctx, tx, enqueued.conflict);
        } else if self.cfg.spec.votes == VoteRule::LocalDecide {
            self.local_decide(ctx, tx);
        } else {
            // Convoy: a conflicting predecessor in Q defers the vote until
            // it leaves (Algorithm 3, line 3).
            if !enqueued.conflict {
                self.cast_vote(ctx, tx, false);
            }
            // Votes may have raced ahead of the ordered delivery.
            self.check_part_outcome(ctx, tx);
        }
    }

    /// `tx` left the certifier: its waiters lose a blocker each, in
    /// delivery order, and one whose last blocker this was casts its
    /// deferred vote before the next is looked at.
    fn wake(&mut self, ctx: &mut Context<'_, Msg>, waiters: Vec<Ticket>) {
        for w in waiters {
            if let Some(tx) = self.certifier.unblock(w) {
                self.cast_vote(ctx, tx, false);
            }
        }
    }

    /// `certify(T)` against this replica's local state, at its CPU cost.
    fn certify(&mut self, ctx: &mut Context<'_, Msg>, payload: &TermPayload) -> bool {
        let items = (payload.rs.len() + payload.ws.len()) as u64;
        let costs = &self.cfg.costs;
        ctx.consume(costs.per_certify + costs.per_certify_item.saturating_mul(items));
        self.stats.certifications += 1;
        // Version `seq` of a key hosted here is still its latest.
        let current =
            |key, seq| !self.is_local(key) || self.store.latest_seq(key).unwrap_or(0) <= seq;
        match self.cfg.spec.certify {
            CertifyRule::AlwaysPass => true,
            CertifyRule::ReadSetCurrent => payload.rs.iter().all(|e| current(e.key, e.seq)),
            // Serrano: certify against the replicated version table
            // covering all objects.
            CertifyRule::WriteSetCurrent if self.cfg.spec.votes == VoteRule::LocalDecide => payload
                .ws
                .iter()
                .all(|w| *self.meta.get(&w.key).unwrap_or(&0) <= w.base_seq),
            CertifyRule::WriteSetCurrent => payload.ws.iter().all(|w| current(w.key, w.base_seq)),
        }
    }

    /// CPU cost of marshaling `entries` entries of versioning metadata.
    fn stamp_cost(&self, entries: usize) -> SimDuration {
        self.cfg
            .costs
            .per_stamp_entry
            .saturating_mul(entries as u64)
    }

    /// Action `vote` of Algorithms 3 and 4: certify `tx` — or, with
    /// `preempt`, vote *no* uncertified because a queued transaction does
    /// not commute with it (Algorithm 4, line 3) — reserve the commit
    /// clocks of a *yes*, and send the vote.
    fn cast_vote(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, preempt: bool) {
        let Some(p) = self.part.get(&tx) else { return };
        if p.my_vote.is_some() || p.outcome.is_some() {
            return;
        }
        if self.recovering() {
            // Certifying against a mid-rebuild store could contradict the
            // votes of this partition's peers; the vote parks until
            // catch-up completes (`finish_catchup` sweeps unvoted entries).
            return;
        }
        let payload = p.payload.clone();
        let yes = if preempt {
            self.stats.preemptive_aborts += 1;
            false
        } else {
            self.certify(ctx, &payload)
        };
        let clocks = if yes {
            self.reserve_clocks(&payload)
        } else {
            Vec::new()
        };
        {
            let p = self.part.get_mut(&tx).expect("present");
            p.my_vote = Some(yes);
            p.reserved = clocks.clone();
        }
        self.stats.votes_cast += 1;
        ctx.trace(
            labels::TXN_VOTE,
            tx_code(tx.coord, tx.seq),
            vote_value(self.me, yes),
        );
        self.send_vote(ctx, &payload, yes, clocks);
    }

    /// Sends a vote to the coordinator and, in GC mode, to
    /// `replicas(vote_recv_obj)` as well.
    ///
    /// `vote_recv_obj` there is the full certifying set (the paper's "might
    /// be larger in certain cases", Figure 2-a): every participant receives
    /// every vote and decides locally, which also lets participants
    /// terminate transactions whose coordinator crashed. 2PC and Paxos
    /// Commit participants wait for the coordinator's decision instead.
    fn send_vote(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        payload: &TermPayload,
        yes: bool,
        mut clocks: Vec<(u32, u64)>,
    ) {
        let tx = payload.tx;
        let mut targets: Vec<ProcessId> = match self.cfg.spec.commitment {
            // AB-Cast delivers to every replica; all of them sit in Q and
            // need the votes to terminate ("all replicas must receive the
            // certification votes", §5.1).
            CommitmentKind::GroupCommunication {
                xcast: XcastKind::AbCast,
            } => self.cfg.replica_pids.clone(),
            CommitmentKind::GroupCommunication { .. } => {
                let keys = payload
                    .rs
                    .iter()
                    .map(|e| e.key)
                    .chain(payload.ws.iter().map(|w| w.key));
                keys.flat_map(|k| self.cfg.placement.replicas_of_key(k))
                    .map(|s| self.pid_of_site(*s))
                    .collect()
            }
            CommitmentKind::TwoPhaseCommit | CommitmentKind::PaxosCommit => Vec::new(),
        };
        targets.push(payload.coord);
        // Votes leave in ascending pid order, one per process.
        targets.sort_unstable();
        targets.dedup();
        let last = targets.len() - 1;
        for (i, t) in targets.into_iter().enumerate() {
            // The last recipient takes the reservations themselves.
            let clocks = if i == last {
                std::mem::take(&mut clocks)
            } else {
                clocks.clone()
            };
            if t == self.me {
                self.record_vote(ctx, tx, self.cfg.site, yes, clocks);
            } else {
                ctx.send(t, Msg::Vote { tx, yes, clocks });
            }
        }
    }

    /// Serrano's vote-free decision: certify at delivery, in total order,
    /// against the replicated version table; every replica reaches the same
    /// verdict.
    fn local_decide(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let payload = self.part.get(&tx).expect("just delivered").payload.clone();
        let commit = self.certify(ctx, &payload);
        if commit {
            for w in payload.ws.iter() {
                let e = self.meta.entry(w.key).or_insert(0);
                *e = (*e).max(w.base_seq + 1);
            }
        }
        self.part.get_mut(&tx).expect("present").outcome = Some(commit);
        self.process_queue(ctx);
        if payload.coord == self.me {
            self.finish_coord(ctx, tx, commit, None);
        }
    }

    /// Accumulates a vote; both coordinator-side and participant-side
    /// decisions key off this shared state.
    fn record_vote(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        site: SiteId,
        yes: bool,
        clocks: Vec<(u32, u64)>,
    ) {
        if self.done.contains(&tx) && !self.coord.contains_key(&tx) {
            return;
        }
        {
            let v = self.votes.entry(tx).or_default();
            if yes {
                if let Err(i) = v.yes_sites.binary_search(&site) {
                    v.yes_sites.insert(i, site);
                }
                for (p, s) in clocks {
                    match v.clocks.iter_mut().find(|(q, _)| *q == p) {
                        Some(e) => e.1 = e.1.max(s),
                        None => v.clocks.push((p, s)),
                    }
                }
            } else {
                v.any_no = true;
            }
        }
        self.check_coord_outcome(ctx, tx);
        self.check_part_outcome(ctx, tx);
    }

    /// The `outcome(T)` predicate over the votes `v` received so far for a
    /// transaction with the given certifying keys: abort on any *no*; commit
    /// once every key is covered by *yes* votes — of one of its replicas in
    /// GC mode (the voting quorum of Algorithm 3), of all of them under 2PC
    /// and Paxos Commit; undecided until then.
    fn outcome(&self, v: &VoteState, mut certifying: impl Iterator<Item = Key>) -> Option<bool> {
        if v.any_no {
            return Some(false);
        }
        let gc_mode = self.gc_mode();
        let covered = certifying.all(|k| {
            let mut replicas = self.cfg.placement.replicas_of_key(k).iter();
            if gc_mode {
                replicas.any(|s| v.yes_sites.contains(s))
            } else {
                replicas.all(|s| v.yes_sites.contains(s))
            }
        });
        covered.then_some(true)
    }

    /// Coordinator side of `outcome(T)`: decide — through a Paxos round
    /// under Paxos Commit — as soon as the votes allow.
    fn check_coord_outcome(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get(&tx) else { return };
        if t.certifying.is_empty() {
            return;
        }
        let Some(v) = self.votes.get(&tx) else { return };
        let Some(commit) = self.outcome(v, t.certifying.iter().copied()) else {
            return;
        };
        if self.cfg.spec.commitment == CommitmentKind::PaxosCommit {
            self.start_paxos_round(ctx, tx, commit);
        } else {
            self.decide_and_announce(ctx, tx, commit, None);
        }
    }

    /// Paxos Commit: replicate the decision on a majority of acceptors
    /// before announcing it.
    fn start_paxos_round(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) {
        let t = self.coord.get_mut(&tx).expect("present");
        if t.paxos_decision.is_some() {
            return;
        }
        t.paxos_decision = Some(commit);
        t.paxos_acks = 1; // the coordinator accepts its own decision
        for s in self.cfg.placement.all_sites() {
            let pid = self.pid_of_site(s);
            if pid != self.me {
                ctx.send(pid, Msg::PaxosAccept { tx, commit });
            }
        }
        self.check_paxos_majority(ctx, tx);
    }

    fn check_paxos_majority(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let n = self.cfg.placement.sites();
        let Some(t) = self.coord.get(&tx) else { return };
        let Some(commit) = t.paxos_decision else {
            return;
        };
        if t.paxos_acks > n / 2 {
            self.decide_and_announce(ctx, tx, commit, None);
        }
    }

    /// Coordinator decision: notify the client, announce to participants
    /// that do not learn the outcome from votes.
    fn decide_and_announce(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        cause: Option<AbortCause>,
    ) {
        let t = self.coord.get(&tx).expect("deciding an unknown txn");
        // The merged vote-clock reservations: complete commit-vector
        // entries for every written partition, shipped with the decision.
        let clocks = self
            .votes
            .get(&tx)
            .map(|v| v.clocks.clone())
            .unwrap_or_default();
        // 2PC and Paxos Commit participants wait for the decision. Every GC
        // participant receives every vote and decides locally (Figure 2-a);
        // no explicit decision fan-out is needed — except for a vote-timeout
        // abort, which by definition has no votes to learn the outcome from,
        // so it must be fanned out or the participants' queues stay wedged
        // on the undecided entry.
        let announce_sites = if !self.gc_mode() || cause == Some(AbortCause::VoteTimeout) {
            self.sites_of_keys(&t.certifying)
        } else {
            BTreeSet::new()
        };
        for s in announce_sites {
            let pid = self.pid_of_site(s);
            if pid != self.me {
                let clocks = clocks.clone();
                ctx.send(pid, Msg::Decide { tx, commit, clocks });
            }
        }
        // Apply the local participant's copy, if any.
        self.on_decide(ctx, tx, commit, clocks);
        self.finish_coord(ctx, tx, commit, cause);
    }

    /// Final coordinator bookkeeping: reply to the client, record history.
    /// `cause` names why an abort happened (defaulting to certification
    /// conflict); it partitions `stats.aborted` exactly.
    fn finish_coord(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        cause: Option<AbortCause>,
    ) {
        // Leaving `coord` is what marks the transaction decided: retries,
        // timeouts and late decisions look it up and find nothing.
        let Some(t) = self.coord.remove(&tx) else {
            return;
        };
        self.votes.remove(&tx);
        self.stats.coordinated += 1;
        let cause = (!commit).then_some(cause.unwrap_or(AbortCause::CertificationConflict));
        if commit {
            self.stats.committed += 1;
        } else {
            self.stats.aborted += 1;
            match cause.expect("set on abort") {
                AbortCause::CertificationConflict => self.stats.aborted_cert_conflict += 1,
                AbortCause::VoteTimeout => self.stats.aborted_vote_timeout += 1,
                AbortCause::ReadImpossible => self.stats.aborted_read_impossible += 1,
                AbortCause::Crash => self.stats.aborted_crash += 1,
            }
        }
        let code = tx_code(tx.coord, tx.seq);
        ctx.trace(labels::TXN_DECIDE, code, commit as u64);
        if let Some(c) = cause {
            ctx.trace(labels::TXN_ABORT, code, c.code());
        }
        ctx.send(
            t.client,
            Msg::Reply {
                tx,
                reply: ClientReply::Outcome {
                    committed: commit,
                    cause,
                },
            },
        );
        if self.cfg.record_history {
            let rec = TxnOutcomeRecord {
                tx,
                committed: commit,
                read_only: t.ws.is_empty(),
                rs: t.rs,
                ws: t.ws.iter().map(|w| (w.key, w.base_seq)).collect(),
                submitted_at: if t.submitted_at == SimTime::ZERO {
                    ctx.now()
                } else {
                    t.submitted_at
                },
                decided_at: ctx.now(),
            };
            self.outcomes.push(rec);
        }
    }

    /// Participant side of `outcome(T)`: in GC mode every `vote_recv`
    /// replica decides locally from the votes (Figure 2-a); 2PC and Paxos
    /// Commit participants, and Serrano's vote-free ones, never do.
    fn check_part_outcome(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        if !self.gc_mode() || self.cfg.spec.votes == VoteRule::LocalDecide {
            return;
        }
        let Some(p) = self.part.get(&tx) else { return };
        if p.outcome.is_some() {
            return;
        }
        let Some(v) = self.votes.get(&tx) else { return };
        // vote_snd_obj = certifying_obj: check coverage of the certifying
        // set straight off the payload under this protocol's rule
        // (duplicate keys re-check a pure predicate, so no dedup pass is
        // needed).
        let rs: &[ReadEntry] = match self.cfg.spec.certifying_obj {
            CertifyingObjRule::WriteSet | CertifyingObjRule::WriteSetIfUpdate => &[],
            _ => &p.payload.rs,
        };
        let certifying = rs
            .iter()
            .map(|e| e.key)
            .chain(p.payload.ws.iter().map(|w| w.key));
        let Some(commit) = self.outcome(v, certifying) else {
            return;
        };
        // GC-mode participants terminate from votes without an explicit
        // `Decide`: the decision taken here is logged and applied like a
        // received one, so recovery and catch-up see every decision, not
        // just coordinated ones.
        let merged_clocks = v.clocks.clone();
        self.on_decide(ctx, tx, commit, merged_clocks);
    }

    /// Decision received, or taken locally: logged, recorded on the
    /// participation together with the merged vote clocks, and applied when
    /// the commitment algorithm says so.
    fn on_decide(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        clocks: Vec<(u32, u64)>,
    ) {
        if let Some(wal) = self.wal.as_mut() {
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Decision { tx, commit });
            self.decided_outcomes.insert(tx, commit);
        }
        let Some(p) = self.part.get_mut(&tx) else {
            if !self.done.contains(&tx) {
                self.early_decide.insert(tx, (commit, clocks));
            }
            return;
        };
        let commit = *p.outcome.get_or_insert(commit);
        if p.decided_clocks.is_empty() {
            p.decided_clocks = clocks;
        }
        if self.gc_mode() {
            // Apply in delivery order (Algorithm 3, line 10).
            self.process_queue(ctx);
        } else if !self.recovering() {
            // Spontaneous order: apply and terminate immediately — unless a
            // catch-up transfer is rebuilding the store, in which case the
            // entry parks (outcome recorded above) until the
            // `finish_catchup` sweep. Nobody waits on a 2PC/Paxos
            // participation.
            self.terminate(ctx, tx, commit);
        }
    }

    /// Terminates this replica's participation in `tx`: applies the commit
    /// (or resolves the reservations of an abort), takes the transaction
    /// out of the certifier and forgets its votes. Returns the tickets whose
    /// deferred vote waited for it.
    fn terminate(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) -> Vec<Ticket> {
        let p = self.part.remove(&tx).expect("present");
        if commit {
            self.apply(ctx, &p.payload, &p.decided_clocks, &p.reserved);
        } else {
            // Aborted reservations resolve too, or the frontier would stall
            // on their slots forever.
            self.resolve_reservations(&p.reserved);
        }
        self.votes.remove(&tx);
        self.done.insert(tx);
        self.certifier.leave(p.ticket, &p.payload)
    }

    /// Pops every decided transaction at the head of `Q`, applying commits
    /// and waking deferred votes whose convoy has cleared.
    ///
    /// Orphaned queries — undecided read-only transactions whose
    /// coordinator's site is suspected crashed — are aborted locally: they
    /// install nothing, so a divergent outcome is harmless and unwedges the
    /// apply order. Orphaned *update* transactions at their write-set
    /// replicas terminate through the votes those replicas receive; crashed
    /// replicas rebuild through [`Replica::on_restart`] and the catch-up
    /// transfer instead.
    ///
    /// While a catch-up transfer is in flight this is a no-op: installing
    /// here would assign per-key sequence numbers against a stale store and
    /// diverge from the peers. `finish_catchup` drains the queue once the
    /// store is current.
    fn process_queue(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.recovering() {
            return;
        }
        while let Some(head) = self.certifier.front() {
            let p = self.part.get(&head).expect("queued");
            let mut outcome = p.outcome;
            if outcome.is_none() && p.payload.read_only {
                if let Some(site) = self.try_site_of_pid(p.payload.coord) {
                    if self.suspected.contains(&site) {
                        outcome = Some(false);
                        // An orphan discard, not a coordinated abort: kept
                        // out of the coordinator-side cause partition.
                        ctx.trace(
                            labels::CERT_ORPHAN,
                            tx_code(head.coord, head.seq),
                            AbortCause::Crash.code(),
                        );
                    }
                }
            }
            let Some(commit) = outcome else {
                break;
            };
            // The entry is gone before anyone is woken: neither the votes
            // nor the nested pops the wake-up triggers look at a
            // transaction that has left Q.
            let waiters = self.terminate(ctx, head, commit);
            ctx.trace(
                labels::CERT_DEQUEUE,
                tx_code(head.coord, head.seq),
                self.certifier.len() as u64,
            );
            self.wake(ctx, waiters);
        }
    }

    /// True if commit vectors are assembled from vote-time clock
    /// reservations: voting commitment over a vector mechanism. Vote-free
    /// total-order protocols (`LocalDecide`) and scalar TS keep the legacy
    /// bump-at-install clocks.
    fn vote_clocked(&self) -> bool {
        !self.cfg.bug_unreserved_commit_clocks
            && self.cfg.spec.votes == VoteRule::Distributed
            && self.cfg.spec.versioning != Mechanism::Ts
    }

    /// Reserves this replica's commit-clock slots for `payload`'s locally
    /// hosted written partitions. Called on every yes vote; the slots ride
    /// in the vote so the coordinator can assemble one complete commit
    /// vector covering every written partition.
    fn reserve_clocks(&mut self, payload: &TermPayload) -> Vec<(u32, u64)> {
        if !self.vote_clocked() {
            return Vec::new();
        }
        let mut out: Vec<(u32, u64)> = Vec::new();
        for w in payload.ws.iter() {
            if !self.is_local(w.key) {
                continue;
            }
            let p = self.cfg.placement.partition_of(w.key).index();
            if out.iter().any(|(q, _)| *q as usize == p) {
                continue;
            }
            let s = self.reserved.get(p).max(self.knowledge.get(p)) + 1;
            self.reserved.set(p, s);
            out.push((p as u32, s));
        }
        out
    }

    /// Marks reservation `s` of partition `p` resolved (installed or
    /// aborted). The visibility frontier advances only over contiguous
    /// resolutions, so snapshots never admit in-flight commits.
    fn resolve_clock(&mut self, p: usize, s: u64) {
        if s <= self.knowledge.get(p) {
            return;
        }
        let ahead = self.resolved_ahead.entry(p).or_default();
        ahead.insert(s);
        let mut frontier = self.knowledge.get(p);
        while ahead.remove(&(frontier + 1)) {
            frontier += 1;
        }
        if ahead.is_empty() {
            self.resolved_ahead.remove(&p);
        }
        self.advance_frontier(p, frontier);
    }

    /// Moves partition `p`'s entry of the visibility frontier to `s` and
    /// wakes the parked reads whose wait bound it reaches. Every write to
    /// `knowledge` goes through here, except `on_restart`'s rebuild from
    /// the log (which drops every waiter with the rest of the volatile
    /// state): the frontier never moves backwards.
    fn advance_frontier(&mut self, p: usize, s: u64) {
        debug_assert!(
            s >= self.knowledge.get(p),
            "visibility frontier of partition {p} moved backwards"
        );
        self.knowledge.set(p, s);
        let parked = &mut self.parked;
        if !parked.frontier.is_empty() {
            let reached = parked.frontier.extract_if((p, 0)..=(p, s), |_, _| true);
            parked.woken.extend(reached.flat_map(|(_, reads)| reads));
        }
    }

    fn resolve_reservations(&mut self, reserved: &[(u32, u64)]) {
        for (p, s) in reserved {
            self.resolve_clock(*p as usize, *s);
        }
    }

    /// Applies after-values of locally hosted partitions and runs the
    /// `post_commit` hook.
    fn apply(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        payload: &TermPayload,
        decided_clocks: &[(u32, u64)],
        reserved: &[(u32, u64)],
    ) {
        use crate::spec::PostCommitRule;
        let vote_clocked = self.vote_clocked() && !decided_clocks.is_empty();
        // Resolve this replica's own reservations first: the frontier
        // advance and the installs below land in the same simulation event,
        // so they are atomic to every other process.
        if vote_clocked {
            self.resolve_reservations(reserved);
        }
        let mut bumped: Vec<(usize, u64)> = Vec::new();
        // First pass: fix the partition clock entry once per locally
        // written partition — the vote-time reservation when the decision
        // carries one, a fresh bump otherwise (legacy clocks).
        for w in payload.ws.iter() {
            let p = self.cfg.placement.partition_of(w.key).index();
            if !self.is_local(w.key) || bumped.iter().any(|(q, _)| *q == p) {
                continue;
            }
            let s = match decided_clocks.iter().find(|(q, _)| *q as usize == p) {
                Some((_, s)) if vote_clocked => *s,
                _ => {
                    let s = self.knowledge.get(p) + 1;
                    self.advance_frontier(p, s);
                    s
                }
            };
            bumped.push((p, s));
        }
        // Commit vector: dependencies + this transaction's own entries. In
        // vote-clocked mode the decision's merged reservations cover every
        // written partition, local or not, so every install of the
        // transaction (at every replica) carries the same complete vector.
        let mut commit_vec = (*payload.dep).clone();
        if commit_vec.dim() == self.knowledge.dim() {
            for (p, s) in &bumped {
                if commit_vec.get(*p) < *s {
                    commit_vec.set(*p, *s);
                }
            }
            if vote_clocked {
                for (q, s) in decided_clocks {
                    let q = *q as usize;
                    if q < commit_vec.dim() && commit_vec.get(q) < *s {
                        commit_vec.set(q, *s);
                    }
                }
            }
        }
        for w in payload.ws.iter() {
            if !self.is_local(w.key) {
                continue;
            }
            if self
                .store
                .latest(w.key)
                .is_some_and(|r| r.writer == payload.tx)
            {
                // Already installed — the catch-up transfer shipped this
                // write while the transaction was parked. Re-installing
                // would mint a duplicate version with a fresh sequence.
                continue;
            }
            let p = self.cfg.placement.partition_of(w.key);
            let stamp = match self.cfg.spec.versioning {
                Mechanism::Ts => {
                    Stamp::Ts(self.store.latest_seq(w.key).map(|s| s + 1).unwrap_or(0))
                }
                _ => Stamp::Vec {
                    origin: p.0,
                    vec: commit_vec.clone(),
                },
            };
            self.install(ctx, w.key, &w.value, stamp, payload.tx);
            self.stats.applies += 1;
        }
        ctx.trace(
            labels::TXN_INSTALL,
            tx_code(payload.tx.coord, payload.tx.seq),
            payload.ws.len() as u64,
        );
        if self.cfg.spec.post_commit == PostCommitRule::PropagateStamps {
            for (p, s) in bumped {
                let part = gdur_store::PartitionId(p as u32);
                if self.cfg.placement.replicas(part)[0] == self.cfg.site {
                    // Vote-clocked mode propagates the resolved frontier,
                    // never a reservation that may still have in-flight
                    // commits below it.
                    let seq = if vote_clocked {
                        self.knowledge.get(p)
                    } else {
                        s
                    };
                    for site in self.cfg.placement.all_sites() {
                        let pid = self.pid_of_site(site);
                        if pid != self.me {
                            ctx.send(
                                pid,
                                Msg::Propagate {
                                    partition: p as u32,
                                    seq,
                                },
                            );
                            self.stats.propagates_sent += 1;
                        }
                    }
                }
            }
        }
    }

    /// Installs one version: into the store, the durable log when one is
    /// attached, and the recorded history.
    fn install(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        key: Key,
        value: &Value,
        stamp: Stamp,
        writer: TxId,
    ) {
        ctx.consume(self.cfg.costs.per_apply);
        let seq = self
            .store
            .install(key, value.clone(), stamp.clone(), writer);
        if let Some(wal) = self.wal.as_mut() {
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Install {
                key,
                seq,
                stamp,
                writer,
                value: value.clone(),
            });
        }
        if self.cfg.record_history {
            let at = ctx.now();
            self.installs.push(InstallEvent {
                key,
                seq,
                tx: writer,
                at,
            });
        }
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
                stamp: _,
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
                self.finish_coord(ctx, tx, commit, None);
                self.on_decide(ctx, tx, commit, clocks);
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

    // ------------------------------------------------------------------
    // Crash recovery (§5.3)
    // ------------------------------------------------------------------

    /// Install records per catch-up reply page.
    const CATCHUP_PAGE: u32 = 256;

    /// True while a catch-up transfer is rebuilding the store. Reads defer,
    /// votes park, and the termination queue does not drain until the
    /// transfer completes: acting on a stale store would mint per-key
    /// sequences (and votes) that diverge from the rest of the partition.
    fn recovering(&self) -> bool {
        self.catchup.is_some()
    }

    /// Rebuilds the replica after a scheduled kernel restart (§5.3).
    ///
    /// The durable state is the initial load plus the write-ahead log;
    /// everything else — mailbox, timers, in-memory protocol state — died
    /// with the crash. Recovery replays committed installs into a fresh
    /// store, re-derives the visibility frontier from their stamps, marks
    /// logged decisions as terminated, rebuilds the coordinator entry of
    /// every `Submit` without a matching `Decision` (a mid-commit crash),
    /// and then starts the peer catch-up transfer. Retransmission of the
    /// rebuilt terminations waits for `finish_catchup`, so the self-
    /// delivered vote certifies against a current store.
    pub fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        // A parked read is a request in progress: like the mailbox, it
        // died with the crash, with or without a log.
        self.parked = ParkedReads::default();
        let Some(wal) = self.wal.take() else {
            // No persistence attached: the legacy state-retained restart
            // (tests/failures.rs) keeps the pre-crash in-memory state.
            return;
        };
        self.stats.recoveries += 1;
        // Re-open the log from its durable byte image — recovery must not
        // depend on the in-memory `Wal` value that died with the process.
        let wal = gdur_persist::Wal::from_image(wal.as_bytes());
        self.coord.clear();
        self.part.clear();
        self.votes.clear();
        self.certifier.clear();
        self.early_decide.clear();
        self.timers.clear();
        self.suspected.clear();
        self.done = TerminatedSet::default();
        self.decided_outcomes.clear();
        self.meta.clear();
        self.resolved_ahead.clear();
        self.catchup = None;
        self.gc = GroupComm::new(self.me, self.cfg.replica_pids.clone());
        // The fresh AB-Cast engine would otherwise wait forever on the
        // delivery gap that died with the crash; the skipped sequences are
        // recovered through WAL replay and peer catch-up instead.
        self.gc.rejoin();
        let partitions = self.cfg.placement.partitions();
        let dim = self
            .cfg
            .spec
            .versioning
            .dim(self.cfg.replica_pids.len(), partitions);
        // The durable initial load: the seed image, every write forgotten.
        let mut store = self.store.pristine();
        let mut knowledge = VersionVec::zero(dim.max(partitions));
        // Scalar-timestamp mechanisms carry no vector in their stamps; the
        // frontier there counts one bump per (partition, writer), mirroring
        // the live path's bump-once-per-transaction-per-partition.
        let mut ts_bumps: BTreeSet<(u32, TxId)> = BTreeSet::new();
        type SubmitReplay = (TxId, Vec<(Key, u64)>, Vec<(Key, u64, Value)>, Vec<u64>);
        let mut submits: Vec<SubmitReplay> = Vec::new();
        let mut replayed: u64 = 0;
        for rec in wal.scan() {
            ctx.consume(self.cfg.costs.per_log_append);
            match rec {
                gdur_persist::LogRecord::Install {
                    key,
                    seq: _,
                    stamp,
                    writer,
                    value,
                } => {
                    match stamp.as_vec() {
                        Some(vec) if vec.dim() == knowledge.dim() => knowledge.merge(vec),
                        _ => {
                            ts_bumps.insert((self.cfg.placement.partition_of(key).0, writer));
                        }
                    }
                    store.install(key, value, stamp, writer);
                    replayed += 1;
                }
                gdur_persist::LogRecord::Decision { tx, commit } => {
                    self.done.insert(tx);
                    self.decided_outcomes.insert(tx, commit);
                }
                gdur_persist::LogRecord::Submit { tx, rs, ws, dep } => {
                    submits.push((tx, rs, ws, dep));
                }
                gdur_persist::LogRecord::Checkpoint => {}
            }
        }
        for (p, _) in &ts_bumps {
            let p = *p as usize;
            knowledge.set(p, knowledge.get(p) + 1);
        }
        self.store = store;
        self.knowledge = knowledge;
        self.reserved = self.knowledge.clone();
        if self.cfg.spec.votes == VoteRule::LocalDecide {
            // Serrano's replicated version table covers *all* objects and
            // advances on every certified commit; the local store (which
            // holds only local partitions) is the best durable
            // approximation.
            for k in self.store.keys().collect::<Vec<_>>() {
                if let Some(s) = self.store.latest_seq(k) {
                    if s > 0 {
                        self.meta.insert(k, s);
                    }
                }
            }
        }
        ctx.trace(labels::RECOVERY_REPLAY, 0, replayed);
        self.wal = Some(wal);
        // Mid-commit coordinated transactions: rebuild the coordinator
        // entry and the termination payload; the multicast itself is
        // deferred to `finish_catchup`.
        for (tx, rs, ws, dep) in submits {
            if self.decided_outcomes.contains_key(&tx) {
                continue;
            }
            let rs: Vec<ReadEntry> = rs
                .into_iter()
                .map(|(key, seq)| ReadEntry { key, seq })
                .collect();
            let ws: Vec<WriteEntry> = ws
                .into_iter()
                .map(|(key, base_seq, value)| WriteEntry {
                    key,
                    value,
                    base_seq,
                })
                .collect();
            let mut t = CoordTxn::new(ProcessId(tx.coord), Snapshot::unconstrained());
            t.submitted_at = ctx.now();
            t.submitted_payload = Some(TermPayload::new(
                tx,
                self.me,
                ws.is_empty(),
                std::sync::Arc::new(rs.clone()),
                std::sync::Arc::new(ws.clone()),
                std::sync::Arc::new(VersionVec::from_entries(dep)),
            ));
            (t.rs, t.ws) = (rs, ws);
            t.certifying = self.certifying_keys(&t);
            self.coord.insert(tx, t);
        }
        self.start_catchup(ctx);
        self.serve_woken_reads(ctx);
    }

    /// Starts the peer state transfer: one request stream per peer, each
    /// covering the local partitions that peer also hosts. Partitions with
    /// no second replica cannot be caught up (their committed-but-unlogged
    /// tail is unrecoverable); the WAL replay is all they get.
    fn start_catchup(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut pending: BTreeMap<ProcessId, CatchupPeer> = BTreeMap::new();
        for p in self.cfg.placement.partitions_at(self.cfg.site) {
            let Some(peer) = self
                .cfg
                .placement
                .replicas(p)
                .iter()
                .copied()
                .find(|s| *s != self.cfg.site)
            else {
                continue;
            };
            pending
                .entry(self.pid_of_site(peer))
                .or_insert_with(|| CatchupPeer {
                    partitions: Vec::new(),
                    from: 0,
                    attempt: 0,
                    timer: None,
                })
                .partitions
                .push(p.0);
        }
        let peers: Vec<ProcessId> = pending.keys().copied().collect();
        self.catchup = Some(CatchupState {
            pending,
            applied: 0,
        });
        if peers.is_empty() {
            self.finish_catchup(ctx);
            return;
        }
        for peer in peers {
            self.send_catchup_req(ctx, peer);
        }
    }

    /// Sends (or re-sends) the next catch-up page request to `peer` and
    /// arms the retry timer that rotates to another replica if the peer
    /// stays silent.
    fn send_catchup_req(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcessId) {
        let Some((partitions, from)) = self
            .catchup
            .as_ref()
            .and_then(|cu| cu.pending.get(&peer))
            .map(|p| (p.partitions.clone(), p.from))
        else {
            return;
        };
        let after = self.cfg.read_timeout.saturating_mul(4);
        let timer = self.arm(ctx, after, Timer::Catchup(peer));
        if let Some(p) = self
            .catchup
            .as_mut()
            .and_then(|cu| cu.pending.get_mut(&peer))
        {
            p.timer = Some(timer);
        }
        ctx.trace(labels::RECOVERY_CATCHUP_REQ, 0, partitions.len() as u64);
        ctx.send(
            peer,
            Msg::CatchupReq {
                partitions,
                from,
                max: Self::CATCHUP_PAGE,
            },
        );
    }

    /// Catch-up retry: the peer did not answer within the timeout. Suspect
    /// it and rotate its partitions to another replica, restarting that
    /// stream from record zero (pages are idempotent, so overlap is safe).
    fn retry_catchup(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcessId) {
        let Some(mut entry) = self
            .catchup
            .as_mut()
            .and_then(|cu| cu.pending.remove(&peer))
        else {
            return;
        };
        if let Some(site) = self.try_site_of_pid(peer) {
            self.suspected.insert(site);
        }
        entry.attempt += 1;
        entry.timer = None;
        // Candidate replicas for this stream's partitions, preferring
        // unsuspected ones; fall back to the full pool (the suspicion may
        // be wrong) before giving up.
        let mut pool: Vec<ProcessId> = Vec::new();
        for p in &entry.partitions {
            for s in self.cfg.placement.replicas(gdur_store::PartitionId(*p)) {
                let pid = self.pid_of_site(*s);
                if *s != self.cfg.site && !pool.contains(&pid) {
                    pool.push(pid);
                }
            }
        }
        let unsuspected: Vec<ProcessId> = pool
            .iter()
            .copied()
            .filter(|pid| {
                self.try_site_of_pid(*pid)
                    .is_none_or(|s| !self.suspected.contains(&s))
            })
            .collect();
        let pool = if unsuspected.is_empty() {
            pool
        } else {
            unsuspected
        };
        if pool.is_empty() {
            if self
                .catchup
                .as_ref()
                .is_some_and(|cu| cu.pending.is_empty())
            {
                self.finish_catchup(ctx);
            }
            return;
        }
        let target = pool[entry.attempt % pool.len()];
        if target != peer {
            entry.from = 0;
        }
        match self
            .catchup
            .as_mut()
            .expect("recovering")
            .pending
            .entry(target)
        {
            std::collections::btree_map::Entry::Occupied(mut o) => {
                // The target already serves another stream: merge the
                // partitions in and restart the combined stream.
                let merged = o.get_mut();
                for p in entry.partitions {
                    if !merged.partitions.contains(&p) {
                        merged.partitions.push(p);
                    }
                }
                merged.from = 0;
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry);
                self.send_catchup_req(ctx, target);
            }
        }
    }

    /// Serves one page of catch-up state from this replica's own log:
    /// install records of the requested partitions plus every decision
    /// (decisions are cheap and close the requester's parked
    /// terminations). Reads the log from `start` and stops when the page
    /// is full, so a page costs its own records, not the log's.
    fn on_catchup_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        partitions: Vec<u32>,
        start: u64,
        max: u32,
    ) {
        let mut installs = Vec::new();
        let mut decisions = Vec::new();
        let mut idx = start;
        let mut records = self.wal.iter().flat_map(|wal| wal.scan_from(start));
        while installs.len() + decisions.len() < max as usize {
            let Some(rec) = records.next() else { break };
            self.stats.catchup_records_decoded += 1;
            match rec {
                gdur_persist::LogRecord::Install {
                    key,
                    seq,
                    stamp,
                    writer,
                    value,
                } if partitions.contains(&self.cfg.placement.partition_of(key).0) => {
                    installs.push(CatchupInstall {
                        key,
                        seq,
                        stamp,
                        writer,
                        value,
                    });
                }
                gdur_persist::LogRecord::Decision { tx, commit } => {
                    decisions.push((tx, commit));
                }
                _ => {}
            }
            idx += 1;
        }
        ctx.consume(
            self.cfg
                .costs
                .per_log_append
                .saturating_mul((installs.len() + decisions.len()) as u64),
        );
        // A live log holds only intact frames, so a record remains after
        // the page iff the page stopped short of the log's length.
        let next = (idx < self.wal.as_ref().map_or(0, |wal| wal.len())).then_some(idx);
        let frontier = if next.is_none() {
            partitions
                .iter()
                .map(|p| (*p, self.knowledge.get(*p as usize)))
                .collect()
        } else {
            Vec::new()
        };
        ctx.send(
            from,
            Msg::CatchupRep {
                installs,
                decisions,
                next,
                frontier,
            },
        );
    }

    /// Applies one page of catch-up state: installs in log order (only at
    /// the exact next per-key sequence, which makes overlapping pages
    /// idempotent), then decisions, then either requests the next page or
    /// adopts the peer's frontier and finishes this stream.
    fn on_catchup_rep(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        installs: Vec<CatchupInstall>,
        decisions: Vec<(TxId, bool)>,
        next: Option<u64>,
        frontier: Vec<(u32, u64)>,
    ) {
        if !self
            .catchup
            .as_ref()
            .is_some_and(|cu| cu.pending.contains_key(&from))
        {
            // A stale page: the stream was rotated to another peer (or
            // catch-up already finished).
            return;
        }
        let mut applied: u64 = 0;
        for inst in installs {
            if !self.is_local(inst.key) {
                continue;
            }
            let expected = self.store.latest_seq(inst.key).map(|s| s + 1).unwrap_or(0);
            if inst.seq != expected {
                continue;
            }
            self.install(ctx, inst.key, &inst.value, inst.stamp, inst.writer);
            self.stats.catchup_installs += 1;
            applied += 1;
        }
        for (tx, commit) in decisions {
            if self.wal.is_some() {
                self.decided_outcomes.entry(tx).or_insert(commit);
            }
            if self.coord.contains_key(&tx) {
                // One of our own mid-commit transactions already terminated
                // cluster-wide before the crash: close it without
                // retransmitting.
                self.finish_coord(ctx, tx, commit, None);
            } else {
                self.done.insert(tx);
            }
        }
        let cu = self.catchup.as_mut().expect("recovering");
        cu.applied += applied;
        ctx.trace(labels::RECOVERY_CATCHUP_APPLY, 0, applied);
        if let Some(timer) = cu.pending.get_mut(&from).and_then(|p| p.timer.take()) {
            self.cancel(ctx, timer);
        }
        match next {
            Some(nxt) => {
                if let Some(p) = self
                    .catchup
                    .as_mut()
                    .and_then(|cu| cu.pending.get_mut(&from))
                {
                    p.from = nxt;
                }
                self.send_catchup_req(ctx, from);
            }
            None => {
                let finished = {
                    let cu = self.catchup.as_mut().expect("recovering");
                    cu.pending.remove(&from);
                    cu.pending.is_empty()
                };
                // Adopt the peer's visibility frontier: the transferred
                // installs are now locally visible.
                for (p, s) in frontier {
                    let p = p as usize;
                    if p < self.knowledge.dim() && self.knowledge.get(p) < s {
                        self.advance_frontier(p, s);
                    }
                    if p < self.reserved.dim() && self.reserved.get(p) < s {
                        self.reserved.set(p, s);
                    }
                }
                if finished {
                    self.finish_catchup(ctx);
                }
            }
        }
    }

    /// Catch-up complete: resume §5.3 retransmission for the rebuilt
    /// mid-commit transactions, cast the votes parked during the transfer,
    /// drain the termination queue, and wake the reads that arrived
    /// meanwhile, in arrival order.
    fn finish_catchup(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(cu) = self.catchup.take() else {
            return;
        };
        ctx.trace(labels::RECOVERY_COMPLETE, 0, cu.applied);
        let resume: Vec<(TxId, TermPayload)> = self
            .coord
            .iter()
            .filter_map(|(tx, t)| Some((*tx, t.submitted_payload.clone()?)))
            .collect();
        for (tx, payload) in resume {
            self.stats.resubmissions += 1;
            ctx.trace(
                labels::RECOVERY_RESUBMIT,
                tx_code(tx.coord, tx.seq),
                self.coord[&tx].certifying.len() as u64,
            );
            if let Some(vt) = self.cfg.vote_timeout {
                self.arm(ctx, vt, Timer::VoteTimeout(tx));
            }
            self.transmit(ctx, tx, payload);
        }
        self.cast_deferred_votes(ctx);
        self.process_queue(ctx);
        self.parked.woken.append(&mut self.parked.recovery);
    }

    /// Votes parked while recovering, cast now against the caught-up
    /// store; parked decided 2PC/Paxos terminations complete too.
    fn cast_deferred_votes(&mut self, ctx: &mut Context<'_, Msg>) {
        let gc_mode = self.gc_mode();
        let unvoted: Vec<TxId> = self
            .part
            .iter()
            .filter(|(_, p)| {
                p.my_vote.is_none() && p.outcome.is_none() && !self.certifier.is_blocked(p.ticket)
            })
            .map(|(tx, _)| *tx)
            .collect();
        for tx in unvoted {
            // An earlier vote of this sweep may have emptied the head of `Q`
            // past an orphaned query.
            let Some(p) = self.part.get(&tx) else {
                continue;
            };
            // In GC mode an unblocked entry has no conflicting predecessor.
            let preempt = !gc_mode && self.certifier.has_conflict(p.ticket, &p.payload);
            self.cast_vote(ctx, tx, preempt);
        }
        if !gc_mode {
            let parked: Vec<(TxId, bool)> = self
                .part
                .iter()
                .filter_map(|(tx, p)| Some((*tx, p.outcome?)))
                .collect();
            for (tx, commit) in parked {
                self.terminate(ctx, tx, commit);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests;
