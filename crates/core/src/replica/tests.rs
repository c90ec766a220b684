//! Parked reads and the visibility frontier, the timer table, `transmit`
//! and `outcome(T)`, driven through `handle` by injected messages. The one
//! client per site is mute: it issues nothing and drops the replies to the
//! operations a test injects in its name.

use gdur_gc::GcMsg;
use gdur_obs::{ObsEvent, TraceHandle};
use gdur_persist::LogRecord;
use gdur_sim::{SimTime, WireSize};
use gdur_store::VersionRecord;

use super::*;
use crate::node::Node;
use crate::spec::{ChooseRule, PostCommitRule};
use crate::{Cluster, ClusterConfig, Criterion, PlanOp, ScriptSource, TxnPlan};

pub(crate) fn walter_like() -> ProtocolSpec {
    ProtocolSpec {
        name: "walter-like",
        criterion: Criterion::Psi,
        versioning: Mechanism::Vts,
        choose: ChooseRule::Consistent,
        commitment: CommitmentKind::TwoPhaseCommit,
        certifying_obj: CertifyingObjRule::WriteSetIfUpdate,
        commute: CommuteRule::WriteWriteDisjoint,
        certify: CertifyRule::WriteSetCurrent,
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::PropagateStamps,
    }
}

/// Walter's assembly with Paxos Commit in place of 2PC.
fn paxos_like() -> ProtocolSpec {
    ProtocolSpec {
        name: "paxos-like",
        commitment: CommitmentKind::PaxosCommit,
        ..walter_like()
    }
}

/// P-Store's assembly: commitment by group communication (Algorithm 3).
fn p_store_like() -> ProtocolSpec {
    ProtocolSpec {
        name: "p-store-like",
        criterion: Criterion::Ser,
        versioning: Mechanism::Ts,
        choose: ChooseRule::Last,
        commitment: CommitmentKind::GroupCommunication {
            xcast: XcastKind::AmCast,
        },
        certifying_obj: CertifyingObjRule::ReadWriteSet,
        commute: CommuteRule::ReadWriteDisjoint,
        certify: CertifyRule::ReadSetCurrent,
        votes: VoteRule::Distributed,
        post_commit: PostCommitRule::Nothing,
    }
}

struct Probe {
    cluster: Cluster,
    next_seq: u64,
    trace: TraceHandle,
}

impl Probe {
    fn new() -> Self {
        Self::with(walter_like(), Placement::disaster_tolerant(2), |_| {})
    }

    /// A traced deployment of `spec` over `placement`, `tweak`ed.
    fn with(
        spec: ProtocolSpec,
        placement: Placement,
        tweak: impl FnOnce(&mut ClusterConfig),
    ) -> Self {
        let mut cfg = ClusterConfig::small(spec, placement.sites());
        cfg.placement = placement;
        cfg.max_txns_per_client = Some(0);
        tweak(&mut cfg);
        let idle = TxnPlan { ops: Vec::new() };
        let mut cluster =
            Cluster::build(cfg, |_, _| Box::new(ScriptSource::new(vec![idle.clone()])));
        let trace = TraceHandle::new();
        cluster.attach_obs(trace.sink());
        Probe {
            cluster,
            next_seq: 1,
            trace,
        }
    }

    fn pid(&self, site: usize) -> ProcessId {
        self.cluster.replica_pids()[site]
    }

    /// Lets everything in flight land: longer than a WAN round trip,
    /// shorter than the read timeout.
    fn settle(&mut self) {
        self.cluster.run_for(SimDuration::from_millis(100));
    }

    /// Delivers `msg` to site 0's replica as if `from` had sent it.
    fn inject(&mut self, from: ProcessId, msg: Msg) {
        let (to, at) = (self.pid(0), self.cluster.now());
        self.cluster.sim_mut().inject(from, to, msg, at);
        self.settle();
    }

    /// A fresh transaction id of a coordinator nobody is.
    fn next_tx(&mut self) -> TxId {
        self.next_seq += 1;
        TxId::new(99, self.next_seq - 1)
    }

    /// Begins a transaction at site 0 in the mute client's name.
    fn begin(&mut self) -> TxId {
        let tx = self.next_tx();
        self.client(tx, ClientOp::Begin);
        tx
    }

    fn client(&mut self, tx: TxId, op: ClientOp) {
        let from = self.cluster.client_pids()[0];
        self.inject(from, Msg::Client { tx, op });
    }

    fn update(&mut self, tx: TxId, key: u64) {
        let (key, value) = (Key(key), Value::of_size(8));
        self.client(tx, ClientOp::Update { key, value });
    }

    fn vote(&mut self, site: usize, tx: TxId, yes: bool) {
        let clocks = Vec::new();
        self.inject(self.pid(site), Msg::Vote { tx, yes, clocks });
    }

    /// Submits a transaction at site 0 that writes `key`.
    fn submit_update(&mut self, key: u64) -> TxId {
        let tx = self.begin();
        self.update(tx, key);
        self.client(tx, ClientOp::Commit);
        tx
    }

    /// Delivers a phase 2b from site `acceptor`: it accepted `voter`'s vote.
    fn phase2b(&mut self, acceptor: usize, tx: TxId, voter: usize, yes: bool) {
        let voter = SiteId(voter as u16);
        self.inject(self.pid(acceptor), Msg::PaxosAccepted { tx, voter, yes });
    }

    /// (committed, aborted) at site 0.
    fn decided(&self) -> (u64, u64) {
        let stats = self.replica().stats;
        (stats.committed, stats.aborted)
    }

    fn crash(&mut self, site: usize) {
        let (pid, now) = (self.pid(site), self.cluster.now());
        self.cluster.sim_mut().schedule_crash(pid, now);
        self.settle();
    }

    fn replica_mut(&mut self) -> &mut Replica {
        let pid = self.pid(0);
        match self.cluster.sim_mut().actor_mut(pid) {
            Node::Replica(r) => r,
            Node::Pool(_) => unreachable!("pid of a replica"),
        }
    }

    /// The armed timers, in tag (arming) order.
    fn armed(&self) -> Vec<Timer> {
        let timers = &self.replica().timers;
        timers.sorted_keys().iter().map(|tag| timers[tag]).collect()
    }

    /// Destinations of the termination payloads site 0 sent from `since`
    /// on, in sending order.
    fn transmitted(&self, since: SimTime) -> Vec<ProcessId> {
        self.sent("gc.reliable", since)
    }

    /// Destinations of the messages labelled `wanted` that site 0 sent from
    /// `since` on, in sending order.
    fn sent(&self, wanted: &str, since: SimTime) -> Vec<ProcessId> {
        let me = self.pid(0);
        let sent = self.trace.events().into_iter().filter_map(|e| match e {
            ObsEvent::Send {
                at,
                from,
                to,
                label,
                ..
            } if from == me && at >= since && label == wanted => Some(to),
            _ => None,
        });
        sent.collect()
    }

    /// Delivers `msg` from site 1's replica to site 0's.
    fn deliver(&mut self, msg: Msg) {
        self.inject(self.pid(1), msg);
    }

    /// A remote read of `key` under a snapshot pinned at `pins`.
    fn read(&mut self, key: u64, pins: [u64; 2]) {
        let tx = self.next_tx();
        let snap = Snapshot::fixed(&VersionVec::from_entries(pins.to_vec()));
        self.deliver(Msg::ReadReq {
            tx,
            key: Key(key),
            snap,
        });
    }

    fn propagate(&mut self, partition: u32, seq: u64) {
        self.deliver(Msg::Propagate { partition, seq });
    }

    fn replica(&self) -> &Replica {
        self.cluster.replica(SiteId(0))
    }

    /// (still parked, parked ever, taken up again).
    fn parked(&self) -> (usize, u64, u64) {
        let r = self.replica();
        (
            r.parked_reads(),
            r.stats.reads_parked,
            r.stats.parked_read_checks,
        )
    }
}

#[test]
fn a_frontier_advance_wakes_exactly_the_reads_whose_bound_it_reaches() {
    let mut probe = Probe::new();
    // Keys spread round-robin: 0 and 2 live in partition 0, 1 in partition 1.
    probe.read(0, [3, 0]);
    probe.read(2, [5, 0]);
    probe.read(1, [0, 3]);
    assert_eq!(probe.parked(), (3, 3, 0));
    // One below the lowest bound wakes nobody.
    probe.propagate(0, 2);
    assert_eq!(probe.parked(), (3, 3, 0));
    // The bound itself wakes that read; the higher bound of the same
    // partition and the other partition's read stay.
    probe.propagate(0, 3);
    assert_eq!(probe.parked(), (2, 3, 1));
    // Past a bound wakes it too, and only in its own partition.
    probe.propagate(1, 7);
    assert_eq!(probe.parked(), (1, 3, 2));
    probe.propagate(0, 5);
    assert_eq!(probe.parked(), (0, 3, 3));
    // Each was answered: nothing is parked and none was counted twice.
    assert_eq!(probe.replica().stats.remote_reads_served, 3);
}

#[test]
fn a_propagate_going_backwards_does_not_lower_the_frontier() {
    let mut probe = Probe::new();
    probe.propagate(0, 4);
    probe.propagate(0, 2);
    assert_eq!(probe.replica().knowledge.get(0), 4);
    // A read the frontier already covers is served on arrival.
    probe.read(0, [4, 0]);
    assert_eq!(probe.parked(), (0, 0, 0));
}

#[test]
fn a_restart_drops_the_parked_reads() {
    let mut probe = Probe::with(walter_like(), Placement::disaster_tolerant(2), |cfg| {
        cfg.persistence = true;
    });
    probe.read(0, [3, 0]);
    assert_eq!(probe.parked().0, 1);
    let (pid, now) = (probe.cluster.replica_pids()[0], probe.cluster.now());
    probe.cluster.sim_mut().schedule_crash(pid, now);
    probe.cluster.sim_mut().schedule_restart(pid, now);
    probe.cluster.run_until_idle();
    assert_eq!(probe.parked().0, 0);
    // The frontier reaching the dead read's bound finds nobody to wake.
    probe.propagate(0, 3);
    assert_eq!(probe.parked(), (0, 1, 0));
}

/// A read held back until the bounded version history no longer retains a
/// version its snapshot admits cannot be served: the coordinator aborts its
/// own, a remote one gets no reply (its requester fails over, and gives up
/// at `max_read_attempts`).
#[test]
fn a_read_that_outlived_its_snapshot_is_read_impossible() {
    let mut probe = Probe::new();
    // Key 0 lives at both sites; site 1 is down and its votes are injected.
    probe.crash(1);
    // A fixed snapshot taken now admits the seed version of key 0 only.
    let reader = probe.begin();
    for _ in 0..=MultiVersionStore::DEFAULT_MAX_VERSIONS {
        let tx = probe.begin();
        probe.update(tx, 0);
        probe.client(tx, ClientOp::Commit);
        probe.vote(1, tx, true);
    }
    assert_eq!(probe.replica().store.latest_seq(Key(0)), Some(9));
    probe.client(reader, ClientOp::Read { key: Key(0) });
    assert!(!probe.replica().executing.contains_key(&reader));
    assert_eq!(
        probe.replica().stats.aborted_by_cause[AbortCause::ReadImpossible.code() as usize],
        1
    );

    let replies = |probe: &Probe| {
        let sent = probe.trace.events().into_iter();
        let reps = sent.filter(|e| {
            matches!(
                e,
                ObsEvent::Send {
                    label: "read_rep",
                    ..
                }
            )
        });
        reps.count()
    };
    let before = replies(&probe);
    probe.read(0, [0, 0]);
    assert_eq!(replies(&probe), before);
    assert_eq!(probe.parked().0, 0);
    // The same read under a current snapshot is answered.
    probe.read(0, [9, 0]);
    assert_eq!(replies(&probe), before + 1);
}

/// What a pending remote read's failover timer finds when its tag fires.
#[derive(Clone, Copy)]
enum ReadTimer {
    /// Still armed: the serving site is down.
    Armed,
    /// Its entry left the table (what `on_restart` does to every tag).
    Removed,
    /// Cancelled by the reply.
    Cancelled,
}

/// (failover attempt of the pending read, suspected sites, tags armed ever).
fn read_failover(case: ReadTimer) -> (Option<usize>, usize, u64) {
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(2), |_| {});
    if !matches!(case, ReadTimer::Cancelled) {
        probe.crash(1);
    }
    let tx = probe.begin();
    // Key 1 lives at site 1 only.
    probe.client(tx, ClientOp::Read { key: Key(1) });
    match case {
        ReadTimer::Armed => assert_eq!(probe.armed(), [Timer::Read(tx)]),
        ReadTimer::Removed => assert!(probe.replica_mut().timers.remove(&0).is_some()),
        ReadTimer::Cancelled => assert_eq!(probe.armed(), []),
    }
    probe.cluster.run_for(SimDuration::from_millis(300));
    let r = probe.replica();
    let attempt = r.executing[&tx].pending_read.as_ref().map(|(_, _, n)| *n);
    (attempt, r.suspected.len(), r.next_timer_tag)
}

#[test]
fn a_tag_that_left_the_timer_table_fires_as_a_no_op() {
    // The control: an armed tag suspects the silent site and asks again.
    assert_eq!(read_failover(ReadTimer::Armed), (Some(1), 1, 2));
    assert_eq!(read_failover(ReadTimer::Removed), (Some(0), 0, 1));
    assert_eq!(read_failover(ReadTimer::Cancelled), (None, 0, 1));
}

#[test]
fn a_vote_timeout_and_a_retry_that_fire_after_the_decision_do_nothing() {
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(2), |cfg| {
        cfg.vote_timeout = Some(SimDuration::from_millis(400));
    });
    let tx = probe.begin();
    // Key 0 lives at site 0 only: the coordinator's own vote decides.
    probe.update(tx, 0);
    probe.client(tx, ClientOp::Commit);
    assert!(probe.replica().coord.is_empty());
    assert_eq!(
        probe.armed(),
        [Timer::VoteTimeout(tx), Timer::TermRetry(tx)]
    );
    let (decided, sent) = (probe.replica().stats, probe.trace.len());
    assert_eq!((decided.committed, decided.aborted), (1, 0));
    // Both fire (the retry after 4 read timeouts = 1 s): nothing is decided
    // again, nothing is sent, nothing is armed.
    probe.cluster.run_for(SimDuration::from_millis(1200));
    assert_eq!(probe.armed(), []);
    assert_eq!(probe.replica().next_timer_tag, 2);
    assert_eq!(probe.replica().stats, decided);
    assert_eq!(probe.trace.len(), sent);
}

#[test]
fn a_restart_leaves_no_armed_tag() {
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(2), |cfg| {
        cfg.persistence = true;
    });
    probe.crash(1);
    let tx = probe.begin();
    probe.client(tx, ClientOp::Read { key: Key(1) });
    assert_eq!(probe.armed(), [Timer::Read(tx)]);
    let (pid, now) = (probe.pid(0), probe.cluster.now());
    probe.cluster.sim_mut().schedule_crash(pid, now);
    probe.cluster.sim_mut().schedule_restart(pid, now);
    probe.settle();
    assert_eq!(probe.replica().stats.recoveries, 1);
    assert_eq!(probe.armed(), []);
    // Tags are not reused after a restart.
    assert_eq!(probe.replica().next_timer_tag, 1);
}

#[test]
fn a_retried_2pc_termination_reaches_the_first_destinations_and_arms_one_retry() {
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(4), |_| {});
    let tx = probe.begin();
    // Written keys at sites 0, 1 and 2; site 3 is not concerned.
    for key in 0..3 {
        probe.update(tx, key);
    }
    // Site 1 never votes, so the transaction stays undecided.
    probe.crash(1);
    let submitted = probe.cluster.now();
    probe.client(tx, ClientOp::Commit);
    let first = probe.transmitted(submitted);
    assert_eq!(first, [probe.pid(1), probe.pid(2)]);
    assert_eq!(probe.armed(), [Timer::TermRetry(tx)]);
    for retry in 1..=2 {
        let before = probe.cluster.now();
        probe.cluster.run_for(SimDuration::from_secs(1));
        assert_eq!(probe.transmitted(before), first, "retry {retry}");
        assert_eq!(probe.armed(), [Timer::TermRetry(tx)], "retry {retry}");
    }
    assert!(probe.replica().coord.contains_key(&tx));
}

/// Under Algorithm 3 the votes alone decide; a coordinator timer that could
/// abort behind their back is refused when the deployment is built.
#[test]
#[should_panic(expected = "E-TIMEOUT-GC")]
fn a_vote_timeout_under_group_communication_is_refused() {
    Probe::with(p_store_like(), Placement::disaster_tolerant(2), |cfg| {
        cfg.vote_timeout = Some(SimDuration::from_millis(500));
    });
}

/// Three sites, disaster tolerant: partition `p` lives at sites `p` and
/// `p + 1`, so site 0 hosts partitions 0 and 2. The peers are down; their
/// votes are injected.
fn outcome_probe(spec: ProtocolSpec) -> Probe {
    let mut probe = Probe::with(spec, Placement::disaster_tolerant(3), |_| {});
    probe.crash(1);
    probe.crash(2);
    probe
}

#[test]
fn outcome_in_gc_mode_is_one_yes_per_object_or_any_no() {
    let mut probe = outcome_probe(p_store_like());
    // Site 0 participates in a transaction over keys `k` (partition 0, sites
    // 0 and 1) and `k + 1` (partition 1, sites 1 and 2) that writes `k`.
    let deliver = |probe: &mut Probe, k: u64| {
        let tx = TxId::new(99, k);
        let rs = [k, k + 1].map(|key| ReadEntry {
            key: Key(key),
            seq: 0,
        });
        let ws = vec![WriteEntry {
            key: Key(k),
            value: Value::of_size(8),
            base_seq: 0,
        }];
        let dep = VersionVec::zero(0);
        let payload = TermPayload::new(tx, probe.pid(1), false, rs.to_vec(), ws, dep);
        probe.inject(probe.pid(1), Msg::Gc(GcMsg::Reliable { payload }));
        tx
    };
    let writer =
        |probe: &Probe, k: u64| probe.replica().store.latest(Key(k)).expect("hosted").writer;

    // Its own yes covers `k` only: nothing is decided while `k + 1` is not.
    let tx = deliver(&mut probe, 0);
    assert_eq!(probe.replica().part[&tx].my_vote, Some(true));
    assert_eq!(probe.replica().part[&tx].outcome, None);
    // One yes of one replica of `k + 1` commits; site 1 never voted.
    probe.vote(2, tx, true);
    assert!(probe.replica().done.contains(&tx) && probe.replica().part.is_empty());
    assert_eq!(writer(&probe, 0), tx);

    // Any no aborts, covered or not.
    let tx = deliver(&mut probe, 3);
    probe.vote(1, tx, false);
    assert!(probe.replica().done.contains(&tx) && probe.replica().part.is_empty());
    assert_ne!(writer(&probe, 3), tx);
}

#[test]
fn outcome_under_2pc_waits_for_every_replica_of_every_object() {
    let mut probe = outcome_probe(walter_like());
    // Key 0 lives at sites 0 and 1. The coordinator's own yes — a commit in
    // GC mode — decides nothing; the second replica's does.
    let tx = probe.submit_update(0);
    assert_eq!(probe.replica().part[&tx].my_vote, Some(true));
    assert!(probe.replica().coord.contains_key(&tx));
    probe.vote(1, tx, true);
    assert!(!probe.replica().coord.contains_key(&tx));
    assert_eq!(probe.replica().stats.committed, 1);

    let tx = probe.submit_update(3);
    probe.vote(1, tx, false);
    assert!(!probe.replica().coord.contains_key(&tx));
    assert_eq!(
        probe.replica().stats.aborted_by_cause[AbortCause::CertificationConflict.code() as usize],
        1
    );
}

/// Paxos Commit at `sites` sites, disaster tolerant, coordinated at site 0:
/// key `k` lives at sites `k % sites` and one further. The peers are down;
/// their votes and phase-2b messages are injected.
fn paxos_probe(sites: usize) -> Probe {
    let mut probe = Probe::with(paxos_like(), Placement::disaster_tolerant(sites), |_| {});
    for site in 1..sites {
        probe.crash(site);
    }
    probe
}

/// At three sites a remote vote is chosen where it arrives: its voter's
/// acceptor and the coordinator's are a majority. The coordinator's own vote
/// is held by its own acceptor only, so it sends phase 2a to the two others
/// and counts once one phase 2b is back; the commit waits for both, in
/// either order.
#[test]
fn paxos_commit_at_three_sites_commits_once_the_own_vote_holds_one_2b() {
    let mut probe = paxos_probe(3);
    // Key 0 lives at sites 0 and 1.
    let submitted = probe.cluster.now();
    let tx = probe.submit_update(0);
    assert_eq!(probe.replica().part[&tx].my_vote, Some(true));
    assert_eq!(
        probe.sent("paxos_accept", submitted),
        [probe.pid(1), probe.pid(2)]
    );
    probe.vote(1, tx, true);
    assert!(probe.replica().coord.contains_key(&tx));
    assert_eq!(probe.decided(), (0, 0));
    probe.phase2b(2, tx, 0, true);
    assert!(!probe.replica().coord.contains_key(&tx));
    assert_eq!(probe.decided(), (1, 0));

    // The 2b first: the remote yes decides on arrival.
    let tx = probe.submit_update(3);
    probe.phase2b(1, tx, 0, true);
    assert!(probe.replica().coord.contains_key(&tx));
    probe.vote(1, tx, true);
    assert_eq!(probe.decided(), (2, 0));
    assert!(probe.replica().accepts.is_empty());
}

/// A no from another site is chosen on arrival and aborts at once, the
/// coordinator's own yes still waiting for its 2b.
#[test]
fn paxos_commit_aborts_on_a_remote_no_at_once() {
    let mut probe = paxos_probe(3);
    let tx = probe.submit_update(0);
    probe.vote(1, tx, false);
    assert!(!probe.replica().coord.contains_key(&tx));
    assert_eq!(probe.decided(), (0, 1));
    assert_eq!(
        probe.replica().stats.aborted_by_cause[AbortCause::CertificationConflict.code() as usize],
        1
    );
}

/// The coordinator's own no is held by its own acceptor only: the abort
/// waits for one phase 2b, whatever the other votes say.
#[test]
fn paxos_commit_aborts_on_the_own_no_once_it_holds_a_2b() {
    let mut probe = paxos_probe(3);
    // The first writer of key 0 stays undecided, so the second's own vote
    // is a preemptive no (Algorithm 4, line 3).
    probe.submit_update(0);
    let tx = probe.submit_update(0);
    assert_eq!(probe.replica().part[&tx].my_vote, Some(false));
    probe.vote(1, tx, true);
    assert!(probe.replica().coord.contains_key(&tx));
    // A 2b of the other vote is not this vote's.
    probe.phase2b(2, tx, 0, true);
    assert!(probe.replica().coord.contains_key(&tx));
    probe.phase2b(2, tx, 0, false);
    assert!(!probe.replica().coord.contains_key(&tx));
    assert_eq!(probe.decided(), (0, 1));
}

/// A phase 2b for a transaction the coordinator decided, or never knew,
/// changes nothing and leaves nothing behind.
#[test]
fn paxos_commit_ignores_a_2b_for_a_decided_or_unknown_transaction() {
    let mut probe = paxos_probe(3);
    let tx = probe.submit_update(0);
    probe.vote(1, tx, false);
    let unknown = probe.next_tx();
    let (decided, since) = (probe.replica().stats, probe.cluster.now());
    for t in [tx, unknown] {
        for voter in [0, 1] {
            probe.phase2b(2, t, voter, true);
        }
    }
    let r = probe.replica();
    assert_eq!(r.stats, decided);
    assert!(r.votes.is_empty() && r.accepts.is_empty());
    for label in ["decide", "reply", "paxos_accept"] {
        assert_eq!(probe.sent(label, since), [], "{label}");
    }
}

/// At four sites a majority is three acceptors. A remote vote needs one
/// phase 2b naming its voter, received before or after the vote itself;
/// the coordinator's own needs two.
#[test]
fn paxos_commit_at_four_sites_chooses_a_remote_vote_with_one_2b() {
    let mut probe = paxos_probe(4);
    // Key 0 lives at sites 0 and 1.
    let submitted = probe.cluster.now();
    let tx = probe.submit_update(0);
    assert_eq!(
        probe.sent("paxos_accept", submitted),
        [probe.pid(1), probe.pid(2), probe.pid(3)]
    );
    probe.phase2b(2, tx, 0, true);
    probe.phase2b(3, tx, 0, true);
    probe.vote(1, tx, true);
    assert!(probe.replica().coord.contains_key(&tx));
    // A 2b naming another voter does not choose this one.
    probe.phase2b(3, tx, 0, true);
    assert!(probe.replica().coord.contains_key(&tx));
    probe.phase2b(2, tx, 1, true);
    assert_eq!(probe.decided(), (1, 0));

    // The remote vote's 2b before the vote; one own 2b is not enough.
    let tx = probe.submit_update(4);
    probe.phase2b(3, tx, 1, true);
    probe.phase2b(2, tx, 0, true);
    probe.vote(1, tx, true);
    assert!(probe.replica().coord.contains_key(&tx));
    probe.phase2b(3, tx, 0, true);
    assert_eq!(probe.decided(), (2, 0));
    assert!(probe.replica().accepts.is_empty());
}

/// A participant sends phase 2a beside its vote only where the voter's and
/// the coordinator's acceptors are no majority: never at three sites, to the
/// acceptors of the two other sites at four.
#[test]
fn a_remote_voter_sends_phase_2a_only_where_a_majority_is_missing() {
    for (sites, expected) in [(3, vec![]), (4, vec![2, 3])] {
        let mut probe = paxos_probe(sites);
        let tx = TxId::new(99, 1);
        let ws = vec![WriteEntry {
            key: Key(0),
            value: Value::of_size(8),
            base_seq: 0,
        }];
        let dep = VersionVec::zero(0);
        let payload = TermPayload::new(tx, probe.pid(1), false, Vec::new(), ws, dep);
        let delivered = probe.cluster.now();
        probe.inject(probe.pid(1), Msg::Gc(GcMsg::Reliable { payload }));
        assert_eq!(
            probe.sent("vote", delivered),
            [probe.pid(1)],
            "{sites} sites"
        );
        let expected: Vec<ProcessId> = expected.into_iter().map(|s| probe.pid(s)).collect();
        assert_eq!(
            probe.sent("paxos_accept", delivered),
            expected,
            "{sites} sites"
        );
    }
}

#[test]
fn a_decision_costs_its_header_and_twelve_bytes_per_clock() {
    let decide = |clocks: Vec<(u32, u64)>| Msg::Decide {
        tx: TxId::new(0, 1),
        commit: true,
        clocks,
    };
    assert_eq!(decide(Vec::new()).wire_size(), 16 + 16);
    assert_eq!(decide(vec![(0, 7), (2, 9)]).wire_size(), 16 + 16 + 12 * 2);
}

/// An outcome log's transactions, each set decoded into a vector.
type Decoded = (TxId, bool, Vec<(Key, u64)>, Vec<Key>);

fn decoded(log: &OutcomeLog) -> Vec<Decoded> {
    (log.iter())
        .map(|o| {
            (
                o.tx,
                o.committed,
                o.reads.iter().collect(),
                o.writes.iter().collect(),
            )
        })
        .collect()
}

fn outcome(tx: TxId, committed: bool, reads: &[(Key, u64)], writes: &[Key]) -> Decoded {
    (tx, committed, reads.to_vec(), writes.to_vec())
}

/// The outcome log gives back every decision in order, each with exactly
/// the versions it read and the keys it wrote: a committed update, a
/// query, and a write-write conflict's winner and loser.
#[test]
fn the_outcome_log_keeps_each_decision_with_its_reads_and_writes() {
    // Disaster prone over two sites: keys 0, 2 and 4 live at site 0 only,
    // so site 0's own vote decides.
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(2), |_| {});
    let update = probe.begin();
    probe.update(update, 0);
    probe.update(update, 2);
    probe.client(update, ClientOp::Commit);
    let query = probe.begin();
    probe.client(query, ClientOp::Read { key: Key(0) });
    probe.client(query, ClientOp::Read { key: Key(4) });
    probe.client(query, ClientOp::Commit);
    // Both read k4@0; the first to commit wins.
    let (loser, winner) = (probe.begin(), probe.begin());
    probe.update(loser, 4);
    probe.update(winner, 4);
    probe.client(winner, ClientOp::Commit);
    probe.client(loser, ClientOp::Commit);

    assert_eq!(
        decoded(probe.replica().outcomes()),
        [
            outcome(update, true, &[(Key(0), 0), (Key(2), 0)], &[Key(0), Key(2)]),
            outcome(query, true, &[(Key(0), 1), (Key(4), 0)], &[]),
            outcome(winner, true, &[(Key(4), 0)], &[Key(4)]),
            outcome(loser, false, &[(Key(4), 0)], &[Key(4)]),
        ]
    );
    let stats = probe.replica().stats;
    assert_eq!((stats.coordinated, stats.committed), (4, 3));
}

/// Three sites, every client updating keys of the next site's partition,
/// run until idle. Under disaster-prone placement 2PC (write set only)
/// makes no coordinator a destination of its own payload, and AM-Cast
/// (read and write set) only those of the plans that also read a local
/// key.
fn drained_run(spec: ProtocolSpec, placement: Placement) -> Cluster {
    let name = spec.name;
    let mut cfg = ClusterConfig::small(spec, 3);
    cfg.placement = placement;
    cfg.clients_per_site = 4;
    let mut cluster = Cluster::build(cfg, |client, site| {
        let (here, next) = (site.0 as u64, (site.0 as u64 + 1) % 3);
        // Two hot keys per partition: conflicts abort some commits.
        let remote = |j: u64| Key(next + 3 * j);
        let plans = vec![
            TxnPlan {
                ops: vec![PlanOp::Update(remote(client as u64 % 2))],
            },
            TxnPlan {
                ops: vec![PlanOp::Read(Key(here)), PlanOp::Update(remote(1))],
            },
        ];
        Box::new(ScriptSource::new(plans))
    });
    cluster.run_until_idle();
    let stats = cluster.replica_stats();
    assert!(
        stats.committed > 0 && stats.aborted > 0,
        "{name}: {stats:?}"
    );
    cluster
}

/// A drained run leaves no decision waiting for a delivery.
#[test]
fn no_early_decision_outlives_a_drained_run() {
    for spec in [walter_like(), p_store_like()] {
        let (name, cluster) = (spec.name, drained_run(spec, Placement::disaster_prone(3)));
        for site in cluster.placement().all_sites() {
            let early = cluster.replica(site).early_decide.len();
            assert_eq!(early, 0, "{name}: early decisions left at {site}");
        }
    }
}

/// A vote that reaches a coordinator after its decision — the second
/// replica's yes under AM-Cast, any vote after the first no — is dropped,
/// also where the coordinator is no destination of the payload and so has
/// no participation whose termination would clear it. Disaster tolerant:
/// the next site's partition lives there and one site further, never at
/// the coordinator.
#[test]
fn no_vote_outlives_a_drained_run() {
    for spec in [p_store_like(), walter_like(), paxos_like()] {
        let placement = Placement::disaster_tolerant(3);
        let (name, cluster) = (spec.name, drained_run(spec, placement));
        for site in cluster.placement().all_sites() {
            let r = cluster.replica(site);
            assert_eq!(r.votes.len(), 0, "{name}: vote ledgers left at {site}");
            assert!(r.accepts.is_empty(), "{name}: acceptances left at {site}");
        }
    }
}

/// `submit` moves the executed sets into the payload, trimmed to their
/// length, and a 2PC retry retransmits that very payload: the participant
/// that restarts and takes the retry shares it with the coordinator.
#[test]
fn a_2pc_retry_retransmits_the_payload_submit_moved_the_sets_into() {
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(3), |cfg| {
        cfg.persistence = true;
    });
    let tx = probe.begin();
    // Key k lives at site k only.
    for key in 0..3 {
        probe.update(tx, key);
    }
    let t = &probe.replica().executing[&tx];
    let executed = (t.rs.clone(), t.ws.clone());
    // Sites 1 and 2 miss the first transmission.
    probe.crash(1);
    probe.crash(2);
    probe.client(tx, ClientOp::Commit);
    assert!(!probe.replica().executing.contains_key(&tx));
    let t = &probe.replica().coord[&tx];
    assert!(!t.resent);
    let sent = t.payload.clone();
    assert_eq!((&*sent.rs, &*sent.ws), (&*executed.0, &*executed.1));
    assert_eq!(sent.rs.len(), 3);
    // Site 1 comes back; site 2 stays down, so nothing is decided.
    let (pid, now) = (probe.pid(1), probe.cluster.now());
    probe.cluster.sim_mut().schedule_restart(pid, now);
    probe.cluster.run_for(SimDuration::from_secs(1));
    let got = &probe.cluster.replica(SiteId(1)).part[&tx].payload;
    assert!(TermPayload::ptr_eq(got, &sent));
    let t = &probe.replica().coord[&tx];
    assert!(t.resent && TermPayload::ptr_eq(&t.payload, &sent));
}

/// A coordinator that crashes with a submitted, undecided transaction
/// rebuilds its termination entry — payload included — from the `Submit`
/// record, and resumes the retransmission.
#[test]
fn a_restarted_coordinator_rebuilds_its_entry_with_the_logged_payload() {
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(2), |cfg| {
        cfg.persistence = true;
    });
    let tx = probe.begin();
    probe.update(tx, 0);
    probe.update(tx, 1);
    // Site 1 never votes.
    probe.crash(1);
    probe.client(tx, ClientOp::Commit);
    let sent = probe.replica().coord[&tx].payload.clone();
    let (pid, now) = (probe.pid(0), probe.cluster.now());
    probe.cluster.sim_mut().schedule_crash(pid, now);
    probe.cluster.sim_mut().schedule_restart(pid, now);
    probe.settle();
    let r = probe.replica();
    assert_eq!((r.stats.recoveries, r.stats.resubmissions), (1, 1));
    assert!(r.executing.is_empty());
    let t = &r.coord[&tx];
    assert!(t.resent);
    assert_eq!((t.client, t.payload.coord), (ProcessId(99), probe.pid(0)));
    assert_eq!((&*t.payload.rs, &*t.payload.ws), (&*sent.rs, &*sent.ws));
    assert_eq!(t.payload.dep, sent.dep);
    assert!(!TermPayload::ptr_eq(&t.payload, &sent));
    assert_eq!(t.payload.wire_size(), sent.wire_size());
    assert_eq!(probe.armed(), [Timer::TermRetry(tx)]);
}

/// The outcome log records each transaction with the sets of the phase it
/// ended in: read-your-writes and read-modify-writes decided in
/// termination, a wait-free query committed at submit without entering
/// `coord`, and an abort during execution.
#[test]
fn the_outcome_log_takes_the_sets_from_either_phase() {
    let mut probe = Probe::with(walter_like(), Placement::disaster_prone(2), |cfg| {
        cfg.vote_timeout = Some(SimDuration::from_secs(10));
        cfg.max_read_attempts = Some(1);
    });
    // Keys 0 and 2 live at site 0, keys 1 and 3 at site 1. Read-your-writes
    // on a local key: the second read comes from the buffer.
    let ryw = probe.begin();
    probe.update(ryw, 0);
    probe.client(ryw, ClientOp::Read { key: Key(0) });
    probe.update(ryw, 0);
    probe.client(ryw, ClientOp::Commit);
    // Read-modify-writes of a remote key, and of a local key read before.
    let rmw = probe.begin();
    probe.update(rmw, 1);
    probe.client(rmw, ClientOp::Read { key: Key(2) });
    probe.update(rmw, 2);
    probe.client(rmw, ClientOp::Commit);
    let query = probe.begin();
    probe.client(query, ClientOp::Read { key: Key(0) });
    probe.client(query, ClientOp::Read { key: Key(1) });
    probe.client(query, ClientOp::Commit);
    assert!(!probe.replica().coord.contains_key(&query));
    assert!(!probe.armed().contains(&Timer::VoteTimeout(query)));
    // Site 1 down: the remote read's one attempt times out.
    probe.crash(1);
    let lost = probe.begin();
    probe.client(lost, ClientOp::Read { key: Key(2) });
    probe.client(lost, ClientOp::Read { key: Key(3) });
    probe.cluster.run_for(SimDuration::from_millis(300));
    let r = probe.replica();
    assert!(r.executing.is_empty() && r.coord.is_empty());
    assert_eq!(
        r.stats.aborted_by_cause[AbortCause::ReadImpossible.code() as usize],
        1
    );

    assert_eq!(
        decoded(r.outcomes()),
        [
            outcome(ryw, true, &[(Key(0), 0)], &[Key(0)]),
            outcome(
                rmw,
                true,
                &[(Key(1), 0), (Key(2), 0), (Key(2), 0)],
                &[Key(1), Key(2)]
            ),
            outcome(query, true, &[(Key(0), 1), (Key(1), 1)], &[]),
            outcome(lost, false, &[(Key(2), 1)], &[]),
        ]
    );
}

/// Inserts `ids` into a `TerminatedSet` in a seeded random order and, after
/// every insert, checks membership of every id in `universe` against a
/// `BTreeSet` reference.
fn terminated_set_matches(ids: &[TxId], universe: &[TxId], seed: u64) -> TerminatedSet {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order = ids.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut set = TerminatedSet::default();
    let mut reference = BTreeSet::new();
    for tx in order {
        set.insert(tx);
        reference.insert(tx);
        // A duplicate insert changes nothing.
        set.insert(tx);
        for t in universe {
            assert_eq!(set.contains(t), reference.contains(t), "{t:?}");
        }
    }
    set
}

#[test]
fn the_terminated_set_compresses_contiguous_client_sequences() {
    let ids: Vec<TxId> = (0..4u32)
        .flat_map(|c| (1..=40).map(move |s| TxId::new(c, s)))
        .collect();
    let universe: Vec<TxId> = (0..5u32)
        .flat_map(|c| (0..=42).map(move |s| TxId::new(c, s)))
        .collect();
    let set = terminated_set_matches(&ids, &universe, 11);
    // A client's 40 contiguous ids take one word.
    assert_eq!(set.0.len(), 4);
}

#[test]
fn the_terminated_set_matches_a_btreeset_on_pooled_sequences_with_gaps() {
    // `client_idx << 20 | seq` under `client_pooling`; a participant sees
    // only some of each client's transactions.
    let pooled = |idx: u64, seq: u64| (idx << 20) | seq;
    let ids: Vec<TxId> = (0..3u32)
        .flat_map(|c| {
            (0..4u64).flat_map(move |idx| {
                (1..=12u64)
                    .filter(move |s| (s + idx + u64::from(c)) % 3 != 0)
                    .map(move |s| TxId::new(c, pooled(idx, s)))
            })
        })
        .collect();
    let universe: Vec<TxId> = (0..3u32)
        .flat_map(|c| {
            (0..5u64).flat_map(move |idx| (0..=13).map(move |s| TxId::new(c, pooled(idx, s))))
        })
        .collect();
    let set = terminated_set_matches(&ids, &universe, 23);
    // The gaps cost nothing: one word per pooled client.
    assert_eq!(set.0.len(), 3 * 4);
}

#[test]
fn the_terminated_set_holds_a_seq_0_id_in_its_clients_first_word() {
    let zero = TxId::new(7, 0);
    let ids = [zero, TxId::new(7, 1), TxId::new(7, 2)];
    let universe: Vec<TxId> = (0..=3).map(|s| TxId::new(7, s)).collect();
    let set = terminated_set_matches(&ids, &universe, 5);
    assert_eq!(set.0.len(), 1);
}

#[test]
fn the_terminated_set_matches_a_btreeset_at_word_edges_and_extremes() {
    let (max_c, max_s) = (TxId::MAX_COORD, TxId::MAX_SEQ);
    let ids: Vec<TxId> = [0, 63, 64, 65, 127, 128]
        .into_iter()
        .flat_map(|s| [TxId::new(0, s), TxId::new(max_c, s)])
        .chain([TxId::new(0, max_s), TxId::new(max_c, max_s - 64)])
        .collect();
    let universe: Vec<TxId> = [0, 1, 62, 63, 64, 65, 66, 126, 127, 128, 129]
        .into_iter()
        .chain([max_s - 65, max_s - 64, max_s - 63, max_s - 1, max_s])
        .flat_map(|s| [0, 1, max_c - 1, max_c].map(|c| TxId::new(c, s)))
        .collect();
    let set = terminated_set_matches(&ids, &universe, 3);
    // Seqs 0 and 63 share a word, 64 and 65 open the next; no word spans
    // two coordinators.
    assert_eq!(set.0.len(), 2 * 3 + 2);
}

/// The yes-vote site mask answers membership like the sorted site vector
/// it replaced, over seeded random vote sequences at every site count from
/// 1 to 64, repeated votes included.
#[test]
fn the_yes_mask_matches_sorted_site_membership() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    for sites in 1..=64u16 {
        let mut rng = SmallRng::seed_from_u64(u64::from(sites));
        let (mut mask, mut sorted) = (VoteState::default(), Vec::<SiteId>::new());
        for _ in 0..rng.gen_range(0..2 * sites) {
            let site = SiteId(rng.gen_range(0..sites));
            mask.count(site, true);
            if let Err(i) = sorted.binary_search(&site) {
                sorted.insert(i, site);
            }
            for s in (0..sites).map(SiteId) {
                assert_eq!(mask.voted_yes(s), sorted.contains(&s), "{sites} sites, {s}");
            }
        }
    }
}

/// Applies a seeded random run of overwriting and first-wins decisions to
/// the outcome bits of a replica (`[decided, committed]` per id) and to a
/// `BTreeMap<TxId, bool>`, comparing every id of `universe` after each one;
/// half-way through both are cleared, as a restart does.
#[test]
fn the_outcome_bits_match_a_btreemap() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    let pooled = |idx: u64, seq: u64| (idx << 20) | seq;
    let seqs: Vec<u64> = [0, 1, 2, 63, 64, 65]
        .into_iter()
        .chain([pooled(1, 1), pooled(1, 3), pooled(2, 70)])
        .collect();
    let universe: Vec<TxId> = (0..3u32)
        .flat_map(|c| seqs.iter().map(move |&s| TxId::new(c, s)))
        .chain([TxId::new(TxId::MAX_COORD, TxId::MAX_SEQ)])
        .collect();
    let mut rng = SmallRng::seed_from_u64(17);
    let mut bits = TxBits::<2>::default();
    let mut reference: BTreeMap<TxId, bool> = BTreeMap::new();
    for step in 0..600 {
        if step == 300 {
            bits = TxBits::default();
            reference.clear();
        }
        let tx = universe[rng.gen_range(0..universe.len())];
        let commit = rng.gen_bool(0.5);
        if rng.gen_bool(0.5) {
            bits.set(tx, [true, commit]);
            reference.insert(tx, commit);
        } else {
            if !bits.get(&tx)[0] {
                bits.set(tx, [true, commit]);
            }
            reference.entry(tx).or_insert(commit);
        }
        for t in &universe {
            let want = reference.get(t).copied();
            assert_eq!(bits.get(t)[0], reference.contains_key(t), "{t:?}");
            assert_eq!(bits.get(t)[0].then_some(bits.get(t)[1]), want, "{t:?}");
        }
    }
    // Commit, then abort: the second outcome replaces the first.
    let tx = TxId::new(1, 64);
    bits.set(tx, [true, true]);
    bits.set(tx, [true, false]);
    assert_eq!(bits.get(&tx), [true, false]);
}

/// The varint outcome log against the fixed-width layout it replaced
/// (`reference`): the same pushes read back the same transactions, sets
/// and counts — at the extremes of every field, with empty sets, and on a
/// seeded random mix of one- to ten-byte varints.
#[test]
fn the_outcome_log_round_trips_against_the_fixed_width_layout() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::reference::FixedOutcomeLog;

    let read = |key, seq| ReadEntry { key: Key(key), seq };
    let write = |key| WriteEntry {
        key: Key(key),
        value: Value::empty(),
        base_seq: 0,
    };
    type Txn = (TxId, bool, Vec<ReadEntry>, Vec<WriteEntry>);
    let mut txns: Vec<Txn> = vec![
        (TxId::from_code(u64::MAX), true, vec![], vec![]),
        (
            TxId::from_code(0),
            false,
            vec![read(u64::MAX, u64::MAX)],
            vec![],
        ),
        (
            TxId::new(3, 1),
            true,
            vec![],
            vec![write(u64::MAX), write(0)],
        ),
        (
            TxId::new(TxId::MAX_COORD, TxId::MAX_SEQ),
            true,
            vec![read(0, 0), read(1 << 35, 1 << 14), read(u64::MAX, 0)],
            vec![write(1 << 35), write(u64::MAX)],
        ),
    ];
    let mut rng = SmallRng::seed_from_u64(0x0c0e);
    let wide = |rng: &mut SmallRng| rng.gen::<u64>() >> rng.gen_range(0..64);
    for _ in 0..500 {
        let reads = (0..rng.gen_range(0..200)).map(|_| read(wide(&mut rng), wide(&mut rng)));
        let reads = reads.collect();
        let writes = (0..rng.gen_range(0..80))
            .map(|_| write(wide(&mut rng)))
            .collect();
        txns.push((TxId::from_code(wide(&mut rng)), rng.gen(), reads, writes));
    }
    let (mut log, mut fixed) = (OutcomeLog::default(), FixedOutcomeLog::default());
    assert!(log.is_empty());
    for (tx, committed, rs, ws) in &txns {
        log.push(*tx, *committed, rs, ws);
        fixed.push(*tx, *committed, rs, ws);
    }
    assert_eq!((log.len(), log.iter().len()), (txns.len(), txns.len()));
    for (o, (tx, committed, reads, writes)) in log.iter().zip(fixed.iter()) {
        assert_eq!((o.tx, o.committed), (tx, committed));
        assert_eq!(
            (o.reads.len(), o.reads.is_empty()),
            (reads.len(), reads.is_empty())
        );
        assert_eq!(
            (o.writes.len(), o.writes.is_empty()),
            (writes.len(), writes.is_empty())
        );
        assert_eq!(o.reads.iter().len(), reads.len());
        assert!(o.reads.iter().eq(reads.iter().copied()), "{tx:?}");
        assert!(o.writes.iter().eq(writes.iter().copied()), "{tx:?}");
        assert_eq!(format!("{:?}", o.reads), format!("{reads:?}"));
        assert_eq!(format!("{:?}", o.writes), format!("{writes:?}"));
    }
}

/// A seeded log as a replica of a two-site disaster-tolerant deployment
/// writes it: committed transactions' installs at each key's next sequence,
/// under scalar stamps or commit vectors, their decisions before or after
/// their installs, aborts, a `Submit` its `Decision` closed, and last a
/// mid-commit `Submit` with no `Decision`: `n` transactions, `client`'s.
fn replay_log(
    spec: &ProtocolSpec,
    client: ProcessId,
    seed: u64,
    n: u64,
) -> (Vec<LogRecord>, Vec<TxId>) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let placement = Placement::disaster_tolerant(2);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut log, mut txs) = (Vec::new(), Vec::new());
    let (mut seqs, mut clocks) = (BTreeMap::<Key, u64>::new(), [0u64; 2]);
    let submit = |tx, key: Key, base| LogRecord::Submit {
        tx,
        rs: vec![(key, base)],
        ws: vec![(key, base, Value::from_u64(base))],
        dep: vec![0; 2],
    };
    for i in 1..=n {
        let tx = TxId::new(client.0, i);
        txs.push(tx);
        let commit = rng.gen_bool(0.8);
        let decision = LogRecord::Decision { tx, commit };
        let late = rng.gen_bool(0.5);
        if i == n {
            log.push(submit(tx, Key(3), 0));
            break;
        }
        if i % 40 == 0 {
            log.push(submit(tx, Key(1), 0));
        }
        if !commit || !late {
            log.push(decision.clone());
        }
        if !commit {
            continue;
        }
        let keys: BTreeSet<Key> = (0..rng.gen_range(1..4))
            .map(|_| Key(rng.gen_range(0..24)))
            .collect();
        for &key in &keys {
            clocks[placement.partition_of(key).index()] += 1;
        }
        for key in keys {
            let seq = seqs.entry(key).or_insert(0);
            *seq += 1;
            let p = placement.partition_of(key);
            let stamp = match spec.versioning {
                Mechanism::Ts => Stamp::Ts(*seq),
                _ => Stamp::Vec {
                    origin: p.0,
                    vec: VersionVec::from_entries(clocks.to_vec()),
                },
            };
            let value = Value::from_u64(i);
            log.push(LogRecord::Install {
                key,
                seq: *seq,
                stamp,
                writer: tx,
                value,
            });
        }
        if late {
            log.push(decision);
        }
    }
    (log, txs)
}

/// A replica's latest version of each key, `[terminated, decided,
/// committed]` of each transaction, its frontier, and the transactions it
/// resubmitted when its catch-up finished: its coordinator entries then.
type Rebuilt = (
    Vec<Option<VersionRecord>>,
    Vec<[bool; 3]>,
    VersionVec,
    Vec<u64>,
);

/// What site 1 gives site 0's catch-up in [`rebuilt`].
#[derive(Clone, Copy)]
enum Peer<'a> {
    /// Site 1's log: site 1 serves it page by page, through the summary
    /// of what site 0 holds.
    Serves(&'a [LogRecord]),
    /// Site 1's log is empty, and this log reaches site 0 first, as one
    /// final page of every install and decision it holds.
    Whole(&'a [LogRecord]),
}

/// Site 0 of a two-site deployment crashed and restarted with `own` as its
/// log, caught up from `peer`, once its recovery settled; with both
/// replicas' counters.
fn rebuilt(
    spec: ProtocolSpec,
    own: &[LogRecord],
    peer: Peer<'_>,
    txs: &[TxId],
) -> (Rebuilt, [ReplicaStats; 2]) {
    let mut probe = Probe::with(spec, Placement::disaster_tolerant(2), |cfg| {
        cfg.persistence = true;
    });
    let served = match peer {
        Peer::Serves(log) => log,
        Peer::Whole(_) => &[],
    };
    for (site, records) in [own, served].into_iter().enumerate() {
        let pid = probe.pid(site);
        let Node::Replica(r) = probe.cluster.sim_mut().actor_mut(pid) else {
            unreachable!("pid of a replica")
        };
        let wal = r.wal.as_mut().expect("persistence attached");
        records.iter().for_each(|rec| _ = wal.append(rec));
    }
    let (pid, now) = (probe.pid(0), probe.cluster.now());
    probe.cluster.sim_mut().schedule_crash(pid, now);
    probe.cluster.sim_mut().schedule_restart(pid, now);
    if let Peer::Whole(log) = peer {
        // Injected while site 0 still replays its own log, so it is served
        // right after: site 1's own answer, an empty page, finds the
        // stream finished.
        let mut page = gdur_persist::Wal::new();
        let shipped = log
            .iter()
            .filter(|rec| !matches!(rec, LogRecord::Submit { .. }));
        shipped.for_each(|rec| _ = page.append(rec));
        let peer = probe.cluster.replica(SiteId(1));
        let frontier = (0..peer.knowledge.dim()).map(|p| (p as u32, peer.knowledge.get(p)));
        let msg = Msg::CatchupRep {
            page,
            records_wire: 0,
            next: None,
            frontier: frontier.collect(),
        };
        let (from, at) = (probe.pid(1), now + SimDuration::from_millis(1));
        probe.cluster.sim_mut().inject(from, pid, msg, at);
    }
    probe.cluster.run_for(SimDuration::from_secs(2));
    let r = probe.replica();
    assert!(
        !r.recovering() && r.coord.is_empty(),
        "the resubmission decided"
    );
    let keys = (0..24).map(|k| r.store.latest(Key(k)).cloned()).collect();
    let outcomes = txs.iter().map(|tx| {
        let [decided, committed] = r.decided_outcomes.get(tx);
        [r.done.contains(tx), decided, committed]
    });
    let resubmitted = probe.trace.events().into_iter().filter_map(|e| match e {
        ObsEvent::Point {
            actor, label, tx, ..
        } if actor == pid && label == labels::RECOVERY_RESUBMIT => Some(tx),
        _ => None,
    });
    let rebuilt = (
        keys,
        outcomes.collect(),
        r.knowledge.clone(),
        resubmitted.collect(),
    );
    let stats = [0, 1].map(|s| probe.cluster.replica(SiteId(s)).stats);
    (rebuilt, stats)
}

/// Restart and catch-up are one path: a replica restarted from its own log
/// and one caught up from a peer that holds the same log end in the same
/// state — per-key latest versions (sequence, value, stamp, writer), the
/// terminated set, the decided outcomes and the visibility frontier — under
/// scalar stamps and commit vectors. The caught-up replica's own log holds
/// the mid-commit `Submit` alone, a coordinator's record no peer ships, so
/// both resubmit it; the comparison is after it decided.
#[test]
fn a_restart_and_a_catch_up_from_the_same_log_agree() {
    for spec in [walter_like(), p_store_2pc_like()] {
        let probe = Probe::with(spec.clone(), Placement::disaster_tolerant(2), |_| {});
        let client = probe.cluster.client_pids()[0];
        for seed in 0..4 {
            let (log, txs) = replay_log(&spec, client, seed, 150);
            let mid = log.last().expect("the mid-commit submit");
            let (restarted, _) = rebuilt(spec.clone(), &log, Peer::Serves(&[]), &txs);
            let own = std::slice::from_ref(mid);
            let (caught_up, _) = rebuilt(spec.clone(), own, Peer::Serves(&log), &txs);
            let what = format!("{} seed {seed}", spec.name);
            assert_eq!(restarted, caught_up, "{what}");
            assert_eq!(
                restarted.3.len(),
                1,
                "{what}: the mid-commit submit resumed"
            );
            assert!(restarted.0.iter().flatten().any(|v| v.seq > 1), "{what}");
            assert!(restarted.2.iter().any(|s| s > 0) || spec.versioning == Mechanism::Ts);
        }
    }
}

/// A restart's replay is forked across the replica's cores: its catch-up
/// requests leave at the restart plus the longest share of the log's
/// `per_log_append` charge, not plus the sum, and nothing is voted or read
/// before that instant (a read arriving meanwhile waits for the transfer).
/// On one core the shares run in turn: the restart takes today's sum.
#[test]
fn a_restart_completes_at_its_longest_replay_share() {
    let spec = p_store_2pc_like();
    for cores in [4, 1] {
        let mut probe = Probe::with(spec.clone(), Placement::disaster_tolerant(2), |cfg| {
            cfg.persistence = true;
            cfg.cores_per_replica = cores;
        });
        let client = probe.cluster.client_pids()[0];
        let (log, _) = replay_log(&spec, client, 7, 150);
        let per_record = probe.replica().cfg.costs.per_log_append;
        let mut shares = vec![SimDuration::ZERO; usize::from(cores)];
        for rec in &log {
            shares[super::recovery::share_of(rec, usize::from(cores))] += per_record;
        }
        let longest = shares.iter().copied().max().expect("a share per core");
        let sum = per_record.saturating_mul(log.len() as u64);
        probe.cluster.sim_mut().run_until(SimTime::ZERO); // start the actors
        let wal = probe
            .replica_mut()
            .wal
            .as_mut()
            .expect("persistence attached");
        log.iter().for_each(|rec| _ = wal.append(rec));
        let (pid, restart) = (probe.pid(0), probe.cluster.now());
        probe.cluster.sim_mut().schedule_crash(pid, restart);
        probe.cluster.sim_mut().schedule_restart(pid, restart);
        let read = Msg::ReadReq {
            tx: probe.next_tx(),
            key: Key(2),
            snap: Snapshot::unconstrained(),
        };
        let early = restart + SimDuration::from_millis(1);
        let peer = probe.pid(1);
        probe.cluster.sim_mut().inject(peer, pid, read, early);
        probe.cluster.run_for(SimDuration::from_secs(2));
        let join = restart + if cores == 1 { sum } else { longest };
        assert!(
            cores == 1 || longest < sum,
            "the log spreads over the shares"
        );
        assert_eq!(probe.sent("catchup_req", restart).len(), 1);
        assert!(probe
            .sent("catchup_req", join + SimDuration::from_nanos(1))
            .is_empty());
        let points = |wanted: &str| -> Vec<(SimTime, u64)> {
            let events = probe.trace.events().into_iter();
            let points = events.filter_map(|e| match e {
                ObsEvent::Point {
                    at,
                    actor,
                    label,
                    value,
                    ..
                } if actor == pid && at >= restart && label == wanted => Some((at, value)),
                _ => None,
            });
            points.collect()
        };
        let replayed = points(labels::RECOVERY_REPLAYED);
        assert_eq!(
            replayed,
            [(restart, join.saturating_since(restart).as_nanos())]
        );
        // The mid-commit submission's own vote, and the read's answer.
        let votes = points(labels::TXN_VOTE);
        assert!(!votes.is_empty() && votes.iter().all(|(at, _)| *at > join));
        let answers = probe.sent("read_rep", join).len();
        assert!(answers > 0, "{cores} cores: the read is served");
        assert_eq!(probe.sent("read_rep", restart).len(), answers);
    }
}

/// A TS assembly that commits by 2PC: P-Store's sets, certification and
/// scalar stamps under a coordinator.
fn p_store_2pc_like() -> ProtocolSpec {
    ProtocolSpec {
        name: "p-store-2pc-like",
        commitment: CommitmentKind::TwoPhaseCommit,
        ..p_store_like()
    }
}

/// Site 0's own log, holding what `log` holds in another interleaving and
/// with holes, as a replica that crashed behind its peer: one in twenty
/// installs and decisions dropped before a random point, two in three
/// after it, and neighbours swapped at random. Every `Submit` stays where
/// it was, so each still precedes its `Decision`, as at a live coordinator.
fn holed_interleaving(log: &[LogRecord], seed: u64) -> Vec<LogRecord> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let submit = |rec: &LogRecord| matches!(rec, LogRecord::Submit { .. });
    let behind = rng.gen_range(log.len() / 3..log.len() * 2 / 3);
    let mut own: Vec<LogRecord> = log
        .iter()
        .enumerate()
        .filter(|(i, rec)| submit(rec) || rng.gen_bool(if *i < behind { 0.95 } else { 1.0 / 3.0 }))
        .map(|(_, rec)| rec.clone())
        .collect();
    for i in 1..own.len() {
        if !submit(&own[i - 1]) && !submit(&own[i]) && rng.gen_bool(0.2) {
            own.swap(i - 1, i);
        }
    }
    own
}

/// The records of `log` whose replay changes a replica that replayed
/// `own`: installs above the sequence `own`'s replay leaves its key at,
/// and decisions `own` does not hold.
fn lacked(own: &[LogRecord], log: &[LogRecord]) -> u64 {
    let (mut latest, mut decided) = (BTreeMap::<Key, u64>::new(), BTreeSet::new());
    for rec in own {
        match rec {
            LogRecord::Install { key, seq, .. } => {
                let at = latest.entry(*key).or_insert(0);
                if *seq == *at + 1 {
                    *at = *seq;
                }
            }
            LogRecord::Decision { tx, .. } => _ = decided.insert(*tx),
            LogRecord::Submit { .. } => {}
        }
    }
    let lacks = |rec: &&LogRecord| match rec {
        LogRecord::Install { key, seq, .. } => *seq > latest.get(key).copied().unwrap_or(0),
        LogRecord::Decision { tx, .. } => !decided.contains(tx),
        LogRecord::Submit { .. } => false,
    };
    log.iter().filter(lacks).count() as u64
}

/// The catch-up lemma (DESIGN.md §3.7): a page filtered through the
/// requester's summary differs from the whole log only by records whose
/// replay at the requester is a no-op. A replica whose own log holds the
/// peer's records in another interleaving, with holes, ends caught up
/// through its summary exactly as caught up from the peer's whole log —
/// per-key latest versions, terminated set, decided outcomes, frontier,
/// and the coordinator entries left to resubmit — and the peer ships
/// exactly the records the replica lacked, every one of which changes it.
#[test]
fn a_filtered_page_replays_to_the_same_replica_as_the_whole_log() {
    for spec in [walter_like(), p_store_2pc_like()] {
        let probe = Probe::with(spec.clone(), Placement::disaster_tolerant(2), |_| {});
        let client = probe.cluster.client_pids()[0];
        for seed in 0..4 {
            let what = format!("{} seed {seed}", spec.name);
            let (log, txs) = replay_log(&spec, client, seed, 600);
            let own = holed_interleaving(&log, seed);
            assert!(own.len() < log.len(), "{what}: the own log has holes");
            let (whole, _) = rebuilt(spec.clone(), &own, Peer::Whole(&log), &txs);
            let (filtered, [requester, peer]) =
                rebuilt(spec.clone(), &own, Peer::Serves(&log), &txs);
            assert_eq!(filtered, whole, "{what}");
            let lacked = lacked(&own, &log);
            let shippable = log
                .iter()
                .filter(|r| !matches!(r, LogRecord::Submit { .. }));
            assert!(lacked > 0 && lacked < shippable.count() as u64, "{what}");
            assert_eq!(peer.catchup_records_shipped, lacked, "{what}");
            assert_eq!(requester.catchup_records_unchanged, 0, "{what}");
            assert!(peer.catchup_pages > 1, "{what}: pages end and resume");
            // Entries the own replay rebuilt and only the peer's decisions
            // close: all but the mid-commit one, which is resubmitted.
            let rebuilt_open = own.iter().filter(|rec| match rec {
                LogRecord::Submit { tx, .. } => !own
                    .iter()
                    .any(|r| matches!(r, LogRecord::Decision { tx: t, .. } if t == tx)),
                _ => false,
            });
            assert!(rebuilt_open.count() > 1, "{what}");
            assert_eq!(whole.3.len(), 1, "{what}: the mid-commit submit resumed");
        }
    }
}
