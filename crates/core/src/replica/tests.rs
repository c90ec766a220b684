//! Parked reads and the visibility frontier, driven through `handle` on a
//! client-less two-site deployment (both sites host both partitions).

use super::*;
use crate::spec::{ChooseRule, PostCommitRule};
use crate::{Cluster, ClusterConfig, Criterion, ScriptSource};

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

struct Probe {
    cluster: Cluster,
    next_seq: u64,
}

impl Probe {
    fn new() -> Self {
        let mut cfg = ClusterConfig::small(walter_like(), 2);
        cfg.placement = Placement::disaster_tolerant(2);
        cfg.clients_per_site = 0;
        let cluster = Cluster::build(cfg, |_, _| Box::new(ScriptSource::new(Vec::new())));
        Probe {
            cluster,
            next_seq: 1,
        }
    }

    /// Delivers `msg` from site 1's replica to site 0's and runs to idle.
    fn deliver(&mut self, msg: Msg) {
        let (to, from) = (
            self.cluster.replica_pids()[0],
            self.cluster.replica_pids()[1],
        );
        let at = self.cluster.now();
        self.cluster.sim_mut().inject(from, to, msg, at);
        self.cluster.run_until_idle();
    }

    /// A remote read of `key` under a snapshot pinned at `pins`.
    fn read(&mut self, key: u64, pins: [u64; 2]) {
        let tx = TxId {
            coord: 99,
            seq: self.next_seq,
        };
        self.next_seq += 1;
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
    let mut probe = Probe::new();
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
