//! Declarative fault schedules, the one deployment type of a checked run,
//! and its one runner (§5.3).
//!
//! A [`FaultSchedule`] lists scheduled crashes, restarts, link partitions,
//! and heals in virtual time. A [`Deployment`] is a small bounded
//! deployment plus its schedule; [`run_checked`] runs it — under the
//! kernel's own order, or under a `gdur_sim::Scheduler` when `gdur-mc`
//! explores schedules — and judges it with [`check_invariants`]: history
//! verification, store convergence, and the abort-cause partition.
//! [`run_chaos`] adds the recovery counts of a [`ChaosReport`].
//!
//! A schedule that restarts a replica is a claim that the assembly
//! recovers. [`run_checked`] refuses it for an assembly that does not
//! ([`ProtocolSpec::recovery_support`]): the support matrix of DESIGN.md
//! §3.7 has no cell between "recovers, tested" and "refused".
//!
//! Everything here is deterministic: the same deployment and schedule
//! reproduce the same trace byte for byte (`tests/tests/determinism.rs`
//! reruns the library to check it; `chaos_smoke`'s golden relies on it).

use gdur_core::{Cluster, ClusterConfig, ProtocolSpec};
use gdur_net::SiteId;
use gdur_obs::{labels, ObsEvent, TraceHandle};
use gdur_sim::{Scheduler, SimDuration, SimTime};
use gdur_store::{PartitionId, Placement};
use gdur_workload::WorkloadSpec;

use crate::experiment::build_ycsb;
use crate::invariants::{check_invariants, DIVERGED};

/// One scheduled fault of a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash the replica at `site`: its mailbox and timers are discarded
    /// and it stops processing until restarted.
    Crash {
        /// The crashed site.
        site: SiteId,
        /// Virtual instant of the crash.
        at: SimTime,
    },
    /// Restart the replica at `site`: it rebuilds from its write-ahead log
    /// and catches up from its peers.
    Restart {
        /// The restarted site.
        site: SiteId,
        /// Virtual instant of the restart.
        at: SimTime,
    },
    /// Cut the link between two sites (messages are delayed, not lost).
    Partition {
        /// One endpoint.
        a: SiteId,
        /// The other endpoint.
        b: SiteId,
        /// Virtual instant of the cut.
        at: SimTime,
    },
    /// Heal the link between two sites.
    Heal {
        /// One endpoint.
        a: SiteId,
        /// The other endpoint.
        b: SiteId,
        /// Virtual instant of the heal.
        at: SimTime,
    },
}

impl FaultEvent {
    /// Virtual instant at which this fault takes effect.
    pub fn at(&self) -> SimTime {
        match self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Restart { at, .. }
            | FaultEvent::Partition { at, .. }
            | FaultEvent::Heal { at, .. } => *at,
        }
    }
}

/// A declarative fault schedule, built fluently:
///
/// ```
/// use gdur_harness::FaultSchedule;
/// let schedule = FaultSchedule::new()
///     .crash(1, 400)
///     .partition(0, 2, 600)
///     .heal(0, 2, 1_000)
///     .restart(1, 1_200);
/// assert_eq!(schedule.events().len(), 4);
/// ```
///
/// Times are virtual milliseconds from the start of the run. Events may be
/// declared in any order; the runner applies them chronologically (ties
/// break in declaration order).
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Crash the replica at `site` at `at_ms` virtual milliseconds.
    pub fn crash(mut self, site: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Crash {
            site: SiteId(site),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// Restart the replica at `site` at `at_ms` virtual milliseconds.
    pub fn restart(mut self, site: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Restart {
            site: SiteId(site),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// Cut the link between sites `a` and `b` at `at_ms` virtual
    /// milliseconds.
    pub fn partition(mut self, a: u16, b: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Partition {
            a: SiteId(a),
            b: SiteId(b),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// Heal the link between sites `a` and `b` at `at_ms` virtual
    /// milliseconds.
    pub fn heal(mut self, a: u16, b: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Heal {
            a: SiteId(a),
            b: SiteId(b),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// The scheduled events, in declaration order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events sorted chronologically (declaration order on ties).
    pub fn chronological(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at());
        evs
    }

    /// The restarts, as `(site, instant)`, in declaration order.
    fn restarts(&self) -> impl Iterator<Item = (SiteId, SimTime)> + '_ {
        self.events.iter().filter_map(|e| match *e {
            FaultEvent::Restart { site, at } => Some((site, at)),
            _ => None,
        })
    }
}

/// One deployment of a checked run: the protocol, the workload and its
/// size, the seed, and the faults it suffers. Chaos runs and schedule
/// exploration (`gdur-mc` in `gdur-analysis`) both describe what they run
/// with it, and [`run_checked`] runs it.
///
/// The fault-tolerant half of the cluster is not an option: it follows
/// from the schedule ([`Deployment::cluster_config`]).
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Report label (defaults to the protocol name).
    pub label: String,
    /// The protocol under test.
    pub spec: ProtocolSpec,
    /// The YCSB workload, at 50 % read-only transactions.
    pub workload: WorkloadSpec,
    /// Number of sites (= partitions).
    pub sites: usize,
    /// Closed-loop clients per site.
    pub clients_per_site: usize,
    /// Transactions per client (bounded so the run drains to idle).
    pub txns_per_client: u64,
    /// Keys per partition.
    pub keys_per_partition: u64,
    /// Deployment seed.
    pub seed: u64,
    /// The fault schedule.
    pub schedule: FaultSchedule,
}

impl Deployment {
    /// The CI-sized chaos deployment of `spec` under `schedule`: 3 sites,
    /// 2 clients per site x 30 transactions of workload A over 200 keys
    /// per partition, seed 7.
    pub fn new(spec: ProtocolSpec, schedule: FaultSchedule) -> Self {
        Deployment {
            label: spec.name.to_string(),
            spec,
            workload: WorkloadSpec::a(),
            sites: 3,
            clients_per_site: 2,
            txns_per_client: 30,
            keys_per_partition: 200,
            seed: 7,
            schedule,
        }
    }

    /// The cluster this deployment runs. A schedule that holds a fault gets
    /// the §5.3 crash–recovery model: disaster-tolerant placement (catch-up
    /// needs a second replica), the write-ahead log, a 500 ms vote timeout
    /// where the coordinator owns the decision, bounded read failover and a
    /// 2 s client operation timeout. An empty schedule gets a crash- and
    /// timeout-free disaster-prone deployment.
    pub fn cluster_config(&self) -> ClusterConfig {
        let faulty = !self.schedule.events().is_empty();
        let placement = if faulty {
            Placement::disaster_tolerant(self.sites)
        } else {
            Placement::disaster_prone(self.sites)
        };
        // Only a coordinator that owns the decision may abort it on a timer.
        let coordinated = self.spec.group_communication().is_none();
        ClusterConfig {
            keys_per_partition: self.keys_per_partition,
            value_size: 64,
            clients_per_site: self.clients_per_site,
            max_txns_per_client: Some(self.txns_per_client),
            persistence: faulty,
            vote_timeout: (faulty && coordinated).then(|| SimDuration::from_millis(500)),
            max_read_attempts: faulty.then_some(6),
            client_op_timeout: faulty.then(|| SimDuration::from_secs(2)),
            seed: self.seed,
            ..ClusterConfig::new(self.spec.clone(), placement)
        }
    }
}

/// The outcome of one chaos run, summarizing client-visible results,
/// recovery activity, and the safety verdicts.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Report label.
    pub label: String,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted (or abandoned) transactions.
    pub aborted: u64,
    /// Transactions committed by a restarted coordinator after its latest
    /// restart — the "recovered replica does useful work again" signal.
    pub post_restart_commits: u64,
    /// Kernel crash events that took effect.
    pub crashes: u64,
    /// Kernel restart events that took effect.
    pub restarts: u64,
    /// WAL replays performed (`recovery.replay` trace events).
    pub replays: u64,
    /// Resumed §5.3 retransmissions (`recovery.resubmit` trace events).
    pub resubmissions: u64,
    /// Install records adopted via catch-up, summed over replicas.
    pub catchup_installs: u64,
    /// Log records decoded to serve catch-up pages, summed over replicas.
    pub catchup_records_decoded: u64,
    /// Length of each site's replica log at the end of the run.
    pub wal_records: Vec<u64>,
    /// Completed catch-up transfers (`recovery.complete` trace events).
    pub recovery_completes: u64,
    /// Reads that could not be served on arrival (behind the visibility
    /// frontier, or during a recovery), each counted once, summed over
    /// replicas.
    pub reads_parked: u64,
    /// Times a parked read was taken up again, summed over replicas.
    pub parked_read_checks: u64,
    /// Reads still parked when the run went idle, summed over replicas.
    pub parked_at_idle: u64,
    /// True if every partition's replicas ended with identical stores.
    pub converged: bool,
    /// First violation of [`check_invariants`] other than divergence:
    /// of the criterion, or of the abort-cause partition.
    pub violation: Option<String>,
}

impl ChaosReport {
    /// True if the run of `spec` passed every safety verdict: no
    /// violation, and converged stores where the assembly promises them
    /// ([`ProtocolSpec::orders_write_conflicts`]).
    pub fn ok(&self, spec: &ProtocolSpec) -> bool {
        (self.converged || !spec.orders_write_conflicts()) && self.violation.is_none()
    }

    /// One stable line for golden-file diffs. Client-visible commit/abort
    /// counts are excluded on purpose: they depend on virtual-time races
    /// that legitimately shift when cost models are tuned, while the
    /// recovery-event counts below are structural.
    pub fn golden_line(&self) -> String {
        format!(
            "{}: crashes={} restarts={} replays={} resubmissions={} completes={} converged={} violation={}",
            self.label,
            self.crashes,
            self.restarts,
            self.replays,
            self.resubmissions,
            self.recovery_completes,
            self.converged,
            match &self.violation {
                Some(v) => v.as_str(),
                None => "none",
            }
        )
    }
}

fn count_label(events: &[ObsEvent], label: &str) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, ObsEvent::Point { label: l, .. } if *l == label))
        .count() as u64
}

/// True if, for every partition, all of its replicas hold the same per-key
/// latest sequence and writer.
pub fn stores_converged(cluster: &Cluster) -> bool {
    let placement = cluster.placement().clone();
    for p in 0..placement.partitions() {
        let part = PartitionId(p as u32);
        let sites = placement.replicas(part);
        let Some((first, rest)) = sites.split_first() else {
            continue;
        };
        let reference = cluster.replica(*first).store();
        for s in rest {
            let other = cluster.replica(*s).store();
            for key in reference.keys() {
                if placement.partition_of(key) != part {
                    continue;
                }
                let a = reference.latest(key).map(|r| (r.seq, r.writer));
                let b = other.latest(key).map(|r| (r.seq, r.writer));
                if a != b {
                    return false;
                }
            }
        }
    }
    true
}

/// What a checked run leaves behind.
pub struct CheckedRun {
    /// The deployment, drained to idle.
    pub cluster: Cluster,
    /// The verdicts of [`check_invariants`], empty when the run is clean.
    pub violations: Vec<String>,
    /// The trace, empty when the run was not traced.
    pub events: Vec<ObsEvent>,
}

/// Builds `ccfg` (normally [`Deployment::cluster_config`]) with the
/// deployment's workload, applies its fault schedule, drains the run to
/// idle under `scheduler` (the kernel's own order when `None`), and judges
/// it with [`check_invariants`]. The only runner of both chaos runs and
/// schedule exploration.
///
/// Crashes and restarts are pre-registered with the simulation kernel —
/// the one fault model there is — and the run is sliced at every partition
/// boundary to flip the link state.
///
/// # Panics
///
/// Panics with the diagnostic of [`ProtocolSpec::recovery_support`] if the
/// schedule restarts a replica of an assembly that has no recovery.
pub fn run_checked(
    dep: &Deployment,
    ccfg: ClusterConfig,
    scheduler: Option<Box<dyn Scheduler>>,
    trace: Option<TraceHandle>,
) -> CheckedRun {
    if dep.schedule.restarts().next().is_some() {
        if let Err(refusal) = dep.spec.recovery_support() {
            panic!("{}: the schedule restarts a replica: {refusal}", dep.label);
        }
    }
    let mut cluster = build_ycsb(ccfg, &dep.workload, 0.5, 0.0);
    if let Some(scheduler) = scheduler {
        cluster.sim_mut().attach_scheduler(scheduler);
    }
    if let Some(t) = &trace {
        cluster.attach_obs(t.sink());
    }
    let pc = cluster.partition_control();
    let replica_pids = cluster.replica_pids().to_vec();
    // Crashes and restarts are kernel events: register them up front so
    // they land at their exact virtual instants regardless of how the run
    // is sliced below.
    let pid = |site: SiteId| replica_pids[site.index()];
    for ev in dep.schedule.events() {
        let sim = cluster.sim_mut();
        match *ev {
            FaultEvent::Crash { site, at } => sim.schedule_crash(pid(site), at),
            FaultEvent::Restart { site, at } => sim.schedule_restart(pid(site), at),
            FaultEvent::Partition { .. } | FaultEvent::Heal { .. } => {}
        }
    }
    // Link state is latency-model state, not a kernel event: slice the run
    // at every partition boundary and flip the cut between slices.
    for ev in dep.schedule.chronological() {
        let (a, b, at, cut) = match ev {
            FaultEvent::Partition { a, b, at } => (a, b, at, true),
            FaultEvent::Heal { a, b, at } => (a, b, at, false),
            FaultEvent::Crash { .. } | FaultEvent::Restart { .. } => continue,
        };
        cluster.sim_mut().run_until(at);
        if cut {
            pc.cut(a, b);
        } else {
            pc.heal(a, b);
        }
    }
    cluster.run_until_idle();
    CheckedRun {
        violations: check_invariants(&dep.spec, &cluster),
        events: trace.map(|t| t.take()).unwrap_or_default(),
        cluster,
    }
}

/// Runs the deployment traced ([`run_checked`] on its own
/// [`Deployment::cluster_config`]) and returns the report plus the full
/// deterministic event trace.
///
/// # Panics
///
/// As [`run_checked`].
pub fn run_chaos(dep: &Deployment) -> (ChaosReport, Vec<ObsEvent>) {
    let CheckedRun {
        cluster,
        violations,
        events,
    } = run_checked(dep, dep.cluster_config(), None, Some(TraceHandle::new()));
    let records = cluster.records();
    let committed = records.iter().filter(|r| r.committed).count() as u64;
    // Transaction ids carry the *client-side* pid as their coordinator
    // field: the clients of a restarted site are its colocated pool.
    let restarted: Vec<u32> = dep
        .schedule
        .restarts()
        .map(|(site, _)| cluster.client_pids()[site.index()].0)
        .collect();
    let last_restart = dep.schedule.restarts().map(|(_, at)| at).max();
    let post_restart_commits = records
        .iter()
        .filter(|r| r.committed && last_restart.is_some_and(|at| r.decided_at >= at))
        .filter(|r| restarted.contains(&r.tx.coord()))
        .count() as u64;
    let stats = cluster.replica_stats();
    let report = ChaosReport {
        label: dep.label.clone(),
        committed,
        aborted: records.len() as u64 - committed,
        post_restart_commits,
        crashes: count_label(&events, labels::KERNEL_CRASH),
        restarts: count_label(&events, labels::KERNEL_RESTART),
        replays: count_label(&events, labels::RECOVERY_REPLAY),
        resubmissions: stats.resubmissions,
        catchup_installs: stats.catchup_installs,
        catchup_records_decoded: stats.catchup_records_decoded,
        wal_records: (0..dep.sites as u16)
            .map(|s| cluster.replica(SiteId(s)).wal().map_or(0, |w| w.len()))
            .collect(),
        recovery_completes: count_label(&events, labels::RECOVERY_COMPLETE),
        reads_parked: stats.reads_parked,
        parked_read_checks: stats.parked_read_checks,
        parked_at_idle: cluster.parked_reads() as u64,
        converged: stores_converged(&cluster),
        // A replica that stays down cannot converge: divergence is the
        // `converged` verdict's, weighed by [`ChaosReport::ok`].
        violation: violations.into_iter().find(|v| v != DIVERGED),
    };
    (report, events)
}

/// The seeded schedule library of the chaos sweep: one deterministic
/// crash → partition → heal → restart schedule per recovery path — 2PC
/// (`P-Store-2PC`), Paxos Commit (`P-Store-Paxos`), and the vector-clock
/// log replay (`Walter`). Assemblies that commit by group communication
/// have no restart ([`ProtocolSpec::recovery_support`]) and no entry.
pub fn chaos_library() -> Vec<Deployment> {
    let schedule = || {
        FaultSchedule::new()
            .crash(1, 400)
            .partition(0, 2, 600)
            .heal(0, 2, 900)
            .restart(1, 1_200)
    };
    vec![
        Deployment::new(gdur_protocols::p_store_2pc(), schedule()),
        Deployment::new(gdur_protocols::p_store_paxos(), schedule()),
        Deployment::new(gdur_protocols::walter(), schedule()),
    ]
}
