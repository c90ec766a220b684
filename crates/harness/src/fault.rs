//! Declarative fault schedules, the one description of a checked run, and
//! its one runner (§5.3).
//!
//! A [`FaultSchedule`] lists scheduled crashes, restarts, link partitions,
//! and heals in virtual time. A [`Deployment`] is a deployment, its
//! [`Horizon`] and its schedule; [`run_checked`] runs it — under the
//! kernel's own order, or under a `gdur_sim::Scheduler` when `gdur-mc`
//! explores schedules — and judges it with [`check_invariants`]. A figure
//! point, a chaos run, a `gdur-mc` schedule and a criterion test are each
//! a [`Deployment`], and each leaves a [`CheckedRun`]: a chaos run reads its
//! counters off the cluster and its [`Recoveries`] off the trace.
//!
//! A schedule that restarts a replica is a claim that the assembly
//! recovers. [`run_checked`] refuses it for an assembly that does not
//! ([`ProtocolSpec::recovery_support`]): the support matrix of DESIGN.md
//! §3.7 has no cell between "recovers, tested" and "refused".
//!
//! Everything here is deterministic: the same deployment and schedule
//! reproduce the same trace byte for byte (`tests/tests/determinism.rs`
//! reruns the library to check it; `chaos_smoke`'s golden relies on it).

use std::collections::{BTreeMap, BTreeSet};

use gdur_core::{Cluster, ClusterConfig, ProtocolSpec, TxnRecord};
use gdur_net::SiteId;
use gdur_obs::{labels, ObsEvent, PhaseBreakdown, TraceHandle};
use gdur_sim::{ProcessId, Scheduler, SimDuration, SimTime};
use gdur_store::PartitionId;
use gdur_workload::WorkloadSpec;

use crate::experiment::{build_ycsb, PlacementKind, PointResult};
use crate::invariants::check_invariants;

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

    /// True if the schedule restarts a replica.
    fn restarts(&self) -> bool {
        (self.events.iter()).any(|e| matches!(e, FaultEvent::Restart { .. }))
    }

    /// True if every crashed replica is restarted later: a drained run of
    /// the schedule ends with every replica up, so its stores must agree.
    pub fn restores_every_crash(&self) -> bool {
        let mut down = BTreeSet::new();
        for ev in self.chronological() {
            match ev {
                FaultEvent::Crash { site, .. } => down.insert(site),
                FaultEvent::Restart { site, .. } => down.remove(&site),
                FaultEvent::Partition { .. } | FaultEvent::Heal { .. } => false,
            };
        }
        down.is_empty()
    }
}

/// How long a checked run lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// Every client issues this many transactions and the run drains to
    /// idle.
    Drain(u64),
    /// Unbounded clients; the run stops at `warmup + measure` of virtual
    /// time, and its window is what was decided from `warmup` on.
    Window {
        /// Warm-up excluded from the window.
        warmup: SimDuration,
        /// Length of the window.
        measure: SimDuration,
    },
}

impl Horizon {
    /// The transactions per client of a drained run.
    pub fn txns_per_client(self) -> Option<u64> {
        match self {
            Horizon::Drain(txns) => Some(txns),
            Horizon::Window { .. } => None,
        }
    }
}

/// One checked run: the protocol, the workload and its size, the seed, how
/// long it lasts and the faults it suffers. [`run_checked`] runs it.
///
/// The fault-tolerant half of the cluster is not an option: it follows
/// from the schedule ([`Deployment::cluster_config`]).
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Report label (defaults to the protocol name).
    pub label: String,
    /// The protocol under test.
    pub spec: ProtocolSpec,
    /// The YCSB workload.
    pub workload: WorkloadSpec,
    /// Fraction of read-only transactions.
    pub read_only_ratio: f64,
    /// Fraction of queries kept on the coordinator's partition (Figure 5).
    pub local_query_ratio: f64,
    /// Number of sites.
    pub sites: usize,
    /// Placement of a fault-free run; a run with faults is disaster
    /// tolerant.
    pub placement: PlacementKind,
    /// Closed-loop clients per site.
    pub clients_per_site: usize,
    /// Keys per partition.
    pub keys_per_partition: u64,
    /// Payload size in bytes.
    pub value_size: usize,
    /// Deployment seed.
    pub seed: u64,
    /// When the run stops.
    pub horizon: Horizon,
    /// The fault schedule.
    pub schedule: FaultSchedule,
    /// Re-introduce the pre-fix Walter PSI fractured-read bug
    /// (`ClusterConfig::bug_unreserved_commit_clocks`). Regression-suite
    /// use only.
    pub reintroduce_psi_bug: bool,
}

impl Deployment {
    /// The CI-sized chaos deployment of `spec` under `schedule`: 3 sites,
    /// 2 clients per site x 30 transactions of workload A at 50 % read-only
    /// over 200 keys of 64 bytes per partition, seed 7.
    pub fn new(spec: ProtocolSpec, schedule: FaultSchedule) -> Self {
        Deployment {
            label: spec.name.to_string(),
            spec,
            workload: WorkloadSpec::a(),
            read_only_ratio: 0.5,
            local_query_ratio: 0.0,
            sites: 3,
            placement: PlacementKind::Dp,
            clients_per_site: 2,
            keys_per_partition: 200,
            value_size: 64,
            seed: 7,
            horizon: Horizon::Drain(30),
            schedule,
            reintroduce_psi_bug: false,
        }
    }

    /// The cluster this deployment runs. A schedule that holds a fault gets
    /// the §5.3 crash–recovery model: disaster-tolerant placement (catch-up
    /// needs a second replica), the write-ahead log, a 500 ms vote timeout
    /// where the coordinator owns the decision, bounded read failover and a
    /// 2 s client operation timeout. An empty schedule gets a crash- and
    /// timeout-free deployment in [`Deployment::placement`].
    pub fn cluster_config(&self) -> ClusterConfig {
        let faulty = !self.schedule.events().is_empty();
        let placement = if faulty {
            PlacementKind::Dt
        } else {
            self.placement
        };
        // Only a coordinator that owns the decision may abort it on a timer.
        let coordinated = self.spec.group_communication().is_none();
        ClusterConfig {
            keys_per_partition: self.keys_per_partition,
            value_size: self.value_size,
            clients_per_site: self.clients_per_site,
            max_txns_per_client: self.horizon.txns_per_client(),
            persistence: faulty,
            vote_timeout: (faulty && coordinated).then(|| SimDuration::from_millis(500)),
            max_read_attempts: faulty.then_some(6),
            client_op_timeout: faulty.then(|| SimDuration::from_secs(2)),
            seed: self.seed,
            bug_unreserved_commit_clocks: self.reintroduce_psi_bug,
            ..ClusterConfig::new(self.spec.clone(), placement.placement(self.sites))
        }
    }

    /// The cluster of [`Deployment::cluster_config`], built with one YCSB
    /// source per client and not yet run.
    pub fn build(&self) -> Cluster {
        let (ro, local) = (self.read_only_ratio, self.local_query_ratio);
        build_ycsb(self.cluster_config(), &self.workload, ro, local)
    }
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

/// The one result of a checked run: what [`run_checked`] leaves behind.
pub struct CheckedRun {
    /// The deployment, at its horizon.
    pub cluster: Cluster,
    /// The verdicts of [`check_invariants`], empty when the run is clean.
    pub violations: Vec<String>,
    /// The trace, empty when the run was not traced.
    pub events: Vec<ObsEvent>,
    /// Start of the measurement window: the end of a windowed run's
    /// warm-up, [`SimTime::ZERO`] for a drained run.
    pub window_start: SimTime,
}

impl CheckedRun {
    /// The run, after a panic naming `what` on any verdict.
    pub fn expect_clean(self, what: impl std::fmt::Display) -> Self {
        assert!(self.violations.is_empty(), "{what}: {:?}", self.violations);
        self
    }

    /// The measurements of the run's window: the transactions decided from
    /// [`CheckedRun::window_start`] on. With or without a trace they are
    /// bit-identical: tracing never consumes virtual time or randomness.
    pub fn point(&self) -> PointResult {
        let mut records = self.cluster.records();
        records.retain(|r| r.decided_at >= self.window_start);
        let committed: Vec<&TxnRecord> = records.iter().filter(|r| r.committed).collect();
        let mean_ms = |ms: Vec<f64>| match ms.len() {
            0 => 0.0,
            n => ms.iter().sum::<f64>() / n as f64,
        };
        let updates = committed.iter().filter(|r| !r.read_only);
        let (decided, n) = (records.len() as u64, committed.len() as u64);
        let sites = self.cluster.placement().all_sites();
        PointResult {
            clients_total: sites.map(|s| self.cluster.pool(s).clients()).sum(),
            throughput_tps: n as f64 / (self.cluster.now() - self.window_start).as_secs_f64(),
            term_latency_update_ms: mean_ms(
                updates
                    .map(|r| r.termination_latency().as_millis_f64())
                    .collect(),
            ),
            avg_latency_ms: mean_ms(
                committed
                    .iter()
                    .map(|r| r.total_latency().as_millis_f64())
                    .collect(),
            ),
            abort_ratio: match decided {
                0 => 0.0,
                _ => (decided - n) as f64 / decided as f64,
            },
            committed: n,
            aborted: decided - n,
        }
    }

    /// The phase breakdown of the run's window, from its trace.
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown::from_events(&self.events, self.cluster.topology(), self.window_start)
    }

    /// The client actors (service time on them is client think time).
    pub fn clients(&self) -> BTreeSet<ProcessId> {
        self.cluster.client_pids().iter().copied().collect()
    }

    /// The crash–recovery activity of the run, from its trace: all zero
    /// when the run was not traced.
    pub fn recoveries(&self) -> Recoveries {
        let mut r = Recoveries::default();
        // Restarted replicas, and since when each awaits its catch-up.
        let (mut restarted, mut awaiting) = (BTreeSet::new(), BTreeMap::new());
        let mut last_restart = None;
        for ev in &self.events {
            let ObsEvent::Point {
                at,
                actor,
                label,
                value,
                ..
            } = *ev
            else {
                continue;
            };
            match label {
                labels::KERNEL_CRASH => r.crashes += 1,
                labels::KERNEL_RESTART => {
                    r.restarts += 1;
                    restarted.insert(actor);
                    awaiting.insert(actor, at);
                    last_restart = Some(at);
                }
                labels::RECOVERY_COMPLETE => {
                    r.completes += 1;
                    if let Some(since) = awaiting.remove(&actor) {
                        r.recovery = r.recovery.max(at.saturating_since(since));
                    }
                }
                labels::RECOVERY_REPLAYED => {
                    r.replay = r.replay.max(SimDuration::from_nanos(value))
                }
                _ => {}
            }
        }
        // Transaction ids carry the *client-side* pid as their coordinator
        // field: the clients of a restarted site are its colocated pool.
        let (replicas, clients) = (self.cluster.replica_pids(), self.cluster.client_pids());
        let coords: Vec<u32> = (replicas.iter().zip(clients))
            .filter(|(replica, _)| restarted.contains(*replica))
            .map(|(_, pool)| pool.0)
            .collect();
        r.post_restart_commits = (self.cluster.records().iter())
            .filter(|t| t.committed && last_restart.is_some_and(|at| t.decided_at >= at))
            .filter(|t| coords.contains(&t.tx.coord()))
            .count() as u64;
        r
    }
}

/// The crash–recovery activity of a traced run that only its trace holds
/// ([`CheckedRun::recoveries`]). What a replica counts is read off the
/// cluster: `Cluster::replica_stats` (`recoveries` counts the log replays,
/// `resubmissions` the resumed terminations, `catchup_*` the transfers),
/// `Replica::wal` and `Cluster::parked_reads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recoveries {
    /// Crashes that took effect (`kernel.crash`).
    pub crashes: u64,
    /// Restarts that took effect (`kernel.restart`).
    pub restarts: u64,
    /// Completed catch-up transfers (`recovery.complete`).
    pub completes: u64,
    /// Longest log replay, from a replica's restart to the end of its
    /// replay's last share (`recovery.replayed`): the first half of
    /// [`Recoveries::recovery`], the catch-up transfer being the second.
    pub replay: SimDuration,
    /// Longest virtual time from a replica's restart to its next
    /// `recovery.complete`.
    pub recovery: SimDuration,
    /// Transactions committed by a restarted replica's clients from the
    /// last restart on — the "recovered replica does useful work again"
    /// signal.
    pub post_restart_commits: u64,
}

/// Builds the deployment, applies its fault schedule, runs it to its
/// [`Horizon`] under `scheduler` (the kernel's own order when `None`) with
/// `trace` attached, and judges it with [`check_invariants`]. The only
/// runner of a checked run.
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
    scheduler: Option<Box<dyn Scheduler>>,
    trace: Option<TraceHandle>,
) -> CheckedRun {
    if dep.schedule.restarts() {
        if let Err(refusal) = dep.spec.recovery_support() {
            panic!("{}: the schedule restarts a replica: {refusal}", dep.label);
        }
    }
    let mut cluster = dep.build();
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
    // A drained run ends when idle, a windowed one at `warmup + measure`.
    let (window_start, end) = match dep.horizon {
        Horizon::Drain(_) => (SimTime::ZERO, SimTime::MAX),
        Horizon::Window { warmup, measure } => {
            (SimTime::ZERO + warmup, SimTime::ZERO + warmup + measure)
        }
    };
    // Link state is latency-model state, not a kernel event: slice the run
    // at every partition boundary before the end and flip the cut between
    // slices.
    for ev in dep.schedule.chronological() {
        let (a, b, at, cut) = match ev {
            FaultEvent::Partition { a, b, at } => (a, b, at, true),
            FaultEvent::Heal { a, b, at } => (a, b, at, false),
            FaultEvent::Crash { .. } | FaultEvent::Restart { .. } => continue,
        };
        if at > end {
            break;
        }
        cluster.sim_mut().run_until(at);
        if cut {
            pc.cut(a, b);
        } else {
            pc.heal(a, b);
        }
    }
    cluster.sim_mut().run_until(end);
    CheckedRun {
        violations: check_invariants(dep, &cluster),
        events: trace.map(|t| t.take()).unwrap_or_default(),
        cluster,
        window_start,
    }
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
