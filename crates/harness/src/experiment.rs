//! Experiment definitions and single-point runs.

use std::collections::BTreeSet;

use gdur_consistency::{CriterionCheck, History};
use gdur_core::{Cluster, ClusterConfig, ProtocolSpec, TxnRecord};
use gdur_net::Topology;
use gdur_obs::{ObsEvent, PhaseBreakdown, TraceHandle};
use gdur_sim::{ProcessId, SimDuration, SimTime};
use gdur_store::Placement;
use gdur_workload::{WorkloadSpec, YcsbSource};

/// Which Table 3 workload an experiment drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniform, 2-read queries, 1R+1U updates.
    A,
    /// Uniform, 4-read queries, 2R+2U updates.
    B,
    /// Zipfian, 2-read queries, 1R+1U updates.
    C,
}

impl WorkloadKind {
    /// Builds the concrete spec for a keyspace of `total_keys`.
    pub fn spec(self, total_keys: u64) -> WorkloadSpec {
        match self {
            WorkloadKind::A => WorkloadSpec::a(),
            WorkloadKind::B => WorkloadSpec::b(),
            WorkloadKind::C => WorkloadSpec::c(total_keys),
        }
    }
}

/// Data placement used by an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Disaster prone: one replica per object (§8.5.1).
    Dp,
    /// Disaster tolerant: two replicas per object (§8.5.2).
    Dt,
}

impl PlacementKind {
    /// Builds the placement for `sites` sites.
    pub fn placement(self, sites: usize) -> Placement {
        match self {
            PlacementKind::Dp => Placement::disaster_prone(sites),
            PlacementKind::Dt => Placement::disaster_tolerant(sites),
        }
    }
}

/// One experiment curve: a protocol under a workload and deployment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Curve label in the rendered figure.
    pub label: String,
    /// Protocol under test.
    pub spec: ProtocolSpec,
    /// Table 3 workload.
    pub workload: WorkloadKind,
    /// Fraction of read-only transactions (0.9 / 0.7 in the paper).
    pub read_only_ratio: f64,
    /// Fraction of queries kept on the coordinator's partition (Figure 5).
    pub local_query_ratio: f64,
    /// Number of sites.
    pub sites: usize,
    /// Placement.
    pub placement: PlacementKind,
}

impl Experiment {
    /// Shorthand constructor with no locality.
    pub fn new(
        spec: ProtocolSpec,
        workload: WorkloadKind,
        read_only_ratio: f64,
        sites: usize,
        placement: PlacementKind,
    ) -> Self {
        Experiment {
            label: spec.name.to_string(),
            spec,
            workload,
            read_only_ratio,
            local_query_ratio: 0.0,
            sites,
            placement,
        }
    }
}

/// Scale parameters of a run: the paper-faithful setting and a quick one
/// for CI.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Objects per partition (paper: 10⁵ per replica).
    pub keys_per_partition: u64,
    /// Payload size (paper: 1 KB).
    pub value_size: usize,
    /// Warm-up interval excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement interval.
    pub measure: SimDuration,
    /// Client threads per site, one sweep point per entry.
    pub client_sweep: Vec<usize>,
    /// Replica cores (paper: 4-core machines).
    pub cores: u16,
    /// Base RNG seed.
    pub seed: u64,
    /// One client actor per site instead of one per client (see
    /// `ClusterConfig::client_pooling`).
    pub client_pooling: bool,
}

impl Scale {
    /// Paper-faithful scale (minutes of CPU per figure).
    pub fn paper() -> Self {
        Scale {
            keys_per_partition: 100_000,
            value_size: 1024,
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(4),
            client_sweep: vec![8, 64, 256, 512, 1024, 1536],
            cores: 4,
            seed: 1,
            client_pooling: false,
        }
    }

    /// Reduced scale for tests and CI gates (seconds per figure).
    pub fn quick() -> Self {
        Scale {
            keys_per_partition: 2_000,
            value_size: 128,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(2),
            client_sweep: vec![4, 16, 48],
            cores: 4,
            seed: 1,
            client_pooling: false,
        }
    }
}

/// The measurements of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Total client threads across all sites.
    pub clients_total: usize,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Mean termination latency of committed update transactions, ms
    /// (Figure 3's y-axis).
    pub term_latency_update_ms: f64,
    /// Mean total latency of all committed transactions, ms (Figure 4's
    /// y-axis).
    pub avg_latency_ms: f64,
    /// Aborted / decided.
    pub abort_ratio: f64,
    /// Committed transactions inside the window.
    pub committed: u64,
    /// Aborted transactions inside the window.
    pub aborted: u64,
}

fn summarize(records: &[TxnRecord], window: SimDuration, clients_total: usize) -> PointResult {
    let committed: Vec<&TxnRecord> = records.iter().filter(|r| r.committed).collect();
    let aborted = records.len() as u64 - committed.len() as u64;
    let committed_updates: Vec<&&TxnRecord> = committed.iter().filter(|r| !r.read_only).collect();
    let mean_ms = |it: &[&&TxnRecord], f: &dyn Fn(&TxnRecord) -> f64| -> f64 {
        if it.is_empty() {
            0.0
        } else {
            it.iter().map(|r| f(r)).sum::<f64>() / it.len() as f64
        }
    };
    let term_latency_update_ms = mean_ms(&committed_updates, &|r| {
        r.termination_latency().as_millis_f64()
    });
    let all_refs: Vec<&&TxnRecord> = committed.iter().collect();
    let avg_latency_ms = mean_ms(&all_refs, &|r| r.total_latency().as_millis_f64());
    PointResult {
        clients_total,
        throughput_tps: committed.len() as f64 / window.as_secs_f64(),
        term_latency_update_ms,
        avg_latency_ms,
        abort_ratio: if records.is_empty() {
            0.0
        } else {
            aborted as f64 / records.len() as f64
        },
        committed: committed.len() as u64,
        aborted,
    }
}

/// Runs one sweep point: a full deployment at `clients_per_site`, with a
/// warm-up excluded from the reported window.
pub fn run_point(exp: &Experiment, scale: &Scale, clients_per_site: usize) -> PointResult {
    run_point_with(exp, scale, clients_per_site, None).point
}

/// Everything one sweep point produced, for the callers that want more
/// than the [`PointResult`].
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The point measurements — bit-identical with and without a trace:
    /// tracing never consumes virtual time or randomness.
    pub point: PointResult,
    /// The kernel's counters for the whole run (warm-up included). With the
    /// queue counters they are a pure function of the seed, which makes
    /// them a cheap bit-identity check across optimisation work.
    pub stats: gdur_sim::SimStats,
    /// Per-class traffic of the kernel's event queue, whole run.
    pub queue: gdur_sim::QueueStats,
    /// End of warm-up = start of the measurement window.
    pub warm_end: SimTime,
    /// Phase breakdown of `events` over the measurement window.
    pub breakdown: PhaseBreakdown,
    /// The full event trace (warm-up included); empty without a trace. A
    /// [`TraceHandle::causal`] trace also carries message ids, `Deliver`
    /// records and handler service brackets, so it feeds
    /// [`gdur_obs::CausalIndex`] directly.
    pub events: Vec<ObsEvent>,
    /// The client actors (service time on them is client think time).
    pub clients: BTreeSet<ProcessId>,
    /// Display name per actor, indexed by process id.
    pub actor_names: Vec<String>,
    /// The deployment's site topology.
    pub topology: Topology,
}

/// Builds the deployment of `cfg` with one YCSB source per client:
/// `workload` over the whole keyspace, a site's clients homed on partition
/// `site % partitions`, a fraction `read_only` of queries of which
/// `local_queries` stay on the home partition.
pub fn build_ycsb(
    cfg: ClusterConfig,
    workload: &WorkloadSpec,
    read_only: f64,
    local_queries: f64,
) -> Cluster {
    let partitions = cfg.placement.partitions() as u64;
    let total_keys = cfg.keys_per_partition * partitions;
    Cluster::build(cfg, |_idx, site| {
        let home = site.0 as u64 % partitions;
        let src = YcsbSource::new(workload.clone(), total_keys, partitions, home, read_only);
        Box::new(src.with_local_query_ratio(local_queries))
    })
}

/// Builds the deployment of one sweep point without running it: the
/// cluster [`run_point`] drives, at `clients_per_site`.
pub fn build_point(exp: &Experiment, scale: &Scale, clients_per_site: usize) -> Cluster {
    // History recording stays at the base's "on": every experiment's
    // history is fed to the consistency oracle, so no reported number can
    // come from a corrupt run.
    let cfg = ClusterConfig {
        keys_per_partition: scale.keys_per_partition,
        value_size: scale.value_size,
        clients_per_site,
        cores_per_replica: scale.cores,
        client_pooling: scale.client_pooling,
        seed: scale.seed ^ (clients_per_site as u64) << 32,
        ..ClusterConfig::new(exp.spec.clone(), exp.placement.placement(exp.sites))
    };
    let total_keys = cfg.keys_per_partition * cfg.placement.partitions() as u64;
    let workload = exp.workload.spec(total_keys);
    build_ycsb(cfg, &workload, exp.read_only_ratio, exp.local_query_ratio)
}

/// Like [`run_point`], with everything else the run produced and, given a
/// `trace`, its sink attached for the whole run.
pub fn run_point_with(
    exp: &Experiment,
    scale: &Scale,
    clients_per_site: usize,
    trace: Option<TraceHandle>,
) -> PointRun {
    let mut cluster = build_point(exp, scale, clients_per_site);
    if let Some(t) = &trace {
        cluster.attach_obs(t.sink());
    }
    cluster.run_for(scale.warmup);
    let warm_end = cluster.now();
    cluster.run_for(scale.measure);
    // Always-on history verification: check the full run (warm-up
    // included) against the criterion the spec claims, and refuse to
    // report measurements from a violating execution.
    let history = History::from_cluster(&cluster);
    if let Err(v) = exp.spec.criterion.check(&history) {
        panic!(
            "experiment '{}' ({} clients/site) violated its claimed criterion {:?}: {v}",
            exp.label, clients_per_site, exp.spec.criterion
        );
    }
    let records: Vec<TxnRecord> = cluster
        .records()
        .into_iter()
        .filter(|r| r.decided_at >= warm_end)
        .collect();
    let clients_total = clients_per_site * exp.sites;
    let point = summarize(&records, cluster.now() - warm_end, clients_total);
    let events = trace.map(|t| t.take()).unwrap_or_default();
    let topology = cluster.topology().clone();
    let clients: BTreeSet<ProcessId> = cluster.client_pids().iter().copied().collect();
    PointRun {
        point,
        stats: cluster.sim().stats(),
        queue: cluster.sim().queue_stats(),
        warm_end,
        breakdown: PhaseBreakdown::from_events(&events, &topology, warm_end),
        events,
        clients,
        actor_names: cluster.actor_names(),
        topology,
    }
}

/// Runs the whole client sweep of an experiment, one OS thread per point.
pub fn run_sweep(exp: &Experiment, scale: &Scale) -> Vec<PointResult> {
    let mut results: Vec<Option<PointResult>> = vec![None; scale.client_sweep.len()];
    #[expect(
        clippy::disallowed_methods,
        reason = "each thread runs one whole single-threaded, seeded simulation; only the host-side sweep loop is parallel"
    )]
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, &cps) in scale.client_sweep.iter().enumerate() {
            handles.push((i, s.spawn(move || run_point(exp, scale, cps))));
        }
        for (i, h) in handles {
            results[i] = Some(h.join().expect("sweep point panicked"));
        }
    });
    results.into_iter().map(|r| r.expect("filled")).collect()
}

/// Maximum committed throughput over a sweep (Figure 5's metric).
pub fn max_throughput(points: &[PointResult]) -> f64 {
    points.iter().map(|p| p.throughput_tps).fold(0.0, f64::max)
}
