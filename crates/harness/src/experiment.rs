//! Experiment definitions and single-point runs.

use gdur_core::{Cluster, ClusterConfig, ProtocolSpec};
use gdur_sim::SimDuration;
use gdur_store::Placement;
use gdur_workload::{WorkloadSpec, YcsbSource};

use crate::fault::{run_checked, Deployment, FaultSchedule, Horizon};

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

    /// The deployment of one sweep point at `clients_per_site`: the
    /// scale's keyspace and payload, warmed up and measured, seeded
    /// `scale.seed ^ clients_per_site << 32`.
    pub fn deployment(&self, scale: &Scale, clients_per_site: usize) -> Deployment {
        let partitions = self.placement.placement(self.sites).partitions() as u64;
        Deployment {
            label: self.label.clone(),
            spec: self.spec.clone(),
            workload: self.workload.spec(scale.keys_per_partition * partitions),
            read_only_ratio: self.read_only_ratio,
            local_query_ratio: self.local_query_ratio,
            sites: self.sites,
            placement: self.placement,
            clients_per_site,
            keys_per_partition: scale.keys_per_partition,
            value_size: scale.value_size,
            seed: scale.seed ^ (clients_per_site as u64) << 32,
            horizon: Horizon::Window {
                warmup: scale.warmup,
                measure: scale.measure,
            },
            schedule: FaultSchedule::new(),
            reintroduce_psi_bug: false,
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
    /// Base RNG seed.
    pub seed: u64,
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
            seed: 1,
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
            seed: 1,
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

/// Runs one sweep point: the deployment of `exp` at `clients_per_site`
/// ([`Experiment::deployment`]), with a warm-up excluded from the reported
/// window.
///
/// # Panics
///
/// On any verdict of [`crate::check_invariants`]: no reported number comes
/// from a run that violates its claimed criterion.
pub fn run_point(exp: &Experiment, scale: &Scale, clients_per_site: usize) -> PointResult {
    let run = run_checked(&exp.deployment(scale, clients_per_site), None, None);
    let what = format_args!(
        "experiment '{}' ({clients_per_site} clients/site)",
        exp.label
    );
    run.expect_clean(what).point()
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
