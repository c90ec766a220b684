//! Deployment assembly: builds a simulated geo-replicated cluster —
//! replicas, clients, topology, placement, seeded data — from a
//! [`ProtocolSpec`] and a client-workload factory.
//!
//! This mirrors the paper's experimental setup (§8.1): one replica per
//! site, client machines colocated per site driving closed-loop load, and a
//! disaster-prone or disaster-tolerant placement.

use gdur_net::{GeoLatency, SiteId, Topology};
use gdur_sim::{Cores, ProcessId, SimDuration, SimTime, Simulation};
use gdur_store::{Placement, Value};

use crate::client::TxnRecord;
use crate::node::Node;
use crate::pool::{ClientPool, PoolCounts};
use crate::replica::{Replica, ReplicaConfig, ReplicaStats};
use crate::spec::{CostModel, ProtocolSpec};
use crate::txn::TxSource;

/// Configuration of a simulated deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The realized protocol under test.
    pub spec: ProtocolSpec,
    /// Data placement (also fixes the number of sites and partitions).
    pub placement: Placement,
    /// Keys per partition (the paper uses 10⁵ objects per replica).
    pub keys_per_partition: u64,
    /// Seed/after-value payload size in bytes (the paper uses 1 KB).
    pub value_size: usize,
    /// Closed-loop client threads per site.
    pub clients_per_site: usize,
    /// Optional bound on transactions per client (for run-to-idle tests).
    /// Every client is bounded at [`gdur_obs::MAX_POOL_LOCAL_SEQ`] (2²⁰)
    /// transactions regardless — an explicit panic, not a wrap; the
    /// paper's scale issues < 10⁴ per client.
    pub max_txns_per_client: Option<u64>,
    /// CPU model of the replicas.
    pub costs: CostModel,
    /// Cores per replica machine (the paper uses 4-core machines).
    pub cores_per_replica: u16,
    /// Record history for consistency checking (costs memory): install
    /// events and each coordinator's outcome log, which the oracle's
    /// `History` borrows rather than copies.
    pub record_history: bool,
    /// Attach the durable write-ahead log to every replica.
    pub persistence: bool,
    /// Abort submitted transactions undecided after this bound (`None` =
    /// wait forever, the crash-free default).
    pub vote_timeout: Option<SimDuration>,
    /// Abort after this many read-failover attempts (`None` = retry
    /// forever, the default).
    pub max_read_attempts: Option<usize>,
    /// Clients abandon operations unanswered after this bound (`None` =
    /// wait forever). Keeps closed-loop clients alive across coordinator
    /// crashes in fault-injection runs.
    pub client_op_timeout: Option<SimDuration>,
    /// Vestigial: nothing reads it. It chose between one client actor per
    /// client and one [`crate::ClientPool`] per site; every deployment now
    /// runs each site's clients as one pool (DESIGN.md §3.10). The field
    /// outlives the choice only because `benchmark/` spells it in a full
    /// literal, and goes with that line (ROADMAP item 8).
    pub client_pooling: bool,
    /// Closed-loop think time between an outcome and the next begin; also
    /// staggers a pool's initial begins across one interval. `None` =
    /// back-to-back, the paper's load model.
    pub client_think_time: Option<SimDuration>,
    /// Collect per-transaction [`TxnRecord`]s (on by default). Mega-scale
    /// sweeps turn this off and read aggregate pool counts instead,
    /// so memory stays bounded by client state, not by transaction count.
    pub record_txn_metrics: bool,
    /// RNG seed for the whole deployment.
    pub seed: u64,
    /// Vestigial: must be 1. It selected the parallel kernel, which PR 19
    /// removed (DESIGN.md §3.11); the field outlives it only because
    /// `benchmark/` spells it in a full literal, and goes with that line.
    pub kernel_threads: usize,
    /// Override for the topology's multiplicative latency jitter. `None`
    /// keeps the Grid'5000 default (5%); `Some(0.0)` makes every delay a
    /// pure function of endpoints and size.
    pub jitter: Option<f64>,
    /// **Model-checker regression knob — never set in real runs.** Plumbed
    /// to [`ReplicaConfig::bug_unreserved_commit_clocks`]: re-introduces
    /// the pre-fix Walter PSI fractured-read bug so `gdur-mc` can prove it
    /// finds it.
    #[doc(hidden)]
    pub bug_unreserved_commit_clocks: bool,
}

impl ClusterConfig {
    /// The base every configuration is written over: the paper's set-up
    /// (§8.1: 10⁵ 1 KB objects per partition, 4-core replicas, unbounded
    /// back-to-back clients, one per site) with history and per-transaction
    /// records on and every fault-tolerance knob off.
    pub fn new(spec: ProtocolSpec, placement: Placement) -> Self {
        ClusterConfig {
            spec,
            placement,
            keys_per_partition: 100_000,
            value_size: 1024,
            clients_per_site: 1,
            max_txns_per_client: None,
            costs: CostModel::default(),
            cores_per_replica: 4,
            record_history: true,
            persistence: false,
            vote_timeout: None,
            max_read_attempts: None,
            client_op_timeout: None,
            client_pooling: false,
            client_think_time: None,
            record_txn_metrics: true,
            seed: 42,
            kernel_threads: 1,
            jitter: None,
            bug_unreserved_commit_clocks: false,
        }
    }

    /// A small, fast configuration for tests and examples: `sites` sites in
    /// disaster-prone placement, 1000 keys per partition, 64-byte values,
    /// 20 transactions per client.
    pub fn small(spec: ProtocolSpec, sites: usize) -> Self {
        ClusterConfig {
            keys_per_partition: 1000,
            value_size: 64,
            max_txns_per_client: Some(20),
            ..Self::new(spec, Placement::disaster_prone(sites))
        }
    }
}

/// A built deployment ready to run.
pub struct Cluster {
    sim: Simulation<Node, GeoLatency>,
    replica_pids: Vec<ProcessId>,
    client_pids: Vec<ProcessId>,
    placement: Placement,
}

impl Cluster {
    /// Builds the deployment. `make_source` is invoked once per client with
    /// `(global client index, site)` and returns that client's workload.
    pub fn build(
        cfg: ClusterConfig,
        mut make_source: impl FnMut(usize, SiteId) -> Box<dyn TxSource + Send>,
    ) -> Cluster {
        assert_eq!(
            cfg.kernel_threads, 1,
            "the parallel kernel was removed in PR 19 (DESIGN.md §3.11): kernel_threads must be 1"
        );
        let sites = cfg.placement.sites();
        assert!(sites >= 1, "need at least one site");
        assert!(
            sites <= u16::MAX as usize,
            "{sites} sites overflow the u16 SiteId space"
        );
        assert!(
            cfg.clients_per_site <= gdur_obs::MAX_POOL_CLIENTS as usize,
            "clients_per_site={} exceeds the per-pool maximum of {} \
             (20-bit pooled client-index space)",
            cfg.clients_per_site,
            gdur_obs::MAX_POOL_CLIENTS
        );
        // Fail fast on a misassembled protocol: every deployment, whether
        // built by the harness, a test, or an example, passes the static
        // spec linter before a single message is simulated.
        cfg.spec.validate_strict(&cfg.placement);
        // Under Algorithm 3 every participant decides from the votes alone.
        // A coordinator that also aborts on a timer races them: replicas of
        // one partition terminate the same transaction differently.
        assert!(
            cfg.vote_timeout.is_none() || cfg.spec.group_communication().is_none(),
            "error[E-TIMEOUT-GC]: '{}' commits by group communication, where the votes \
             alone decide (§5, Algorithm 3): a coordinator's `vote_timeout` abort would \
             race them — leave `ClusterConfig::vote_timeout` unset",
            cfg.spec.name
        );
        let mut topo = Topology::grid5000(sites);
        if let Some(j) = cfg.jitter {
            topo = topo.with_jitter(j);
        }
        // Replicas first (pids 0..sites), then one client pool per site
        // (pids sites..2·sites) — one topology slot each.
        for _ in 0..2 {
            for s in 0..sites {
                topo.place(SiteId(s as u16));
            }
        }
        let replica_pids: Vec<ProcessId> = (0..sites).map(|s| ProcessId(s as u32)).collect();

        let geo = GeoLatency::new(topo.clone());
        let mut sim = Simulation::new(geo, cfg.seed);

        let partitions = cfg.placement.partitions();
        let total_keys = cfg.keys_per_partition * partitions as u64;
        let proto_value = Value::of_size(cfg.value_size);

        for s in 0..sites {
            let site = SiteId(s as u16);
            // Nearest replica site per partition, from this site's view.
            let read_target: Vec<SiteId> = (0..partitions)
                .map(|p| {
                    let part = gdur_store::PartitionId(p as u32);
                    *cfg.placement
                        .replicas(part)
                        .iter()
                        .min_by_key(|r| topo.base_latency(site, **r))
                        .expect("partitions have replicas")
                })
                .collect();
            let rcfg = ReplicaConfig {
                site,
                spec: cfg.spec.clone(),
                placement: cfg.placement.clone(),
                replica_pids: replica_pids.clone(),
                read_target,
                costs: cfg.costs,
                read_timeout: SimDuration::from_millis(250),
                vote_timeout: cfg.vote_timeout,
                max_read_attempts: cfg.max_read_attempts,
                persistence: cfg.persistence,
                record_history: cfg.record_history,
                bug_unreserved_commit_clocks: cfg.bug_unreserved_commit_clocks,
            };
            let pid = sim.spawn(
                Node::Replica(Box::new(Replica::new(
                    ProcessId(s as u32),
                    rcfg,
                    total_keys,
                    &proto_value,
                ))),
                Cores::Fixed(cfg.cores_per_replica),
            );
            debug_assert_eq!(pid, replica_pids[s]);
        }

        let mut client_pids = Vec::with_capacity(sites);
        let mut client_idx = 0usize;
        for (s, &coordinator) in replica_pids.iter().enumerate() {
            let site = SiteId(s as u16);
            let mut pool = ClientPool::new(coordinator, proto_value.clone())
                .with_txn_records(cfg.record_txn_metrics);
            if let Some(max) = cfg.max_txns_per_client {
                pool = pool.with_max_txns(max);
            }
            if let Some(t) = cfg.client_op_timeout {
                pool = pool.with_op_timeout(t);
            }
            if let Some(t) = cfg.client_think_time {
                pool = pool.with_think_time(t);
            }
            // Each client's seed depends on its global index only.
            for _ in 0..cfg.clients_per_site {
                let source = make_source(client_idx, site);
                pool.add_client(source, cfg.seed ^ (0x9e37_79b9 + client_idx as u64));
                client_idx += 1;
            }
            client_pids.push(sim.spawn(Node::Pool(pool), Cores::Unlimited));
        }

        Cluster {
            sim,
            replica_pids,
            client_pids,
            placement: cfg.placement,
        }
    }

    /// Runs for `dur` of virtual time.
    pub fn run_for(&mut self, dur: SimDuration) -> SimTime {
        let until = self.sim.now() + dur;
        self.sim.run_until(until)
    }

    /// Runs until no events remain (requires bounded clients).
    pub fn run_until_idle(&mut self) -> SimTime {
        self.sim.run_until_idle()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The underlying simulation (e.g. for crash injection).
    pub fn sim_mut(&mut self) -> &mut Simulation<Node, GeoLatency> {
        &mut self.sim
    }

    /// Attaches an observability sink; every subsequent event of the run is
    /// recorded through it. Tracing never consumes virtual time or
    /// randomness, so attaching a sink cannot perturb the simulation.
    pub fn attach_obs(&mut self, sink: Box<dyn gdur_sim::ObsSink>) {
        self.sim.attach_obs(sink);
    }

    /// The inter-site topology of the deployment (for WAN/LAN accounting).
    pub fn topology(&self) -> &Topology {
        self.sim.latency_model().topology()
    }

    /// Read access to the underlying simulation.
    pub fn sim(&self) -> &Simulation<Node, GeoLatency> {
        &self.sim
    }

    /// Handle for injecting and healing inter-site network partitions.
    pub fn partition_control(&self) -> gdur_net::PartitionControl {
        self.sim.latency_model().partition_control()
    }

    /// Replica process ids, indexed by site.
    pub fn replica_pids(&self) -> &[ProcessId] {
        &self.replica_pids
    }

    /// Client pool process ids, indexed by site.
    pub fn client_pids(&self) -> &[ProcessId] {
        &self.client_pids
    }

    /// The placement in effect.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The replica at `site`.
    pub fn replica(&self, site: SiteId) -> &Replica {
        self.sim
            .actor(self.replica_pids[site.index()])
            .as_replica()
            .expect("replica pid")
    }

    fn pools(&self) -> impl Iterator<Item = &ClientPool> + '_ {
        self.placement.all_sites().map(|s| self.pool(s))
    }

    /// Display name per actor, indexed by process id — `replica p0 @ s0`
    /// or `pool p3 @ s1 (N clients)` — the track names of trace tooling.
    pub fn actor_names(&self) -> Vec<String> {
        let topology = self.topology();
        let mut names = vec![String::new(); self.replica_pids.len() + self.client_pids.len()];
        for &p in &self.replica_pids {
            names[p.index()] = format!("replica p{} @ s{}", p.0, topology.site_of(p).0);
        }
        for (&p, pool) in self.client_pids.iter().zip(self.pools()) {
            let (site, n) = (topology.site_of(p).0, pool.clients());
            names[p.index()] = format!("pool p{} @ s{site} ({n} clients)", p.0);
        }
        names
    }

    /// All finished-transaction records across clients (empty when built
    /// with `record_txn_metrics: false`).
    pub fn records(&self) -> Vec<TxnRecord> {
        let mut out = Vec::with_capacity(self.pools().map(|p| p.records().len()).sum());
        for p in self.pools() {
            out.extend(p.records());
        }
        out
    }

    /// The client pool colocated with `site`'s replica.
    pub fn pool(&self, site: SiteId) -> &ClientPool {
        self.sim
            .actor(self.client_pids[site.index()])
            .as_pool()
            .expect("client pid")
    }

    /// Aggregate client counters summed across every client actor.
    pub fn pool_counts(&self) -> PoolCounts {
        let mut total = PoolCounts::default();
        for p in self.pools() {
            let c = p.counts();
            total.issued += c.issued;
            total.committed += c.committed;
            total.aborted += c.aborted;
            for (t, v) in total.aborted_by_cause.iter_mut().zip(c.aborted_by_cause) {
                *t += v;
            }
            total.total_latency_nanos = total
                .total_latency_nanos
                .saturating_add(c.total_latency_nanos);
        }
        total
    }

    /// Summed replica statistics.
    pub fn replica_stats(&self) -> ReplicaStats {
        let sites = self.placement().all_sites();
        sites
            .map(|s| self.replica(s).stats())
            .fold(ReplicaStats::default(), ReplicaStats::sum)
    }

    /// Reads still parked at some replica (0 once a run has gone idle).
    pub fn parked_reads(&self) -> usize {
        let sites = self.placement().all_sites();
        sites.map(|s| self.replica(s).parked_reads()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::tests::walter_like;
    use crate::ScriptSource;

    #[test]
    #[should_panic(expected = "the parallel kernel was removed")]
    fn build_refuses_more_than_one_kernel_thread() {
        let cfg = ClusterConfig {
            kernel_threads: 2,
            ..ClusterConfig::small(walter_like(), 2)
        };
        Cluster::build(cfg, |_, _| Box::new(ScriptSource::new(Vec::new())));
    }
}
