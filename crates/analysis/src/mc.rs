//! # gdur-mc — stateless DPOR-lite schedule exploration.
//!
//! Every other analysis in this crate checks invariants along exactly one
//! schedule per seed. This module drives the deterministic kernel through
//! *many* schedules: a [`gdur_sim::Scheduler`] turns each co-enabled
//! window (arrivals within [`McConfig::window`] of the queue head) into a
//! potential choice point, and a stateless breadth-first search enumerates
//! decision vectors in nondecreasing distance from the default schedule.
//! Two prunings keep the tree tractable:
//!
//! * **DPOR-lite / commutativity** — arrivals addressed to *different*
//!   actors commute (an actor's behavior is a function of its own input
//!   order), inert arrivals (canceled timers draining through the queue)
//!   commute with everything, and same-channel deliveries never race (the
//!   network is per-`(from, to)` FIFO), so only non-inert channel-first
//!   candidates racing for the same actor as the window head branch. The
//!   ratio of racing to co-enabled candidates is reported as the pruning
//!   factor.
//! * **Delay bounding** — the window caps how far an arrival may be
//!   deferred, so every explored schedule is a legal execution under
//!   bounded network/CPU jitter.
//!
//! Because a run is a pure function of `(seed, decision vector)`, a
//! violating schedule is *replayable*: the decision vector is minimized by
//! delta-debugging (each run re-executes from scratch) and written to a
//! self-contained counterexample file that [`replay`] turns back into a
//! full observability trace. A random-walk mode samples the same space
//! uniformly for configurations too large to enumerate.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use gdur_core::{Cluster, ClusterConfig, ProtocolSpec};
use gdur_harness::{build_ycsb, check_invariants};
use gdur_obs::TraceHandle;
use gdur_sim::{Candidate, CandidateKind, ObsEvent, Scheduler, SimDuration, SimTime};
use gdur_store::Placement;
use gdur_workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small, bounded deployment for schedule exploration.
///
/// Uses disaster-prone placement (one replica per partition) so that most
/// transactions need *remote* reads — the cross-replica snapshot races
/// schedule exploration is after — with bounded closed-loop clients so runs
/// terminate. Crash-free and timeout-free: every abort must come from
/// certification, which keeps the invariant verdicts crisp. The workload is
/// fixed to YCSB-B (2-read-2-write updates) — multi-key writers are what
/// make fractured-read violations expressible at all.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Display/file label for this configuration.
    pub label: String,
    /// The protocol under test (must be a `gdur_protocols::by_name` entry
    /// for counterexamples to round-trip).
    pub spec: ProtocolSpec,
    /// Sites (= partitions under disaster-tolerant placement).
    pub sites: usize,
    /// Closed-loop clients per site.
    pub clients_per_site: usize,
    /// Transactions issued per client before it stops.
    pub txns_per_client: u64,
    /// Keys per partition (small = contended).
    pub keys_per_partition: u64,
    /// Deployment RNG seed.
    pub seed: u64,
    /// Co-enabled window offered to the scheduler (delay bound).
    pub window: SimDuration,
    /// Re-introduce the pre-fix Walter PSI fractured-read bug (see
    /// `ClusterConfig::bug_unreserved_commit_clocks`). Regression-suite
    /// use only.
    pub reintroduce_psi_bug: bool,
}

impl McConfig {
    /// The standard 2-site/2-client exploration config for `spec`.
    pub fn small(label: &str, spec: ProtocolSpec) -> McConfig {
        McConfig {
            label: label.to_string(),
            spec,
            sites: 2,
            clients_per_site: 2,
            txns_per_client: 6,
            keys_per_partition: 8,
            seed: 11,
            window: SimDuration::from_micros(2000),
            reintroduce_psi_bug: false,
        }
    }
}

/// The named configurations `mc_smoke` explores in CI: one vote-clocked
/// vector protocol (Walter/PSI), one genuine-partial-replication 2PC
/// protocol, and one GC-voting (atomic-broadcast) protocol.
pub fn mc_library() -> Vec<McConfig> {
    vec![
        McConfig::small("walter", gdur_protocols::walter()),
        McConfig::small("p_store_2pc", gdur_protocols::p_store_2pc()),
        McConfig::small("p_store_ab", gdur_protocols::p_store_ab()),
    ]
}

/// The regression configuration that must re-find the PR 1 Walter PSI
/// fractured read: same shape as the library Walter config, with the
/// pre-fix bump-at-install commit clocks switched back on. The seed is
/// picked so the *default* schedule is clean — the violation only appears
/// once the explorer perturbs message arrival order, which is exactly the
/// "caught by luck" gap `gdur-mc` exists to close.
pub fn walter_psi_bug_config() -> McConfig {
    let mut cfg = McConfig::small("walter-psi-bug", gdur_protocols::walter());
    cfg.reintroduce_psi_bug = true;
    cfg.seed = 2;
    cfg
}

fn build_cluster(cfg: &McConfig) -> Cluster {
    let placement = Placement::disaster_prone(cfg.sites);
    let ccfg = ClusterConfig {
        keys_per_partition: cfg.keys_per_partition,
        value_size: 64,
        clients_per_site: cfg.clients_per_site,
        max_txns_per_client: Some(cfg.txns_per_client),
        seed: cfg.seed,
        bug_unreserved_commit_clocks: cfg.reintroduce_psi_bug,
        ..ClusterConfig::new(cfg.spec.clone(), placement)
    };
    build_ycsb(ccfg, &WorkloadSpec::b(), 0.5, 0.0)
}

/// What the scheduler records during one run, shared with the explorer
/// through an `Arc<Mutex<_>>` (the `TraceHandle` pattern).
#[derive(Debug, Default)]
struct McLog {
    /// Decision taken at each branching choice point (index into the race
    /// set).
    decisions: Vec<u32>,
    /// Race-set size at each branching choice point.
    arities: Vec<u32>,
    /// Sum of co-enabled candidates over all windows with ≥ 2 candidates:
    /// the branches a naive (no-commutativity) checker would explore.
    naive_branches: u64,
    /// Sum of race-set sizes over the same windows: the branches DPOR-lite
    /// actually explores.
    explored_branches: u64,
}

enum Policy {
    /// Follow the prescribed decision vector, then default to 0 (the
    /// kernel's own `(time, seq)` order).
    Guided { plan: Vec<u32>, pos: usize },
    /// Sample each decision uniformly from the checker's own RNG (never
    /// the simulation's — the walk must not perturb the run it steers).
    Random(SmallRng),
}

struct McScheduler {
    window: SimDuration,
    policy: Policy,
    log: Arc<Mutex<McLog>>,
}

impl Scheduler for McScheduler {
    fn window(&self) -> SimDuration {
        self.window
    }

    fn choose(&mut self, _now: SimTime, candidates: &[Candidate]) -> usize {
        // DPOR-lite, three commutativity/legality facts cut the race set:
        //
        // * arrivals to *different* actors commute — an actor's behavior is
        //   a function of its own input order;
        // * *inert* arrivals (canceled timers draining, deliveries to
        //   crashed actors) commute with everything;
        // * same-channel deliveries don't race — the network is per-channel
        //   FIFO, so running a later message from the same sender ahead of
        //   an earlier one is not a legal network behavior; only the first
        //   delivery per `(from, to)` channel is an alternative.
        //
        // Only non-inert, channel-first candidates addressed to the window
        // head's actor branch.
        let mut log = self.log.lock().expect("mc log poisoned");
        log.naive_branches += candidates.len() as u64;
        if candidates[0].inert {
            // Running a no-op first is order-irrelevant: not a choice point.
            log.explored_branches += 1;
            return 0;
        }
        let target = candidates[0].to;
        let channel_first = |i: usize, c: &Candidate| -> bool {
            let CandidateKind::Message { from } = c.kind else {
                return true; // timers/start/restart each race individually
            };
            !candidates[..i]
                .iter()
                .any(|p| p.to == c.to && p.kind == CandidateKind::Message { from })
        };
        let race: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|(i, c)| c.to == target && !c.inert && channel_first(*i, c))
            .map(|(i, _)| i)
            .collect();
        log.explored_branches += race.len() as u64;
        if race.len() == 1 {
            return 0;
        }
        let arity = race.len() as u32;
        let d = match &mut self.policy {
            Policy::Guided { plan, pos } => {
                // Clamp rather than panic: delta-debugging mutates the
                // vector, which can shrink downstream arities.
                let d = if *pos < plan.len() {
                    plan[*pos].min(arity - 1)
                } else {
                    0
                };
                *pos += 1;
                d
            }
            Policy::Random(rng) => rng.gen_range(0..arity),
        };
        log.decisions.push(d);
        log.arities.push(arity);
        race[d as usize]
    }
}

/// Everything one schedule run yields.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// The decision taken at every branching choice point (prescribed
    /// prefix plus the 0-defaults actually encountered).
    pub decisions: Vec<u32>,
    /// The race-set arity at every branching choice point.
    pub arities: Vec<u32>,
    /// Naive branch count (all co-enabled candidates of multi-candidate
    /// windows).
    pub naive_branches: u64,
    /// Branches after commutativity pruning.
    pub explored_branches: u64,
    /// Violated invariants, empty when the schedule is clean.
    pub violations: Vec<String>,
    /// The observability trace (only when requested).
    pub trace: Vec<ObsEvent>,
    /// Display name per actor, indexed by process id
    /// ([`gdur_core::Cluster::actor_names`]), for trace tooling.
    pub actor_names: Vec<String>,
}

fn run_with_policy(cfg: &McConfig, policy: Policy, trace: Option<TraceHandle>) -> ScheduleOutcome {
    let mut cluster = build_cluster(cfg);
    let log = Arc::new(Mutex::new(McLog::default()));
    cluster.sim_mut().attach_scheduler(Box::new(McScheduler {
        window: cfg.window,
        policy,
        log: Arc::clone(&log),
    }));
    if let Some(t) = &trace {
        cluster.attach_obs(t.sink());
    }
    cluster.run_until_idle();
    let violations = check_invariants(&cfg.spec, &cluster);
    let mut log = log.lock().expect("mc log poisoned");
    ScheduleOutcome {
        decisions: std::mem::take(&mut log.decisions),
        arities: std::mem::take(&mut log.arities),
        naive_branches: log.naive_branches,
        explored_branches: log.explored_branches,
        violations,
        trace: trace.map(|t| t.take()).unwrap_or_default(),
        actor_names: cluster.actor_names(),
    }
}

/// Runs one schedule under the prescribed decision vector (`[]` = the
/// default schedule) and checks the invariant bundle.
pub fn run_schedule(cfg: &McConfig, plan: &[u32], traced: bool) -> ScheduleOutcome {
    run_with_policy(
        cfg,
        Policy::Guided {
            plan: plan.to_vec(),
            pos: 0,
        },
        traced.then(TraceHandle::new),
    )
}

/// Like [`run_schedule`], but with a *causal* trace sink attached: the
/// returned trace additionally carries message ids, `Deliver` records and
/// handler service brackets, so it feeds `gdur_obs::CausalIndex` (span
/// trees, critical-path attribution, Chrome export). [`run_schedule`]'s
/// plain traces are untouched — their event counts stay golden-pinned.
pub fn run_schedule_causal(cfg: &McConfig, plan: &[u32]) -> ScheduleOutcome {
    run_with_policy(
        cfg,
        Policy::Guided {
            plan: plan.to_vec(),
            pos: 0,
        },
        Some(TraceHandle::causal()),
    )
}

/// A self-contained, replayable counterexample: configuration + seed +
/// minimized decision vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Label of the originating [`McConfig`].
    pub label: String,
    /// Protocol name (resolved through `gdur_protocols::by_name`).
    pub protocol: String,
    /// Sites.
    pub sites: usize,
    /// Clients per site.
    pub clients_per_site: usize,
    /// Transactions per client.
    pub txns_per_client: u64,
    /// Keys per partition.
    pub keys_per_partition: u64,
    /// Deployment seed.
    pub seed: u64,
    /// Scheduler window in nanoseconds.
    pub window_ns: u64,
    /// Whether the PSI regression knob was on.
    pub psi_bug: bool,
    /// The first violated invariant.
    pub violation: String,
    /// The minimized decision vector.
    pub decisions: Vec<u32>,
}

impl Counterexample {
    /// Serializes to the `gdur-mc counterexample v1` text format.
    pub fn to_text(&self) -> String {
        let decisions = self
            .decisions
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "gdur-mc counterexample v1\n\
             label {}\n\
             protocol {}\n\
             sites {}\n\
             clients_per_site {}\n\
             txns_per_client {}\n\
             keys_per_partition {}\n\
             seed {}\n\
             window_ns {}\n\
             psi_bug {}\n\
             violation {}\n\
             decisions {}\n",
            self.label,
            self.protocol,
            self.sites,
            self.clients_per_site,
            self.txns_per_client,
            self.keys_per_partition,
            self.seed,
            self.window_ns,
            self.psi_bug as u8,
            self.violation,
            decisions
        )
    }

    /// Parses the text format back; tolerates trailing whitespace.
    pub fn parse(text: &str) -> Result<Counterexample, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty counterexample file")?;
        if header.trim() != "gdur-mc counterexample v1" {
            return Err(format!("unrecognized header: {header:?}"));
        }
        let mut cx = Counterexample {
            label: String::new(),
            protocol: String::new(),
            sites: 0,
            clients_per_site: 0,
            txns_per_client: 0,
            keys_per_partition: 0,
            seed: 0,
            window_ns: 0,
            psi_bug: false,
            violation: String::new(),
            decisions: Vec::new(),
        };
        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed line: {line:?}"))?;
            let parse_u64 =
                |v: &str| -> Result<u64, String> { v.parse().map_err(|e| format!("{key}: {e}")) };
            match key {
                "label" => cx.label = value.to_string(),
                "protocol" => cx.protocol = value.to_string(),
                "sites" => cx.sites = parse_u64(value)? as usize,
                "clients_per_site" => cx.clients_per_site = parse_u64(value)? as usize,
                "txns_per_client" => cx.txns_per_client = parse_u64(value)?,
                "keys_per_partition" => cx.keys_per_partition = parse_u64(value)?,
                "seed" => cx.seed = parse_u64(value)?,
                "window_ns" => cx.window_ns = parse_u64(value)?,
                "psi_bug" => cx.psi_bug = parse_u64(value)? != 0,
                "violation" => cx.violation = value.to_string(),
                "decisions" => {
                    if !value.trim().is_empty() {
                        cx.decisions = value
                            .split(',')
                            .map(|d| d.trim().parse().map_err(|e| format!("decisions: {e}")))
                            .collect::<Result<_, _>>()?;
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if cx.protocol.is_empty() {
            return Err("missing protocol".into());
        }
        Ok(cx)
    }

    /// Rebuilds the [`McConfig`] this counterexample was found under.
    pub fn config(&self) -> Result<McConfig, String> {
        let spec = gdur_protocols::by_name(&self.protocol)
            .ok_or_else(|| format!("unknown protocol {:?}", self.protocol))?;
        Ok(McConfig {
            label: self.label.clone(),
            spec,
            sites: self.sites,
            clients_per_site: self.clients_per_site,
            txns_per_client: self.txns_per_client,
            keys_per_partition: self.keys_per_partition,
            seed: self.seed,
            window: SimDuration::from_nanos(self.window_ns),
            reintroduce_psi_bug: self.psi_bug,
        })
    }
}

/// Replays a counterexample: re-runs its exact schedule and returns the
/// violations observed (which should match the recorded one) plus the full
/// observability trace of the violating run.
pub fn replay(cx: &Counterexample) -> Result<(Vec<String>, Vec<ObsEvent>), String> {
    let cfg = cx.config()?;
    let out = run_schedule(&cfg, &cx.decisions, true);
    Ok((out.violations, out.trace))
}

/// Like [`replay`], but records the kernel causal events too and returns
/// the actor display names — everything the span-tree, attribution and
/// Chrome-export layers need to visualize the violating schedule.
pub fn replay_causal(cx: &Counterexample) -> Result<ScheduleOutcome, String> {
    let cfg = cx.config()?;
    Ok(run_schedule_causal(&cfg, &cx.decisions))
}

/// Delta-debugging over choice points: drops trailing defaults, then
/// greedily reverts each non-default decision to 0 while the run still
/// violates, to fixpoint. Returns the minimized vector and the number of
/// verification runs spent.
pub fn minimize(cfg: &McConfig, decisions: &[u32]) -> (Vec<u32>, u64) {
    let mut runs = 0u64;
    let mut violates = |plan: &[u32]| -> bool {
        runs += 1;
        !run_schedule(cfg, plan, false).violations.is_empty()
    };
    let trim = |mut v: Vec<u32>| -> Vec<u32> {
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    };
    let mut cur = trim(decisions.to_vec());
    loop {
        let mut changed = false;
        for i in 0..cur.len() {
            if cur[i] == 0 {
                continue;
            }
            let mut cand = cur.clone();
            cand[i] = 0;
            let cand = trim(cand);
            if violates(&cand) {
                cur = cand;
                changed = true;
                break;
            }
        }
        if !changed {
            return (cur, runs);
        }
    }
}

/// The verdict of a bounded exploration.
#[derive(Debug)]
pub struct ExploreResult {
    /// Label of the explored configuration.
    pub label: String,
    /// Distinct schedules (decision vectors) executed.
    pub schedules: u64,
    /// Branching choice points encountered, summed over schedules.
    pub choice_points: u64,
    /// Naive branch count summed over schedules.
    pub naive_branches: u64,
    /// Post-pruning branch count summed over schedules.
    pub explored_branches: u64,
    /// True if the DFS frontier drained before the budget: the delay-bound
    /// space is exhausted and the invariants hold on *every* schedule in it.
    pub exhausted: bool,
    /// Verification runs spent minimizing (0 when no violation).
    pub minimize_runs: u64,
    /// The minimized counterexample, if any schedule violated.
    pub counterexample: Option<Counterexample>,
}

impl ExploreResult {
    /// Branches pruned by commutativity, as a percentage of naive.
    pub fn pruned_pct(&self) -> f64 {
        if self.naive_branches == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.explored_branches as f64 / self.naive_branches as f64)
    }
}

fn to_counterexample(cfg: &McConfig, violation: String, decisions: Vec<u32>) -> Counterexample {
    Counterexample {
        label: cfg.label.clone(),
        protocol: cfg.spec.name.to_string(),
        sites: cfg.sites,
        clients_per_site: cfg.clients_per_site,
        txns_per_client: cfg.txns_per_client,
        keys_per_partition: cfg.keys_per_partition,
        seed: cfg.seed,
        window_ns: cfg.window.as_nanos(),
        psi_bug: cfg.reintroduce_psi_bug,
        violation,
        decisions,
    }
}

/// Bounded stateless search over decision-vector prefixes.
///
/// Each run executes a prefix and defaults to 0 past it; every branching
/// choice point at or past the prefix then seeds `arity - 1` sibling
/// prefixes. Distinct prefixes yield distinct full decision vectors, so
/// `schedules` counts distinct schedules exactly. The frontier is a FIFO,
/// so schedules are visited in nondecreasing distance from the default
/// schedule — a violation reachable with one adversarial decision is found
/// before any two-decision schedule runs, which keeps counterexamples
/// near-minimal even before delta-debugging. Stops at the first violation
/// (which is then minimized) or after `budget` schedules.
pub fn explore(cfg: &McConfig, budget: u64) -> ExploreResult {
    let mut result = ExploreResult {
        label: cfg.label.clone(),
        schedules: 0,
        choice_points: 0,
        naive_branches: 0,
        explored_branches: 0,
        exhausted: false,
        minimize_runs: 0,
        counterexample: None,
    };
    let mut frontier: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    while let Some(prefix) = frontier.pop_front() {
        if result.schedules >= budget {
            // Put the unexplored prefix back conceptually; the space is not
            // exhausted.
            return result;
        }
        let out = run_schedule(cfg, &prefix, false);
        result.schedules += 1;
        result.choice_points += out.arities.len() as u64;
        result.naive_branches += out.naive_branches;
        result.explored_branches += out.explored_branches;
        if let Some(violation) = out.violations.into_iter().next() {
            let (min, runs) = minimize(cfg, &out.decisions);
            result.minimize_runs = runs;
            result.counterexample = Some(to_counterexample(cfg, violation, min));
            return result;
        }
        for i in prefix.len()..out.decisions.len() {
            for d in 1..out.arities[i] {
                let mut sibling = out.decisions[..i].to_vec();
                sibling.push(d);
                frontier.push_back(sibling);
            }
        }
    }
    result.exhausted = true;
    result
}

/// Random-walk mode: `walks` runs whose decisions are sampled uniformly
/// from a dedicated RNG seeded with `walk_seed`. Returns an
/// [`ExploreResult`] whose counterexample (if any) is minimized and
/// replayable exactly like the DFS's — the sampled decisions are recorded,
/// so the walk that found a violation is deterministic after the fact.
pub fn random_walks(cfg: &McConfig, walks: u64, walk_seed: u64) -> ExploreResult {
    let mut result = ExploreResult {
        label: cfg.label.clone(),
        schedules: 0,
        choice_points: 0,
        naive_branches: 0,
        explored_branches: 0,
        exhausted: false,
        minimize_runs: 0,
        counterexample: None,
    };
    for i in 0..walks {
        let rng = SmallRng::seed_from_u64(walk_seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let out = run_with_policy(cfg, Policy::Random(rng), None);
        result.schedules += 1;
        result.choice_points += out.arities.len() as u64;
        result.naive_branches += out.naive_branches;
        result.explored_branches += out.explored_branches;
        if let Some(violation) = out.violations.into_iter().next() {
            let (min, runs) = minimize(cfg, &out.decisions);
            result.minimize_runs = runs;
            result.counterexample = Some(to_counterexample(cfg, violation, min));
            return result;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The MC regression: the PR 1 Walter PSI fractured-read bug, re-armed
    /// behind `bug_unreserved_commit_clocks`, must be found within a small
    /// schedule budget, minimized, and the minimized counterexample must
    /// replay to the same violation — all deterministically.
    #[test]
    fn psi_bug_found_minimized_and_replayed() {
        let cfg = walter_psi_bug_config();
        let result = explore(&cfg, 50);
        let cx = result
            .counterexample
            .as_ref()
            .expect("re-introduced PSI bug must be found within 50 schedules");
        assert!(
            result.schedules > 1,
            "the default schedule must be clean — the bug should need perturbation"
        );
        assert!(
            !cx.decisions.is_empty(),
            "a minimized counterexample for a default-clean seed keeps >= 1 decision"
        );
        assert!(
            cx.violation.contains("saw"),
            "fractured read: {}",
            cx.violation
        );
        // Replay reproduces the exact violation from the decision vector.
        let (violations, trace) = replay(cx).expect("counterexample config round-trips");
        assert_eq!(violations.first(), Some(&cx.violation));
        assert!(!trace.is_empty(), "replay exports an obs trace");
        // And the text format round-trips losslessly.
        let reparsed = Counterexample::parse(&cx.to_text()).expect("parse own output");
        assert_eq!(&reparsed, cx);
    }

    /// Exploration is a pure function of the config: two runs agree on
    /// every count and on the counterexample.
    #[test]
    fn explore_is_deterministic() {
        let cfg = walter_psi_bug_config();
        let a = explore(&cfg, 50);
        let b = explore(&cfg, 50);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.naive_branches, b.naive_branches);
        assert_eq!(a.explored_branches, b.explored_branches);
        assert_eq!(
            a.counterexample.map(|c| c.to_text()),
            b.counterexample.map(|c| c.to_text())
        );
    }

    /// With the fix in place (the library Walter config), the same
    /// neighborhood of schedules is clean: the knob, not the explorer,
    /// resurrects the bug.
    #[test]
    fn fixed_walter_is_clean_where_the_bug_was_found() {
        let mut cfg = walter_psi_bug_config();
        cfg.label = "walter-fixed".to_string();
        cfg.reintroduce_psi_bug = false;
        let result = explore(&cfg, 20);
        assert!(
            result.counterexample.is_none(),
            "fixed protocol must be clean"
        );
    }

    /// One genuine-partial-replication 2PC config and one GC-voting
    /// (atomic broadcast) config run clean under exploration.
    #[test]
    fn library_2pc_and_ab_configs_hold_invariants() {
        for cfg in mc_library() {
            if cfg.label == "walter" {
                continue; // covered transitively by the psi-bug pair above
            }
            let result = explore(&cfg, 15);
            assert!(
                result.counterexample.is_none(),
                "{}: unexpected violation {:?}",
                cfg.label,
                result.counterexample
            );
            assert!(
                result.schedules == 15,
                "{}: tree should not exhaust",
                cfg.label
            );
        }
    }

    /// The empty decision vector reproduces the default (no-scheduler)
    /// run exactly: attaching the MC scheduler is perturbation-free.
    #[test]
    fn empty_plan_matches_unscheduled_run() {
        let cfg = McConfig::small("walter", gdur_protocols::walter());
        let mut plain = build_cluster(&cfg);
        plain.run_until_idle();
        let out = run_schedule(&cfg, &[], false);
        assert!(out.violations.is_empty());
        let mut scheduled = build_cluster(&cfg);
        scheduled.sim_mut().attach_scheduler(Box::new(McScheduler {
            window: cfg.window,
            policy: Policy::Guided {
                plan: Vec::new(),
                pos: 0,
            },
            log: Arc::new(Mutex::new(McLog::default())),
        }));
        scheduled.run_until_idle();
        assert_eq!(plain.records(), scheduled.records());
    }

    /// Random walks record their decisions, so a violating walk is exactly
    /// as replayable as a BFS-found one.
    #[test]
    fn random_walk_finds_and_replays_the_psi_bug() {
        let cfg = walter_psi_bug_config();
        let result = random_walks(&cfg, 30, 1);
        let cx = result
            .counterexample
            .expect("random walks should stumble into the PSI bug within 30 walks");
        let (violations, _) = replay(&cx).expect("config round-trips");
        assert_eq!(violations.first(), Some(&cx.violation));
    }
}
