//! # gdur-mc — stateless DPOR-lite schedule exploration.
//!
//! Every other checked run follows exactly one schedule per seed. This
//! module drives the deterministic kernel through
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

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use gdur_core::ProtocolSpec;
use gdur_harness::{run_checked, CheckedRun, Deployment, FaultSchedule, Horizon};
use gdur_obs::TraceHandle;
use gdur_sim::{Candidate, CandidateKind, Scheduler, SimDuration, SimTime};
use gdur_workload::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A small, bounded deployment for schedule exploration, and its window.
///
/// Its [`Deployment`] has an empty fault schedule, so it is disaster-prone
/// (one replica per partition: most transactions need *remote* reads — the
/// cross-replica snapshot races schedule exploration is after), crash-free
/// and timeout-free: every abort must come from certification, which keeps
/// the invariant verdicts crisp. Clients are bounded so runs drain.
/// The workload is YCSB-B (2-read-2-write updates) — multi-key writers are
/// what make fractured-read violations expressible at all.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// What runs; its label names the configuration, its protocol must be
    /// a `gdur_protocols::by_name` entry for counterexamples to round-trip.
    pub deployment: Deployment,
    /// Co-enabled window offered to the scheduler (delay bound).
    pub window: SimDuration,
}

impl McConfig {
    /// The standard 2-site/2-client exploration config for `spec`.
    pub fn small(label: &str, spec: ProtocolSpec) -> McConfig {
        McConfig {
            deployment: Deployment {
                label: label.to_string(),
                workload: WorkloadSpec::b(),
                sites: 2,
                clients_per_site: 2,
                keys_per_partition: 8,
                seed: 11,
                horizon: Horizon::Drain(6),
                ..Deployment::new(spec, FaultSchedule::new())
            },
            window: SimDuration::from_micros(2000),
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
    cfg.deployment.reintroduce_psi_bug = true;
    cfg.deployment.seed = 2;
    cfg
}

/// What the scheduler records during one run, shared with the explorer
/// through an `Arc<Mutex<_>>` (the `TraceHandle` pattern).
#[derive(Debug, Default)]
pub struct McLog {
    /// Decision taken at each branching choice point (index into the race
    /// set): the prescribed prefix plus the 0-defaults actually
    /// encountered.
    pub decisions: Vec<u32>,
    /// Race-set size at each branching choice point.
    pub arities: Vec<u32>,
    /// Sum of co-enabled candidates over all windows with ≥ 2 candidates:
    /// the branches a naive (no-commutativity) checker would explore.
    pub naive_branches: u64,
    /// Sum of race-set sizes over the same windows: the branches DPOR-lite
    /// actually explores.
    pub explored_branches: u64,
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
pub struct ScheduleOutcome {
    /// What the scheduler recorded.
    pub log: McLog,
    /// The run: its verdicts, its trace (only when requested) and the
    /// drained cluster.
    pub run: CheckedRun,
}

fn run_with_policy(cfg: &McConfig, policy: Policy, trace: Option<TraceHandle>) -> ScheduleOutcome {
    let log = Arc::new(Mutex::new(McLog::default()));
    let scheduler = McScheduler {
        window: cfg.window,
        policy,
        log: Arc::clone(&log),
    };
    let run = run_checked(&cfg.deployment, Some(Box::new(scheduler)), trace);
    let log = std::mem::take(&mut *log.lock().expect("mc log poisoned"));
    ScheduleOutcome { log, run }
}

/// Runs one schedule under the prescribed decision vector (`[]` = the
/// default schedule) and checks the invariant bundle. `trace` picks the
/// trace kind: none, plain ([`TraceHandle::new`]), or causal
/// ([`TraceHandle::causal`]: message ids, `Deliver` records and handler
/// service brackets added, for span trees, attribution and Chrome export).
pub fn run_schedule(cfg: &McConfig, plan: &[u32], trace: Option<TraceHandle>) -> ScheduleOutcome {
    run_with_policy(
        cfg,
        Policy::Guided {
            plan: plan.to_vec(),
            pos: 0,
        },
        trace,
    )
}

/// The keys of the `gdur-mc counterexample v1` format, in file order.
const KEYS: [&str; 11] = [
    "label",
    "protocol",
    "sites",
    "clients_per_site",
    "txns_per_client",
    "keys_per_partition",
    "seed",
    "window_ns",
    "psi_bug",
    "violation",
    "decisions",
];

/// A self-contained, replayable counterexample: configuration + seed +
/// minimized decision vector. Two are equal when their text is.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The configuration it was found under.
    pub config: McConfig,
    /// The first violated invariant.
    pub violation: String,
    /// The minimized decision vector.
    pub decisions: Vec<u32>,
}

impl PartialEq for Counterexample {
    fn eq(&self, other: &Self) -> bool {
        self.to_text() == other.to_text()
    }
}

impl Eq for Counterexample {}

impl Counterexample {
    /// Serializes to the `gdur-mc counterexample v1` text format, which
    /// records a drained run only: a windowed deployment is an error.
    pub fn to_text(&self) -> Result<String, String> {
        let d = &self.config.deployment;
        let txns = d.horizon.txns_per_client();
        let txns = txns.ok_or("a counterexample records a drained run, not a window")?;
        let decisions: Vec<String> = self.decisions.iter().map(u32::to_string).collect();
        let values = [
            d.label.clone(),
            d.spec.name.to_string(),
            d.sites.to_string(),
            d.clients_per_site.to_string(),
            txns.to_string(),
            d.keys_per_partition.to_string(),
            d.seed.to_string(),
            self.config.window.as_nanos().to_string(),
            u8::from(d.reintroduce_psi_bug).to_string(),
            self.violation.clone(),
            decisions.join(","),
        ];
        let mut text = "gdur-mc counterexample v1\n".to_string();
        for (key, value) in KEYS.iter().zip(values) {
            text += &format!("{key} {value}\n");
        }
        Ok(text)
    }

    /// Parses the text format back; tolerates trailing whitespace. Every
    /// key must appear exactly once, the protocol must be a
    /// `gdur_protocols::by_name` entry, and the deployment's sizes must be
    /// at least 1.
    pub fn parse(text: &str) -> Result<Counterexample, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty counterexample file")?;
        if header.trim() != "gdur-mc counterexample v1" {
            return Err(format!("unrecognized header: {header:?}"));
        }
        let mut fields = BTreeMap::new();
        for line in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if !KEYS.contains(&key) {
                return Err(format!("unknown key {key:?}"));
            }
            if fields.insert(key, value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
        }
        if let Some(key) = KEYS.iter().find(|key| !fields.contains_key(*key)) {
            return Err(format!("missing key {key:?}"));
        }
        let number = |key: &str| -> Result<u64, String> {
            fields[key].parse().map_err(|e| format!("{key}: {e}"))
        };
        let size = |key: &str| match number(key)? {
            0 => Err(format!("{key}: must be at least 1")),
            n => Ok(n),
        };
        let protocol = fields["protocol"];
        let spec = gdur_protocols::by_name(protocol)
            .ok_or_else(|| format!("unknown protocol {protocol:?}"))?;
        let mut config = McConfig::small(fields["label"], spec);
        let d = &mut config.deployment;
        d.sites = size("sites")? as usize;
        d.clients_per_site = size("clients_per_site")? as usize;
        d.horizon = Horizon::Drain(size("txns_per_client")?);
        d.keys_per_partition = size("keys_per_partition")?;
        d.seed = number("seed")?;
        d.reintroduce_psi_bug = number("psi_bug")? != 0;
        config.window = SimDuration::from_nanos(number("window_ns")?);
        let decisions = match fields["decisions"].trim() {
            "" => Vec::new(),
            list => list
                .split(',')
                .map(|d| d.trim().parse().map_err(|e| format!("decisions: {e}")))
                .collect::<Result<_, _>>()?,
        };
        Ok(Counterexample {
            config,
            violation: fields["violation"].to_string(),
            decisions,
        })
    }
}

/// Replays a counterexample: re-runs its exact schedule with `trace`
/// attached and returns the outcome — the violations observed (which
/// should match the recorded one), the trace of the violating run, and the
/// actor display names the span-tree, attribution and Chrome-export layers
/// need.
pub fn replay(cx: &Counterexample, trace: TraceHandle) -> ScheduleOutcome {
    run_schedule(&cx.config, &cx.decisions, Some(trace))
}

/// Delta-debugging over choice points: drops trailing defaults, then
/// greedily reverts each non-default decision to 0 while the run still
/// violates, to fixpoint. Returns the minimized vector and the number of
/// verification runs spent.
pub fn minimize(cfg: &McConfig, decisions: &[u32]) -> (Vec<u32>, u64) {
    let mut runs = 0u64;
    let mut violates = |plan: &[u32]| -> bool {
        runs += 1;
        !run_schedule(cfg, plan, None).run.violations.is_empty()
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
#[derive(Debug, Default)]
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

    /// Counts one executed schedule. On a violation, minimizes its decision
    /// vector into the counterexample and returns true: the search stops.
    fn record(&mut self, cfg: &McConfig, out: &ScheduleOutcome) -> bool {
        self.schedules += 1;
        self.choice_points += out.log.arities.len() as u64;
        self.naive_branches += out.log.naive_branches;
        self.explored_branches += out.log.explored_branches;
        let Some(violation) = out.run.violations.first() else {
            return false;
        };
        let (decisions, runs) = minimize(cfg, &out.log.decisions);
        self.minimize_runs = runs;
        self.counterexample = Some(Counterexample {
            config: cfg.clone(),
            violation: violation.clone(),
            decisions,
        });
        true
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
        label: cfg.deployment.label.clone(),
        ..ExploreResult::default()
    };
    let mut frontier: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    while let Some(prefix) = frontier.pop_front() {
        if result.schedules >= budget {
            // Put the unexplored prefix back conceptually; the space is not
            // exhausted.
            return result;
        }
        let out = run_schedule(cfg, &prefix, None);
        if result.record(cfg, &out) {
            return result;
        }
        let log = &out.log;
        for i in prefix.len()..log.decisions.len() {
            for d in 1..log.arities[i] {
                let mut sibling = log.decisions[..i].to_vec();
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
        label: cfg.deployment.label.clone(),
        ..ExploreResult::default()
    };
    for i in 0..walks {
        let rng = SmallRng::seed_from_u64(walk_seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if result.record(cfg, &run_with_policy(cfg, Policy::Random(rng), None)) {
            break;
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
        let out = replay(cx, TraceHandle::new());
        assert_eq!(out.run.violations.first(), Some(&cx.violation));
        assert!(!out.run.events.is_empty(), "replay exports an obs trace");
        // And the text format round-trips losslessly.
        let reparsed = Counterexample::parse(&cx.to_text().unwrap()).expect("parse own output");
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
        cfg.deployment.label = "walter-fixed".to_string();
        cfg.deployment.reintroduce_psi_bug = false;
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
            let label = &cfg.deployment.label;
            if label == "walter" {
                continue; // covered transitively by the psi-bug pair above
            }
            let result = explore(&cfg, 15);
            assert!(
                result.counterexample.is_none(),
                "{label}: unexpected violation {:?}",
                result.counterexample
            );
            assert!(result.schedules == 15, "{label}: tree should not exhaust");
        }
    }

    /// The empty decision vector reproduces the default (no-scheduler)
    /// run exactly: attaching the MC scheduler is perturbation-free.
    #[test]
    fn empty_plan_matches_unscheduled_run() {
        let cfg = McConfig::small("walter", gdur_protocols::walter());
        let plain = run_checked(&cfg.deployment, None, None);
        let scheduler = McScheduler {
            window: cfg.window,
            policy: Policy::Guided {
                plan: Vec::new(),
                pos: 0,
            },
            log: Arc::new(Mutex::new(McLog::default())),
        };
        let scheduled = run_checked(&cfg.deployment, Some(Box::new(scheduler)), None);
        assert!(scheduled.violations.is_empty());
        assert_eq!(plain.cluster.records(), scheduled.cluster.records());
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
        let out = replay(&cx, TraceHandle::new());
        assert_eq!(out.run.violations.first(), Some(&cx.violation));
    }

    /// `gdur-mc replay` trusts no file: every key is required exactly
    /// once, and a deployment size of 0 is refused, each by name. The
    /// format holds a drained run only: a windowed one has no text.
    #[test]
    fn counterexample_parse_requires_every_key_once() {
        let mut cx = Counterexample {
            config: walter_psi_bug_config(),
            violation: "history: example".to_string(),
            decisions: vec![0, 2, 1],
        };
        let text = cx.to_text().unwrap();
        assert_eq!(Counterexample::parse(&text), Ok(cx.clone()));
        let (warmup, measure) = (SimDuration::ZERO, SimDuration::from_millis(1));
        cx.config.deployment.horizon = Horizon::Window { warmup, measure };
        assert!(cx.to_text().unwrap_err().contains("drained"));
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate().skip(1) {
            let key = line.split(' ').next().expect("key");
            let mut dropped = lines.clone();
            dropped.remove(i);
            let e = Counterexample::parse(&dropped.join("\n")).expect_err("missing key");
            assert!(e.contains("missing") && e.contains(key), "{key}: {e}");
            let e = Counterexample::parse(&format!("{text}{line}\n")).expect_err("duplicate");
            assert!(e.contains("duplicate") && e.contains(key), "{key}: {e}");
            // The four deployment sizes.
            if KEYS[2..6].contains(&key) {
                let (zero, mut zeroed) = (format!("{key} 0"), lines.clone());
                zeroed[i] = &zero;
                let e = Counterexample::parse(&zeroed.join("\n")).expect_err("zero size");
                assert!(e.contains(key), "{key}: {e}");
            }
        }
    }

    /// The fault-tolerant half of a deployment follows from its schedule:
    /// persistence, disaster-tolerant placement, bounded read failover and
    /// the client operation timeout exactly when the schedule holds a
    /// fault, and a vote timeout only when, in addition, the coordinator
    /// owns the decision.
    #[test]
    fn the_fault_half_follows_from_the_schedule() {
        // A crash of an assembly that commits by group communication, too.
        let crash = FaultSchedule::new().crash(1, 400);
        let gc = Deployment::new(gdur_protocols::p_store_ab(), crash);
        let chaos = gdur_harness::chaos_library().into_iter().chain([gc]);
        let chaos = chaos.map(|d| (d.cluster_config(), d));
        let explored = mc_library().into_iter();
        let explored = explored.map(|c| (c.deployment.cluster_config(), c.deployment));
        for (c, dep) in chaos.chain(explored) {
            let (label, faulty) = (&dep.label, !dep.schedule.events().is_empty());
            let tolerant = c.placement.replicas(gdur_store::PartitionId(0)).len() > 1;
            let timeouts = (c.max_read_attempts.is_some(), c.client_op_timeout.is_some());
            let want = (faulty, faulty, (faulty, faulty));
            assert_eq!((c.persistence, tolerant, timeouts), want, "{label}");
            let coordinated = dep.spec.group_communication().is_none();
            assert_eq!(c.vote_timeout.is_some(), faulty && coordinated, "{label}");
        }
    }
}
