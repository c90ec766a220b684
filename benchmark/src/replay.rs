//! Replay kernels: each drives one layer's public API alone, for the
//! operation count the workload's run reported, and reports host ns per
//! operation. `ns_per_op × count ÷ sim.run_s` is that layer's estimated
//! share of the run; what no kernel explains is `core`'s residual (replica,
//! client and pool handlers cannot be called without a kernel `Context`).
//!
//! The kernels use the finished run's own state where the API allows it:
//! its latency model, a replica's end-of-run store, the crashed replica's
//! WAL image. The estimates are upper-ish bounds measured on a quiet cache,
//! so the shares can over-attribute; the caller warns when they sum past 1.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use gdur_core::{ChooseRule, Cluster, PlanOp, Snapshot, TxSource};
use gdur_gc::{AbCastEngine, GcEvent, GcMsg, SkeenEngine};
use gdur_net::{GeoLatency, SiteId};
use gdur_persist::Wal;
use gdur_sim::{
    Actor, Context, Cores, LatencyModel, ProcessId, SimDuration, SimTime, Simulation, TimerWheel,
    WireSize,
};
use gdur_store::{Key, MultiVersionStore, TxId, Value};
use gdur_versioning::{Stamp, VersionVec};

use crate::spans::Recorder;
use crate::workloads::Workload;

/// Operations a kernel times at most. Past this the per-op figure no
/// longer changes and the traced pass would only get slower.
const MAX_OPS: u64 = 2_000_000;
/// ... and at least, so a layer the workload hardly uses still gets a
/// per-op figure that is not one cold call.
const MIN_OPS: u64 = 20_000;

fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

#[derive(Debug)]
struct Ping {
    hops_left: u64,
}

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

/// Forwards every ping while it has hops left: replicas to a client-side
/// actor, clients to a replica, as the real message flow alternates.
struct Forwarder {
    replicas: u32,
    actors: u32,
    tokens: u64,
    hops: u64,
    sent: u32,
}

impl Forwarder {
    fn next_hop(&mut self, me: ProcessId) -> ProcessId {
        self.sent = self.sent.wrapping_add(1);
        if me.0 < self.replicas && self.actors > self.replicas {
            ProcessId(self.replicas + (me.0 + self.sent) % (self.actors - self.replicas))
        } else {
            ProcessId((me.0 + self.sent) % self.replicas)
        }
    }
}

impl Actor for Forwarder {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        for _ in 0..self.tokens {
            let to = self.next_hop(ctx.self_id());
            ctx.send(
                to,
                Ping {
                    hops_left: self.hops,
                },
            );
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: ProcessId, msg: Ping) {
        if msg.hops_left > 0 {
            let to = self.next_hop(ctx.self_id());
            ctx.send(
                to,
                Ping {
                    hops_left: msg.hops_left - 1,
                },
            );
        }
    }
}

/// `sim.kernel_floor_ns_per_event`: the kernel with the run's actor count
/// and latency model processing about `events` forwards with `in_flight`
/// messages outstanding — event heap, dispatch and network delay, no
/// protocol.
pub fn kernel_floor(
    latency: GeoLatency,
    actors: usize,
    replicas: usize,
    in_flight: u64,
    events: u64,
) -> f64 {
    let events = events.min(MAX_OPS);
    let client_actors = (actors - replicas).max(1) as u64;
    let tokens_per_client = (in_flight / client_actors).max(1);
    let hops = events / (tokens_per_client * client_actors).max(1);
    let mut sim = Simulation::new(latency, 1);
    for i in 0..actors {
        sim.spawn(
            Forwarder {
                replicas: replicas as u32,
                actors: actors as u32,
                tokens: if i >= replicas { tokens_per_client } else { 0 },
                hops,
                sent: i as u32,
            },
            Cores::Unlimited,
        );
    }
    let start = Instant::now();
    sim.run_until_idle();
    start.elapsed().as_nanos() as f64 / sim.stats().events_processed.max(1) as f64
}

/// `sim.wheel_ns_per_op`: a `TimerWheel` held at `depth` entries while
/// deadlines are armed, canceled and popped the way a client pool does.
pub fn wheel(depth: usize, ops: u64) -> f64 {
    let ops = ops.clamp(MIN_OPS, MAX_OPS);
    let at = |i: u64| SimTime::ZERO + SimDuration::from_nanos(i * 1_000);
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    for i in 0..depth as u64 {
        wheel.insert(at(i), i as u32);
    }
    let mut due = Vec::new();
    ns_per_op(ops, || {
        let mut done = 0;
        let mut i = depth as u64;
        while done < ops {
            // Arm a timeout and cancel it (a reply came back in time) ...
            wheel.insert(at(i + depth as u64), i as u32);
            wheel.remove(at(i + depth as u64), &(i as u32));
            // ... and let the oldest deadline fire, then re-arm it.
            wheel.pop_due(at(i - depth as u64), &mut due);
            for (_, item) in due.drain(..) {
                wheel.insert(at(i), item);
                done += 2;
            }
            done += 2;
            i += 1;
        }
        black_box(wheel.len());
    })
}

/// `net.delay_ns_per_msg`: `GeoLatency::delay` over the run's actor pairs.
pub fn net_delay(latency: &GeoLatency, actors: usize, msgs: u64) -> f64 {
    let msgs = msgs.clamp(MIN_OPS, MAX_OPS);
    let mut rng = SmallRng::seed_from_u64(2);
    let n = actors as u32;
    ns_per_op(msgs, || {
        let mut total = 0u64;
        for i in 0..msgs as u32 {
            let from = ProcessId(i % n);
            let to = ProcessId(i.wrapping_mul(31).wrapping_add(7) % n);
            total += latency.delay(from, to, 256, &mut rng).as_nanos();
        }
        black_box(total);
    })
}

/// Destination groups the workload's transactions address: the replicas of
/// the keys each plan touches.
fn dest_groups(w: &Workload, n: usize) -> Vec<Vec<ProcessId>> {
    let placement = w.placement.placement(w.sites);
    let mut source = w.source(0);
    let mut rng = SmallRng::seed_from_u64(3);
    (0..n)
        .map(|_| {
            let keys = source
                .next_plan(&mut rng)
                .ops
                .into_iter()
                .map(|op| op.key());
            placement
                .replicas_of_keys(keys)
                .into_iter()
                .map(|s: SiteId| ProcessId(u32::from(s.0)))
                .collect()
        })
        .collect()
}

type Wire = VecDeque<(ProcessId, ProcessId, GcMsg<u64>)>;

/// Carries what `from` just emitted into `out`, and everything that
/// triggers, between the engines until the wire is empty. Returns how many
/// payloads reached an application.
fn route(
    mut from: ProcessId,
    out: &mut Vec<GcEvent<u64>>,
    wire: &mut Wire,
    mut on_message: impl FnMut(ProcessId, ProcessId, GcMsg<u64>, &mut Vec<GcEvent<u64>>),
) -> u64 {
    let mut delivered = 0;
    loop {
        for ev in out.drain(..) {
            match ev {
                GcEvent::Send { to, msg } => wire.push_back((from, to, msg)),
                GcEvent::Deliver { .. } => delivered += 1,
            }
        }
        let Some((src, to, msg)) = wire.pop_front() else {
            return delivered;
        };
        on_message(to, src, msg, out);
        from = to;
    }
}

/// `gc.skeen_ns_per_multicast`: AM-Cast rounds among one engine per site,
/// each addressed to a transaction's replicas and routed to delivery.
pub fn skeen(w: &Workload, multicasts: u64) -> f64 {
    let multicasts = multicasts.clamp(MIN_OPS, MAX_OPS / 8);
    let groups = dest_groups(w, 1024);
    let mut engines: Vec<SkeenEngine<u64>> = (0..w.sites as u32)
        .map(|s| SkeenEngine::new(ProcessId(s)))
        .collect();
    let (mut wire, mut out) = (Wire::new(), Vec::new());
    let mut delivered = 0;
    let ns = ns_per_op(multicasts, || {
        for i in 0..multicasts {
            let sender = (i % w.sites as u64) as usize;
            let dests = groups[i as usize % groups.len()].clone();
            engines[sender].multicast(dests, i, &mut out);
            delivered += route(
                ProcessId(sender as u32),
                &mut out,
                &mut wire,
                |to, src, msg, out| {
                    engines[to.index()].on_message(src, msg, out);
                },
            );
        }
    });
    assert!(delivered >= multicasts, "skeen replay lost deliveries");
    ns
}

/// `gc.abcast_ns_per_broadcast`: AB-Cast among one engine per site.
pub fn abcast(sites: usize, broadcasts: u64) -> f64 {
    let broadcasts = broadcasts.clamp(MIN_OPS, MAX_OPS / 8);
    let group: Vec<ProcessId> = (0..sites as u32).map(ProcessId).collect();
    let mut engines: Vec<AbCastEngine<u64>> = group
        .iter()
        .map(|&p| AbCastEngine::new(p, group.clone()))
        .collect();
    let (mut wire, mut out) = (Wire::new(), Vec::new());
    let mut delivered = 0;
    let ns = ns_per_op(broadcasts, || {
        for i in 0..broadcasts {
            let sender = (i % sites as u64) as usize;
            engines[sender].broadcast(i, &mut out);
            delivered += route(
                ProcessId(sender as u32),
                &mut out,
                &mut wire,
                |to, src, msg, out| {
                    engines[to.index()].on_message(src, msg, out);
                },
            );
        }
    });
    assert!(
        delivered >= broadcasts * sites as u64,
        "abcast replay lost deliveries"
    );
    ns
}

/// Keys the workload's plans touch that `store` hosts, in plan order.
fn hosted_keys(w: &Workload, store: &MultiVersionStore, n: usize) -> Vec<Key> {
    let mut source = w.source(0);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        keys.extend(
            source
                .next_plan(&mut rng)
                .ops
                .iter()
                .map(PlanOp::key)
                .filter(|k| store.contains_key(*k)),
        );
    }
    keys
}

/// `store.read_ns_per_op`: version selection on a replica's end-of-run
/// store the way the execution protocol does it — `latest` under
/// `choose_last`, newest version the snapshot admits under `choose_cons`.
pub fn store_reads(w: &Workload, store: &MultiVersionStore, dim: usize, reads: u64) -> f64 {
    let reads = reads.clamp(MIN_OPS, MAX_OPS);
    let keys = hosted_keys(w, store, 1 << 16);
    let consistent = (w.spec)().choose == ChooseRule::Consistent;
    ns_per_op(reads, || {
        let mut snap = Snapshot::greedy(dim);
        for i in 0..reads as usize {
            let key = keys[i % keys.len()];
            let rec = if consistent {
                if i % 2 == 0 {
                    snap = Snapshot::greedy(dim);
                }
                let rec = store
                    .versions(key)
                    .expect("hosted key")
                    .iter()
                    .rev()
                    .find(|r| snap.admits(&r.stamp))
                    .expect("the seed version is always admissible");
                snap.observe(&rec.stamp);
                rec
            } else {
                store.latest(key).expect("hosted key")
            };
            black_box((rec.value.clone(), rec.seq));
        }
    })
}

/// `store.install_ns_per_op`: after-value installs into a copy of a
/// replica's end-of-run store.
pub fn store_installs(w: &Workload, store: &MultiVersionStore, installs: u64) -> f64 {
    let installs = installs.clamp(MIN_OPS, MAX_OPS);
    let keys = hosted_keys(w, store, 1 << 16);
    let mut store = store.clone();
    let value = Value::of_size(w.value_size);
    ns_per_op(installs, || {
        for i in 0..installs {
            let key = keys[i as usize % keys.len()];
            let stamp = store.latest(key).expect("hosted key").stamp.clone();
            black_box(store.install(key, value.clone(), stamp, TxId::new(0, i)));
        }
    })
}

/// `versioning.merge_ns` and `versioning.compat_ns` at dimension `dim`.
pub fn versioning(dim: usize) -> (f64, f64) {
    const OPS: u64 = 1_000_000;
    let dim = dim.max(1);
    let a = VersionVec::from_entries((0..dim as u64).collect());
    let b = VersionVec::from_entries((0..dim as u64).rev().collect());
    let merge = ns_per_op(OPS, || {
        let mut acc = a.clone();
        for _ in 0..OPS {
            black_box(&mut acc).merge(black_box(&b));
        }
    });
    let x = Stamp::Vec {
        origin: 0,
        vec: a.clone(),
    };
    let y = Stamp::Vec {
        origin: (dim - 1) as u32,
        vec: b.clone(),
    };
    let compat = ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(black_box(&x).compatible(black_box(&y)));
        }
    });
    (merge, compat)
}

/// `persist.append_ns_per_record` and `persist.recover_s` over a replica's
/// WAL image: re-append every record it holds, then recover from it.
pub fn persist(wal: &Wal, rec: &mut Recorder) -> (f64, f64) {
    let records = wal.scan();
    let append = rec.span("replay.persist.append", |_| {
        ns_per_op(records.len() as u64, || {
            let mut fresh = Wal::new();
            for r in &records {
                fresh.append(r);
            }
            black_box(fresh.byte_len());
        })
    });
    let recover_s = rec.span("replay.persist.recover", |_| {
        let start = Instant::now();
        black_box(gdur_persist::recover(wal).1.len());
        start.elapsed().as_secs_f64()
    });
    (append, recover_s)
}

/// `workload.plan_ns_per_txn`: drawing transaction plans from the source.
pub fn plans(w: &Workload, txns: u64) -> f64 {
    let txns = txns.clamp(MIN_OPS, MAX_OPS);
    let mut source = w.source(0);
    let mut rng = SmallRng::seed_from_u64(5);
    ns_per_op(txns, || {
        for _ in 0..txns {
            black_box(source.next_plan(&mut rng).ops.len());
        }
    })
}

/// The replay shares, in the order [`run_all`] computes them; with
/// `core.residual_share` they sum to 1.
pub const SHARES: [&str; 6] = [
    "sim.kernel_floor_share",
    "gc.replay_share",
    "store.replay_share",
    "versioning.replay_share",
    "persist.replay_share",
    "workload.replay_share",
];

/// Operation counts a finished run reported, for sizing the kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub events: u64,
    pub msgs: u64,
    pub multicasts: u64,
    pub broadcasts: u64,
    pub reads: u64,
    pub installs: u64,
    pub txns: u64,
    pub wal_records: u64,
}

/// Runs every kernel against `cluster`'s end state and returns the metric
/// values: ns per operation, each layer's estimated share of the run's
/// `run_ns`, and `core`'s residual.
pub fn run_all(
    w: &Workload,
    cluster: &Cluster,
    counts: Counts,
    run_ns: f64,
    rec: &mut Recorder,
) -> Vec<(&'static str, f64)> {
    let spec = (w.spec)();
    let placement = cluster.placement();
    let dim = spec
        .versioning
        .dim(placement.sites(), placement.partitions());
    let actors = cluster.sim().len();
    let replicas = cluster.replica_pids().len();
    let latency = cluster.sim().latency_model().clone();
    let clients = (w.clients_per_site * w.sites) as u64;
    let store = cluster.replica(SiteId(0)).store();

    let floor = rec.span("replay.sim.kernel_floor", |_| {
        kernel_floor(latency.clone(), actors, replicas, clients, counts.events)
    });
    let wheel_ns = rec.span("replay.sim.wheel", |_| {
        wheel(w.clients_per_site, counts.txns * 8)
    });
    let delay = rec.span("replay.net.delay", |_| {
        net_delay(&latency, actors, counts.msgs)
    });
    let skeen_ns = rec.span("replay.gc.skeen", |_| skeen(w, counts.multicasts));
    let abcast_ns = rec.span("replay.gc.abcast", |_| abcast(w.sites, counts.broadcasts));
    let read = rec.span("replay.store.read", |_| {
        store_reads(w, store, dim, counts.reads)
    });
    let install = rec.span("replay.store.install", |_| {
        store_installs(w, store, counts.installs)
    });
    let (merge, compat) = rec.span("replay.versioning", |_| versioning(dim));
    // Site 1 is the replica the chaos schedule crashes.
    let (append, recover_s) = match cluster.replica(SiteId(1)).wal() {
        Some(wal) if !wal.is_empty() => persist(wal, rec),
        _ => (0.0, 0.0),
    };
    let plan = rec.span("replay.workload.plan", |_| plans(w, counts.txns));

    // Scalar timestamps do no vector work; vector specs merge on every
    // install and test compatibility on every read.
    let vector_ops = if dim > 0 { 1.0 } else { 0.0 };
    let share = |ns: f64| ns / run_ns;
    let shares = SHARES.into_iter().zip([
        share(floor * counts.events as f64),
        share(skeen_ns * counts.multicasts as f64 + abcast_ns * counts.broadcasts as f64),
        share(read * counts.reads as f64 + install * counts.installs as f64),
        share(vector_ops * (merge * counts.installs as f64 + compat * counts.reads as f64)),
        share(append * counts.wal_records as f64),
        share(plan * counts.txns as f64),
    ]);
    let explained: f64 = shares.clone().map(|(_, s)| s).sum();
    let mut out = vec![
        ("sim.kernel_floor_ns_per_event", floor),
        ("sim.wheel_ns_per_op", wheel_ns),
        ("net.delay_ns_per_msg", delay),
        ("gc.skeen_ns_per_multicast", skeen_ns),
        ("gc.abcast_ns_per_broadcast", abcast_ns),
        ("store.read_ns_per_op", read),
        ("store.install_ns_per_op", install),
        ("versioning.merge_ns", merge),
        ("versioning.compat_ns", compat),
        ("persist.append_ns_per_record", append),
        ("persist.recover_s", recover_s),
        ("workload.plan_ns_per_txn", plan),
        ("core.residual_share", 1.0 - explained),
        (
            "core.residual_ns_per_event",
            (1.0 - explained) * run_ns / counts.events.max(1) as f64,
        ),
    ];
    out.extend(shares);
    out
}
