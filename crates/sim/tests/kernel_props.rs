//! Randomized (seeded, deterministic) tests for the simulation kernel:
//! determinism, message conservation, and service-time monotonicity under
//! random topologies and traffic patterns. Inputs are driven by a
//! fixed-seed generator so every run exercises the identical case set.

use std::sync::{Arc, Mutex};

use gdur_sim::{
    Actor, Context, Cores, ObsEvent, ObsSink, ProcessId, SimDuration, SimTime, Simulation,
    UniformLatency, WireSize,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
struct Token(u32);

impl WireSize for Token {
    fn wire_size(&self) -> usize {
        32
    }
}

/// Forwards each token `hops` more times to a fixed next peer, recording
/// receipt times.
struct Relay {
    next: ProcessId,
    cost: SimDuration,
    received: Vec<(SimTime, u32)>,
}

impl Actor for Relay {
    type Msg = Token;
    fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: ProcessId, msg: Token) {
        ctx.consume(self.cost);
        self.received.push((ctx.now(), msg.0));
        if msg.0 > 0 {
            ctx.send(self.next, Token(msg.0 - 1));
        }
    }
}

fn run(
    n: usize,
    cores: u16,
    cost_us: u64,
    latency_us: u64,
    injections: &[(usize, u32)],
    seed: u64,
) -> Vec<Vec<(SimTime, u32)>> {
    let mut sim = Simulation::new(UniformLatency(SimDuration::from_micros(latency_us)), seed);
    for i in 0..n {
        sim.spawn(
            Relay {
                next: ProcessId(((i + 1) % n) as u32),
                cost: SimDuration::from_micros(cost_us),
                received: Vec::new(),
            },
            Cores::Fixed(cores),
        );
    }
    for (i, (target, hops)) in injections.iter().enumerate() {
        sim.inject(
            ProcessId(9999),
            ProcessId((*target % n) as u32),
            Token(*hops),
            SimTime::from_nanos(i as u64),
        );
    }
    sim.run_until_idle();
    (0..n)
        .map(|i| sim.actor(ProcessId(i as u32)).received.clone())
        .collect()
}

fn arb_injections(
    rng: &mut SmallRng,
    targets: usize,
    hops: u32,
    lo: usize,
    hi: usize,
) -> Vec<(usize, u32)> {
    let n = rng.gen_range(lo..hi);
    (0..n)
        .map(|_| (rng.gen_range(0usize..targets), rng.gen_range(0u32..hops)))
        .collect()
}

#[test]
fn same_seed_same_history() {
    let mut rng = SmallRng::seed_from_u64(0xde7);
    for _ in 0..32 {
        let n = rng.gen_range(2usize..5);
        let cores = rng.gen_range(1u32..3) as u16;
        let cost = rng.gen_range(0u64..50);
        let latency = rng.gen_range(0u64..200);
        let injections = arb_injections(&mut rng, 4, 6, 1, 6);
        let seed = rng.gen_range(0u64..1000);
        let a = run(n, cores, cost, latency, &injections, seed);
        let b = run(n, cores, cost, latency, &injections, seed);
        assert_eq!(a, b);
    }
}

#[test]
fn every_injected_hop_is_delivered() {
    let mut rng = SmallRng::seed_from_u64(0xc0de);
    for _ in 0..32 {
        let n = rng.gen_range(2usize..5);
        let cores = rng.gen_range(1u32..3) as u16;
        let cost = rng.gen_range(0u64..50);
        let latency = rng.gen_range(0u64..200);
        let injections = arb_injections(&mut rng, 4, 6, 1, 6);
        let logs = run(n, cores, cost, latency, &injections, 7);
        let delivered: usize = logs.iter().map(|l| l.len()).sum();
        let expected: usize = injections.iter().map(|(_, h)| *h as usize + 1).sum();
        assert_eq!(delivered, expected, "token hops lost or duplicated");
    }
}

#[test]
fn receipt_times_are_monotone_per_actor() {
    let mut rng = SmallRng::seed_from_u64(0x3a1);
    for _ in 0..32 {
        let injections = arb_injections(&mut rng, 3, 8, 1, 8);
        let cost = rng.gen_range(1u64..100);
        let logs = run(3, 1, cost, 50, &injections, 3);
        for l in logs {
            for w in l.windows(2) {
                assert!(w[0].0 <= w[1].0, "service start times went backwards");
            }
        }
    }
}

/// More cores never slow a fixed workload down (service-time
/// monotonicity of the queueing model).
#[test]
fn more_cores_never_hurt() {
    let mut rng = SmallRng::seed_from_u64(0xface);
    for _ in 0..32 {
        let mut injections = arb_injections(&mut rng, 3, 5, 2, 8);
        for inj in &mut injections {
            inj.1 += 1; // at least one hop, as in the original strategy
        }
        let cost = rng.gen_range(10u64..200);
        let finish = |cores: u16| -> SimTime {
            let logs = run(3, cores, cost, 30, &injections, 5);
            logs.iter()
                .flat_map(|l| l.iter().map(|(t, _)| *t))
                .max()
                .unwrap_or(SimTime::ZERO)
        };
        assert!(finish(4) <= finish(1));
    }
}

#[derive(Debug, Clone, Copy)]
struct Ping(u32);

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

/// Obs sink shared with the test body; optionally causal.
#[derive(Clone)]
struct Tap {
    events: Arc<Mutex<Vec<ObsEvent>>>,
    causal: bool,
}

impl ObsSink for Tap {
    fn record(&mut self, ev: ObsEvent) {
        self.events.lock().unwrap().push(ev);
    }

    fn wants_causal(&self) -> bool {
        self.causal
    }
}

/// Stress actor: pings peers, self-sends at zero latency, sets and cancels
/// timers, and consumes pseudo-random service time drawn from its own
/// counter.
struct Worker {
    peers: Vec<ProcessId>,
    /// Per-actor deterministic counter standing in for an RNG.
    salt: u64,
    log: Vec<(SimTime, &'static str, u64)>,
    pending_timer: Option<u64>,
}

impl Worker {
    fn next(&mut self) -> u64 {
        self.salt = self
            .salt
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.salt >> 33
    }
}

impl Actor for Worker {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.send(self.peers[0], Ping(6));
        ctx.trace("test.start", 0, self.salt);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: ProcessId, msg: Ping) {
        let r = self.next();
        ctx.consume(SimDuration::from_micros(r % 900));
        self.log.push((ctx.now(), "msg", msg.0 as u64));
        ctx.trace("test.msg", msg.0 as u64, r % 7);
        if msg.0 == 0 {
            return;
        }
        if r.is_multiple_of(3) {
            // Zero-latency self-send: arrives at service end.
            ctx.send(ctx.self_id(), Ping(0));
        }
        if r % 4 == 1 {
            if let Some(id) = self.pending_timer.take() {
                ctx.cancel_timer(id);
            }
        }
        if r.is_multiple_of(2) {
            let after = SimDuration::from_micros(r % 2500);
            self.pending_timer = Some(ctx.set_timer(after, msg.0 as u64));
        }
        let peer = self.peers[(r as usize) % self.peers.len()];
        ctx.send(peer, Ping(msg.0 - 1));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, tag: u64) {
        self.pending_timer = None;
        self.log.push((ctx.now(), "timer", tag));
        ctx.trace("test.timer", tag, 0);
        if tag > 2 {
            let peer = self.peers[(tag as usize) % self.peers.len()];
            ctx.send(peer, Ping(1));
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Ping>) {
        self.log.push((ctx.now(), "restart", 0));
        ctx.trace("test.restart", 0, 0);
        ctx.send(self.peers[0], Ping(2));
    }
}

/// Six [`Worker`]s on mixed core models, 10 ms apart, one of them crashed
/// at 13 ms and restarted at 41 ms; runs to idle through `slices_ms` and
/// returns everything observable: actor logs, stats, clock, obs stream.
fn stress_run(causal: bool, slices_ms: &[u64]) -> String {
    let n = 6u32;
    let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 42);
    for i in 0..n {
        sim.spawn(
            Worker {
                peers: (0..n).filter(|p| *p != i).map(ProcessId).collect(),
                salt: 0x9e3779b97f4a7c15 ^ u64::from(i),
                log: Vec::new(),
                pending_timer: None,
            },
            if i % 3 == 0 {
                Cores::Unlimited
            } else {
                Cores::Fixed(1 + (i as u16 % 2))
            },
        );
    }
    let tap = Tap {
        events: Arc::new(Mutex::new(Vec::new())),
        causal,
    };
    sim.attach_obs(Box::new(tap.clone()));
    let victim = ProcessId(1);
    sim.schedule_crash(victim, SimTime::ZERO + SimDuration::from_millis(13));
    sim.schedule_restart(victim, SimTime::ZERO + SimDuration::from_millis(41));
    for &ms in slices_ms {
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
    }
    sim.run_until_idle();

    let mut s = String::new();
    for (pid, a) in sim.actors() {
        s.push_str(&format!("{pid:?}: {:?}\n", a.log));
    }
    s.push_str(&format!("stats: {:?}\n", sim.stats()));
    s.push_str(&format!("now: {:?}\n", sim.now()));
    for ev in tap.events.lock().unwrap().iter() {
        s.push_str(&format!("{ev:?}\n"));
    }
    s
}

/// Stopping at a horizon and resuming is invisible: five `run_until`
/// slices — before the first arrival, exactly on it, across the crash,
/// across the restart, mid-run — then a run to idle leave the same actor
/// logs, stats, final clock and obs stream as one run to idle. (The run
/// goes idle at 73.5 ms; a slice past that would leave the clock at its
/// horizon, as `run_until` documents.) The harness slices every
/// fault-schedule run at each link change.
#[test]
fn sliced_run_equals_one_run() {
    for causal in [false, true] {
        let whole = stress_run(causal, &[]);
        assert!(whole.contains("restart"), "the restart hook must have run");
        assert_eq!(
            whole,
            stress_run(causal, &[7, 10, 40, 55, 70]),
            "sliced run diverged from the whole one (causal={causal})"
        );
    }
}
