//! Same-seed determinism regression test: the library-wide same-seed
//! reruns (`tests/tests/determinism.rs`) and the analysis story both rest
//! on the kernel replaying identical histories for identical seeds. This actor deliberately exercises every
//! kernel feature that could smuggle in nondeterminism at once — per-actor
//! RNG draws, timers set *and* canceled, multi-core service contention,
//! and message fan-out — and demands two runs agree event for event.

use gdur_sim::{
    Actor, Context, Cores, ProcessId, SimDuration, SimTime, Simulation, UniformLatency, WireSize,
};
use rand::Rng;

#[derive(Debug, Clone, Copy)]
struct Ping(u32);

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

/// On each message: consume a random service time, maybe set a timer,
/// cancel the previously set timer half the time, and forward to a
/// RNG-chosen peer. The trace records (time, kind, value) triples.
struct Chaos {
    peers: Vec<ProcessId>,
    pending_timer: Option<u64>,
    trace: Vec<(SimTime, &'static str, u64)>,
}

impl Actor for Chaos {
    type Msg = Ping;

    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: ProcessId, msg: Ping) {
        let cost = ctx.rng().gen_range(5u64..80);
        ctx.consume(SimDuration::from_micros(cost));
        self.trace.push((ctx.now(), "msg", msg.0 as u64));
        if msg.0 == 0 {
            return;
        }
        if ctx.rng().gen_bool(0.5) {
            if let Some(id) = self.pending_timer.take() {
                ctx.cancel_timer(id);
                self.trace.push((ctx.now(), "cancel", id));
            }
        }
        if ctx.rng().gen_bool(0.7) {
            let after = SimDuration::from_micros(ctx.rng().gen_range(10u64..500));
            let id = ctx.set_timer(after, msg.0 as u64);
            self.pending_timer = Some(id);
        }
        let peer = self.peers[ctx.rng().gen_range(0usize..self.peers.len())];
        ctx.send(peer, Ping(msg.0 - 1));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, tag: u64) {
        self.pending_timer = None;
        self.trace.push((ctx.now(), "timer", tag));
    }
}

fn run(seed: u64) -> Vec<Vec<(SimTime, &'static str, u64)>> {
    let n = 4;
    let mut sim = Simulation::new(UniformLatency(SimDuration::from_micros(150)), seed);
    for i in 0..n {
        let peers = (0..n)
            .filter(|p| *p != i)
            .map(|p| ProcessId(p as u32))
            .collect();
        sim.spawn(
            Chaos {
                peers,
                pending_timer: None,
                trace: Vec::new(),
            },
            Cores::Fixed(2),
        );
    }
    for i in 0..n {
        sim.inject(
            ProcessId(999),
            ProcessId(i as u32),
            Ping(12),
            SimTime::from_nanos(i as u64),
        );
    }
    sim.run_until_idle();
    (0..n)
        .map(|i| sim.actor(ProcessId(i as u32)).trace.clone())
        .collect()
}

#[test]
fn same_seed_replays_identical_traces() {
    for seed in [0, 1, 42, 0xdead_beef] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "seed {seed} produced diverging traces");
    }
}

#[test]
fn different_seeds_actually_change_the_schedule() {
    // Guards against the RNG being silently unused: if every seed yields
    // the same trace, the determinism test above proves nothing.
    assert_ne!(run(1), run(2), "seed must influence the history");
}
