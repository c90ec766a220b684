//! # gdur-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the bottom-most substrate of the G-DUR reproduction: a
//! deterministic discrete-event simulator in which every node of a simulated
//! geo-replicated deployment (replica, client, sequencer) is an [`Actor`]
//! exchanging messages through a pluggable [`LatencyModel`] and competing for
//! per-actor CPU cores.
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — a run is a pure function of the actor set, the
//!    latency model, and one RNG seed. The event queue breaks ties by
//!    scheduling sequence number, and all randomness flows through a single
//!    seeded generator.
//! 2. **Queueing realism** — actors are queueing stations with a fixed
//!    number of cores ([`Cores`]); handlers charge service time with
//!    [`Context::consume`]. Offered load beyond capacity produces the
//!    latency knees, convoy effects, and saturation plateaus that the G-DUR
//!    paper's figures hinge on.
//! 3. **Failure injection** — one fault model: [`Simulation::schedule_crash`]
//!    / [`Simulation::schedule_restart`] are kernel events that fire *inside*
//!    a run at a chosen virtual instant (`now()` included). The crash is
//!    fail-stop with total loss of volatile state — it discards the mailbox
//!    and retires every armed timer — and the restart runs the actor's
//!    [`Actor::on_restart`] recovery hook through the normal dispatch path;
//!    both transitions are traced through the observability sink. What
//!    survives a crash is what the actor itself made durable.
//!
//! ## Example
//!
//! ```
//! use gdur_sim::{Actor, Context, Cores, ProcessId, SimDuration, SimTime, Simulation,
//!                UniformLatency, WireSize};
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl WireSize for Hello {
//!     fn wire_size(&self) -> usize { 16 }
//! }
//!
//! struct Greeter { peer: Option<ProcessId>, got: usize }
//! impl Actor for Greeter {
//!     type Msg = Hello;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if let Some(p) = self.peer { ctx.send(p, Hello); }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: ProcessId, _m: Hello) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 42);
//! let a = sim.spawn(Greeter { peer: None, got: 0 }, Cores::Fixed(1));
//! let b = sim.spawn(Greeter { peer: Some(a), got: 0 }, Cores::Fixed(1));
//! sim.run_until_idle();
//! assert_eq!(sim.actor(a).got, 1);
//! assert_eq!(sim.now(), SimTime::from_nanos(10_000_000));
//! # let _ = b;
//! ```

mod actor;
mod idmap;
mod kernel;
mod obs;
mod queue;
mod sched;
mod time;
mod wheel;

pub use actor::{Actor, ProcessId, WireSize};
pub use idmap::IdMap;
pub use kernel::{
    Context, Cores, LatencyModel, QueueClassStats, QueueStats, SimStats, Simulation,
    UniformLatency, ZeroLatency, KERNEL_CRASH, KERNEL_RESTART,
};
pub use obs::{trigger, ObsEvent, ObsSink, KERNEL_DELIVER, KERNEL_HANDLE_END, KERNEL_HANDLE_START};
pub use sched::{Candidate, CandidateKind, FifoScheduler, Scheduler};
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;
