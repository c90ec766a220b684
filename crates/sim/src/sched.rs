//! Kernel-level schedule-exploration hook.
//!
//! By default the kernel pops events in strict `(time, seq)` order — one
//! schedule per seed. A [`Scheduler`] attached via
//! [`Simulation::attach_scheduler`](crate::Simulation::attach_scheduler)
//! gets to reorder *co-enabled* arrivals instead: whenever the next event is
//! a message/timer/start arrival, the kernel collects every further arrival
//! within [`Scheduler::window`] of it (stopping at the first dispatch or
//! fault event, which are never reordered) and asks the scheduler which one
//! to run first.
//!
//! Choosing a candidate whose time is *later* than another's models bounded
//! network/CPU jitter: the passed-over earlier candidates are re-queued with
//! their arrival instants bumped up to the chosen event's time, so virtual
//! time stays monotone and every explored schedule is a legal execution of
//! the same system under a slightly different latency assignment. With a
//! zero window only same-instant arrivals are co-enabled and the degenerate
//! choice "index 0" reproduces the default `(time, seq)` order exactly.
//!
//! The hook is dormant when no scheduler is attached: the dispatch loop
//! takes the historical path untouched, so default runs stay bit-identical.
//! Model-checking policy (DPOR pruning, decision vectors, random walks)
//! lives in `gdur_bench::mc`, outside the kernel.

use crate::actor::ProcessId;
use crate::time::{SimDuration, SimTime};

/// What a co-enabled candidate event would do, payload-free.
///
/// The kernel never exposes message bodies to a scheduler — reordering
/// decisions may depend only on shape (target actor, source, timer tag),
/// which is what keeps the commutativity argument behind DPOR-style
/// pruning honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// The actor's `on_start` job.
    Start,
    /// A message delivery from `from`.
    Message {
        /// The sending actor.
        from: ProcessId,
    },
    /// A timer firing with the given tag.
    Timer {
        /// The actor-chosen timer tag.
        tag: u64,
    },
    /// The actor's `on_restart` recovery job.
    Restart,
}

/// One co-enabled arrival offered to [`Scheduler::choose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The arrival's currently scheduled instant.
    pub time: SimTime,
    /// Kernel scheduling sequence number (the default tie-break key).
    pub seq: u64,
    /// The destination actor.
    pub to: ProcessId,
    /// What the arrival is.
    pub kind: CandidateKind,
    /// True if running this arrival is a behavioral no-op — a canceled
    /// timer draining through the queue, or any arrival addressed to a
    /// crashed actor. Inert arrivals commute with *everything* (they only
    /// retire kernel bookkeeping), so schedule explorers should never
    /// branch on their order.
    pub inert: bool,
}

/// Chooses among co-enabled arrivals; attached with
/// [`Simulation::attach_scheduler`](crate::Simulation::attach_scheduler).
///
/// `Send` is required so a `Simulation` stays `Send` whether or not a
/// scheduler is attached (mirroring [`ObsSink`](crate::ObsSink)).
pub trait Scheduler: Send {
    /// Width of the co-enabled window: arrivals within `window()` of the
    /// earliest queued event are offered together. `ZERO` restricts choice
    /// to exact virtual-instant ties.
    fn window(&self) -> SimDuration;

    /// Picks the index (into `candidates`) of the arrival to run next.
    ///
    /// `candidates` is nonempty and sorted by `(time, seq)`; index 0 is
    /// what the default kernel would run. Called only when there are at
    /// least two candidates. Must return a valid index; must not panic.
    fn choose(&mut self, now: SimTime, candidates: &[Candidate]) -> usize;
}

/// The identity scheduler: always picks index 0 with a zero window,
/// reproducing the default `(time, seq)` order event-for-event. Exists to
/// test that attaching a scheduler is itself perturbation-free.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn window(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn choose(&mut self, _now: SimTime, _candidates: &[Candidate]) -> usize {
        0
    }
}
