//! Kernel-level observability hooks.
//!
//! The kernel itself knows nothing about transactions or protocols: it only
//! offers a sink to which actors (via [`Context::trace`](crate::Context))
//! and the dispatch loop (message departures) append [`ObsEvent`]s. The
//! interpretation of labels and the phase-breakdown aggregation live in
//! `gdur-obs`, outside the deterministic core.
//!
//! Recording is deliberately side-effect free with respect to the
//! simulation: appending an event never consumes virtual time, never draws
//! from the RNG, and never schedules anything. Attaching a sink therefore
//! cannot perturb a run, and detaching it makes tracing a dead branch.
//!
//! # Causal events
//!
//! Every kernel arrival carries a monotone id (`mid`, the event-queue
//! sequence number assigned at scheduling time). A sink that opts in via
//! [`ObsSink::wants_causal`] additionally receives, per message, a
//! [`ObsEvent::Deliver`] when it crosses into the destination's pending
//! queue, and per handler invocation a [`ObsEvent::HandleStart`] /
//! [`ObsEvent::HandleEnd`] bracket whose `mid` matches the triggering
//! arrival. Together with the `mid` stamped on every `Send`, these stitch
//! exact `Send → Deliver → Handle` edges: the consumer (`gdur-obs`) can
//! rebuild the full causal graph of a run. Sinks that do not opt in see
//! exactly the historical event stream (points and sends only).

use crate::actor::ProcessId;
use crate::time::SimTime;

/// Trigger-kind labels carried by [`ObsEvent::HandleStart`].
pub mod trigger {
    /// The handler is the actor's `on_start` hook.
    pub const START: &str = "start";
    /// The handler services a delivered message (`on_message`).
    pub const MSG: &str = "msg";
    /// The handler services a fired timer (`on_timer`).
    pub const TIMER: &str = "timer";
    /// The handler is the recovery hook (`on_restart`).
    pub const RESTART: &str = "restart";
}

/// One observability event, stamped in virtual time.
///
/// Labels are `&'static str` by design: the set of event kinds is fixed at
/// compile time, comparisons are cheap, and no allocation happens on the
/// hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A point event emitted by an actor via [`Context::trace`](crate::Context::trace),
    /// stamped at the emitting handler's service-start instant.
    Point {
        /// Virtual instant of the emitting handler's service start.
        at: SimTime,
        /// The actor that emitted the event.
        actor: ProcessId,
        /// Event kind (see `gdur_obs::labels` for the vocabulary).
        label: &'static str,
        /// Transaction code (`gdur_store::TxId::code`), or 0 if not txn-scoped.
        tx: u64,
        /// Label-specific payload (queue depth, vote, abort-cause code...).
        value: u64,
    },
    /// A message departure recorded by the kernel, stamped at the sending
    /// handler's service-*end* instant (when the bytes hit the wire).
    Send {
        /// Virtual departure instant.
        at: SimTime,
        /// Monotone message id: the kernel sequence number of the arrival
        /// event scheduled for this message. Matches the `mid` of the
        /// corresponding [`ObsEvent::Deliver`] and, once serviced, of the
        /// destination handler's [`ObsEvent::HandleStart`].
        mid: u64,
        /// Sending actor.
        from: ProcessId,
        /// Destination actor.
        to: ProcessId,
        /// Message-type label ([`WireSize::wire_label`](crate::WireSize::wire_label)).
        label: &'static str,
        /// Wire size of the message in bytes.
        bytes: u64,
    },
    /// A message crossing into the destination's pending queue (causal
    /// sinks only). Messages addressed to a crashed actor are dropped and
    /// never delivered: a `Send` without a matching `Deliver` on a live
    /// actor is a drop.
    Deliver {
        /// Virtual delivery instant (departure + network delay).
        at: SimTime,
        /// Message id, matching the [`ObsEvent::Send`].
        mid: u64,
        /// Destination actor.
        to: ProcessId,
    },
    /// A handler invocation beginning service (causal sinks only). Every
    /// [`ObsEvent::Point`] and [`ObsEvent::Send`] between a `HandleStart`
    /// and its matching [`ObsEvent::HandleEnd`] was emitted by this handler
    /// — the kernel is single-threaded, so the bracket nesting is exact.
    HandleStart {
        /// Service-start instant.
        at: SimTime,
        /// The actor running the handler.
        actor: ProcessId,
        /// Id of the triggering arrival: for [`trigger::MSG`] it matches
        /// the message's `Send`/`Deliver` mid; for timers/start/restart it
        /// is the (still monotone) id of the internal arrival event.
        mid: u64,
        /// What triggered the handler (see [`trigger`]).
        trigger: &'static str,
    },
    /// The matching end of a [`ObsEvent::HandleStart`] bracket, stamped at
    /// the service-end instant (start + consumed CPU time).
    HandleEnd {
        /// Service-end instant.
        at: SimTime,
        /// The actor that ran the handler.
        actor: ProcessId,
        /// Id of the triggering arrival (matches the `HandleStart`).
        mid: u64,
    },
}

/// Kernel label reported by [`ObsEvent::label`] for [`ObsEvent::Deliver`].
pub const KERNEL_DELIVER: &str = "kernel.deliver";
/// Kernel label reported by [`ObsEvent::label`] for [`ObsEvent::HandleStart`].
pub const KERNEL_HANDLE_START: &str = "kernel.handle.start";
/// Kernel label reported by [`ObsEvent::label`] for [`ObsEvent::HandleEnd`].
pub const KERNEL_HANDLE_END: &str = "kernel.handle.end";

impl ObsEvent {
    /// The virtual instant the event is stamped with.
    pub fn at(&self) -> SimTime {
        match self {
            ObsEvent::Point { at, .. }
            | ObsEvent::Send { at, .. }
            | ObsEvent::Deliver { at, .. }
            | ObsEvent::HandleStart { at, .. }
            | ObsEvent::HandleEnd { at, .. } => *at,
        }
    }

    /// The event's label (kernel-fixed for the causal variants).
    pub fn label(&self) -> &'static str {
        match self {
            ObsEvent::Point { label, .. } | ObsEvent::Send { label, .. } => label,
            ObsEvent::Deliver { .. } => KERNEL_DELIVER,
            ObsEvent::HandleStart { .. } => KERNEL_HANDLE_START,
            ObsEvent::HandleEnd { .. } => KERNEL_HANDLE_END,
        }
    }
}

/// Receiver of [`ObsEvent`]s, attached to a simulation with
/// [`Simulation::attach_obs`](crate::Simulation::attach_obs).
///
/// `Send` is required so that a `Simulation` stays `Send` whether or not a
/// sink is attached (experiment sweeps build one simulation per thread).
pub trait ObsSink: Send {
    /// Appends one event. Must be cheap and must not panic.
    fn record(&mut self, ev: ObsEvent);

    /// Opt-in to the kernel causal events ([`ObsEvent::Deliver`],
    /// [`ObsEvent::HandleStart`], [`ObsEvent::HandleEnd`]). Defaults to
    /// `false`, which preserves the historical point/send-only stream
    /// byte-for-byte. Sampled once at attach time.
    fn wants_causal(&self) -> bool {
        false
    }
}

impl ObsSink for Vec<ObsEvent> {
    fn record(&mut self, ev: ObsEvent) {
        self.push(ev);
    }
}
