//! Actor abstraction: the unit of concurrency in the simulation.
//!
//! Every node in a simulated deployment — replica, client, sequencer — is an
//! [`Actor`]. Actors communicate exclusively by message passing through the
//! kernel, which charges network delay (via the [`LatencyModel`]) and CPU
//! service time (via [`Context::consume`]) so that queueing, saturation, and
//! convoy effects emerge naturally.
//!
//! [`LatencyModel`]: crate::LatencyModel
//! [`Context::consume`]: crate::Context::consume

use std::fmt;

/// Identifies a process (actor) in the simulated world.
///
/// Process ids are dense indices assigned by the kernel in spawn order, so
/// they can be used to index side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Messages must report their serialized size so the network model can
/// charge transmission time, and so experiments can account for metadata
/// overhead (e.g. vector-clock stamps vs. scalar timestamps).
pub trait WireSize {
    /// Approximate on-the-wire size of this message, in bytes.
    fn wire_size(&self) -> usize;

    /// A short static label naming the message type, used by the
    /// observability layer to break traffic down per message kind.
    fn wire_label(&self) -> &'static str {
        "msg"
    }
}

/// A simulated process.
///
/// The kernel invokes exactly one handler at a time per actor; handlers run
/// at a virtual instant (`ctx.now()`) determined by CPU availability, and
/// declare how much CPU they consumed via [`Context::consume`]. All outputs
/// (sends, timers) take effect when the handler's service time elapses.
///
/// [`Context::consume`]: crate::Context::consume
pub trait Actor {
    /// The message type exchanged in this simulated world.
    type Msg: WireSize;

    /// Invoked once when the simulation starts, in process-id order.
    fn on_start(&mut self, ctx: &mut crate::Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Handles a message delivered from `from`.
    fn on_message(
        &mut self,
        ctx: &mut crate::Context<'_, Self::Msg>,
        from: ProcessId,
        msg: Self::Msg,
    );

    /// Handles a timer previously set with [`Context::set_timer`], identified
    /// by the caller-chosen `tag`.
    ///
    /// [`Context::set_timer`]: crate::Context::set_timer
    fn on_timer(&mut self, ctx: &mut crate::Context<'_, Self::Msg>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Invoked when the kernel brings this actor back after a crash
    /// ([`Simulation::schedule_restart`]). The process restarts with a fresh
    /// mailbox and no armed timers; only state the actor itself considers
    /// durable (e.g. a write-ahead log) should survive — volatile state must
    /// be reset or reconstructed here, or the restart refused. The default
    /// does nothing: an actor with no volatile state.
    ///
    /// [`Simulation::schedule_restart`]: crate::Simulation::schedule_restart
    fn on_restart(&mut self, ctx: &mut crate::Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}
