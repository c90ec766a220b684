//! Sharded conservative-PDES driver for the deterministic kernel.
//!
//! The sequential kernel pops one `(time, seq)`-ordered event at a time.
//! This module shards the actor set by *site* across worker threads and
//! runs each shard freely inside a conservative lookahead window
//! `[T, T + L)`, where `L` is the minimum inter-site network delay: a
//! cross-shard send executed at `t >= T` arrives at `t + delay >= T + L`,
//! so nothing a foreign shard does inside the window can affect this
//! shard's events within it. Same-site actors always share a shard, so
//! LAN-fast traffic never constrains `L`.
//!
//! Determinism is preserved with an execute-in-parallel /
//! commit-in-order split:
//!
//! 1. The coordinator drains every queued event with `time < T + L` into
//!    per-shard seed batches (keeping their already-assigned global
//!    sequence numbers) and hands each shard its batch.
//! 2. Each worker runs a mini-kernel over its own actors. Children that
//!    land inside the window on the *same* shard execute immediately
//!    under a provisional key (`PROV_BIT | n`, in birth order); children
//!    that cross shards or land past the window are recorded as deferred.
//!    Every globally visible side effect (stats, obs events, sends,
//!    timers, dispatch wake-ups) is recorded, not applied.
//! 3. The coordinator merges the per-shard record streams. Each stream
//!    is sorted by `(time, final seq)` — provisional keys resolve in
//!    birth order to sequence numbers larger than any seed's — so a
//!    k-way merge replays the exact global `(time, seq)` order of the
//!    sequential kernel, assigning real sequence numbers to children as
//!    their creating handlers are replayed and emitting obs/stats
//!    byte-identically.
//! 4. Workers rewrite any provisional keys still parked in pending
//!    queues to their real sequence numbers before the next window.
//!
//! The merge can always resolve the key at the head of a stream: a
//! provisional child is created by a handler that appears *earlier in
//! the same stream*, so by the time the child is a head its key has been
//! assigned. Model-checking schedulers reorder co-enabled arrivals one
//! at a time, which has no meaning across concurrently-advancing shards
//! — a `Scheduler` therefore always forces the sequential path.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::vec::IntoIter;

use super::*;

/// High bit marking a window-local provisional event key. Real sequence
/// numbers are event counts and never reach this range.
const PROV_BIT: u64 = 1 << 63;

/// Placeholder for a provisional key not yet assigned its real sequence
/// number by the merge.
const UNRESOLVED: u64 = u64::MAX;

const TRIG_START: u8 = 0;
const TRIG_MSG: u8 = 1;
const TRIG_TIMER: u8 = 2;
const TRIG_RESTART: u8 = 3;

fn trig_str(t: u8) -> &'static str {
    match t {
        TRIG_START => trigger::START,
        TRIG_MSG => trigger::MSG,
        TRIG_TIMER => trigger::TIMER,
        _ => trigger::RESTART,
    }
}

/// Shard topology installed by [`Simulation::enable_parallel`].
pub(crate) struct ParShards {
    /// Site of each actor, indexed by `ProcessId`.
    pub(crate) site_of: Vec<u16>,
    /// Conservative window width: the minimum inter-site network delay.
    pub(crate) lookahead: SimDuration,
}

fn event_target<M>(kind: &EventKind<M>) -> ProcessId {
    match kind {
        EventKind::Arrival(to, _) => *to,
        EventKind::Dispatch(to) | EventKind::Crash(to) | EventKind::Restart(to) => *to,
    }
}

/// A queued event leaving the global heap for a shard, keeping its
/// already-assigned global sequence number.
struct SeedEv<M> {
    time: SimTime,
    key: u64,
    kind: EventKind<M>,
}

enum Cmd<M> {
    /// Run one window: execute `seeds` plus any same-shard children that
    /// land before `bound`.
    Window {
        bound: SimTime,
        seeds: Vec<SeedEv<M>>,
    },
    /// Provisional-key resolutions from the merge of the last window.
    Resolve { map: Vec<u64> },
}

/// Everything a shard did in one window, as globally ordered records.
struct WindowOut<M> {
    evs: Vec<EvRec>,
    steps: Vec<StepRec>,
    outs: Vec<OutRec<M>>,
    points: Vec<ObsEvent>,
    prov_count: u32,
}

impl<M> Default for WindowOut<M> {
    fn default() -> Self {
        WindowOut {
            evs: Vec::new(),
            steps: Vec::new(),
            outs: Vec::new(),
            points: Vec::new(),
            prov_count: 0,
        }
    }
}

/// One executed event: the unit of the per-shard record stream, sorted
/// by `(time, resolved key)`.
#[derive(Clone, Copy)]
struct EvRec {
    time: SimTime,
    /// Global seq for seeds, `PROV_BIT`-encoded for in-window children.
    key: u64,
    pid: ProcessId,
    outcome: Outcome,
    /// Number of [`StepRec`]s this event appended.
    steps: u32,
}

#[derive(Clone, Copy)]
enum Outcome {
    /// No globally visible arrival effect (timer retire, dispatch,
    /// non-message arrival, restart of a live actor).
    Quiet,
    /// A message crossed into the pending queue.
    Delivered,
    /// A message hit a crashed actor.
    Dropped,
    /// A scheduled crash took effect, discarding `discarded` jobs.
    Crash { discarded: u64 },
    /// A scheduled restart took effect (its on_restart arrival follows
    /// as a [`StepRec::RestartChild`]).
    Restarted,
}

enum StepRec {
    /// One handler invocation; its `points` trace points and `outs`
    /// output records follow in the shard's streams.
    Job {
        key: u64,
        trigger: u8,
        start: SimTime,
        end: SimTime,
        points: u32,
        outs: u32,
    },
    /// The dispatch loop scheduled a core-free wake-up at `at`.
    SchedDispatch { at: SimTime, disp: Disp },
    /// fault_restart queued the on_restart arrival (always in-window:
    /// it lands at the restart instant itself).
    RestartChild { prov: u32 },
}

#[derive(Clone, Copy)]
enum Disp {
    /// Executed in-window under this provisional key.
    Local(u32),
    /// Past the window bound; the merge queues it globally.
    Defer,
}

enum OutRec<M> {
    Send {
        /// Departure instant (service end + extra), for the obs event.
        at: SimTime,
        to: ProcessId,
        label: &'static str,
        bytes: u64,
        arrival: SimTime,
        disp: SendDisp<M>,
    },
    Timer {
        arrival: SimTime,
        disp: TimerDisp,
    },
}

enum SendDisp<M> {
    Local(u32),
    /// Cross-shard or past the bound; the payload rides to the merge.
    Defer {
        msg: Box<M>,
    },
}

#[derive(Clone, Copy)]
enum TimerDisp {
    Local(u32),
    Defer { id: u64, tag: u64 },
}

/// Buffers the `ObsEvent::Point`s a handler emits on a worker thread;
/// the merge replays them in global order on the real sink.
struct PointBuf(Vec<ObsEvent>);

impl ObsSink for PointBuf {
    fn record(&mut self, ev: ObsEvent) {
        self.0.push(ev);
    }
}

struct ShardSlot<'a, A: Actor> {
    pid: ProcessId,
    slot: &'a mut ActorSlot<A>,
}

/// The per-worker mini-kernel: owns one shard's actor slots and mirrors
/// the sequential arrive/dispatch/run_job loop, recording instead of
/// applying every globally visible effect.
struct Shard<'a, A: Actor, L> {
    wid: u16,
    slots: Vec<ShardSlot<'a, A>>,
    latency: &'a L,
    shard_of: &'a [u16],
    slot_loc: &'a [u32],
    obs_attached: bool,
    heap: BinaryHeap<Reverse<QueuedEvent<A::Msg>>>,
    out: WindowOut<A::Msg>,
    scratch: Vec<Output<A::Msg>>,
    points: PointBuf,
    bound: SimTime,
    /// Local slot indices whose pending queues may hold provisional keys.
    dirty: Vec<u32>,
}

impl<'a, A, L> Shard<'a, A, L>
where
    A: Actor,
    L: LatencyModel,
{
    fn serve(mut self, rx: Receiver<Cmd<A::Msg>>, tx: Sender<WindowOut<A::Msg>>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Cmd::Window { bound, seeds } => {
                    let out = self.run_window(bound, seeds);
                    if tx.send(out).is_err() {
                        return;
                    }
                }
                Cmd::Resolve { map } => self.apply_resolution(&map),
            }
        }
    }

    fn run_window(&mut self, bound: SimTime, seeds: Vec<SeedEv<A::Msg>>) -> WindowOut<A::Msg> {
        self.bound = bound;
        for s in seeds {
            self.heap.push(Reverse(QueuedEvent {
                time: s.time,
                seq: s.key,
                kind: s.kind,
            }));
        }
        while let Some(Reverse(ev)) = self.heap.pop() {
            debug_assert!(ev.time < bound, "window leaked past its bound");
            self.exec_event(ev);
        }
        std::mem::take(&mut self.out)
    }

    fn new_prov(&mut self) -> u32 {
        let p = self.out.prov_count;
        self.out.prov_count += 1;
        p
    }

    fn local(&self, pid: ProcessId) -> usize {
        debug_assert_eq!(
            self.shard_of[pid.index()],
            self.wid,
            "event routed to the wrong shard"
        );
        self.slot_loc[pid.index()] as usize
    }

    fn exec_event(&mut self, ev: QueuedEvent<A::Msg>) {
        let now = ev.time;
        let rec = self.out.evs.len();
        let steps_before = self.out.steps.len();
        self.out.evs.push(EvRec {
            time: now,
            key: ev.seq,
            pid: event_target(&ev.kind),
            outcome: Outcome::Quiet,
            steps: 0,
        });
        match ev.kind {
            EventKind::Arrival(to, job) => {
                let li = self.local(to);
                if let Job::Timer { id, .. } = &job {
                    let slot = &mut *self.slots[li].slot;
                    if !slot.armed.remove(id) {
                        return;
                    }
                }
                if self.slots[li].slot.crashed {
                    if matches!(job, Job::Message { .. }) {
                        self.out.evs[rec].outcome = Outcome::Dropped;
                    }
                    return;
                }
                if matches!(job, Job::Message { .. }) {
                    self.out.evs[rec].outcome = Outcome::Delivered;
                }
                if ev.seq & PROV_BIT != 0 {
                    self.dirty.push(li as u32);
                }
                self.slots[li].slot.pending.push_back((ev.seq, job));
                self.dispatch(li, now);
            }
            EventKind::Dispatch(to) => {
                let li = self.local(to);
                self.slots[li].slot.dispatch_at = None;
                self.dispatch(li, now);
            }
            EventKind::Crash(who) => {
                let li = self.local(who);
                let slot = &mut *self.slots[li].slot;
                let discarded = slot.pending.len() as u64;
                slot.crashed = true;
                slot.pending.clear();
                slot.armed.clear();
                self.out.evs[rec].outcome = Outcome::Crash { discarded };
            }
            EventKind::Restart(who) => {
                let li = self.local(who);
                if !self.slots[li].slot.crashed {
                    return;
                }
                self.slots[li].slot.crashed = false;
                self.out.evs[rec].outcome = Outcome::Restarted;
                let prov = self.new_prov();
                self.out.steps.push(StepRec::RestartChild { prov });
                self.heap.push(Reverse(QueuedEvent {
                    time: now,
                    seq: PROV_BIT | prov as u64,
                    kind: EventKind::Arrival(who, Job::Restart),
                }));
            }
        }
        self.out.evs[rec].steps = (self.out.steps.len() - steps_before) as u32;
    }

    /// Mirrors `Simulation::try_dispatch` against shard-owned slots.
    fn dispatch(&mut self, li: usize, now: SimTime) {
        loop {
            let slot = &mut *self.slots[li].slot;
            if slot.pending.is_empty() || slot.crashed {
                return;
            }
            if slot.unlimited {
                let (key, job) = slot.pending.pop_front().expect("nonempty");
                self.run_job(li, now, key, job, None);
                continue;
            }
            let (core_idx, free) = slot
                .core_free
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .map(|(i, t)| (i, *t))
                .expect("Fixed cores is nonempty");
            if free > now {
                let need = match slot.dispatch_at {
                    Some(at) if at <= free => false,
                    _ => {
                        slot.dispatch_at = Some(free);
                        true
                    }
                };
                if need {
                    let pid = self.slots[li].pid;
                    let disp = if free < self.bound {
                        let prov = self.new_prov();
                        self.heap.push(Reverse(QueuedEvent {
                            time: free,
                            seq: PROV_BIT | prov as u64,
                            kind: EventKind::Dispatch(pid),
                        }));
                        Disp::Local(prov)
                    } else {
                        Disp::Defer
                    };
                    self.out
                        .steps
                        .push(StepRec::SchedDispatch { at: free, disp });
                }
                return;
            }
            let (key, job) = slot.pending.pop_front().expect("nonempty");
            self.run_job(li, now, key, job, Some(core_idx));
        }
    }

    /// Mirrors `Simulation::run_job`, recording outputs instead of
    /// pushing them to the global queue.
    fn run_job(
        &mut self,
        li: usize,
        start: SimTime,
        key: u64,
        job: Job<A::Msg>,
        core: Option<usize>,
    ) {
        let pid = self.slots[li].pid;
        let trigger = match &job {
            Job::Start => TRIG_START,
            Job::Message { .. } => TRIG_MSG,
            Job::Timer { .. } => TRIG_TIMER,
            Job::Restart => TRIG_RESTART,
        };
        let mut outputs = std::mem::take(&mut self.scratch);
        let consumed;
        let mut halted = false;
        {
            let slot = &mut *self.slots[li].slot;
            let mut ctx = Context {
                now: start,
                self_id: pid,
                consumed: SimDuration::ZERO,
                rng: None,
                outputs: &mut outputs,
                next_timer: &mut slot.next_timer,
                halted: &mut halted,
                obs: if self.obs_attached {
                    Some(&mut self.points as &mut dyn ObsSink)
                } else {
                    None
                },
            };
            match job {
                Job::Start => slot.actor.on_start(&mut ctx),
                Job::Message { from, msg } => slot.actor.on_message(&mut ctx, from, *msg),
                Job::Timer { tag, .. } => slot.actor.on_timer(&mut ctx, tag),
                Job::Restart => slot.actor.on_restart(&mut ctx),
            }
            consumed = ctx.consumed;
        }
        assert!(
            !halted,
            "Context::halt is unsupported under the parallel kernel (threads > 1)"
        );
        let end = start + consumed;
        if let Some(core_idx) = core {
            self.slots[li].slot.core_free[core_idx] = end;
        }
        let npoints = self.points.0.len() as u32;
        self.out.points.append(&mut self.points.0);
        let outs_before = self.out.outs.len();
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg, extra } => {
                    let bytes = msg.wire_size();
                    let label = msg.wire_label();
                    let delay = self
                        .latency
                        .deterministic_delay(pid, to, bytes)
                        .unwrap_or_else(|| {
                            panic!(
                                "the parallel kernel requires a jitter-free latency \
                                 model (LatencyModel::deterministic_delay returned \
                                 None for {pid:?} -> {to:?})"
                            )
                        });
                    let arrival = end + extra + delay;
                    let same_shard = self.shard_of[to.index()] == self.wid;
                    let disp = if same_shard && arrival < self.bound {
                        let prov = self.new_prov();
                        self.heap.push(Reverse(QueuedEvent {
                            time: arrival,
                            seq: PROV_BIT | prov as u64,
                            kind: EventKind::Arrival(to, Job::Message { from: pid, msg }),
                        }));
                        SendDisp::Local(prov)
                    } else {
                        assert!(
                            same_shard || arrival >= self.bound,
                            "conservative lookahead violated: {:?} -> {:?} arrives at \
                             {:?} inside the window ending at {:?}",
                            pid,
                            to,
                            arrival,
                            self.bound
                        );
                        SendDisp::Defer { msg }
                    };
                    self.out.outs.push(OutRec::Send {
                        at: end + extra,
                        to,
                        label,
                        bytes: bytes as u64,
                        arrival,
                        disp,
                    });
                }
                Output::Timer {
                    id: tid,
                    tag,
                    after,
                } => {
                    self.slots[li].slot.armed.insert(tid);
                    let arrival = end + after;
                    let disp = if arrival < self.bound {
                        let prov = self.new_prov();
                        self.heap.push(Reverse(QueuedEvent {
                            time: arrival,
                            seq: PROV_BIT | prov as u64,
                            kind: EventKind::Arrival(pid, Job::Timer { id: tid, tag }),
                        }));
                        TimerDisp::Local(prov)
                    } else {
                        TimerDisp::Defer { id: tid, tag }
                    };
                    self.out.outs.push(OutRec::Timer { arrival, disp });
                }
                Output::CancelTimer(tid) => {
                    self.slots[li].slot.armed.remove(&tid);
                }
            }
        }
        self.out.steps.push(StepRec::Job {
            key,
            trigger,
            start,
            end,
            points: npoints,
            outs: (self.out.outs.len() - outs_before) as u32,
        });
        self.scratch = outputs;
    }

    /// Rewrites provisional pending-queue keys to the real sequence
    /// numbers the merge assigned.
    fn apply_resolution(&mut self, map: &[u64]) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for &li in &dirty {
            for entry in self.slots[li as usize].slot.pending.iter_mut() {
                if entry.0 & PROV_BIT != 0 {
                    entry.0 = map[(entry.0 & !PROV_BIT) as usize];
                }
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }
}

fn resolve(key: u64, res: &[u64]) -> u64 {
    if key & PROV_BIT == 0 {
        return key;
    }
    let v = res[(key & !PROV_BIT) as usize];
    assert!(
        v != UNRESOLVED,
        "provisional key compared before its creating handler was merged"
    );
    v
}

struct MergeState<M> {
    evs: std::iter::Peekable<IntoIter<EvRec>>,
    steps: IntoIter<StepRec>,
    outs: IntoIter<OutRec<M>>,
    points: IntoIter<ObsEvent>,
    /// Provisional key -> real sequence number, filled as creating
    /// handlers are replayed.
    res: Vec<u64>,
}

/// Replays the shards' record streams in global `(time, seq)` order,
/// applying stats/obs/queue effects exactly as the sequential kernel
/// would have, and returns each shard's provisional-key resolutions.
#[allow(clippy::too_many_arguments)]
fn merge_window<M>(
    outs: Vec<WindowOut<M>>,
    queue: &mut EventQueue<M>,
    seq: &mut u64,
    time: &mut SimTime,
    stats: &mut SimStats,
    obs: &mut Option<Box<dyn ObsSink>>,
    obs_causal: bool,
) -> Vec<Vec<u64>> {
    let mut shards: Vec<MergeState<M>> = outs
        .into_iter()
        .map(|o| MergeState {
            res: vec![UNRESOLVED; o.prov_count as usize],
            evs: o.evs.into_iter().peekable(),
            steps: o.steps.into_iter(),
            outs: o.outs.into_iter(),
            points: o.points.into_iter(),
        })
        .collect();
    loop {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (s, st) in shards.iter_mut().enumerate() {
            let Some(e) = st.evs.peek() else { continue };
            let k = resolve(e.key, &st.res);
            match best {
                Some((bt, bk, _)) if (bt, bk) <= (e.time, k) => {}
                _ => best = Some((e.time, k, s)),
            }
        }
        let Some((t, key, s)) = best else { break };
        debug_assert!(t >= *time, "merge replay went backwards in time");
        *time = t;
        let st = &mut shards[s];
        let e = st.evs.next().expect("peeked");
        match e.outcome {
            Outcome::Quiet => {}
            Outcome::Delivered => {
                stats.messages_delivered += 1;
                if obs_causal {
                    if let Some(o) = obs.as_deref_mut() {
                        o.record(ObsEvent::Deliver {
                            at: t,
                            mid: key,
                            to: e.pid,
                        });
                    }
                }
            }
            Outcome::Dropped => stats.messages_dropped += 1,
            Outcome::Crash { discarded } => {
                if let Some(o) = obs.as_deref_mut() {
                    o.record(ObsEvent::Point {
                        at: t,
                        actor: e.pid,
                        label: KERNEL_CRASH,
                        tx: 0,
                        value: discarded,
                    });
                }
            }
            Outcome::Restarted => {
                if let Some(o) = obs.as_deref_mut() {
                    o.record(ObsEvent::Point {
                        at: t,
                        actor: e.pid,
                        label: KERNEL_RESTART,
                        tx: 0,
                        value: 0,
                    });
                }
            }
        }
        for _ in 0..e.steps {
            match st.steps.next().expect("step stream in sync") {
                StepRec::Job {
                    key: jkey,
                    trigger,
                    start,
                    end,
                    points,
                    outs: nouts,
                } => {
                    stats.events_processed += 1;
                    let mid = resolve(jkey, &st.res);
                    if obs_causal {
                        if let Some(o) = obs.as_deref_mut() {
                            o.record(ObsEvent::HandleStart {
                                at: start,
                                actor: e.pid,
                                mid,
                                trigger: trig_str(trigger),
                            });
                        }
                    }
                    for _ in 0..points {
                        let p = st.points.next().expect("point stream in sync");
                        if let Some(o) = obs.as_deref_mut() {
                            o.record(p);
                        }
                    }
                    for _ in 0..nouts {
                        match st.outs.next().expect("out stream in sync") {
                            OutRec::Send {
                                at,
                                to,
                                label,
                                bytes,
                                arrival,
                                disp,
                            } => {
                                let child = *seq;
                                *seq += 1;
                                if let Some(o) = obs.as_deref_mut() {
                                    o.record(ObsEvent::Send {
                                        at,
                                        mid: child,
                                        from: e.pid,
                                        to,
                                        label,
                                        bytes,
                                    });
                                }
                                match disp {
                                    SendDisp::Local(p) => st.res[p as usize] = child,
                                    SendDisp::Defer { msg } => queue.push(QueuedEvent {
                                        time: arrival,
                                        seq: child,
                                        kind: EventKind::Arrival(
                                            to,
                                            Job::Message { from: e.pid, msg },
                                        ),
                                    }),
                                }
                            }
                            OutRec::Timer { arrival, disp } => {
                                let child = *seq;
                                *seq += 1;
                                match disp {
                                    TimerDisp::Local(p) => st.res[p as usize] = child,
                                    TimerDisp::Defer { id, tag } => queue.push(QueuedEvent {
                                        time: arrival,
                                        seq: child,
                                        kind: EventKind::Arrival(e.pid, Job::Timer { id, tag }),
                                    }),
                                }
                            }
                        }
                    }
                    if obs_causal {
                        if let Some(o) = obs.as_deref_mut() {
                            o.record(ObsEvent::HandleEnd {
                                at: end,
                                actor: e.pid,
                                mid,
                            });
                        }
                    }
                }
                StepRec::SchedDispatch { at, disp } => {
                    let child = *seq;
                    *seq += 1;
                    match disp {
                        Disp::Local(p) => st.res[p as usize] = child,
                        Disp::Defer => queue.push(QueuedEvent {
                            time: at,
                            seq: child,
                            kind: EventKind::Dispatch(e.pid),
                        }),
                    }
                }
                StepRec::RestartChild { prov } => {
                    let child = *seq;
                    *seq += 1;
                    st.res[prov as usize] = child;
                }
            }
        }
    }
    shards
        .into_iter()
        .map(|st| {
            debug_assert!(
                st.res.iter().all(|&v| v != UNRESOLVED),
                "unresolved provisional key survived the merge"
            );
            st.res
        })
        .collect()
}

/// Conservative window bound: one lookahead past the head, clipped one
/// nanosecond past the (inclusive) run horizon.
fn window_bound(head: SimTime, lookahead: SimDuration, until: SimTime) -> SimTime {
    let horizon = SimTime::from_nanos(until.as_nanos().saturating_add(1));
    let bound = (head + lookahead).min(horizon);
    assert!(
        bound > head,
        "degenerate parallel window (event at SimTime::MAX)"
    );
    bound
}

impl<A, L> Simulation<A, L>
where
    A: Actor + Send,
    A::Msg: Send,
    L: LatencyModel + Sync,
{
    /// Opts this simulation into the sharded parallel driver.
    ///
    /// `threads` is the worker budget (1 keeps the sequential path);
    /// `site_of` maps every actor to its site (shard = site mod workers,
    /// so same-site actors always share a shard); `lookahead` must be a
    /// lower bound on the network delay between any two *distinct* sites
    /// — typically [`min inter-site latency`](LatencyModel) from the
    /// latency matrix.
    ///
    /// Same-seed runs produce byte-identical records, traces, stats, and
    /// event counts at any thread count. Attaching a [`Scheduler`]
    /// forces the sequential path regardless of `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or `lookahead` is zero. Runs panic later
    /// if the latency model cannot provide deterministic (jitter-free)
    /// delays, if an actor touches [`Context::rng`] or
    /// [`Context::halt`], or if `site_of` does not cover every actor.
    pub fn enable_parallel(&mut self, threads: usize, site_of: Vec<u16>, lookahead: SimDuration) {
        assert!(threads >= 1, "thread budget must be at least 1");
        assert!(
            lookahead > SimDuration::ZERO,
            "parallel lookahead must be positive"
        );
        self.threads = threads;
        self.par = Some(ParShards { site_of, lookahead });
        self.par_driver = Some(Self::run_until_parallel);
    }

    /// Builder form of [`Simulation::enable_parallel`].
    pub fn with_threads(
        mut self,
        threads: usize,
        site_of: Vec<u16>,
        lookahead: SimDuration,
    ) -> Self {
        self.enable_parallel(threads, site_of, lookahead);
        self
    }

    /// The parallel driver behind [`Simulation::run_until`]: windowed
    /// execute-in-parallel / commit-in-order (see the module docs).
    fn run_until_parallel(&mut self, until: SimTime) -> SimTime {
        let (workers, lookahead) = {
            let par = self.par.as_ref().expect("driver requires shard config");
            assert_eq!(
                par.site_of.len(),
                self.actors.len(),
                "parallel site map covers {} actors but the simulation has {}",
                par.site_of.len(),
                self.actors.len()
            );
            let nsites = par
                .site_of
                .iter()
                .map(|s| *s as usize + 1)
                .max()
                .unwrap_or(0);
            (self.threads.min(nsites), par.lookahead)
        };
        if workers < 2 {
            return self.run_until_seq(until);
        }
        self.ensure_started();
        if self.halted {
            return self.time;
        }
        let shard_of: Vec<u16> = {
            let par = self.par.as_ref().expect("checked above");
            par.site_of.iter().map(|s| s % workers as u16).collect()
        };

        // Split the simulation: the coordinator keeps the clock, the
        // sequence counter, the global queue, stats and the obs sink;
        // each worker owns its shard's actor slots for the scope.
        let Simulation {
            ref mut time,
            ref mut seq,
            ref mut queue,
            ref mut actors,
            ref latency,
            ref mut stats,
            ref mut obs,
            obs_causal,
            ..
        } = *self;
        let obs_attached = obs.is_some();

        let mut slot_loc: Vec<u32> = vec![0; actors.len()];
        let mut parts: Vec<Vec<ShardSlot<'_, A>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, slot) in actors.iter_mut().enumerate() {
            let w = shard_of[i] as usize;
            slot_loc[i] = parts[w].len() as u32;
            parts[w].push(ShardSlot {
                // In-range by construction: spawn() checked the table size.
                pid: ProcessId(i as u32),
                slot,
            });
        }

        std::thread::scope(|scope| {
            let shard_of = &shard_of;
            let slot_loc = &slot_loc;
            let mut cmd_txs: Vec<Sender<Cmd<A::Msg>>> = Vec::with_capacity(workers);
            let mut out_rxs: Vec<Receiver<WindowOut<A::Msg>>> = Vec::with_capacity(workers);
            for (w, part) in parts.into_iter().enumerate() {
                let (cmd_tx, cmd_rx) = channel();
                let (out_tx, out_rx) = channel();
                let lat: &L = latency;
                scope.spawn(move || {
                    Shard::<A, L> {
                        wid: w as u16,
                        slots: part,
                        latency: lat,
                        shard_of,
                        slot_loc,
                        obs_attached,
                        heap: BinaryHeap::new(),
                        out: WindowOut::default(),
                        scratch: Vec::new(),
                        points: PointBuf(Vec::new()),
                        bound: SimTime::ZERO,
                        dirty: Vec::new(),
                    }
                    .serve(cmd_rx, out_tx)
                });
                cmd_txs.push(cmd_tx);
                out_rxs.push(out_rx);
            }

            let mut batches: Vec<Vec<SeedEv<A::Msg>>> = (0..workers).map(|_| Vec::new()).collect();
            loop {
                let head_time = match queue.peek() {
                    Some(head) => head.time,
                    None => {
                        if until != SimTime::MAX && until > *time {
                            *time = until;
                        }
                        break;
                    }
                };
                if head_time > until {
                    *time = until;
                    break;
                }
                let bound = window_bound(head_time, lookahead, until);
                while let Some(ev) = queue.peek() {
                    if ev.time >= bound {
                        break;
                    }
                    let ev = queue.pop().expect("peeked");
                    let target = event_target(&ev.kind);
                    batches[shard_of[target.index()] as usize].push(SeedEv {
                        time: ev.time,
                        key: ev.seq,
                        kind: ev.kind,
                    });
                }
                for (w, batch) in batches.iter_mut().enumerate() {
                    cmd_txs[w]
                        .send(Cmd::Window {
                            bound,
                            seeds: std::mem::take(batch),
                        })
                        .expect("worker channel closed");
                }
                let outs: Vec<WindowOut<A::Msg>> = out_rxs
                    .iter()
                    .map(|rx| rx.recv().expect("a shard worker panicked"))
                    .collect();
                let resolutions =
                    merge_window::<A::Msg>(outs, queue, seq, time, stats, obs, obs_causal);
                for (w, map) in resolutions.into_iter().enumerate() {
                    cmd_txs[w]
                        .send(Cmd::Resolve { map })
                        .expect("worker channel closed");
                }
            }
            // Closing the command channels lets the workers exit so the
            // scope can join them.
            drop(cmd_txs);
        });
        *time
    }
}
