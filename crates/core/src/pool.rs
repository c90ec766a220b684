//! The closed-loop client driver: one actor running N clients.
//!
//! The paper's load model is closed-loop client threads colocated with
//! each site's replica (§8.1). [`ClientPool`] is the only implementation
//! of it, and a deployment runs each site's clients as one pool actor:
//!
//! * per-client state lives in a flat `Vec<ClientSlot>` (workload source,
//!   private RNG, in-flight transaction) — state arrays, not actors;
//! * per-client deadlines (operation timeouts, think-time wake-ups) live
//!   in one actor-local [`TimerWheel`] keyed by virtual time; the pool arms
//!   at most **one** kernel timer, for the earliest wheel deadline;
//! * submissions go through the coordinator/`Replica` message paths — the
//!   replica cannot tell how its clients are grouped.
//!
//! ## Transaction identity
//!
//! A transaction id carries the *pool's* pid as its coordinator field
//! (replicas reply to the sender) and encodes the client inside the
//! sequence: `seq = (client_idx << 20) | local_seq` (see
//! [`gdur_obs::pool_seq`]); client 0 therefore numbers its transactions
//! 1, 2, 3, …. The split fits the 40-bit sequence of
//! [`gdur_store::TxId`], so replica-side lifecycle trace events stamp
//! transactions collision-free, and it puts the client index in the high
//! bits so ids order client-major. Both bounds are checked with explicit
//! panics ([`gdur_obs::MAX_POOL_CLIENTS`] clients per pool,
//! [`gdur_obs::MAX_POOL_LOCAL_SEQ`] transactions per client); nothing
//! truncates silently.
//!
//! ## Determinism
//!
//! Each slot's RNG and workload source are seeded from the global client
//! index, and a pool issues its begins in client-index order. Deadlines
//! are wheel entries, and a stale kernel fire pops nothing and draws no
//! randomness. `tests/tests/pool.rs` covers the late-Decide race and a
//! client restart.

use gdur_obs::{pool_seq_parts, AbortCause, MAX_POOL_CLIENTS};
use gdur_sim::{Context, ProcessId, SimDuration, SimTime, TimerWheel};
use gdur_store::Value;

use crate::client::{ClientSlot, TxnRecord};
use crate::messages::{ClientOp, ClientReply, Msg};
use crate::txn::TxSource;

/// Aggregate outcome counters of a pool, kept even when per-transaction
/// records are disabled (mega-scale sweeps cannot afford a `TxnRecord`
/// per transaction in memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounts {
    /// Transactions issued.
    pub issued: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted (any cause).
    pub aborted: u64,
    /// Aborts partitioned by [`AbortCause::code`].
    pub aborted_by_cause: [u64; 4],
    /// Sum of total latency (begin → outcome) over committed
    /// transactions, in nanoseconds.
    pub total_latency_nanos: u64,
}

impl PoolCounts {
    fn record(&mut self, rec: &TxnRecord) {
        if rec.committed {
            self.committed += 1;
            self.total_latency_nanos = self
                .total_latency_nanos
                .saturating_add(rec.total_latency().as_nanos());
        } else {
            self.aborted += 1;
            if let Some(c) = rec.cause {
                self.aborted_by_cause[c.code() as usize] += 1;
            }
        }
    }
}

/// One actor driving the closed loops of one or more colocated clients.
///
/// Built empty and populated with [`ClientPool::add_client`]. Each client
/// emulates one of the paper's client threads: it runs transactions
/// back-to-back (or paced by a think time), reading plans from its
/// [`TxSource`]. Updated values are fixed-size payloads cloned from one
/// shared buffer so allocation cost stays out of the measurement.
pub struct ClientPool {
    coordinator: ProcessId,
    value_proto: Value,
    max_txns: Option<u64>,
    op_timeout: Option<SimDuration>,
    /// Closed-loop think time between an outcome and the next begin
    /// (`None` = back-to-back). When set, initial begins are also
    /// staggered across one think interval so a million clients don't
    /// stampede the coordinator at t=0.
    think_time: Option<SimDuration>,
    record_txns: bool,
    me: Option<ProcessId>,
    slots: Vec<ClientSlot>,
    /// Site-local deadline wheel over client indices. An entry is always
    /// *live*: op-timeout entries are removed eagerly when the reply
    /// arrives, and a begin wake-up can only exist for an idle slot — so
    /// an entry's meaning is fully determined by its slot's state.
    wheel: TimerWheel<u32>,
    /// The single armed kernel timer: (deadline, kernel timer id). Armed
    /// lazily at the earliest wheel deadline; removals never re-arm (the
    /// stale fire pops nothing and re-arms), keeping kernel timer traffic
    /// at ~one arrival per timeout interval instead of one per operation.
    armed: Option<(SimTime, u64)>,
    /// Scratch buffer reused across timer fires (no per-fire allocation).
    due: Vec<(SimTime, u32)>,
    /// The finished transactions' records, in decide order, each as
    /// [`TxnRecord::encode`] writes it: about half their size as structs.
    records: Vec<u8>,
    /// How many records `records` holds.
    recorded: usize,
    counts: PoolCounts,
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPool")
            .field("coordinator", &self.coordinator)
            .field("clients", &self.slots.len())
            .field("issued", &self.counts.issued)
            .field("records", &self.recorded)
            .finish()
    }
}

impl ClientPool {
    /// Creates an empty pool whose clients send their transactions to
    /// `coordinator`, writing `value` as every payload (a shared prototype:
    /// each write clones a reference, not the bytes).
    pub fn new(coordinator: ProcessId, value: Value) -> Self {
        ClientPool {
            coordinator,
            value_proto: value,
            max_txns: None,
            op_timeout: None,
            think_time: None,
            record_txns: true,
            me: None,
            slots: Vec::new(),
            wheel: TimerWheel::new(),
            armed: None,
            due: Vec::new(),
            records: Vec::new(),
            recorded: 0,
            counts: PoolCounts::default(),
        }
    }

    /// Bounds the number of transactions each pooled client issues.
    pub fn with_max_txns(mut self, max: u64) -> Self {
        self.max_txns = Some(max);
        self
    }

    /// Abandon operations unanswered for `t` (recorded as a crash abort)
    /// instead of blocking that client's closed loop forever.
    pub fn with_op_timeout(mut self, t: SimDuration) -> Self {
        self.op_timeout = Some(t);
        self
    }

    /// Pace each client's closed loop: wait `t` between an outcome and
    /// the next begin, and stagger the initial begins across one `t`
    /// interval (deterministically, by client index).
    pub fn with_think_time(mut self, t: SimDuration) -> Self {
        self.think_time = Some(t);
        self
    }

    /// Disables per-transaction [`TxnRecord`] collection, keeping only the
    /// aggregate [`PoolCounts`] — mandatory hygiene for million-client
    /// sweeps where a record per transaction would dominate memory.
    pub fn with_txn_records(mut self, record: bool) -> Self {
        self.record_txns = record;
        self
    }

    /// Adds one client with its workload `source` and RNG `seed`; returns
    /// the client's index inside the pool.
    ///
    /// # Panics
    ///
    /// Panics (an explicit bounds error) once the pool reaches
    /// [`MAX_POOL_CLIENTS`] clients — the client-index half of the pooled
    /// sequence space is exhausted and a second pool actor is needed.
    pub fn add_client(&mut self, source: Box<dyn TxSource + Send>, seed: u64) -> u32 {
        assert!(
            self.slots.len() < MAX_POOL_CLIENTS as usize,
            "pool is full: {} clients is the per-pool maximum (20-bit \
             client-index space); spawn a second pool for this site",
            MAX_POOL_CLIENTS
        );
        let idx = self.slots.len() as u32;
        self.slots.push(ClientSlot::new(source, seed));
        idx
    }

    /// Number of clients in the pool.
    pub fn clients(&self) -> usize {
        self.slots.len()
    }

    /// Aggregate outcome counters (always maintained).
    pub fn counts(&self) -> PoolCounts {
        self.counts
    }

    /// Finished-transaction records across all pooled clients, in decide
    /// order (empty when record collection is disabled), decoded as they
    /// are walked.
    pub fn records(&self) -> impl ExactSizeIterator<Item = TxnRecord> + '_ {
        let mut rest = self.records.as_slice();
        (0..self.recorded).map(move |_| TxnRecord::decode(&mut rest))
    }

    fn finish(&mut self, idx: u32, at: SimTime, committed: bool, cause: Option<AbortCause>) {
        let rec = self.slots[idx as usize].finish(at, committed, cause);
        self.counts.record(&rec);
        if self.record_txns {
            rec.encode(&mut self.records);
            self.recorded += 1;
        }
    }

    /// Opens `idx`'s next transaction and sends its `Begin`.
    fn begin(&mut self, ctx: &mut Context<'_, Msg>, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if slot.exhausted(self.max_txns) {
            return;
        }
        let me = self.me.expect("pool started");
        let tx = slot.open(ctx.now(), me.0, idx);
        self.counts.issued += 1;
        ctx.send(
            self.coordinator,
            Msg::Client {
                tx,
                op: ClientOp::Begin,
            },
        );
        self.arm_op_deadline(ctx, idx);
    }

    /// Schedules `idx`'s next begin, either immediately (no think time)
    /// or through the wheel after the think interval.
    fn begin_after_think(&mut self, ctx: &mut Context<'_, Msg>, idx: u32) {
        match self.think_time {
            None => self.begin(ctx, idx),
            Some(t) => {
                if self.slots[idx as usize].exhausted(self.max_txns) {
                    return;
                }
                self.wheel.insert(ctx.now() + t, idx);
                self.ensure_armed(ctx);
            }
        }
    }

    fn arm_op_deadline(&mut self, ctx: &mut Context<'_, Msg>, idx: u32) {
        let Some(t) = self.op_timeout else {
            return;
        };
        let at = ctx.now() + t;
        let slot = &mut self.slots[idx as usize];
        if let Some(r) = slot.current.as_mut() {
            // At most one live deadline per in-flight op: disarm the
            // previous op's entry before arming the next.
            if let Some(prev) = r.wheel_deadline.take() {
                self.wheel.remove(prev, &idx);
            }
            r.wheel_deadline = Some(at);
            self.wheel.insert(at, idx);
        }
        self.ensure_armed(ctx);
    }

    /// Disarms `idx`'s op deadline (its reply arrived). The armed kernel
    /// timer is deliberately left alone: firing stale is one cheap no-op
    /// event per timeout interval, vs one cancel+re-arm per operation.
    fn cancel_op_deadline(&mut self, idx: u32) {
        if let Some(r) = self.slots[idx as usize].current.as_mut() {
            if let Some(at) = r.wheel_deadline.take() {
                self.wheel.remove(at, &idx);
            }
        }
    }

    /// Arms the single kernel timer at the earliest wheel deadline if it
    /// is earlier than (or replaces) whatever is currently armed.
    fn ensure_armed(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(next) = self.wheel.next_deadline() else {
            return;
        };
        match self.armed {
            Some((at, _)) if at <= next => {}
            prev => {
                if let Some((_, id)) = prev {
                    ctx.cancel_timer(id);
                }
                let id = ctx.set_timer(next.saturating_since(ctx.now()), 0);
                self.armed = Some((next, id));
            }
        }
    }

    fn send_next_op(&mut self, ctx: &mut Context<'_, Msg>, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        let tx = slot.current.as_ref().expect("running").tx;
        let op = slot.next_wire_op(ctx.now(), &self.value_proto);
        ctx.send(self.coordinator, Msg::Client { tx, op });
        self.arm_op_deadline(ctx, idx);
    }

    /// Starts (or restarts) every idle client's closed loop.
    pub fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.me = Some(ctx.self_id());
        let n = self.slots.len() as u32;
        for idx in 0..n {
            match self.think_time {
                // Back-to-back mode: begin everything now, in client-index
                // order.
                None => self.begin(ctx, idx),
                // Paced mode: stagger initial begins across one think
                // interval so begins arrive uniformly, not as a stampede.
                Some(t) => {
                    if self.slots[idx as usize].exhausted(self.max_txns) {
                        continue;
                    }
                    let offset = SimDuration::from_nanos(
                        (t.as_nanos() / u64::from(n.max(1))) * u64::from(idx),
                    );
                    self.wheel.insert(ctx.now() + offset, idx);
                }
            }
        }
        self.ensure_armed(ctx);
    }

    /// A restart models the client machine rebooting: volatile
    /// deadlines are gone (the kernel discarded its timers), every
    /// in-flight transaction is abandoned as a crash abort, and each
    /// client's closed loop resumes from its next sequence number.
    pub fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.wheel.clear();
        self.armed = None;
        for idx in 0..self.slots.len() as u32 {
            if self.slots[idx as usize].current.is_some() {
                let now = ctx.now();
                self.finish(idx, now, false, Some(AbortCause::Crash));
            }
        }
        self.on_start(ctx);
    }

    pub fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ProcessId, msg: Msg) {
        let Msg::Reply { tx, reply } = msg else {
            return; // client pools only understand replies
        };
        let me = self.me.expect("pool started");
        if tx.coord() != me.0 {
            return; // not a transaction of this pool
        }
        let (idx, _) = pool_seq_parts(tx.seq());
        let Some(slot) = self.slots.get(idx as usize) else {
            return; // unknown client index: treat like any stale reply
        };
        match slot.current.as_ref() {
            Some(r) if r.tx == tx => {}
            // Stale reply from a past transaction of this client (e.g. a
            // decision that lost the race against the op timeout) — the
            // transaction is already recorded exactly once; drop it.
            _ => return,
        }
        self.cancel_op_deadline(idx);
        match reply {
            ClientReply::Began | ClientReply::ReadDone { .. } | ClientReply::UpdateDone { .. } => {
                self.send_next_op(ctx, idx);
            }
            ClientReply::Outcome { committed, cause } => {
                let now = ctx.now();
                self.finish(idx, now, committed, cause);
                self.begin_after_think(ctx, idx);
            }
        }
    }

    /// The single pool timer fired: pop every due wheel entry and act on
    /// it — an in-flight slot is a per-operation timeout (crash-abort and
    /// move on), an idle slot is a think-time wake-up (begin). Then re-arm
    /// for the new earliest deadline.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: u64) {
        self.armed = None;
        let now = ctx.now();
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.wheel.pop_due(now, &mut due);
        for &(at, idx) in &due {
            match self.slots[idx as usize].current.as_ref() {
                Some(r) if r.wheel_deadline == Some(at) => {
                    // Operation timeout: the coordinator went silent.
                    self.slots[idx as usize]
                        .current
                        .as_mut()
                        .expect("checked above")
                        .wheel_deadline = None;
                    self.finish(idx, now, false, Some(AbortCause::Crash));
                    self.begin_after_think(ctx, idx);
                }
                Some(_) => {} // superseded deadline of a still-running txn
                None => self.begin(ctx, idx), // think-time wake-up
            }
        }
        self.due = due;
        self.ensure_armed(ctx);
    }
}

#[cfg(test)]
mod tests {
    use gdur_store::TxId;

    use super::*;

    /// The pool's record arena against the layout it replaced, a
    /// `Vec<TxnRecord>`: every field at its extremes, every cause, a
    /// transaction that never submitted, an outcome an hour late, and
    /// instants whose deltas wrap.
    #[test]
    fn the_record_arena_round_trips_against_a_vector_of_records() {
        let (max, hour) = (u64::MAX, 3_600_000_000_000);
        // (tx word, started, submitted, decided, committed, read-only, cause)
        let mut cases = vec![
            (max, 0, 0, 0, true, true, None),
            (0, max, max, max, true, false, None),
            // Never submitted: `submitted_at` stays at the start.
            (
                TxId::new(7, 3).code(),
                5,
                5,
                9,
                false,
                true,
                Some(AbortCause::Crash),
            ),
            // Decided an hour late.
            (TxId::new(7, 4).code(), 10, 20, 20 + hour, true, false, None),
            // Instants out of order: the deltas wrap.
            (TxId::new(1, 1).code(), max, 3, 0, false, false, None),
            (TxId::new(1, 2).code(), 1 << 40, 1, max, true, true, None),
        ];
        for (i, cause) in (0..).zip(AbortCause::ALL) {
            for read_only in [false, true] {
                let tx = TxId::new(TxId::MAX_COORD, TxId::MAX_SEQ - i).code();
                let t = 1_000_000 * i;
                cases.push((tx, t, t + hour, t + 2 * hour, false, read_only, Some(cause)));
            }
        }
        let at = SimTime::from_nanos;
        let want: Vec<TxnRecord> = (cases.into_iter())
            .map(|(tx, s, u, d, committed, read_only, cause)| TxnRecord {
                tx: TxId::from_code(tx),
                started_at: at(s),
                submitted_at: at(u),
                decided_at: at(d),
                committed,
                read_only,
                cause,
            })
            .collect();
        let mut pool = ClientPool::new(ProcessId(0), Value::empty());
        assert_eq!(pool.records().len(), 0);
        for rec in &want {
            rec.encode(&mut pool.records);
            pool.recorded += 1;
        }
        assert_eq!(pool.records().len(), want.len());
        assert_eq!(pool.records().collect::<Vec<_>>(), want);
        // Under seven tenths of the structs' bytes, even at these extremes.
        let structs = want.len() * std::mem::size_of::<TxnRecord>();
        assert!(
            pool.records.len() * 10 < structs * 7,
            "{} bytes",
            pool.records.len()
        );
    }
}
