//! Closed-loop client state: one [`ClientSlot`] plays transaction plans
//! against its coordinator replica and closes each into a [`TxnRecord`].
//!
//! A slot is per-client *state* only; the actor that sends its messages
//! and arms its deadlines is always a [`crate::ClientPool`] (of one slot
//! or of a whole site's).

use gdur_obs::{pool_seq, AbortCause};
use gdur_persist::codec::put_varint;
use gdur_sim::{SimDuration, SimTime};
use gdur_store::{TxId, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::messages::ClientOp;
use crate::replica::read_varint;
use crate::txn::{PlanOp, TxSource, TxnPlan};

/// Metrics of one finished transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnRecord {
    /// The transaction.
    pub tx: TxId,
    /// `begin` was sent at this instant.
    pub started_at: SimTime,
    /// `commit` was requested at this instant.
    pub submitted_at: SimTime,
    /// The outcome arrived at this instant.
    pub decided_at: SimTime,
    /// True if the transaction committed.
    pub committed: bool,
    /// True if the transaction wrote nothing.
    pub read_only: bool,
    /// Why the transaction aborted (`None` iff `committed`).
    pub cause: Option<AbortCause>,
}

// One per finished transaction of every client.
const _: () = assert!(std::mem::size_of::<TxnRecord>() <= 40);

impl TxnRecord {
    /// Termination latency: commit request → outcome (the paper's Figure 3
    /// metric for update transactions).
    pub fn termination_latency(&self) -> SimDuration {
        self.decided_at.saturating_since(self.submitted_at)
    }

    /// Full transaction latency: begin → outcome (Figure 4's metric).
    pub fn total_latency(&self) -> SimDuration {
        self.decided_at.saturating_since(self.started_at)
    }

    /// Appends the record to a pool's arena as LEB128 varints: the tx word,
    /// `started_at`, the wrapping deltas from it to `submitted_at` and from
    /// that to `decided_at`, and a flags value — committed in bit 0,
    /// read-only in bit 1, the cause's code plus one above them (0 for
    /// none), so one byte.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let (started, submitted, decided) = (
            self.started_at.as_nanos(),
            self.submitted_at.as_nanos(),
            self.decided_at.as_nanos(),
        );
        let cause = self.cause.map_or(0, |c| c.code() + 1);
        put_varint(out, self.tx.code());
        put_varint(out, started);
        put_varint(out, submitted.wrapping_sub(started));
        put_varint(out, decided.wrapping_sub(submitted));
        put_varint(
            out,
            u64::from(self.committed) | u64::from(self.read_only) << 1 | cause << 2,
        );
    }

    /// Reads back the record [`TxnRecord::encode`] wrote at the front of
    /// `bytes`, and steps over it.
    pub(crate) fn decode(bytes: &mut &[u8]) -> TxnRecord {
        let tx = TxId::from_code(read_varint(bytes));
        let started = read_varint(bytes);
        let submitted = started.wrapping_add(read_varint(bytes));
        let decided = submitted.wrapping_add(read_varint(bytes));
        let flags = read_varint(bytes);
        TxnRecord {
            tx,
            started_at: SimTime::from_nanos(started),
            submitted_at: SimTime::from_nanos(submitted),
            decided_at: SimTime::from_nanos(decided),
            committed: flags & 1 == 1,
            read_only: flags & 2 == 2,
            cause: (flags >> 2)
                .checked_sub(1)
                .map(|c| AbortCause::ALL[c as usize]),
        }
    }
}

/// The transaction a slot currently has in flight.
pub(crate) struct InFlight {
    pub(crate) tx: TxId,
    pub(crate) plan: TxnPlan,
    pub(crate) next_op: usize,
    pub(crate) started_at: SimTime,
    pub(crate) submitted_at: SimTime,
    pub(crate) read_only: bool,
    /// Armed op-timeout deadline in the owning pool's timer wheel (the
    /// wheel needs the exact instant back for O(log n) cancellation).
    pub(crate) wheel_deadline: Option<SimTime>,
}

/// One logical closed-loop client: its workload source, private RNG, and
/// in-flight transaction. Everything here is per-client *state*; sending
/// the messages and arming the timers is the owning pool's concern.
pub(crate) struct ClientSlot {
    pub(crate) source: Box<dyn TxSource + Send>,
    pub(crate) rng: SmallRng,
    pub(crate) issued: u64,
    pub(crate) next_seq: u64,
    pub(crate) current: Option<InFlight>,
}

impl ClientSlot {
    pub(crate) fn new(source: Box<dyn TxSource + Send>, seed: u64) -> Self {
        ClientSlot {
            source,
            rng: SmallRng::seed_from_u64(seed),
            issued: 0,
            next_seq: 0,
            current: None,
        }
    }

    /// True once the slot has issued its full budget.
    pub(crate) fn exhausted(&self, max_txns: Option<u64>) -> bool {
        matches!(max_txns, Some(max) if self.issued >= max)
    }

    /// Opens the next transaction of client `idx` of the pool `coord`:
    /// bumps the sequence, packs it into the [`TxId`], draws the plan, and
    /// installs it as the in-flight transaction. Returns the new id so the
    /// owner can send `Begin`.
    pub(crate) fn open(&mut self, now: SimTime, coord: u32, idx: u32) -> TxId {
        self.issued += 1;
        self.next_seq += 1;
        let tx = TxId::new(coord, pool_seq(idx, self.next_seq));
        let plan = self.source.next_plan(&mut self.rng);
        let read_only = plan.read_only();
        self.current = Some(InFlight {
            tx,
            plan,
            next_op: 0,
            started_at: now,
            submitted_at: now,
            read_only,
            wheel_deadline: None,
        });
        tx
    }

    /// The next operation to put on the wire — `Commit` once the plan is
    /// drained (stamping `submitted_at`), a read/update otherwise.
    pub(crate) fn next_wire_op(&mut self, now: SimTime, value_proto: &Value) -> ClientOp {
        let r = self.current.as_mut().expect("a transaction is running");
        if r.next_op == r.plan.ops.len() {
            r.submitted_at = now;
            return ClientOp::Commit;
        }
        let op = r.plan.ops[r.next_op].clone();
        r.next_op += 1;
        match op {
            PlanOp::Read(key) => ClientOp::Read { key },
            PlanOp::Update(key) => ClientOp::Update {
                key,
                value: value_proto.clone(),
            },
        }
    }

    /// Closes the in-flight transaction into a [`TxnRecord`].
    pub(crate) fn finish(
        &mut self,
        decided_at: SimTime,
        committed: bool,
        cause: Option<AbortCause>,
    ) -> TxnRecord {
        let r = self.current.take().expect("a transaction is running");
        TxnRecord {
            tx: r.tx,
            started_at: r.started_at,
            submitted_at: r.submitted_at,
            decided_at,
            committed,
            read_only: r.read_only,
            cause,
        }
    }
}
