//! Trace vocabulary: event labels, the abort-cause taxonomy, pooled
//! transaction sequences, and the shared in-memory trace sink.

use std::sync::{Arc, Mutex};

use gdur_sim::{ObsEvent, ObsSink};

/// The label vocabulary of the transaction lifecycle trace.
///
/// Every [`ObsEvent::Point`] emitted by the middleware carries one of these
/// labels; the `value` payload is label-specific and documented per constant.
pub mod labels {
    /// Coordinator accepted `Begin` (value: unused, always 0).
    pub const TXN_BEGIN: &str = "txn.begin";
    /// Coordinator issued a remote read (value: attempt number, 0-based).
    pub const TXN_READ_REMOTE: &str = "txn.read.remote";
    /// Coordinator submitted the transaction to commitment (value: number
    /// of certifying keys; 0 = wait-free commit).
    pub const TXN_SUBMIT: &str = "txn.submit";
    /// A replica enqueued the transaction into its certification queue
    /// (value: queue depth *after* the push — the convoy-effect sample).
    pub const CERT_ENQUEUE: &str = "cert.enqueue";
    /// A replica popped the transaction off its certification queue
    /// (value: queue depth after the pop).
    pub const CERT_DEQUEUE: &str = "cert.dequeue";
    /// A replica cast its certification vote (value: 1 = yes). The voter
    /// is the point's actor.
    pub const TXN_VOTE: &str = "txn.vote";
    /// The coordinator decided (value: 1 = commit).
    pub const TXN_DECIDE: &str = "txn.decide";
    /// The coordinator aborted (value: [`AbortCause::code`](super::AbortCause::code)).
    pub const TXN_ABORT: &str = "txn.abort";
    /// A replica installed the transaction's writes (value: writes applied).
    pub const TXN_INSTALL: &str = "txn.install";
    /// A participant discarded an undecided transaction of a suspected
    /// coordinator site (value: [`AbortCause::Crash`](super::AbortCause)'s
    /// code). Participant-side only — never part of the coordinator abort
    /// partition.
    pub const CERT_ORPHAN: &str = "cert.orphan";
    /// A scheduled kernel crash took effect (value: pending jobs discarded).
    /// Emitted by the kernel itself, re-exported here for trace consumers.
    pub const KERNEL_CRASH: &str = gdur_sim::KERNEL_CRASH;
    /// A scheduled kernel restart took effect (value: unused, always 0).
    pub const KERNEL_RESTART: &str = gdur_sim::KERNEL_RESTART;
    /// A restarted replica finished rebuilding from its write-ahead log
    /// (value: number of install records replayed).
    pub const RECOVERY_REPLAY: &str = "recovery.replay";
    /// The replay's charge, forked across the replica's cores, ends (value:
    /// virtual nanoseconds from the restart to the end of its last share —
    /// when the catch-up requests leave).
    pub const RECOVERY_REPLAYED: &str = "recovery.replayed";
    /// A restarted replica resumed §5.3 termination retransmission for a
    /// transaction that was mid-commit at the crash (value: certifying keys).
    pub const RECOVERY_RESUBMIT: &str = "recovery.resubmit";
    /// A recovering replica requested catch-up from a peer (value: number of
    /// partitions requested).
    pub const RECOVERY_CATCHUP_REQ: &str = "recovery.catchup.req";
    /// A recovering replica applied one page of catch-up state (value:
    /// install records applied from this page).
    pub const RECOVERY_CATCHUP_APPLY: &str = "recovery.catchup.apply";
    /// Catch-up finished: the replica adopted the peer's visibility frontier
    /// and serves reads again (value: total install records caught up).
    pub const RECOVERY_COMPLETE: &str = "recovery.complete";
}

/// Why a transaction aborted, attached to every aborted
/// `TxnRecord`/`ClientReply::Outcome`.
///
/// The four causes partition coordinator-side aborts: for every replica,
/// the per-cause counters sum exactly to its `aborted` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortCause {
    /// Certification failed: a conflicting transaction committed first
    /// (negative vote, preemptive 2PC abort, or local-decide rejection).
    CertificationConflict,
    /// The coordinator gave up waiting for votes (a participant crashed or
    /// was partitioned away; requires an armed vote timeout).
    VoteTimeout,
    /// The read phase could not complete: no reachable replica could serve
    /// a version admitted by the snapshot (version-selection failure or
    /// exhausted read failover).
    ReadImpossible,
    /// The process owning the transaction crashed mid-flight.
    Crash,
}

impl AbortCause {
    /// All causes, in `code()` order.
    pub const ALL: [AbortCause; 4] = [
        AbortCause::CertificationConflict,
        AbortCause::VoteTimeout,
        AbortCause::ReadImpossible,
        AbortCause::Crash,
    ];

    /// Stable numeric code, used as the `value` of `txn.abort` events.
    pub fn code(self) -> u64 {
        match self {
            AbortCause::CertificationConflict => 0,
            AbortCause::VoteTimeout => 1,
            AbortCause::ReadImpossible => 2,
            AbortCause::Crash => 3,
        }
    }

    /// Short stable label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::CertificationConflict => "cert_conflict",
            AbortCause::VoteTimeout => "vote_timeout",
            AbortCause::ReadImpossible => "read_impossible",
            AbortCause::Crash => "crash",
        }
    }
}

/// Bits of a pooled transaction sequence spent on the per-client local
/// counter; the remaining high bits of `gdur_store::TxId`'s 40-bit
/// sequence carry the client's index inside its pool.
pub const POOL_LOCAL_SEQ_BITS: u32 = 20;

/// Maximum clients one aggregated pool actor can address: the pool's
/// client index and each client's local sequence split `gdur_store::TxId`'s
/// 40-bit sequence 20/20, so a pool spans up to 2^20 (1,048,576) clients,
/// each issuing up to 2^20 transactions, without any trace-event collision.
pub const MAX_POOL_CLIENTS: u32 = 1 << POOL_LOCAL_SEQ_BITS;

/// Maximum transactions one pooled client can issue (its local sequence
/// starts at 1, so the all-zero low bits never collide with anything).
pub const MAX_POOL_LOCAL_SEQ: u64 = (1 << POOL_LOCAL_SEQ_BITS) - 1;

/// Packs a pooled client's `(index, local sequence)` into the sequence of
/// its transaction id: `(client << 20) | local_seq`.
///
/// The client index occupies the *high* bits on purpose: a pool's
/// transaction ids then order client-major.
///
/// # Panics
///
/// Panics — an explicit bounds error, never a silent truncation — if
/// `client >= MAX_POOL_CLIENTS` or `local_seq` is 0 or exceeds
/// [`MAX_POOL_LOCAL_SEQ`].
pub fn pool_seq(client: u32, local_seq: u64) -> u64 {
    assert!(
        client < MAX_POOL_CLIENTS,
        "pool client index {client} out of range (max {MAX_POOL_CLIENTS} clients per pool)"
    );
    assert!(
        (1..=MAX_POOL_LOCAL_SEQ).contains(&local_seq),
        "pooled client {client} exhausted its per-client sequence space \
         (local_seq={local_seq}, max {MAX_POOL_LOCAL_SEQ})"
    );
    ((client as u64) << POOL_LOCAL_SEQ_BITS) | local_seq
}

/// Inverse of [`pool_seq`]: splits a pooled transaction sequence back into
/// `(client index, local sequence)`.
pub fn pool_seq_parts(seq: u64) -> (u32, u64) {
    (
        (seq >> POOL_LOCAL_SEQ_BITS) as u32,
        seq & MAX_POOL_LOCAL_SEQ,
    )
}

/// A cloneable in-memory trace buffer.
///
/// Hand one clone to the simulation (via [`TraceHandle::sink`]) and keep
/// another to read the events back after the run. The mutex is uncontended —
/// a simulation is single-threaded — it only exists so the sink satisfies
/// the `Send` bound of [`ObsSink`].
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    events: Arc<Mutex<Vec<ObsEvent>>>,
    causal: bool,
}

impl TraceHandle {
    /// An empty trace buffer.
    pub fn new() -> Self {
        TraceHandle::default()
    }

    /// An empty trace buffer whose sinks opt into the kernel causal events
    /// (`Deliver`/`HandleStart`/`HandleEnd`) — the input of the span and
    /// attribution layers ([`crate::CausalIndex`]).
    pub fn causal() -> Self {
        TraceHandle {
            events: Arc::default(),
            causal: true,
        }
    }

    /// A boxed sink recording into this buffer, for
    /// `Simulation::attach_obs`.
    pub fn sink(&self) -> Box<dyn ObsSink> {
        Box::new(self.clone())
    }

    /// A copy of the events recorded so far, in emission order.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.lock().expect("trace lock").clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<ObsEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace lock"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// True if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ObsSink for TraceHandle {
    fn record(&mut self, ev: ObsEvent) {
        self.events.lock().expect("trace lock").push(ev);
    }

    fn wants_causal(&self) -> bool {
        self.causal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdur_sim::ProcessId;
    use gdur_store::TxId;

    #[test]
    fn cause_codes_roundtrip() {
        // `ALL` is in `code()` order: a `txn.abort` value indexes it.
        for c in AbortCause::ALL {
            assert_eq!(AbortCause::ALL[c.code() as usize], c);
        }
    }

    #[test]
    fn pool_seq_roundtrips_across_the_full_index_space() {
        for client in [0, 1, 999_999, MAX_POOL_CLIENTS - 1] {
            for local in [1, 2, MAX_POOL_LOCAL_SEQ] {
                assert_eq!(pool_seq_parts(pool_seq(client, local)), (client, local));
            }
        }
    }

    #[test]
    fn pool_seq_fits_the_tx_code_budget_without_collisions() {
        // The widest pooled sequence still round-trips through the trace
        // code: no pooled transaction can alias another coordinator's events.
        let widest = pool_seq(MAX_POOL_CLIENTS - 1, MAX_POOL_LOCAL_SEQ);
        let id = TxId::from_code(TxId::new(7, widest).code());
        assert_eq!((id.coord(), id.seq()), (7, widest));
        // Client-major ordering.
        assert!(pool_seq(1, MAX_POOL_LOCAL_SEQ) < pool_seq(2, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pool_seq_rejects_out_of_range_client_index() {
        let _ = pool_seq(MAX_POOL_CLIENTS, 1);
    }

    #[test]
    #[should_panic(expected = "exhausted its per-client sequence space")]
    fn pool_seq_rejects_exhausted_local_sequence() {
        let _ = pool_seq(0, MAX_POOL_LOCAL_SEQ + 1);
    }

    #[test]
    fn trace_handle_shares_events_across_clones() {
        let h = TraceHandle::new();
        let mut sink = h.sink();
        sink.record(ObsEvent::Point {
            at: gdur_sim::SimTime::ZERO,
            actor: ProcessId(1),
            label: labels::TXN_BEGIN,
            tx: TxId::new(1, 1).code(),
            value: 0,
        });
        assert_eq!(h.len(), 1);
        assert_eq!(h.take().len(), 1);
        assert!(h.is_empty());
    }
}
