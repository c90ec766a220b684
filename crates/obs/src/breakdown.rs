//! Per-experiment-point phase breakdown: where transaction time goes, how
//! many messages and bytes each commit costs, and why transactions abort.
//!
//! This is the analysis layer the G-DUR paper's evaluation narrative rests
//! on (§6): crossovers between protocols are explained by decomposing
//! latency into execution vs. termination, convoy effects show up as
//! certification-queue wait growing superlinearly toward the saturation
//! knee, and abort counts are partitioned by cause instead of a single
//! ratio.

use std::collections::BTreeMap;

use gdur_net::Topology;
use gdur_sim::{ObsEvent, SimTime};

use crate::event::{labels, AbortCause};
use crate::hist::Histogram;

/// A latency phase of the transaction lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Begin → submit: the execution protocol (reads + client think gaps).
    Execute,
    /// Certification-queue residence: enqueue → vote, maximum over the
    /// participating replicas (the convoy-effect phase).
    QueueWait,
    /// Submit → decide: the termination protocol end to end.
    Termination,
    /// Decide → last observed install: replication lag of the writes.
    InstallLag,
}

/// Traffic accounting for one message type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgFlow {
    /// Messages sent.
    pub count: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Messages that crossed a site boundary.
    pub wan_count: u64,
    /// Bytes that crossed a site boundary.
    pub wan_bytes: u64,
}

/// Everything aggregated from one traced run (or measurement window).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Transactions decided commit inside the window.
    pub committed: u64,
    /// Transactions decided abort inside the window.
    pub aborted: u64,
    /// Aborts by cause, indexed by [`AbortCause::code`]; sums to `aborted`.
    pub abort_causes: [u64; AbortCause::ALL.len()],
    /// Participant-side orphan discards (suspected-coordinator cleanup).
    /// Deliberately *not* part of the abort partition: the coordinator of
    /// an orphaned transaction is gone and never counted it as aborted.
    pub orphan_aborts: u64,
    /// Per-phase latencies in nanoseconds (one sample per committed txn).
    phases: [Histogram; 4],
    /// Certification queue depth, sampled at every enqueue.
    pub queue_depth: Histogram,
    /// Traffic per message-type label.
    pub msgs: BTreeMap<&'static str, MsgFlow>,
}

/// Per-transaction scratch state while folding the event stream.
#[derive(Debug, Clone, Default)]
struct TxTrace {
    begin: Option<SimTime>,
    submit: Option<SimTime>,
    decide: Option<(SimTime, bool)>,
    cause: Option<u64>,
    /// Outstanding enqueue instants, per replica actor.
    enq: BTreeMap<u32, SimTime>,
    /// Longest enqueue → vote residence observed (ns).
    queue_wait: u64,
    last_install: Option<SimTime>,
}

impl PhaseBreakdown {
    /// Folds a trace into a breakdown.
    ///
    /// Only transactions *decided* at or after `window_start` count (the
    /// harness passes the end of warm-up); queue-depth samples and message
    /// flows are likewise window-filtered. `topo` classifies sends as WAN
    /// when source and destination live on different sites.
    pub fn from_events(events: &[ObsEvent], topo: &Topology, window_start: SimTime) -> Self {
        let mut txs: BTreeMap<u64, TxTrace> = BTreeMap::new();
        let mut out = PhaseBreakdown::default();
        for ev in events {
            match *ev {
                ObsEvent::Point {
                    at,
                    actor,
                    label,
                    tx,
                    value,
                } => {
                    if label == labels::CERT_ORPHAN {
                        if at >= window_start {
                            out.orphan_aborts += 1;
                        }
                        continue;
                    }
                    let t = txs.entry(tx).or_default();
                    match label {
                        labels::TXN_BEGIN => t.begin = t.begin.or(Some(at)),
                        labels::TXN_SUBMIT => t.submit = t.submit.or(Some(at)),
                        labels::CERT_ENQUEUE => {
                            t.enq.insert(actor.0, at);
                            if at >= window_start {
                                out.queue_depth.record(value);
                            }
                        }
                        labels::TXN_VOTE => {
                            if let Some(enq) = t.enq.remove(&actor.0) {
                                t.queue_wait =
                                    t.queue_wait.max(at.saturating_since(enq).as_nanos());
                            }
                        }
                        labels::TXN_DECIDE => t.decide = t.decide.or(Some((at, value == 1))),
                        labels::TXN_ABORT => t.cause = t.cause.or(Some(value)),
                        labels::TXN_INSTALL => {
                            t.last_install = Some(t.last_install.map_or(at, |p| p.max(at)));
                        }
                        _ => {}
                    }
                }
                ObsEvent::Send {
                    at,
                    from,
                    to,
                    label,
                    bytes,
                    mid: _,
                } => {
                    if at < window_start {
                        continue;
                    }
                    let flow = out.msgs.entry(label).or_default();
                    flow.count += 1;
                    flow.bytes += bytes;
                    if topo.is_wan(from, to) {
                        flow.wan_count += 1;
                        flow.wan_bytes += bytes;
                    }
                }
                // Kernel causal events carry no phase information; the
                // span/attribution layer (`crate::span`, `crate::attrib`)
                // consumes them instead.
                ObsEvent::Deliver { .. }
                | ObsEvent::HandleStart { .. }
                | ObsEvent::HandleEnd { .. } => {}
            }
        }
        for t in txs.values() {
            let Some((decided_at, commit)) = t.decide else {
                continue; // still in flight when the run ended
            };
            if decided_at < window_start {
                continue;
            }
            if commit {
                out.committed += 1;
                if let (Some(b), Some(s)) = (t.begin, t.submit) {
                    out.phases[0].record(s.saturating_since(b).as_nanos());
                    out.phases[2].record(decided_at.saturating_since(s).as_nanos());
                }
                out.phases[1].record(t.queue_wait);
                if let Some(inst) = t.last_install {
                    out.phases[3].record(inst.saturating_since(decided_at).as_nanos());
                }
            } else {
                out.aborted += 1;
                let code = t.cause.unwrap_or(0).min(3) as usize;
                out.abort_causes[code] += 1;
            }
        }
        out
    }

    /// The latency histogram of `phase`, in nanoseconds.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        let idx = match phase {
            Phase::Execute => 0,
            Phase::QueueWait => 1,
            Phase::Termination => 2,
            Phase::InstallLag => 3,
        };
        &self.phases[idx]
    }

    /// Sum of the per-cause abort counters; equals `aborted` by
    /// construction.
    pub fn causes_sum(&self) -> u64 {
        self.abort_causes.iter().sum()
    }

    /// Aborts attributed to `cause`.
    pub fn aborts_for(&self, cause: AbortCause) -> u64 {
        self.abort_causes[cause.code() as usize]
    }

    /// Total messages sent inside the window, across all types.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.values().map(|f| f.count).sum()
    }

    /// Total WAN bytes sent inside the window, across all types.
    pub fn wan_bytes(&self) -> u64 {
        self.msgs.values().map(|f| f.wan_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdur_sim::ProcessId;
    use gdur_store::TxId;

    fn point(at_ns: u64, actor: u32, label: &'static str, tx: u64, value: u64) -> ObsEvent {
        ObsEvent::Point {
            at: SimTime::from_nanos(at_ns),
            actor: ProcessId(actor),
            label,
            tx,
            value,
        }
    }

    fn topo2() -> Topology {
        // Processes 0 and 1 (placed in order) land on distinct sites.
        let mut t = Topology::grid5000(2);
        t.place(gdur_net::SiteId(0));
        t.place(gdur_net::SiteId(1));
        t
    }

    #[test]
    fn phases_and_causes_partition() {
        let a = TxId::new(9, 1).code();
        let b = TxId::new(9, 2).code();
        let events = vec![
            point(0, 9, labels::TXN_BEGIN, a, 0),
            point(100, 9, labels::TXN_SUBMIT, a, 1),
            point(150, 1, labels::CERT_ENQUEUE, a, 3),
            point(250, 1, labels::TXN_VOTE, a, 1),
            point(300, 9, labels::TXN_DECIDE, a, 1),
            point(400, 1, labels::TXN_INSTALL, a, 1),
            // b aborts on a vote timeout.
            point(0, 9, labels::TXN_BEGIN, b, 0),
            point(50, 9, labels::TXN_SUBMIT, b, 1),
            point(500, 9, labels::TXN_DECIDE, b, 0),
            point(500, 9, labels::TXN_ABORT, b, AbortCause::VoteTimeout.code()),
            ObsEvent::Send {
                at: SimTime::from_nanos(120),
                mid: 1,
                from: ProcessId(0),
                to: ProcessId(1),
                label: "vote",
                bytes: 64,
            },
        ];
        let bd = PhaseBreakdown::from_events(&events, &topo2(), SimTime::ZERO);
        assert_eq!(bd.committed, 1);
        assert_eq!(bd.aborted, 1);
        assert_eq!(bd.causes_sum(), bd.aborted);
        assert_eq!(bd.aborts_for(AbortCause::VoteTimeout), 1);
        assert_eq!(bd.phase(Phase::Execute).quantile(1.0), 100);
        assert_eq!(bd.phase(Phase::QueueWait).quantile(1.0), 100);
        // 200 lands in the width-2 bucket [200, 201]; the quantile clamps
        // the bucket upper bound to the recorded maximum.
        assert_eq!(bd.phase(Phase::Termination).quantile(1.0), 200);
        assert_eq!(bd.phase(Phase::InstallLag).quantile(1.0), 100);
        assert_eq!(bd.queue_depth.max(), 3);
        let vote = bd.msgs["vote"];
        assert_eq!((vote.count, vote.wan_count, vote.wan_bytes), (1, 1, 64));
    }

    #[test]
    fn window_excludes_warmup_decisions() {
        let a = TxId::new(9, 1).code();
        let events = vec![
            point(0, 9, labels::TXN_BEGIN, a, 0),
            point(10, 9, labels::TXN_SUBMIT, a, 1),
            point(20, 9, labels::TXN_DECIDE, a, 1),
        ];
        let bd = PhaseBreakdown::from_events(&events, &topo2(), SimTime::from_nanos(1_000));
        assert_eq!(bd.committed, 0);
        assert_eq!(bd.aborted, 0);
    }

    #[test]
    fn orphans_stay_out_of_the_partition() {
        let a = TxId::new(9, 1).code();
        let events = vec![point(
            5,
            1,
            labels::CERT_ORPHAN,
            a,
            AbortCause::Crash.code(),
        )];
        let bd = PhaseBreakdown::from_events(&events, &topo2(), SimTime::ZERO);
        assert_eq!(bd.orphan_aborts, 1);
        assert_eq!(bd.aborted, 0);
        assert_eq!(bd.causes_sum(), 0);
    }
}
