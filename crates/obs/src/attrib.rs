//! Blame-assigned critical-path latency attribution.
//!
//! [`critical_path`] walks backwards through the causal graph from a
//! transaction's decide point to its begin point, following the chain of
//! handlers that actually produced the decision: the decide handler, the
//! message that triggered it, the handler that sent that message, its
//! certification queue residence, and so on. The walk emits *contiguous*
//! time segments — each ends exactly where the next begins — so the
//! per-transaction segment durations sum EXACTLY to the measured commit
//! latency. Every nanosecond is attributed to exactly one [`Blame`]:
//!
//! - [`Blame::Network`] — wire time plus artificial delay between a
//!   sender's service end and the message's delivery.
//! - [`Blame::Queue`] — residence in a replica's certification queue
//!   between enqueue and the vote handler's service start (the convoy
//!   effect).
//! - [`Blame::Service`] — handler CPU on replicas, including the
//!   cpu-pending gap between a delivery and its service start.
//! - [`Blame::Think`] — the same intervals when they fall on client
//!   actors (closed-loop clients with zero think time contribute ~0).
//! - [`Blame::Straggler`] — unchainable waits: the coordinator sat on a
//!   quorum until the last vote (or a timer) unblocked it, so the gap back
//!   to the previous transaction event is the straggler's fault. The
//!   packed [`labels::TXN_VOTE`] payload ([`crate::vote_parts`]) names the
//!   replica whose vote closed the quorum.
//!
//! [`Attribution`] aggregates the walks of all committed transactions in a
//! measurement window into a per-protocol table; rendering uses integer
//! arithmetic only, so same-seed runs produce byte-identical tables.

use std::collections::BTreeSet;

use gdur_sim::{trigger, ObsEvent, ProcessId, SimTime};

use crate::event::labels;
use crate::span::CausalIndex;

/// Who a critical-path segment blames. See the module docs for the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Blame {
    /// Wire time + artificial delay of a followed message hop.
    Network,
    /// Quorum/unchainable wait ended by the last vote or a timer.
    Straggler,
    /// Certification-queue residence on a replica.
    Queue,
    /// Handler service (and cpu-pending) on a replica.
    Service,
    /// Handler service (and cpu-pending) on a client actor.
    Think,
}

impl Blame {
    /// All blames, in table order.
    pub const ALL: [Blame; 5] = [
        Blame::Network,
        Blame::Straggler,
        Blame::Queue,
        Blame::Service,
        Blame::Think,
    ];

    /// Stable index into per-blame arrays.
    pub fn index(self) -> usize {
        match self {
            Blame::Network => 0,
            Blame::Straggler => 1,
            Blame::Queue => 2,
            Blame::Service => 3,
            Blame::Think => 4,
        }
    }

    /// Short stable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Blame::Network => "network",
            Blame::Straggler => "straggler",
            Blame::Queue => "cert-queue",
            Blame::Service => "service",
            Blame::Think => "client-think",
        }
    }
}

/// One contiguous interval of a transaction's critical path.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Interval start.
    pub from: SimTime,
    /// Interval end (`> from`; zero-width segments are never emitted).
    pub to: SimTime,
    /// Who this interval blames.
    pub blame: Blame,
    /// What the walk was doing (`"service"`, `"hop"`, `"cpu-pending"`,
    /// `"cert-queue"`, `"quorum-wait"`); diagnostic only.
    pub note: &'static str,
}

impl Segment {
    /// Segment duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.to.saturating_since(self.from).as_nanos()
    }
}

/// The blame-assigned critical path of one committed transaction.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The transaction's code (`gdur_store::TxId::code`).
    pub tx: u64,
    /// Measured begin → decide latency in nanoseconds.
    pub latency_ns: u64,
    /// Contiguous segments in chronological order; their durations sum to
    /// exactly `latency_ns`.
    pub segments: Vec<Segment>,
    /// The replica whose vote closed the quorum (from the decide handler's
    /// triggering message), if the decision was message-triggered.
    pub last_voter: Option<ProcessId>,
}

impl CriticalPath {
    /// Sum of all segment durations — equals [`CriticalPath::latency_ns`]
    /// by construction (the walk emits contiguous, clamped segments).
    pub fn attributed_ns(&self) -> u64 {
        self.segments.iter().map(Segment::duration_ns).sum()
    }

    /// Per-blame nanoseconds, indexed by [`Blame::index`].
    pub fn blame_ns(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for s in &self.segments {
            out[s.blame.index()] += s.duration_ns();
        }
        out
    }
}

/// Walks transaction `tx`'s critical path from decide back to begin.
///
/// Returns `None` when the transaction did not both begin and decide inside
/// the trace, or when the trace carries no causal events (a non-causal
/// trace has no handler brackets to follow).
///
/// `clients` names the client actors: service time on them is blamed
/// [`Blame::Think`] instead of [`Blame::Service`].
pub fn critical_path(
    events: &[ObsEvent],
    ix: &CausalIndex,
    clients: &BTreeSet<ProcessId>,
    tx: u64,
) -> Option<CriticalPath> {
    let pts = ix.tx_points.get(&tx)?;
    let mut begin: Option<SimTime> = None;
    let mut decide: Option<(usize, SimTime)> = None;
    for &pi in pts {
        if let ObsEvent::Point { at, label, .. } = events[pi] {
            match label {
                labels::TXN_BEGIN if begin.is_none() => begin = Some(at),
                labels::TXN_DECIDE if decide.is_none() => decide = Some((pi, at)),
                _ => {}
            }
        }
    }
    let begin = begin?;
    let (d_idx, d_at) = decide?;
    let dh = ix.emitter_of(d_idx)?;

    // The decide handler's trigger names the vote that closed the quorum —
    // but only when a *replica* sent it (a decision triggered straight by a
    // client's submit message is a fast local decide, not a quorum close).
    let last_voter = match ix.handlers[dh].trigger {
        trigger::MSG => ix
            .sends
            .get(&ix.handlers[dh].mid)
            .map(|s| s.from)
            .filter(|f| !clients.contains(f)),
        _ => None,
    };

    // Backward walk. Invariants: `cursor >= handlers[h].start` at every
    // loop top, and `h` strictly decreases each iteration (each rule moves
    // to an earlier handler in the single-threaded event stream), so the
    // walk terminates. Segments are emitted back-to-back — each new
    // segment ends where the previous one started — which is what makes
    // the attributed sum exact.
    let mut segs: Vec<Segment> = Vec::new();
    let mut cursor = d_at;
    let mut h = dh;
    loop {
        let hr = &ix.handlers[h];
        let svc = if clients.contains(&hr.actor) {
            Blame::Think
        } else {
            Blame::Service
        };
        if hr.start <= begin {
            push(&mut segs, begin, begin, cursor, svc, "service");
            break;
        }
        // The tail of this handler's service, up to wherever the forward
        // chain resumed.
        push(&mut segs, begin, hr.start, cursor, svc, "service");
        cursor = hr.start;

        // Rule 1 — certification queue: if this handler cast the tx's
        // vote, charge the gap back to the enqueue handler as queue
        // residence (the dequeue may have happened in a later batch or a
        // timer poll; the enqueue bracket is the causal anchor either way).
        if let Some(e) = vote_enqueue_handler(events, ix, tx, h) {
            push(
                &mut segs,
                begin,
                ix.handlers[e].end,
                cursor,
                Blame::Queue,
                "cert-queue",
            );
            cursor = ix.handlers[e].end;
            h = e;
            continue;
        }

        // Rule 2 — follow the triggering message: delivery → service start
        // is cpu-pending on the destination, sender service end → delivery
        // is the network hop.
        if hr.trigger == trigger::MSG {
            if let Some(s) = ix.sends.get(&hr.mid) {
                if let (Some(em), Some(d)) = (s.emitter, s.delivered) {
                    if em < h {
                        push(&mut segs, begin, d, cursor, svc, "cpu-pending");
                        let em_end = ix.handlers[em].end;
                        push(
                            &mut segs,
                            begin,
                            em_end,
                            d.min(cursor),
                            Blame::Network,
                            "hop",
                        );
                        cursor = em_end;
                        h = em;
                        continue;
                    }
                }
            }
        }

        // Rule 3 — re-anchor: the trigger is unchainable (a timer poll, a
        // start job, or a message whose chain left the trace window). The
        // handler was *unblocked* here after sitting on partial state, so
        // the gap back to the transaction's latest earlier event is the
        // straggler's fault.
        match latest_tx_point_before(events, ix, tx, cursor, h) {
            Some((p_at, ph)) => {
                let blame = if clients.contains(&ix.handlers[h].actor) {
                    Blame::Think
                } else {
                    Blame::Straggler
                };
                push(&mut segs, begin, p_at, cursor, blame, "quorum-wait");
                cursor = p_at;
                h = ph;
            }
            None => {
                push(
                    &mut segs,
                    begin,
                    begin,
                    cursor,
                    Blame::Straggler,
                    "quorum-wait",
                );
                break;
            }
        }
    }
    segs.reverse();
    Some(CriticalPath {
        tx,
        latency_ns: d_at.saturating_since(begin).as_nanos(),
        segments: segs,
        last_voter,
    })
}

/// Emits `[from, to]` clamped to start no earlier than `begin`; zero-width
/// segments are skipped (contiguity is preserved because the caller always
/// continues from `from`).
fn push(
    segs: &mut Vec<Segment>,
    begin: SimTime,
    from: SimTime,
    to: SimTime,
    blame: Blame,
    note: &'static str,
) {
    let from = from.max(begin);
    let to = to.max(begin);
    if to > from {
        segs.push(Segment {
            from,
            to,
            blame,
            note,
        });
    }
}

/// If handler `h` cast `tx`'s vote, the handler that enqueued `tx` into
/// the same replica's certification queue — the backward jump target of
/// the cert-queue rule.
fn vote_enqueue_handler(events: &[ObsEvent], ix: &CausalIndex, tx: u64, h: usize) -> Option<usize> {
    let hr = &ix.handlers[h];
    let voted = hr.points.iter().any(|&pi| {
        matches!(events[pi], ObsEvent::Point { label, tx: ptx, .. }
            if label == labels::TXN_VOTE && ptx == tx)
    });
    if !voted {
        return None;
    }
    for &pi in ix.tx_points.get(&tx)? {
        if let ObsEvent::Point { label, actor, .. } = events[pi] {
            if label == labels::CERT_ENQUEUE && actor == hr.actor {
                let e = ix.emitter_of(pi)?;
                if e != h && e < h && ix.handlers[e].end <= hr.start {
                    return Some(e);
                }
            }
        }
    }
    None
}

/// The latest `tx`-scoped point strictly before `cursor` emitted by a
/// handler earlier than `h` (max time, ties broken towards the later event)
/// — the re-anchor target when the chain breaks.
fn latest_tx_point_before(
    events: &[ObsEvent],
    ix: &CausalIndex,
    tx: u64,
    cursor: SimTime,
    h: usize,
) -> Option<(SimTime, usize)> {
    let mut best: Option<(SimTime, usize)> = None;
    for &pi in ix.tx_points.get(&tx)? {
        let ObsEvent::Point { at, .. } = events[pi] else {
            continue;
        };
        if at >= cursor {
            continue;
        }
        let Some(ph) = ix.emitter_of(pi) else {
            continue;
        };
        if ph >= h {
            continue;
        }
        if best.is_none_or(|(b_at, _)| at >= b_at) {
            best = Some((at, ph));
        }
    }
    best
}

/// Aggregated critical-path attribution over a measurement window.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Committed transactions attributed.
    pub txns: u64,
    /// Total critical-path (= commit latency) nanoseconds.
    pub total_ns: u64,
    /// Per-blame nanoseconds, indexed by [`Blame::index`].
    pub blame_ns: [u64; 5],
    /// How often each replica's vote closed a quorum (last-voter counts).
    pub stragglers: std::collections::BTreeMap<u32, u64>,
}

impl Attribution {
    /// Folds one transaction's walk into the aggregate.
    pub fn add(&mut self, cp: &CriticalPath) {
        self.txns += 1;
        self.total_ns += cp.latency_ns;
        for (acc, add) in self.blame_ns.iter_mut().zip(cp.blame_ns()) {
            *acc += add;
        }
        if let Some(v) = cp.last_voter {
            *self.stragglers.entry(v.0).or_insert(0) += 1;
        }
    }

    /// Walks every transaction that committed (`txn.decide` with value 1)
    /// at or after `window_start` and aggregates the attributions.
    pub fn collect(
        events: &[ObsEvent],
        ix: &CausalIndex,
        clients: &BTreeSet<ProcessId>,
        window_start: SimTime,
    ) -> Attribution {
        let mut out = Attribution::default();
        for (&tx, pts) in &ix.tx_points {
            let committed_in_window = pts.iter().any(|&pi| {
                matches!(events[pi], ObsEvent::Point { at, label, value, .. }
                    if label == labels::TXN_DECIDE && value == 1 && at >= window_start)
            });
            if !committed_in_window {
                continue;
            }
            if let Some(cp) = critical_path(events, ix, clients, tx) {
                out.add(&cp);
            }
        }
        out
    }

    /// Per-blame share in basis points (1/100th of a percent); integer
    /// math only, so tables are byte-stable across same-seed runs.
    pub fn share_bp(&self, b: Blame) -> u64 {
        (self.blame_ns[b.index()] * 10_000)
            .checked_div(self.total_ns)
            .unwrap_or(0)
    }

    /// Top `n` last-voter replicas, by count descending then pid ascending.
    pub fn top_stragglers(&self, n: usize) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.stragglers.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

/// Renders per-protocol attribution tables as fixed-width text. Integer
/// arithmetic only: same-seed runs render byte-identical tables.
pub fn render_attribution_text(rows: &[(String, Attribution)]) -> String {
    let mut out = String::new();
    out.push_str("critical-path latency attribution (committed txns)\n");
    for (name, a) in rows {
        out.push_str(&format!(
            "\nprotocol {name}: txns={} total_ns={}\n",
            a.txns, a.total_ns
        ));
        for b in Blame::ALL {
            let bp = a.share_bp(b);
            out.push_str(&format!(
                "  {:<12} {:>14} ns  {:>3}.{:02}%\n",
                b.label(),
                a.blame_ns[b.index()],
                bp / 100,
                bp % 100
            ));
        }
        let attributed: u64 = a.blame_ns.iter().sum();
        out.push_str(&format!("  {:<12} {:>14} ns\n", "attributed", attributed));
        let top = a.top_stragglers(3);
        if !top.is_empty() {
            out.push_str("  last-voter  ");
            for (i, (pid, n)) in top.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("p{pid} x{n}"));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::vote_value;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// Coordinator p0 begins+submits (handler 0), sends cert to p1;
    /// p1 enqueues (handler 1); a later timer poll dequeues and votes
    /// (handler 2), sending the vote back; p0 decides (handler 3).
    fn stream() -> Vec<ObsEvent> {
        vec![
            ObsEvent::HandleStart {
                at: t(0),
                actor: p(0),
                mid: 100,
                trigger: trigger::MSG,
            },
            ObsEvent::Point {
                at: t(0),
                actor: p(0),
                label: labels::TXN_BEGIN,
                tx: 7,
                value: 0,
            },
            ObsEvent::Point {
                at: t(0),
                actor: p(0),
                label: labels::TXN_SUBMIT,
                tx: 7,
                value: 1,
            },
            ObsEvent::Send {
                at: t(20),
                mid: 1,
                from: p(0),
                to: p(1),
                label: "cert",
                bytes: 64,
            },
            ObsEvent::HandleEnd {
                at: t(20),
                actor: p(0),
                mid: 100,
            },
            ObsEvent::Deliver {
                at: t(120),
                mid: 1,
                to: p(1),
            },
            ObsEvent::HandleStart {
                at: t(120),
                actor: p(1),
                mid: 1,
                trigger: trigger::MSG,
            },
            ObsEvent::Point {
                at: t(120),
                actor: p(1),
                label: labels::CERT_ENQUEUE,
                tx: 7,
                value: 1,
            },
            ObsEvent::HandleEnd {
                at: t(130),
                actor: p(1),
                mid: 1,
            },
            ObsEvent::HandleStart {
                at: t(200),
                actor: p(1),
                mid: 2,
                trigger: trigger::TIMER,
            },
            ObsEvent::Point {
                at: t(200),
                actor: p(1),
                label: labels::CERT_DEQUEUE,
                tx: 7,
                value: 0,
            },
            ObsEvent::Point {
                at: t(200),
                actor: p(1),
                label: labels::TXN_VOTE,
                tx: 7,
                value: vote_value(p(1), true),
            },
            ObsEvent::Send {
                at: t(220),
                mid: 3,
                from: p(1),
                to: p(0),
                label: "vote",
                bytes: 32,
            },
            ObsEvent::HandleEnd {
                at: t(220),
                actor: p(1),
                mid: 2,
            },
            ObsEvent::Deliver {
                at: t(320),
                mid: 3,
                to: p(0),
            },
            ObsEvent::HandleStart {
                at: t(320),
                actor: p(0),
                mid: 3,
                trigger: trigger::MSG,
            },
            ObsEvent::Point {
                at: t(330),
                actor: p(0),
                label: labels::TXN_DECIDE,
                tx: 7,
                value: 1,
            },
            ObsEvent::HandleEnd {
                at: t(340),
                actor: p(0),
                mid: 3,
            },
        ]
    }

    #[test]
    fn walk_attributes_every_nanosecond_exactly_once() {
        let events = stream();
        let ix = CausalIndex::build(&events);
        let clients = BTreeSet::new();
        let cp = critical_path(&events, &ix, &clients, 7).expect("tx 7 walks");
        assert_eq!(cp.latency_ns, 330);
        assert_eq!(cp.attributed_ns(), cp.latency_ns, "exact attribution");
        // Contiguity: each segment starts where the previous one ended.
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].to, w[1].from, "segments are contiguous");
        }
        let b = cp.blame_ns();
        assert_eq!(b[Blame::Network.index()], 200, "two 100ns hops");
        assert_eq!(b[Blame::Queue.index()], 70, "130→200 queue residence");
        assert_eq!(b[Blame::Service.index()], 60, "20 + 10 + 20 + 10 service");
        assert_eq!(b[Blame::Straggler.index()], 0);
        assert_eq!(b[Blame::Think.index()], 0);
        assert_eq!(cp.last_voter, Some(p(1)));
    }

    #[test]
    fn timer_decides_reanchor_as_straggler_wait() {
        let events = vec![
            ObsEvent::HandleStart {
                at: t(0),
                actor: p(0),
                mid: 100,
                trigger: trigger::START,
            },
            ObsEvent::Point {
                at: t(0),
                actor: p(0),
                label: labels::TXN_BEGIN,
                tx: 9,
                value: 0,
            },
            ObsEvent::HandleEnd {
                at: t(10),
                actor: p(0),
                mid: 100,
            },
            ObsEvent::HandleStart {
                at: t(500),
                actor: p(0),
                mid: 101,
                trigger: trigger::TIMER,
            },
            ObsEvent::Point {
                at: t(510),
                actor: p(0),
                label: labels::TXN_DECIDE,
                tx: 9,
                value: 1,
            },
            ObsEvent::HandleEnd {
                at: t(520),
                actor: p(0),
                mid: 101,
            },
        ];
        let ix = CausalIndex::build(&events);
        let cp = critical_path(&events, &ix, &BTreeSet::new(), 9).expect("tx 9 walks");
        assert_eq!(cp.latency_ns, 510);
        assert_eq!(cp.attributed_ns(), 510);
        let b = cp.blame_ns();
        assert_eq!(b[Blame::Straggler.index()], 500, "0→500 unchainable wait");
        assert_eq!(b[Blame::Service.index()], 10);
        assert_eq!(cp.last_voter, None);
    }

    #[test]
    fn attribution_aggregates_and_renders_deterministically() {
        let events = stream();
        let ix = CausalIndex::build(&events);
        let a = Attribution::collect(&events, &ix, &BTreeSet::new(), SimTime::ZERO);
        assert_eq!(a.txns, 1);
        assert_eq!(a.total_ns, 330);
        assert_eq!(a.blame_ns.iter().sum::<u64>(), 330);
        assert_eq!(a.top_stragglers(3), vec![(1, 1)]);
        let rows = vec![("test".to_string(), a)];
        let text = render_attribution_text(&rows);
        assert!(text.contains("protocol test: txns=1 total_ns=330"));
        assert!(text.contains("last-voter  p1 x1"));
        assert!(text.contains("200 ns   60.60%"), "network share: {text}");
        // Same events → byte-identical render.
        let ix2 = CausalIndex::build(&events);
        let a2 = Attribution::collect(&events, &ix2, &BTreeSet::new(), SimTime::ZERO);
        assert_eq!(render_attribution_text(&[("test".to_string(), a2)]), text);
    }

    #[test]
    fn window_excludes_warmup_commits() {
        let events = stream();
        let ix = CausalIndex::build(&events);
        let a = Attribution::collect(&events, &ix, &BTreeSet::new(), t(1_000));
        assert_eq!(a.txns, 0, "decide at 330 is before the window");
    }

    #[test]
    fn client_service_is_think_time() {
        let events = stream();
        let ix = CausalIndex::build(&events);
        let clients: BTreeSet<ProcessId> = [p(0)].into_iter().collect();
        let cp = critical_path(&events, &ix, &clients, 7).expect("tx 7 walks");
        let b = cp.blame_ns();
        assert_eq!(b[Blame::Think.index()], 30, "p0 intervals become think");
        assert_eq!(b[Blame::Service.index()], 30, "p1 stays service");
        assert_eq!(cp.attributed_ns(), 330);
    }
}
