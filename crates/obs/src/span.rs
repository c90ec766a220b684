//! Causal index and per-transaction span trees.
//!
//! The kernel's causal events ([`ObsEvent::Deliver`],
//! [`ObsEvent::HandleStart`]/[`ObsEvent::HandleEnd`], and the `mid` stamped
//! on every `Send`) let this module rebuild the exact causal graph of a
//! run: which handler emitted which message, when it was delivered, and
//! which handler serviced it. [`CausalIndex::build`] does that in one
//! linear scan (the kernel is single-threaded, so events between a
//! `HandleStart` and its `HandleEnd` belong to that handler — the bracket
//! nesting is exact, never heuristic).
//!
//! On top of the index, [`tx_span_tree`] stitches the `tx`-scoped lifecycle
//! points into one span tree per transaction: the root covers the whole
//! transaction, with `execute` (begin → submit, containing remote-read
//! round trips resolved through the message chain), `termination` (submit →
//! decide, containing per-replica certification spans with queue residence
//! and the vote's network hop), and per-replica `install` spans. The tree
//! is the browsable form of the same data the critical-path walk
//! ([`crate::attrib`]) consumes.

use std::collections::BTreeMap;

use gdur_sim::{ObsEvent, ProcessId, SimTime};

use crate::event::labels;

/// One handler invocation reconstructed from its
/// `HandleStart`/`HandleEnd` bracket.
#[derive(Debug, Clone)]
pub struct HandlerRec {
    /// The actor that ran the handler.
    pub actor: ProcessId,
    /// Id of the triggering arrival (for message triggers: the message id).
    pub mid: u64,
    /// What triggered the handler (see [`gdur_sim::trigger`]).
    pub trigger: &'static str,
    /// Service-start instant.
    pub start: SimTime,
    /// Service-end instant (equals `start` when the bracket never closed,
    /// which cannot happen in a complete kernel run).
    pub end: SimTime,
    /// Message ids sent by this handler, in emission order.
    pub sends: Vec<u64>,
    /// Indices (into the event slice) of the points this handler emitted.
    pub points: Vec<usize>,
}

/// One message reconstructed from its `Send` (and, if it survived to a live
/// actor, its `Deliver`).
#[derive(Debug, Clone)]
pub struct SendRec {
    /// Sending actor.
    pub from: ProcessId,
    /// Destination actor.
    pub to: ProcessId,
    /// Message-type label.
    pub label: &'static str,
    /// Departure instant (sender service end + any artificial delay).
    pub departed: SimTime,
    /// Wire size in bytes.
    pub bytes: u64,
    /// Index of the emitting handler, if the send happened inside one.
    pub emitter: Option<usize>,
    /// Delivery instant; `None` means the message was dropped (crashed
    /// destination) or still in flight when the run ended.
    pub delivered: Option<SimTime>,
}

/// The causal graph of one traced run, built from a causal event stream.
#[derive(Debug, Clone, Default)]
pub struct CausalIndex {
    /// All handler invocations, in service order.
    pub handlers: Vec<HandlerRec>,
    /// Handler index by triggering-arrival id.
    pub handler_by_mid: BTreeMap<u64, usize>,
    /// Message records by message id.
    pub sends: BTreeMap<u64, SendRec>,
    /// Emitting handler of each event (parallel to the event slice; `None`
    /// for events emitted outside any handler, e.g. kernel crash points).
    emitted_by: Vec<Option<u32>>,
    /// Point-event indices per transaction code, in stream order.
    pub tx_points: BTreeMap<u64, Vec<usize>>,
}

impl CausalIndex {
    /// Builds the index in one linear scan over a causal event stream.
    ///
    /// Works on a non-causal stream too — it just yields no handlers,
    /// and the span/attribution layers will report nothing rather than
    /// guess.
    pub fn build(events: &[ObsEvent]) -> Self {
        let mut ix = CausalIndex {
            emitted_by: vec![None; events.len()],
            ..CausalIndex::default()
        };
        // The kernel is single-threaded: at most one handler is open.
        let mut open: Option<usize> = None;
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                ObsEvent::HandleStart {
                    at,
                    actor,
                    mid,
                    trigger,
                } => {
                    let idx = ix.handlers.len();
                    ix.handlers.push(HandlerRec {
                        actor,
                        mid,
                        trigger,
                        start: at,
                        end: at,
                        sends: Vec::new(),
                        points: Vec::new(),
                    });
                    ix.handler_by_mid.insert(mid, idx);
                    open = Some(idx);
                }
                ObsEvent::HandleEnd { at, .. } => {
                    if let Some(idx) = open.take() {
                        ix.handlers[idx].end = at;
                    }
                }
                ObsEvent::Send {
                    at,
                    mid,
                    from,
                    to,
                    label,
                    bytes,
                } => {
                    if let Some(idx) = open {
                        ix.handlers[idx].sends.push(mid);
                        ix.emitted_by[i] = Some(idx as u32);
                    }
                    ix.sends.insert(
                        mid,
                        SendRec {
                            from,
                            to,
                            label,
                            departed: at,
                            bytes,
                            emitter: open,
                            delivered: None,
                        },
                    );
                }
                ObsEvent::Deliver { at, mid, .. } => {
                    if let Some(s) = ix.sends.get_mut(&mid) {
                        s.delivered = Some(at);
                    }
                }
                ObsEvent::Point { tx, .. } => {
                    if let Some(idx) = open {
                        ix.handlers[idx].points.push(i);
                        ix.emitted_by[i] = Some(idx as u32);
                    }
                    if tx != 0 {
                        ix.tx_points.entry(tx).or_default().push(i);
                    }
                }
            }
        }
        ix
    }

    /// The handler that emitted event `event_idx`, if any.
    pub fn emitter_of(&self, event_idx: usize) -> Option<usize> {
        self.emitted_by
            .get(event_idx)
            .copied()
            .flatten()
            .map(|h| h as usize)
    }
}

/// One node of a transaction span tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// Human-readable label (`execute`, `cert@p3`, `hop Vote p3→p0`, ...).
    pub label: String,
    /// The actor the span is anchored to.
    pub actor: ProcessId,
    /// Span start.
    pub start: SimTime,
    /// Span end (`>= start`).
    pub end: SimTime,
    /// Child spans, each contained in `[start, end]`.
    pub children: Vec<Span>,
}

impl Span {
    fn new(label: String, actor: ProcessId, start: SimTime, end: SimTime) -> Span {
        Span {
            label,
            actor,
            start,
            end: end.max(start),
            children: Vec::new(),
        }
    }

    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.start).as_nanos()
    }

    /// Total number of spans in the tree (this node included).
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(Span::count).sum::<usize>()
    }

    /// Checks interval well-formedness recursively: every span satisfies
    /// `start <= end`, and every child's interval lies within its parent's.
    pub fn well_formed(&self) -> Result<(), String> {
        if self.end < self.start {
            return Err(format!("span {:?} ends before it starts", self.label));
        }
        for c in &self.children {
            if c.start < self.start || c.end > self.end {
                return Err(format!(
                    "child {:?} [{}, {}] escapes parent {:?} [{}, {}]",
                    c.label,
                    c.start.as_nanos(),
                    c.end.as_nanos(),
                    self.label,
                    self.start.as_nanos(),
                    self.end.as_nanos()
                ));
            }
            c.well_formed()?;
        }
        Ok(())
    }

    /// Clamps every child interval into its parent, recursively. The
    /// builders only need this for degenerate inputs (e.g. truncated event
    /// windows); after clamping, [`Span::well_formed`] holds by
    /// construction.
    fn clamp(&mut self) {
        for c in &mut self.children {
            c.start = c.start.clamp(self.start, self.end);
            c.end = c.end.clamp(c.start, self.end);
            c.clamp();
        }
    }

    /// Renders the tree as an indented text listing with µs offsets
    /// relative to `origin` (pass the root's start for absolute-zero
    /// trees). Deterministic: integer arithmetic only.
    pub fn render(&self, origin: SimTime) -> String {
        fn us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1_000, ns % 1_000)
        }
        fn go(s: &Span, origin: SimTime, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let rel = s.start.saturating_since(origin).as_nanos();
            out.push_str(&format!(
                "{pad}{} @p{} +{}us for {}us\n",
                s.label,
                s.actor.0,
                us(rel),
                us(s.duration_ns()),
            ));
            for c in &s.children {
                go(c, origin, depth + 1, out);
            }
        }
        let mut out = String::new();
        go(self, origin, 0, &mut out);
        out
    }
}

/// Builds the span tree of transaction `tx` from a causal trace, or `None`
/// if the transaction never began inside the trace.
///
/// The root, labelled `txn` (`gdur-trace tree` names the transaction),
/// covers begin → max(decide, last install); its direct children are the
/// `execute` and `termination` phase spans plus one `install` span per
/// installing replica. Remote reads and certification votes are
/// resolved through the message chain (send → deliver → handler), so their
/// sub-spans carry real network-hop and service intervals, not heuristics.
pub fn tx_span_tree(events: &[ObsEvent], ix: &CausalIndex, tx: u64) -> Option<Span> {
    let pts = ix.tx_points.get(&tx)?;
    let mut begin: Option<(SimTime, ProcessId)> = None;
    let mut submit: Option<SimTime> = None;
    let mut decide: Option<(SimTime, &'static str)> = None;
    let mut reads: Vec<(usize, SimTime, ProcessId)> = Vec::new();
    let mut enq: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut votes: Vec<(usize, SimTime, ProcessId)> = Vec::new();
    let mut installs: Vec<(SimTime, ProcessId)> = Vec::new();
    for &pi in pts {
        let ObsEvent::Point {
            at, actor, label, ..
        } = events[pi]
        else {
            continue;
        };
        match label {
            labels::TXN_BEGIN => begin = begin.or(Some((at, actor))),
            labels::TXN_SUBMIT => submit = submit.or(Some(at)),
            labels::TXN_DECIDE => decide = decide.or(Some((at, "decide"))),
            labels::TXN_ABORT => decide = decide.or(Some((at, "abort"))),
            labels::TXN_READ_REMOTE => reads.push((pi, at, actor)),
            labels::CERT_ENQUEUE => {
                enq.entry(actor.0).or_insert(at);
            }
            labels::TXN_VOTE => votes.push((pi, at, actor)),
            labels::TXN_INSTALL => installs.push((at, actor)),
            _ => {}
        }
    }
    let (b_at, coord) = begin?;
    let d_at = decide.map(|(at, _)| at);
    let mut root = Span::new("txn".into(), coord, b_at, d_at.unwrap_or(b_at));

    // execute: begin → submit (or decide for transactions that never
    // submitted, e.g. read-only fast paths).
    let exec_end = submit.or(d_at).unwrap_or(b_at);
    let mut exec = Span::new("execute".into(), coord, b_at, exec_end);
    for (pi, at, actor) in reads {
        exec.children.push(read_span(ix, pi, at, actor));
    }
    root.children.push(exec);

    // termination: submit → decide, with per-replica certification spans.
    if let (Some(s_at), Some(d_at)) = (submit, d_at) {
        let mut term = Span::new("termination".into(), coord, s_at, d_at);
        for (pi, v_at, v_actor) in votes {
            term.children
                .push(cert_span(ix, pi, v_at, v_actor, enq.get(&v_actor.0), coord));
        }
        root.children.push(term);
    }

    // install spans: decide → install, one per installing replica.
    for (i_at, i_actor) in installs {
        let start = d_at.map_or(i_at, |d| d.min(i_at));
        root.children.push(Span::new(
            format!("install@p{}", i_actor.0),
            i_actor,
            start,
            i_at,
        ));
    }

    // The root covers everything observed for the transaction.
    let max_end = root
        .children
        .iter()
        .map(|c| c.end)
        .max()
        .unwrap_or(root.end);
    root.end = root.end.max(max_end);
    root.clamp();
    Some(root)
}

/// A remote-read round trip resolved through the message chain: request
/// hop, remote service, reply hop. Falls back to a zero-width marker when
/// the chain cannot be resolved (e.g. the reply came from a deferred-read
/// poll timer rather than the request handler).
fn read_span(ix: &CausalIndex, point_idx: usize, at: SimTime, requester: ProcessId) -> Span {
    let mut span = Span::new("read.remote".into(), requester, at, at);
    let Some(h) = ix.emitter_of(point_idx) else {
        return span;
    };
    for &m in &ix.handlers[h].sends {
        let Some(req) = ix.sends.get(&m) else {
            continue;
        };
        let Some(req_del) = req.delivered else {
            continue;
        };
        let Some(&serve) = ix.handler_by_mid.get(&m) else {
            continue;
        };
        let sh = &ix.handlers[serve];
        // The serving replica's reply back to the requester, if it answered
        // within the same handler.
        let reply = sh.sends.iter().find_map(|&m2| {
            let rep = ix.sends.get(&m2)?;
            (rep.to == requester).then_some(rep)
        });
        let Some(rep) = reply else {
            continue;
        };
        let rep_del = rep.delivered.unwrap_or(rep.departed);
        span.label = format!("read.remote p{}→p{}", requester.0, req.to.0);
        span.end = rep_del.max(at);
        span.children.push(Span::new(
            format!("hop {} p{}→p{}", req.label, req.from.0, req.to.0),
            req.to,
            req.departed,
            req_del,
        ));
        span.children.push(Span::new(
            format!("serve@p{}", req.to.0),
            req.to,
            sh.start,
            sh.end,
        ));
        span.children.push(Span::new(
            format!("hop {} p{}→p{}", rep.label, rep.from.0, rep.to.0),
            rep.to,
            rep.departed,
            rep_del,
        ));
        break;
    }
    span.clamp();
    span
}

/// A replica's certification span: enqueue → vote cast → vote hop back to
/// the coordinator, with the queue residence as an explicit child.
fn cert_span(
    ix: &CausalIndex,
    vote_idx: usize,
    v_at: SimTime,
    v_actor: ProcessId,
    enq_at: Option<&SimTime>,
    coord: ProcessId,
) -> Span {
    let vh = ix.emitter_of(vote_idx);
    let (cast_start, mut cast_end) = match vh {
        Some(h) => (ix.handlers[h].start, ix.handlers[h].end),
        None => (v_at, v_at),
    };
    let start = enq_at.copied().unwrap_or(cast_start).min(cast_start);
    let mut span = Span::new(format!("cert@p{}", v_actor.0), v_actor, start, cast_end);
    if let Some(&e_at) = enq_at {
        span.children.push(Span::new(
            "queue".into(),
            v_actor,
            e_at,
            cast_start.max(e_at),
        ));
    }
    span.children
        .push(Span::new("cast".into(), v_actor, cast_start, cast_end));
    // The vote's hop back to the coordinator, resolved via the handler's
    // sends.
    if let Some(h) = vh {
        let hop = ix.handlers[h].sends.iter().find_map(|&m| {
            let s = ix.sends.get(&m)?;
            (s.to == coord).then_some(s)
        });
        if let Some(s) = hop {
            let del = s.delivered.unwrap_or(s.departed);
            cast_end = cast_end.max(del);
            span.end = span.end.max(del);
            span.children.push(Span::new(
                format!("hop {} p{}→p{}", s.label, s.from.0, s.to.0),
                s.to,
                s.departed,
                del,
            ));
        }
    }
    let _ = cast_end;
    span.clamp();
    span
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdur_sim::{trigger, SimDuration};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A hand-built causal stream: p1 handler (mid 10) sends mid 11 to p2,
    /// delivered and serviced there.
    fn stream() -> Vec<ObsEvent> {
        vec![
            ObsEvent::HandleStart {
                at: t(0),
                actor: ProcessId(1),
                mid: 10,
                trigger: trigger::MSG,
            },
            ObsEvent::Point {
                at: t(0),
                actor: ProcessId(1),
                label: labels::TXN_BEGIN,
                tx: 5,
                value: 0,
            },
            ObsEvent::Send {
                at: t(100),
                mid: 11,
                from: ProcessId(1),
                to: ProcessId(2),
                label: "req",
                bytes: 32,
            },
            ObsEvent::HandleEnd {
                at: t(100),
                actor: ProcessId(1),
                mid: 10,
            },
            ObsEvent::Deliver {
                at: t(300),
                mid: 11,
                to: ProcessId(2),
            },
            ObsEvent::HandleStart {
                at: t(300),
                actor: ProcessId(2),
                mid: 11,
                trigger: trigger::MSG,
            },
            ObsEvent::HandleEnd {
                at: t(350),
                actor: ProcessId(2),
                mid: 11,
            },
        ]
    }

    #[test]
    fn index_links_sends_delivers_and_handlers() {
        let events = stream();
        let ix = CausalIndex::build(&events);
        assert_eq!(ix.handlers.len(), 2);
        let s = &ix.sends[&11];
        assert_eq!(s.emitter, Some(0));
        assert_eq!(s.delivered, Some(t(300)));
        assert_eq!(ix.handler_by_mid[&11], 1);
        assert_eq!(ix.handlers[1].start, t(300));
        assert_eq!(ix.handlers[1].end, t(350));
        assert_eq!(ix.emitter_of(1), Some(0), "the point belongs to handler 0");
        assert_eq!(ix.tx_points[&5], vec![1]);
        assert!(ix.sends.values().all(|s| s.delivered.is_some()));
    }

    #[test]
    fn span_well_formedness_catches_escapes() {
        let mut parent = Span::new("p".into(), ProcessId(0), t(0), t(100));
        parent
            .children
            .push(Span::new("c".into(), ProcessId(0), t(10), t(50)));
        assert!(parent.well_formed().is_ok());
        parent
            .children
            .push(Span::new("bad".into(), ProcessId(0), t(50), t(200)));
        assert!(parent.well_formed().is_err());
        parent.clamp();
        assert!(parent.well_formed().is_ok());
        let _ = SimDuration::ZERO;
    }
}
