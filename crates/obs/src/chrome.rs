//! Chrome/Perfetto trace export.
//!
//! [`export_chrome`] renders a causal trace in the Chrome trace-event JSON
//! format (the `{"traceEvents":[...]}` object form), loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>:
//!
//! - one track (`tid`) per actor, named via `thread_name` metadata events;
//! - every handler invocation as a complete span (`ph:"X"`), named after
//!   the message that triggered it;
//! - every lifecycle point as an instant event (`ph:"i"`);
//! - every delivered message as a flow arrow (`ph:"s"` at the sender,
//!   `ph:"f"` at the destination handler) keyed by the message id, so the
//!   UI draws the causal arrows between tracks.
//!
//! Timestamps are microseconds with nanosecond fractions, rendered with
//! integer arithmetic so same-seed runs export byte-identical files. The
//! format is pinned by an exact-bytes test of the writer.

use std::fmt::Write as _;

use gdur_sim::{trigger, ObsEvent};

use crate::span::CausalIndex;

/// Microseconds with nanosecond fraction, e.g. `1234.567` for 1234567 ns.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// JSON-escapes a label (the vocabulary is ASCII, but actor names come
/// from callers).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a causal trace as a Chrome trace-event JSON document.
///
/// `names[i]` labels the track of actor `i`; actors beyond the slice get
/// `"p<i>"`. Works on non-causal traces too (you just get points and flow
/// arrows without handler spans).
pub fn export_chrome(events: &[ObsEvent], ix: &CausalIndex, names: &[String]) -> String {
    let mut lines: Vec<String> = Vec::new();

    // Track names. Every actor that appears anywhere gets a track.
    let mut max_actor: u32 = 0;
    for ev in events {
        let a = match *ev {
            ObsEvent::Point { actor, .. } => actor.0,
            ObsEvent::Send { from, to, .. } => from.0.max(to.0),
            ObsEvent::Deliver { to, .. } => to.0,
            ObsEvent::HandleStart { actor, .. } => actor.0,
            ObsEvent::HandleEnd { actor, .. } => actor.0,
        };
        max_actor = max_actor.max(a);
    }
    let tracks = (max_actor as usize + 1).max(names.len());
    for i in 0..tracks {
        let name = names
            .get(i)
            .map(|s| esc(s))
            .unwrap_or_else(|| format!("p{i}"));
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    // Handler spans: one complete event per bracket, named after the
    // triggering message (or the trigger kind for timers/start/restart).
    for h in &ix.handlers {
        let name = if h.trigger == trigger::MSG {
            ix.sends
                .get(&h.mid)
                .map(|s| s.label.to_string())
                .unwrap_or_else(|| trigger::MSG.to_string())
        } else {
            h.trigger.to_string()
        };
        let dur = h.end.saturating_since(h.start).as_nanos();
        lines.push(format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"handler\",\"name\":\"{}\",\"args\":{{\"mid\":{}}}}}",
            h.actor.0,
            us(h.start.as_nanos()),
            us(dur),
            esc(&name),
            h.mid
        ));
    }

    // Instant points and flow arrows, in stream order.
    for ev in events {
        match *ev {
            ObsEvent::Point {
                at,
                actor,
                label,
                tx,
                value,
            } => lines.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"s\":\"t\",\"cat\":\"point\",\"name\":\"{}\",\"args\":{{\"tx\":{},\"value\":{}}}}}",
                actor.0,
                us(at.as_nanos()),
                esc(label),
                tx,
                value
            )),
            ObsEvent::Send {
                at,
                mid,
                from,
                label,
                ..
            } => lines.push(format!(
                "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"ts\":{},\"cat\":\"msg\",\"name\":\"{}\",\"id\":{}}}",
                from.0,
                us(at.as_nanos()),
                esc(label),
                mid
            )),
            ObsEvent::Deliver { at, mid, to } => {
                let label = ix.sends.get(&mid).map(|s| s.label).unwrap_or("msg");
                lines.push(format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"ts\":{},\"cat\":\"msg\",\"name\":\"{}\",\"id\":{}}}",
                    to.0,
                    us(at.as_nanos()),
                    esc(label),
                    mid
                ))
            }
            ObsEvent::HandleStart { .. } | ObsEvent::HandleEnd { .. } => {}
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, l) in lines.iter().enumerate() {
        out.push_str(l);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdur_sim::{ProcessId, SimTime};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> Vec<ObsEvent> {
        vec![
            ObsEvent::HandleStart {
                at: t(1_000),
                actor: ProcessId(0),
                mid: 5,
                trigger: trigger::MSG,
            },
            ObsEvent::Point {
                at: t(1_000),
                actor: ProcessId(0),
                label: "txn.begin",
                tx: 42,
                value: 0,
            },
            ObsEvent::Send {
                at: t(1_500),
                mid: 6,
                from: ProcessId(0),
                to: ProcessId(1),
                label: "cert",
                bytes: 64,
            },
            ObsEvent::HandleEnd {
                at: t(1_500),
                actor: ProcessId(0),
                mid: 5,
            },
            ObsEvent::Deliver {
                at: t(2_500),
                mid: 6,
                to: ProcessId(1),
            },
            ObsEvent::HandleStart {
                at: t(2_500),
                actor: ProcessId(1),
                mid: 6,
                trigger: trigger::MSG,
            },
            ObsEvent::HandleEnd {
                at: t(2_750),
                actor: ProcessId(1),
                mid: 6,
            },
        ]
    }

    /// The whole document, byte for byte: every `ph` kind the writer emits,
    /// a track name that needs escaping and an actor beyond `names` (named
    /// `p<i>`).
    #[test]
    fn export_is_valid_json_with_tracks_spans_and_flows() {
        let events = sample();
        let ix = CausalIndex::build(&events);
        let names = vec!["replica \"p0\" \\ s0\t".to_string()];
        assert_eq!(
            export_chrome(&events, &ix, &names),
            "{\"traceEvents\":[\n\
             {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"replica \\\"p0\\\" \\\\ s0\\u0009\"}},\n\
             {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"p1\"}},\n\
             {\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"dur\":0.500,\"cat\":\"handler\",\"name\":\"msg\",\"args\":{\"mid\":5}},\n\
             {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":2.500,\"dur\":0.250,\"cat\":\"handler\",\"name\":\"cert\",\"args\":{\"mid\":6}},\n\
             {\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"s\":\"t\",\"cat\":\"point\",\"name\":\"txn.begin\",\"args\":{\"tx\":42,\"value\":0}},\n\
             {\"ph\":\"s\",\"pid\":0,\"tid\":0,\"ts\":1.500,\"cat\":\"msg\",\"name\":\"cert\",\"id\":6},\n\
             {\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":1,\"ts\":2.500,\"cat\":\"msg\",\"name\":\"cert\",\"id\":6}\n\
             ]}\n"
        );
    }
}
