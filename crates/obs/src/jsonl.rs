//! JSONL trace export.
//!
//! One JSON object per line, fields in a fixed order so same-seed runs
//! export byte-identical streams. The writer is hand-rolled (the workspace
//! builds offline, with no serde) and pinned by an exact-bytes test, which
//! also catches a renamed or reordered field.
//!
//! Schema `v2`:
//!
//! ```text
//! {"at":<u64>,"kind":"point","actor":<u32>,"label":"<s>","tx":<u64>,"value":<u64>}
//! {"at":<u64>,"kind":"send","mid":<u64>,"from":<u32>,"to":<u32>,"label":"<s>","bytes":<u64>}
//! {"at":<u64>,"kind":"deliver","mid":<u64>,"to":<u32>}
//! {"at":<u64>,"kind":"handle_start","actor":<u32>,"mid":<u64>,"trigger":"<s>"}
//! {"at":<u64>,"kind":"handle_end","actor":<u32>,"mid":<u64>}
//! ```

use std::fmt::Write as _;

use gdur_sim::ObsEvent;

/// Renders `events` as JSONL, one event per line, in input order (v2).
pub fn export(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        match ev {
            ObsEvent::Point {
                at,
                actor,
                label,
                tx,
                value,
            } => writeln!(
                out,
                "{{\"at\":{},\"kind\":\"point\",\"actor\":{},\"label\":\"{}\",\"tx\":{},\"value\":{}}}",
                at.as_nanos(),
                actor.0,
                label,
                tx,
                value
            )
            .expect("write to String"),
            ObsEvent::Send {
                at,
                mid,
                from,
                to,
                label,
                bytes,
            } => writeln!(
                out,
                "{{\"at\":{},\"kind\":\"send\",\"mid\":{},\"from\":{},\"to\":{},\"label\":\"{}\",\"bytes\":{}}}",
                at.as_nanos(),
                mid,
                from.0,
                to.0,
                label,
                bytes
            )
            .expect("write to String"),
            ObsEvent::Deliver { at, mid, to } => writeln!(
                out,
                "{{\"at\":{},\"kind\":\"deliver\",\"mid\":{},\"to\":{}}}",
                at.as_nanos(),
                mid,
                to.0
            )
            .expect("write to String"),
            ObsEvent::HandleStart {
                at,
                actor,
                mid,
                trigger,
            } => writeln!(
                out,
                "{{\"at\":{},\"kind\":\"handle_start\",\"actor\":{},\"mid\":{},\"trigger\":\"{}\"}}",
                at.as_nanos(),
                actor.0,
                mid,
                trigger
            )
            .expect("write to String"),
            ObsEvent::HandleEnd { at, actor, mid } => writeln!(
                out,
                "{{\"at\":{},\"kind\":\"handle_end\",\"actor\":{},\"mid\":{}}}",
                at.as_nanos(),
                actor.0,
                mid
            )
            .expect("write to String"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdur_sim::{trigger, ProcessId, SimTime};

    fn sample() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Point {
                at: SimTime::from_nanos(10),
                actor: ProcessId(3),
                label: "txn.begin",
                tx: 42,
                value: 1,
            },
            ObsEvent::Send {
                at: SimTime::from_nanos(20),
                mid: 9,
                from: ProcessId(3),
                to: ProcessId(4),
                label: "vote",
                bytes: 128,
            },
            ObsEvent::Deliver {
                at: SimTime::from_nanos(30),
                mid: 9,
                to: ProcessId(4),
            },
            ObsEvent::HandleStart {
                at: SimTime::from_nanos(30),
                actor: ProcessId(4),
                mid: 9,
                trigger: trigger::MSG,
            },
            ObsEvent::HandleEnd {
                at: SimTime::from_nanos(35),
                actor: ProcessId(4),
                mid: 9,
            },
        ]
    }

    #[test]
    fn export_matches_schema() {
        let text = export(&sample());
        assert_eq!(
            text,
            "{\"at\":10,\"kind\":\"point\",\"actor\":3,\"label\":\"txn.begin\",\"tx\":42,\"value\":1}\n\
             {\"at\":20,\"kind\":\"send\",\"mid\":9,\"from\":3,\"to\":4,\"label\":\"vote\",\"bytes\":128}\n\
             {\"at\":30,\"kind\":\"deliver\",\"mid\":9,\"to\":4}\n\
             {\"at\":30,\"kind\":\"handle_start\",\"actor\":4,\"mid\":9,\"trigger\":\"msg\"}\n\
             {\"at\":35,\"kind\":\"handle_end\",\"actor\":4,\"mid\":9}\n"
        );
    }
}
