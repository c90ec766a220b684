//! JSONL trace export and schema validation.
//!
//! One JSON object per line, fields in a fixed order so same-seed runs
//! export byte-identical streams. The schema is small enough that both the
//! writer and the validator are hand-rolled (the workspace builds offline,
//! with no serde).
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

/// Validates a JSONL trace against the schema above. Returns the number of
/// event lines on success, or a description of the first offending line.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

fn validate_line(line: &str) -> Result<(), String> {
    let mut rest = line;
    expect(&mut rest, "{\"at\":")?;
    number(&mut rest)?;
    expect(&mut rest, ",\"kind\":\"")?;
    if eat(&mut rest, "point\"") {
        expect(&mut rest, ",\"actor\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"label\":\"")?;
        string(&mut rest)?;
        expect(&mut rest, ",\"tx\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"value\":")?;
        number(&mut rest)?;
    } else if eat(&mut rest, "send\"") {
        expect(&mut rest, ",\"mid\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"from\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"to\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"label\":\"")?;
        string(&mut rest)?;
        expect(&mut rest, ",\"bytes\":")?;
        number(&mut rest)?;
    } else if eat(&mut rest, "deliver\"") {
        expect(&mut rest, ",\"mid\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"to\":")?;
        number(&mut rest)?;
    } else if eat(&mut rest, "handle_start\"") {
        expect(&mut rest, ",\"actor\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"mid\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"trigger\":\"")?;
        string(&mut rest)?;
    } else if eat(&mut rest, "handle_end\"") {
        expect(&mut rest, ",\"actor\":")?;
        number(&mut rest)?;
        expect(&mut rest, ",\"mid\":")?;
        number(&mut rest)?;
    } else {
        return Err(format!("unknown event kind in {line:?}"));
    }
    expect(&mut rest, "}")?;
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("trailing garbage {rest:?}"))
    }
}

fn eat(rest: &mut &str, prefix: &str) -> bool {
    if let Some(r) = rest.strip_prefix(prefix) {
        *rest = r;
        true
    } else {
        false
    }
}

fn expect(rest: &mut &str, prefix: &str) -> Result<(), String> {
    if eat(rest, prefix) {
        Ok(())
    } else {
        Err(format!("expected {prefix:?} at {rest:?}"))
    }
}

fn number(rest: &mut &str) -> Result<(), String> {
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return Err(format!("expected a number at {rest:?}"));
    }
    rest[..digits]
        .parse::<u64>()
        .map_err(|e| format!("bad number at {rest:?}: {e}"))?;
    *rest = &rest[digits..];
    Ok(())
}

fn string(rest: &mut &str) -> Result<(), String> {
    let Some(end) = rest.find('"') else {
        return Err(format!("unterminated string at {rest:?}"));
    };
    if end == 0 {
        return Err("empty label".to_string());
    }
    *rest = &rest[end + 1..];
    Ok(())
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
        assert_eq!(validate(&text), Ok(5));
    }

    #[test]
    fn validation_rejects_malformed_lines() {
        assert!(validate("{\"at\":1,\"kind\":\"frob\"}").is_err());
        assert!(validate("{\"at\":x,\"kind\":\"point\"}").is_err());
        assert!(
            validate(
                "{\"at\":1,\"kind\":\"point\",\"actor\":0,\"label\":\"\",\"tx\":0,\"value\":0}"
            )
            .is_err(),
            "empty labels are invalid"
        );
        assert!(
            validate("{\"at\":1,\"kind\":\"deliver\",\"mid\":2}").is_err(),
            "deliver must name a destination"
        );
        let mut ok = export(&sample());
        ok.push_str("junk\n");
        assert!(validate(&ok).is_err());
        let mut ok = export(&sample());
        ok.push_str(
            "{\"at\":20,\"kind\":\"send\",\"from\":3,\"to\":4,\"label\":\"vote\",\"bytes\":128}\n",
        );
        let err = validate(&ok).expect_err("a send must carry its mid");
        assert!(err.starts_with("line 6: "), "{err}");
    }
}
