//! Stage spans around the benchmark's own calls into each layer: name,
//! start, end, parent. Kept in memory and written out once, at exit.
//!
//! These are spans *from outside*: a span covers one public-API call (or a
//! replay kernel), not the work inside the program. A span's self time is
//! its duration minus its children's.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn seconds(&self) -> f64 {
        self.duration_ns() as f64 / 1e9
    }
}

/// Records nested spans against one origin instant.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn starting_at(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, child of the innermost span still open.
    /// For a stage too long to fit a closure; prefer [`Recorder::span`].
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Seconds spent in the (first) span called `name`; 0 if it never ran.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, Span::seconds)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of span `i`: its duration minus that of its direct children.
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(Span::duration_ns)
        .sum();
    spans[i].duration_ns().saturating_sub(children)
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_ns", Json::Num(self_time_ns(spans, i) as f64)),
                ])
            })
            .collect(),
    )
}

/// Reads spans back from [`to_json`]'s output.
pub fn from_json(v: &Json) -> Vec<Span> {
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    v.as_arr()
        .unwrap_or(&[])
        .iter()
        .map(|s| Span {
            name: s.get("name").and_then(Json::as_str).unwrap_or("").into(),
            start_ns: num(s, "start_ns") as u64,
            end_ns: num(s, "end_ns") as u64,
            parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("warmup", 10, 30, Some(0)),
            span("measure", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 60);
        assert_eq!(self_time_ns(&spans, 1), 20);
        // A grandchild is charged to its parent only.
        assert_eq!(self_time_ns(&spans, 2), 60 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn recorder_nests_and_round_trips() {
        let mut rec = Recorder::starting_at(Instant::now());
        rec.span("outer", |rec| {
            rec.span("a", |_| ());
            rec.span("b", |rec| rec.span("c", |_| ()));
        });
        rec.enter("next");
        rec.span("d", |_| ());
        rec.exit();
        let spans = rec.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None, Some(4)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(from_json(&to_json(&spans)), spans);
    }
}
