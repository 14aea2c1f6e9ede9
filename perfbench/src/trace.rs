//! In-memory span recorder for the traced run, written out at the end as
//! Chrome trace-event JSON (load it in `chrome://tracing` or Perfetto).

use serde_json::Value;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, `layer.operation`.
    pub name: String,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// End, µs since the recorder was created (`NaN` while open).
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records spans around the benchmark's own calls into each layer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span; returns its id for [`close`](Tracer::close) and as a
    /// parent for nested spans.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        (span.end_us - span.start_us) * 1e-6
    }

    /// Run `f` inside a span and return its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drop all spans (keeps the time origin).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// The spans as a Chrome trace-event document (`ph: "X"` complete
    /// events; the span id and its parent's id ride in `args`).
    pub fn chrome_json(&self) -> String {
        let num = |x: f64| Value::Num(format!("{x}"));
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Value::Null, |p| num(p as f64));
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), num(s.start_us)),
                    ("dur".into(), num(s.end_us - s.start_us)),
                    ("pid".into(), num(1.0)),
                    ("tid".into(), num(1.0)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("id".into(), num(id as f64)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        crate::json_text(Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]))
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_with_parents() {
        let mut t = Tracer::default();
        let outer = t.open("outer", None);
        let ((), inner_s) = t.time("inner", Some(outer), || {});
        let outer_s = t.close(outer);
        assert!(inner_s <= outer_s);
        let doc = crate::parse_json(&t.chrome_json()).unwrap();
        let Value::Obj(fields) = doc else {
            panic!("not an object")
        };
        let Value::Arr(events) = &fields[0].1 else {
            panic!("no events")
        };
        assert_eq!(events.len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
