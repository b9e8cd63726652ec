//! In-memory span recorder for the traced run.
//!
//! Spans carry a name, start, end, parent and op id; counters carry a
//! name, op id and value. Everything stays in memory until the run ends,
//! when [`Tracer::chrome_json`] renders it as Chrome trace-event JSON
//! (viewable in Perfetto or `chrome://tracing`). A disabled tracer records
//! nothing: [`Tracer::span`] then only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `tdcsoc.tables`.
    pub name: &'static str,
    /// Optional detail shown in the viewer (core name, instance id).
    pub detail: Option<String>,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 = set-up).
    pub op: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<(u64, &'static str), f64>,
}

impl Tracer {
    /// A recorder that keeps spans and counters.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A recorder that keeps nothing (the timed run).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// True when spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags everything recorded from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_detail(name, None, f)
    }

    /// [`span`](Tracer::span) with a detail string for the viewer.
    pub fn span_detail<T>(
        &mut self,
        name: &'static str,
        detail: Option<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            detail,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Adds `value` to counter `name` of the current op.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry((self.op, name)).or_insert(0.0) += value;
        }
    }

    /// Counter `name` of `op`, if set.
    pub fn counter(&self, op: u64, name: &'static str) -> Option<f64> {
        self.counters.get(&(op, name)).copied()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children run one after another on the benchmark's thread).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Per op, the summed self time of every span name, in milliseconds.
    pub fn self_ms_by_op(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.op)
                .or_default()
                .entry(span.name)
                .or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span and one
    /// counter (`C`) event per counter, timestamps in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (id, span) in self.spans.iter().enumerate() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"op\":{}",
                json_str(span.name),
                span.start.as_secs_f64() * 1e6,
                span.duration().as_secs_f64() * 1e6,
                span.op
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(detail) = &span.detail {
                let _ = write!(out, ",\"detail\":{}", json_str(detail));
            }
            out.push_str("}}");
        }
        let op_end: BTreeMap<u64, Duration> =
            self.spans.iter().fold(BTreeMap::new(), |mut m, s| {
                let e = m.entry(s.op).or_insert(s.end);
                *e = (*e).max(s.end);
                m
            });
        for ((op, name), value) in &self.counters {
            sep(&mut out);
            let ts = op_end.get(op).copied().unwrap_or_default();
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"args\":{{\"value\":{}}}}}",
                json_str(name),
                ts.as_secs_f64() * 1e6,
                finite(*value)
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `value` as a JSON number (non-finite values become 0).
pub fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::enabled();
        t.set_op(1);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let by_op = t.self_ms_by_op();
        let outer = by_op[&1]["outer"];
        let inner = by_op[&1]["inner"];
        assert!(inner >= 5.0 && outer >= 5.0, "inner {inner} outer {outer}");
        let total = t.spans[0].duration().as_secs_f64() * 1e3;
        assert!((outer + inner - total).abs() < 1e-6);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span("x", |_| 7);
        t.add("c", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        assert_eq!(t.counter(0, "c"), None);
    }

    #[test]
    fn chrome_json_is_an_array_of_events() {
        let mut t = Tracer::enabled();
        t.span_detail("a\"b", Some("core\\1".into()), |t| t.add("n", 2.0));
        let json = t.chrome_json();
        assert!(json.starts_with("[\n{\"name\":\"a\\\"b\",\"ph\":\"X\""));
        assert!(json.contains("\"detail\":\"core\\\\1\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.trim_end().ends_with(']'));
    }
}
