//! Chrome-trace export: a [`Subscriber`] that renders every span and
//! event into the `{"traceEvents":[...]}` JSON format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
//! directly.
//!
//! Spans become complete (`"ph":"X"`) events with microsecond start/dur;
//! events become thread-scoped instants (`"ph":"i"`). Fields land in
//! `args`, along with the request id (`rid`) when one was in scope — so
//! "follow request 1234 across the stack" is a text search over the
//! trace file.

use crate::subscriber::Subscriber;
use crate::{ClosedSpan, Event, Value};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// A subscriber spilling a Chrome-trace-compatible JSON file.
///
/// Rendered trace events accumulate in memory; call
/// [`JsonWriter::write_to`] (typically once, after the measured run) to
/// produce the file.
#[derive(Debug, Default)]
pub struct JsonWriter {
    rendered: Mutex<Vec<String>>,
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn value_into(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) if v.is_finite() => out.push_str(&format!("{v}")),
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(v) => {
            out.push('"');
            escape_into(out, v);
            out.push('"');
        }
    }
}

fn args_into(out: &mut String, fields: &[(&'static str, Value)], rid: u64) {
    out.push_str("\"args\":{");
    let mut first = true;
    if rid != 0 {
        out.push_str("\"rid\":");
        out.push_str(&rid.to_string());
        first = false;
    }
    for (key, value) in fields {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        escape_into(out, key);
        out.push_str("\":");
        value_into(out, value);
    }
    out.push('}');
}

impl JsonWriter {
    /// A fresh writer with no rendered events.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, rendered: String) {
        crate::lock(&self.rendered).push(rendered);
    }

    /// Number of trace events rendered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        crate::lock(&self.rendered).len()
    }

    /// True when nothing has been rendered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the accumulated trace as one `{"traceEvents":[...]}` file.
    ///
    /// # Errors
    /// Propagates any I/O failure creating or writing `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let rendered = crate::lock(&self.rendered);
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(file, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, event) in rendered.iter().enumerate() {
            if i > 0 {
                write!(file, ",")?;
            }
            write!(file, "{event}")?;
        }
        writeln!(file, "]}}")?;
        file.flush()
    }
}

impl Subscriber for JsonWriter {
    fn on_span(&self, span: &ClosedSpan) {
        let mut out = String::with_capacity(96);
        out.push_str("{\"name\":\"");
        escape_into(&mut out, span.name);
        out.push_str("\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        out.push_str(&span.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&span.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&(span.duration.as_micros() as u64).max(1).to_string());
        out.push(',');
        args_into(&mut out, &span.fields, span.rid);
        out.push('}');
        self.push(out);
    }

    fn on_event(&self, event: &Event) {
        let mut out = String::with_capacity(96);
        out.push_str("{\"name\":\"");
        escape_into(&mut out, event.name);
        out.push_str("\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
        out.push_str(&event.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&event.ts_us.to_string());
        out.push(',');
        args_into(&mut out, &event.fields, event.rid);
        out.push('}');
        self.push(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_valid_chrome_trace_shapes() {
        let writer = JsonWriter::new();
        writer.on_span(&ClosedSpan {
            name: "store.put",
            fields: vec![
                ("folder", Value::Str("g\"1".into())),
                ("bytes", Value::U64(42)),
            ],
            start_us: 10,
            duration: Duration::from_micros(250),
            tid: 3,
            rid: 77,
            depth: 0,
            open_seq: 1,
        });
        writer.on_event(&Event {
            name: "fault.timeout",
            fields: vec![("domain", Value::U64(2))],
            ts_us: 20,
            tid: 3,
            rid: 77,
        });
        assert_eq!(writer.len(), 2);
        let dir = std::env::temp_dir().join("telemetry-chrome-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        writer.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(
            text.contains("\"ph\":\"X\""),
            "span rendered as complete event"
        );
        assert!(text.contains("\"ph\":\"i\""), "event rendered as instant");
        assert!(text.contains("\"rid\":77"));
        assert!(text.contains("g\\\"1"), "strings are escaped");
        std::fs::remove_dir_all(&dir).ok();
    }
}
