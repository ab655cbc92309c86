//! The benchmark's own span recorder: spans around the calls it makes into
//! each layer, kept in memory and written out as one Chrome trace-event file
//! (chrome://tracing, Perfetto) when the run ends.
//!
//! Disabled recorders cost one branch per span, so the untraced runs that
//! give the end-to-end numbers carry no recording.

use std::fmt::Write as _;
use std::time::Instant;

/// One complete span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Chrome "thread" row the span is drawn on.
    tid: u32,
}

/// An open span: close it with [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// In-memory span log.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Spans beyond this count are not recorded (a bound on the file size).
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cap: 200_000,
            dropped: 0,
        }
    }

    /// Opens a span on row `tid`, nested in the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>, cat: &'static str, tid: u32) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { index: None, start };
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open { index: None, start };
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            cat,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
            parent: self.stack.last().copied(),
            tid,
        });
        self.stack.push(index);
        Open {
            index: Some(index),
            start,
        }
    }

    /// Closes `open`; returns its duration in nanoseconds (measured even
    /// when recording is off).
    pub fn end(&mut self, open: Open) -> u64 {
        let dur = open.start.elapsed().as_nanos() as u64;
        if let Some(index) = open.index {
            self.spans[index].dur_ns = dur;
            if self.stack.last() == Some(&index) {
                self.stack.pop();
            }
        }
        dur
    }

    /// Renders the log as a Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                span.name.replace('"', "'"),
                span.cat,
                span.tid,
                span.start_ns as f64 / 1000.0,
                span.dur_ns as f64 / 1000.0,
                i,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export() {
        let mut spans = Spans::new(true);
        let outer = spans.begin("outer", "bench", 0);
        let inner = spans.begin("inner", "bench", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.end(inner);
        spans.end(outer);
        assert_eq!(spans.spans.len(), 2);
        let json = spans.to_chrome_json();
        assert!(json.contains("\"name\":\"outer\"") && json.contains("\"parent\":0"));
        assert!(spans.spans[1].dur_ns >= 2_000_000);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut spans = Spans::new(false);
        let open = spans.begin("x", "bench", 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(spans.end(open) >= 1_000_000);
        assert!(spans.spans.is_empty());
    }
}
