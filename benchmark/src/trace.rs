//! The benchmark's own span recorder: spans around the calls *into*
//! the program (choosing-metrics §4 — spans inside the program are a
//! later change). Spans stay in memory and are written as Chrome-trace
//! JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `op.<kind>`, `daemon.<verb>`, `setup.<phase>` or
    /// `probe.<layer>.<fn>`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (op index) this span belongs to; spans of one op
    /// share it.
    pub run: u64,
}

impl Span {
    /// The span's length in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; a disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    /// A tracer; `enabled` = false for the timed (untraced) runs.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Switches recording on or off (between the untraced and traced
    /// segments of one traced run).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations in ms of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Chrome `trace_event` JSON: one complete (`"X"`) event per span on
/// one thread, the parent index and request id in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = s.name.split('.').next().unwrap_or("span");
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.run
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            run: 3,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100) -> batch [5,25), drain [30,90) -> inner [40,60);
        // a probe sibling [100,150).
        let spans = vec![
            span("op.fib", 0, 100, None),
            span("daemon.batch", 5, 25, Some(0)),
            span("daemon.drain", 30, 90, Some(0)),
            span("inner", 40, 60, Some(2)),
            span("probe.json.decode", 100, 150, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20, 50]);
        assert_eq!(durations_ms(&spans, "daemon.drain"), vec![60.0 / 1e6]);
    }

    #[test]
    fn tracer_nests_and_stamps_the_run() {
        let mut t = Tracer::new(true);
        t.set_run(9);
        t.begin("op.read");
        t.scope("daemon.status", || ());
        t.scope("daemon.report", || ());
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.run == 9));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let json = chrome_trace_json(s);
        assert!(tulkun::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.scope("op.fib", || ());
        assert!(t.spans().is_empty());
    }
}
