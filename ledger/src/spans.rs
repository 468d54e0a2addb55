//! In-memory spans around the benchmark's calls into each layer: name,
//! start, end and parent. They are written out as a Chrome trace when the
//! traced run ends, and summarized into per-name total and self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Records nested spans on the benchmark's (single) driving thread.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.t0.elapsed();
        self.tracer.spans.borrow_mut()[self.id].end = end;
        self.tracer.open.borrow_mut().pop();
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: RefCell::default(), open: RefCell::default() }
    }

    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        let start = self.t0.elapsed();
        spans.push(Span { name, parent, start, end: start });
        self.open.borrow_mut().push(id);
        Guard { tracer: self, id }
    }

    /// Chrome trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, with its id and parent id as arguments.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Per span name: (count, total time, self time), where self time is
    /// a span's duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, Duration, Duration)> {
        let spans = self.spans.borrow();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += (s.end - s.start).saturating_sub(children);
        }
        out
    }
}

/// A span when tracing, nothing otherwise.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<Guard<'a>> {
    tracer.map(|t| t.span(name))
}
