//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer's public functions — never inside the program under test. Each
//! span carries its name (`<layer>.<call>`), start and end, the span that
//! caused it, and the request (or iteration) it belongs to. They are kept
//! in memory and written out as one JSON document when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The request id of spans recorded during set-up, outside any
/// measured iteration.
pub const SETUP: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// `<layer>.<call>`, e.g. `models.build` or `server.submit`.
    pub name: &'static str,
    /// The model, scheduler member, operation or rate the call served.
    pub detail: String,
    /// The request or iteration the span belongs to.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin.
    pub end: f64,
}

impl Span {
    /// Wall seconds the span covers.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span sink shared by every thread of one run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id before the span is timed, so children can
    /// name their parent while it is still open.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span the caller timed itself under a reserved `id`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        detail: impl Into<String>,
        request: u64,
        parent: Option<u64>,
        (start, end): (Instant, Instant),
    ) {
        let span = Span {
            id,
            name,
            detail: detail.into(),
            request,
            parent,
            start: start.duration_since(self.origin).as_secs_f64(),
            end: end.duration_since(self.origin).as_secs_f64(),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Times `call` as one span; `call` receives the span's id so the
    /// spans it opens can name it as their parent.
    pub fn time<T>(
        &self,
        name: &'static str,
        detail: impl Into<String>,
        request: u64,
        parent: Option<u64>,
        call: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = call(id);
        self.record(id, name, detail, request, parent, (start, Instant::now()));
        out
    }

    /// A copy of every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {}, \"name\": \"{}\", \"detail\": \"{}\", \"request\": {}, \
                 \"parent\": {}, \"start_s\": {}, \"end_s\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                s.name,
                s.detail.replace(['"', '\\'], "_"),
                s.request,
                parent,
                s.start,
                s.end
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one span never overlap in this benchmark — each
/// layer call is made from the thread that opened the parent).
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut out: HashMap<u64, f64> = spans.iter().map(|s| (s.id, s.seconds())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(t) = out.get_mut(&p) {
                *t -= s.seconds();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new();
        rec.time("bench.iteration", "", 0, None, |root| {
            rec.time("models.build", "m", 0, Some(root), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let selfs = self_times(&spans);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        let child = spans.iter().find(|s| s.parent.is_some()).unwrap();
        assert!(child.seconds() >= 0.005);
        let root_self = selfs[&root.id];
        assert!(root_self >= 0.002 && root_self < root.seconds());
        assert!((root_self + child.seconds() - root.seconds()).abs() < 1e-9);
    }
}
