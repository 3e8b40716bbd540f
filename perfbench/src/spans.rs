//! In-memory span log: the traced run records a span (name, start, end,
//! parent) around each call it makes into a layer, keeps them in memory,
//! and writes them out once when the run ends.

use std::fs;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sbp_sweep::json;
use sbp_types::SbpError;

/// One recorded interval. Times are seconds since the pass began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Executor that ran it: a job thread, or a worker process's thread.
    pub lane: u32,
    /// Work done inside the span (attack trials for attack jobs).
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct SpanLog {
    /// A disabled log records nothing, so untraced passes pay no tracing.
    enabled: bool,
    origin: Instant,
    /// Seconds between the pass origin and this log's origin (non-zero in
    /// worker processes, which start after the pass).
    offset: f64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log whose clock starts now; it records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            offset: 0.0,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A log aligned to a pass that began at `epoch_ns` (Unix time), so a
    /// worker's spans land on the coordinator's timeline.
    pub fn aligned(epoch_ns: u128) -> Self {
        let mut log = SpanLog::new(true);
        log.offset = (unix_ns().saturating_sub(epoch_ns)) as f64 * 1e-9;
        log
    }

    pub fn now(&self) -> f64 {
        self.offset + self.origin.elapsed().as_secs_f64()
    }

    pub fn record(&self, name: &str, start: f64, parent: Option<usize>, lane: u32, count: u64) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking job");
        spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            lane,
            count,
        });
    }

    /// Opens a span to be closed with [`SpanLog::close`]; children can
    /// name it as their parent meanwhile.
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking job");
        spans.push(Span {
            name: name.to_string(),
            start,
            end: f64::NAN,
            parent,
            lane: 0,
            count: 0,
        });
        spans.len() - 1
    }

    pub fn close(&self, index: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans
            .lock()
            .expect("span log poisoned by a panicking job")[index]
            .end = end;
    }

    /// Adopts spans recorded by another process, re-parenting their roots
    /// under `parent`.
    pub fn adopt(&self, foreign: Vec<Span>, parent: usize) {
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking job");
        let base = spans.len();
        for mut span in foreign {
            span.parent = Some(span.parent.map_or(parent, |p| base + p));
            spans.push(span);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span log poisoned by a panicking job")
    }
}

pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Writes spans as JSONL, one object per span, in recording order.
pub fn write(spans: &[Span], path: &Path) -> Result<(), SbpError> {
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"name\":{:?},\"start\":{},\"end\":{},\"parent\":{parent},\"lane\":{},\"count\":{}}}\n",
            s.name, s.start, s.end, s.lane, s.count
        ));
    }
    fs::write(path, text)
        .map_err(|e| SbpError::campaign(format!("cannot write {}: {e}", path.display())))
}

/// Reads a file written by [`write`].
pub fn read(path: &Path) -> Result<Vec<Span>, SbpError> {
    let text = fs::read_to_string(path)
        .map_err(|e| SbpError::campaign(format!("cannot read {}: {e}", path.display())))?;
    let bad = |e: String| SbpError::campaign(format!("{}: {e}", path.display()));
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let value = json::parse(line).map_err(bad)?;
        let obj = value
            .as_object()
            .ok_or_else(|| bad("span line is not an object".to_string()))?;
        let parent = match json::get(obj, "parent").map_err(bad)? {
            json::Value::Null => None,
            _ => Some(json::get_u64(obj, "parent").map_err(bad)? as usize),
        };
        spans.push(Span {
            name: json::get_str(obj, "name").map_err(bad)?.to_string(),
            start: json::get_f64(obj, "start").map_err(bad)?,
            end: json::get_f64(obj, "end").map_err(bad)?,
            parent,
            lane: json::get_u64(obj, "lane").map_err(bad)? as u32,
            count: json::get_u64(obj, "count").map_err(bad)?,
        });
    }
    Ok(spans)
}
