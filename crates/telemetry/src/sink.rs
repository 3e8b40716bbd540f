//! The process-wide telemetry sink and its emit API.
//!
//! The sink is disabled by default; every emit helper is a no-op that
//! costs one relaxed atomic load, so instrumented hot paths (the
//! per-phase hooks in `sbp_sim`, the per-job hooks in `sbp_sweep`) pay
//! nothing when telemetry is off.
//!
//! Job-lane events are buffered in a thread-local [`job_scope`] and
//! flushed as one atomic append when the scope ends, so parallel jobs
//! never interleave lines in the sidecar file. Control-lane events
//! write straight through under the state lock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{span_id, Event, Kind};

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<SinkState>> = Mutex::new(None);

struct SinkState {
    entry: String,
    shard: u32,
    path: Option<PathBuf>,
    epoch: Instant,
    control_seq: u32,
    /// Every event the sink has accepted, in flush order. The
    /// in-process campaign path reads this back with [`take_events`]
    /// instead of round-tripping through a file.
    events: Vec<Event>,
}

thread_local! {
    static SCOPE: RefCell<Option<JobBuf>> = const { RefCell::new(None) };
}

struct JobBuf {
    entry: String,
    shard: u32,
    epoch: Instant,
    job: u64,
    seq: u32,
    events: Vec<Event>,
}

impl JobBuf {
    fn push(&mut self, det: bool, kind: Kind, id: u64, name: &str, value: f64, detail: &str) {
        // Timestamps ride on every event (including deterministic
        // ones): the canonical projection zeroes them back out.
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.events.push(Event {
            entry: self.entry.clone(),
            shard: self.shard,
            job: Some(self.job),
            seq: self.seq,
            id,
            det,
            ts_us,
            kind,
            name: name.to_string(),
            value,
            detail: detail.to_string(),
        });
        self.seq += 1;
    }
}

/// Whether the sink is currently accepting events.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables the sink for this process.
///
/// `entry` labels subsequent events (swap it with [`set_entry`]),
/// `shard` is the lane number (0 = coordinator / in-process runner,
/// workers 1-based), and `path`, when given, is the sidecar JSONL file
/// events are appended to as they flush. The file is opened
/// append-only and never truncated: retries of a crashed worker append
/// a fresh run and the timeline merge keeps the last run per lane.
pub fn enable(entry: &str, shard: u32, path: Option<&Path>) {
    if let Some(p) = path {
        if let Some(parent) = p.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
    }
    let mut state = STATE.lock().unwrap();
    *state = Some(SinkState {
        entry: entry.to_string(),
        shard,
        path: path.map(Path::to_path_buf),
        epoch: Instant::now(),
        control_seq: 0,
        events: Vec::new(),
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Relabels subsequent events with a new catalog entry name.
pub fn set_entry(entry: &str) {
    if !enabled() {
        return;
    }
    if let Some(state) = STATE.lock().unwrap().as_mut() {
        state.entry = entry.to_string();
    }
}

/// Disables the sink and drops its state. Buffered control events are
/// already on disk (they write through); any still-open [`job_scope`]
/// on another thread flushes into the void.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    *STATE.lock().unwrap() = None;
}

/// Removes and returns every event the sink has collected so far.
pub fn take_events() -> Vec<Event> {
    match STATE.lock().unwrap().as_mut() {
        Some(state) => std::mem::take(&mut state.events),
        None => Vec::new(),
    }
}

/// Copies every event the sink has collected so far, leaving them in
/// place (unlike [`take_events`]).
pub fn events() -> Vec<Event> {
    match STATE.lock().expect("telemetry sink lock").as_ref() {
        Some(state) => state.events.clone(),
        None => Vec::new(),
    }
}

/// Runs `f` with a job-lane scope for plan job `job`.
///
/// Events emitted by `f` on this thread ([`span`], [`counter`],
/// [`gauge`], [`mark`]) buffer into the scope and flush atomically when
/// `f` returns — including on panic, so a crashing worker's sidecar
/// still carries every completed job. When the sink is disabled, or a
/// scope is already open on this thread (nested jobs), `f` runs
/// unwrapped.
pub fn job_scope<R>(job: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let installed = SCOPE.with(|scope| {
        let mut slot = scope.borrow_mut();
        if slot.is_some() {
            return false;
        }
        let state_guard = STATE.lock().unwrap();
        let Some(state) = state_guard.as_ref() else {
            return false;
        };
        *slot = Some(JobBuf {
            entry: state.entry.clone(),
            shard: state.shard,
            epoch: state.epoch,
            job,
            seq: 0,
            events: Vec::new(),
        });
        true
    });
    if !installed {
        return f();
    }
    struct FlushGuard;
    impl Drop for FlushGuard {
        fn drop(&mut self) {
            let buf = SCOPE.with(|scope| scope.borrow_mut().take());
            if let Some(buf) = buf {
                flush_events(buf.events);
            }
        }
    }
    let _guard = FlushGuard;
    f()
}

/// The identity of the job scope open on the current thread, so helper
/// threads working for that job (the sampled-window fan-out) can record
/// events into it. Inert when no scope is open.
#[derive(Debug, Clone)]
pub struct JobScope(Option<ScopeId>);

#[derive(Debug, Clone)]
struct ScopeId {
    entry: String,
    shard: u32,
    epoch: Instant,
    job: u64,
}

impl JobScope {
    /// The scope open on this thread, if any.
    pub fn current() -> JobScope {
        let id = enabled().then(|| {
            SCOPE.with(|scope| {
                scope.borrow().as_ref().map(|buf| ScopeId {
                    entry: buf.entry.clone(),
                    shard: buf.shard,
                    epoch: buf.epoch,
                    job: buf.job,
                })
            })
        });
        JobScope(id.flatten())
    }

    /// Runs `f` on a helper thread, buffering the events it emits for
    /// this scope; hand them to [`adopt`] on the scope's own thread.
    pub fn capture<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        let Some(id) = &self.0 else {
            return (f(), Vec::new());
        };
        let installed = SCOPE.with(|scope| {
            let mut slot = scope.borrow_mut();
            if slot.is_some() {
                return false;
            }
            *slot = Some(JobBuf {
                entry: id.entry.clone(),
                shard: id.shard,
                epoch: id.epoch,
                job: id.job,
                seq: 0,
                events: Vec::new(),
            });
            true
        });
        if !installed {
            return (f(), Vec::new());
        }
        struct Uninstall;
        impl Drop for Uninstall {
            fn drop(&mut self) {
                SCOPE.with(|scope| scope.borrow_mut().take());
            }
        }
        let guard = Uninstall;
        let out = f();
        let events = SCOPE.with(|scope| {
            scope
                .borrow_mut()
                .as_mut()
                .map(|b| std::mem::take(&mut b.events))
        });
        drop(guard);
        (out, events.unwrap_or_default())
    }
}

/// Appends events captured by [`JobScope::capture`] to the current job
/// scope, renumbering their sequence numbers and span IDs into its lane.
/// Adopting captures in a fixed order keeps the lane deterministic.
pub fn adopt(events: Vec<Event>) {
    with_scope(|buf| {
        let mut ids = HashMap::new();
        for mut e in events {
            e.id = match e.kind {
                Kind::Begin => {
                    let id = span_id(buf.shard, Some(buf.job), buf.seq);
                    ids.insert(e.id, id);
                    id
                }
                Kind::End => ids.get(&e.id).copied().unwrap_or(0),
                _ => e.id,
            };
            e.seq = buf.seq;
            buf.seq += 1;
            buf.events.push(e);
        }
    });
}

/// Appends events to the sink's collection and sidecar file in one
/// locked step, so concurrent job flushes never interleave.
fn flush_events(events: Vec<Event>) {
    if events.is_empty() {
        return;
    }
    let mut state_guard = STATE.lock().unwrap();
    let Some(state) = state_guard.as_mut() else {
        return;
    };
    if let Some(path) = &state.path {
        let mut lines = String::new();
        for e in &events {
            lines.push_str(&e.to_line());
            lines.push('\n');
        }
        if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
            let _ = f.write_all(lines.as_bytes());
        }
    }
    state.events.extend(events);
}

fn with_scope(f: impl FnOnce(&mut JobBuf)) {
    if !enabled() {
        return;
    }
    SCOPE.with(|scope| {
        if let Some(buf) = scope.borrow_mut().as_mut() {
            f(buf);
        }
    });
}

/// An open job-lane span; ends (and records its advisory duration)
/// when dropped. Inert when created outside a [`job_scope`].
#[must_use = "a span ends when dropped; binding it to _ ends it immediately"]
pub struct Span {
    armed: Option<SpanArm>,
}

struct SpanArm {
    id: u64,
    det: bool,
    name: String,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(arm) = self.armed.take() {
            let dur_us = arm.start.elapsed().as_micros() as f64;
            with_scope(|buf| {
                buf.push(arm.det, Kind::End, arm.id, &arm.name, dur_us, "");
            });
        }
    }
}

/// Opens a span in the current job scope. `det` marks the span as part
/// of the deterministic projection (use `true` only when the span's
/// existence and order depend solely on simulated state).
pub fn span(name: &str, det: bool, detail: &str) -> Span {
    let mut armed = None;
    with_scope(|buf| {
        let id = span_id(buf.shard, Some(buf.job), buf.seq);
        buf.push(det, Kind::Begin, id, name, 0.0, detail);
        armed = Some(SpanArm {
            id,
            det,
            name: name.to_string(),
            start: Instant::now(),
        });
    });
    Span { armed }
}

/// Records a counter event in the current job scope.
pub fn counter(name: &str, value: f64, det: bool, detail: &str) {
    with_scope(|buf| buf.push(det, Kind::Counter, 0, name, value, detail));
}

/// Records a gauge event in the current job scope.
pub fn gauge(name: &str, value: f64, det: bool, detail: &str) {
    with_scope(|buf| buf.push(det, Kind::Gauge, 0, name, value, detail));
}

/// Records a mark event in the current job scope.
pub fn mark(name: &str, det: bool, detail: &str) {
    with_scope(|buf| buf.push(det, Kind::Mark, 0, name, 0.0, detail));
}

/// How a control-lane event gets its span id.
enum ControlId {
    /// Derive from the lane position (span Begins).
    FromSeq,
    /// Reuse the opening Begin's id (span Ends).
    Fixed(u64),
    /// Non-span events carry no id.
    Zero,
}

/// Pushes one control-lane event straight through the sink.
fn control_event(kind: Kind, id_mode: ControlId, name: &str, value: f64, detail: &str) -> u64 {
    let mut state_guard = STATE.lock().unwrap();
    let Some(state) = state_guard.as_mut() else {
        return 0;
    };
    let seq = state.control_seq;
    state.control_seq += 1;
    let id = match id_mode {
        ControlId::FromSeq => span_id(state.shard, None, seq),
        ControlId::Fixed(id) => id,
        ControlId::Zero => 0,
    };
    let event = Event {
        entry: state.entry.clone(),
        shard: state.shard,
        job: None,
        seq,
        id,
        det: false,
        ts_us: state.epoch.elapsed().as_micros() as u64,
        kind,
        name: name.to_string(),
        value,
        detail: detail.to_string(),
    };
    if let Some(path) = &state.path {
        if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
            let _ = f.write_all(format!("{}\n", event.to_line()).as_bytes());
        }
    }
    state.events.push(event);
    id
}

/// Ends the control-lane span that created it when dropped.
#[must_use = "a span ends when dropped; binding it to _ ends it immediately"]
pub struct ControlSpan {
    armed: Option<(u64, String, Instant)>,
}

impl Drop for ControlSpan {
    fn drop(&mut self) {
        if let Some((id, name, start)) = self.armed.take() {
            if !enabled() {
                return;
            }
            let dur_us = start.elapsed().as_micros() as f64;
            control_event(Kind::End, ControlId::Fixed(id), &name, dur_us, "");
        }
    }
}

/// Opens a control-lane span (coordinator/worker lifecycle — always
/// advisory). Events write through immediately.
pub fn control_span(name: &str, detail: &str) -> ControlSpan {
    if !enabled() {
        return ControlSpan { armed: None };
    }
    let id = control_event(Kind::Begin, ControlId::FromSeq, name, 0.0, detail);
    if id == 0 {
        return ControlSpan { armed: None };
    }
    ControlSpan {
        armed: Some((id, name.to_string(), Instant::now())),
    }
}

/// Records a control-lane mark (stall kills, retries, heartbeats).
pub fn control_mark(name: &str, detail: &str) {
    if !enabled() {
        return;
    }
    control_event(Kind::Mark, ControlId::Zero, name, 0.0, detail);
}

/// Records a control-lane gauge (heartbeat ages, GC stats).
pub fn control_gauge(name: &str, value: f64, detail: &str) {
    if !enabled() {
        return;
    }
    control_event(Kind::Gauge, ControlId::Zero, name, value, detail);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test (not several): the sink is process-global.
    #[test]
    fn helper_thread_captures_adopt_into_the_job_lane() {
        enable("entry", 1, None);
        job_scope(7, || {
            let _outer = span("job", true, "");
            let scope = JobScope::current();
            let captured: Vec<Vec<Event>> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            scope
                                .capture(|| {
                                    let _window = span("steady_window", false, "");
                                    counter("inner", 1.0, false, "");
                                })
                                .1
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for events in captured {
                assert_eq!(events.len(), 3, "begin, counter, end");
                adopt(events);
            }
        });
        let events = take_events();
        disable();
        assert!(events.iter().all(|e| e.job == Some(7)));
        assert_eq!(events.len(), 2 + 2 * 3);
        crate::validate(&events).expect("adopted events keep the lane well-formed");
        // Outside a scope, capture runs inert.
        let (value, events) = JobScope::current().capture(|| 3);
        assert_eq!((value, events.len()), (3, 0));
    }
}
